//! Deadlock-safe switch-destined columns for the minimal engines.
//!
//! Min-Hop and the fat-tree engine spread *every* destination across its
//! minimal next hops. For HCA-destined LIDs that is safe on a layered
//! tree: those routes ascend ranks and then descend, so their channel
//! dependencies can never close a cycle. Switch-destined LIDs break the
//! argument — a route from one spine to a sibling spine must descend
//! into a leaf and climb back out (a *valley*), and two valleys through
//! different leaves, stitched together by ordinary switch-to-switch
//! arches, close a credit loop on a single lane. OpenSM documents the
//! same caveat for its ftree engine: switch-to-switch paths are not
//! guaranteed credit-loop-free.
//!
//! The cure is an *inverted* Up*/Down* on a dedicated lane:
//!
//! * every component designates a hub (its highest-index switch — see
//!   [`SwitchColumns::new`] for why highest) and orients itself by BFS
//!   distance to it;
//! * a switch-destined route runs in two phases: *inbound* steps that
//!   strictly decrease the hub distance, then *outbound* steps that
//!   strictly increase it while closing in on the destination's
//!   outbound cone — exactly a valley, which is the natural shape of
//!   switch-to-switch traffic (the classic Up*/Down* shape, with the
//!   root at the bottom);
//! * those LIDs ride a dedicated virtual lane ([`SWITCH_VL`]), so no
//!   dependency can span a valley and a minimal host column.
//!
//! The lane's channel-dependency graph is acyclic on *any* topology:
//! every channel either strictly decreases the hub distance or strictly
//! increases it, a route only ever chains in→in, in→out, or out→out —
//! outbound-cone switches always continue outbound, so no route turns
//! back inbound — and a cycle would need the missing out→in edge.
//!
//! Within the legal candidate sets the picks spread modularly, like the
//! engines' host columns, and the repair path keeps an installed port
//! whenever it is still legal (sticky selection). That division of
//! labor is what lets incremental repair beat a full sweep's block
//! diff: a lost link shrinks candidate sets, so a full recompute
//! reshuffles every modular pick in the affected columns, while the
//! sticky splice rewrites only the entries the fault actually broke.
//!
//! Switch LIDs carry management-plane traffic (SMPs ride VL15 anyway);
//! the valley detour costs nothing the paper's Fig. 7 measures.

use ib_types::{Lid, PortNum, VirtualLane};
use rustc_hash::FxHashMap;

use crate::graph::{parallel_for_each, Destination, SwitchGraph};
use crate::tables::VlAssignment;

/// The data lane reserved for switch-destined LIDs (hosts stay on VL0).
const SWITCH_VL: VirtualLane = VirtualLane::VL1;

/// The VL layering that isolates switch-destined LIDs on [`SWITCH_VL`]:
/// `SingleVl` when the fabric registers no switch LIDs at all, the
/// per-destination map otherwise.
#[must_use]
pub(crate) fn switch_dest_vls(g: &SwitchGraph) -> VlAssignment {
    let map: FxHashMap<u16, VirtualLane> = g
        .destinations()
        .iter()
        .filter(|d| d.port == PortNum::MANAGEMENT)
        .map(|d| (d.lid.raw(), SWITCH_VL))
        .collect();
    if map.is_empty() {
        VlAssignment::SingleVl
    } else {
        VlAssignment::PerDestination(map)
    }
}

/// Precomputed valley-legal distances toward the switch-destined
/// delivery switches it was asked for, shared by the Min-Hop and fat-tree
/// engines.
///
/// One hub BFS per component plus, per delivery switch, one outbound
/// cone sweep and one inbound relaxation — fanned across workers (rows
/// are independent and pure functions of the graph, so a row is
/// byte-identical for any worker count and any set of sibling rows).
pub(crate) struct SwitchColumns<'g> {
    /// The graph the rows were built on; its neighbour lists are in port
    /// order, which keeps the modular picks deterministic.
    g: &'g SwitchGraph,
    /// Delivery switch -> row index into `ddist`/`full`; `NO_ROW` for a
    /// switch no row was built for.
    row_of: Vec<u32>,
    /// Row r: length of the shortest strictly-outbound path to delivery
    /// switch r (`u32::MAX` outside its outbound cone).
    ddist: Vec<u32>,
    /// Row r: length of the shortest valley-legal path to delivery
    /// switch r.
    full: Vec<u32>,
    /// BFS distance to the component hub.
    dist: Vec<u32>,
    /// Component label per switch; cross-component picks are `None`.
    comp: Vec<u32>,
    n: usize,
}

const NO_ROW: u32 = u32::MAX;

impl<'g> SwitchColumns<'g> {
    /// Builds the valley-legal distance rows for the delivery switches of
    /// the switch-destined LIDs among `dests` (deduplicated, in index
    /// order): all of `g.destinations()` on a full compute, the dirty
    /// columns on a repair. Splits are not errors: cross-component
    /// entries stay `u32::MAX` and [`Self::sticky_pick`] turns them into
    /// explicit `None` holes.
    pub fn new(g: &'g SwitchGraph, workers: usize, dests: &[Destination]) -> Self {
        let n = g.len();
        let comps = g.components();
        let comp: Vec<u32> = (0..n).map(|s| comps.label_of(s)).collect();

        // Hub BFS per component. The hub is the component's *highest*
        // switch index: indices are stable across faults (nothing
        // renumbers), and topology builders register leaves before
        // spines, so a spine hub keeps its distance field intact under
        // the leaf-edge faults that dominate — which keeps incremental
        // repair's spliced switch columns byte-identical outside the
        // fault's neighborhood.
        let mut dist = vec![u32::MAX; n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        for c in 0..comps.count() as u32 {
            let Some(hub) = (0..n).rev().find(|&s| comp[s] == c) else {
                continue;
            };
            dist[hub] = 0;
            queue.clear();
            queue.push(hub as u32);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                for &(v, _) in g.neighbors(u) {
                    if dist[v as usize] == u32::MAX {
                        dist[v as usize] = dist[u] + 1;
                        queue.push(v);
                    }
                }
            }
        }

        // Inbound relaxation order: hub-closest first, so a switch's
        // inbound neighbors are final before it is processed.
        let order = {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_unstable_by_key(|&s| (dist[s], s));
            order
        };

        let mut dsws: Vec<usize> = dests
            .iter()
            .filter(|d| d.port == PortNum::MANAGEMENT)
            .map(|d| d.switch)
            .collect();
        dsws.sort_unstable();
        dsws.dedup();
        let mut row_of = vec![NO_ROW; n];
        for (i, &s) in dsws.iter().enumerate() {
            row_of[s] = i as u32;
        }

        // One work item per delivery switch: its index plus its
        // (cone-distance, full-distance) row slices.
        type Row<'a> = (usize, (&'a mut [u32], &'a mut [u32]));
        let mut ddist = vec![u32::MAX; dsws.len() * n];
        let mut full = vec![u32::MAX; dsws.len() * n];
        let mut rows: Vec<Row> = dsws
            .iter()
            .copied()
            .zip(ddist.chunks_mut(n).zip(full.chunks_mut(n)))
            .collect();
        parallel_for_each(
            &mut rows,
            workers,
            || Vec::<u32>::with_capacity(n),
            |queue, _, (dsw, (ddist, full))| {
                // Outbound cone: reverse BFS from the delivery switch
                // along strictly hub-ward predecessors, so the y..dsw
                // suffix is strictly outbound. The BFS property (every
                // non-hub switch has a neighbor one step closer to the
                // hub) guarantees the cone always reaches the hub.
                ddist[*dsw] = 0;
                queue.clear();
                queue.push(*dsw as u32);
                let mut head = 0;
                while head < queue.len() {
                    let x = queue[head] as usize;
                    head += 1;
                    for &(y, _) in g.neighbors(x) {
                        let y = y as usize;
                        if dist[y].wrapping_add(1) == dist[x] && ddist[y] == u32::MAX {
                            ddist[y] = ddist[x] + 1;
                            queue.push(y as u32);
                        }
                    }
                }
                // Inbound phase: a switch outside the cone heads
                // hub-ward; a switch inside it must stay outbound (an
                // inbound turn there would hand out→in dependencies to
                // routes already descending the cone).
                full.copy_from_slice(ddist);
                for &x in &order {
                    if ddist[x] != u32::MAX {
                        continue;
                    }
                    for &(v, _) in g.neighbors(x) {
                        let v = v as usize;
                        if dist[v].wrapping_add(1) == dist[x] && full[v] != u32::MAX {
                            full[x] = full[x].min(full[v].saturating_add(1));
                        }
                    }
                }
            },
        );

        Self {
            g,
            row_of,
            ddist,
            full,
            dist,
            comp,
            n,
        }
    }

    /// Whether the hop `s -> v` legally continues a route toward the
    /// row's delivery switch: outbound (hub distance up, cone distance
    /// down) inside the cone, inbound (hub distance down, staying
    /// minimal) outside it.
    fn legal(&self, ddist: &[u32], full: &[u32], s: usize, v: usize) -> bool {
        if ddist[s] != u32::MAX {
            self.dist[v] == self.dist[s].wrapping_add(1) && ddist[v].wrapping_add(1) == ddist[s]
        } else {
            self.dist[v].wrapping_add(1) == self.dist[s]
                && full[v] != u32::MAX
                && full[v] + 1 == full[s]
        }
    }

    /// The legal egress at `s` toward the switch LID `lid` delivered at
    /// `dsw`: `installed` whenever it is still a legal candidate — so a
    /// splice rewrites only the entries a fault actually broke — else the
    /// ((lid + s) mod candidates)-th legal port in port order: the host
    /// columns' modular spread, staggered by source so uniformly-cabled
    /// switches don't all break the same column when one cable dies.
    /// `None` when `s` sits across a split from `dsw` (an explicit hole).
    /// Callers handle the `s == dsw` delivery row themselves.
    pub fn sticky_pick(
        &self,
        dsw: usize,
        lid: Lid,
        s: usize,
        installed: Option<PortNum>,
    ) -> Option<PortNum> {
        let (ddist, full) = self.row(dsw, s)?;
        let legal = |v: usize| self.legal(ddist, full, s, v);
        if let Some(p) = installed.filter(|&p| self.g.peer(s, p).is_some_and(legal)) {
            return Some(p);
        }
        let ports = || {
            let neighbors = self.g.neighbors(s).iter();
            neighbors
                .filter(|&&(v, _)| legal(v as usize))
                .map(|&(_, p)| p)
        };
        // No legal port is unreachable on a connected component; be
        // defensive — the verifier reports the hole if it ever happens.
        let want = (lid.raw() as usize + s) % ports().count().max(1);
        ports().nth(want)
    }

    /// The `dsw` row slices, or `None` when `s` cannot reach `dsw` (a
    /// split). Asking for a delivery switch no row was built for is a bug
    /// in the calling engine — it would otherwise read as a silent hole.
    fn row(&self, dsw: usize, s: usize) -> Option<(&[u32], &[u32])> {
        let gi = self.row_of[dsw];
        assert!(gi != NO_ROW, "no valley row was built for switch {dsw}");
        let gi = gi as usize;
        if self.comp[s] != self.comp[dsw] {
            return None;
        }
        let ddist = &self.ddist[gi * self.n..(gi + 1) * self.n];
        let full = &self.full[gi * self.n..(gi + 1) * self.n];
        if full[s] == u32::MAX {
            return None;
        }
        Some((ddist, full))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::assign_lids;
    use ib_subnet::topology::fattree::three_level;

    /// `three_level(4,4,4,4)` with one mid-core cable down, and — when
    /// `split` — leaf 0 cut off from every mid switch as well.
    fn degraded_tree(split: bool) -> SwitchGraph {
        let mut t = three_level(4, 4, 4, 4);
        assign_lids(&mut t);
        let mid = t.switch_levels[1][1];
        t.subnet
            .set_link_down(mid, PortNum::new(5))
            .expect("a mid's first core uplink");
        if split {
            let leaf = t.switch_levels[0][0];
            let uplinks: Vec<PortNum> = t
                .subnet
                .node(leaf)
                .connected_ports()
                .filter(|(_, r)| t.subnet.node(r.node).is_switch())
                .map(|(p, _)| p)
                .collect();
            for p in uplinks {
                t.subnet.set_link_down(leaf, p).unwrap();
            }
        }
        let g = SwitchGraph::build(&t.subnet).unwrap();
        assert_eq!(g.components().is_partitioned(), split);
        g
    }

    /// Rows are pure functions of the graph: building a subset gives the
    /// same rows — and so the same picks — as building them all.
    #[test]
    fn subset_rows_equal_the_full_builds() {
        for split in [false, true] {
            let g = degraded_tree(split);
            let full = SwitchColumns::new(&g, 1, g.destinations());
            let subset: Vec<Destination> = g
                .destinations()
                .iter()
                .copied()
                .filter(|d| d.port == PortNum::MANAGEMENT && d.switch % 5 == 0)
                .collect();
            assert!(subset.len() > 2);
            let some = SwitchColumns::new(&g, 2, &subset);
            for d in &subset {
                for s in 0..g.len() {
                    assert_eq!(
                        some.row(d.switch, s),
                        full.row(d.switch, s),
                        "split={split}"
                    );
                    assert_eq!(
                        some.sticky_pick(d.switch, d.lid, s, None),
                        full.sticky_pick(d.switch, d.lid, s, None),
                        "split={split} dsw={} s={s}",
                        d.switch
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no valley row was built")]
    fn asking_for_an_unbuilt_row_is_not_a_silent_hole() {
        let g = degraded_tree(false);
        let only: Vec<Destination> = g
            .destinations()
            .iter()
            .copied()
            .filter(|d| d.port == PortNum::MANAGEMENT && d.switch == 0)
            .collect();
        let cols = SwitchColumns::new(&g, 1, &only);
        let _ = cols.sticky_pick(1, Lid::from_raw(2), 0, None);
    }
}
