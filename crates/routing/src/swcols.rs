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
//! The cure is Up*/Down* rooted at a hub, on its own lane: switch LIDs
//! follow an [`Orientation`] (the one the Up*/Down* engine routes on)
//! and ride [`SWITCH_VL`], so their dependencies are acyclic by the
//! Up*/Down* theorem on any topology and never chain into a minimal host
//! column. Each component's hub is its *highest-index* switch: indices
//! are stable across faults (nothing renumbers), and topology builders
//! register leaves before spines, so a spine hub keeps its orientation
//! under the leaf-edge faults that dominate — which keeps incremental
//! repair's spliced switch columns byte-identical outside the fault's
//! neighbourhood. On a tree the routes are valleys (the classic shape
//! with the root at the bottom), the natural shape of switch-to-switch
//! traffic.
//!
//! Within the legal candidate sets the picks spread modularly, like the
//! engines' host columns, and the repair path keeps an installed port
//! whenever it is still legal (sticky selection). That division of
//! labor is what lets incremental repair beat a full sweep's block
//! diff: a lost link shrinks candidate sets, so a full recompute
//! reshuffles every modular pick in the affected columns, while the
//! sticky splice rewrites only the entries the fault actually broke.
//!
//! The lane is filled one column at a time ([`SwitchColumns::new`]): a
//! worker builds one delivery switch's legal row (two `u32` per switch)
//! and walks every switch against it while it is in cache. No n × n
//! matrix of rows is ever held; the engines then copy the finished
//! columns into their switch-major rows. Walking switch-major instead —
//! each cell reading its own delivery switch's row — touches the whole
//! matrix for every switch and misses cache on nearly every pick.
//!
//! Switch LIDs carry management-plane traffic (SMPs ride VL15 anyway);
//! the valley detour costs nothing the paper's Fig. 7 measures.

use ib_types::{Lid, PortNum, VirtualLane};
use rustc_hash::FxHashMap;

use crate::graph::{parallel_for_each, Destination, SwitchGraph};
use crate::tables::{Splice, VlAssignment};
#[cfg(any(test, debug_assertions))]
use crate::updn::LegalRows;
use crate::updn::{LegalRow, Orientation};

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

/// The switch-lane picks of the switch-destined columns among a set of
/// destinations, shared by the Min-Hop and fat-tree engines.
pub(crate) struct SwitchColumns {
    n: usize,
    /// `column[di]`: the column of `dests[di]` in `picks`; `NO_COLUMN` for
    /// a host column.
    column: Vec<u32>,
    /// Column-major: `picks[c * n + s]` is column `c`'s entry at switch `s`.
    picks: Vec<Option<PortNum>>,
}

const NO_COLUMN: u32 = u32::MAX;

impl SwitchColumns {
    /// Routes the switch-destined LIDs among `dests` — all of the graph's
    /// destinations on a full compute, the dirty columns on a repair — one
    /// column at a time, fanned across workers, against the entries the
    /// cells of `splice` hold now. Each column is a pure function of the
    /// graph and its installed entries, so the picks are byte-identical
    /// for any worker count. Splits are not errors: cross-component picks
    /// are explicit `None` holes.
    pub fn new(splice: &Splice<'_>, workers: usize, dests: &[Destination]) -> Self {
        let g = splice.graph();
        let n = g.len();
        let lane: Vec<usize> = (0..dests.len())
            .filter(|&di| dests[di].port == PortNum::MANAGEMENT)
            .collect();
        let mut column = vec![NO_COLUMN; dests.len()];
        for (c, &di) in lane.iter().enumerate() {
            column[di] = c as u32;
        }
        let mut picks = vec![None; lane.len() * n];
        if !picks.is_empty() {
            // The hub orientation: every component rooted at its
            // highest-index switch.
            let orient = Orientation::new(g, &g.components(), |s| s);
            let mut cols: Vec<&mut [Option<PortNum>]> = picks.chunks_mut(n).collect();
            parallel_for_each(
                &mut cols,
                workers,
                || Scratch::new(n),
                |scratch, c, out| scratch.fill(splice, &orient, &dests[lane[c]], out),
            );
        }
        Self { n, column, picks }
    }

    /// The entry of the switch-destined column `dests[di]` at switch `s`.
    pub fn pick(&self, di: usize, s: usize) -> Option<PortNum> {
        let c = self.column[di];
        debug_assert_ne!(c, NO_COLUMN, "column {di} is a host column");
        self.picks[c as usize * self.n + s]
    }
}

/// One worker's legal row and candidate buffer.
struct Scratch {
    queue: Vec<u32>,
    down: Vec<u32>,
    full: Vec<u32>,
    ports: Vec<PortNum>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Self {
            queue: Vec::with_capacity(n),
            down: vec![0; n],
            full: vec![0; n],
            ports: Vec::new(),
        }
    }

    /// Writes `dest`'s entry at every switch into `out`: the delivery port
    /// at the delivery switch, a hole across a split, the installed port
    /// while it is still legal, else the modular pick of one neighbour
    /// scan — [`sticky_pick`]'s rule, a column at a time.
    fn fill(
        &mut self,
        splice: &Splice<'_>,
        orient: &Orientation,
        dest: &Destination,
        out: &mut [Option<PortNum>],
    ) {
        let g = splice.graph();
        let Self {
            queue,
            down,
            full,
            ports,
        } = self;
        orient.fill_row(dest.switch, queue, down, full);
        let row = orient.row(down, full);
        for (s, out) in out.iter_mut().enumerate() {
            *out = if s == dest.switch {
                Some(dest.port)
            } else if row.full(s) == u32::MAX {
                None
            } else if let Some(p) = splice.get(s, dest.lid).filter(|&p| legal(g, row, s, p)) {
                Some(p)
            } else {
                ports.clear();
                ports.extend(row.ports(s));
                ports.get(spread(dest.lid, s, ports.len())).copied()
            };
        }
    }
}

/// Whether port `p` of `s` is a legal hop of `row`.
fn legal(g: &SwitchGraph, row: LegalRow<'_>, s: usize, p: PortNum) -> bool {
    g.peer(s, p).is_some_and(|v| row.legal_hop(s, v))
}

/// Which of `k` legal candidates `s` picks for `lid`: the host columns'
/// modular spread, staggered by source so uniformly-cabled switches don't
/// all break the same column when one cable dies. (No legal port is
/// unreachable on a connected component; be defensive — the verifier
/// reports the hole if it ever happens.)
fn spread(lid: Lid, s: usize, k: usize) -> usize {
    (lid.raw() as usize + s) % k.max(1)
}

/// The hub orientation's rows toward the delivery switches of the
/// switch-destined LIDs among `dests`, built on `workers` workers.
#[cfg(any(test, debug_assertions))]
pub(crate) fn hub_rows(g: &SwitchGraph, dests: &[Destination], workers: usize) -> LegalRows {
    let mut dsws: Vec<usize> = dests
        .iter()
        .filter(|d| d.port == PortNum::MANAGEMENT)
        .map(|d| d.switch)
        .collect();
    dsws.sort_unstable();
    dsws.dedup();
    LegalRows::new(g, &g.components(), |s| s, &dsws, workers)
}

/// The switch lane's rule for one cell, the reference
/// [`SwitchColumns::new`] computes a column at a time: the delivery port
/// at the delivery switch; `installed` whenever it is still a legal
/// candidate — so a splice rewrites only the entries a fault actually
/// broke; else the [`spread`]-th legal port in port order; `None` when
/// `s` sits across a split from the delivery switch (an explicit hole).
/// Asking for a delivery switch `rows` holds no row for is a bug in the
/// caller — it would otherwise read as a silent hole.
#[cfg(any(test, debug_assertions))]
pub(crate) fn sticky_pick(
    g: &SwitchGraph,
    rows: &LegalRows,
    dest: &Destination,
    s: usize,
    installed: Option<PortNum>,
) -> Option<PortNum> {
    if s == dest.switch {
        return Some(dest.port);
    }
    let row = (rows.row(dest.switch))
        .unwrap_or_else(|| panic!("no valley row was built for switch {}", dest.switch));
    if row.full(s) == u32::MAX {
        return None;
    }
    if let Some(p) = installed.filter(|&p| legal(g, row, s, p)) {
        return Some(p);
    }
    // The candidates by definition: every neighbour `legal_hop` allows.
    let ports = || {
        (g.neighbors(s).iter())
            .filter(move |&&(v, _)| row.legal_hop(s, v as usize))
            .map(|&(_, p)| p)
    };
    let want = spread(dest.lid, s, ports().count());
    ports().nth(want)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdg::Cdg;
    use crate::ftree::FatTree;
    use crate::minhop::MinHop;
    use crate::testutil::{assign_lids, switch_links};
    use crate::{RoutingEngine, RoutingOptions, RoutingTables};
    use ib_observe::Observer;
    use ib_subnet::topology::fattree::three_level;
    use ib_subnet::topology::torus::torus_2d;

    /// `three_level(4,4,4,4)` with one mid-core cable down, and — when
    /// `split` — leaf 0 cut off from every mid switch as well; with the
    /// fat-tree engine's tables from before the fault.
    fn degraded_tree(split: bool) -> (SwitchGraph, RoutingTables) {
        let mut t = three_level(4, 4, 4, 4);
        assign_lids(&mut t);
        let before = FatTree.compute(&t.subnet).unwrap();
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
        (g, before)
    }

    /// A 4x4 torus with two cables down, with Min-Hop's tables from
    /// before the faults.
    fn degraded_torus() -> (SwitchGraph, RoutingTables) {
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let before = MinHop.compute(&t.subnet).unwrap();
        let links = switch_links(&t.subnet);
        for &(node, port) in [links[0], links[9]].iter() {
            t.subnet.set_link_down(node, port).unwrap();
        }
        (SwitchGraph::build(&t.subnet).unwrap(), before)
    }

    fn switch_lane(g: &SwitchGraph) -> Vec<Destination> {
        let lane = g.destinations().iter().copied();
        lane.filter(|d| d.port == PortNum::MANAGEMENT).collect()
    }

    /// The columns of `dests` routed from empty tables on `workers`
    /// workers, as a full compute routes them.
    fn fresh_columns(g: &SwitchGraph, workers: usize, dests: &[Destination]) -> SwitchColumns {
        let mut tables = RoutingTables::from_lfts(Default::default(), "fresh");
        let splice = Splice::fresh(g, &mut tables);
        SwitchColumns::new(&splice, workers, dests)
    }

    /// The column kernel computes exactly the per-cell rule, for every
    /// (switch, switch LID): from empty rows, and from the pre-fault
    /// tables — some of whose picks the fault made illegal — for any
    /// worker count.
    #[test]
    fn the_column_kernel_is_the_per_cell_rule() {
        let fabrics = [
            ("tree", degraded_tree(false)),
            ("split tree", degraded_tree(true)),
            ("torus", degraded_torus()),
        ];
        for (name, (g, before)) in &fabrics {
            let lane = switch_lane(g);
            let rows = hub_rows(g, &lane, 1);
            let lft = |s: usize, lid: Lid| before.lfts[&g.node_id(s)].get(lid);
            let (mut kept, mut broken) = (0, 0);
            for d in &lane {
                for s in (0..g.len()).filter(|&s| s != d.switch) {
                    let Some(p) = lft(s, d.lid) else { continue };
                    match rows.row(d.switch) {
                        Some(row) if row.full(s) != u32::MAX && legal(g, row, s, p) => kept += 1,
                        _ => broken += 1,
                    }
                }
            }
            assert!(
                kept > 0 && broken > 0,
                "{name}: {kept} kept, {broken} broken"
            );
            let lids: Vec<Lid> = lane.iter().map(|d| d.lid).collect();
            for workers in [1, 3] {
                let empty = fresh_columns(g, workers, &lane);
                let mut installed = before.clone();
                let splice = Splice::begin(g, &mut installed, &lids).unwrap();
                let sticky = SwitchColumns::new(&splice, workers, &lane);
                for (di, d) in lane.iter().enumerate() {
                    for s in 0..g.len() {
                        let what = format!("{name}, {workers} workers, {d:?} at {s}");
                        let rule = sticky_pick(g, &rows, d, s, None);
                        assert_eq!(empty.pick(di, s), rule, "{what}, nothing installed");
                        let rule = sticky_pick(g, &rows, d, s, lft(s, d.lid));
                        assert_eq!(sticky.pick(di, s), rule, "{what}, installed");
                    }
                }
            }
        }
    }

    /// Rows and columns are pure functions of the graph: building a
    /// subset on two workers gives the same rows — orientation, down cone
    /// and full row — and routing it the same columns, as building them
    /// all on one.
    #[test]
    fn subset_rows_equal_the_full_builds() {
        for split in [false, true] {
            let (g, _) = degraded_tree(split);
            let lane = switch_lane(&g);
            let (full_rows, full) = (hub_rows(&g, &lane, 1), fresh_columns(&g, 1, &lane));
            let subset: Vec<Destination> = (lane.iter().copied())
                .filter(|d| d.switch % 5 == 0)
                .collect();
            assert!(subset.len() > 2);
            let (some_rows, some) = (hub_rows(&g, &subset, 2), fresh_columns(&g, 2, &subset));
            for (si, d) in subset.iter().enumerate() {
                let di = lane.iter().position(|l| l == d).unwrap();
                let row = some_rows.row(d.switch);
                assert!(row.is_some());
                assert_eq!(row, full_rows.row(d.switch), "split={split} {d:?}");
                for s in 0..g.len() {
                    let what = format!("split={split} {d:?} at {s}");
                    assert_eq!(some.pick(si, s), full.pick(di, s), "{what}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no valley row was built")]
    fn asking_for_an_unbuilt_row_is_not_a_silent_hole() {
        let (g, _) = degraded_tree(false);
        let lane = switch_lane(&g);
        let (only, other): (Vec<Destination>, Vec<Destination>) =
            lane.iter().partition(|d| d.switch == 0);
        let rows = hub_rows(&g, &only, 1);
        let _ = sticky_pick(&g, &rows, &other[0], 0, None);
    }

    /// The mechanism behind the gate's rejection of a leaf's last uplink
    /// (`three_level(4,4,4,4)`, fat-tree, leaf-0-1 port 8): the repair
    /// re-routes only the columns whose paths crossed the lost link, but
    /// the lost cable moves the hub's orientation, so switch columns the
    /// fault did not cross keep picks that are no longer legal — and the
    /// VL1 cycle of the repaired tables runs through one of them.
    #[test]
    fn a_leafs_last_uplink_leaves_stale_switch_picks_on_the_vl1_cycle() {
        let mut t = three_level(4, 4, 4, 4);
        assign_lids(&mut t);
        let mut tables = FatTree.compute(&t.subnet).unwrap();
        let (leaf, port) = (t.switch_levels[0][1], PortNum::new(8));
        t.subnet.set_link_down(leaf, port).unwrap();
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let lft =
            |tables: &crate::RoutingTables, s: usize, lid: Lid| tables.lfts[&g.node_id(s)].get(lid);

        // The two-row scan: the columns forwarded into either end of the
        // lost cable.
        let far = t.subnet.node(leaf).ports[port.raw() as usize]
            .remote
            .unwrap();
        let ends = [(leaf, port), (far.node, far.port)];
        let dirty: Vec<Lid> = (t.subnet.lids().into_iter())
            .filter(|&lid| (ends.iter()).any(|&(n, p)| tables.lfts[&n].get(lid) == Some(p)))
            .collect();
        FatTree
            .repair_with_graph(
                &g,
                RoutingOptions::default(),
                &mut tables,
                &dirty,
                &Observer::disabled(),
            )
            .unwrap();

        let switch_lid = |d: &Destination| d.port == PortNum::MANAGEMENT;
        let cycle = Cdg::from_tables(&g, &tables, switch_lid)
            .find_cycle(0)
            .expect("the repaired VL1 is cyclic");

        // The switch-LID cells outside the dirty columns whose installed
        // pick the degraded graph's orientation no longer allows.
        let rows = hub_rows(&g, g.destinations(), 1);
        let mut stale: Vec<(usize, Lid, PortNum)> = Vec::new();
        for d in g.destinations().iter().filter(|d| switch_lid(d)) {
            if dirty.contains(&d.lid) {
                continue;
            }
            let row = rows.row(d.switch).unwrap();
            for s in (0..g.len()).filter(|&s| s != d.switch) {
                let pick = lft(&tables, s, d.lid);
                let peer = pick.and_then(|p| g.peer(s, p));
                if !peer.is_some_and(|v| row.legal_hop(s, v)) {
                    stale.push((s, d.lid, pick.unwrap()));
                }
            }
        }
        assert!(!stale.is_empty(), "every kept switch pick is still legal");

        // Some dependency of the cycle, held -> wanted, is booked by a
        // column with a stale cell at either end of it.
        let books = |(a, pa): (u32, u8), (s, p): (u32, u8)| {
            stale.iter().any(|&(x, lid, _)| {
                let at =
                    |sw: u32, port: u8| lft(&tables, sw as usize, lid) == Some(PortNum::new(port));
                (x == a as usize || x == s as usize) && at(a, pa) && at(s, p)
            })
        };
        let links = cycle.iter().zip(cycle.iter().cycle().skip(1));
        assert!(
            links.clone().any(|(&held, &wanted)| books(held, wanted)),
            "the VL1 cycle {cycle:?} avoids all {} stale cells",
            stale.len()
        );
    }
}
