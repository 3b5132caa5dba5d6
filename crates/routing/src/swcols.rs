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
//! follow [`LegalRows`] (the orientation the Up*/Down* engine routes on)
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
//! Switch LIDs carry management-plane traffic (SMPs ride VL15 anyway);
//! the valley detour costs nothing the paper's Fig. 7 measures.

use ib_types::{Lid, PortNum, VirtualLane};
use rustc_hash::FxHashMap;

use crate::graph::{Destination, SwitchGraph};
use crate::tables::VlAssignment;
use crate::updn::{LegalRow, LegalRows};

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

/// The hub-rooted up*/down* rows toward the delivery switches of the
/// switch-destined LIDs it was asked for, shared by the Min-Hop and
/// fat-tree engines.
pub(crate) struct SwitchColumns<'g> {
    /// The graph the rows were built on; its neighbour lists are in port
    /// order, which keeps the modular picks deterministic.
    g: &'g SwitchGraph,
    rows: LegalRows,
}

impl<'g> SwitchColumns<'g> {
    /// Builds the rows for the delivery switches of the switch-destined
    /// LIDs among `dests`: all of `g.destinations()` on a full compute,
    /// the dirty columns on a repair. Splits are not errors:
    /// cross-component picks are explicit `None` holes.
    pub fn new(g: &'g SwitchGraph, workers: usize, dests: &[Destination]) -> Self {
        let mut dsws: Vec<usize> = dests
            .iter()
            .filter(|d| d.port == PortNum::MANAGEMENT)
            .map(|d| d.switch)
            .collect();
        dsws.sort_unstable();
        dsws.dedup();
        let rows = LegalRows::new(g, &g.components(), |s| s, &dsws, workers);
        Self { g, rows }
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
        let row = self.row(dsw, s)?;
        let legal = |v: usize| row.legal_hop(s, v);
        if let Some(p) = installed.filter(|&p| self.g.peer(s, p).is_some_and(legal)) {
            return Some(p);
        }
        // No legal port is unreachable on a connected component; be
        // defensive — the verifier reports the hole if it ever happens.
        let want = (lid.raw() as usize + s) % row.ports(self.g, s).count().max(1);
        row.ports(self.g, s).nth(want)
    }

    /// The `dsw` rows, or `None` when `s` cannot reach `dsw` (a split).
    /// Asking for a delivery switch no row was built for is a bug in the
    /// calling engine — it would otherwise read as a silent hole.
    fn row(&self, dsw: usize, s: usize) -> Option<LegalRow<'_>> {
        let row = self.rows.row(dsw);
        let row = row.unwrap_or_else(|| panic!("no valley row was built for switch {dsw}"));
        (row.full(s) != u32::MAX).then_some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdg::Cdg;
    use crate::ftree::FatTree;
    use crate::testutil::assign_lids;
    use crate::{RoutingEngine, RoutingOptions};
    use ib_observe::Observer;
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
        let cols = SwitchColumns::new(&g, 1, g.destinations());
        let mut stale: Vec<(usize, Lid, PortNum)> = Vec::new();
        for d in g.destinations().iter().filter(|d| switch_lid(d)) {
            if dirty.contains(&d.lid) {
                continue;
            }
            let row = cols.rows.row(d.switch).unwrap();
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
