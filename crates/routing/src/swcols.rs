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
//! follow an up*/down* orientation (`updn::Orientation`, the one the
//! Up*/Down* engine routes on) and ride [`SWITCH_VL`], so their
//! dependencies are acyclic by the Up*/Down* theorem on any topology and
//! never chain into a minimal host column. Each component's hub is its
//! *highest-index* switch: indices are stable across faults (nothing
//! renumbers), and topology builders register leaves before spines, so a
//! spine hub keeps its orientation under the leaf-edge faults that
//! dominate — which keeps incremental repair's spliced switch columns
//! byte-identical outside the fault's neighbourhood. On a tree the routes
//! are valleys (the classic shape with the root at the bottom), the
//! natural shape of switch-to-switch traffic.
//!
//! Within the legal candidate sets the picks spread modularly, like the
//! engines' host columns, and the repair path keeps an installed port
//! whenever it is still legal (sticky selection). That division of
//! labor is what lets incremental repair beat a full sweep's block
//! diff: a lost link shrinks candidate sets, so a full recompute
//! reshuffles every modular pick in the affected columns, while the
//! sticky splice rewrites only the entries the fault actually broke.
//!
//! The lane is routed by the Up*/Down* engine's own column kernel
//! ([`Columns`]): the two differ only in the root order ([`hub`]) and the
//! spread ([`stagger`]) they pass it. The kernel fills one delivery
//! switch's legal row at a time and walks every switch against it; the
//! engines then copy the finished columns into their switch-major rows.
//!
//! Switch LIDs carry management-plane traffic (SMPs ride VL15 anyway);
//! the valley detour costs nothing the paper's Fig. 7 measures.

use ib_types::{IbResult, Lid, PortNum, VirtualLane};
use rustc_hash::FxHashMap;

use crate::graph::{Destination, SwitchGraph};
use crate::tables::{Splice, VlAssignment};
use crate::updn::Columns;

/// The data lane reserved for switch-destined LIDs (hosts stay on VL0).
const SWITCH_VL: VirtualLane = VirtualLane::VL1;

/// The lane's root order: every component rooted at its highest-index
/// switch (the hub).
pub(crate) fn hub(s: usize) -> usize {
    s
}

/// The lane's spread: the host columns' modular spread, staggered by
/// source so uniformly-cabled switches don't all break the same column
/// when one cable dies.
pub(crate) fn stagger(lid: Lid, s: usize) -> usize {
    lid.raw() as usize + s
}

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
    /// `column[di]`: the lane column of `dests[di]`; `NO_COLUMN` for a
    /// host column.
    column: Vec<u32>,
    lane: Columns,
}

const NO_COLUMN: u32 = u32::MAX;

impl SwitchColumns {
    /// Routes the switch-destined LIDs among `dests` — all of the graph's
    /// destinations on a full compute, the dirty columns on a repair —
    /// with the column kernel on the hub orientation, fanned across
    /// workers, against the entries the cells of `splice` hold now.
    pub fn new(splice: &Splice<'_>, workers: usize, dests: &[Destination]) -> IbResult<Self> {
        let mut lane = Vec::new();
        let column = (dests.iter())
            .map(|d| match d.port {
                PortNum::MANAGEMENT => {
                    lane.push(*d);
                    lane.len() as u32 - 1
                }
                _ => NO_COLUMN,
            })
            .collect();
        let lane = Columns::new(splice, &lane, hub, stagger, workers)?;
        Ok(Self { column, lane })
    }

    /// The entry of the switch-destined column `dests[di]` at switch `s`.
    pub fn pick(&self, di: usize, s: usize) -> Option<PortNum> {
        let c = self.column[di];
        debug_assert_ne!(c, NO_COLUMN, "column {di} is a host column");
        self.lane.pick(c as usize, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdg::Cdg;
    use crate::ftree::FatTree;
    use crate::minhop::MinHop;
    use crate::testutil::{assign_lids, switch_links};
    use crate::updn::{by_lid, root_key, sticky_pick, Orientation};
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
        SwitchColumns::new(&splice, workers, dests).unwrap()
    }

    /// The column kernel's picks of `dests`, `[column][switch]`, as the
    /// Up*/Down* engine (`updn`) or the switch lane routes them on
    /// `splice`.
    fn kernel_picks(
        splice: &Splice<'_>,
        workers: usize,
        dests: &[Destination],
        updn: bool,
    ) -> Vec<Vec<Option<PortNum>>> {
        let n = splice.graph().len();
        let table = |pick: &dyn Fn(usize, usize) -> Option<PortNum>| {
            (0..dests.len())
                .map(|i| (0..n).map(|s| pick(i, s)).collect())
                .collect()
        };
        if updn {
            let ranks = splice.graph().ranks();
            let cols = Columns::new(splice, dests, root_key(&ranks), by_lid, workers).unwrap();
            table(&|i, s| cols.pick(i, s))
        } else {
            let cols = SwitchColumns::new(splice, workers, dests).unwrap();
            table(&|i, s| cols.pick(i, s))
        }
    }

    /// The column kernel computes exactly the per-cell rule for both its
    /// callers — the switch lane (hub root, staggered spread) over the
    /// switch LIDs, and the Up*/Down* engine (ranked root, `lid mod k`)
    /// over every destination — for every (switch, column): from empty
    /// rows, and from the pre-fault tables — some of whose picks the
    /// fault made illegal — for any worker count.
    #[test]
    fn the_column_kernel_is_the_per_cell_rule() {
        let fabrics = [
            ("tree", degraded_tree(false)),
            ("split tree", degraded_tree(true)),
            ("torus", degraded_torus()),
        ];
        for (fabric, (g, before)) in &fabrics {
            let (comps, ranks) = (g.components(), g.ranks());
            let lft = |s: usize, lid: Lid| before.lfts[&g.node_id(s)].get(lid);
            for updn in [false, true] {
                let name = format!("{fabric}, {}", if updn { "up-down" } else { "lane" });
                let (orient, spread, dests): (_, fn(Lid, usize) -> usize, _) = if updn {
                    let orient = Orientation::new(g, &comps, root_key(&ranks));
                    (orient, by_lid, g.destinations().to_vec())
                } else {
                    (Orientation::new(g, &comps, hub), stagger, switch_lane(g))
                };
                let rows: Vec<(Vec<u32>, Vec<u32>)> = (dests.iter())
                    .map(|d| orient.rows_toward(d.switch))
                    .collect();
                let (mut kept, mut broken) = (0, 0);
                for (d, (down, full)) in dests.iter().zip(&rows) {
                    let row = orient.row(down, full);
                    for s in (0..g.len()).filter(|&s| s != d.switch) {
                        let Some(p) = lft(s, d.lid) else { continue };
                        let legal = g.peer(s, p).is_some_and(|v| row.legal_hop(s, v));
                        match row.full(s) != u32::MAX && legal {
                            true => kept += 1,
                            false => broken += 1,
                        }
                    }
                }
                assert!(
                    kept > 0 && broken > 0,
                    "{name}: {kept} kept, {broken} broken"
                );
                let lids: Vec<Lid> = dests.iter().map(|d| d.lid).collect();
                for workers in [1, 3] {
                    let mut fresh = RoutingTables::from_lfts(Default::default(), "fresh");
                    let empty = kernel_picks(&Splice::fresh(g, &mut fresh), workers, &dests, updn);
                    let mut installed = before.clone();
                    let splice = Splice::begin(g, &mut installed, &lids).unwrap();
                    let sticky = kernel_picks(&splice, workers, &dests, updn);
                    for (i, (d, (down, full))) in dests.iter().zip(&rows).enumerate() {
                        let row = orient.row(down, full);
                        for s in 0..g.len() {
                            let what = format!("{name}, {workers} workers, {d:?} at {s}");
                            let rule = sticky_pick(g, row, d, s, None, spread);
                            assert_eq!(empty[i][s], rule, "{what}, nothing installed");
                            let rule = sticky_pick(g, row, d, s, lft(s, d.lid), spread);
                            assert_eq!(sticky[i][s], rule, "{what}, installed");
                        }
                    }
                }
            }
        }
    }

    /// Columns are pure functions of the graph: routing a subset on two
    /// workers gives the same columns as routing them all on one.
    #[test]
    fn subset_rows_equal_the_full_builds() {
        for split in [false, true] {
            let (g, _) = degraded_tree(split);
            let lane = switch_lane(&g);
            let full = fresh_columns(&g, 1, &lane);
            let subset: Vec<Destination> = (lane.iter().copied())
                .filter(|d| d.switch % 5 == 0)
                .collect();
            assert!(subset.len() > 2);
            let some = fresh_columns(&g, 2, &subset);
            for (si, d) in subset.iter().enumerate() {
                let di = lane.iter().position(|l| l == d).unwrap();
                for s in 0..g.len() {
                    let what = format!("split={split} {d:?} at {s}");
                    assert_eq!(some.pick(si, s), full.pick(di, s), "{what}");
                }
            }
        }
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
        let orient = Orientation::new(&g, &g.components(), hub);
        let mut stale: Vec<(usize, Lid, PortNum)> = Vec::new();
        for d in g.destinations().iter().filter(|d| switch_lid(d)) {
            if dirty.contains(&d.lid) {
                continue;
            }
            let (down, full) = orient.rows_toward(d.switch);
            let row = orient.row(&down, &full);
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
