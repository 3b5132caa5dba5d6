//! Structured fat-tree routing.
//!
//! Exploits the layered structure of a fat tree: one BFS per *leaf switch*
//! (instead of per switch, as OpenSM's Min-Hop runs) and deterministic
//! d-mod-k spreading of destinations across uplinks (instead of load
//! accounting). That structural shortcut is why OpenSM's `ftree` is the
//! fastest engine in the paper's Fig. 7 — a property this implementation
//! reproduces by construction. The engine is its layering check plus the
//! host-lane fill it shares with Min-Hop (`hostcols`), with the staggered
//! d-mod-k tie-break and the scoped repair visit.
//!
//! Like OpenSM's engine, it refuses topologies that are not layered
//! fat trees (edges must connect adjacent ranks, endpoints must live on
//! leaves); callers fall back to Min-Hop in that case.
//!
//! Switch-destined LIDs are routed up*/down*-legally on a dedicated
//! lane (see `swcols`) — d-mod-k valleys between sibling
//! spines would otherwise close credit loops, the caveat OpenSM's own
//! ftree documents for switch-to-switch paths.

use ib_observe::Observer;
use ib_types::{IbError, IbResult, Lid, PortNum};

use crate::engine::{RoutingEngine, RoutingOptions};
use crate::graph::SwitchGraph;
use crate::hostcols::{self, TieBreak};
use crate::tables::{Splice, VlAssignment};

/// The fat-tree engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct FatTree;

impl RoutingEngine for FatTree {
    fn name(&self) -> &'static str {
        "fat-tree"
    }

    /// Rank the graph (one BFS — the tree structure is what the engine
    /// exploits, so it is validated on every run), then the host-lane fill
    /// with the scoped visit: a repair follows the carried distance field
    /// and visits a host column only where the removed links can have
    /// moved its pick.
    ///
    /// The pick is *sticky*: the d-mod-k spread decides only the entries
    /// with nothing (still) minimal installed. On a repair, a plain re-run
    /// of the formula would rotate every pick whose candidate *count*
    /// shrank, inflating the dirty-block diff past the full sweep's.
    fn route(
        &self,
        splice: &mut Splice<'_>,
        opts: RoutingOptions,
        observer: &Observer,
    ) -> IbResult<(VlAssignment, u64)> {
        let g = splice.graph();
        // A fault cannot un-layer a fat tree, but it can disconnect a
        // switch — a broken tree errors out to the SM's fallback instead
        // of producing silent holes.
        validate_fat_tree(g, &g.ranks())?;
        let spans = [
            "routing.fat-tree.distances",
            "routing.fat-tree.switch-lane",
            "routing.fat-tree.assign",
        ];
        hostcols::fill(splice, opts, observer, spans, true, self)
    }
}

/// The (lid + switch mod count)-th minimal candidate. The switch stagger
/// keeps d-mod-k's spread but breaks its fabric-wide symmetry: without it,
/// uniformly-cabled switches all point the same destination at the same
/// spine, so one lost cable breaks that column at every switch at once
/// and an incremental repair can never beat a full sweep's block diff.
impl TieBreak for FatTree {
    type State = ();

    fn state(&self, _g: &SwitchGraph) {}

    fn choose(&self, _: &mut (), s: usize, lid: Lid, ports: &[PortNum]) -> PortNum {
        ports[(lid.raw() as usize + s) % ports.len()]
    }
}

/// A fat tree must be layered: every switch-switch edge joins adjacent
/// ranks. (Endpoints may sit on any rank-0 switch; `SwitchGraph::ranks`
/// already guarantees endpoint-bearing switches are rank 0.)
fn validate_fat_tree(g: &SwitchGraph, ranks: &[u32]) -> IbResult<()> {
    for s in 0..g.len() {
        if ranks[s] == u32::MAX {
            // A split fabric: `s` sits in a component with no ranked
            // seed. Its edges all stay inside that component (a BFS
            // would have crossed any cable to a ranked switch), so
            // there is nothing to validate — the reachable part of the
            // tree is still layered and still routable.
            continue;
        }
        for &(v, _) in g.neighbors(s) {
            let (a, b) = (ranks[s], ranks[v as usize]);
            if a.abs_diff(b) != 1 {
                return Err(IbError::Topology(format!(
                    "not a layered fat tree: edge joins ranks {a} and {b}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_full_reachability, assign_lids, host_lid};
    use ib_subnet::topology::fattree::{three_level, two_level};
    use ib_subnet::topology::torus::torus_2d;

    #[test]
    fn routes_two_level() {
        let mut t = two_level(4, 3, 2);
        assign_lids(&mut t);
        let tables = FatTree.compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
    }

    #[test]
    fn routes_three_level() {
        let mut t = three_level(2, 2, 2, 2);
        assign_lids(&mut t);
        let tables = FatTree.compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
    }

    #[test]
    fn rejects_torus() {
        let mut t = torus_2d(3, 3, 1, true);
        assign_lids(&mut t);
        assert!(FatTree.compute(&t.subnet).is_err());
    }

    #[test]
    fn spreads_destinations_over_uplinks() {
        let mut t = two_level(2, 6, 3);
        assign_lids(&mut t);
        let tables = FatTree.compute(&t.subnet).unwrap();
        let leaf0 = t.switch_levels[0][0];
        let lft = &tables.lfts[&leaf0];
        let mut ports: Vec<u8> = (6..12)
            .map(|i| lft.get(host_lid(&t, i)).unwrap().raw())
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert!(
            ports.len() == 3,
            "six cross-leaf destinations over three uplinks, got {ports:?}"
        );
    }

    #[test]
    fn different_vms_on_same_leaf_can_take_different_spines() {
        // §V-A: prepopulated LIDs imitate LMC — distinct paths to different
        // LIDs on the same hypervisor/leaf. With d-mod-k spreading, two
        // consecutive LIDs on the same destination leaf use different
        // uplinks from a remote leaf.
        let mut t = two_level(2, 4, 2);
        assign_lids(&mut t);
        let tables = FatTree.compute(&t.subnet).unwrap();
        let leaf0 = t.switch_levels[0][0];
        let lft = &tables.lfts[&leaf0];
        let p_a = lft.get(host_lid(&t, 4)).unwrap();
        let p_b = lft.get(host_lid(&t, 5)).unwrap();
        assert_ne!(p_a, p_b);
    }

    #[test]
    fn fewer_bfs_than_minhop_decisions_equal() {
        // Both engines make |switches| x |LIDs| decisions; the fat-tree
        // engine just reaches them with fewer BFS sweeps.
        let mut t = two_level(4, 3, 2);
        assign_lids(&mut t);
        let ft = FatTree.compute(&t.subnet).unwrap();
        let mh = crate::minhop::MinHop.compute(&t.subnet).unwrap();
        assert_eq!(ft.decisions, mh.decisions);
    }
}
