//! Predicting which switches a reconfiguration touches (§VI-D).
//!
//! The deterministic method iterates every physical switch but only sends
//! SMPs where rows actually differ; predicting that set *before* mutating
//! anything is what enables concurrent-migration admission (disjoint
//! affected sets can reconfigure in parallel) and the intra-leaf shortcut.
//!
//! The predicates mirror [`crate::migration::swap_on_fabric`] and
//! [`crate::migration::copy_on_fabric`] *exactly*, error cases included: a
//! switch without an LFT (or, for a copy, without a row for the PF LID)
//! makes the fabric op fail mid-pass, so the prediction fails the same way
//! instead of silently reporting the switch as unaffected.

use ib_subnet::{NodeId, Subnet};
use ib_types::{IbError, IbResult, Lid};

/// Physical switches whose LFTs a swap of `a` and `b` would change.
///
/// Errors where [`crate::migration::swap_on_fabric`] would: when any
/// physical switch has no LFT installed yet.
pub fn affected_by_swap(subnet: &Subnet, a: Lid, b: Lid) -> IbResult<Vec<NodeId>> {
    let mut v = Vec::new();
    for n in subnet.physical_switches() {
        let lft = n
            .lft()
            .ok_or_else(|| IbError::Management(format!("{} has no LFT", subnet.name_of(n.id))))?;
        if lft.get(a) != lft.get(b) {
            v.push(n.id);
        }
    }
    v.sort_unstable_by_key(|n| n.index());
    Ok(v)
}

/// Physical switches whose LFTs a copy of `pf`'s row onto `vm` would
/// change.
///
/// Errors where [`crate::migration::copy_on_fabric`] would: when any
/// physical switch has no LFT, or has no row for the PF LID — the copy has
/// no source row there, so the op fails rather than skipping the switch
/// (the VM may still hold a stale row on it).
pub fn affected_by_copy(subnet: &Subnet, pf: Lid, vm: Lid) -> IbResult<Vec<NodeId>> {
    let mut v = Vec::new();
    for n in subnet.physical_switches() {
        let lft = n
            .lft()
            .ok_or_else(|| IbError::Management(format!("{} has no LFT", subnet.name_of(n.id))))?;
        let target = lft.get(pf).ok_or_else(|| {
            IbError::Management(format!(
                "{} has no row for PF LID {pf}",
                subnet.name_of(n.id)
            ))
        })?;
        if lft.get(vm) != Some(target) {
            v.push(n.id);
        }
    }
    v.sort_unstable_by_key(|n| n.index());
    Ok(v)
}

/// §VI-D's observation: migrations entirely within distinct leaf switches
/// can run concurrently without interfering, so the concurrency ceiling for
/// intra-leaf migrations is the number of leaf switches.
#[must_use]
pub fn max_concurrent_intra_leaf(subnet: &Subnet) -> usize {
    subnet.leaf_switches().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_mad::RouteTree;
    use ib_sm::{SmConfig, SubnetManager};
    use ib_subnet::topology::fattree::two_level;
    use ib_types::PortNum;

    fn fabric() -> (ib_subnet::topology::BuiltTopology, SubnetManager) {
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.bring_up(&mut t.subnet).unwrap();
        (t, sm)
    }

    fn host_lid(t: &ib_subnet::topology::BuiltTopology, i: usize) -> Lid {
        t.subnet.node(t.hosts[i]).ports[1].lid.unwrap()
    }

    /// Snapshot of every physical switch's LFT, for exact-diff checks.
    fn snapshot(subnet: &Subnet) -> Vec<(NodeId, ib_subnet::Lft)> {
        subnet
            .physical_switches()
            .filter_map(|n| n.lft().map(|l| (n.id, l.clone())))
            .collect()
    }

    /// Switches whose LFT differs from the snapshot, sorted like the
    /// predictions.
    fn mutated_since(subnet: &Subnet, snap: &[(NodeId, ib_subnet::Lft)]) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = snap
            .iter()
            .filter(|(id, before)| subnet.node(*id).lft() != Some(before))
            .map(|(id, _)| *id)
            .collect();
        v.sort_unstable_by_key(|n| n.index());
        v
    }

    #[test]
    fn swap_prediction_matches_actual_update() {
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 4);
        let predicted = affected_by_swap(&t.subnet, a, b).unwrap();
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        let (stats, _) = crate::migration::swap_on_fabric(
            &mut t.subnet,
            &tree,
            a,
            b,
            &crate::migration::MigrationOptions::default(),
            None,
            &mut sm.ledger,
        )
        .unwrap();
        assert_eq!(predicted.len(), stats.switches_updated);
    }

    #[test]
    fn copy_prediction_matches_actual_update() {
        let (mut t, mut sm) = fabric();
        let pf = host_lid(&t, 4);
        let vm = Lid::from_raw(40);
        let predicted = affected_by_copy(&t.subnet, pf, vm).unwrap();
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        let (stats, _) = crate::migration::copy_on_fabric(
            &mut t.subnet,
            &tree,
            pf,
            vm,
            &crate::migration::MigrationOptions::default(),
            None,
            &mut sm.ledger,
        )
        .unwrap();
        assert_eq!(predicted.len(), stats.switches_updated);
        // And a re-prediction is now empty.
        assert!(affected_by_copy(&t.subnet, pf, vm).unwrap().is_empty());
    }

    /// Property: the predictions name *exactly* the switches whose LFTs the
    /// transactional ops mutate — same set, not just same count.
    #[test]
    fn predictions_pin_the_exact_mutated_switch_set() {
        // Swap, via the transactional variant.
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 0);
        let b = host_lid(&t, 5);
        let predicted = affected_by_swap(&t.subnet, a, b).unwrap();
        let before = snapshot(&t.subnet);
        let mut transport = ib_mad::SmpTransport::perfect(sm.sm_node);
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        crate::migration::swap_on_fabric_tx(
            &mut t.subnet,
            &tree,
            a,
            b,
            &crate::migration::MigrationOptions::default(),
            None,
            &mut transport,
            &mut sm.ledger,
        )
        .unwrap();
        assert_eq!(predicted, mutated_since(&t.subnet, &before));

        // Copy, via the transactional variant.
        let (mut t, mut sm) = fabric();
        let pf = host_lid(&t, 2);
        let vm = Lid::from_raw(41);
        let predicted = affected_by_copy(&t.subnet, pf, vm).unwrap();
        let before = snapshot(&t.subnet);
        let mut transport = ib_mad::SmpTransport::perfect(sm.sm_node);
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        crate::migration::copy_on_fabric_tx(
            &mut t.subnet,
            &tree,
            pf,
            vm,
            &crate::migration::MigrationOptions::default(),
            None,
            &mut transport,
            &mut sm.ledger,
        )
        .unwrap();
        assert_eq!(predicted, mutated_since(&t.subnet, &before));
    }

    /// The predictions fail exactly where the ops fail: a switch with a
    /// missing PF row makes both `affected_by_copy` and `copy_on_fabric`
    /// error instead of treating the switch as unaffected (the VM may still
    /// have a stale row there).
    #[test]
    fn copy_errors_match_op_errors_on_missing_pf_row() {
        let (mut t, mut sm) = fabric();
        let pf = host_lid(&t, 4);
        let vm = Lid::from_raw(40);
        // Install a stale VM row everywhere, then drop the PF row on one
        // switch: the old predicate called that switch unaffected even
        // though the op aborts on it.
        let switches: Vec<NodeId> = t.subnet.physical_switches().map(|n| n.id).collect();
        for &sw in &switches {
            let lft = t.subnet.lft_mut(sw).unwrap();
            lft.set(vm, PortNum::new(1));
        }
        t.subnet.lft_mut(switches[0]).unwrap().clear(pf);
        assert!(affected_by_copy(&t.subnet, pf, vm).is_err());
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        assert!(crate::migration::copy_on_fabric(
            &mut t.subnet,
            &tree,
            pf,
            vm,
            &crate::migration::MigrationOptions::default(),
            None,
            &mut sm.ledger,
        )
        .is_err());
    }

    #[test]
    fn same_port_lids_affect_nothing() {
        let (mut t, _sm) = fabric();
        // Give host 5's port a second LID: both route identically, so a
        // swap between them touches no switch.
        let extra = Lid::from_raw(50);
        t.subnet
            .assign_port_lid(t.hosts[5], PortNum::new(2), extra)
            .ok();
        // (port 2 does not exist on an HCA — fall back to simulating by
        // copying the row first)
        let pf = host_lid(&t, 5);
        for sw in t
            .subnet
            .physical_switches()
            .map(|n| n.id)
            .collect::<Vec<_>>()
        {
            let lft = t.subnet.lft_mut(sw).unwrap();
            if let Some(p) = lft.get(pf) {
                lft.set(extra, p);
            }
        }
        assert!(affected_by_swap(&t.subnet, pf, extra).unwrap().is_empty());
    }

    #[test]
    fn leaf_count_bounds_concurrency() {
        let (t, _sm) = fabric();
        assert_eq!(max_concurrent_intra_leaf(&t.subnet), 2);
    }
}
