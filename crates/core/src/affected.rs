//! Predicting which switches a reconfiguration touches (§VI-D).
//!
//! The deterministic method iterates every physical switch but only sends
//! SMPs where rows actually differ; predicting that set *before* mutating
//! anything is what enables concurrent-migration admission (disjoint
//! affected sets can reconfigure in parallel) and the intra-leaf shortcut.
//!
//! The predictions are read off the very plans the passes apply
//! ([`crate::migration::swap_on_fabric`], [`crate::migration::copy_on_fabric`]),
//! error cases included: a switch without an LFT (or, for a copy, without a
//! row for the PF LID) refuses the fabric op, so the prediction fails the
//! same way instead of silently reporting the switch as unaffected.

use ib_routing::CellChange;
use ib_subnet::{NodeId, Subnet};
use ib_types::{IbResult, Lid};

use crate::migration::{plan_copy, plan_swap};

/// The distinct switches of a plan (whose cells come grouped by switch, in
/// ascending order).
fn switches_of(plan: &[CellChange]) -> Vec<NodeId> {
    let mut v: Vec<NodeId> = plan.iter().map(|c| c.switch).collect();
    v.dedup();
    v
}

/// Physical switches whose LFTs a swap of `a` and `b` would change.
///
/// Errors where [`crate::migration::swap_on_fabric`] would: when any
/// physical switch has no LFT installed yet.
pub fn affected_by_swap(subnet: &Subnet, a: Lid, b: Lid) -> IbResult<Vec<NodeId>> {
    Ok(switches_of(&plan_swap(subnet, a, b, None)?))
}

/// Physical switches whose LFTs a copy of `pf`'s row onto `vm` would
/// change.
///
/// Errors where [`crate::migration::copy_on_fabric`] would: when any
/// physical switch has no LFT, or has no row for the PF LID.
pub fn affected_by_copy(subnet: &Subnet, pf: Lid, vm: Lid) -> IbResult<Vec<NodeId>> {
    Ok(switches_of(&plan_copy(subnet, pf, vm, None)?))
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
    use crate::migration::{copy_on_fabric, swap_on_fabric, LftUpdateStats, MigrationOptions};
    use ib_mad::{RouteTree, SmpChannel, SmpTransport};
    use ib_sm::{SmConfig, SubnetManager};
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::BuiltTopology;
    use ib_types::PortNum;

    fn fabric() -> (BuiltTopology, SubnetManager) {
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.bring_up(&mut t.subnet).unwrap();
        (t, sm)
    }

    fn host_lid(t: &BuiltTopology, i: usize) -> Lid {
        t.subnet.node(t.hosts[i]).ports[1].lid.unwrap()
    }

    /// The channels a fault-free pass runs over: the predictions hold on
    /// both.
    #[derive(Clone, Copy, Debug)]
    enum Channel {
        Assumed,
        Perfect,
    }
    const CHANNELS: [Channel; 2] = [Channel::Assumed, Channel::Perfect];

    /// Runs the swap (`copy == false`) or the copy of `lids` on the whole
    /// fabric over `channel`.
    fn pass(
        f: &mut (BuiltTopology, SubnetManager),
        copy: bool,
        lids: (Lid, Lid),
        channel: Channel,
    ) -> IbResult<LftUpdateStats> {
        let sm_node = f.1.sm_node;
        match channel {
            Channel::Assumed => pass_over(f, copy, lids, &mut SmpTransport::assumed(sm_node)),
            Channel::Perfect => pass_over(f, copy, lids, &mut SmpTransport::perfect(sm_node)),
        }
    }

    fn pass_over<C: SmpChannel>(
        (t, sm): &mut (BuiltTopology, SubnetManager),
        copy: bool,
        (x, y): (Lid, Lid),
        transport: &mut SmpTransport<C>,
    ) -> IbResult<LftUpdateStats> {
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        let opts = MigrationOptions::default();
        let (subnet, ledger) = (&mut t.subnet, &mut sm.ledger);
        let (stats, tx, _) = if copy {
            copy_on_fabric(subnet, &tree, x, y, &opts, None, transport, ledger)?
        } else {
            swap_on_fabric(subnet, &tree, x, y, &opts, None, transport, ledger)?
        };
        assert!(tx.committed);
        Ok(stats)
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
        for channel in CHANNELS {
            let mut f = fabric();
            let a = host_lid(&f.0, 1);
            let b = host_lid(&f.0, 4);
            let predicted = affected_by_swap(&f.0.subnet, a, b).unwrap();
            let stats = pass(&mut f, false, (a, b), channel).unwrap();
            assert_eq!(predicted.len(), stats.switches_updated, "{channel:?}");
        }
    }

    #[test]
    fn copy_prediction_matches_actual_update() {
        for channel in CHANNELS {
            let mut f = fabric();
            let pf = host_lid(&f.0, 4);
            let vm = Lid::from_raw(40);
            let predicted = affected_by_copy(&f.0.subnet, pf, vm).unwrap();
            let stats = pass(&mut f, true, (pf, vm), channel).unwrap();
            assert_eq!(predicted.len(), stats.switches_updated, "{channel:?}");
            // And a re-prediction is now empty.
            assert!(affected_by_copy(&f.0.subnet, pf, vm).unwrap().is_empty());
        }
    }

    /// Property: the predictions name *exactly* the switches whose LFTs the
    /// ops mutate — same set, not just same count.
    #[test]
    fn predictions_pin_the_exact_mutated_switch_set() {
        for channel in CHANNELS {
            let mut f = fabric();
            let a = host_lid(&f.0, 0);
            let b = host_lid(&f.0, 5);
            let predicted = affected_by_swap(&f.0.subnet, a, b).unwrap();
            let before = snapshot(&f.0.subnet);
            pass(&mut f, false, (a, b), channel).unwrap();
            assert_eq!(
                predicted,
                mutated_since(&f.0.subnet, &before),
                "{channel:?}"
            );

            let mut f = fabric();
            let pf = host_lid(&f.0, 2);
            let vm = Lid::from_raw(41);
            let predicted = affected_by_copy(&f.0.subnet, pf, vm).unwrap();
            let before = snapshot(&f.0.subnet);
            pass(&mut f, true, (pf, vm), channel).unwrap();
            assert_eq!(
                predicted,
                mutated_since(&f.0.subnet, &before),
                "{channel:?}"
            );
        }
    }

    /// The predictions fail exactly where the ops fail: a switch with a
    /// missing PF row makes both `affected_by_copy` and `copy_on_fabric`
    /// error instead of treating the switch as unaffected (the VM may still
    /// have a stale row there).
    #[test]
    fn copy_errors_match_op_errors_on_missing_pf_row() {
        for channel in CHANNELS {
            let mut f = fabric();
            let pf = host_lid(&f.0, 4);
            let vm = Lid::from_raw(40);
            // Install a stale VM row everywhere, then drop the PF row on one
            // switch: the old predicate called that switch unaffected even
            // though the op aborts on it.
            let switches: Vec<NodeId> = f.0.subnet.physical_switches().map(|n| n.id).collect();
            for &sw in &switches {
                let lft = f.0.subnet.lft_mut(sw).unwrap();
                lft.set(vm, PortNum::new(1));
            }
            f.0.subnet.lft_mut(switches[0]).unwrap().clear(pf);
            assert!(affected_by_copy(&f.0.subnet, pf, vm).is_err());
            assert!(
                pass(&mut f, true, (pf, vm), channel).is_err(),
                "{channel:?}"
            );
        }
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
        for channel in CHANNELS {
            let mut f = (
                t.clone(),
                SubnetManager::new(t.hosts[0], SmConfig::default()),
            );
            let stats = pass(&mut f, false, (pf, extra), channel).unwrap();
            assert_eq!(stats.switches_updated, 0, "{channel:?}");
        }
    }

    #[test]
    fn leaf_count_bounds_concurrency() {
        let (t, _sm) = fabric();
        assert_eq!(max_concurrent_intra_leaf(&t.subnet), 2);
    }
}
