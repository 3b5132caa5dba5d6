//! The Fig. 3/5 worked example: three hypervisors on two leaf switches,
//! LIDs laid out exactly as in the paper, VM1 (LID 2) migrated from
//! hypervisor 1 to hypervisor 3 by swapping LFT rows 2 and 12.

use ib_core::migration::{swap_on_fabric, MigrationOptions};
use ib_core::{DataCenter, DataCenterConfig, VirtArch};
use ib_mad::{RouteTree, SmpLedger, SmpTransport};
use ib_subnet::topology::basic::fig5_fabric;
use ib_types::{Lid, PortNum};

fn lid(raw: u16) -> Lid {
    Lid::from_raw(raw)
}

/// Builds the exact Fig. 3 state: hypervisor 1 = PF LID 1 + VF LIDs 2, 3,
/// 4; hypervisor 2 = 5..8; hypervisor 3 = 9..12 — all as extra LIDs on the
/// hypervisor HCA ports (the addressing is what matters for the LFTs), and
/// leaf LFTs as printed in Fig. 5.
fn fig3_subnet() -> (
    ib_subnet::Subnet,
    ib_subnet::NodeId,
    ib_subnet::NodeId,
    Vec<ib_subnet::NodeId>,
) {
    let t = fig5_fabric();
    let mut s = t.subnet;
    let leaf0 = t.switch_levels[0][0];
    let leaf1 = t.switch_levels[0][1];
    let hyps = t.hosts.clone();

    // Switch LIDs (outside Fig. 3's 1-12 endpoint range) so that
    // destination-routed SMPs can address the switches.
    s.assign_switch_lid(leaf0, lid(20)).unwrap();
    s.assign_switch_lid(leaf1, lid(21)).unwrap();

    // LID layout of Fig. 3. Each hypervisor's PF and VFs hang off one leaf
    // port, so from the switch's perspective they share a forwarding port.
    // Register all LIDs of hypervisor h on its HCA port.
    let hyp_lids: [&[u16]; 3] = [&[1, 2, 3, 4], &[5, 6, 7, 8], &[9, 10, 11, 12]];
    for (h, lids) in hyp_lids.iter().enumerate() {
        for &raw in *lids {
            // Multi-LID registration needs one port per LID in our model;
            // emulate by registering the first on port 1 and tracking the
            // rest through the LFTs only (the LFT mechanics are what Fig. 5
            // exercises).
            if raw == lids[0] {
                s.assign_port_lid(hyps[h], PortNum::new(1), lid(raw))
                    .unwrap();
            }
        }
    }

    // Fig. 5 "LFT Before Live Migration" for the upper-left switch
    // (leaf 0): LIDs 1-4 -> port 2 (hypervisor 1), 5-8 -> port 3
    // (hypervisor 2, the figure prints only the excerpt), 9-12 -> port 4
    // (the trunk towards leaf 1).
    {
        let lft = s.lft_mut(leaf0).unwrap();
        for raw in 1..=4 {
            lft.set(lid(raw), PortNum::new(2));
        }
        for raw in 5..=8 {
            lft.set(lid(raw), PortNum::new(3));
        }
        for raw in 9..=12 {
            lft.set(lid(raw), PortNum::new(4));
        }
    }
    // Leaf 1: 1-8 over the trunk (port 4), 9-12 local (port 2).
    {
        let lft = s.lft_mut(leaf1).unwrap();
        for raw in 1..=8 {
            lft.set(lid(raw), PortNum::new(4));
        }
        for raw in 9..=12 {
            lft.set(lid(raw), PortNum::new(2));
        }
    }
    (s, leaf0, leaf1, hyps)
}

#[test]
fn fig5_swap_updates_ports_exactly_as_printed() {
    let (mut s, leaf0, leaf1, hyps) = fig3_subnet();
    let mut ledger = SmpLedger::new();

    // Before: LID 2 -> port 2, LID 12 -> port 4 on the upper-left switch.
    assert_eq!(s.lft(leaf0).unwrap().get(lid(2)), Some(PortNum::new(2)));
    assert_eq!(s.lft(leaf0).unwrap().get(lid(12)), Some(PortNum::new(4)));

    let tree = RouteTree::build(&s, hyps[0]);
    let (stats, _, _) = swap_on_fabric(
        &mut s,
        &tree,
        lid(2),
        lid(12),
        &MigrationOptions::default(),
        None,
        &mut SmpTransport::assumed(hyps[0]),
        &mut ledger,
    )
    .unwrap();

    // After: LID 2 -> port 4, LID 12 -> port 2 — the exact Fig. 5 rows.
    assert_eq!(s.lft(leaf0).unwrap().get(lid(2)), Some(PortNum::new(4)));
    assert_eq!(s.lft(leaf0).unwrap().get(lid(12)), Some(PortNum::new(2)));
    // Leaf 1 mirrors: 2 now local, 12 now over the trunk.
    assert_eq!(s.lft(leaf1).unwrap().get(lid(2)), Some(PortNum::new(2)));
    assert_eq!(s.lft(leaf1).unwrap().get(lid(12)), Some(PortNum::new(4)));

    // §V-C1: LIDs 2 and 12 share the 0-63 block, so each of the two
    // switches takes exactly ONE SMP.
    assert_eq!(stats.switches_updated, 2);
    assert_eq!(stats.max_blocks_per_switch, 1);
    assert_eq!(stats.lft_smps, 2);
    assert_eq!(ledger.lft_updates(), 2);
}

#[test]
fn fig5_cross_block_variant_needs_two_smps() {
    // "If the LID of VF3 on hypervisor 3 was 64 or greater, then two SMPs
    // would need to be sent" — rebuild with LID 70 in place of 12.
    let (mut s, leaf0, _, hyps) = fig3_subnet();
    s.lft_mut(leaf0).unwrap().set(lid(70), PortNum::new(4));
    let leaf1 = s
        .physical_switches()
        .map(|n| n.id)
        .find(|&id| id != leaf0)
        .unwrap();
    s.lft_mut(leaf1).unwrap().set(lid(70), PortNum::new(2));

    let mut ledger = SmpLedger::new();
    let tree = RouteTree::build(&s, hyps[0]);
    let (stats, _, _) = swap_on_fabric(
        &mut s,
        &tree,
        lid(2),
        lid(70),
        &MigrationOptions::default(),
        None,
        &mut SmpTransport::assumed(hyps[0]),
        &mut ledger,
    )
    .unwrap();
    assert_eq!(stats.max_blocks_per_switch, 2);
    assert_eq!(stats.lft_smps, stats.switches_updated * 2);
}

#[test]
fn fig5_swap_to_same_leaf_lid_skips_remote_switch() {
    // §VI-B's n' example: swapping LID 2 with any of hypervisor 2's LIDs
    // (5-8) leaves the *remote* leaf untouched, because it already routes
    // both over the trunk.
    let (mut s, _leaf0, leaf1, hyps) = fig3_subnet();
    let before_leaf1 = s.lft(leaf1).unwrap().clone();
    let mut ledger = SmpLedger::new();
    let tree = RouteTree::build(&s, hyps[0]);
    let (stats, _, _) = swap_on_fabric(
        &mut s,
        &tree,
        lid(2),
        lid(6),
        &MigrationOptions::default(),
        None,
        &mut SmpTransport::assumed(hyps[0]),
        &mut ledger,
    )
    .unwrap();
    assert_eq!(stats.switches_updated, 1, "only the local leaf changes");
    assert_eq!(s.lft(leaf1).unwrap(), &before_leaf1);
}

#[test]
fn fig5_full_datacenter_migration_end_to_end() {
    // The same scenario through the full stack: fig5 fabric virtualized
    // with 3 prepopulated VFs per hypervisor, VM on hypervisor 0 migrated
    // to hypervisor 2.
    let built = fig5_fabric();
    let mut dc = DataCenter::from_topology(
        built,
        DataCenterConfig {
            arch: VirtArch::VSwitchPrepopulated,
            vfs_per_hypervisor: 3,
            ..DataCenterConfig::default()
        },
    )
    .unwrap();
    // 2 switches + 3 PFs + 9 VFs = 14 LIDs (matching Fig. 3's 12 endpoint
    // LIDs plus our two switch LIDs).
    assert_eq!(dc.subnet.num_lids(), 14);

    let vm = dc.create_vm("vm1", 0).unwrap();
    let lid_before = dc.vm(vm).unwrap().lid;
    let report = dc.migrate_vm(vm, 2).unwrap();

    assert_eq!(report.lid_after, lid_before, "LID follows the VM");
    assert!(report.lft.max_blocks_per_switch <= 2);
    assert!(report.lft.switches_updated <= 2);
    assert!(!report.intra_leaf);
    dc.verify_connectivity().unwrap();

    // The swapped-back LID now belongs to hypervisor 0's VF pool: a new VM
    // there can boot with it immediately.
    let vm2 = dc.create_vm("vm2", 0).unwrap();
    assert_ne!(dc.vm(vm2).unwrap().lid, lid_before);
    dc.verify_connectivity().unwrap();
}
