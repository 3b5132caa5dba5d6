//! The fault layer's zero-cost property: running any pipeline under an
//! empty [`FaultPlan`] is byte-identical to running it over the assumed
//! channel — same ledger records (per-attempt accounting included), same
//! LFT contents, same replayed timings — for any plan seed. The channel is
//! the only difference between the entry points that take a transport and
//! the ones that do not.

use ib_core::{DataCenter, DataCenterConfig, MigrationOptions, MigrationReport, VirtArch};
use ib_mad::{AssumedChannel, SmpChannel, SmpRecord, SmpTransport};
use ib_sim::{FaultPlan, SmpLatencyModel, SmpReplay};
use ib_sm::{DistributionReport, SmpMode, Trap};
use ib_subnet::topology::fattree::two_level;
use ib_subnet::{Lft, NodeId};

fn dc(arch: VirtArch) -> DataCenter {
    dc_with(arch, MigrationOptions::default())
}

fn dc_with(arch: VirtArch, migration: MigrationOptions) -> DataCenter {
    DataCenter::from_topology(
        two_level(2, 3, 2),
        DataCenterConfig {
            arch,
            vfs_per_hypervisor: 2,
            migration,
            ..DataCenterConfig::default()
        },
    )
    .expect("bring-up")
}

#[test]
fn empty_plan_migration_is_byte_identical_for_any_seed() {
    let archs = [VirtArch::VSwitchPrepopulated, VirtArch::VSwitchDynamic];
    for (arch, invalidate_first) in archs.into_iter().flat_map(|a| [(a, false), (a, true)]) {
        let opts = MigrationOptions {
            invalidate_first,
            ..MigrationOptions::default()
        };
        let dc = |arch| dc_with(arch, opts);
        // The reference: the classic migration, over the assumed channel.
        let mut classic = dc(arch);
        let vm_c = classic.create_vm("vm", 0).expect("create");
        classic.migrate_vm(vm_c, 4).expect("classic migration");
        let phase = format!("migrate-{vm_c}");
        let reference = classic.sm.ledger.phase_records(&phase).to_vec();
        assert!(!reference.is_empty());

        // The seed must not matter when the drop probability is zero.
        for seed in [0u64, 1, 42, 0xdead_beef] {
            let plan = FaultPlan::lossy(seed, 0.0);
            assert!(plan.is_fault_free());
            let mut faulty = dc(arch);
            let vm = faulty.create_vm("vm", 0).expect("create");
            let mut transport = plan.transport(faulty.sm.sm_node);
            let report = faulty
                .migrate_vm_resilient(vm, 4, &mut transport)
                .expect("resilient migration");

            assert!(report.committed, "{arch}");
            assert_eq!(report.tx.retries, 0);
            assert_eq!(report.tx.rollback_smps, 0);
            let invalidations = if invalidate_first {
                report.lft.switches_updated
            } else {
                0
            };
            assert_eq!(report.lft.invalidation_smps, invalidations, "{arch}");
            // Ledger: identical records, attempt numbers and statuses included.
            assert_eq!(
                faulty.sm.ledger.phase_records(&phase),
                reference.as_slice(),
                "{arch} seed {seed}: ledger must be byte-identical"
            );
            // Fabric: identical installed LFTs.
            for sw in classic.subnet.physical_switches() {
                assert_eq!(
                    faulty.subnet.lft(sw.id).unwrap(),
                    sw.lft().unwrap(),
                    "{arch} seed {seed}: LFTs must be byte-identical"
                );
            }
            // Timings: the outcome-aware replay degenerates to the plain
            // replay, and the transport's virtual clock equals the serial
            // replay makespan (no jitter, no timeouts).
            let model = SmpLatencyModel::default();
            let plain = SmpReplay::run(&faulty.sm.ledger, Some(&phase), &model);
            let outcome_aware = SmpReplay::run_with_faults(
                &faulty.sm.ledger,
                Some(&phase),
                &model,
                &transport.retry,
            );
            assert_eq!(plain, outcome_aware);
            assert_eq!(transport.clock_ns(), plain.makespan.as_ns());
        }
    }
}

#[test]
fn empty_plan_resweep_matches_perfect_transport() {
    let (mut a, mut b) = (
        dc(VirtArch::VSwitchPrepopulated),
        dc(VirtArch::VSwitchPrepopulated),
    );
    // Same link failure on both fabrics.
    let cut = |dc: &DataCenter| {
        let leaf = dc.hypervisors[0].leaf;
        dc.subnet
            .node(leaf)
            .connected_ports()
            .find(|(_, ep)| dc.subnet.node(ep.node).is_switch())
            .map(|(port, _)| port)
            .expect("leaf uplink")
    };
    let (pa, pb) = (cut(&a), cut(&b));
    assert_eq!(pa, pb);
    let (la, lb) = (a.hypervisors[0].leaf, b.hypervisors[0].leaf);
    a.subnet.set_link_down(la, pa).expect("cut");
    b.subnet.set_link_down(lb, pb).expect("cut");

    let mut perfect = SmpTransport::perfect(a.sm.sm_node);
    let ra =
        a.sm.handle_trap(
            &mut a.subnet,
            Trap::LinkStateChange { node: la, port: pa },
            &mut perfect,
        )
        .expect("re-sweep");
    let mut planned = FaultPlan::none().transport(b.sm.sm_node);
    let rb =
        b.sm.handle_trap(
            &mut b.subnet,
            Trap::LinkStateChange { node: lb, port: pb },
            &mut planned,
        )
        .expect("re-sweep");

    assert_eq!(ra, rb, "re-sweep reports must match");
    assert_eq!(a.sm.ledger.records(), b.sm.ledger.records());
    for sw in a.subnet.physical_switches() {
        assert_eq!(b.subnet.lft(sw.id).unwrap(), sw.lft().unwrap());
    }
}

#[test]
fn empty_plan_driver_never_touches_the_subnet() {
    let mut dcx = dc(VirtArch::VSwitchDynamic);
    let before: Vec<_> = dcx
        .subnet
        .physical_switches()
        .map(|n| (n.id, n.lft().unwrap().clone()))
        .collect();
    let plan = FaultPlan::none();
    let mut driver = plan.driver();
    assert!(driver.is_done());
    assert_eq!(driver.next_fault_at(), None);
    let fired = driver
        .advance(&mut dcx.subnet, ib_sim::SimTime(u64::MAX))
        .expect("advance");
    assert!(fired.is_empty());
    for (id, lft) in before {
        assert_eq!(dcx.subnet.lft(id).unwrap(), &lft);
    }
    // (`validate(true)` would reject the dormant, uncabled VFs of dynamic
    // mode — the degraded validator checks exactly what matters here.)
    dcx.subnet
        .validate_degraded()
        .expect("untouched fabric still validates");
}

/// Everything one [`stream`] leaves behind that a channel could have changed.
#[derive(Debug, PartialEq)]
struct Outcome {
    records: Vec<SmpRecord>,
    lfts: Vec<(NodeId, Lft)>,
    distributions: Vec<DistributionReport>,
    migrations: Vec<MigrationReport>,
}

/// Bring-up, a full reconfiguration around a freshly failed uplink, and five
/// migrations on a 9-hypervisor tree — through the entry points that take
/// no transport (`None`: the assumed channel) or through their
/// transport-taking counterparts.
fn stream<C: SmpChannel>(
    config: DataCenterConfig,
    mut transport: Option<&mut SmpTransport<C>>,
) -> Outcome {
    let mut dc = DataCenter::from_topology(two_level(3, 3, 2), config).expect("bring-up");
    assert!(transport.iter().all(|t| t.source == dc.sm.sm_node));
    let mut distributions = vec![dc.bring_up.distribution];
    // Shared Port may only move a node's single VM to an empty node, so the
    // stream keeps every VM on a node of its own.
    let a = dc.create_vm("a", 0).expect("create");
    let b = dc.create_vm("b", 4).expect("create");

    let leaf = dc.hypervisors[8].leaf;
    let (uplink, _) = dc
        .subnet
        .node(leaf)
        .connected_ports()
        .find(|(_, ep)| dc.subnet.node(ep.node).is_physical_switch())
        .expect("leaf uplink");
    dc.subnet.set_link_down(leaf, uplink).expect("cut");
    distributions.push(
        match transport.as_deref_mut() {
            None => dc
                .sm
                .full_reconfiguration(&mut dc.subnet)
                .map(|r| r.distribution),
            Some(t) => dc.sm.light_sweep(&mut dc.subnet, t).map(|r| r.distribution),
        }
        .expect("full reconfiguration"),
    );
    assert!(
        distributions[1].lft_smps > 0,
        "the cut must dirty some block"
    );

    let mut migrations = Vec::new();
    for (vm, dest) in [(a, 8), (b, 1), (a, 5), (b, 6), (a, 0)] {
        let report = match transport.as_deref_mut() {
            None => dc.migrate_vm(vm, dest),
            Some(t) => dc.migrate_vm_resilient(vm, dest, t),
        }
        .expect("migration");
        assert!(report.committed);
        migrations.push(report);
    }
    dc.verify_connectivity().expect("connected");
    Outcome {
        records: dc.sm.ledger.records().to_vec(),
        lfts: dc
            .subnet
            .switches()
            .map(|n| (n.id, n.lft().expect("switch").clone()))
            .collect(),
        distributions,
        migrations,
    }
}

#[test]
fn the_channel_is_the_only_difference() {
    let archs = [
        VirtArch::SharedPort,
        VirtArch::VSwitchPrepopulated,
        VirtArch::VSwitchDynamic,
    ];
    for arch in archs {
        for smp_mode in [SmpMode::Directed, SmpMode::Destination] {
            for invalidate_first in [false, true] {
                let tag = format!("{arch} {smp_mode:?} invalidate_first={invalidate_first}");
                let config = DataCenterConfig {
                    arch,
                    vfs_per_hypervisor: 2,
                    migration: MigrationOptions {
                        smp_mode,
                        invalidate_first,
                        ..MigrationOptions::default()
                    },
                    ..DataCenterConfig::default()
                };
                let assumed = stream::<AssumedChannel>(config, None);
                for m in &assumed.migrations {
                    let invalidations = if invalidate_first {
                        m.lft.switches_updated
                    } else {
                        0
                    };
                    assert_eq!(m.lft.invalidation_smps, invalidations, "{tag}");
                }
                // The transactional entry point models the vSwitch
                // architectures only.
                if !arch.has_vswitch() {
                    continue;
                }
                // Host 0's PF runs the SM on every fabric `stream` builds.
                let sm_node = two_level(3, 3, 2).hosts[0];
                let mut perfect = SmpTransport::perfect(sm_node);
                let mut lossless = FaultPlan::lossy(7, 0.0).transport(sm_node);
                assert_eq!(stream(config, Some(&mut perfect)), assumed, "{tag}");
                assert_eq!(stream(config, Some(&mut lossless)), assumed, "{tag}");
                assert_eq!(perfect.clock_ns(), lossless.clock_ns(), "{tag}");
                assert!(perfect.clock_ns() > 0);
            }
        }
    }
}
