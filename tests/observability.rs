//! The observability layer's two contracts, pinned end to end:
//!
//! 1. **Reconciliation** — every counter the `ib-observe` sink accumulates
//!    is derivable from the `SmpLedger`'s per-attempt ground truth, even
//!    under injected SMP loss, and the `TxStats` retry/attempt accounting
//!    sums exactly to the ledger's attempt records.
//! 2. **Zero cost** — a run with observation disabled is byte-identical
//!    (ledger records and installed LFTs) to the same run with a metrics
//!    sink attached: the observer is a side channel, never a participant.

use ib_core::{DataCenter, DataCenterConfig, VirtArch};
use ib_mad::SmpTransport;
use ib_observe::{FakeClock, Observer};
use ib_subnet::topology::fattree::two_level;

fn dc_observed(arch: VirtArch, observer: Observer) -> DataCenter {
    DataCenter::from_topology_observed(
        two_level(2, 3, 2),
        DataCenterConfig {
            arch,
            vfs_per_hypervisor: 3,
            ..DataCenterConfig::default()
        },
        observer,
    )
    .expect("bring-up")
}

fn fake_observer() -> Observer {
    Observer::with_clock(Box::new(FakeClock::new()))
}

#[test]
fn metrics_reconcile_with_ledger_under_smp_drops() {
    for arch in [VirtArch::VSwitchPrepopulated, VirtArch::VSwitchDynamic] {
        for seed in 0..8u64 {
            let observer = fake_observer();
            let mut dc = dc_observed(arch, observer.clone());
            let vm = dc.create_vm("vm", 0).expect("create");
            let mut transport = SmpTransport::lossy(dc.sm.sm_node, seed, 0.10, 0);
            transport.retry.max_attempts = 8;
            let report = dc
                .migrate_vm_resilient(vm, 4, &mut transport)
                .expect("resilient migration");

            let ledger = &dc.sm.ledger;
            let snap = observer.snapshot().expect("enabled");
            // Every SMP counter is the ledger aggregate, exactly.
            assert_eq!(snap.counter("smp.attempts"), ledger.total() as u64);
            assert_eq!(snap.counter("smp.retries"), ledger.retries() as u64);
            assert_eq!(
                snap.counter("smp.outcome.delivered"),
                ledger.delivered() as u64
            );
            assert_eq!(snap.counter("smp.outcome.dropped"), ledger.dropped() as u64);
            assert_eq!(
                snap.counter("smp.outcome.timed_out"),
                ledger.timed_out() as u64
            );
            // Per-phase counters match the phase slices.
            let phase = format!("migrate-{vm}");
            assert_eq!(
                snap.counter(&format!("phase.{phase}.smps")),
                ledger.phase_total(&phase) as u64
            );
            assert_eq!(
                snap.counter(&format!("phase.create-{vm}.smps")),
                ledger.phase_total(&format!("create-{vm}")) as u64
            );

            // TxStats accounting sums exactly to the ledger's attempt
            // records for the migration phase: every record is one send
            // attempt, retries are the records with attempt > 0, and for a
            // committed migration every SMP was eventually delivered (no
            // exhausted sends, no compensation traffic).
            let records = ledger.phase_records(&phase);
            let phase_retries = records.iter().filter(|r| r.attempt > 0).count();
            if report.committed {
                assert_eq!(report.tx.retries, phase_retries, "{arch} seed {seed}");
                assert_eq!(report.tx.attempts, records.len(), "{arch} seed {seed}");
                assert_eq!(
                    report.tx.attempts,
                    report.tx.retries + records.iter().filter(|r| r.status.is_delivered()).count(),
                    "{arch} seed {seed}: attempts = retries + delivered"
                );
            } else {
                // A rollback sends compensation SMPs that the ledger
                // records but TxStats books separately; the convention
                // retries <= attempts still holds.
                assert!(report.tx.retries <= report.tx.attempts);
                assert!(report.tx.attempts <= records.len());
            }
        }
    }
}

#[test]
fn zero_drop_resilient_migration_reports_zero_retries() {
    // Regression pin for the `harness faults` zero-drop row: a lossless
    // transport must report zero retries, and the attempt count must equal
    // the migration phase's ledger records (one delivered attempt each).
    for arch in [VirtArch::VSwitchPrepopulated, VirtArch::VSwitchDynamic] {
        for seed in [0u64, 7, 0xfeed] {
            let mut dc = dc_observed(arch, Observer::disabled());
            let vm = dc.create_vm("vm", 0).expect("create");
            let mut transport = SmpTransport::lossy(dc.sm.sm_node, seed, 0.0, 0);
            let report = dc
                .migrate_vm_resilient(vm, 4, &mut transport)
                .expect("resilient migration");
            assert!(report.committed);
            assert_eq!(report.tx.retries, 0, "{arch} seed {seed}");
            let phase = format!("migrate-{vm}");
            assert_eq!(report.tx.attempts, dc.sm.ledger.phase_total(&phase));
        }
    }
}

#[test]
fn observation_is_byte_identical_to_disabled_runs() {
    // Property over seeds and architectures: attaching a metrics sink must
    // not change a single ledger record or LFT row. Includes lossy seeds,
    // where the transport's RNG stream must be unaffected by observation.
    for arch in [VirtArch::VSwitchPrepopulated, VirtArch::VSwitchDynamic] {
        for seed in 0..6u64 {
            let run = |observer: Observer| {
                let mut dc = dc_observed(arch, observer);
                let vm = dc.create_vm("vm", 0).expect("create");
                let mut transport = SmpTransport::lossy(dc.sm.sm_node, seed, 0.08, 3);
                transport.retry.max_attempts = 8;
                dc.migrate_vm_resilient(vm, 4, &mut transport)
                    .expect("resilient migration");
                (dc, transport.clock_ns())
            };
            let (plain, plain_clock) = run(Observer::disabled());
            let (observed, observed_clock) = run(fake_observer());

            assert_eq!(
                plain.sm.ledger.records(),
                observed.sm.ledger.records(),
                "{arch} seed {seed}: ledger must be byte-identical"
            );
            assert_eq!(plain_clock, observed_clock, "{arch} seed {seed}");
            for sw in plain.subnet.physical_switches() {
                assert_eq!(
                    observed.subnet.lft(sw.id).expect("switch LFT"),
                    sw.lft().expect("switch LFT"),
                    "{arch} seed {seed}: LFTs must be byte-identical"
                );
            }
        }
    }
}

#[test]
fn bring_up_emits_pipeline_spans_and_sweep_metrics() {
    let observer = fake_observer();
    let dc = dc_observed(VirtArch::VSwitchPrepopulated, observer.clone());
    let snap = observer.snapshot().expect("enabled");

    for span in [
        "sm.discovery",
        "sm.lid_assignment",
        "sm.routing",
        "sweep.plan",
        "sweep.apply",
    ] {
        assert_eq!(snap.spans_named(span).len(), 1, "missing span {span}");
    }
    // Physical and virtual switches alike get LFTs on bring-up; the
    // ledger's distinct-target count is the ground truth.
    assert_eq!(
        snap.counter("sweep.switches_updated"),
        dc.sm.ledger.switches_updated() as u64
    );
    assert_eq!(
        snap.counter("planner.jobs"),
        dc.sm.ledger.switches_updated() as u64
    );
    // Dirty blocks planned == LFT-update SMPs delivered on a clean fabric.
    assert_eq!(
        snap.counter("sweep.dirty_blocks"),
        dc.sm.ledger.lft_updates() as u64
    );
}

#[test]
fn migration_commit_metrics_count_each_migration() {
    let observer = fake_observer();
    let mut dc = dc_observed(VirtArch::VSwitchPrepopulated, observer.clone());
    let a = dc.create_vm("a", 0).expect("create");
    let b = dc.create_vm("b", 1).expect("create");
    let mut transport = SmpTransport::perfect(dc.sm.sm_node);
    dc.migrate_vm_resilient(a, 4, &mut transport)
        .expect("migrate a");
    dc.migrate_vm_resilient(b, 5, &mut transport)
        .expect("migrate b");

    let snap = observer.snapshot().expect("enabled");
    assert_eq!(snap.counter("migration.tx.committed"), 2);
    assert_eq!(snap.counter("migration.tx.rolled_back"), 0);
    assert_eq!(snap.counter("migration.abort.step_a"), 0);
    let retries = snap.histogram("migration.tx.retries").expect("histogram");
    assert_eq!(retries.count, 2);
    assert_eq!(retries.sum, 0, "perfect transport retries nothing");
    assert_eq!(snap.spans_named("migration.step_b.swap").len(), 2);
}

#[test]
fn one_migration_is_attributable_from_its_spans_and_counters() {
    // A migration's cost splits into the LFT pass and the hand-over of its
    // changed cells to the SM; both spans — and the one route-tree search
    // and the changed-cell count — must be claimable by the single
    // migration that emitted them, classic or transactional.
    for (arch, pass) in [
        (VirtArch::VSwitchPrepopulated, "migration.step_b.swap"),
        (VirtArch::VSwitchDynamic, "migration.step_b.copy"),
    ] {
        let observer = Observer::metrics();
        let mut dc = dc_observed(arch, observer.clone());
        let vm = dc.create_vm("vm", 0).expect("create");
        let mut transport = SmpTransport::perfect(dc.sm.sm_node);
        for (dest, resilient) in [(4, false), (2, true)] {
            let before = observer.snapshot().expect("enabled");
            let opened = observer.now_ns();
            let switches_updated = if resilient {
                let report = dc.migrate_vm_resilient(vm, dest, &mut transport);
                report.expect("migrate").lft.switches_updated
            } else {
                dc.migrate_vm(vm, dest)
                    .expect("migrate")
                    .lft
                    .switches_updated
            };
            let closed = observer.now_ns();
            let after = observer.snapshot().expect("enabled");
            let tag = format!("{arch} resilient={resilient}");

            let delta = |name: &str| after.counter(name) - before.counter(name);
            assert_eq!(delta("sm.route_tree_builds"), 1, "{tag}");
            // A swap moves two cells per updated switch and re-homes two
            // LIDs on the two vSwitches; a copy moves one and re-homes one.
            let lids = if arch == VirtArch::VSwitchPrepopulated {
                2
            } else {
                1
            };
            assert_eq!(
                delta("migration.changed_cells"),
                (lids * (switches_updated + 2)) as u64,
                "{tag}"
            );

            let inside = |name: &str| {
                let spans: Vec<_> = after
                    .spans_named(name)
                    .into_iter()
                    .filter(|s| s.start_ns >= opened)
                    .collect();
                assert_eq!(spans.len(), 1, "{tag}: one {name} span per migration");
                assert!(spans[0].start_ns + spans[0].duration_ns <= closed, "{tag}");
                (spans[0].start_ns, spans[0].start_ns + spans[0].duration_ns)
            };
            let (_, pass_end) = inside(pass);
            let (note_start, _) = inside("migration.note_cells");
            assert!(
                pass_end <= note_start,
                "{tag}: the pass precedes the hand-over"
            );
        }
    }
}
