//! End-to-end checks for the SM's incremental repair sweep.
//!
//! The headline claim: answering a link-down with delta-routing — re-route
//! only the destination columns whose installed paths crossed the failed
//! link, splice, distribute the dirty blocks — sends strictly fewer SMPs
//! than a full reconfiguration on the paper's 648-node fat tree. The
//! equivalence suite then drives every routing engine through random
//! connectivity-preserving fault schedules with repair enabled and demands
//! a verifier-clean fabric (or an accounted fallback) every single time,
//! deterministically across worker counts.

use ib_core::{DataCenter, DataCenterConfig, VirtArch};
use ib_mad::SmpTransport;
use ib_observe::Observer;
use ib_routing::{EngineKind, RoutingOptions, SwitchGraph, VlAssignment};
use ib_sm::{SmConfig, SubnetManager, SweepKind, Trap};
use ib_subnet::topology::fattree::{paper_324, paper_648, three_level, two_level};
use ib_subnet::topology::torus::torus_2d;
use ib_subnet::topology::BuiltTopology;
use ib_subnet::{NodeId, Subnet};
use ib_types::PortNum;
use ib_verify::FabricVerifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every switch-to-switch cable, one entry per cable.
fn core_links(subnet: &Subnet) -> Vec<(NodeId, PortNum, NodeId)> {
    let mut out = Vec::new();
    for sw in subnet.physical_switches() {
        for (port, remote) in sw.cabled_ports() {
            if subnet.node(remote.node).is_physical_switch() && sw.id.index() < remote.node.index()
            {
                out.push((sw.id, port, remote.node));
            }
        }
    }
    out
}

/// Whether the switch core stays connected over up links with `skip` down.
fn connected_without(
    subnet: &Subnet,
    links: &[(NodeId, PortNum, NodeId)],
    skip: (NodeId, PortNum),
) -> bool {
    let switches: Vec<NodeId> = subnet.physical_switches().map(|n| n.id).collect();
    let Some(&start) = switches.first() else {
        return true;
    };
    let mut reached = vec![start];
    let mut frontier = vec![start];
    while let Some(cur) = frontier.pop() {
        for &(a, p, b) in links {
            if (a, p) == skip || !subnet.is_link_up(a, p) {
                continue;
            }
            for (from, to) in [(a, b), (b, a)] {
                if from == cur && !reached.contains(&to) {
                    reached.push(to);
                    frontier.push(to);
                }
            }
        }
    }
    switches.iter().all(|s| reached.contains(s))
}

/// Up links whose loss keeps the core connected.
fn safe_to_down(
    subnet: &Subnet,
    links: &[(NodeId, PortNum, NodeId)],
) -> Vec<(NodeId, PortNum, NodeId)> {
    links
        .iter()
        .copied()
        .filter(|&(a, p, _)| subnet.is_link_up(a, p) && connected_without(subnet, links, (a, p)))
        .collect()
}

fn bring_up(mut t: BuiltTopology, config: SmConfig) -> (BuiltTopology, SubnetManager) {
    let mut sm = SubnetManager::new(t.hosts[0], config);
    sm.set_observer(Observer::metrics());
    sm.bring_up(&mut t.subnet).expect("bring-up");
    (t, sm)
}

/// The acceptance criterion: on the paper's 648-node fat tree with a
/// single link fault, the incremental repair sends strictly fewer LFT
/// SMPs than a full reconfiguration of the same degraded fabric.
#[test]
fn repair_beats_full_reconfiguration_on_the_648_fat_tree() {
    // The same cable on two identically-built fabrics.
    let fault = |t: &BuiltTopology| {
        let links = core_links(&t.subnet);
        safe_to_down(&t.subnet, &links)[0]
    };

    // Arm A: incremental repair answers the trap.
    let (mut a, mut sm_a) = bring_up(
        paper_648(),
        SmConfig {
            repair: true,
            ..SmConfig::default()
        },
    );
    let (node, port, _) = fault(&a);
    a.subnet.set_link_down(node, port).expect("link down");
    let mut transport = SmpTransport::perfect(sm_a.sm_node);
    let report = sm_a
        .handle_trap(
            &mut a.subnet,
            Trap::LinkStateChange { node, port },
            &mut transport,
        )
        .expect("repair sweep");
    assert_eq!(report.kind, SweepKind::Repair, "the repair path ran");
    assert!(report.failed_blocks.is_empty());
    let repair_smps = report.distribution.lft_smps;

    let snap = sm_a.observer().snapshot().expect("metrics on");
    assert_eq!(snap.counter("repair.success"), 1);
    assert_eq!(snap.counter("repair.fallback"), 0);

    // Arm B: classic full reconfiguration of the same degraded fabric.
    let (mut b, mut sm_b) = bring_up(paper_648(), SmConfig::default());
    let (node_b, port_b, _) = fault(&b);
    assert_eq!((node_b, port_b), (node, port), "twin fabrics, same cable");
    b.subnet.set_link_down(node_b, port_b).expect("link down");
    let full = sm_b
        .full_reconfiguration(&mut b.subnet)
        .expect("full reconfiguration");
    let full_smps = full.distribution.lft_smps;

    assert!(
        repair_smps < full_smps,
        "incremental repair must send strictly fewer SMPs: {repair_smps} vs {full_smps}"
    );

    // Both fabrics converged to verifier-clean tables.
    for subnet in [&a.subnet, &b.subnet] {
        let r = FabricVerifier::new()
            .with_deadlock(false)
            .verify(subnet)
            .expect("verifier");
        assert!(r.is_clean(), "{}", r.summary());
    }
}

/// One repair-enabled fault schedule: `faults` seeded connectivity-
/// preserving link-downs, each answered through `handle_trap`. Returns the
/// installed LFT bytes and the repair counters.
fn run_schedule(
    build: fn() -> BuiltTopology,
    engine: EngineKind,
    seed: u64,
    faults: usize,
    workers: usize,
) -> (Vec<(NodeId, ib_subnet::Lft)>, u64, u64) {
    let (mut t, mut sm) = bring_up(
        build(),
        SmConfig {
            engine,
            repair: true,
            routing: RoutingOptions::default().with_workers(workers),
            ..SmConfig::default()
        },
    );
    let links = core_links(&t.subnet);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut transport = SmpTransport::perfect(sm.sm_node);
    for _ in 0..faults {
        let cands = safe_to_down(&t.subnet, &links);
        if cands.is_empty() {
            break;
        }
        let (a, p, _) = cands[rng.gen_range(0..cands.len())];
        t.subnet.set_link_down(a, p).expect("link down");
        let report = sm
            .handle_trap(
                &mut t.subnet,
                Trap::LinkStateChange { node: a, port: p },
                &mut transport,
            )
            .expect("trap");
        assert!(report.failed_blocks.is_empty(), "sweep converged");
        // Every repaired (or fallen-back) fabric is verifier-clean: no
        // black holes, no forwarding loops, sound addressing.
        let r = FabricVerifier::new()
            .with_deadlock(false)
            .verify(&t.subnet)
            .expect("verifier");
        assert!(r.is_clean(), "{engine:?} seed {seed}: {}", r.summary());
    }
    let snap = sm.observer().snapshot().expect("metrics on");
    let lfts = t
        .subnet
        .physical_switches()
        .map(|n| (n.id, n.lft().expect("installed LFT").clone()))
        .collect();
    (
        lfts,
        snap.counter("repair.attempts"),
        snap.counter("repair.fallback"),
    )
}

/// Every engine, on a topology it supports, survives random repair-enabled
/// fault schedules: the repair either verifies clean or falls back (both
/// leave a clean fabric), and the outcome is byte-identical across routing
/// worker counts.
#[test]
fn every_engine_survives_repair_schedules_deterministically() {
    let fat: fn() -> BuiltTopology = || two_level(4, 2, 3);
    let torus: fn() -> BuiltTopology = || torus_2d(3, 3, 1, true);
    let scenarios: [(EngineKind, fn() -> BuiltTopology); 5] = [
        (EngineKind::FatTree, fat),
        (EngineKind::MinHop, fat),
        (EngineKind::UpDown, fat),
        (EngineKind::Dfsssp, torus),
        (EngineKind::Lash, torus),
    ];
    for (engine, build) in scenarios {
        for seed in [7u64, 99] {
            let (lfts_1, attempts_1, fallbacks_1) = run_schedule(build, engine, seed, 3, 1);
            let (lfts_4, attempts_4, fallbacks_4) = run_schedule(build, engine, seed, 3, 4);
            assert!(attempts_1 > 0, "{engine:?}: schedule exercised repair");
            assert_eq!(
                attempts_1, attempts_4,
                "{engine:?} seed {seed}: same schedule for any worker count"
            );
            assert_eq!(
                fallbacks_1, fallbacks_4,
                "{engine:?} seed {seed}: same fallback decisions"
            );
            assert_eq!(
                lfts_1, lfts_4,
                "{engine:?} seed {seed}: installed tables are worker-invariant"
            );
        }
    }
}

/// The in-place repair contract the SM's pipeline rests on, as a property
/// over engines x fabrics x fault shapes (single faults and two-fault
/// batches), each repair checked against a clone taken before the call:
///
/// * the splice log is the exact cell diff — nothing missed, nothing
///   listed that did not change — so clean columns are byte-identical;
/// * undoing the log restores the clone, VL assignment included;
/// * every `Err` path — a baseline missing one of the graph's switches,
///   (LASH) a foreign `VlAssignment` shape, (DFSSSP) lanes exhausted
///   *after* its columns are written — leaves the tables equal to the
///   clone, never half-spliced and never a full recompute in disguise.
///
/// (That all five engines repair natively is a compile-time fact:
/// `repair_with_graph` has no default body.)
#[test]
fn every_engine_repair_is_splice_or_err() {
    use EngineKind::{Dfsssp, FatTree, Lash, MinHop, UpDown};
    let opts = RoutingOptions::default();
    let obs = Observer::disabled();
    type Fabric = (&'static str, fn() -> BuiltTopology, &'static [EngineKind]);
    let fabrics: [Fabric; 3] = [
        ("paper_324", paper_324, &[FatTree, MinHop, UpDown]),
        (
            "three_level(4,4,4,4)",
            || three_level(4, 4, 4, 4),
            &[FatTree, MinHop, UpDown, Dfsssp, Lash],
        ),
        (
            "torus 4x4",
            || torus_2d(4, 4, 1, true),
            &[MinHop, UpDown, Dfsssp, Lash],
        ),
    ];
    for (fabric, build, engines) in fabrics {
        for &kind in engines {
            let tag = format!("{} on {fabric}", kind.name());
            let mut t = build();
            ib_routing::testutil::assign_lids(&mut t);
            let engine = kind.build();
            let prior = engine.compute(&t.subnet).unwrap();
            prior.install(&mut t.subnet).unwrap();

            // Two connectivity-preserving cables that carry routes; their
            // dirty groups read off the installed baseline, the second
            // minus the first's.
            let links = core_links(&t.subnet);
            let mut groups: Vec<Vec<ib_types::Lid>> = Vec::new();
            let mut first_fault = None;
            while groups.len() < 2 {
                let (node, port, group) = safe_to_down(&t.subnet, &links)
                    .into_iter()
                    .skip(groups.len() * 3)
                    .find_map(|(node, port, _)| {
                        let mut group = ib_verify::affected_destinations(&t.subnet, node, port);
                        group.retain(|lid| !groups.iter().flatten().any(|l| l == lid));
                        (!group.is_empty()).then_some((node, port, group))
                    })
                    .unwrap_or_else(|| panic!("{tag}: no second cable carries routes"));
                first_fault.get_or_insert(node);
                groups.push(group);
                t.subnet.set_link_down(node, port).unwrap();
            }
            let graph = SwitchGraph::build(&t.subnet).unwrap();
            let lids = t.subnet.lids();

            for batch in [&groups[..1], &groups[..]] {
                let mut tables = prior.clone();
                let log = engine
                    .repair_batch_with_graph(&graph, opts, &mut tables, batch, &obs)
                    .unwrap();
                let mut diff = Vec::new();
                for (sw, lft) in &prior.lfts {
                    for &lid in &lids {
                        let (old, new) = (lft.get(lid), tables.lfts[sw].get(lid));
                        if old != new {
                            assert!(
                                batch.iter().flatten().any(|&l| l == lid),
                                "{tag}: clean {lid}"
                            );
                            diff.push((*sw, lid, old, new));
                        }
                    }
                }
                let mut logged: Vec<_> = log
                    .cells
                    .iter()
                    .map(|c| (c.switch, c.lid, c.old, c.new))
                    .collect();
                assert!(!logged.is_empty(), "{tag}: the fault moved something");
                diff.sort_unstable();
                logged.sort_unstable();
                assert_eq!(logged, diff, "{tag}: log is the exact cell diff");
                log.undo(&mut tables);
                assert_eq!(tables.lfts, prior.lfts, "{tag}: undo");
                assert_eq!(tables.vls, prior.vls, "{tag}: undo restores the lanes");
                assert_eq!(tables.decisions, prior.decisions, "{tag}");
            }

            // `Err` leaves the tables as they were.
            let mut refused: Vec<(&str, Box<dyn ib_routing::RoutingEngine>, _)> = Vec::new();
            let mut holed = prior.clone();
            holed.lfts.remove(&first_fault.unwrap());
            refused.push(("a baseline missing a switch", kind.build(), holed));
            if kind == Lash {
                let mut foreign = prior.clone();
                foreign.vls = VlAssignment::PerDestination(Default::default());
                refused.push(("a foreign VL assignment", kind.build(), foreign));
            }
            if kind == Dfsssp {
                // One lane holds neither fabric's switch-LID paths:
                // lifting fails after the dirty columns were written.
                let starved = ib_routing::dfsssp::Dfsssp { max_vls: 1 };
                refused.push(("exhausted lanes", Box::new(starved), prior.clone()));
            }
            for (why, engine, baseline) in refused {
                let mut tables = baseline.clone();
                assert!(
                    engine
                        .repair_batch_with_graph(&graph, opts, &mut tables, &groups, &obs)
                        .is_err(),
                    "{tag}: {why} must not yield tables"
                );
                assert_eq!(tables.lfts, baseline.lfts, "{tag}: {why}");
                assert_eq!(tables.vls, baseline.vls, "{tag}: {why}");
            }
        }
    }
}

/// The per-engine matrix acceptance criterion: each engine answers a
/// single-fault trap with its native repair on a topology it supports —
/// the paper's 324- and 648-node fat trees for the tree engines, the
/// wrapped 4x4 torus for the VL-layering engines — and the repair sends
/// no more SMPs than the classic full-recompute sweep, strictly fewer
/// than `full_reconfiguration`, falls back zero times, and leaves the
/// reverse route index in lockstep with the two-row scan.
#[test]
fn native_repair_beats_full_sweeps_across_the_engine_matrix() {
    let torus_4x4: fn() -> BuiltTopology = || torus_2d(4, 4, 1, true);
    let matrix: [(EngineKind, fn() -> BuiltTopology); 7] = [
        (EngineKind::FatTree, paper_324),
        (EngineKind::MinHop, paper_324),
        (EngineKind::UpDown, paper_324),
        (EngineKind::FatTree, paper_648),
        (EngineKind::UpDown, paper_648),
        (EngineKind::Dfsssp, torus_4x4),
        (EngineKind::Lash, torus_4x4),
    ];
    for (engine, build) in matrix {
        // The same cable on identically-built fabrics.
        let fault = |t: &BuiltTopology| {
            let links = core_links(&t.subnet);
            safe_to_down(&t.subnet, &links)[0]
        };
        let trap_arm = |repair: bool| {
            let (mut t, mut sm) = bring_up(
                build(),
                SmConfig {
                    engine,
                    repair,
                    ..SmConfig::default()
                },
            );
            let (node, port, _) = fault(&t);
            t.subnet.set_link_down(node, port).expect("link down");
            let mut transport = SmpTransport::perfect(sm.sm_node);
            let report = sm
                .handle_trap(
                    &mut t.subnet,
                    Trap::LinkStateChange { node, port },
                    &mut transport,
                )
                .expect("trap");
            assert!(report.failed_blocks.is_empty(), "{engine:?}: converged");
            if repair {
                assert_eq!(report.kind, SweepKind::Repair, "{engine:?}: repair ran");
            }
            (t, sm, report.distribution.lft_smps)
        };

        let (a, sm_a, repair_smps) = trap_arm(true);
        let snap = sm_a.observer().snapshot().expect("metrics on");
        assert_eq!(
            snap.counter(&format!("repair.success.{}", engine.name())),
            1,
            "{engine:?}: one tagged native repair"
        );
        assert_eq!(
            snap.counter("repair.fallback"),
            0,
            "{engine:?}: no fallback"
        );
        assert!(
            sm_a.verify_route_index(&a.subnet).is_empty(),
            "{engine:?}: index agrees with the scan after the splice"
        );
        let r = FabricVerifier::new()
            .with_deadlock(matches!(engine, EngineKind::Dfsssp | EngineKind::Lash))
            .verify_with_vls(&a.subnet, sm_a.installed_vls().expect("tables installed"))
            .expect("verifier");
        assert!(r.is_clean(), "{engine:?}: {}", r.summary());

        let (_, _, sweep_smps) = trap_arm(false);

        let (mut c, mut sm_c) = bring_up(
            build(),
            SmConfig {
                engine,
                ..SmConfig::default()
            },
        );
        let (node_c, port_c, _) = fault(&c);
        c.subnet.set_link_down(node_c, port_c).expect("link down");
        let full_rc_smps = sm_c
            .full_reconfiguration(&mut c.subnet)
            .expect("full reconfiguration")
            .distribution
            .lft_smps;

        assert!(
            repair_smps <= sweep_smps,
            "{engine:?}: repair must not exceed the full sweep: {repair_smps} vs {sweep_smps}"
        );
        // On the trees a single fault leaves most columns clean, so the
        // win is strict; the 16-switch torus is small enough that one
        // fault can dirty every block, making parity the floor there.
        let tree = matches!(
            engine,
            EngineKind::FatTree | EngineKind::MinHop | EngineKind::UpDown
        );
        assert!(
            if tree {
                repair_smps < full_rc_smps
            } else {
                repair_smps <= full_rc_smps
            },
            "{engine:?}: repair must beat full_reconfiguration: {repair_smps} vs {full_rc_smps}"
        );
    }
}

/// LASH's repair is an exact recompute of the dirty destination in-trees:
/// after a single-fault repair accepted by the CDG deadlock gate
/// (`verify: true`), the installed tables are byte-identical to a full
/// LASH reconfiguration of the same degraded torus, and the repaired
/// fabric passes the full deadlock-freedom check.
#[test]
fn lash_repair_matches_full_recompute_under_the_cdg_gate() {
    let build: fn() -> BuiltTopology = || torus_2d(4, 4, 1, true);
    let fault = |t: &BuiltTopology| {
        let links = core_links(&t.subnet);
        safe_to_down(&t.subnet, &links)[0]
    };

    // Arm A: native repair behind the deadlock-checking gate.
    let (mut a, mut sm_a) = bring_up(
        build(),
        SmConfig {
            engine: EngineKind::Lash,
            repair: true,
            verify: true,
            ..SmConfig::default()
        },
    );
    let (node, port, _) = fault(&a);
    a.subnet.set_link_down(node, port).expect("link down");
    let mut transport = SmpTransport::perfect(sm_a.sm_node);
    let report = sm_a
        .handle_trap(
            &mut a.subnet,
            Trap::LinkStateChange { node, port },
            &mut transport,
        )
        .expect("repair sweep");
    assert_eq!(report.kind, SweepKind::Repair, "the repair path ran");
    assert!(report.failed_blocks.is_empty());
    let snap = sm_a.observer().snapshot().expect("metrics on");
    assert_eq!(snap.counter("repair.success.lash"), 1);
    assert_eq!(
        snap.counter("repair.fallback"),
        0,
        "the CDG gate accepted the incremental lane re-assignment"
    );

    // Arm B: full LASH recompute of the same degraded fabric.
    let (mut b, mut sm_b) = bring_up(
        build(),
        SmConfig {
            engine: EngineKind::Lash,
            ..SmConfig::default()
        },
    );
    let (node_b, port_b, _) = fault(&b);
    assert_eq!((node_b, port_b), (node, port), "twin fabrics, same cable");
    b.subnet.set_link_down(node_b, port_b).expect("link down");
    sm_b.full_reconfiguration(&mut b.subnet)
        .expect("full reconfiguration");

    let tables = |s: &Subnet| -> Vec<(NodeId, ib_subnet::Lft)> {
        s.physical_switches()
            .map(|n| (n.id, n.lft().expect("installed LFT").clone()))
            .collect()
    };
    assert_eq!(
        tables(&a.subnet),
        tables(&b.subnet),
        "repair splice is byte-identical to the full recompute"
    );
    let r = FabricVerifier::new()
        .with_deadlock(true)
        .verify_with_vls(&a.subnet, sm_a.installed_vls().expect("tables installed"))
        .expect("verifier");
    assert!(r.is_clean(), "{}", r.summary());
}

/// The coalescing acceptance criterion: a 3-fault burst (seeded,
/// connectivity-preserving, every link down before any response — the
/// view a coalescing window hands the SM) repaired as one batched sweep
/// issues strictly fewer LFT SMPs and strictly fewer verifier passes
/// than repairing the same burst one trap at a time, with byte-identical
/// final tables on the paper's 648-node fat tree.
#[test]
fn batched_repair_beats_serial_on_a_648_tree_burst() {
    const FAULTS: usize = 3;
    let seed = 0x648_B57u64;
    let run = |batched: bool| {
        let (mut t, mut sm) = bring_up(
            paper_648(),
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        // Both arms re-derive the picks from the same seeded RNG over the
        // same evolving link state: identical cables, identical order.
        let links = core_links(&t.subnet);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut transport = SmpTransport::perfect(sm.sm_node);
        let mut downed = Vec::new();
        for _ in 0..FAULTS {
            let cands = safe_to_down(&t.subnet, &links);
            let (a, p, _) = cands[rng.gen_range(0..cands.len())];
            t.subnet.set_link_down(a, p).expect("link down");
            downed.push((a, p));
        }
        assert_eq!(downed.len(), FAULTS, "burst fully injected");
        let mut smps = 0;
        if batched {
            let report = sm
                .repair_sweep_batch(&mut t.subnet, &downed, &mut transport)
                .expect("batch repair");
            assert_eq!(report.kind, SweepKind::Repair);
            assert!(report.failed_blocks.is_empty());
            smps += report.distribution.lft_smps;
        } else {
            for &(a, p) in &downed {
                let report = sm
                    .handle_trap(
                        &mut t.subnet,
                        Trap::LinkStateChange { node: a, port: p },
                        &mut transport,
                    )
                    .expect("trap");
                // The scoped gate accepts each mid-burst repair despite
                // the other faults' pre-existing damage.
                assert_eq!(report.kind, SweepKind::Repair);
                assert!(report.failed_blocks.is_empty());
                smps += report.distribution.lft_smps;
            }
        }
        let snap = sm.observer().snapshot().expect("metrics on");
        assert_eq!(snap.counter("repair.fallback"), 0, "no arm fell back");
        let r = FabricVerifier::new()
            .with_deadlock(false)
            .verify(&t.subnet)
            .expect("verifier");
        assert!(r.is_clean(), "{}", r.summary());
        let lfts: Vec<(NodeId, ib_subnet::Lft)> = t
            .subnet
            .physical_switches()
            .map(|n| (n.id, n.lft().expect("installed LFT").clone()))
            .collect();
        (smps, snap.counter("verify.runs"), lfts)
    };

    let (batch_smps, batch_verifies, batch_lfts) = run(true);
    let (serial_smps, serial_verifies, serial_lfts) = run(false);
    assert!(
        batch_smps < serial_smps,
        "batch must send strictly fewer SMPs: {batch_smps} vs {serial_smps}"
    );
    assert_eq!(serial_verifies, FAULTS as u64, "one gate per serial repair");
    assert!(
        batch_verifies < serial_verifies,
        "batch must verify strictly fewer times: {batch_verifies} vs {serial_verifies}"
    );
    assert_eq!(batch_lfts, serial_lfts, "byte-identical final tables");
}

/// Answers the link-state trap of `(node, port)` over a perfect transport.
fn answer_trap(
    t: &mut BuiltTopology,
    sm: &mut SubnetManager,
    node: NodeId,
    port: PortNum,
) -> ib_sm::ResweepReport {
    let mut transport = SmpTransport::perfect(sm.sm_node);
    sm.handle_trap(
        &mut t.subnet,
        Trap::LinkStateChange { node, port },
        &mut transport,
    )
    .expect("trap handled")
}

/// Downs `(node, port)` and answers the trap.
fn down_and_trap(
    t: &mut BuiltTopology,
    sm: &mut SubnetManager,
    node: NodeId,
    port: PortNum,
) -> ib_sm::ResweepReport {
    t.subnet.set_link_down(node, port).expect("link down");
    answer_trap(t, sm, node, port)
}

/// The installed tables verify clean under the installed VL layering and
/// the reverse route index mirrors them.
fn assert_converged(t: &BuiltTopology, sm: &SubnetManager, tag: &str) {
    let vls = sm.installed_vls().expect("tables installed");
    let report = FabricVerifier::new()
        .verify_with_vls(&t.subnet, vls)
        .expect("verifier");
    assert!(report.is_clean(), "{tag}: {report}");
    assert_eq!(
        sm.verify_route_index(&t.subnet),
        Vec::<String>::new(),
        "{tag}"
    );
}

/// The `VerifyRejected` fallback, pinned on a 48-switch reproducer: on
/// `three_level(4,4,4,4)` with the fat-tree engine, downing a leaf's
/// *last* uplink makes the sticky switch-column picks close a VL1 channel
/// dependency cycle. The gate must reject the splice, say why, and the
/// light sweep it falls back to must leave a clean fabric — at fewer SMPs
/// than the neighbouring uplink's accepted repair, so nothing is lost but
/// the wall time. (The same thing happens on leaf port 36 of the 5832-node
/// tree; fixing the sticky pick is a ROADMAP item.)
#[test]
fn a_leafs_last_uplink_down_is_rejected_by_the_gate_and_swept_clean() {
    let config = SmConfig {
        engine: EngineKind::FatTree,
        repair: true,
        verify: true,
        ..SmConfig::default()
    };
    let run = |port: u8| {
        let (mut t, mut sm) = bring_up(three_level(4, 4, 4, 4), config);
        let leaf = t.switch_levels[0][1];
        let report = down_and_trap(&mut t, &mut sm, leaf, PortNum::new(port));
        assert!(report.failed_blocks.is_empty());
        assert_converged(&t, &sm, &format!("leaf-0-1 port {port}"));
        let snap = sm.observer().snapshot().expect("metrics on");
        (report, snap)
    };

    let (last, snap) = run(8);
    assert_eq!(last.kind, SweepKind::Light, "the gate rejected the splice");
    assert_eq!(snap.counter("repair.attempts"), 1);
    assert_eq!(snap.counter("repair.verify_rejected"), 1);
    assert_eq!(snap.counter("repair.verify_rejected.deadlock-cycle"), 1);
    assert_eq!(snap.counter("repair.fallback.fat-tree"), 1);
    assert_eq!(snap.counter("repair.success"), 0);

    let (neighbour, snap) = run(7);
    assert_eq!(neighbour.kind, SweepKind::Repair);
    assert_eq!(snap.counter("repair.verify_rejected"), 0);
    assert_eq!(snap.counter("repair.success"), 1);
    assert!(last.distribution.lft_smps > 0);
    assert!(last.distribution.lft_smps <= neighbour.distribution.lft_smps);
}

/// Three-level fabrics in tier-1: on `three_level(6,6,6,6)` (216 hosts,
/// 108 switches) the tree-shaped engines bring up clean, answer a mid-core
/// and a leaf-mid link-down with a `Repair` sweep no costlier than the
/// full sweep of a twin fabric, and stay verifier-clean with a faithful
/// route index after the repair and after the link-up heal.
#[test]
fn three_level_fabrics_repair_and_heal_clean() {
    for engine in [EngineKind::FatTree, EngineKind::MinHop, EngineKind::UpDown] {
        let config = |repair| SmConfig {
            engine,
            repair,
            verify: true,
            ..SmConfig::default()
        };
        // (level, switch within the level, port): a mid's first core
        // uplink and a leaf's first mid uplink.
        for (level, port) in [(1usize, 7u8), (0, 7)] {
            let tag = format!("{} level {level}", engine.name());
            let port = PortNum::new(port);
            let (mut t, mut sm) = bring_up(three_level(6, 6, 6, 6), config(true));
            assert_converged(&t, &sm, &tag);
            let node = t.switch_levels[level][2];
            let remote = t.subnet.neighbor(node, port).expect("cabled");
            assert!(t.subnet.node(remote.node).is_physical_switch(), "{tag}");

            let repair = down_and_trap(&mut t, &mut sm, node, port);
            assert_eq!(repair.kind, SweepKind::Repair, "{tag}");
            assert!(repair.failed_blocks.is_empty(), "{tag}");
            assert_converged(&t, &sm, &format!("{tag} repaired"));

            let (mut twin, mut twin_sm) = bring_up(three_level(6, 6, 6, 6), config(false));
            let full = down_and_trap(&mut twin, &mut twin_sm, node, port);
            assert_eq!(full.kind, SweepKind::Light, "{tag}");
            assert!(
                repair.distribution.lft_smps <= full.distribution.lft_smps,
                "{tag}: repair {} vs full {} SMPs",
                repair.distribution.lft_smps,
                full.distribution.lft_smps
            );

            t.subnet.set_link_up(node, port).expect("link up");
            let heal = answer_trap(&mut t, &mut sm, node, port);
            assert_eq!(heal.kind, SweepKind::Repair, "{tag}");
            assert_eq!(
                heal.distribution.lft_smps, repair.distribution.lft_smps,
                "{tag}: the heal sends back what the repair sent"
            );
            assert_converged(&t, &sm, &format!("{tag} healed"));
            let snap = sm.observer().snapshot().expect("metrics on");
            assert_eq!(snap.counter("repair.success"), 1, "{tag}");
            assert_eq!(snap.counter("repair.heal_debt"), 1, "{tag}");
            assert_eq!(snap.counter("repair.fallback"), 0, "{tag}");
        }
    }
}

/// Dynamic LID assignment writes a whole new column at `create_vm` with
/// direct LFT SMPs, outside any sweep. The SM must hear of those cells: a
/// repair sends blocks built from its baseline, so a baseline that never
/// learned the VM's LID would black-hole it on every switch the repair
/// touches (the gate, which walks every cell the sent blocks moved, would
/// then reject the repair into a full sweep).
#[test]
fn a_vm_created_under_dynamic_lids_survives_the_next_repair() {
    let mut dc = DataCenter::from_topology_observed(
        two_level(3, 3, 2),
        DataCenterConfig {
            arch: VirtArch::VSwitchDynamic,
            vfs_per_hypervisor: 2,
            ..DataCenterConfig::default()
        },
        Observer::metrics(),
    )
    .expect("bring-up");
    dc.sm.set_repair(true);
    let vm = dc.create_vm("vm", 4).expect("create");
    let lid = dc.vm(vm).expect("vm").lid;
    assert_eq!(
        dc.sm.verify_route_index(&dc.subnet),
        Vec::<String>::new(),
        "the index learned the new column"
    );

    // Down the uplink the SM's own leaf forwards the VM's LID over.
    let leaf = dc.hypervisors[0].leaf;
    let uplink = dc.subnet.lft(leaf).and_then(|l| l.get(lid)).expect("row");
    let peer = dc.subnet.neighbor(leaf, uplink).expect("cabled").node;
    assert!(dc.subnet.node(peer).is_physical_switch());
    dc.subnet.set_link_down(leaf, uplink).expect("link down");
    let mut transport = SmpTransport::perfect(dc.sm.sm_node);
    let trap = Trap::LinkStateChange {
        node: leaf,
        port: uplink,
    };
    let report = dc
        .sm
        .handle_trap(&mut dc.subnet, trap, &mut transport)
        .expect("trap handled");

    assert_eq!(report.kind, SweepKind::Repair);
    let snap = dc.sm.observer().snapshot().expect("metrics on");
    assert_eq!(snap.counter("repair.success"), 1);
    // No verifier pass — bring-up audit or repair gate — saw a violation.
    assert_eq!(snap.counter("verify.violations"), 0);
    let vls = dc.sm.installed_vls().expect("tables installed");
    let verdict = FabricVerifier::new()
        .verify_with_vls(&dc.subnet, vls)
        .expect("verifier");
    assert!(verdict.is_clean(), "{verdict}");
    assert_eq!(dc.sm.verify_route_index(&dc.subnet), Vec::<String>::new());
    dc.verify_connectivity().expect("the VM stays reachable");
}

/// A migration between gated repairs: its cells move the SM's repair
/// baseline and reverse index, but drop the carried channel dependency
/// graph (`ChannelDeps::patch` cannot follow a LID that moved leaves). The
/// first gate after it rebuilds the graph once (`verify.full_deps.no-state`)
/// and the gate after that patches again.
#[test]
fn a_migration_between_gated_repairs_drops_only_the_dependency_graph() {
    let t = two_level(3, 3, 3);
    let (leaves, spines) = (t.switch_levels[0].clone(), t.switch_levels[1].clone());
    let mut dc = DataCenter::from_topology_observed(
        t,
        DataCenterConfig {
            engine: EngineKind::UpDown,
            verify: true,
            ..DataCenterConfig::default()
        },
        Observer::metrics(),
    )
    .expect("bring-up");
    dc.sm.set_repair(true);
    let counter = |dc: &DataCenter, name: &str| {
        let snap = dc.sm.observer().snapshot().expect("metrics on");
        snap.counter(name)
    };
    let full_deps = |dc: &DataCenter| {
        ["no-state", "topology", "vls", "split"]
            .map(|reason| counter(dc, &format!("verify.full_deps.{reason}")))
    };
    let carried_is_installed = |dc: &DataCenter| {
        let vls = dc.sm.installed_vls().expect("tables");
        let fresh = FabricVerifier::new()
            .channel_deps(&dc.subnet, vls)
            .expect("rebuild");
        dc.sm.channel_deps() == Some(&fresh)
    };
    let repair = |dc: &mut DataCenter, leaf: usize, spine: usize| {
        let node = leaves[leaf];
        let (port, _) = dc
            .subnet
            .node(node)
            .connected_ports()
            .find(|(_, r)| r.node == spines[spine])
            .expect("uplink");
        dc.subnet.set_link_down(node, port).expect("link down");
        let mut transport = SmpTransport::perfect(dc.sm.sm_node);
        let trap = Trap::LinkStateChange { node, port };
        let (cells, delta) = (
            counter(dc, "repair.changed_cells"),
            counter(dc, "verify.delta_cells"),
        );
        let report = dc
            .sm
            .handle_trap(&mut dc.subnet, trap, &mut transport)
            .expect("trap handled");
        assert_eq!(report.kind, SweepKind::Repair);
        // The sent blocks moved exactly the engine's cells: a baseline that
        // missed a migrated cell in one of them would have reverted it.
        assert_eq!(
            counter(dc, "verify.delta_cells") - delta,
            counter(dc, "repair.changed_cells") - cells
        );
        assert!(
            carried_is_installed(dc),
            "the gate's graph is the installed rows'"
        );
        assert_eq!(dc.sm.verify_route_index(&dc.subnet), Vec::<String>::new());
    };

    repair(&mut dc, 0, 0);
    assert_eq!(
        full_deps(&dc),
        [0; 4],
        "the bring-up audit's graph is patched"
    );

    let vm = dc.create_vm("vm", 1).expect("create");
    let moved = dc.migrate_vm(vm, 7).expect("migrate");
    assert!(moved.committed);
    assert!(counter(&dc, "migration.changed_cells") > 0);
    assert_eq!(dc.sm.verify_route_index(&dc.subnet), Vec::<String>::new());
    assert!(
        dc.sm.channel_deps().is_none(),
        "a migration drops the graph"
    );

    repair(&mut dc, 1, 1);
    assert_eq!(
        full_deps(&dc),
        [1, 0, 0, 0],
        "one rebuild, for want of state"
    );
    let patched = counter(&dc, "verify.cdg_patched_cells");
    repair(&mut dc, 2, 2);
    assert_eq!(full_deps(&dc), [1, 0, 0, 0], "the next gate patches");
    assert!(counter(&dc, "verify.cdg_patched_cells") > patched);
    assert_eq!(counter(&dc, "repair.success"), 3);
    dc.verify_connectivity().expect("every VM reachable");
}
