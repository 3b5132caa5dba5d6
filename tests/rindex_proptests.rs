//! Property-style tests over the reverse route index: after random
//! sequences of connectivity-preserving link faults (answered by the
//! incremental repair sweep), link restorations, VM creations and
//! destructions, live migrations (committed and rolled back), and full
//! sweeps, the index must agree with the two-row fabric scan
//! ([`ib_verify::affected_destinations`]) for **every** (switch, port) —
//! on the paper's 324-node fat tree under every tree engine and on a
//! wrapped torus under the VL-layering engines.
//!
//! Originally written with `proptest`; the offline build environment
//! cannot fetch it, so these are seeded randomized tests driven by the
//! vendored `rand` stub.

use ib_core::{DataCenter, DataCenterConfig, VirtArch, VmId};
use ib_mad::{LossyChannel, SmpTransport};
use ib_routing::EngineKind;
use ib_sm::{SmConfig, SubnetManager, Trap};
use ib_subnet::topology::fattree::paper_324;
use ib_subnet::topology::torus::torus_2d;
use ib_subnet::{NodeId, Subnet};
use ib_types::PortNum;
use ib_verify::affected_destinations;
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

/// All (switch, cabled port) pairs of the live fabric.
fn switch_ports(subnet: &Subnet) -> Vec<(NodeId, PortNum)> {
    subnet
        .physical_switches()
        .flat_map(|sw| sw.cabled_ports().map(move |(p, _)| (sw.id, p)))
        .collect()
}

/// The full property: the index's answer equals the two-row scan at
/// `pairs`, and the index as a whole mirrors the installed tables.
fn assert_index_matches_scan(sm: &SubnetManager, subnet: &Subnet, pairs: &[(NodeId, PortNum)]) {
    let mismatches = sm.verify_route_index(subnet);
    assert!(mismatches.is_empty(), "index drifted: {mismatches:?}");
    let idx = sm
        .route_index()
        .expect("index stays live across converged sweeps");
    for &(sw, port) in pairs {
        assert_eq!(
            idx.affected(subnet, sw, port),
            affected_destinations(subnet, sw, port),
            "index vs scan at ({sw:?}, {port})"
        );
    }
}

/// A seeded sample of (switch, port) pairs for the per-event spot check;
/// the full all-pairs sweep runs once per sequence at the end.
fn sample_pairs(rng: &mut StdRng, all: &[(NodeId, PortNum)], n: usize) -> Vec<(NodeId, PortNum)> {
    (0..n).map(|_| all[rng.gen_range(0..all.len())]).collect()
}

/// The tree arm: a virtualized 324-node fat tree under each tree-capable
/// engine and both vSwitch architectures, driven through random link-downs
/// (repair sweeps), link-ups (fold-back sweeps), VM creations and
/// destructions, live migrations — over the assumed channel and as explicit
/// transactions, committed and rolled back, one racing a link fault the SM
/// has not heard of yet — all of which edit installed columns outside any
/// sweep and must reach the SM as the exact list of changed cells, and plain
/// light sweeps.
#[test]
fn index_tracks_random_event_sequences_on_the_324_tree() {
    let archs = [VirtArch::VSwitchPrepopulated, VirtArch::VSwitchDynamic];
    for engine in [EngineKind::FatTree, EngineKind::MinHop, EngineKind::UpDown] {
        for (arch, seed) in archs.into_iter().flat_map(|a| [(a, 11u64), (a, 42)]) {
            let mut dc = DataCenter::from_topology(
                paper_324(),
                DataCenterConfig {
                    arch,
                    engine,
                    ..DataCenterConfig::default()
                },
            )
            .expect("bring-up");
            dc.sm.set_repair(true);
            let hyps = dc.hypervisors.len();
            let mut vms: Vec<_> = (0..3)
                .map(|i| {
                    dc.create_vm(format!("vm{i}"), i * 7 % hyps)
                        .expect("create")
                })
                .collect();

            let links = core_links(&dc.subnet);
            let all_pairs = switch_ports(&dc.subnet);
            let mut rng = StdRng::seed_from_u64(seed ^ engine.name().len() as u64);
            let mut transport = SmpTransport::perfect(dc.sm.sm_node);
            let mut downed: Vec<(NodeId, PortNum)> = Vec::new();

            for event in 0..12 {
                let tag = format!("{} {arch} seed {seed} event {event}", engine.name());
                match rng.gen_range(0..8u8) {
                    // Connectivity-preserving link-down, answered by the
                    // incremental repair sweep.
                    0 => {
                        let cands = safe_to_down(&dc.subnet, &links);
                        if cands.is_empty() {
                            continue;
                        }
                        let (a, p, _) = cands[rng.gen_range(0..cands.len())];
                        dc.subnet.set_link_down(a, p).expect("down");
                        dc.sm
                            .handle_trap(
                                &mut dc.subnet,
                                Trap::LinkStateChange { node: a, port: p },
                                &mut transport,
                            )
                            .expect("repair");
                        downed.push((a, p));
                    }
                    // A downed link comes back: fold-back light sweep.
                    1 => {
                        let Some(i) = (!downed.is_empty()).then(|| rng.gen_range(0..downed.len()))
                        else {
                            continue;
                        };
                        let (a, p) = downed.swap_remove(i);
                        dc.subnet.set_link_up(a, p).expect("up");
                        dc.sm
                            .handle_trap(
                                &mut dc.subnet,
                                Trap::LinkStateChange { node: a, port: p },
                                &mut transport,
                            )
                            .expect("fold-back");
                    }
                    // Live migration: LID swap/copy edits installed
                    // columns behind the SM's routing pass.
                    2 => {
                        let vm = vms[rng.gen_range(0..vms.len())];
                        let dest = other_hypervisor(&mut rng, &dc, vm);
                        dc.migrate_vm(vm, dest).expect("migrate");
                    }
                    // The same move as a transaction: over a perfect
                    // channel it commits; into a black hole it rolls back
                    // and must leave index and baseline as they were.
                    3 => {
                        let vm = vms[rng.gen_range(0..vms.len())];
                        let dest = other_hypervisor(&mut rng, &dc, vm);
                        let committed = if rng.gen_bool(0.5) {
                            dc.migrate_vm_resilient(vm, dest, &mut transport)
                        } else {
                            let mut void = SmpTransport::with_channel(
                                dc.sm.sm_node,
                                LossyChannel::black_hole(),
                            );
                            void.retry.max_attempts = 1;
                            dc.migrate_vm_resilient(vm, dest, &mut void)
                        }
                        .expect("resilient migrate")
                        .committed;
                        let now = dc.vm(vm).expect("vm").hypervisor;
                        assert_eq!(now == dest, committed, "{tag}");
                    }
                    // A migration races a link fault: the link is down but
                    // its trap has not arrived, so the pass runs on stale
                    // tables and must still leave index == scan — before
                    // the late trap's repair and after it.
                    6 => {
                        let cands = safe_to_down(&dc.subnet, &links);
                        if cands.is_empty() {
                            continue;
                        }
                        let (a, p, _) = cands[rng.gen_range(0..cands.len())];
                        dc.subnet.set_link_down(a, p).expect("down");
                        let vm = vms[rng.gen_range(0..vms.len())];
                        let dest = other_hypervisor(&mut rng, &dc, vm);
                        dc.migrate_vm(vm, dest).expect("migrate, unswept fault");
                        let spots = sample_pairs(&mut rng, &all_pairs, 8);
                        assert_index_matches_scan(&dc.sm, &dc.subnet, &spots);
                        dc.sm
                            .handle_trap(
                                &mut dc.subnet,
                                Trap::LinkStateChange { node: a, port: p },
                                &mut transport,
                            )
                            .expect("late repair");
                        downed.push((a, p));
                    }
                    // A VM boots: under dynamic assignment a whole new
                    // column is written with direct SMPs.
                    4 => {
                        let hyp = rng.gen_range(0..hyps);
                        if dc.hypervisors[hyp].free_slot().is_some() {
                            let name = format!("vm{}", dc.num_vms() + event);
                            vms.push(dc.create_vm(name, hyp).expect("create"));
                        }
                    }
                    // A VM shuts down (its rows stay behind, unregistered).
                    5 => {
                        if vms.len() > 1 {
                            let vm = vms.swap_remove(rng.gen_range(0..vms.len()));
                            dc.destroy_vm(vm).expect("destroy");
                        }
                    }
                    // A routine full sweep rebuilds the index outright.
                    _ => {
                        dc.sm
                            .light_sweep(&mut dc.subnet, &mut transport)
                            .expect("light sweep");
                    }
                }
                let spots = sample_pairs(&mut rng, &all_pairs, 8);
                assert_index_matches_scan(&dc.sm, &dc.subnet, &spots);
            }
            assert_index_matches_scan(&dc.sm, &dc.subnet, &all_pairs);
            dc.verify_connectivity().expect("every VM reachable");
        }
    }
}

/// A hypervisor other than the one `vm` runs on, with a free VF.
fn other_hypervisor(rng: &mut StdRng, dc: &DataCenter, vm: VmId) -> usize {
    let cur = dc.vm(vm).expect("vm").hypervisor;
    let hyps = dc.hypervisors.len();
    loop {
        let dest = (cur + 1 + rng.gen_range(0..hyps - 1)) % hyps;
        if dc.hypervisors[dest].free_slot().is_some() {
            return dest;
        }
    }
}

/// The torus arm: the VL-layering engines on a wrapped 4x4 torus, bare
/// SM, link-downs (both DFSSSP and LASH repair incrementally, so the
/// index advances by per-column splices), link-ups, and light sweeps.
#[test]
fn index_tracks_random_event_sequences_on_a_torus() {
    for engine in [EngineKind::Dfsssp, EngineKind::Lash] {
        for seed in [7u64, 23] {
            let mut t = torus_2d(4, 4, 1, true);
            let mut sm = SubnetManager::new(
                t.hosts[0],
                SmConfig {
                    engine,
                    repair: true,
                    ..SmConfig::default()
                },
            );
            sm.bring_up(&mut t.subnet).expect("bring-up");
            let links = core_links(&t.subnet);
            let all_pairs = switch_ports(&t.subnet);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut transport = SmpTransport::perfect(sm.sm_node);
            let mut downed: Vec<(NodeId, PortNum)> = Vec::new();

            for _ in 0..12 {
                match rng.gen_range(0..3u8) {
                    0 => {
                        let cands = safe_to_down(&t.subnet, &links);
                        if cands.is_empty() {
                            continue;
                        }
                        let (a, p, _) = cands[rng.gen_range(0..cands.len())];
                        t.subnet.set_link_down(a, p).expect("down");
                        sm.handle_trap(
                            &mut t.subnet,
                            Trap::LinkStateChange { node: a, port: p },
                            &mut transport,
                        )
                        .expect("repair");
                        downed.push((a, p));
                    }
                    1 => {
                        let Some(i) = (!downed.is_empty()).then(|| rng.gen_range(0..downed.len()))
                        else {
                            continue;
                        };
                        let (a, p) = downed.swap_remove(i);
                        t.subnet.set_link_up(a, p).expect("up");
                        sm.handle_trap(
                            &mut t.subnet,
                            Trap::LinkStateChange { node: a, port: p },
                            &mut transport,
                        )
                        .expect("fold-back");
                    }
                    _ => {
                        sm.light_sweep(&mut t.subnet, &mut transport)
                            .expect("light sweep");
                    }
                }
                let spots = sample_pairs(&mut rng, &all_pairs, 8);
                assert_index_matches_scan(&sm, &t.subnet, &spots);
            }
            assert_index_matches_scan(&sm, &t.subnet, &all_pairs);
        }
    }
}
