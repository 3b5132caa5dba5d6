//! Property-style tests over the fabric invariant verifier: fault-free
//! sweeps by every routing engine must verify clean on the paper's
//! topologies, and deliberately corrupted LFT entries must be caught in
//! the right invariant class no matter where the corruption lands.
//!
//! Originally written with `proptest`; the offline build environment cannot
//! fetch it, so these are seeded randomized tests driven by the vendored
//! `rand` stub.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ib_core::migration::{swap_on_fabric, MigrationOptions};
use ib_mad::{RouteTree, SmpLedger, SmpTransport};
use std::collections::HashSet;

use ib_routing::cdg::{Cdg, Channel};
use ib_routing::testutil::{assign_lids, host_lid};
use ib_routing::{EngineKind, RoutingTables, SwitchGraph, VlAssignment};
use ib_sm::{SmConfig, SubnetManager};
use ib_subnet::topology::fattree::{self, three_level, two_level};
use ib_subnet::topology::torus::torus_2d;
use ib_subnet::topology::BuiltTopology;
use ib_subnet::{NodeId, Subnet};
use ib_types::{Lid, PortNum};
use ib_verify::{FabricVerifier, InvariantClass, LftSnapshot};

/// Computes and installs `engine`'s tables on `t`, returning the VL
/// layering for the verifier.
fn install(t: &mut BuiltTopology, engine: EngineKind) -> ib_routing::VlAssignment {
    assign_lids(t);
    let tables = engine.build().compute(&t.subnet).unwrap();
    tables.install(&mut t.subnet).unwrap();
    tables.vls
}

/// A managed min-hop fat tree for the corruption tests: LIDs assigned,
/// tables computed and installed.
fn minhop_fabric(leaves: usize, hosts_per_leaf: usize, spines: usize) -> BuiltTopology {
    let mut t = two_level(leaves, hosts_per_leaf, spines);
    install(&mut t, EngineKind::MinHop);
    t
}

// ---------------------------------------------------------------------
// Fault-free sweeps verify clean
// ---------------------------------------------------------------------

/// Every routing engine's fault-free tables on the paper's 324-node and
/// 648-node fat trees verify fully clean — black holes, forwarding
/// loops, addressing, *and* the per-lane CDG check.
///
/// Min-Hop and the fat-tree engine used to trip the deadlock invariant
/// here: spine-to-spine (switch LID) routes on a two-level tree must
/// descend and re-ascend — a valley — and neither engine made a VL
/// provision for that management traffic. Both now route switch-destined
/// columns up*/down*-legally on a dedicated lane, so all five engines
/// pass the full check.
#[test]
fn all_engines_verify_clean_on_paper_fat_trees() {
    let deadlock_free = EngineKind::all();
    for build in [
        fattree::paper_324 as fn() -> BuiltTopology,
        fattree::paper_648,
    ] {
        for engine in EngineKind::all() {
            let mut t = build();
            let vls = install(&mut t, engine);
            let report = FabricVerifier::new()
                .verify_with_vls(&t.subnet, &vls)
                .unwrap();
            let tag = format!("{} on {}", engine.name(), t.name);
            assert_eq!(
                report.count(InvariantClass::BlackHole),
                0,
                "{tag}: {report}"
            );
            assert_eq!(
                report.count(InvariantClass::ForwardingLoop),
                0,
                "{tag}: {report}"
            );
            assert_eq!(
                report.count(InvariantClass::Addressing),
                0,
                "{tag}: {report}"
            );
            if deadlock_free.contains(&engine) {
                assert!(report.is_clean(), "{tag}: {report}");
            }
            assert_eq!(report.switches, t.switch_levels.iter().map(Vec::len).sum());
        }
    }
}

/// The SM's own sweep-time verification gate (`SmConfig.verify`) passes
/// for every engine on a fault-free fat tree — bring-up succeeds instead
/// of erroring out. (The fat-tree engine's spine-to-spine valley used to
/// be rejected here; its switch-destined columns now ride a dedicated
/// up*/down*-legal lane. The gate's rejection path is exercised by
/// `minhop_on_wrapped_tori_always_trips_the_deadlock_invariant` below.)
#[test]
fn sm_sweep_verify_gate_passes_for_deadlock_free_engines() {
    for engine in EngineKind::all() {
        let mut t = two_level(4, 3, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                engine,
                verify: true,
                ..SmConfig::default()
            },
        );
        let report = sm.bring_up(&mut t.subnet).unwrap();
        assert_eq!(report.engine, engine.name());
    }
}

/// The deadlock-free engines verify clean on wrapped tori of random shape,
/// using the VL layering each engine produced.
#[test]
fn deadlock_free_engines_verify_clean_on_random_tori() {
    let mut rng = StdRng::seed_from_u64(0xFB_01);
    for _ in 0..6 {
        let rows = rng.gen_range(3usize..6);
        let cols = rng.gen_range(3usize..6);
        for engine in [EngineKind::UpDown, EngineKind::Dfsssp, EngineKind::Lash] {
            let mut t = torus_2d(rows, cols, 1, true);
            let vls = install(&mut t, engine);
            let report = FabricVerifier::new()
                .verify_with_vls(&t.subnet, &vls)
                .unwrap();
            assert!(
                report.is_clean(),
                "{} on {rows}x{cols} torus: {report}",
                engine.name()
            );
        }
    }
}

/// Min-hop on a wrapped torus is the canonical single-VL deadlock: the
/// verifier must report a CDG cycle (and nothing else), for any torus
/// shape, while the relaxed check stays clean.
#[test]
fn minhop_on_wrapped_tori_always_trips_the_deadlock_invariant() {
    let mut rng = StdRng::seed_from_u64(0xFB_02);
    for _ in 0..6 {
        let rows = rng.gen_range(4usize..7);
        let cols = rng.gen_range(4usize..7);
        let mut t = torus_2d(rows, cols, 1, true);
        install(&mut t, EngineKind::MinHop);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(
            report.count(InvariantClass::DeadlockCycle) >= 1,
            "{rows}x{cols}: {report}"
        );
        assert_eq!(report.count(InvariantClass::BlackHole), 0);
        assert_eq!(report.count(InvariantClass::ForwardingLoop), 0);
        let relaxed = FabricVerifier::new()
            .with_deadlock(false)
            .verify(&t.subnet)
            .unwrap();
        assert!(relaxed.is_clean(), "{relaxed}");
    }
    // And the SM's sweep gate refuses to install such tables at all.
    let mut t = torus_2d(4, 4, 1, true);
    let mut sm = SubnetManager::new(
        t.hosts[0],
        SmConfig {
            engine: EngineKind::MinHop,
            verify: true,
            ..SmConfig::default()
        },
    );
    let err = sm.bring_up(&mut t.subnet).unwrap_err();
    assert!(
        err.to_string().contains("deadlock-cycle"),
        "unexpected error: {err}"
    );
}

// ---------------------------------------------------------------------
// Corrupted tables are caught, wherever the corruption lands
// ---------------------------------------------------------------------

/// Misrouting a random victim's row on its own leaf to a neighbor host is
/// always caught as a black hole (wrong-endpoint delivery).
#[test]
fn random_misroutes_are_black_holes() {
    let mut rng = StdRng::seed_from_u64(0xFB_03);
    for _ in 0..12 {
        let mut t = minhop_fabric(4, 3, 2);
        let victim_host = rng.gen_range(0usize..t.hosts.len());
        let victim = host_lid(&t, victim_host);
        // The victim's leaf, and a port on it leading to a *different* host.
        let leaf = t.switch_levels[0][victim_host / 3];
        let (wrong_port, _) = t
            .subnet
            .node(leaf)
            .connected_ports()
            .find(|(_, r)| r.node != t.hosts[victim_host] && t.subnet.node(r.node).is_hca())
            .expect("leaf has another host");
        t.subnet.lft_mut(leaf).unwrap().set(victim, wrong_port);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(
            report.count(InvariantClass::BlackHole) >= 1,
            "host {victim_host}: {report}"
        );
        assert!(report.summary().contains("wrong endpoint"));
    }
}

/// Cross-pointing a random (leaf, spine) pair's rows for a victim hosted
/// elsewhere is always caught as a forwarding loop.
#[test]
fn random_cross_pointing_rows_are_forwarding_loops() {
    let mut rng = StdRng::seed_from_u64(0xFB_04);
    for _ in 0..12 {
        let mut t = minhop_fabric(4, 2, 3);
        // Victim lives on leaf 0; corrupt a different leaf so the loop
        // sits on the far side of the fabric from the endpoint.
        let victim = host_lid(&t, rng.gen_range(0usize..2));
        let leaf = t.switch_levels[0][rng.gen_range(1usize..4)];
        let spine = t.switch_levels[1][rng.gen_range(0usize..3)];
        let (to_spine, _) = t
            .subnet
            .node(leaf)
            .connected_ports()
            .find(|(_, r)| r.node == spine)
            .expect("leaf-spine cable");
        let (to_leaf, _) = t
            .subnet
            .node(spine)
            .connected_ports()
            .find(|(_, r)| r.node == leaf)
            .expect("spine-leaf cable");
        t.subnet.lft_mut(leaf).unwrap().set(victim, to_spine);
        t.subnet.lft_mut(spine).unwrap().set(victim, to_leaf);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(
            report.count(InvariantClass::ForwardingLoop) >= 1,
            "{report}"
        );
    }
}

/// Dropping a random victim's row from its own leaf is always caught as a
/// black hole (missing row), and an explicit drop entry likewise.
#[test]
fn random_dropped_rows_are_black_holes() {
    let mut rng = StdRng::seed_from_u64(0xFB_05);
    for round in 0..12 {
        let mut t = minhop_fabric(4, 3, 2);
        let victim_host = rng.gen_range(0usize..t.hosts.len());
        let victim = host_lid(&t, victim_host);
        let leaf = t.switch_levels[0][victim_host / 3];
        if round % 2 == 0 {
            t.subnet.lft_mut(leaf).unwrap().clear(victim);
        } else {
            t.subnet
                .lft_mut(leaf)
                .unwrap()
                .set(victim, ib_types::PortNum::DROP);
        }
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(
            report.count(InvariantClass::BlackHole) >= 1,
            "host {victim_host}: {report}"
        );
        assert_eq!(report.count(InvariantClass::ForwardingLoop), 0);
    }
}

// ---------------------------------------------------------------------
// Algorithm-1 locality: a swap touches exactly the two swapped columns
// ---------------------------------------------------------------------

/// §V-C's locality claim as a property: a LID swap between two random
/// hosts changes the forwarding columns of exactly those two LIDs — every
/// uninvolved column is byte-identical — and swapping back restores the
/// original fingerprint of the whole fabric.
#[test]
fn algorithm1_swap_touches_only_the_swapped_columns() {
    let mut rng = StdRng::seed_from_u64(0xFB_06);
    for _ in 0..8 {
        let mut t = minhop_fabric(4, 3, 2);
        let tree = RouteTree::build(&t.subnet, t.hosts[0]);
        // Two hosts on different leaves, so their rows genuinely differ
        // somewhere and the swap is not a no-op.
        let ha = rng.gen_range(0usize..3);
        let hb = 3 + rng.gen_range(0usize..9);
        let (a, b) = (host_lid(&t, ha), host_lid(&t, hb));
        let opts = MigrationOptions::default();
        let mut ledger = SmpLedger::new();

        let before = LftSnapshot::capture(&t.subnet);
        swap_on_fabric(
            &mut t.subnet,
            &tree,
            a,
            b,
            &opts,
            None,
            &mut SmpTransport::assumed(t.hosts[0]),
            &mut ledger,
        )
        .unwrap();
        let after = LftSnapshot::capture(&t.subnet);

        let changed = before.diff(&after);
        assert_eq!(changed, vec![a.raw().min(b.raw()), a.raw().max(b.raw())]);
        assert!(before.verify_preserved(&after, &[a, b]).is_empty());
        let violations = before.verify_preserved(&after, &[]);
        assert_eq!(violations.len(), 2);
        assert!(violations
            .iter()
            .all(|v| v.class == InvariantClass::Addressing));

        // Swap back: the fabric fingerprint is restored exactly.
        swap_on_fabric(
            &mut t.subnet,
            &tree,
            a,
            b,
            &opts,
            None,
            &mut SmpTransport::assumed(t.hosts[0]),
            &mut ledger,
        )
        .unwrap();
        let restored = LftSnapshot::capture(&t.subnet);
        assert!(before.diff(&restored).is_empty());
    }
}

// ---------------------------------------------------------------------
// The verifier's flat kernels against an oracle built from public APIs
// ---------------------------------------------------------------------

/// Every channel dependency the installed tables induce, as
/// `(lane, held, wanted)`, read cell by cell through `Subnet::neighbor`.
/// Destination-granular lanes take the (cell, next cell) pair of every
/// switch; path-granular ones the whole walk of each source.
fn dependencies(
    subnet: &Subnet,
    g: &SwitchGraph,
    vls: &VlAssignment,
) -> HashSet<(u8, Channel, Channel)> {
    let per_path = matches!(
        vls,
        VlAssignment::PerSwitchPair(_) | VlAssignment::PerSourceDestination(_)
    );
    let mut deps = HashSet::new();
    for dest in g.destinations() {
        let channel = |s: usize| {
            let sw = g.node_id(s);
            let port = subnet.lft(sw)?.get(dest.lid)?;
            let far = g.index(subnet.neighbor(sw, port)?.node)?;
            Some(((s as u32, port.raw()), far))
        };
        for src in (0..g.len()).filter(|&s| !per_path || s != dest.switch) {
            let lane = vls.lane_for(src as u32, dest.switch as u32, dest.lid).raw();
            let (mut cur, mut held) = (src, None);
            for _ in 0..if per_path { 64 } else { 2 } {
                let Some((wanted, far)) = channel(cur) else {
                    break;
                };
                if let Some(held) = held {
                    deps.insert((lane, held, wanted));
                }
                (cur, held) = (far, Some(wanted));
                if per_path && cur == dest.switch {
                    break;
                }
            }
        }
    }
    deps
}

/// What the verifier must report as `(class, lid)`, derived the slow way:
/// one `Subnet::neighbor` walk per (switch, LID) cell for invariants 1 + 2,
/// and a `Cdg` with every lane for invariant 3.
fn oracle(subnet: &Subnet, vls: &VlAssignment) -> Vec<(InvariantClass, Option<Lid>)> {
    let g = SwitchGraph::build(subnet).unwrap();
    let comps = g.components();
    let mut out = Vec::new();
    for dest in g.destinations() {
        let lid = dest.lid;
        let target = subnet.endpoint_of(lid).unwrap().node;
        let row = |s: usize| subnet.lft(g.node_id(s)).and_then(|lft| lft.get(lid));
        // Ok(None) delivers, Ok(Some(j)) forwards to switch j, Err drops.
        let cell = |s: usize| -> Result<Option<usize>, ()> {
            if g.node_id(s) == target {
                return Ok(None);
            }
            let port = row(s).filter(|p| !p.is_drop() && !p.is_management());
            let far = subnet.neighbor(g.node_id(s), port.ok_or(())?).ok_or(())?;
            if far.node == target {
                return Ok(None);
            }
            g.index(far.node).map(Some).ok_or(())
        };
        let mut walked_by = vec![usize::MAX; g.len()];
        for s in 0..g.len() {
            if !comps.same(s, dest.switch) {
                if row(s).is_some_and(|p| !p.is_drop()) {
                    out.push((InvariantClass::StaleRoute, Some(lid)));
                }
                continue;
            }
            if cell(s).is_err() {
                out.push((InvariantClass::BlackHole, Some(lid)));
            }
            // A forwarding cycle counts once: for the walk that closes it.
            let mut cur = s;
            let closes_a_cycle = loop {
                if walked_by[cur] != usize::MAX {
                    break walked_by[cur] == s;
                }
                walked_by[cur] = s;
                match cell(cur) {
                    Ok(Some(next)) => cur = next,
                    _ => break false,
                }
            };
            if closes_a_cycle {
                out.push((InvariantClass::ForwardingLoop, Some(lid)));
            }
        }
    }
    let tables = RoutingTables::from_installed(subnet);
    let lanes = vls.lanes();
    let mut cdg = Cdg::new(&g, lanes.last().map_or(1, |l| l.raw() as usize + 1));
    match vls {
        VlAssignment::SingleVl | VlAssignment::PerDestination(_) => {
            cdg.add_tables(&g, &tables, |d| {
                Some(vls.lane_for(0, 0, d.lid).raw() as usize)
            });
        }
        _ => {
            for (lane, held, wanted) in dependencies(subnet, &g, vls) {
                cdg.add(lane as usize, held, wanted);
            }
        }
    }
    for lane in lanes {
        if cdg.find_cycle(lane.raw() as usize).is_some() {
            out.push((InvariantClass::DeadlockCycle, None));
        }
    }
    out
}

/// Verifier == oracle as a `(class, lid)` multiset, and every deadlock
/// cycle the verifier names is a genuine one: each consecutive channel
/// pair, and last -> first, is induced by an installed column on that lane.
fn assert_matches_oracle(
    subnet: &Subnet,
    vls: &VlAssignment,
    tag: &str,
    seen: &mut HashSet<&'static str>,
) {
    let report = FabricVerifier::new().verify_with_vls(subnet, vls).unwrap();
    let key = |(class, lid): (InvariantClass, Option<Lid>)| (class.name(), lid.map(Lid::raw));
    let mut got: Vec<_> = report
        .violations
        .iter()
        .map(|v| key((v.class, v.lid)))
        .collect();
    let mut want: Vec<_> = oracle(subnet, vls).into_iter().map(key).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "{tag}: {report}");
    seen.extend(got.iter().map(|&(class, _)| class));

    let g = SwitchGraph::build(subnet).unwrap();
    let deps = dependencies(subnet, &g, vls);
    let by_name = |name: &str| (0..g.len()).find(|&s| subnet.name_of(g.node_id(s)) == name);
    for v in &report.violations {
        if v.class != InvariantClass::DeadlockCycle {
            continue;
        }
        // "VL{lane} channel dependency cycle: name:pN -> name:pN -> ..."
        let (head, chain) = v.detail.split_once(": ").unwrap();
        let lane: u8 = head[2..head.find(' ').unwrap()].parse().unwrap();
        let cycle: Vec<Channel> = chain
            .split(" -> ")
            .map(|hop| {
                let (name, port) = hop.rsplit_once(":p").unwrap();
                (by_name(name).unwrap() as u32, port.parse().unwrap())
            })
            .collect();
        for (i, &held) in cycle.iter().enumerate() {
            let wanted = cycle[(i + 1) % cycle.len()];
            assert!(
                deps.contains(&(lane, held, wanted)),
                "{tag}: {held:?} -> {wanted:?} is not a VL{lane} dependency: {}",
                v.detail
            );
        }
    }
}

/// A random switch-to-switch cable end: `(switch, port, far end)`.
fn random_switch_link(
    t: &BuiltTopology,
    rng: &mut StdRng,
) -> (NodeId, PortNum, ib_subnet::Endpoint) {
    let switches = t.all_switches();
    let sw = switches[rng.gen_range(0..switches.len())];
    let links: Vec<_> = t
        .subnet
        .node(sw)
        .connected_ports()
        .filter(|(_, r)| t.subnet.node(r.node).is_switch())
        .collect();
    let (port, far) = links[rng.gen_range(0..links.len())];
    (sw, port, far)
}

/// Downs every switch-facing port of `sw` (the rows toward it stay).
fn sever(t: &mut BuiltTopology, sw: NodeId) {
    let uplinks: Vec<PortNum> = t
        .subnet
        .node(sw)
        .connected_ports()
        .filter(|(_, r)| t.subnet.node(r.node).is_switch())
        .map(|(p, _)| p)
        .collect();
    for p in uplinks {
        t.subnet.set_link_down(sw, p).unwrap();
    }
}

/// All five engines on the 324 tree, a three-level tree and a 4x4 torus,
/// clean and under seeded corruptions of every kind the verifier
/// classifies: the report equals the oracle's, whatever the lane shape.
#[test]
fn verifier_matches_a_public_api_oracle_clean_and_corrupted() {
    let mut rng = StdRng::seed_from_u64(0xFB_07);
    let mut seen = HashSet::new();
    let fabrics: [fn() -> BuiltTopology; 3] = [
        fattree::paper_324,
        || three_level(4, 4, 4, 4),
        || torus_2d(4, 4, 2, true),
    ];
    for build in fabrics {
        for engine in EngineKind::all() {
            let mut base = build();
            let torus = base.name.starts_with("torus");
            if torus && engine == EngineKind::FatTree {
                continue; // Not a layered tree: the engine refuses it.
            }
            let vls = install(&mut base, engine);
            let tag = |case: &str| format!("{} on {}, {case}", engine.name(), base.name);
            assert_matches_oracle(&base.subnet, &vls, &tag("clean"), &mut seen);
            if torus {
                let single = VlAssignment::SingleVl;
                assert_matches_oracle(
                    &base.subnet,
                    &single,
                    &tag("vls swapped for SingleVl"),
                    &mut seen,
                );
            }
            let victim = host_lid(&base, rng.gen_range(0..base.hosts.len()));
            let leaf = base.leaves()[rng.gen_range(0..base.leaves().len())];

            // Misroute: a host's row on its own leaf points at a sibling.
            let mut t = base.clone();
            let owner = t.subnet.endpoint_of(victim).unwrap().node;
            let edge = t.subnet.neighbor(owner, PortNum::new(1)).unwrap().node;
            let (sibling, _) = (t.subnet.node(edge).connected_ports())
                .find(|(_, r)| r.node != owner && t.subnet.node(r.node).is_hca())
                .unwrap();
            t.subnet.lft_mut(edge).unwrap().set(victim, sibling);
            assert_matches_oracle(&t.subnet, &vls, &tag("misroute"), &mut seen);

            // Cross-pointing rows across one cable.
            let mut t = base.clone();
            let (a, to_b, b) = random_switch_link(&t, &mut rng);
            t.subnet.lft_mut(a).unwrap().set(victim, to_b);
            t.subnet.lft_mut(b.node).unwrap().set(victim, b.port);
            assert_matches_oracle(&t.subnet, &vls, &tag("cross-pointing rows"), &mut seen);

            // A cleared row.
            let mut t = base.clone();
            let (sw, _, _) = random_switch_link(&t, &mut rng);
            t.subnet.lft_mut(sw).unwrap().clear(victim);
            assert_matches_oracle(&t.subnet, &vls, &tag("cleared row"), &mut seen);

            // Rows into a downed port.
            let mut t = base.clone();
            let (sw, port, _) = random_switch_link(&t, &mut rng);
            t.subnet.set_link_down(sw, port).unwrap();
            assert_matches_oracle(&t.subnet, &vls, &tag("downed port"), &mut seen);

            // Stale rows on both sides of a severed leaf.
            let mut t = base.clone();
            sever(&mut t, leaf);
            assert_matches_oracle(&t.subnet, &vls, &tag("severed leaf"), &mut seen);
        }
    }
    // The corruptions exercised every class they can produce.
    for class in [
        "black-hole",
        "forwarding-loop",
        "deadlock-cycle",
        "stale-route",
    ] {
        assert!(seen.contains(class), "no case produced a {class}");
    }
}
