//! Property-style tests over the routing engines: on randomized topologies,
//! every engine must produce fully-reachable tables, and the
//! deadlock-free engines must honor their acyclicity contracts.
//!
//! Originally written with `proptest`; the offline build environment cannot
//! fetch it, so these are seeded randomized tests driven by the vendored
//! `rand` stub.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ib_routing::cdg::Cdg;
use ib_routing::dfsssp::verify_layers_acyclic;
use ib_routing::graph::SwitchGraph;
use ib_routing::lash::verify_pair_layers_acyclic;
use ib_routing::testutil::{assert_full_reachability, assign_lids};
use ib_routing::{EngineKind, RoutingTables, VlAssignment};
use ib_subnet::topology::fattree::two_level;
use ib_subnet::topology::irregular::{irregular, IrregularSpec};
use ib_subnet::topology::torus::torus_2d;
use ib_subnet::Subnet;
use ib_verify::{FabricVerifier, InvariantClass, Violation};

fn engines_for_all_topologies() -> Vec<EngineKind> {
    vec![EngineKind::UpDown, EngineKind::Dfsssp, EngineKind::Lash]
}

/// Installs Min-Hop's `tables` and runs the full verifier, deadlock check
/// on, under the lanes the engine produced: fully reachable, loop-free,
/// and the switch lane (VL1, hub-rooted up*/down*) acyclic. The host lane
/// is plain shortest-path routing, which off a tree may close a VL0 cycle
/// (OpenSM's Min-Hop promises no deadlock freedom either), so a VL0 cycle
/// is the one finding allowed.
fn assert_switch_lane_verified(subnet: &Subnet, tables: &RoutingTables, what: &str) {
    assert!(
        matches!(&tables.vls, VlAssignment::PerDestination(map) if !map.is_empty()),
        "{what}: switch LIDs ride their own lane"
    );
    let mut subnet = subnet.clone();
    tables.install(&mut subnet).unwrap();
    let report = FabricVerifier::new()
        .with_deadlock(true)
        .verify_with_vls(&subnet, &tables.vls)
        .unwrap();
    let host_lane_cycle =
        |v: &Violation| v.class == InvariantClass::DeadlockCycle && v.detail.starts_with("VL0 ");
    assert!(
        report.violations.iter().all(host_lane_cycle),
        "{what}: {}",
        report.summary()
    );
}

/// Every engine routes every random small fat tree completely.
#[test]
fn engines_route_random_fat_trees() {
    let mut rng = StdRng::seed_from_u64(0xF7_01);
    for _ in 0..16 {
        let leaves = rng.gen_range(2usize..5);
        let hosts = rng.gen_range(1usize..4);
        let spines = rng.gen_range(1usize..4);
        for engine in EngineKind::all() {
            let mut t = two_level(leaves, hosts, spines);
            assign_lids(&mut t);
            let tables = engine.build().compute(&t.subnet).unwrap();
            assert_full_reachability(&t.subnet, &tables);
        }
    }
}

/// Deadlock-free engines stay deadlock-free on random irregular
/// fabrics, verified by re-deriving the CDGs per lane. Min-Hop rides
/// along with its lanes: its switch LIDs take the hub-rooted up*/down*
/// lane, which is acyclic on any topology.
#[test]
fn deadlock_free_engines_on_random_irregular() {
    let mut rng = StdRng::seed_from_u64(0xF7_02);
    for _ in 0..16 {
        let seed = rng.gen_range(0u64..1000);
        let spec = IrregularSpec {
            num_switches: 7,
            num_hosts: 10,
            extra_links: 5,
            seed,
        };
        for engine in [engines_for_all_topologies(), vec![EngineKind::MinHop]].concat() {
            let mut t = irregular(spec);
            assign_lids(&mut t);
            let tables = engine.build().compute(&t.subnet).unwrap();
            assert_full_reachability(&t.subnet, &tables);
            match engine {
                EngineKind::MinHop => {
                    assert_switch_lane_verified(&t.subnet, &tables, &format!("seed {seed}"));
                }
                EngineKind::UpDown => {
                    let g = SwitchGraph::build(&t.subnet).unwrap();
                    let cdg = Cdg::from_tables(&g, &tables, |_| true);
                    assert!(cdg.find_cycle(0).is_none(), "seed {seed}");
                }
                EngineKind::Dfsssp => {
                    verify_layers_acyclic(&t.subnet, &tables).unwrap();
                }
                EngineKind::Lash => {
                    verify_pair_layers_acyclic(&t.subnet, &tables).unwrap();
                }
                _ => {}
            }
        }
    }
}

/// Tori of random shape, plus odd ones (never bipartite, so their
/// up*/down* levels have same-level cables): reachability for all
/// engines that accept them, Min-Hop's switch lane verified acyclic.
#[test]
fn engines_route_random_tori() {
    let mut rng = StdRng::seed_from_u64(0xF7_03);
    let mut shapes: Vec<(usize, usize)> = (0..8)
        .map(|_| (rng.gen_range(2usize..5), rng.gen_range(2usize..5)))
        .collect();
    shapes.extend([(3, 3), (3, 5), (5, 5)]);
    for (rows, cols) in shapes {
        let what = format!("torus {rows}x{cols}");
        for engine in [engines_for_all_topologies(), vec![EngineKind::MinHop]].concat() {
            let mut t = torus_2d(rows, cols, 1, true);
            assign_lids(&mut t);
            let tables = engine.build().compute(&t.subnet).unwrap();
            assert_full_reachability(&t.subnet, &tables);
            if engine == EngineKind::MinHop {
                assert_switch_lane_verified(&t.subnet, &tables, &what);
            }
        }
        // The fat-tree engine must *reject* a torus rather than produce
        // wrong tables.
        let mut t = torus_2d(rows, cols, 1, true);
        assign_lids(&mut t);
        assert!(EngineKind::FatTree.build().compute(&t.subnet).is_err());
    }
}

/// Table outputs are deterministic: computing twice yields identical
/// LFTs (no hidden RNG, no iteration-order leakage).
#[test]
fn engines_are_deterministic() {
    let mut rng = StdRng::seed_from_u64(0xF7_04);
    for _ in 0..16 {
        let seed = rng.gen_range(0u64..200);
        let spec = IrregularSpec {
            num_switches: 6,
            num_hosts: 8,
            extra_links: 4,
            seed,
        };
        for engine in [EngineKind::MinHop, EngineKind::UpDown, EngineKind::Dfsssp] {
            let mut t = irregular(spec);
            assign_lids(&mut t);
            let a = engine.build().compute(&t.subnet).unwrap();
            let b = engine.build().compute(&t.subnet).unwrap();
            for (sw, lft) in &a.lfts {
                assert_eq!(&b.lfts[sw], lft, "{} differs", engine.name());
            }
        }
    }
}
