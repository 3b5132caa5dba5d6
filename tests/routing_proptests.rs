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
use ib_routing::EngineKind;
use ib_subnet::topology::fattree::two_level;
use ib_subnet::topology::irregular::{irregular, IrregularSpec};
use ib_subnet::topology::torus::torus_2d;

fn engines_for_all_topologies() -> Vec<EngineKind> {
    vec![EngineKind::UpDown, EngineKind::Dfsssp, EngineKind::Lash]
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
/// fabrics, verified by re-deriving the CDGs per lane.
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
        for engine in engines_for_all_topologies() {
            let mut t = irregular(spec);
            assign_lids(&mut t);
            let tables = engine.build().compute(&t.subnet).unwrap();
            assert_full_reachability(&t.subnet, &tables);
            match engine {
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

/// Tori of random shape: reachability for all engines that accept
/// them, layer-acyclicity for dfsssp.
#[test]
fn engines_route_random_tori() {
    let mut rng = StdRng::seed_from_u64(0xF7_03);
    for _ in 0..8 {
        let rows = rng.gen_range(2usize..5);
        let cols = rng.gen_range(2usize..5);
        for engine in engines_for_all_topologies() {
            let mut t = torus_2d(rows, cols, 1, true);
            assign_lids(&mut t);
            let tables = engine.build().compute(&t.subnet).unwrap();
            assert_full_reachability(&t.subnet, &tables);
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
