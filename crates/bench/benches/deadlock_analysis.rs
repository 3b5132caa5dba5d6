//! §VI-C: the cost of deadlock analysis — CDG construction, cycle search,
//! and the R_old ∪ R_new transition check after a live migration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ib_bench::manage;
use ib_core::deadlock::{analyze_transition, LftSnapshot};
use ib_core::migration::{swap_on_fabric, MigrationOptions};
use ib_mad::{RouteTree, SmpLedger, SmpTransport};
use ib_routing::cdg::Cdg;
use ib_routing::graph::SwitchGraph;
use ib_routing::EngineKind;
use ib_sm::{distribution, SmpMode, SweepOptions};
use ib_subnet::topology::{fattree, torus};

fn deadlock(c: &mut Criterion) {
    let mut group = c.benchmark_group("deadlock_analysis");
    group.sample_size(10);

    // CDG build + cycle search per engine on a cyclic topology.
    for engine in [EngineKind::MinHop, EngineKind::UpDown, EngineKind::Dfsssp] {
        let fabric = manage(torus::torus_2d(4, 4, 1, true));
        let tables = engine.build().compute(&fabric.subnet).expect("routing");
        let g = SwitchGraph::build(&fabric.subnet).expect("graph");
        group.bench_with_input(
            BenchmarkId::new("cdg_cycle_search", engine.name()),
            &(g, tables),
            |b, (g, tables)| {
                b.iter(|| {
                    let cdg = Cdg::from_tables(g, tables, |_| true);
                    black_box(cdg.find_cycle(0).is_some())
                });
            },
        );
    }

    // Transition analysis after a real swap on a 324-node fat tree.
    {
        let fabric = manage(fattree::paper_324());
        let mut subnet = fabric.subnet.clone();
        let tables = EngineKind::FatTree
            .build()
            .compute(&subnet)
            .expect("routing");
        let mut ledger = SmpLedger::new();
        distribution::distribute_opts(
            &mut subnet,
            fabric.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut ledger,
            SweepOptions::default(),
        )
        .expect("distribute");
        let before = LftSnapshot::capture(&subnet);
        let a = subnet.node(fabric.hosts[1]).ports[1].lid.unwrap();
        let b_lid = subnet.node(fabric.hosts[200]).ports[1].lid.unwrap();
        let tree = RouteTree::build(&subnet, fabric.hosts[0]);
        swap_on_fabric(
            &mut subnet,
            &tree,
            a,
            b_lid,
            &MigrationOptions::default(),
            None,
            &mut SmpTransport::assumed(fabric.hosts[0]),
            &mut ledger,
        )
        .expect("swap");

        group.bench_function("transition_union/fat-tree-324", |b| {
            b.iter(|| {
                let analysis = analyze_transition(&subnet, &before).expect("analysis");
                black_box(analysis.union_acyclic)
            });
        });
    }

    group.finish();
}

criterion_group!(benches, deadlock);
criterion_main!(benches);
