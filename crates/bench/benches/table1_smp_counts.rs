//! Table I: SMP accounting — the cost of deriving the row from a live
//! subnet, the full-reconfiguration distribution, and the vSwitch swap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ib_bench::manage;
use ib_core::cost::Table1Row;
use ib_core::migration::{swap_on_fabric, MigrationOptions};
use ib_mad::{RouteTree, SmpLedger, SmpTransport};
use ib_routing::EngineKind;
use ib_sm::{distribution, SmpMode, SweepOptions};
use ib_subnet::topology::fattree;
use ib_types::Lid;

fn table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_smp_counts");
    group.sample_size(10);

    // Row derivation is pure bookkeeping and must stay cheap even on the
    // 648-node fabric.
    for build in [fattree::paper_324 as fn() -> _, fattree::paper_648] {
        let fabric = manage(build());
        group.bench_with_input(
            BenchmarkId::new("derive_row", &fabric.name),
            &fabric,
            |b, f| b.iter(|| black_box(Table1Row::for_subnet(&f.subnet))),
        );
    }

    // Full distribution on a virgin 324-node fabric: exactly n*m = 216
    // LFT SMPs.
    let fabric = manage(fattree::paper_324());
    let tables = EngineKind::FatTree
        .build()
        .compute(&fabric.subnet)
        .expect("routing");
    group.bench_function("full_distribution/fat-tree-2L-324", |b| {
        b.iter_batched(
            || (fabric.subnet.clone(), SmpLedger::new()),
            |(mut subnet, mut ledger)| {
                let report = distribution::distribute_opts(
                    &mut subnet,
                    fabric.hosts[0],
                    &tables,
                    SmpMode::Directed,
                    &mut ledger,
                    SweepOptions::default(),
                )
                .expect("distribute");
                assert_eq!(report.lft_smps, 216);
                black_box(report.lft_smps)
            },
            criterion::BatchSize::LargeInput,
        );
    });

    // The vSwitch swap on the same fabric: at most 2 SMPs per switch.
    let mut routed = fabric.subnet.clone();
    let mut ledger = SmpLedger::new();
    distribution::distribute_opts(
        &mut routed,
        fabric.hosts[0],
        &tables,
        SmpMode::Directed,
        &mut ledger,
        SweepOptions::default(),
    )
    .expect("distribute");
    let a = routed.node(fabric.hosts[1]).ports[1].lid.unwrap();
    let b_lid = routed.node(fabric.hosts[300]).ports[1].lid.unwrap();
    group.bench_function("lid_swap/fat-tree-2L-324", |b| {
        b.iter_batched(
            || (routed.clone(), SmpLedger::new()),
            |(mut subnet, mut ledger)| {
                let tree = RouteTree::build(&subnet, fabric.hosts[0]);
                let (stats, _, _) = swap_on_fabric(
                    &mut subnet,
                    &tree,
                    black_box(a),
                    black_box(b_lid),
                    &MigrationOptions::default(),
                    None,
                    &mut SmpTransport::assumed(fabric.hosts[0]),
                    &mut ledger,
                )
                .expect("swap");
                assert!(stats.lft_smps <= 72);
                black_box(stats.lft_smps)
            },
            criterion::BatchSize::LargeInput,
        );
    });

    let _ = Lid::from_raw(1);
    group.finish();
}

criterion_group!(benches, table1);
criterion_main!(benches);
