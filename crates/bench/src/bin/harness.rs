//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p ib-bench --bin harness -- all
//! cargo run --release -p ib-bench --bin harness -- fig7 --level 1 --workers 4
//! cargo run --release -p ib-bench --bin harness -- fig7 --json bench-out
//! ```
//!
//! Subcommands: `table1`, `fig7 [--level N] [--force-engines]`, `fig5`, `fig6`,
//! `cost-model`, `capacity`, `emulation`, `deadlock`, `sa-cache`,
//! `balance`, `faults`, `repair`, `soak`, `all`.
//!
//! `repair` compares the SM's incremental repair sweep against the full
//! recompute on identical seeded fault schedules (SMPs and wall time),
//! writing `BENCH_repair.json` under `--json`; `repair --batch` adds the
//! coalesced-burst comparison (one batched sweep vs k serial repairs of
//! the same all-down burst); `soak --repair` makes the chaos soak answer
//! a seeded half of its link faults with the repair path.
//!
//! `--workers N` spreads the Fig. 7 `(topology, engine)` grid over N
//! threads (default: the machine's available parallelism) and, unless
//! overridden by `--routing-workers N`, also fans each routing engine's
//! internal parallel phases over N threads; `--json <dir>`
//! makes `table1`, `fig7`, and `faults` additionally write
//! `BENCH_table1.json`, `BENCH_fig7.json`, and `BENCH_faults.json` — the
//! machine-readable perf-trajectory files EXPERIMENTS.md documents.
//! `--metrics <dir>` attaches an `ib-observe` metrics sink to the `faults`
//! sweep and writes the accumulated counters/histograms/spans as
//! `BENCH_metrics.json` (schema `ib-vswitch/bench-metrics/v1`), after
//! asserting the counters reconcile with the SMP ledgers.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ib_bench::json::Json;
use ib_bench::metrics::metrics_doc;
use ib_bench::{fig7_grid, manage};
use ib_cloud::scenarios::testbed_datacenter;
use ib_cloud::LiveMigrationWorkflow;
use ib_core::capacity::{dynamic_lids_consumed, prepopulated_lids_consumed, prepopulated_limits};
use ib_core::cost::{Table1Row, PAPER_TABLE1};
use ib_core::{DataCenter, DataCenterConfig, MigrationOptions, VirtArch};
use ib_mad::CostModel;
use ib_observe::Observer;
use ib_routing::EngineKind;
use ib_routing::RoutingOptions;
use ib_subnet::topology::basic::{fig5_fabric, fig6_fabric};
use ib_subnet::topology::fattree;

/// How many timed repetitions back each Fig. 7 cell (min/median reported).
const FIG7_RUNS: usize = 3;

fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let level: u8 = flag_value(&args, "--level").unwrap_or(0);
    let force = args.iter().any(|a| a == "--force-engines");
    let workers: usize = flag_value(&args, "--workers").unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let routing_workers: usize = flag_value(&args, "--routing-workers").unwrap_or(workers);
    let json_dir: Option<PathBuf> = flag_value(&args, "--json");
    let json = json_dir.as_deref();
    let metrics_dir: Option<PathBuf> = flag_value(&args, "--metrics");
    let metrics = metrics_dir.as_deref();
    let batch = args.iter().any(|a| a == "--batch");

    match cmd {
        "table1" => table1(json),
        "fig7" => fig7(level, force, workers, routing_workers, json),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "cost-model" => cost_model(),
        "capacity" => capacity(),
        "emulation" => emulation(),
        "deadlock" => deadlock(),
        "sa-cache" => sa_cache(),
        "balance" => balance(),
        "faults" => faults(json, metrics),
        "repair" => repair(level, batch, json),
        "soak" => {
            let seed: u64 = flag_value(&args, "--seed").unwrap_or(0xC0FFEE);
            let events: usize = flag_value(&args, "--events").unwrap_or(200);
            let inject = flag_value::<ib_bench::soak::Inject>(&args, "--inject");
            let with_repair = args.iter().any(|a| a == "--repair");
            let partitions = args.iter().any(|a| a == "--partitions");
            let engine = flag_value::<String>(&args, "--engine").map(|name| {
                parse_engine(&name).unwrap_or_else(|| {
                    eprintln!("unknown engine `{name}` (want minhop|fat-tree|up-down|dfsssp|lash)");
                    std::process::exit(2);
                })
            });
            soak(seed, events, inject, with_repair, partitions, engine, json);
        }
        "dot" => dot(),
        "all" => {
            table1(json);
            fig7(level, force, workers, routing_workers, json);
            fig5();
            fig6();
            cost_model();
            capacity();
            emulation();
            deadlock();
            sa_cache();
            balance();
            faults(json, metrics);
            repair(level, batch, json);
        }
        other => {
            eprintln!("unknown subcommand `{other}`");
            eprintln!("usage: harness [table1|fig7|fig5|fig6|cost-model|capacity|emulation|deadlock|sa-cache|balance|faults|repair|soak|dot|all] [--level N] [--force-engines] [--workers N] [--routing-workers N] [--seed N] [--events N] [--inject misroute|cycle|drop-row|stale-route] [--repair] [--partitions] [--engine minhop|fat-tree|up-down|dfsssp|lash] [--batch] [--json DIR] [--metrics DIR]");
            std::process::exit(2);
        }
    }
}

/// Writes one `BENCH_*.json` file under `dir`, creating the directory.
fn write_json(dir: &Path, file: &str, value: &Json) {
    std::fs::create_dir_all(dir).expect("create --json dir");
    let path = dir.join(file);
    std::fs::write(&path, value.pretty()).expect("write BENCH json");
    println!("wrote {}", path.display());
}

/// Table I: SMP counts for full vs vSwitch reconfiguration.
fn table1(json: Option<&Path>) {
    println!("\n===== TABLE I: reconfiguration SMPs (derived from real topologies) =====");
    println!(
        "{:>7} {:>9} {:>7} {:>14} {:>16} {:>13} {:>13}",
        "Nodes",
        "Switches",
        "LIDs",
        "MinBlocks/Sw",
        "MinSMPs FullRC",
        "MinSMPs Swap",
        "MaxSMPs Swap"
    );
    let builders: [fn() -> ib_subnet::topology::BuiltTopology; 4] = [
        fattree::paper_324,
        fattree::paper_648,
        fattree::paper_5832,
        fattree::paper_11664,
    ];
    let mut json_rows = Vec::new();
    for (i, build) in builders.iter().enumerate() {
        let fabric = manage(build());
        let row = Table1Row::for_subnet(&fabric.subnet);
        println!(
            "{:>7} {:>9} {:>7} {:>14} {:>16} {:>13} {:>13}   (improvement vs full: {:.2}%)",
            row.nodes,
            row.switches,
            row.lids,
            row.min_lft_blocks_per_switch,
            row.min_smps_full_rc,
            row.min_smps_vswitch,
            row.max_smps_vswitch,
            (1.0 - row.worst_case_ratio()) * 100.0,
        );
        let paper = PAPER_TABLE1[i];
        assert_eq!(
            (
                row.nodes,
                row.switches,
                row.lids,
                row.min_lft_blocks_per_switch,
                row.min_smps_full_rc,
                row.min_smps_vswitch,
                row.max_smps_vswitch
            ),
            paper,
            "derived row must match the published Table I"
        );
        json_rows.push(Json::obj(vec![
            ("topology", Json::from(fabric.name.as_str())),
            ("nodes", Json::from(row.nodes)),
            ("switches", Json::from(row.switches)),
            ("lids", Json::from(row.lids)),
            (
                "min_lft_blocks_per_switch",
                Json::from(row.min_lft_blocks_per_switch),
            ),
            ("min_smps_full_rc", Json::from(row.min_smps_full_rc)),
            ("min_smps_vswitch", Json::from(row.min_smps_vswitch)),
            ("max_smps_vswitch", Json::from(row.max_smps_vswitch)),
            (
                "improvement_pct",
                Json::from((1.0 - row.worst_case_ratio()) * 100.0),
            ),
        ]));
    }
    println!("(all four rows match the published Table I exactly)");
    if let Some(dir) = json {
        let doc = Json::obj(vec![
            ("schema", Json::from("ib-vswitch/bench-table1/v1")),
            ("rows", Json::Array(json_rows)),
        ]);
        write_json(dir, "BENCH_table1.json", &doc);
    }
}

/// Fig. 7: path-computation time per routing engine per topology. The
/// `(topology, engine)` grid runs across `workers` threads; each engine
/// computes on `routing_workers` threads internally; each cell is
/// timed [`FIG7_RUNS`] times and reports min and median.
fn fig7(level: u8, force: bool, workers: usize, routing_workers: usize, json: Option<&Path>) {
    println!("\n===== FIG. 7: path computation time (this machine; the paper's order: ftree < minhop << dfsssp << lash) =====");
    println!("level {level}: 324/648 always; 5832 at --level 1; 11664 at --level 2; DFSSSP through 5832 unless --force-engines; every LASH cell verified acyclic");
    println!(
        "{workers} grid worker(s), {routing_workers} routing worker(s) per engine, min/median of {FIG7_RUNS} runs per cell; fabric construction untimed"
    );
    println!(
        "{:>18} {:>10} {:>12} {:>12} {:>14} {:>6} {:>14}",
        "topology", "engine", "sec (min)", "sec (med)", "decisions", "lanes", "LID swap/copy"
    );
    let cells = fig7_grid(
        level,
        force,
        workers,
        FIG7_RUNS,
        RoutingOptions::default().with_workers(routing_workers),
    );
    let mut json_cells = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        println!(
            "{:>18} {:>10} {:>12.4} {:>12.4} {:>14} {:>6} {:>14}",
            cell.topology,
            cell.engine,
            cell.timing.min.as_secs_f64(),
            cell.timing.median.as_secs_f64(),
            cell.timing.decisions,
            cell.timing.lanes,
            "0 (none)"
        );
        // The vSwitch reconfiguration's path-computation time is zero by
        // construction — there is nothing to run. One line per topology,
        // after its last engine.
        if cells
            .get(i + 1)
            .is_none_or(|next| next.topology != cell.topology)
        {
            println!(
                "{:>18} {:>10} {:>12.4} {:>12.4} {:>14} {:>6} {:>14}",
                cell.topology, "lid-swap", 0.0, 0.0, 0, "-", "-"
            );
        }
        json_cells.push(Json::obj(vec![
            ("topology", Json::from(cell.topology.as_str())),
            ("switches", Json::from(cell.switches)),
            ("engine", Json::from(cell.engine.as_str())),
            ("seconds_min", Json::from(cell.timing.min.as_secs_f64())),
            (
                "seconds_median",
                Json::from(cell.timing.median.as_secs_f64()),
            ),
            ("decisions", Json::from(cell.timing.decisions)),
            ("lanes", Json::from(cell.timing.lanes)),
            ("min_smps_full_rc", Json::from(cell.min_smps_full_rc)),
        ]));
    }
    if let Some(dir) = json {
        let doc = Json::obj(vec![
            ("schema", Json::from("ib-vswitch/bench-fig7/v2")),
            ("level", Json::from(u64::from(level))),
            ("workers", Json::from(workers)),
            ("routing_workers", Json::from(routing_workers)),
            ("runs", Json::from(FIG7_RUNS)),
            ("cells", Json::Array(json_cells)),
        ]);
        write_json(dir, "BENCH_fig7.json", &doc);
    }
}

/// Fig. 5: the worked LID-swap example.
fn fig5() {
    println!("\n===== FIG. 5: LFT rows before/after the VM1 migration (LID 2 <-> LID 12) =====");
    let built = fig5_fabric();
    let mut dc = DataCenter::from_topology(
        built,
        DataCenterConfig {
            arch: VirtArch::VSwitchPrepopulated,
            vfs_per_hypervisor: 3,
            ..DataCenterConfig::default()
        },
    )
    .expect("fig5 bring-up");
    let vm = dc.create_vm("vm1", 0).expect("create");
    let vm_lid = dc.vm(vm).unwrap().lid;
    let leaf0 = dc.hypervisors[0].leaf;
    let dest_vf_lid = dc.hypervisors[2].vf_lid(&dc.subnet, 0).unwrap();

    let before_vm = dc.subnet.lft(leaf0).unwrap().get(vm_lid).unwrap();
    let before_vf = dc.subnet.lft(leaf0).unwrap().get(dest_vf_lid).unwrap();
    let report = dc.migrate_vm(vm, 2).expect("migrate");
    let after_vm = dc.subnet.lft(leaf0).unwrap().get(vm_lid).unwrap();
    let after_vf = dc.subnet.lft(leaf0).unwrap().get(dest_vf_lid).unwrap();

    println!("upper-left leaf switch, LFT excerpt:");
    println!("  {:>8} {:>12} {:>12}", "LID", "port before", "port after");
    println!(
        "  {:>8} {:>12} {:>12}   (the VM's LID)",
        vm_lid, before_vm, after_vm
    );
    println!(
        "  {:>8} {:>12} {:>12}   (the destination VF's LID)",
        dest_vf_lid, before_vf, after_vf
    );
    println!(
        "swap sent {} LFT SMPs over {} switches (same-block -> {} SMP per switch)",
        report.lft.lft_smps, report.lft.switches_updated, report.lft.max_blocks_per_switch
    );
    dc.verify_connectivity().expect("consistent");
    println!("connectivity verified after the swap");
}

/// Fig. 6: switches updated vs migration distance; concurrency ceiling.
fn fig6() {
    println!("\n===== FIG. 6: switches updated vs migration distance (min reconfiguration) =====");
    for (desc, from, to, shortcut) in [
        (
            "intra-leaf (hyp1 -> hyp2), shortcut on",
            0usize,
            1usize,
            true,
        ),
        ("intra-leaf (hyp1 -> hyp2), deterministic", 0, 1, false),
        ("near (hyp1 -> hyp3)", 0, 2, false),
        ("far (hyp1 -> hyp4)", 0, 3, false),
    ] {
        let mut dc = DataCenter::from_topology(
            fig6_fabric(),
            DataCenterConfig {
                arch: VirtArch::VSwitchPrepopulated,
                vfs_per_hypervisor: 3,
                migration: MigrationOptions {
                    intra_leaf_shortcut: shortcut,
                    ..MigrationOptions::default()
                },
                ..DataCenterConfig::default()
            },
        )
        .expect("fig6 bring-up");
        let vm = dc.create_vm("vm", from).expect("create");
        let report = dc.migrate_vm(vm, to).expect("migrate");
        println!(
            "  {:<42} n' = {:>2} of {:>2} switches, {} SMPs",
            desc,
            report.lft.switches_updated,
            dc.subnet.num_physical_switches(),
            report.lft.lft_smps
        );
        dc.verify_connectivity().expect("consistent");
    }
    let dc = DataCenter::from_topology(fig6_fabric(), DataCenterConfig::default()).unwrap();
    println!(
        "  concurrent intra-leaf migration ceiling: {} (one per occupied leaf)",
        ib_core::affected::max_concurrent_intra_leaf(&dc.subnet)
    );
}

/// Equations 1-5 as a sweep table.
fn cost_model() {
    println!("\n===== COST MODEL (equations 1-5), k = 5us, r = 4us =====");
    let model = CostModel {
        k_us: 5.0,
        r_us: 4.0,
    };
    println!(
        "{:>7} {:>9} {:>14} {:>14} {:>14} {:>14}",
        "Nodes", "Switches", "full n*m*(k+r)", "vsw 2n*(k+r)", "vsw 2n*k", "best-case k"
    );
    for &(nodes, switches, lids, ..) in &PAPER_TABLE1 {
        let row = Table1Row::from_counts(nodes, switches, lids);
        let full = model.full_distribution_us(row.switches, row.min_lft_blocks_per_switch);
        let e4 = model.vswitch_reconfig_directed_us(row.switches, 2);
        let e5 = model.vswitch_reconfig_destination_us(row.switches, 2);
        let best = model.vswitch_reconfig_destination_us(1, 1);
        println!(
            "{:>7} {:>9} {:>12.1}us {:>12.1}us {:>12.1}us {:>12.1}us",
            nodes, switches, full, e4, e5, best
        );
    }
    println!("(PCt comes on top of the full column and is minutes at scale — see fig7)");
}

/// §V-A/§V-B capacity arithmetic.
fn capacity() {
    println!("\n===== CAPACITY (sections V-A / V-B) =====");
    for vfs in [4usize, 16, 64, 126] {
        let lim = prepopulated_limits(vfs);
        println!(
            "  {vfs:>3} VFs/hypervisor: prepopulated max {:>5} hypervisors / {:>6} VMs",
            lim.max_hypervisors, lim.max_vms
        );
    }
    println!(
        "  paper example (16 VFs): {} hypervisors, {} VMs",
        prepopulated_limits(16).max_hypervisors,
        prepopulated_limits(16).max_vms
    );
    let prepop = prepopulated_lids_consumed(2891, 16, 0, 0);
    let dynamic = dynamic_lids_consumed(2891, 0, 0, 0);
    println!("  initial LIDs to route: prepopulated {prepop} vs dynamic {dynamic}");
}

/// §VII-B emulation workflow.
fn emulation() {
    println!("\n===== SECTION VII-B: live-migration workflow on the testbed replica =====");
    for arch in [
        VirtArch::SharedPort,
        VirtArch::VSwitchPrepopulated,
        VirtArch::VSwitchDynamic,
    ] {
        let mut dc = testbed_datacenter(DataCenterConfig {
            arch,
            vfs_per_hypervisor: 4,
            ..DataCenterConfig::default()
        })
        .expect("testbed");
        let vm = dc.create_vm("centos7", 0).expect("create");
        let started = Instant::now();
        let trace = LiveMigrationWorkflow::default()
            .execute(&mut dc, vm, 3)
            .expect("workflow");
        println!(
            "  {:<22} downtime {} | reconfig share {:.4}% | {} SMPs (n'={}, m'={}) | addresses preserved: {} | wall {:?}",
            arch.to_string(),
            trace.timeline.downtime,
            trace.timeline.reconfiguration_share() * 100.0,
            trace.report.total_smps(),
            trace.report.lft.switches_updated,
            trace.report.lft.max_blocks_per_switch,
            trace.addresses_preserved,
            started.elapsed(),
        );
    }
}

/// §VI-C: the Min-Hop torus's cyclic CDG, the credit simulator wedging on
/// it and draining under timeouts or DFSSSP's lanes, and the `R_old ∪
/// R_new` check of one fat-tree LID swap.
fn deadlock() {
    use ib_core::deadlock::analyze_transition;
    use ib_core::migration::swap_on_fabric;
    use ib_mad::{RouteTree, SmpTransport};
    use ib_routing::cdg::Cdg;
    use ib_routing::graph::SwitchGraph;
    use ib_routing::tables::RoutingTables;
    use ib_routing::EngineKind;
    use ib_sim::credit::{run, CreditSimConfig, Flow};
    use ib_sm::{SmConfig, SmpMode, SubnetManager};
    use ib_subnet::topology::torus;

    println!(
        "\n===== SECTION VI-C: deadlock occurrence and resolution (credit-gated 4x4 torus) ====="
    );
    let mut t = torus::torus_2d(4, 4, 1, true);
    let mut sm = SubnetManager::new(
        t.hosts[0],
        SmConfig {
            engine: EngineKind::MinHop,
            smp_mode: SmpMode::Directed,
            ..SmConfig::default()
        },
    );
    sm.bring_up(&mut t.subnet).expect("bring-up");
    let tables = EngineKind::MinHop
        .build()
        .compute(&t.subnet)
        .expect("routing");
    let graph = SwitchGraph::build(&t.subnet).expect("graph");
    let cdg = Cdg::from_tables(&graph, &tables, |_| true);
    println!(
        "  min-hop CDG               : {} dependencies, cycle: {}",
        cdg.dependencies(0),
        cdg.find_cycle(0)
            .map_or("none".into(), |c| format!("{} channels", c.len()))
    );
    let mut flows = Vec::new();
    for &a in &t.hosts {
        for &b in &t.hosts {
            if a != b {
                flows.push(Flow {
                    src: a,
                    dst: t.subnet.node(b).ports[1].lid.unwrap(),
                    packets: 20,
                });
            }
        }
    }
    let base = CreditSimConfig {
        credits_per_channel: 1,
        ..CreditSimConfig::default()
    };
    let wedged = run(&t.subnet, &flows, &tables.vls, &base).expect("sim");
    println!(
        "  min-hop, 1 VL, no timeout : deadlocked={} delivered={} (of {})",
        wedged.deadlocked,
        wedged.delivered,
        flows.len() * 20
    );
    let recovered = run(
        &t.subnet,
        &flows,
        &tables.vls,
        &CreditSimConfig {
            timeout_rounds: Some(64),
            max_rounds: 2_000_000,
            ..base
        },
    )
    .expect("sim");
    println!(
        "  min-hop, 1 VL, IB timeout : deadlocked={} delivered={} dropped={} drained={}",
        recovered.deadlocked, recovered.delivered, recovered.dropped, recovered.drained
    );
    // A second fabric brought up with DFSSSP: its LFTs and its lanes.
    let mut t2 = torus::torus_2d(4, 4, 1, true);
    let mut sm2 = SubnetManager::new(
        t2.hosts[0],
        SmConfig {
            engine: EngineKind::Dfsssp,
            smp_mode: SmpMode::Directed,
            ..SmConfig::default()
        },
    );
    sm2.bring_up(&mut t2.subnet).expect("bring-up");
    let dtables = EngineKind::Dfsssp
        .build()
        .compute(&t2.subnet)
        .expect("routing");
    let mut flows2 = Vec::new();
    for &a in &t2.hosts {
        for &b in &t2.hosts {
            if a != b {
                flows2.push(Flow {
                    src: a,
                    dst: t2.subnet.node(b).ports[1].lid.unwrap(),
                    packets: 20,
                });
            }
        }
    }
    let clean = run(&t2.subnet, &flows2, &dtables.vls, &base).expect("sim");
    println!(
        "  dfsssp, {} VLs             : deadlocked={} delivered={} dropped={}",
        dtables.vls.lanes_used(),
        clean.deadlocked,
        clean.delivered,
        clean.dropped
    );

    // One LID swap on the 324-node fat tree, checked in §VI-C's terms.
    let mut ft = fattree::paper_324();
    let mut sm3 = SubnetManager::new(
        ft.hosts[0],
        SmConfig {
            engine: EngineKind::FatTree,
            ..SmConfig::default()
        },
    );
    sm3.bring_up(&mut ft.subnet).expect("bring-up");
    let before = RoutingTables::from_installed(&ft.subnet);
    let lid = |h: usize| ft.subnet.node(ft.hosts[h]).ports[1].lid.unwrap();
    let (a, b) = (lid(1), lid(200));
    let tree = RouteTree::build(&ft.subnet, sm3.sm_node);
    swap_on_fabric(
        &mut ft.subnet,
        &tree,
        a,
        b,
        &MigrationOptions::default(),
        None,
        &mut SmpTransport::assumed(sm3.sm_node),
        &mut sm3.ledger,
    )
    .expect("swap");
    let analysis = analyze_transition(&ft.subnet, &before).expect("analysis");
    println!(
        "  fat-tree 324, swap hosts 1 <-> 200: R_old acyclic={} R_new acyclic={} union acyclic={}",
        analysis.old_acyclic, analysis.new_acyclic, analysis.union_acyclic
    );
}

/// §I / reference \[10\]: SA query load with and without address-preserving
/// migration.
fn sa_cache() {
    use ib_sm::{PathRecordCache, SaService};
    use ib_subnet::topology::fattree;

    println!("\n===== SECTION I: SA PathRecord query load around a migration =====");
    let mut dc = DataCenter::from_topology(
        fattree::two_level(4, 4, 2),
        DataCenterConfig {
            arch: VirtArch::VSwitchPrepopulated,
            vfs_per_hypervisor: 2,
            ..DataCenterConfig::default()
        },
    )
    .expect("bring-up");
    let server = dc.create_vm("server", 0).expect("create");
    let gid = dc.vm(server).unwrap().gid();
    let mut sa = SaService::new();
    sa.register(gid, dc.vm(server).unwrap().lid);
    let mut caches: Vec<PathRecordCache> = (0..12).map(|_| PathRecordCache::new()).collect();
    let peers: Vec<_> = (1..13)
        .map(|h| dc.hypervisors[h].pf_lid(&dc.subnet).unwrap())
        .collect();
    for (c, &slid) in caches.iter_mut().zip(&peers) {
        c.resolve(&mut sa, &dc.subnet, slid, gid).expect("resolve");
    }
    let cold = sa.queries_served;
    dc.migrate_vm(server, 15).expect("migrate");
    let stale = caches
        .iter()
        .filter(|c| c.is_stale(&dc.subnet, gid))
        .count();
    for (c, &slid) in caches.iter_mut().zip(&peers) {
        c.resolve(&mut sa, &dc.subnet, slid, gid).expect("resolve");
    }
    println!("  cold-start queries: {cold}; stale caches after vSwitch migration: {stale}");
    println!(
        "  reconnection queries after migration: {} (addresses followed the VM)",
        sa.queries_served - cold
    );
}

/// §V-A vs §V-B: the balancing trade-off under skewed VM placement.
fn balance() {
    use ib_routing::EngineKind;
    use ib_sim::fairness::{max_min_fair, FairFlow};
    use ib_subnet::topology::fattree;

    println!("\n===== SECTIONS V-A/V-B: traffic balancing when PF spine choices collide =====");
    // 2 leaves x 4 hypervisors, 3 spines: by pigeonhole two hypervisors
    // on leaf 0 share a spine for their PF rows. Put three VMs on each of
    // those two: dynamic mode funnels all six VM rows onto the shared
    // spine downlink; prepopulated VM LIDs spread.
    let build = |arch| {
        DataCenter::from_topology(
            fattree::two_level(2, 4, 3),
            DataCenterConfig {
                arch,
                vfs_per_hypervisor: 3,
                engine: EngineKind::FatTree,
                ..DataCenterConfig::default()
            },
        )
        .expect("bring-up")
    };
    for arch in [VirtArch::VSwitchPrepopulated, VirtArch::VSwitchDynamic] {
        let mut dcx = build(arch);
        // Find two leaf-0 hypervisors whose PF rows at a remote leaf use
        // the same uplink.
        let remote_leaf = dcx.hypervisors[4].leaf;
        let (a, b) = {
            let lft = dcx.subnet.lft(remote_leaf).expect("leaf");
            let mut by_port: std::collections::HashMap<u8, Vec<usize>> =
                std::collections::HashMap::new();
            for h in 0..4 {
                let pf = dcx.hypervisors[h].pf_lid(&dcx.subnet).expect("pf");
                by_port
                    .entry(lft.get(pf).expect("row").raw())
                    .or_default()
                    .push(h);
            }
            let pair = by_port
                .values()
                .find(|v| v.len() >= 2)
                .expect("pigeonhole: 4 PFs over 3 spines");
            (pair[0], pair[1])
        };
        for v in 0..3 {
            dcx.create_vm(format!("vm-a{v}"), a).expect("create");
            dcx.create_vm(format!("vm-b{v}"), b).expect("create");
        }
        // Flows: remote PFs (hypervisors 4..8) -> the six VMs.
        let flows: Vec<FairFlow> = dcx
            .vms()
            .iter()
            .enumerate()
            .map(|(i, vm)| FairFlow {
                src: dcx.hypervisors[4 + (i % 4)].pf,
                dst: vm.lid,
            })
            .collect();
        let report = max_min_fair(&dcx.subnet, &flows).expect("fairness");
        let lft = dcx.subnet.lft(remote_leaf).expect("leaf");
        let mut counts: std::collections::HashMap<u8, usize> = std::collections::HashMap::new();
        for vm in dcx.vms() {
            *counts
                .entry(lft.get(vm.lid).expect("row").raw())
                .or_insert(0) += 1;
        }
        let max_rows = counts.values().copied().max().unwrap_or(0);
        println!(
            "  {:<22} VM aggregate throughput {:.3} | Jain {:.3} | max VM rows on one remote uplink: {}",
            arch.to_string(),
            report.aggregate,
            report.jain_index(),
            max_rows
        );
    }
    println!("  (prepopulated spreads VM LIDs like LMC paths; dynamic stacks them on colliding PF spines)");
}

/// Robustness sweep: the Algorithm-1 migration under SMP loss, with the
/// transactional transport (retry + rollback). One row per architecture
/// and per-hop drop probability, averaged over seeded trials. With
/// `metrics` set, every trial reports into one shared `ib-observe` sink
/// whose accumulated snapshot lands in `BENCH_metrics.json` — after the
/// counters are asserted to reconcile with the per-trial SMP ledgers.
fn faults(json: Option<&Path>, metrics: Option<&Path>) {
    use ib_mad::SmpTransport;
    use ib_subnet::topology::fattree::two_level;

    const TRIALS: u64 = 20;
    println!("\n===== ROBUSTNESS: transactional migration under SMP loss ({TRIALS} seeded trials per row) =====");
    println!(
        "{:>22} {:>8} {:>10} {:>10} {:>9} {:>10} {:>10}",
        "architecture", "drop %", "attempts", "extra", "retries", "rollbacks", "committed"
    );
    let observer = if metrics.is_some() {
        Observer::metrics()
    } else {
        Observer::disabled()
    };
    // Ledger ground truth accumulated across every trial, to reconcile the
    // observer's counters against at the end.
    let mut ledger_attempts = 0usize;
    let mut ledger_migration_smps = 0usize;
    let mut migration_phase = String::new();
    let mut json_rows = Vec::new();
    for arch in [VirtArch::VSwitchPrepopulated, VirtArch::VSwitchDynamic] {
        let mut baseline = 0.0f64;
        for pct in [0u32, 5, 10, 15, 20] {
            let p = f64::from(pct) / 100.0;
            let mut attempts = 0usize;
            let mut retries = 0usize;
            let mut rollbacks = 0usize;
            let mut committed = 0usize;
            for seed in 0..TRIALS {
                let mut dc = DataCenter::from_topology_observed(
                    two_level(2, 3, 2),
                    DataCenterConfig {
                        arch,
                        vfs_per_hypervisor: 3,
                        ..DataCenterConfig::default()
                    },
                    observer.clone(),
                )
                .expect("bring-up");
                let vm = dc.create_vm("mover", 0).expect("create");
                let mut transport = SmpTransport::lossy(dc.sm.sm_node, seed, p, 0);
                transport.retry.max_attempts = 8;
                let report = dc
                    .migrate_vm_resilient(vm, 4, &mut transport)
                    .expect("resilient migration");
                let phase = format!("migrate-{vm}");
                attempts += dc.sm.ledger.phase_records(&phase).len();
                retries += report.tx.retries;
                if report.committed {
                    committed += 1;
                } else {
                    rollbacks += 1;
                }
                ledger_attempts += dc.sm.ledger.total();
                ledger_migration_smps += dc.sm.ledger.phase_total(&phase);
                migration_phase = phase;
                dc.verify_connectivity().expect("consistent either way");
            }
            let avg_attempts = attempts as f64 / TRIALS as f64;
            if pct == 0 {
                baseline = avg_attempts;
            }
            println!(
                "{:>22} {:>8} {:>10.1} {:>10.1} {:>9.1} {:>10} {:>9}/{}",
                arch.to_string(),
                pct,
                avg_attempts,
                avg_attempts - baseline,
                retries as f64 / TRIALS as f64,
                rollbacks,
                committed,
                TRIALS,
            );
            json_rows.push(Json::obj(vec![
                ("architecture", Json::from(arch.to_string())),
                ("drop_pct", Json::from(u64::from(pct))),
                ("avg_attempts", Json::from(avg_attempts)),
                ("extra_attempts", Json::from(avg_attempts - baseline)),
                ("avg_retries", Json::from(retries as f64 / TRIALS as f64)),
                ("rollbacks", Json::from(rollbacks)),
                ("committed", Json::from(committed)),
            ]));
        }
    }
    println!("(attempts = SMPs on the wire incl. retries; extra = vs the fault-free run; every non-committed trial rolled back cleanly)");
    if let Some(dir) = json {
        let doc = Json::obj(vec![
            ("schema", Json::from("ib-vswitch/bench-faults/v1")),
            ("trials", Json::from(TRIALS)),
            ("rows", Json::Array(json_rows)),
        ]);
        write_json(dir, "BENCH_faults.json", &doc);
    }
    if let Some(dir) = metrics {
        let snap = observer.snapshot().expect("metrics observer is enabled");
        // The observer is a side channel over the ledgers; the two
        // accountings must agree exactly before the file is trusted.
        assert_eq!(
            snap.counter("smp.attempts"),
            ledger_attempts as u64,
            "observer SMP attempts must reconcile with the ledgers"
        );
        assert_eq!(
            snap.counter(&format!("phase.{migration_phase}.smps")),
            ledger_migration_smps as u64,
            "observer migration-phase SMPs must reconcile with the ledgers"
        );
        println!(
            "metrics reconciled: {} SMP attempts, {} in the migration phase, across every trial",
            ledger_attempts, ledger_migration_smps
        );
        write_json(dir, "BENCH_metrics.json", &metrics_doc(&snap));
    }
}

/// Incremental repair vs full recompute: identical seeded fault schedules
/// on triplet fabrics, one SM per arm. Reports LFT SMPs and trap-handling
/// wall time per topology and fault count, the SMP ratio against the full
/// trap sweep, and the ratio against the paper's `full_reconfiguration`
/// (below 1.0 means the delta-routing path won).
fn repair(level: u8, batch: bool, json: Option<&Path>) {
    use ib_bench::repair::{batch_grid, repair_grid};

    println!("\n===== REPAIR: incremental (delta-routing) sweep vs full recompute on identical fault schedules =====");
    println!(
        "level {level}: 324-node fat tree (fat-tree/minhop/up-down) + 4x4 torus (dfsssp/lash) always; 648-node fat tree x 3 engines at --level 1+"
    );
    println!(
        "{:>18} {:>10} {:>7} {:>12} {:>10} {:>11} {:>7} {:>9} {:>12} {:>10} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "topology",
        "engine",
        "faults",
        "repair SMPs",
        "full SMPs",
        "fullRC SMPs",
        "ratio",
        "vs fullRC",
        "repair sec",
        "full sec",
        "fallbacks",
        "heal SMPs",
        "full heal",
        "heal sec",
        "fheal sec"
    );
    let rows = repair_grid(level);
    let mut json_rows = Vec::new();
    for row in &rows {
        println!(
            "{:>18} {:>10} {:>7} {:>12} {:>10} {:>11} {:>7.3} {:>9.3} {:>12.4} {:>10.4} {:>9} {:>10} {:>10} {:>10.4} {:>10.4}",
            row.topology,
            row.engine,
            row.faults,
            row.repair_smps,
            row.full_smps,
            row.full_rc_smps,
            row.smp_ratio,
            row.smp_ratio_vs_full_rc,
            row.repair_wall.as_secs_f64(),
            row.full_wall.as_secs_f64(),
            row.repair_fallbacks,
            row.heal_smps,
            row.full_heal_smps,
            row.heal_wall.as_secs_f64(),
            row.full_heal_wall.as_secs_f64(),
        );
        assert!(
            row.healed_exactly,
            "{} {} faults={}: the heals did not restore the pre-fault LFTs",
            row.topology, row.engine, row.faults
        );
        json_rows.push(Json::obj(vec![
            ("topology", Json::from(row.topology.as_str())),
            ("switches", Json::from(row.switches)),
            ("engine", Json::from(row.engine)),
            ("faults", Json::from(row.faults)),
            ("repair_smps", Json::from(row.repair_smps)),
            ("full_smps", Json::from(row.full_smps)),
            ("full_rc_smps", Json::from(row.full_rc_smps)),
            ("smp_ratio", Json::from(row.smp_ratio)),
            ("smp_ratio_vs_full_rc", Json::from(row.smp_ratio_vs_full_rc)),
            ("repair_seconds", Json::from(row.repair_wall.as_secs_f64())),
            ("full_seconds", Json::from(row.full_wall.as_secs_f64())),
            (
                "full_rc_seconds",
                Json::from(row.full_rc_wall.as_secs_f64()),
            ),
            ("repair_fallbacks", Json::from(row.repair_fallbacks)),
            ("heal_smps", Json::from(row.heal_smps)),
            ("full_heal_smps", Json::from(row.full_heal_smps)),
            ("heal_seconds", Json::from(row.heal_wall.as_secs_f64())),
            (
                "full_heal_seconds",
                Json::from(row.full_heal_wall.as_secs_f64()),
            ),
            ("heals_no_debt", Json::from(row.heals_no_debt)),
            ("healed_exactly", Json::from(row.healed_exactly)),
        ]));
    }
    println!("(repair..fallbacks cover only the fault responses; every arm diffs against installed blocks, so the gap is the repair path's column splicing)");
    println!("(heal: the same links back up, last down first up — the repair arm undoes its repairs, the full arm recomputes; the repair arm's pre-fault LFTs are asserted back)");
    let mut batch_json_rows = Vec::new();
    if batch {
        println!("\n----- REPAIR --batch: one coalesced sweep vs k serial repairs of the same all-down burst -----");
        println!(
            "{:>18} {:>10} {:>7} {:>11} {:>12} {:>7} {:>9} {:>10} {:>11} {:>10} {:>9}",
            "topology",
            "engine",
            "faults",
            "batch SMPs",
            "serial SMPs",
            "ratio",
            "verify b/s",
            "batch sec",
            "serial sec",
            "identical",
            "fallbacks"
        );
        for row in &batch_grid(level) {
            println!(
                "{:>18} {:>10} {:>7} {:>11} {:>12} {:>7.3} {:>5}/{:<3} {:>10.4} {:>11.4} {:>10} {:>9}",
                row.topology,
                row.engine,
                row.faults,
                row.batched_smps,
                row.serial_smps,
                row.smp_ratio,
                row.batched_verify_runs,
                row.serial_verify_runs,
                row.batched_wall.as_secs_f64(),
                row.serial_wall.as_secs_f64(),
                row.identical_lfts,
                row.batched_fallbacks,
            );
            assert!(
                row.identical_lfts,
                "{} faults={}: batched and serial LFTs diverged",
                row.topology, row.faults
            );
            batch_json_rows.push(Json::obj(vec![
                ("topology", Json::from(row.topology.as_str())),
                ("switches", Json::from(row.switches)),
                ("engine", Json::from(row.engine)),
                ("faults", Json::from(row.faults)),
                ("batched_smps", Json::from(row.batched_smps)),
                ("serial_smps", Json::from(row.serial_smps)),
                ("smp_ratio", Json::from(row.smp_ratio)),
                ("batched_verify_runs", Json::from(row.batched_verify_runs)),
                ("serial_verify_runs", Json::from(row.serial_verify_runs)),
                (
                    "batched_seconds",
                    Json::from(row.batched_wall.as_secs_f64()),
                ),
                ("serial_seconds", Json::from(row.serial_wall.as_secs_f64())),
                ("identical_lfts", Json::from(row.identical_lfts)),
                ("batched_fallbacks", Json::from(row.batched_fallbacks)),
            ]));
        }
        println!("(both arms answer the identical burst; byte-identical final LFTs are asserted — the batch saves shared blocks and k-1 verifier passes)");
    }
    if let Some(dir) = json {
        let doc = Json::obj(vec![
            // v4: each row adds the heal of its faults (`heal_*`,
            // `full_heal_*`, `heals_no_debt`, `healed_exactly`). v3: the
            // grid crosses every topology with its engine matrix; and
            // `repair_fallbacks` reads the per-engine
            // `repair.fallback.<engine>` counter tag.
            ("schema", Json::from("ib-vswitch/bench-repair/v4")),
            ("level", Json::from(u64::from(level))),
            ("batched", Json::from(batch)),
            ("rows", Json::Array(json_rows)),
            ("batch_rows", Json::Array(batch_json_rows)),
        ]);
        write_json(dir, "BENCH_repair.json", &doc);
    }
}

/// The engine names the soak CLI accepts (the reports' names, plus the
/// common shorthands).
fn parse_engine(name: &str) -> Option<EngineKind> {
    match name {
        "minhop" | "min-hop" => Some(EngineKind::MinHop),
        "fat-tree" | "ftree" => Some(EngineKind::FatTree),
        "up-down" | "updn" => Some(EngineKind::UpDown),
        "dfsssp" => Some(EngineKind::Dfsssp),
        "lash" => Some(EngineKind::Lash),
        _ => None,
    }
}

/// Chaos soak: a long seeded schedule of link faults, flap bursts,
/// migrations, and sweeps with the fabric invariant verifier run after
/// every convergence. Exits non-zero — printing the reproducing seed and
/// the offending invariant — on any violation, and always under
/// `--inject`, which corrupts an installed LFT to prove the verifier
/// catches it.
///
/// `--partitions` swaps the schedule for seeded split-then-heal cycles
/// (whole-leaf severs) and runs it under *every* routing engine unless
/// `--engine` pins one; the JSON report then aggregates across engines.
fn soak(
    seed: u64,
    events: usize,
    inject: Option<ib_bench::soak::Inject>,
    repair: bool,
    partitions: bool,
    engine: Option<EngineKind>,
    json: Option<&Path>,
) {
    use ib_bench::soak::{run_soak, SoakConfig, SoakReport};

    println!("\n===== SOAK: randomized fault/migration/sweep schedule, verified each step =====");
    // The default schedule runs one engine (DFSSSP unless pinned); the
    // partition schedule sweeps all five unless pinned — graceful
    // degradation is an every-engine promise.
    let engines: Vec<EngineKind> = match (partitions, engine) {
        (_, Some(e)) => vec![e],
        (true, None) => EngineKind::all().to_vec(),
        (false, None) => vec![SoakConfig::default().engine],
    };
    let mut reports: Vec<(EngineKind, SoakReport)> = Vec::new();
    let started = Instant::now();
    for engine in engines {
        let config = SoakConfig {
            seed,
            events,
            inject,
            repair,
            partitions,
            engine,
            ..SoakConfig::default()
        };
        println!(
            "seed {seed}, {events} events on a 2-level fat tree ({} leaves x {} hypervisors, {} spines), engine: {engine}, partitions: {partitions}, injection: {inject:?}, repair sweeps: {repair}",
            config.leaves, config.hosts_per_leaf, config.spines
        );
        let report = run_soak(&config);
        print_soak_report(&report, partitions);
        reports.push((engine, report));
    }
    println!("  total: {:?}", started.elapsed());
    if let Some(dir) = json {
        write_soak_json(dir, events, partitions, &reports);
    }
    let failures: Vec<String> = reports
        .iter()
        .filter_map(|(e, r)| r.failure.as_ref().map(|f| format!("{e}: {f}")))
        .collect();
    if failures.is_empty() {
        println!("  verdict: CLEAN — zero violations across the whole schedule");
    } else {
        for failure in &failures {
            eprintln!("  verdict: FAILED — {failure}");
        }
        std::process::exit(1);
    }
}

/// The per-run console summary of one soak report.
fn print_soak_report(report: &ib_bench::soak::SoakReport, partitions: bool) {
    println!(
        "  events {:>4}  (down {} / up {} / flap {} / migrate {} / sweep {} / noop {})",
        report.events_run,
        report.link_downs,
        report.link_ups,
        report.flap_bursts,
        report.migrations,
        report.sweeps,
        report.noops,
    );
    println!(
        "  migrations: {} committed, {} rolled back under SMP loss",
        report.commits, report.rollbacks
    );
    println!(
        "  quarantine: {} entered hold-down, {} traps absorbed by damping, {} released",
        report.quarantines_entered, report.traps_absorbed, report.quarantines_released
    );
    if partitions {
        println!(
            "  partitions: {} splits, {} heals applied, {} heals proven restored, {} migrations aborted as unreachable",
            report.partitions, report.heals, report.healed, report.migration_aborts
        );
    }
    let by_engine = report
        .repair_fallbacks_by_engine
        .iter()
        .map(|(e, n)| format!("{e}={n}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "  repair: {} incremental sweeps, {} fell back to a full sweep{}; {} heals undid their repair, {} found no debt",
        report.repair_sweeps,
        report.repair_fallbacks,
        if by_engine.is_empty() {
            String::new()
        } else {
            format!(" (by engine: {by_engine})")
        },
        report.debt_heals,
        report.heals_no_debt,
    );
    println!(
        "  verifier: {} post-event runs, all four invariants + quarantine absence",
        report.verify_runs,
    );
}

/// Writes `BENCH_soak.json`: the run totals (summed when the partition
/// schedule sweeps several engines), the per-engine reports, and the
/// first failure. Same schema as before — the partition keys are
/// additive.
fn write_soak_json(
    dir: &Path,
    events: usize,
    partitions: bool,
    reports: &[(EngineKind, ib_bench::soak::SoakReport)],
) {
    let sum = |f: &dyn Fn(&ib_bench::soak::SoakReport) -> u64| -> u64 {
        reports.iter().map(|(_, r)| f(r)).sum()
    };
    let doc = Json::obj(vec![
        ("schema", Json::from("ib-vswitch/bench-soak/v2")),
        ("seed", Json::from(reports[0].1.seed)),
        ("events_requested", Json::from(events)),
        ("partition_schedule", Json::from(partitions)),
        (
            "engines",
            Json::Array(reports.iter().map(|(e, _)| Json::from(e.name())).collect()),
        ),
        ("events_run", Json::from(sum(&|r| r.events_run as u64))),
        ("link_downs", Json::from(sum(&|r| r.link_downs as u64))),
        ("link_ups", Json::from(sum(&|r| r.link_ups as u64))),
        ("flap_bursts", Json::from(sum(&|r| r.flap_bursts as u64))),
        ("sweeps", Json::from(sum(&|r| r.sweeps as u64))),
        ("migrations", Json::from(sum(&|r| r.migrations as u64))),
        ("commits", Json::from(sum(&|r| r.commits as u64))),
        ("rollbacks", Json::from(sum(&|r| r.rollbacks as u64))),
        (
            "quarantines_entered",
            Json::from(sum(&|r| r.quarantines_entered)),
        ),
        ("traps_absorbed", Json::from(sum(&|r| r.traps_absorbed))),
        (
            "quarantines_released",
            Json::from(sum(&|r| r.quarantines_released as u64)),
        ),
        ("partitions", Json::from(sum(&|r| r.partitions as u64))),
        ("heals", Json::from(sum(&|r| r.heals as u64))),
        ("healed", Json::from(sum(&|r| r.healed))),
        (
            "stale_route_violations",
            Json::from(sum(&|r| r.stale_route_violations)),
        ),
        ("migration_aborts", Json::from(sum(&|r| r.migration_aborts))),
        ("repair_sweeps", Json::from(sum(&|r| r.repair_sweeps))),
        ("repair_fallbacks", Json::from(sum(&|r| r.repair_fallbacks))),
        ("debt_heals", Json::from(sum(&|r| r.debt_heals))),
        ("heals_no_debt", Json::from(sum(&|r| r.heals_no_debt))),
        (
            "repair_fallbacks_by_engine",
            Json::Object(
                reports
                    .iter()
                    .flat_map(|(_, r)| r.repair_fallbacks_by_engine.iter())
                    .map(|(e, n)| (e.clone(), Json::from(*n)))
                    .collect(),
            ),
        ),
        ("verify_runs", Json::from(sum(&|r| r.verify_runs as u64))),
        (
            "verdicts",
            Json::Array(
                reports
                    .iter()
                    .flat_map(|(e, r)| {
                        r.verdicts
                            .iter()
                            .map(move |v| Json::from(format!("{e}:{v}")))
                    })
                    .collect(),
            ),
        ),
        (
            "failure",
            reports
                .iter()
                .find_map(|(e, r)| r.failure.as_ref().map(|f| Json::from(format!("{e}: {f}"))))
                .unwrap_or(Json::Null),
        ),
    ]);
    write_json(dir, "BENCH_soak.json", &doc);
}

/// Prints the Fig. 5 fabric (virtualized, one VM) as GraphViz dot.
fn dot() {
    let mut dc = DataCenter::from_topology(
        fig5_fabric(),
        DataCenterConfig {
            arch: VirtArch::VSwitchPrepopulated,
            vfs_per_hypervisor: 3,
            ..DataCenterConfig::default()
        },
    )
    .expect("fig5 bring-up");
    dc.create_vm("vm1", 0).expect("create");
    print!("{}", ib_subnet::dot::to_dot(&dc.subnet));
}
