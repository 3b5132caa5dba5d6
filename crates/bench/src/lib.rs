//! The paper-reproduction harness: Fig. 7 timing, the repair and soak
//! grids, and their `BENCH_*.json` output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod repair;
pub mod soak;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ib_mad::SmpLedger;
use ib_observe::Observer;
use ib_routing::lash::verify_pair_layers_acyclic;
use ib_routing::{EngineKind, RoutingOptions, RoutingTables};
use ib_sm::{discovery, lids};
use ib_subnet::lft::min_blocks_for;
use ib_subnet::topology::{fattree, BuiltTopology};
use ib_subnet::Subnet;
use ib_types::LidSpace;

/// A topology with LIDs assigned (switches first, then hosts) but no LFTs
/// distributed — the exact input a routing engine sees.
pub struct ManagedFabric {
    /// The subnet, LID-assigned.
    pub subnet: Subnet,
    /// Host nodes.
    pub hosts: Vec<ib_subnet::NodeId>,
    /// Topology name.
    pub name: String,
    /// Physical switch count.
    pub switches: usize,
}

/// Assigns LIDs the way the SM would (discovery sweep + dense assignment).
#[must_use]
pub fn manage(built: BuiltTopology) -> ManagedFabric {
    let mut subnet = built.subnet;
    let sm_host = built.hosts[0];
    let mut ledger = SmpLedger::new();
    let disc = discovery::sweep(&subnet, sm_host, &mut ledger).expect("sweep");
    let mut space = LidSpace::new();
    lids::assign_all(&mut subnet, &disc, &mut space, &mut ledger).expect("assign");
    let switches = subnet.num_physical_switches();
    ManagedFabric {
        subnet,
        hosts: built.hosts,
        name: built.name,
        switches,
    }
}

/// Timing statistics for repeated runs of one routing engine on one
/// fabric. Only `engine.compute` is inside the timed region — engine
/// construction, fabric construction, and any clones happen outside it.
#[derive(Clone, Copy, Debug)]
pub struct EngineTiming {
    /// Fastest run — the figure-of-merit (least scheduler noise).
    pub min: Duration,
    /// Median run.
    pub median: Duration,
    /// How many timed runs the stats summarize.
    pub runs: usize,
    /// Routing decisions taken (identical across runs).
    pub decisions: u64,
    /// Virtual lanes the tables use (identical across runs).
    pub lanes: usize,
}

/// Times `runs` engine runs on a fabric (at least one), reporting the min
/// and median, and hands back the last run's tables. The engine is built
/// once, outside the timed region; `routing` sets its own internal
/// parallelism (as opposed to [`fig7_grid`]'s `workers`, which runs whole
/// cells concurrently).
#[must_use]
pub fn time_engine_stats(
    fabric: &ManagedFabric,
    engine: EngineKind,
    runs: usize,
    routing: RoutingOptions,
) -> (EngineTiming, RoutingTables) {
    let e = engine.build();
    let observer = Observer::disabled();
    let runs = runs.max(1);
    let mut samples = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        drop(last.take()); // untimed, and one set of tables alive at a time
        let started = Instant::now();
        let tables = e
            .compute_with(&fabric.subnet, routing, &observer)
            .expect("engine");
        samples.push(started.elapsed());
        last = Some(tables);
    }
    let tables = last.expect("at least one run");
    samples.sort_unstable();
    let timing = EngineTiming {
        min: samples[0],
        median: samples[runs / 2],
        runs,
        decisions: tables.decisions,
        lanes: tables.vls.lanes_used(),
    };
    (timing, tables)
}

/// One cell of the Fig. 7 grid: a `(topology, engine)` pair with its
/// timing stats and the topology's full-reconfiguration SMP floor for
/// context.
#[derive(Clone, Debug)]
pub struct Fig7Cell {
    /// Topology name (e.g. `fat-tree-2L-324`).
    pub topology: String,
    /// Physical switch count.
    pub switches: usize,
    /// Engine name (e.g. `minhop`).
    pub engine: String,
    /// Path-computation timing stats.
    pub timing: EngineTiming,
    /// `n · m`: the minimum SMPs a full reconfiguration would then send.
    pub min_smps_full_rc: usize,
}

/// The Fig. 7 topology constructors, gated by size so debug/CI runs stay
/// fast: level 0 = the two 2-level trees; level 1 adds 5832; level 2 adds
/// 11664.
fn fig7_builders(level: u8) -> Vec<fn() -> BuiltTopology> {
    let mut out: Vec<fn() -> BuiltTopology> = vec![fattree::paper_324, fattree::paper_648];
    if level >= 1 {
        out.push(fattree::paper_5832);
    }
    if level >= 2 {
        out.push(fattree::paper_11664);
    }
    out
}

/// Which engines Fig. 7 runs at a given subnet size. LASH runs at every
/// size: its per-pair check searches only from the dependencies a
/// placement adds. DFSSSP runs through the 5832-node tree (972 switches:
/// ≈ 37 s per run, 13 lanes, ≈ 350 MB peak on a 2-vCPU x86 box) and is
/// capped at 1000 switches, which leaves out the 11664-node tree; `force`
/// lifts that cap.
#[must_use]
pub fn fig7_engines(switches: usize, force: bool) -> Vec<EngineKind> {
    let mut engines = vec![EngineKind::FatTree, EngineKind::MinHop];
    if switches <= 1000 || force {
        engines.push(EngineKind::Dfsssp);
    }
    engines.push(EngineKind::Lash);
    engines
}

/// Runs the whole Fig. 7 grid — every `(topology, engine)` cell — across
/// `workers` threads, `runs` timed repetitions per cell, with each engine
/// itself computing on `routing.workers` threads.
///
/// Fabric construction is parallelized first (one job per topology), then
/// the cells are pulled off a shared work queue. Each cell's timing runs
/// alone on its thread; cells on the same machine still contend for memory
/// bandwidth, which is why the per-cell *min* of several runs is the
/// number to trust. The returned vector is always in deterministic
/// `fig7_builders` × `fig7_engines` order regardless of `workers`, and
/// the decision counts (and tables) are invariant under `routing.workers`.
///
/// # Panics
///
/// When a LASH cell's layers are not acyclic; the last timed run's tables
/// are checked, outside the timed region.
#[must_use]
pub fn fig7_grid(
    level: u8,
    force: bool,
    workers: usize,
    runs: usize,
    routing: RoutingOptions,
) -> Vec<Fig7Cell> {
    let builders = fig7_builders(level);
    let fabrics = parallel_map(builders.len(), workers, |i| manage(builders[i]()));

    let mut cells: Vec<(usize, EngineKind)> = Vec::new();
    for (fi, fabric) in fabrics.iter().enumerate() {
        for engine in fig7_engines(fabric.switches, force) {
            cells.push((fi, engine));
        }
    }

    parallel_map(cells.len(), workers, |ci| {
        let (fi, engine) = cells[ci];
        let fabric = &fabrics[fi];
        let (timing, tables) = time_engine_stats(fabric, engine, runs, routing);
        if engine == EngineKind::Lash {
            if let Err(e) = verify_pair_layers_acyclic(&fabric.subnet, &tables) {
                panic!("fig7 {} lash: {e}", fabric.name);
            }
        }
        Fig7Cell {
            topology: fabric.name.clone(),
            switches: fabric.switches,
            engine: engine.name().to_string(),
            timing,
            min_smps_full_rc: fabric.switches
                * fabric.subnet.topmost_lid().map_or(0, min_blocks_for),
        }
    })
}

/// Maps `run` over `0..jobs` on up to `workers` scoped threads, pulling
/// indices off a shared atomic queue. Results come back in index order, so
/// output is deterministic for any worker count.
fn parallel_map<T, F>(jobs: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(jobs).max(1);
    if workers <= 1 {
        return (0..jobs).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        out.push((i, run(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench worker panicked"))
            .collect()
    });
    let mut indexed: Vec<(usize, T)> = parts.into_iter().flatten().collect();
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_index_order() {
        for workers in [1, 2, 8] {
            let out = parallel_map(17, workers, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn time_engine_stats_clamps_runs_and_orders_quantiles() {
        let fabric = manage(fattree::two_level(2, 2, 2));
        let routing = RoutingOptions::default();
        let (stats, _) = time_engine_stats(&fabric, EngineKind::MinHop, 0, routing);
        assert_eq!(stats.runs, 1);
        let (stats, _) = time_engine_stats(&fabric, EngineKind::MinHop, 3, routing);
        assert_eq!(stats.runs, 3);
        assert!(stats.min <= stats.median);
        assert!(stats.decisions > 0);
    }

    #[test]
    fn fig7_runs_lash_on_the_three_level_trees() {
        for switches in [972, 1620] {
            assert!(fig7_engines(switches, false).contains(&EngineKind::Lash));
        }
    }

    #[test]
    fn fig7_grid_order_is_worker_independent() {
        // The grid on the small topologies: same cells, same order, same
        // decision counts for any worker count — grid workers *and*
        // per-engine routing workers.
        let seq = fig7_grid(0, false, 1, 1, RoutingOptions::default());
        let par = fig7_grid(0, false, 4, 1, RoutingOptions::default().with_workers(2));
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.topology, b.topology);
            assert_eq!(a.engine, b.engine);
            assert_eq!(a.timing.decisions, b.timing.decisions);
            assert_eq!(a.timing.lanes, b.timing.lanes);
            assert_eq!(a.min_smps_full_rc, b.min_smps_full_rc);
        }
        // Table I cross-check: 36 switches x 6 blocks, 54 x 11.
        assert_eq!(seq[0].min_smps_full_rc, 216);
        let ft648 = seq.iter().find(|c| c.switches == 54).unwrap();
        assert_eq!(ft648.min_smps_full_rc, 594);
    }
}
