//! Worker-count invariance: the whole point of `RoutingOptions` is that it
//! changes *when* routes are computed, never *what* is computed. For every
//! engine and a spread of topologies (the paper's Fig. 7 fat trees plus a
//! torus, where the VL-layering engines actually have cycles to break),
//! `compute_with` must return identical tables — LFT bytes, VL assignment,
//! decision count — at 1 worker, 2 workers, and auto (`0`); and, the repair
//! being the same kernel over fewer columns, `repair_with_graph` identical
//! tables *and* an identical cell log.

use ib_observe::Observer;
use ib_routing::testutil::assign_lids;
use ib_routing::{EngineKind, RoutingEngine, RoutingOptions, RoutingTables, SwitchGraph};
use ib_subnet::topology::{fattree, torus, BuiltTopology};
use ib_types::Lid;

fn compute(engine: &dyn RoutingEngine, t: &BuiltTopology, workers: usize) -> RoutingTables {
    engine
        .compute_with(
            &t.subnet,
            RoutingOptions::default().with_workers(workers),
            &Observer::disabled(),
        )
        .expect("engine computes")
}

fn assert_worker_count_invariant(mut t: BuiltTopology, engines: &[EngineKind]) {
    assign_lids(&mut t);
    for &kind in engines {
        let engine = kind.build();
        let reference = compute(engine.as_ref(), &t, 1);
        assert!(
            reference.decisions > 0,
            "{kind} on {}: no routing decisions",
            t.name
        );
        for workers in [2usize, 0] {
            let got = compute(engine.as_ref(), &t, workers);
            assert_eq!(
                reference.lfts, got.lfts,
                "{kind} on {}: LFTs differ at workers={workers}",
                t.name
            );
            assert_eq!(
                reference.vls, got.vls,
                "{kind} on {}: VL assignment differs at workers={workers}",
                t.name
            );
            assert_eq!(
                reference.decisions, got.decisions,
                "{kind} on {}: decision count differs at workers={workers}",
                t.name
            );
        }
        assert_repair_worker_count_invariant(engine.as_ref(), &t, &reference);
    }
}

/// Downs the first switch–switch cable an installed route crosses and
/// repairs the columns crossing it (from either end) at each worker count.
fn assert_repair_worker_count_invariant(
    engine: &dyn RoutingEngine,
    t: &BuiltTopology,
    installed: &RoutingTables,
) {
    let mut subnet = t.subnet.clone();
    let (node, port, dirty) = t
        .all_switches()
        .into_iter()
        .flat_map(|sw| {
            t.subnet
                .node(sw)
                .connected_ports()
                .map(move |(p, r)| (sw, p, r))
        })
        .filter(|(_, _, far)| t.subnet.node(far.node).is_switch())
        .find_map(|(node, port, far)| {
            let crosses = |lid: &Lid| {
                installed.lfts[&node].get(*lid) == Some(port)
                    || installed.lfts[&far.node].get(*lid) == Some(far.port)
            };
            let dirty: Vec<Lid> = t.subnet.lids().into_iter().filter(crosses).collect();
            (!dirty.is_empty()).then_some((node, port, dirty))
        })
        .expect("some cable carries a route");
    subnet.set_link_down(node, port).unwrap();
    let graph = SwitchGraph::build(&subnet).unwrap();
    let repair = |workers: usize| {
        let mut tables = installed.clone();
        let opts = RoutingOptions::default().with_workers(workers);
        let log = engine
            .repair_with_graph(&graph, opts, &mut tables, &dirty, &Observer::disabled())
            .expect("engine repairs");
        (tables, log.cells)
    };
    let (reference, cells) = repair(1);
    assert!(!cells.is_empty(), "{}: the fault moved nothing", t.name);
    for workers in [2usize, 0] {
        let (got, got_cells) = repair(workers);
        let tag = format!(
            "{} repair on {} at workers={workers}",
            engine.name(),
            t.name
        );
        assert_eq!(reference.lfts, got.lfts, "{tag}: LFTs differ");
        assert_eq!(reference.vls, got.vls, "{tag}: VL assignment differs");
        assert_eq!(
            reference.decisions, got.decisions,
            "{tag}: decisions differ"
        );
        assert_eq!(cells, got_cells, "{tag}: cell log differs");
    }
}

#[test]
fn all_engines_invariant_on_paper_324_fat_tree() {
    // The Fig. 7 entry point: 36 switches, 324 hosts, all five engines.
    assert_worker_count_invariant(fattree::paper_324(), &EngineKind::all());
}

#[test]
fn all_engines_invariant_on_odd_shaped_fat_tree() {
    // Asymmetric radices shake out chunk-boundary bugs the regular paper
    // trees would mask.
    assert_worker_count_invariant(fattree::two_level(4, 3, 2), &EngineKind::all());
}

#[test]
fn non_tree_engines_invariant_on_torus() {
    // A wrapped torus has cycles, so DFSSSP and LASH exercise their VL
    // lifting (serial by design) after the parallel distance phases.
    // Fat-tree routing rejects non-tree fabrics, so it sits this one out.
    assert_worker_count_invariant(
        torus::torus_2d(4, 4, 1, true),
        &[
            EngineKind::MinHop,
            EngineKind::UpDown,
            EngineKind::Dfsssp,
            EngineKind::Lash,
        ],
    );
}
