//! The routing-engine abstraction.

use ib_observe::Observer;
use ib_subnet::Subnet;
use ib_types::IbResult;

use crate::graph::SwitchGraph;
use crate::tables::{RoutingTables, Splice, SpliceLog, VlAssignment};

/// Parallelism knobs for one routing computation, mirroring `ib-sm`'s
/// `SweepOptions`: `workers` bounds how many scoped threads the engine may
/// fan its independent phases across (per-delivery-switch BFS, per-switch
/// LFT fill — Min-Hop's port-load balancing included, since each switch
/// counts only its own row's loads). `0` means "use the machine's
/// available parallelism". The order-sensitive serial phases (DFSSSP's
/// weight updates, VL lifting) never parallelize, so the produced
/// [`RoutingTables`] are identical for every worker count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutingOptions {
    /// Worker-thread cap for the parallel phases; `0` = auto.
    pub workers: usize,
}

impl Default for RoutingOptions {
    /// Single-threaded: the conservative default every `compute` call uses.
    fn default() -> Self {
        Self { workers: 1 }
    }
}

impl RoutingOptions {
    /// Builder-style worker override.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Resolves the configured worker count against a job count: `0` maps
    /// to the machine's available parallelism, and the result is clamped to
    /// `1..=jobs` so callers never spawn idle threads.
    #[must_use]
    pub fn effective_workers(&self, jobs: usize) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.workers
        };
        requested.min(jobs).max(1)
    }
}

/// A routing engine: a pure function from a LID-assigned subnet to a full
/// set of LFTs (plus a VL layering when the engine provides one).
///
/// Engines never mutate the subnet; the subnet manager decides when and how
/// (and at what SMP cost) tables reach the switches. The wall-clock time of
/// [`RoutingEngine::compute`] is precisely the `PCt` term of the paper's
/// equation 1 — what Fig. 7 measures and what the vSwitch reconfiguration
/// eliminates.
///
/// An engine is its [`name`](RoutingEngine::name) and **one kernel**,
/// [`route`](RoutingEngine::route); computing and repairing are the two
/// ways this trait runs it.
pub trait RoutingEngine: Send + Sync {
    /// Engine name as it appears in reports (`"fat-tree"`, `"minhop"`, ...).
    fn name(&self) -> &'static str;

    /// The kernel: routes the dirty destination columns of `splice` —
    /// for each (switch, dirty destination) pick an egress port, *keeping
    /// the installed port while it is still a candidate* — and returns the
    /// VL assignment of the result plus the number of route decisions
    /// made. On fresh tables nothing is installed and every column is
    /// dirty, so the same code is the full compute; there is no second
    /// copy to keep in step. Emits the per-phase spans
    /// (`routing.<engine>.distances`, `.assign`, and VL-partition phases
    /// where they exist) into `observer` and fans its parallel phases
    /// across at most `opts` workers; output — log included — is invariant
    /// under the worker count. Only this crate can open a [`Splice`], so
    /// only [`RoutingEngine::compute_with`] and
    /// [`RoutingEngine::repair_with_graph`] ever call it.
    fn route(
        &self,
        splice: &mut Splice<'_>,
        opts: RoutingOptions,
        observer: &Observer,
    ) -> IbResult<(VlAssignment, u64)>;

    /// Computes routing tables for every switch in the subnet:
    /// single-threaded and unobserved.
    fn compute(&self, subnet: &Subnet) -> IbResult<RoutingTables> {
        self.compute_with(subnet, RoutingOptions::default(), &Observer::disabled())
    }

    /// Computes routing tables with explicit parallelism and a metrics
    /// sink: the kernel over every destination of a fresh, unlogged table
    /// set.
    fn compute_with(
        &self,
        subnet: &Subnet,
        opts: RoutingOptions,
        observer: &Observer,
    ) -> IbResult<RoutingTables> {
        let g = SwitchGraph::build(subnet)?;
        let mut tables = RoutingTables::from_lfts(Default::default(), self.name());
        if !g.is_empty() {
            let mut splice = Splice::fresh(&g, &mut tables);
            let (vls, decisions) = self.route(&mut splice, opts, observer)?;
            splice.commit(vls, self.name(), decisions);
        }
        Ok(tables)
    }

    /// Incrementally repairs `tables` **in place** after a fault: the
    /// kernel over only the `dirty_dests` destination columns on `graph`,
    /// written over the baseline, every cell it actually changed returned.
    /// The SM plans distribution, maintains its reverse route index and —
    /// when its verifier gate rejects the result — undoes the repair from
    /// that [`SpliceLog`] alone, so reconfiguration cost scales with the
    /// damage, not the fabric.
    ///
    /// **Splice or `Err`:** on `Ok` only the dirty columns of `tables`
    /// moved and the log lists each cell whose value differs from before
    /// (plus the VL assignment the repair displaced) — never a full
    /// recompute in disguise. On `Err` the LFTs and lanes of `tables` are
    /// exactly what they were. A
    /// baseline that does not cover `graph` or damage a column rewrite
    /// cannot absorb is an `Err`; the caller's answer to it is a full
    /// [`RoutingEngine::compute_with`].
    ///
    /// The picks are *sticky*: a repair's job is the smallest diff, not a
    /// rebalance, so the result approximates (it is not byte-equal to) a
    /// full recompute of the degraded fabric.
    ///
    /// A fat-tree or Min-Hop compute carries its distance field in the
    /// tables it returns. Their repair follows the field to `graph` when
    /// `graph` only lost links since (else the field is dropped and the
    /// repair recomputes its distances); the fat-tree repair then visits a
    /// dirty host column only at the switches whose pick those removals
    /// can have moved — the same cells the full visit would change. An
    /// `Err` restores the LFTs and may drop the field (the next full
    /// compute builds a new one).
    ///
    /// `graph` must be [`SwitchGraph::build`]'s output for the subnet in
    /// its *current* fault state — the SM caches it across repair sweeps in
    /// a quiet topology epoch and rebuilds only when
    /// `Subnet::topology_epoch` moves.
    ///
    /// Callers must treat the result as *untrusted* until it passes
    /// `FabricVerifier` — the splice preserves per-column correctness, but
    /// global properties (deadlock freedom across mixed old/new columns)
    /// need the gate.
    fn repair_with_graph(
        &self,
        graph: &SwitchGraph,
        opts: RoutingOptions,
        tables: &mut RoutingTables,
        dirty_dests: &[ib_types::Lid],
        observer: &Observer,
    ) -> IbResult<SpliceLog> {
        let mut splice = Splice::begin(graph, tables, dirty_dests)?;
        let _span = observer.span(repair_span(self.name()));
        // No dirty column is registered on `graph`: nothing moves, and the
        // lanes the clean columns ride must not be re-settled either; a
        // carried distance field stays as it was (the next repair follows
        // it to its graph).
        let (vls, decisions) = if splice.is_clean() {
            splice.keep_carried_host_distances();
            (splice.vls().clone(), 0)
        } else {
            self.route(&mut splice, opts, observer)?
        };
        Ok(splice.commit(vls, self.name(), decisions))
    }

    /// Repairs a *burst* of faults in one call: folds
    /// [`RoutingEngine::repair_with_graph`] over the per-fault dirty groups
    /// in order, each repair splicing into the previous result, all of them
    /// sharing `graph` and one log. Groups must be disjoint (so no cell is
    /// logged twice) and every faulted link must already be down in `graph`
    /// before the call — then each fold step sees exactly the columns the
    /// corresponding serial repair sweep would have re-routed, and the
    /// final tables are **byte-identical** to running the k repairs one
    /// trap at a time. An `Err` from any step undoes the earlier ones.
    ///
    /// Deliberately *not* a single repair over the union: engines with
    /// load-balancing state (Min-Hop's least-loaded port seeding) give
    /// different — equally valid but not identical — answers when columns
    /// are re-routed together versus one fault at a time, and the batched
    /// path's contract is "same tables, fewer SMPs and verifier passes".
    /// Empty groups (faults fully subsumed by earlier repairs) are skipped,
    /// matching the serial path's clean no-op.
    fn repair_batch_with_graph(
        &self,
        graph: &SwitchGraph,
        opts: RoutingOptions,
        tables: &mut RoutingTables,
        dirty_groups: &[Vec<ib_types::Lid>],
        observer: &Observer,
    ) -> IbResult<SpliceLog> {
        let mut log = SpliceLog::default();
        for group in dirty_groups.iter().filter(|g| !g.is_empty()) {
            match self.repair_with_graph(graph, opts, tables, group, observer) {
                Ok(step) => log.absorb(step),
                Err(e) => {
                    log.undo(tables);
                    return Err(e);
                }
            }
        }
        Ok(log)
    }
}

/// The `routing.<engine>.repair` span name, spelled out per engine so a
/// repair formats nothing; an engine outside [`EngineKind`] shares
/// `routing.repair`.
fn repair_span(engine: &str) -> &'static str {
    match engine {
        "minhop" => "routing.minhop.repair",
        "fat-tree" => "routing.fat-tree.repair",
        "up-down" => "routing.up-down.repair",
        "dfsssp" => "routing.dfsssp.repair",
        "lash" => "routing.lash.repair",
        _ => "routing.repair",
    }
}

/// The engines of Fig. 7 (plus Up*/Down*, used in the deadlock analysis).
///
/// ```
/// use ib_routing::EngineKind;
/// use ib_routing::testutil::assign_lids;
/// use ib_subnet::topology::fattree;
///
/// let mut t = fattree::two_level(2, 2, 2);
/// assign_lids(&mut t);
/// let tables = EngineKind::MinHop.build().compute(&t.subnet).unwrap();
/// assert!(tables.unreachable_pairs(&t.subnet, 16).is_empty());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// OpenSM's default Min-Hop.
    MinHop,
    /// Structured fat-tree routing.
    FatTree,
    /// Up*/Down*.
    UpDown,
    /// Deadlock-free SSSP.
    Dfsssp,
    /// LASH.
    Lash,
}

impl EngineKind {
    /// All engine kinds.
    #[must_use]
    pub fn all() -> [EngineKind; 5] {
        [
            Self::FatTree,
            Self::MinHop,
            Self::UpDown,
            Self::Dfsssp,
            Self::Lash,
        ]
    }

    /// The four engines the paper's Fig. 7 compares.
    #[must_use]
    pub fn fig7() -> [EngineKind; 4] {
        [Self::FatTree, Self::MinHop, Self::Dfsssp, Self::Lash]
    }

    /// Engine name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::MinHop => "minhop",
            Self::FatTree => "fat-tree",
            Self::UpDown => "up-down",
            Self::Dfsssp => "dfsssp",
            Self::Lash => "lash",
        }
    }

    /// Instantiates the engine with default parameters.
    #[must_use]
    pub fn build(self) -> Box<dyn RoutingEngine> {
        match self {
            Self::MinHop => Box::new(crate::minhop::MinHop),
            Self::FatTree => Box::new(crate::ftree::FatTree),
            Self::UpDown => Box::new(crate::updn::UpDown),
            Self::Dfsssp => Box::new(crate::dfsssp::Dfsssp::default()),
            Self::Lash => Box::new(crate::lash::Lash::default()),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(EngineKind::MinHop.name(), "minhop");
        assert_eq!(EngineKind::FatTree.to_string(), "fat-tree");
        assert_eq!(EngineKind::all().len(), 5);
        assert_eq!(EngineKind::fig7().len(), 4);
    }

    #[test]
    fn repair_span_names_match_the_formatted_ones() {
        for kind in EngineKind::all() {
            let name = kind.build().name();
            assert_eq!(repair_span(name), format!("routing.{name}.repair"));
        }
    }

    #[test]
    fn build_matches_kind() {
        for kind in EngineKind::all() {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn routing_options_resolve_workers() {
        assert_eq!(RoutingOptions::default().workers, 1);
        let opts = RoutingOptions::default().with_workers(4);
        assert_eq!(opts.effective_workers(100), 4);
        // Clamped to the job count, floored at one.
        assert_eq!(opts.effective_workers(2), 2);
        assert_eq!(opts.effective_workers(0), 1);
        // Auto resolves to at least one worker.
        assert!(
            RoutingOptions::default()
                .with_workers(0)
                .effective_workers(8)
                >= 1
        );
    }

    #[test]
    fn compute_delegates_to_compute_with() {
        use crate::testutil::assign_lids;
        use ib_subnet::topology::fattree;

        let mut t = fattree::two_level(2, 2, 2);
        assign_lids(&mut t);
        for kind in EngineKind::all() {
            let e = kind.build();
            let a = e.compute(&t.subnet).unwrap();
            let b = e
                .compute_with(
                    &t.subnet,
                    RoutingOptions::default(),
                    &ib_observe::Observer::disabled(),
                )
                .unwrap();
            assert_eq!(a.lfts, b.lfts, "{kind}");
            assert_eq!(a.vls, b.vls, "{kind}");
            assert_eq!(a.decisions, b.decisions, "{kind}");
        }
    }

    /// The scan `ib-verify` performs, inlined against a table set (this
    /// crate sits below `ib-verify` in the dependency order).
    fn affected(
        subnet: &Subnet,
        tables: &crate::tables::RoutingTables,
        node: ib_subnet::NodeId,
        port: ib_types::PortNum,
    ) -> Vec<ib_types::Lid> {
        let mut ends = vec![(node, port)];
        if let Some(r) = subnet
            .node(node)
            .ports
            .get(port.raw() as usize)
            .and_then(|p| p.remote)
        {
            ends.push((r.node, r.port));
        }
        subnet
            .lids()
            .into_iter()
            .filter(|&lid| {
                ends.iter().any(|&(n, p)| {
                    tables
                        .lfts
                        .get(&n)
                        .is_some_and(|lft| lft.get(lid) == Some(p))
                })
            })
            .collect()
    }

    /// `repair_batch_with_graph` over baseline-derived dirty groups (earlier
    /// groups subtracted) must produce tables byte-identical to repairing
    /// the faults one trap at a time, each serial step re-scanning against
    /// the tables the previous repair produced. Valid because every faulted
    /// link is down before either arm starts — the theorem the SM's
    /// batched repair of a burst rests on.
    #[test]
    fn batch_fold_matches_serial_trap_at_a_time_repairs() {
        use crate::testutil::assign_lids;
        use ib_subnet::topology::fattree;

        for kind in EngineKind::all() {
            let mut t = fattree::two_level(4, 4, 2);
            assign_lids(&mut t);
            let engine = kind.build();
            let t0 = engine.compute(&t.subnet).unwrap();

            // Two switch-switch faults on distinct leaves, both downed
            // before any repair (connectivity survives: 4 uplinks/leaf).
            let faults: Vec<(ib_subnet::NodeId, ib_types::PortNum)> = {
                let mut seen = std::collections::HashSet::new();
                t.subnet
                    .switches()
                    .flat_map(|n| n.connected_ports().map(move |(p, ep)| (n.id, p, ep.node)))
                    .filter(|&(n, _, peer)| t.subnet.node(peer).is_switch() && seen.insert(n))
                    .map(|(n, p, _)| (n, p))
                    .take(2)
                    .collect()
            };
            assert_eq!(faults.len(), 2);
            for &(n, p) in &faults {
                t.subnet.set_link_down(n, p).unwrap();
            }

            // Serial arm: re-scan against the evolving tables.
            let g = SwitchGraph::build(&t.subnet).unwrap();
            let opts = RoutingOptions::default();
            let obs = ib_observe::Observer::disabled();
            let mut serial = t0.clone();
            let mut serial_cells = Vec::new();
            for &(n, p) in &faults {
                let dirty = affected(&t.subnet, &serial, n, p);
                if dirty.is_empty() {
                    continue;
                }
                let log = engine
                    .repair_with_graph(&g, opts, &mut serial, &dirty, &obs)
                    .unwrap();
                serial_cells.extend(log.cells);
            }

            // Batch arm: groups precomputed from the T0 baseline, earlier
            // groups subtracted.
            let mut seen: std::collections::HashSet<ib_types::Lid> = Default::default();
            let groups: Vec<Vec<ib_types::Lid>> = faults
                .iter()
                .map(|&(n, p)| {
                    affected(&t.subnet, &t0, n, p)
                        .into_iter()
                        .filter(|&lid| seen.insert(lid))
                        .collect()
                })
                .collect();
            let mut batch = t0.clone();
            let log = engine
                .repair_batch_with_graph(&g, opts, &mut batch, &groups, &obs)
                .unwrap();

            // One log for the whole burst: the serial steps' cells, in
            // order — and undoing it is undoing all of them.
            assert_eq!(log.cells, serial_cells, "{kind}");
            let mut undone = batch.clone();
            log.undo(&mut undone);
            assert_eq!(undone.lfts, t0.lfts, "{kind}");
            assert_eq!(undone.vls, t0.vls, "{kind}");
            assert_eq!(batch.lfts, serial.lfts, "{kind}");
            assert_eq!(batch.vls, serial.vls, "{kind}");
        }
    }
}
