//! The subnet manager proper.

use std::time::Instant;

use ib_mad::{SmpLedger, SmpTransport};
use ib_observe::Observer;
use ib_routing::{CellChange, EngineKind, LidMove, RoutingOptions};
use ib_subnet::{lft::min_blocks_for, NodeId, Subnet};
use ib_types::{IbResult, Lid, LidSpace};
use std::collections::HashSet;

use crate::carried::Carried;
use crate::discovery;
use crate::distribution;
use crate::lids;
use crate::quarantine::LinkQuarantine;
use crate::report::BringUpReport;
use crate::resweep::SweepKind;

/// How the SM addresses its SMPs.
///
/// OpenSM uses directed routing for everything (necessary during discovery
/// and whenever switch routes may be stale). §VI-B's improvement: during a
/// vSwitch migration the switch LIDs are stable, so destination routing is
/// safe and removes the `r` overhead (equation 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SmpMode {
    /// Source-routed, hop-pointer rewriting at every switch.
    Directed,
    /// LID-routed through the installed LFTs.
    Destination,
}

/// Parallelism knobs for the SM's heavy sweep.
///
/// The sweep's per-switch work — diffing the installed LFT against the
/// padded target and materializing dirty-block payloads — is read-only over
/// the subnet, so it fans out across scoped worker threads. The SMP
/// *stream* stays serialized in ascending switch order afterwards, so the
/// ledger and the installed tables are byte-identical whatever `workers`
/// is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepOptions {
    /// Planning worker threads. `1` (the default) plans inline on the
    /// calling thread; `0` means "use the machine's available parallelism".
    pub workers: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self { workers: 1 }
    }
}

impl SweepOptions {
    /// A sweep fanned out over `workers` planning threads.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        Self { workers }
    }

    /// The thread count to actually spawn for `jobs` independent units:
    /// the routing engines' rule, [`RoutingOptions::effective_workers`].
    #[must_use]
    pub fn effective_workers(&self, jobs: usize) -> usize {
        RoutingOptions::default()
            .with_workers(self.workers)
            .effective_workers(jobs)
    }
}

/// Subnet manager configuration.
///
/// Flap damping is not a setting: a driver with a clock feeds traps to
/// [`SubnetManager::handle_trap_at`], which always damps, and
/// [`SubnetManager::handle_trap`] never does.
#[derive(Clone, Copy, Debug)]
pub struct SmConfig {
    /// Which routing engine computes paths.
    pub engine: EngineKind,
    /// How configuration SMPs are addressed.
    pub smp_mode: SmpMode,
    /// How the heavy sweep parallelizes its planning work.
    pub sweep: SweepOptions,
    /// How the routing engines parallelize their path computation.
    pub routing: RoutingOptions,
    /// Verify the fabric invariants (black holes, forwarding loops,
    /// deadlock cycles, LID addressing) against the *installed* tables
    /// after every sweep and converged re-sweep, failing the operation on
    /// any violation. The deadlock check runs with the VL layering the
    /// engine produced — enabling this with an engine that makes no
    /// deadlock guarantee (Min-Hop) on a cyclic fabric will fail by
    /// design. Off by default.
    pub verify: bool,
    /// Answer link-down traps with an *incremental repair* sweep: re-route
    /// only the destination columns whose installed paths crossed the
    /// failed link (read off the [`ib_verify::ReverseRouteIndex`], re-routed
    /// by the engine's `repair_with_graph`), splice them into the last
    /// computed tables, and distribute just the dirty blocks. Every repair
    /// is gated by the fabric verifier; any rejection (or a missing
    /// baseline, or an engine `Err`) falls back to the usual full sweep and
    /// counts `repair.fallback`. Off by default — the traditional
    /// full-recompute path.
    pub repair: bool,
}

impl Default for SmConfig {
    fn default() -> Self {
        Self {
            engine: EngineKind::MinHop,
            smp_mode: SmpMode::Directed,
            sweep: SweepOptions::default(),
            routing: RoutingOptions::default(),
            verify: false,
            repair: false,
        }
    }
}

/// The master subnet manager: owns the LID space and the SMP ledger, runs
/// bring-ups and full reconfigurations.
#[derive(Debug)]
pub struct SubnetManager {
    config: SmConfig,
    /// Node the SM runs on.
    pub sm_node: NodeId,
    /// Allocator over the unicast LID space.
    pub lid_space: LidSpace,
    /// Every SMP this SM ever sent.
    pub ledger: SmpLedger,
    /// Per-link flap damping state, fed by [`Self::handle_trap_at`].
    pub quarantine: LinkQuarantine,
    /// The state derived from the installed LFTs — repair baseline, reverse
    /// route index, channel dependency graph, switch graph — and the one
    /// owner of when it moves, stays or goes.
    pub(crate) carried: Carried,
    /// Degraded-mode ledger: LIDs the last sweep proved unreachable from
    /// the SM (the far side of a fabric split), in ascending order. Empty
    /// when the fabric is whole. A heal sweep must show every one of these
    /// regained a full destination column before the ledger clears.
    pub(crate) unreachable_lids: Vec<Lid>,
    /// The nodes beyond the split — switches in foreign components plus
    /// the endpoints hanging off them. Their traps are absorbed (no MAD
    /// from a lost component can physically reach the SM) and their LFTs
    /// are excluded from distribution until a heal reconnects them.
    pub(crate) lost_nodes: HashSet<NodeId>,
}

impl SubnetManager {
    /// Creates an SM hosted on `sm_node`.
    #[must_use]
    pub fn new(sm_node: NodeId, config: SmConfig) -> Self {
        Self {
            config,
            sm_node,
            lid_space: LidSpace::new(),
            ledger: SmpLedger::new(),
            quarantine: LinkQuarantine::default(),
            carried: Carried::default(),
            unreachable_lids: Vec::new(),
            lost_nodes: HashSet::new(),
        }
    }

    /// Toggles the incremental-repair sweep at runtime (see
    /// [`SmConfig::repair`]); chaos harnesses flip this per event to
    /// interleave repair and full sweeps on one fabric.
    pub fn set_repair(&mut self, on: bool) {
        self.config.repair = on;
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> SmConfig {
        self.config
    }

    /// The metrics sink the SM (through its ledger) reports into.
    #[must_use]
    pub fn observer(&self) -> &Observer {
        self.ledger.observer()
    }

    /// Attaches a metrics sink: every SMP the ledger records and every
    /// pipeline phase the SM runs is mirrored into it from here on.
    pub fn set_observer(&mut self, observer: Observer) {
        self.ledger.set_observer(observer);
    }

    /// Full fabric bring-up: discovery sweep, LID assignment, path
    /// computation, LFT distribution.
    ///
    /// ```
    /// use ib_sm::{SmConfig, SubnetManager};
    /// use ib_subnet::topology::fattree;
    ///
    /// let mut t = fattree::two_level(2, 3, 2);
    /// let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
    /// let report = sm.bring_up(&mut t.subnet).unwrap();
    /// assert_eq!(report.lids, 10);                       // 4 switches + 6 hosts
    /// assert_eq!(report.distribution.lft_smps, 4);       // n x m = 4 x 1
    /// assert_eq!(sm.ledger.total(), report.total_smps());
    /// ```
    pub fn bring_up(&mut self, subnet: &mut Subnet) -> IbResult<BringUpReport> {
        let disc = {
            let _span = self.ledger.observer().span("sm.discovery");
            discovery::sweep(subnet, self.sm_node, &mut self.ledger)?
        };
        let discovery_smps = self.ledger.phase_total("discovery");

        let lid_smps = {
            let _span = self.ledger.observer().span("sm.lid_assignment");
            lids::assign_all(subnet, &disc, &mut self.lid_space, &mut self.ledger)?
        };

        let report = self.full_reconfiguration(subnet)?;
        Ok(BringUpReport {
            discovery_smps,
            lid_smps,
            ..report
        })
    }

    /// The *traditional* full reconfiguration the paper's §VI-A costs out:
    /// recompute every path (`PCt`) and redistribute dirty LFT blocks
    /// (`LFTDt`). This is what a live migration would trigger without the
    /// vSwitch reconfiguration method.
    ///
    /// It is a light sweep over the assumed channel with nothing to resume:
    /// a dirty switch no SMP can be addressed to is an error.
    pub fn full_reconfiguration(&mut self, subnet: &mut Subnet) -> IbResult<BringUpReport> {
        let engine = self.config.engine.build();
        let started = Instant::now();
        let tables = {
            let _span = self.ledger.observer().span("sm.routing");
            engine.compute_with(subnet, self.config.routing, self.ledger.observer())?
        };
        let path_computation = started.elapsed();
        let decisions = tables.decisions;

        let mut transport = SmpTransport::assumed(self.sm_node);
        let sweep = self.send_fresh(subnet, tables, SweepKind::Light, &mut transport)?;
        distribution::refuse_stranded(
            subnet,
            self.sm_node,
            self.config.smp_mode,
            &sweep.failed_blocks,
        )?;
        Ok(BringUpReport {
            discovery_smps: 0,
            lid_smps: 0,
            path_computation,
            decisions,
            distribution: sweep.distribution,
            lids: subnet.num_lids(),
            min_blocks_per_switch: subnet.topmost_lid().map_or(0, min_blocks_for),
            engine: engine.name().to_string(),
        })
    }

    /// Tells the SM which cells were rewritten on the fabric *behind its
    /// back* — an Algorithm-1 LID swap/copy or a vSwitch route update writes
    /// LFT rows without a sweep. Each cell's new value goes into the repair
    /// baseline (on the switches the baseline holds) and moves in the
    /// reverse index, so a later incremental repair splices against what is
    /// actually on the switches instead of silently reverting the move —
    /// at the cost of the cells that moved, not of the fabric.
    ///
    /// The list must be exact (one entry per cell whose installed value
    /// changed): debug builds cross-check every column it names against
    /// `subnet`'s installed rows.
    ///
    /// `moved` names the LID move that wrote the cells, when one did: the
    /// lanes of the baseline's VL assignment move the same way, so
    /// [`Self::installed_vls`] keeps describing the lanes the moved columns
    /// ride. Under a per-path layering (DFSSSP) that means the SA now
    /// answers a new SL for a swapped LID. The carried channel dependency
    /// graph survives a [`LidMove::Swap`] on a whole fabric, whose lanes'
    /// graphs it leaves unchanged (debug builds check it against a
    /// rebuild); after any other write it is dropped, and the next repair
    /// gate rebuilds it.
    pub fn note_cells_changed(
        &mut self,
        subnet: &Subnet,
        cells: &[CellChange],
        moved: Option<LidMove>,
    ) {
        let whole = self.lost_nodes.is_empty();
        self.carried.apply(subnet, whole, cells, moved);
    }

    /// Audits the reverse route index against the installed tables,
    /// returning one line per stale `(switch, port)` destination set —
    /// empty when the index is absent (nothing to audit) or exact. The
    /// soak harness calls this after every event.
    #[must_use]
    pub fn verify_route_index(&self, subnet: &Subnet) -> Vec<String> {
        self.carried
            .index()
            .map(|idx| idx.mismatches(subnet))
            .unwrap_or_default()
    }

    /// The live reverse route index, when one mirrors the installed LFTs
    /// (rebuilt by converged full sweeps, spliced per changed cell by
    /// repairs). `None` after stranded blocks, or a sweep that failed once
    /// its SMPs went out, until the next full sweep converges — which the
    /// next link-down trap forces (`repair.index_misses`).
    #[must_use]
    pub fn route_index(&self) -> Option<&ib_verify::ReverseRouteIndex> {
        self.carried.index()
    }

    /// The carried channel dependency graph, when one mirrors the installed
    /// LFTs (left by a full audit, patched by repair gates). It must equal
    /// [`ib_verify::FabricVerifier::channel_deps`] of the installed rows
    /// under [`Self::installed_vls`].
    #[must_use]
    pub fn channel_deps(&self) -> Option<&ib_verify::ChannelDeps> {
        self.carried.deps()
    }

    /// The virtual-lane assignment of the last computed tables, for
    /// running the deadlock-aware verifier against the installed fabric
    /// ([`ib_verify::FabricVerifier::verify_with_vls`]). `None` before
    /// the first sweep.
    #[must_use]
    pub fn installed_vls(&self) -> Option<&ib_routing::VlAssignment> {
        self.carried.baseline().map(|t| &t.vls)
    }

    /// Re-labels the fabric's connected components after a sweep computed
    /// fresh tables, updating the degraded-mode ledger. A split is counted
    /// (`sm.partitioned` per sweep that still sees it, `sm.unreachable_lids`
    /// with the stranded LID count); a fabric that is whole again clears
    /// the ledger. Returns the LIDs that were unreachable *before* this
    /// refresh so the caller can prove a heal restored their columns
    /// ([`Self::verify_healed`]).
    pub(crate) fn refresh_partition_state(&mut self, subnet: &Subnet) -> Vec<Lid> {
        let prior = std::mem::take(&mut self.unreachable_lids);
        self.lost_nodes.clear();
        let graph = self.carried.switch_graph(subnet).ok();
        if let Some((lost, lids)) =
            graph.and_then(|(g, _)| Self::scan_lost(subnet, self.sm_node, g))
        {
            let observer = self.ledger.observer();
            observer.incr("sm.partitioned");
            observer.add("sm.unreachable_lids", lids.len() as u64);
            self.lost_nodes = lost;
            self.unreachable_lids = lids;
        }
        prior
    }

    /// Labels the connected components of the switch graph and, on a split,
    /// returns the nodes beyond the SM's component (everything not in it)
    /// together with the LIDs registered there. `None` when the fabric is
    /// whole — or when no component can be labeled at all (the SM host's
    /// own uplink is down, or the degraded subnet cannot express a switch
    /// graph), in which case the sweep proceeds as on a whole fabric.
    fn scan_lost(
        subnet: &Subnet,
        sm_node: NodeId,
        graph: &ib_routing::SwitchGraph,
    ) -> Option<(HashSet<NodeId>, Vec<Lid>)> {
        let comps = graph.components();
        if !comps.is_partitioned() {
            return None;
        }
        // Anchor the scan at the switch the SM talks through (the SM host
        // itself when it *is* a switch).
        let anchor = if subnet.node(sm_node).is_switch() {
            sm_node
        } else {
            subnet
                .node(sm_node)
                .connected_ports()
                .map(|(_, r)| r.node)
                .find(|&n| subnet.node(n).is_switch())?
        };
        let scope = comps.label_of(graph.index(anchor)?);
        let in_scope = |node: NodeId| {
            graph
                .index(node)
                .is_some_and(|i| comps.label_of(i) == scope)
        };
        let mut lost = HashSet::new();
        let mut lids = Vec::new();
        for n in subnet.nodes().filter(|n| n.is_alive()) {
            let reachable = if n.id == sm_node {
                true
            } else if n.is_switch() {
                in_scope(n.id)
            } else {
                // An endpoint follows whichever switch still links it in.
                n.connected_ports().any(|(_, r)| in_scope(r.node))
            };
            if !reachable {
                lids.extend(n.lids());
                lost.insert(n.id);
            }
        }
        lids.sort_unstable();
        Some((lost, lids))
    }

    /// After a sweep on a fabric that is whole again: every LID the split
    /// had stranded — and that still exists — must have regained a full
    /// destination column on every switch, or the heal is declared broken.
    /// Counts `sm.healed` once per recovery. A no-op while still degraded
    /// or when nothing was stranded.
    pub(crate) fn verify_healed(&self, subnet: &Subnet, stranded: &[Lid]) -> IbResult<()> {
        if stranded.is_empty() || !self.unreachable_lids.is_empty() {
            return Ok(());
        }
        self.ledger.observer().incr("sm.healed");
        for &lid in stranded {
            if subnet.endpoint_of(lid).is_none() {
                continue; // pruned while lost; nothing to restore
            }
            for sw in subnet.switches() {
                if sw.lft().is_some_and(|l| l.get(lid).is_none()) {
                    return Err(ib_types::IbError::Management(format!(
                        "heal verification failed: {} has no route toward \
                         previously-unreachable LID {lid}",
                        subnet.name_of(sw.id)
                    )));
                }
            }
        }
        Ok(())
    }

    /// The LIDs the last sweep left unreachable (ascending), empty when
    /// the fabric is whole. The soak harness and drivers read this to know
    /// whether the SM is serving a degraded fabric.
    #[must_use]
    pub fn unreachable_lids(&self) -> &[Lid] {
        &self.unreachable_lids
    }

    /// True while the SM is serving only its own component of a split
    /// fabric.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.unreachable_lids.is_empty() || !self.lost_nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::torus::torus_2d;

    #[test]
    fn bring_up_configures_fat_tree_end_to_end() {
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        let report = sm.bring_up(&mut t.subnet).unwrap();

        assert_eq!(report.lids, 10);
        assert_eq!(report.lid_smps, 10);
        assert_eq!(report.min_blocks_per_switch, 1);
        assert_eq!(report.distribution.lft_smps, 4); // 4 switches x 1 block.
        assert!(report.decisions > 0);

        // Every host reaches every other host through the installed LFTs.
        for &a in &t.hosts {
            for &b in &t.hosts {
                let lid = t.subnet.node(b).ports[1].lid.unwrap();
                let path = t.subnet.trace_route(a, lid, 16).unwrap();
                assert_eq!(*path.last().unwrap(), b);
            }
        }
    }

    #[test]
    fn verified_bring_up_passes_and_counts() {
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                verify: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("verify.runs"), 1);
        assert_eq!(snap.counter("verify.clean"), 1);
        assert_eq!(snap.counter("verify.violations"), 0);
        assert_eq!(snap.spans_named("verify.run").len(), 1);
    }

    #[test]
    fn verified_bring_up_rejects_corrupted_tables() {
        // Corrupt a row behind the SM's back *between* two sweeps: the
        // second (verifying) reconfiguration must refuse the fabric...
        // except a full reconfiguration rewrites the corrupt row. Instead
        // corrupt a LID registration, which no sweep repairs.
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                verify: true,
                ..SmConfig::default()
            },
        );
        sm.bring_up(&mut t.subnet).unwrap();
        // Duplicate LID ownership: host 5's port claims host 4's LID.
        let stolen = t.subnet.node(t.hosts[4]).ports[1].lid.unwrap();
        t.subnet.node_mut(t.hosts[5]).ports[1].lid = Some(stolen);
        let err = sm.full_reconfiguration(&mut t.subnet).unwrap_err();
        assert!(
            err.to_string().contains("fabric verification failed"),
            "{err}"
        );
    }

    /// A full sweep that fails after its SMPs went out leaves nothing
    /// trusted: no index, no dependency graph. The next link-down is one
    /// counted `repair.index_misses` fallback whose full sweep revives the
    /// index, and the link-down after it is an ordinary repair again.
    #[test]
    fn a_failed_full_sweep_leaves_nothing_trusted() {
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                verify: true,
                repair: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        assert!(sm.route_index().is_some() && sm.channel_deps().is_some());
        // Duplicate LID ownership: host 5's port claims host 4's LID.
        let own = t.subnet.node(t.hosts[5]).ports[1].lid;
        let stolen = t.subnet.node(t.hosts[4]).ports[1].lid;
        t.subnet.node_mut(t.hosts[5]).ports[1].lid = stolen;
        assert!(sm.full_reconfiguration(&mut t.subnet).is_err());
        assert!(sm.route_index().is_none());
        assert!(sm.channel_deps().is_none());

        t.subnet.node_mut(t.hosts[5]).ports[1].lid = own;
        let mut transport = ib_mad::SmpTransport::perfect(sm.sm_node);
        let trap = crate::testutil::down_uplink(&mut t, 0, 0);
        let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        assert_eq!(report.kind, SweepKind::Light);
        assert!(sm.route_index().is_some(), "index is live again");
        assert!(sm.verify_route_index(&t.subnet).is_empty());
        let trap = crate::testutil::down_uplink(&mut t, 1, 0);
        let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        assert_eq!(report.kind, SweepKind::Repair);
        crate::testutil::assert_all_pairs_connected(&t, &[]);

        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.index_misses"), 1);
        assert_eq!(snap.counter("repair.fallback"), 1);
        assert_eq!(snap.counter("repair.success"), 1);
    }

    #[test]
    fn full_reconfiguration_without_changes_sends_nothing() {
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.bring_up(&mut t.subnet).unwrap();
        let again = sm.full_reconfiguration(&mut t.subnet).unwrap();
        assert_eq!(again.distribution.lft_smps, 0);
    }

    #[test]
    fn dfsssp_brings_up_torus() {
        let mut t = torus_2d(3, 3, 1, true);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                engine: EngineKind::Dfsssp,
                smp_mode: SmpMode::Directed,
                ..SmConfig::default()
            },
        );
        let report = sm.bring_up(&mut t.subnet).unwrap();
        assert_eq!(report.engine, "dfsssp");
        for &b in &t.hosts {
            let lid = t.subnet.node(b).ports[1].lid.unwrap();
            let path = t.subnet.trace_route(t.hosts[0], lid, 32).unwrap();
            assert_eq!(*path.last().unwrap(), b);
        }
    }

    #[test]
    fn ledger_phases_cover_pipeline() {
        let mut t = two_level(2, 2, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        let report = sm.bring_up(&mut t.subnet).unwrap();
        assert_eq!(sm.ledger.phase_total("discovery"), report.discovery_smps);
        assert_eq!(sm.ledger.phase_total("lid-assignment"), report.lid_smps);
        assert_eq!(
            sm.ledger.phase_total("lft-distribution"),
            report.distribution.lft_smps
        );
        assert_eq!(sm.ledger.total(), report.total_smps());
    }

    #[test]
    fn destination_mode_after_directed_bring_up() {
        // First bring-up must be directed (no LFTs yet); once tables are in
        // place a second SM can run destination-routed.
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.bring_up(&mut t.subnet).unwrap();

        // Nudge a LID to force redistribution: move host 5 to a new LID.
        let h5 = t.hosts[5];
        let old = t.subnet.node(h5).ports[1].lid.unwrap();
        t.subnet.clear_lid(old).unwrap();
        t.subnet
            .assign_port_lid(h5, ib_types::PortNum::new(1), ib_types::Lid::from_raw(40))
            .unwrap();

        let mut sm2 = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                engine: EngineKind::MinHop,
                smp_mode: SmpMode::Destination,
                ..SmConfig::default()
            },
        );
        let report = sm2.full_reconfiguration(&mut t.subnet).unwrap();
        assert!(report.distribution.lft_smps > 0);
        assert!(sm2.ledger.records().iter().all(|r| !r.directed));
    }
}
