//! Full re-sweeps, and the one tail every sweep takes to the switches.
//!
//! OpenSM reacts to a fault with a *light sweep* — reroute and redistribute
//! over the topology it already knows — and escalates to a *heavy sweep*
//! (full rediscovery) when the light sweep finds the topology itself
//! changed underneath it.
//!
//! The implementation here keeps the paper's central invariant: a re-sweep
//! **adopts** the surviving LID and LFT state rather than renumbering. LIDs
//! of nodes that fell off the fabric are pruned and released; every
//! surviving node keeps its LID, so live connections (§II-C: "the LID is
//! part of the connection state") are undisturbed.
//!
//! A full sweep and a repair are the same operation at two sizes (§VI-A's
//! `n·m` blocks against §V-C's few rows), so once tables exist both go
//! through one tail, `send_tables`: distribute, gate what converged, move
//! the carried mirror. A repair scopes it to the cells it changed; a full
//! sweep lends a fresh mirror of its computed tables and sends every
//! block. Distribution is resumable: blocks whose `Set` SMPs exhaust their
//! retries are retried in follow-up passes without resending what already
//! landed.
//!
//! Discovery `Get`s are modeled fault-free: the SM retries discovery
//! indefinitely in practice, and the interesting accounting — extra `Set`
//! SMPs, retries, rollbacks — is all on the configuration side.

use ib_mad::fault::{SmpChannel, SmpTransport};
use ib_routing::CellChange;
use ib_subnet::{NodeId, Subnet};
use ib_types::{IbError, IbResult, Lid, PortNum, LFT_BLOCK_SIZE};
use ib_verify::{FabricVerifier, VerifyReport};

use crate::carried::Mirror;
use crate::discovery;
use crate::distribution::{self, FailedBlock, ResumeAccounting};
use crate::report::DistributionReport;
use crate::sm::SubnetManager;

/// Maximum resume passes over failed blocks before a sweep gives up. With
/// the default 4-attempt retry policy this bounds the per-block attempt
/// budget at 68 sends — plenty for any loss rate the harness sweeps, while
/// still terminating against a transport that loses every SMP.
const MAX_RETRY_PASSES: usize = 16;

/// How deep a re-sweep went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepKind {
    /// Reroute + redistribute over the known topology.
    Light,
    /// Full rediscovery, pruning of vanished nodes, then reroute.
    Heavy,
    /// Incremental repair: only the destination columns whose installed
    /// paths crossed the failed link were re-routed and redistributed.
    Repair,
}

/// What a trap-driven re-sweep did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResweepReport {
    /// How the trap was answered.
    pub kind: SweepKind,
    /// True if a light sweep found stale topology and escalated to heavy.
    pub escalated: bool,
    /// LIDs pruned (cleared and released) because their owners fell off
    /// the fabric. Always empty for a pure light sweep — surviving LIDs
    /// are never renumbered.
    pub pruned_lids: Vec<Lid>,
    /// Nodes dropped from the active fabric.
    pub removed_nodes: usize,
    /// Accumulated distribution accounting across all resume passes.
    pub distribution: DistributionReport,
    /// Resume passes over failed blocks (0 = everything landed first try).
    pub retry_passes: usize,
    /// Blocks still undelivered when the sweep gave up (empty on success).
    pub failed_blocks: Vec<FailedBlock>,
}

impl ResweepReport {
    /// The report of a trap answered without sending anything: absorbed,
    /// or a repair that found no dirty column.
    pub(crate) fn idle(kind: SweepKind) -> Self {
        Self {
            kind,
            escalated: false,
            pruned_lids: Vec::new(),
            removed_nodes: 0,
            distribution: DistributionReport::default(),
            retry_passes: 0,
            failed_blocks: Vec::new(),
        }
    }
}

impl SubnetManager {
    /// Light sweep: recompute routes over the currently known topology and
    /// push the dirty blocks. LIDs are not touched. A fabric split is *not*
    /// an error here: the engines route each component on its own and clear
    /// the cross-component columns, the SM enters counted degraded mode
    /// (`sm.partitioned`) and keeps serving its own side. Escalation to a
    /// heavy sweep remains for genuine engine failures — topology the
    /// engine cannot even express (e.g. a LID stranded on a switchless
    /// endpoint), which only rediscovery-plus-pruning repairs.
    pub fn light_sweep<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<ResweepReport> {
        let span = self.ledger.observer().span("resweep.light");
        let engine = self.config().engine.build();
        let routing = self.config().routing;
        match engine.compute_with(subnet, routing, self.ledger.observer()) {
            Ok(tables) => {
                self.ledger.observer().incr("resweep.light");
                self.send_fresh(subnet, tables, SweepKind::Light, transport)
            }
            Err(_) => {
                span.end();
                self.ledger.observer().incr("resweep.escalated");
                let mut report = self.heavy_sweep(subnet, transport)?;
                report.escalated = true;
                Ok(report)
            }
        }
    }

    /// Heavy sweep: rediscover the fabric from the SM node, drop every
    /// previously active node the sweep no longer reaches *and cannot come
    /// back on its own* (pruning and releasing its LIDs — *without*
    /// renumbering any survivor), then recompute and redistribute routes.
    ///
    /// Partition tolerance narrows the prune set: a node that is alive and
    /// still holds live cables merely sits beyond a split — its LIDs are
    /// kept so the heal sweep restores it in place. What is pruned: dead
    /// nodes' LID registrations, and live nodes whose every cable went down
    /// with a dead neighbor (nothing short of recabling reconnects those).
    pub fn heavy_sweep<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<ResweepReport> {
        let _span = self.ledger.observer().span("resweep.heavy");
        self.ledger.observer().incr("resweep.heavy");
        let disc = discovery::sweep(subnet, self.sm_node, &mut self.ledger)?;
        let mut reached = vec![false; subnet.num_nodes()];
        for &n in &disc.nodes {
            reached[n.index()] = true;
        }

        // Prune what the sweep lost for good. Nodes that never joined —
        // e.g. dormant dynamic-mode VFs with no cable and no LID — are
        // left alone, as are nodes already processed by an earlier sweep
        // and live nodes beyond a split (they keep their LIDs for the
        // heal).
        let mut pruned_lids = Vec::new();
        let mut removed_nodes = 0;
        let lost: Vec<NodeId> = subnet
            .nodes()
            .filter(|n| !reached[n.id.index()])
            .filter(|n| {
                if n.is_alive() {
                    n.connected_ports().next().is_none()
                        && (n.lids().next().is_some() || n.cabled_ports().next().is_some())
                } else {
                    n.lids().next().is_some()
                }
            })
            .map(|n| n.id)
            .collect();
        for id in lost {
            let lids: Vec<Lid> = subnet.node(id).lids().collect();
            for lid in lids {
                subnet.clear_lid(lid)?;
                let _ = self.lid_space.release(lid);
                pruned_lids.push(lid);
            }
            if subnet.is_alive(id) {
                subnet.remove_node(id)?;
            }
            removed_nodes += 1;
        }
        if !pruned_lids.is_empty() {
            let observer = self.ledger.observer();
            observer.add("resweep.pruned_lids", pruned_lids.len() as u64);
            observer.add("resweep.removed_nodes", removed_nodes as u64);
        }

        let engine = self.config().engine.build();
        let routing = self.config().routing;
        let tables = engine.compute_with(subnet, routing, self.ledger.observer())?;
        Ok(ResweepReport {
            pruned_lids,
            removed_nodes,
            ..self.send_fresh(subnet, tables, SweepKind::Heavy, transport)?
        })
    }

    /// A full sweep once fresh `tables` exist — bring-up and full
    /// reconfiguration over the assumed channel included: lends a fresh
    /// mirror of `tables`, sends every block through [`Self::send_tables`]
    /// and settles it. A gate rejection is a hard error.
    pub(crate) fn send_fresh<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        tables: ib_routing::RoutingTables,
        kind: SweepKind,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<ResweepReport> {
        let mut mirror = self.carried.lend_fresh(subnet, tables);
        let outcome = self.send_tables(subnet, None, &[], kind, &mut mirror, transport);
        self.carried.settle(subnet, mirror, &[]);
        let failed = |v: VerifyReport| format!("fabric verification failed: {}", v.summary());
        outcome?.map_err(|verdict| IbError::Management(failed(verdict)))
    }

    /// The SM's one path from tables to switches, once `mirror`'s baseline
    /// holds what is to go out: refreshes the partition ledger, distributes
    /// resumably, gates what converged, proves a heal and moves the mirror.
    /// A repair's `scope` is the cells it changed and `faults` its links:
    /// it sends the blocks those cells fall in, gates exactly the installed
    /// cells the blocks moved (its cells, plus any baseline ≠ installed
    /// divergence a block carried) on the carried graph, and moves the
    /// index by them. A full sweep's (`None`) is every block of fresh
    /// tables: with `config.verify` the gate is the full audit of the SM's
    /// component, and the index is rebuilt from the installed rows.
    /// Stranded blocks leave the fabric inconsistent by design, so they skip
    /// the gate and count it. A rejection returns the gate's verdict; it,
    /// stranded blocks and an `Err` leave the mirror to settle diverged.
    pub(crate) fn send_tables<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        scope: Option<&[CellChange]>,
        faults: &[(NodeId, PortNum)],
        kind: SweepKind,
        mirror: &mut Mirror,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<Result<ResweepReport, VerifyReport>> {
        let observer = self.ledger.observer();
        // The switches hold the padded baseline (the live index vouches for
        // it), so only blocks containing a changed cell can be dirty.
        let blocks = scope.map(|cells| {
            observer.add("repair.changed_cells", cells.len() as u64);
            let blocks = distribution::sorted_blocks(cells.iter().map(|c| FailedBlock {
                switch: c.switch,
                block: c.lid.lft_block(),
            }));
            observer.add("repair.planned_blocks", blocks.len() as u64);
            blocks
        });
        let healed = self.refresh_partition_state(subnet);
        let before = (blocks.as_deref()).map(|blocks| installed_blocks(subnet, blocks));
        let carried = mirror.send();
        let tables = &mirror.tables;
        let report =
            self.distribute_resumably(subnet, tables, blocks.as_deref(), kind, transport)?;
        let (observer, verify) = (self.ledger.observer(), self.config().verify);
        if !report.failed_blocks.is_empty() {
            match scope {
                Some(_) => observer.incr("repair.unconverged"),
                None if verify => observer.incr("verify.skipped_unconverged"),
                None => {}
            }
            return Ok(Ok(report));
        }
        let gate = FabricVerifier::new().with_deadlock(verify);
        let (gate, vls) = (gate.with_viewpoint(self.sm_node), &tables.vls);
        let (moved, gated) = match blocks.zip(before) {
            Some((blocks, before)) => {
                let moved = moved_cells(subnet, &blocks, &before);
                let gated = gate.verify_moved(subnet, vls, &moved, faults, carried, observer)?;
                (Some(moved), Some(gated))
            }
            None if verify => (None, Some(gate.audit(subnet, vls, observer)?)),
            None => (None, None),
        };
        let (verdict, deps) = gated.unzip();
        if let Some(verdict) = verdict.filter(|v| !v.is_clean()) {
            return Ok(Err(verdict));
        }
        self.verify_healed(subnet, &healed)?;
        let _span = moved.as_ref().map(|_| observer.span("repair.index_splice"));
        mirror.apply(subnet, moved.as_deref(), deps.flatten());
        Ok(Ok(report))
    }

    /// Distribution with bounded resume passes: failed blocks are retried
    /// until they land, progress stops, or the pass budget runs out.
    ///
    /// Accounting merges per-switch across passes ([`ResumeAccounting`]),
    /// so the returned report equals the fault-free report once every block
    /// has landed — a switch split across passes is counted once in
    /// `switches_updated` and its blocks sum in `max_blocks_per_switch`.
    ///
    /// On a split fabric, switches beyond the cut are not served (counted
    /// as `sm.switches_unserved`) instead of burning all
    /// [`MAX_RETRY_PASSES`] against links no SMP can cross; the heal sweep
    /// rewrites their rows wholesale. A pass that sends no SMP at all ends
    /// the retries too: its failed blocks all sit on switches no SMP can
    /// address, and nothing a further pass sees has changed.
    ///
    /// `candidates` narrows the first pass's diff to the blocks a repair
    /// changed (`None`: every block of every switch); the retry passes
    /// narrow theirs to what failed — already in planning order — by the
    /// same mechanism. The report is the `kind` sweep's.
    pub(crate) fn distribute_resumably<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        tables: &ib_routing::RoutingTables,
        candidates: Option<&[FailedBlock]>,
        kind: SweepKind,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<ResweepReport> {
        if !self.lost_nodes.is_empty() {
            let unserved = tables.lfts.keys().filter(|id| self.lost_nodes.contains(id));
            let observer = self.ledger.observer();
            observer.add("sm.switches_unserved", unserved.count() as u64);
        }
        let mode = self.config().smp_mode;
        let sweep = self.config().sweep;
        let mut acct = ResumeAccounting::new();
        let (mut passes, mut failed) = (0, Vec::new());
        loop {
            // The first pass diffs `candidates`; each retry, what failed.
            let (phase, blocks) = match passes {
                0 => ("lft-distribution", candidates),
                _ => ("lft-distribution-retry", Some(failed.as_slice())),
            };
            self.ledger.begin_phase(phase);
            let sent_before = self.ledger.total();
            let (pass, still_failed) = distribution::push_blocks(
                subnet,
                self.sm_node,
                tables,
                mode,
                transport,
                &mut self.ledger,
                blocks,
                &self.lost_nodes,
                sweep,
            )?;
            acct.merge(pass);
            failed = still_failed;
            // A pass that sent nothing (every failed block's switch was
            // unaddressable) changed neither the subnet nor the transport,
            // so the next pass would plan the same blocks again.
            let silent = self.ledger.total() == sent_before;
            if failed.is_empty() || silent || passes == MAX_RETRY_PASSES {
                break;
            }
            passes += 1;
        }
        let observer = self.ledger.observer();
        if observer.is_enabled() {
            observer.record("resweep.retry_passes", passes as u64);
            observer.add("resweep.stranded_blocks", failed.len() as u64);
        }
        Ok(ResweepReport {
            distribution: acct.report(),
            retry_passes: passes,
            failed_blocks: failed,
            ..ResweepReport::idle(kind)
        })
    }
}

/// The installed contents of `blocks`, concatenated in order; a switch
/// without an LFT reads as unset.
fn installed_blocks(subnet: &Subnet, blocks: &[FailedBlock]) -> Vec<Option<PortNum>> {
    let mut cells = vec![None; blocks.len() * LFT_BLOCK_SIZE];
    for (b, out) in blocks.iter().zip(cells.chunks_mut(LFT_BLOCK_SIZE)) {
        if let Some(src) = subnet.lft(b.switch).and_then(|lft| lft.block(b.block)) {
            out.copy_from_slice(src);
        }
    }
    cells
}

/// Every cell by which `blocks`' installed contents moved since `before`
/// was read — what the SMPs that were sent actually changed.
fn moved_cells(
    subnet: &Subnet,
    blocks: &[FailedBlock],
    before: &[Option<PortNum>],
) -> Vec<CellChange> {
    let after = installed_blocks(subnet, blocks);
    let mut moved = Vec::new();
    for (i, (&old, &new)) in before.iter().zip(&after).enumerate() {
        let FailedBlock { switch, block } = blocks[i / LFT_BLOCK_SIZE];
        let raw = (block * LFT_BLOCK_SIZE + i % LFT_BLOCK_SIZE) as u16;
        if let (true, Ok(lid)) = (old != new, Lid::new(raw)) {
            moved.push(CellChange {
                switch,
                lid,
                old,
                new,
            });
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;
    use crate::traps::Trap;

    #[test]
    fn link_down_trap_triggers_light_sweep_without_renumbering() {
        let (mut t, mut sm) = bring_up();
        let lids_before = all_lids(&t.subnet);

        // Down one of the two uplinks of leaf 0 (leaf -> spine 0). The
        // fat tree has a redundant spine, so a light sweep suffices.
        let leaf0 = t.switch_levels[0][0];
        let spine0 = t.switch_levels[1][0];
        let (port, _) = t
            .subnet
            .node(leaf0)
            .connected_ports()
            .find(|(_, r)| r.node == spine0)
            .unwrap();
        t.subnet.set_link_down(leaf0, port).unwrap();

        let mut transport = SmpTransport::perfect(sm.sm_node);
        let report = sm
            .handle_trap(
                &mut t.subnet,
                Trap::LinkStateChange { node: leaf0, port },
                &mut transport,
            )
            .unwrap();
        assert_eq!(report.kind, SweepKind::Light);
        assert!(!report.escalated);
        assert!(report.pruned_lids.is_empty());
        assert!(report.failed_blocks.is_empty());
        assert!(report.distribution.lft_smps > 0);
        // No LID moved.
        assert_eq!(all_lids(&t.subnet), lids_before);
        assert_all_pairs_connected(&t, &[]);
        t.subnet.validate_degraded().unwrap();
    }

    #[test]
    fn switch_death_heavy_sweep_prunes_only_the_dead() {
        let (mut t, mut sm) = bring_up();
        let spine1 = t.switch_levels[1][1];
        let spine_lid = match &t.subnet.node(spine1).kind {
            ib_subnet::NodeKind::Switch { lid, .. } => lid.unwrap(),
            ib_subnet::NodeKind::Hca => unreachable!(),
        };
        let lids_before = all_lids(&t.subnet);

        let mut transport = SmpTransport::perfect(sm.sm_node);
        let report = sm
            .handle_trap(
                &mut t.subnet,
                Trap::SwitchDeath { node: spine1 },
                &mut transport,
            )
            .unwrap();
        assert_eq!(report.kind, SweepKind::Heavy);
        assert_eq!(report.pruned_lids, vec![spine_lid]);
        assert_eq!(report.removed_nodes, 1);
        assert!(report.failed_blocks.is_empty());
        // Exactly one LID gone; every survivor kept its number.
        let lids_after = all_lids(&t.subnet);
        assert_eq!(
            lids_after,
            lids_before
                .iter()
                .copied()
                .filter(|&l| l != spine_lid)
                .collect::<Vec<_>>()
        );
        // The freed LID is reusable.
        assert!(!sm.lid_space.is_allocated(spine_lid));
        assert_all_pairs_connected(&t, &[]);
        t.subnet.validate_degraded().unwrap();
    }

    #[test]
    fn isolating_a_leaf_enters_degraded_mode_without_pruning() {
        let (mut t, mut sm) = bring_up();
        // Kill every uplink of leaf 2 (the SM host is on leaf 0): its two
        // hosts sit beyond the split but stay alive.
        isolate_leaf(&mut t, 2);
        let lids_before = all_lids(&t.subnet);

        let mut transport = SmpTransport::perfect(sm.sm_node);
        let report = sm.light_sweep(&mut t.subnet, &mut transport).unwrap();
        // Degraded mode, not escalation: the sweep serves the master's
        // component and leaves the lost one for the heal.
        assert_eq!(report.kind, SweepKind::Light);
        assert!(!report.escalated);
        assert!(report.pruned_lids.is_empty());
        assert_eq!(report.removed_nodes, 0);
        assert!(report.failed_blocks.is_empty());
        // No LID moved or vanished — a reconnect restores the lost side
        // in place.
        assert_eq!(all_lids(&t.subnet), lids_before);
        assert!(sm.is_degraded());
        // Leaf 2 + its 2 hosts were stranded.
        assert_eq!(sm.unreachable_lids().len(), 3);
        let survivors: Vec<NodeId> = t.hosts[4..6].to_vec();
        assert_all_pairs_connected(&t, &survivors);
        t.subnet.validate_degraded().unwrap();
    }

    #[test]
    fn heal_after_split_restores_columns_and_counts() {
        let (mut t, mut sm) = bring_up();
        sm.set_observer(ib_observe::Observer::metrics());
        let leaf2 = t.switch_levels[0][2];
        let uplinks = isolate_leaf(&mut t, 2);
        let mut transport = SmpTransport::perfect(sm.sm_node);
        sm.light_sweep(&mut t.subnet, &mut transport).unwrap();
        assert!(sm.is_degraded());

        // A trap from beyond the split is absorbed without a sweep: no MAD
        // from the lost component can physically reach the master.
        let report = sm
            .handle_trap(
                &mut t.subnet,
                Trap::LinkStateChange {
                    node: leaf2,
                    port: uplinks[1],
                },
                &mut transport,
            )
            .unwrap();
        assert_eq!(report.distribution.lft_smps, 0);

        // One uplink comes back: the boundary link-up trap gets through
        // and the heal sweep restores every stranded column.
        t.subnet.set_link_up(leaf2, uplinks[0]).unwrap();
        let report = sm
            .handle_trap(
                &mut t.subnet,
                Trap::LinkStateChange {
                    node: leaf2,
                    port: uplinks[0],
                },
                &mut transport,
            )
            .unwrap();
        assert_eq!(report.kind, SweepKind::Light);
        assert!(report.failed_blocks.is_empty());
        assert!(!sm.is_degraded());
        assert_all_pairs_connected(&t, &[]);
        assert!(sm.verify_route_index(&t.subnet).is_empty());
        t.subnet.validate_degraded().unwrap();

        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("sm.partitioned"), 1);
        assert_eq!(snap.counter("sm.unreachable_lids"), 3);
        assert_eq!(snap.counter("sm.trap_absorbed_lost"), 1);
        assert_eq!(snap.counter("sm.healed"), 1);
        // The stranded leaf's rows were refreshed by the heal sweep.
        let leaf2_lft = t.subnet.lft(leaf2).unwrap();
        for lid in all_lids(&t.subnet) {
            assert!(leaf2_lft.get(lid).is_some(), "leaf2 routes LID {lid}");
        }
    }

    /// A switch no SMP can address fails its blocks without sending
    /// anything. A pass that sent nothing ends the retries: the next one
    /// would plan against the same subnet and transport.
    #[test]
    fn an_unaddressable_switch_ends_the_retries_after_a_silent_pass() {
        let mut t = ib_subnet::topology::fattree::two_level(3, 2, 2);
        let config = crate::sm::SmConfig {
            smp_mode: crate::SmpMode::Destination,
            ..crate::sm::SmConfig::default()
        };
        let mut sm = SubnetManager::new(t.hosts[0], config);
        sm.bring_up(&mut t.subnet).unwrap();
        // Destination-routed SMPs need the target's LID: without one, leaf
        // 1 stays dirty and unaddressable for good.
        let leaf1 = t.switch_levels[0][1];
        let lid = t.subnet.node(leaf1).lids().next().unwrap();
        t.subnet.clear_lid(lid).unwrap();
        let mut transport = SmpTransport::assumed(sm.sm_node);

        // Every switch's column for the cleared LID is dirty: the first
        // pass installs the reachable ones, the retry sends nothing.
        let report = sm.light_sweep(&mut t.subnet, &mut transport).unwrap();
        assert!(report.distribution.lft_smps > 0);
        assert!(!report.failed_blocks.is_empty());
        assert_eq!(report.retry_passes, 1);

        // Now only leaf 1 is dirty, and the first pass sends nothing.
        let report = sm.light_sweep(&mut t.subnet, &mut transport).unwrap();
        assert_eq!(report.distribution.lft_smps, 0);
        assert!(report.failed_blocks.iter().all(|b| b.switch == leaf1));
        assert!(!report.failed_blocks.is_empty());
        assert_eq!(report.retry_passes, 0);
    }

    /// Every full-sweep entry leaves a mirror the next repair can patch:
    /// the carried graph and index equal the installed rows', and the next
    /// link-down is a repair whose gate patches that graph, never
    /// rebuilding it.
    #[test]
    fn every_full_sweep_entry_leaves_a_patchable_mirror() {
        type Entry = fn(&mut ib_subnet::topology::BuiltTopology, &mut SubnetManager);
        let entries: [(&str, Entry); 5] = [
            ("bring_up", |_, _| {}),
            ("full_reconfiguration", |t, sm| {
                sm.full_reconfiguration(&mut t.subnet).unwrap();
            }),
            ("light_sweep", |t, sm| {
                let mut transport = SmpTransport::perfect(sm.sm_node);
                sm.light_sweep(&mut t.subnet, &mut transport).unwrap();
            }),
            ("heavy_sweep", |t, sm| {
                let mut transport = SmpTransport::perfect(sm.sm_node);
                let trap = Trap::SwitchDeath {
                    node: t.switch_levels[1][2],
                };
                let report = sm.handle_trap(&mut t.subnet, trap, &mut transport);
                assert_eq!(report.unwrap().kind, SweepKind::Heavy);
            }),
            ("repair.heal_no_debt", |t, sm| {
                // A trap about a live link is a heal no repair owes.
                let mut transport = SmpTransport::perfect(sm.sm_node);
                let leaf = t.switch_levels[0][0];
                let (port, _) = t.subnet.node(leaf).connected_ports().next().unwrap();
                let trap = Trap::LinkStateChange { node: leaf, port };
                let report = sm.handle_trap(&mut t.subnet, trap, &mut transport);
                assert_eq!(report.unwrap().kind, SweepKind::Light);
                let snap = sm.observer().snapshot().unwrap();
                assert_eq!(snap.counter("repair.heal_no_debt"), 1);
            }),
        ];
        for (name, entry) in entries {
            let mut t = ib_subnet::topology::fattree::two_level(3, 2, 3);
            let config = crate::sm::SmConfig {
                repair: true,
                verify: true,
                ..crate::sm::SmConfig::default()
            };
            let mut sm = SubnetManager::new(t.hosts[0], config);
            sm.set_observer(ib_observe::Observer::metrics());
            sm.bring_up(&mut t.subnet).unwrap();
            entry(&mut t, &mut sm);
            let vls = sm.installed_vls().unwrap();
            let installed = FabricVerifier::new().channel_deps(&t.subnet, vls);
            assert_eq!(sm.channel_deps(), Some(&installed.unwrap()), "{name}");
            assert!(sm.verify_route_index(&t.subnet).is_empty(), "{name}");

            let mut transport = SmpTransport::perfect(sm.sm_node);
            let trap = down_uplink(&mut t, 1, 0);
            let report = sm.handle_trap(&mut t.subnet, trap, &mut transport);
            assert_eq!(report.unwrap().kind, SweepKind::Repair, "{name}");
            let snap = sm.observer().snapshot().unwrap();
            assert!(snap.counter("verify.cdg_patched_cells") > 0, "{name}");
            for reason in ["no-state", "topology", "vls", "split"] {
                let counter = format!("verify.full_deps.{reason}");
                assert_eq!(snap.counter(&counter), 0, "{name}: {counter}");
            }
        }
    }

    #[test]
    fn lossy_transport_still_converges() {
        let (mut t, mut sm) = bring_up();
        let leaf0 = t.switch_levels[0][0];
        let spine0 = t.switch_levels[1][0];
        let (port, _) = t
            .subnet
            .node(leaf0)
            .connected_ports()
            .find(|(_, r)| r.node == spine0)
            .unwrap();
        t.subnet.set_link_down(leaf0, port).unwrap();

        let mut transport = SmpTransport::lossy(sm.sm_node, 0x5EED, 0.2, 500);
        let baseline = sm.ledger.total();
        let report = sm
            .handle_trap(
                &mut t.subnet,
                Trap::LinkStateChange { node: leaf0, port },
                &mut transport,
            )
            .unwrap();
        assert!(report.failed_blocks.is_empty(), "did not converge");
        assert!(sm.ledger.total() > baseline);
        assert_all_pairs_connected(&t, &[]);
    }
}
