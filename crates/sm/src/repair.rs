//! The incremental repair pipeline: the SM's answer to link-state traps.
//!
//! One pipeline serves a single trap (a one-element fault list) and a
//! coalesced burst (k elements) alike: guards → per-fault dirty groups →
//! cached switch graph → engine fold over the baseline *in place* →
//! distribution of the blocks the changed cells fall in → verifier gate on
//! the cells those blocks moved → reverse-index maintenance. The engine's
//! list of changed cells ([`ib_routing::SpliceLog`]) sizes every stage up
//! to the wire, and the installed cells the wire moved size every stage
//! after it, so a repair costs what it changes, not what the fabric holds.
//!
//! A link that comes back is a repair in reverse: each applied repair
//! leaves its log as a heal debt, and a link-up trap that settles the top
//! debt undoes that log on the baseline and sends the reverted cells down
//! the same distribution, gate and index stages. Whatever the pipeline
//! cannot absorb — a heal no debt matches included — leaves through **one**
//! counted fallback into [`SubnetManager::light_sweep`]; once SMPs went
//! out, it leaves the carried state diverged. The engine side is
//! splice-or-`Err` ([`ib_routing::RoutingEngine::repair_with_graph`]), so
//! an `Ok` here always means "only the dirty columns moved".

use std::collections::HashSet;

use ib_mad::fault::{SmpChannel, SmpTransport};
use ib_routing::{CellChange, EngineKind, SpliceLog};
use ib_subnet::{NodeId, Subnet};
use ib_types::{IbResult, Lid, PortNum, LFT_BLOCK_SIZE};
use ib_verify::InvariantClass;

use crate::carried::{Debt, Mirror};
use crate::distribution::{self, FailedBlock};
use crate::resweep::{ResweepReport, SweepKind};
use crate::sm::SubnetManager;

/// Why a repair was handed to the full sweep instead.
enum Fallback {
    /// A fault's link is live — the trap is an *up* event — but no heal
    /// debt matches it ([`Mirror::pay`]): the link came back out of order,
    /// the baseline moved since its repair (a migration, a full sweep, a
    /// repair of links that were already down), or other links of its
    /// coalesced batch are still down. Only a full compute knows the
    /// tables of that graph; counted, but not as a `repair.fallback`.
    NoDebt,
    /// No tables computed yet (adopted fabric): nothing to splice into.
    NoBaseline,
    /// The carried state is diverged (stranded blocks, or SMPs a failed
    /// sweep never accounted for): what the switches hold may not be the
    /// baseline, so a dirty set read off either misses columns only the
    /// other routes across the fault. Only a full distribution brings the
    /// two back in step.
    IndexMiss,
    /// The degraded subnet cannot express a switch graph, or the engine
    /// refused the splice — e.g. a destination became unreachable and
    /// needs pruning, which only the full path does.
    EngineError,
    /// The gate found a violation reachable from a cell the repair moved
    /// (or a fabric-global one); the full sweep recomputes from scratch and
    /// overwrites whatever the repair installed. Carries the class of the
    /// first violation, so the fallback counter says *why*.
    VerifyRejected(InvariantClass),
}

impl SubnetManager {
    /// One batched repair sweep over a burst of link-down faults: unions
    /// the per-fault dirty destination sets (earlier faults' columns
    /// subtracted — each group is exactly what the corresponding serial
    /// repair would have re-routed, since every faulted link is already
    /// down), folds them through the engine's `repair_batch_with_graph`,
    /// then runs **one** dirty-block distribution and **one** verifier gate
    /// for the whole burst. Final tables are byte-identical to repairing
    /// the traps one at a time; the savings are the shared LFT blocks sent
    /// once instead of per fault and the k-1 elided verifier passes.
    /// Emits `repair.batched` / `repair.batch_size` and a `resweep.batch`
    /// span; a single link-down trap runs the same pipeline under
    /// `repair.attempts` / `resweep.repair`.
    pub fn repair_sweep_batch<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        faults: &[(NodeId, PortNum)],
        transport: &mut SmpTransport<C>,
    ) -> IbResult<ResweepReport> {
        let observer = self.ledger.observer();
        observer.incr("repair.batched");
        observer.add("repair.batch_size", faults.len() as u64);
        self.repair_faults(subnet, faults, "resweep.batch", transport)
    }

    /// The repair pipeline for the links `faults`. Downed links: finds the
    /// destination LIDs whose installed paths crossed them, asks the engine
    /// to re-route only those columns spliced into the last computed
    /// tables, distributes the dirty blocks, and gates the result behind
    /// the fabric verifier, scoped to the installed cells the SMPs moved —
    /// black holes and forwarding loops always, the CDG deadlock check
    /// when `config.verify` asks for it. A live link among them makes the
    /// trap a heal: the repair it settles is undone and the reverted cells
    /// take the same distribution and gate. Every obstacle ([`Fallback`])
    /// is counted and answered by the full sweep; the pipeline emits
    /// `repair.*` counters and a `span_name` (a heal: `resweep.heal`) span
    /// that closes before any fallback sweep starts. The carried state is
    /// lent to the pipeline and settled back before anything else can look
    /// at it.
    pub(crate) fn repair_faults<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        faults: &[(NodeId, PortNum)],
        span_name: &str,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<ResweepReport> {
        let heal = faults.iter().any(|&(n, p)| subnet.neighbor(n, p).is_some());
        let outcome = match self.carried.lend() {
            Some(mut mirror) => {
                let outcome = if heal {
                    self.heal_faults(subnet, faults, &mut mirror, transport)
                } else {
                    self.splice_faults(subnet, faults, span_name, &mut mirror, transport)
                };
                self.carried.settle(subnet, mirror, faults);
                outcome?
            }
            None if heal => Err(Fallback::NoDebt),
            None if self.carried.baseline().is_none() => Err(Fallback::NoBaseline),
            None => Err(Fallback::IndexMiss),
        };
        outcome.or_else(|reason| {
            self.count_repair_fallback(reason);
            self.light_sweep(subnet, transport)
        })
    }

    /// The pipeline for downed links, past its guards: the dirty groups,
    /// the engine's splice, then [`Self::send_cells`]. An applied repair
    /// becomes a heal debt.
    fn splice_faults<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        faults: &[(NodeId, PortNum)],
        span_name: &str,
        mirror: &mut Mirror,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<Result<ResweepReport, Fallback>> {
        let observer = self.ledger.observer();
        let _span = observer.span(span_name);
        // Disjoint per-fault dirty groups off the shared baseline: a column
        // already claimed by an earlier fault will be re-routed around
        // *all* downed links in one go, so later faults must not re-route
        // it again (and serially repaired columns never re-cross a downed
        // link, which is why baseline-minus-earlier equals the serial
        // arm's per-step scan). Each group is an O(dirty) index read.
        let mut claimed = HashSet::new();
        let groups: Vec<Vec<Lid>> = {
            let _span = observer.span("repair.dirty_set");
            faults
                .iter()
                .map(|&(node, port)| {
                    observer.incr("repair.index_hits");
                    let mut group = mirror.affected(subnet, node, port);
                    group.retain(|&lid| claimed.insert(lid));
                    group
                })
                .collect()
        };
        observer.add("repair.dirty_dests", claimed.len() as u64);
        if claimed.is_empty() {
            // No installed path crossed the links: the tables are already
            // correct and there is nothing to distribute (nor to undo).
            observer.incr("repair.clean_noop");
            mirror.owe(subnet, SpliceLog::default(), faults);
            return Ok(Ok(ResweepReport::idle(SweepKind::Repair)));
        }
        #[cfg(debug_assertions)]
        let unspliced = mirror.tables.lfts.clone();
        // One engine fold over the baseline in place, on the switch graph of
        // this topology epoch. An unbuildable graph (an HCA whose only uplink
        // went down but still carries a LID) is an `Err` like the engine's
        // own; either leaves the baseline untouched.
        let config = self.config();
        let graph = self.carried.switch_graph(subnet);
        observer.incr(match graph {
            Ok((_, true)) => "repair.graph_reused",
            _ => "repair.graph_rebuilt",
        });
        let log = graph.and_then(|(graph, _)| {
            let (engine, tables) = (config.engine.build(), &mut mirror.tables);
            engine.repair_batch_with_graph(graph, config.routing, tables, &groups, observer)
        });
        let Ok(log) = log else {
            return Ok(Err(Fallback::EngineError));
        };
        // Distribution plans from the log alone, so it is trusted only as
        // far as the next debug build: every block the splice changed must
        // be in the plan.
        #[cfg(debug_assertions)]
        {
            let planned: HashSet<_> = (log.cells.iter())
                .map(|c| (c.switch, c.lid.lft_block()))
                .collect();
            for (&switch, lft) in &mirror.tables.lfts {
                for block in unspliced[&switch].dirty_blocks(lft) {
                    let named = (switch, block);
                    debug_assert!(planned.contains(&named), "the log misses {named:?}");
                }
            }
        }
        let outcome = self.send_cells(subnet, &log.cells, faults, mirror, transport)?;
        if outcome.as_ref().is_ok_and(|r| r.failed_blocks.is_empty()) {
            let observer = self.ledger.observer();
            observer.incr("repair.success");
            observer.incr(engine_counters(config.engine).0);
            mirror.owe(subnet, log, faults);
        }
        Ok(outcome)
    }

    /// A heal, past its guards: pays off the debt the links' return
    /// settles by undoing its log on the baseline — the distance field
    /// rebuilt on the healed graph — then [`Self::send_cells`] with the
    /// reverted cells and the debt's links.
    fn heal_faults<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        faults: &[(NodeId, PortNum)],
        mirror: &mut Mirror,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<Result<ResweepReport, Fallback>> {
        let routing = self.config().routing;
        let Ok((graph, _)) = self.carried.switch_graph(subnet) else {
            return Ok(Err(Fallback::EngineError));
        };
        let Some(Debt { log, faults, .. }) = mirror.pay(subnet, faults) else {
            return Ok(Err(Fallback::NoDebt));
        };
        let observer = self.ledger.observer();
        let _span = observer.span("resweep.heal");
        let cells = {
            let _span = observer.span("repair.undo");
            log.heal(&mut mirror.tables, graph, routing)
        };
        let outcome = self.send_cells(subnet, &cells, &faults, mirror, transport)?;
        if outcome.as_ref().is_ok_and(|r| r.failed_blocks.is_empty()) {
            self.ledger.observer().incr("repair.heal_debt");
        }
        Ok(outcome)
    }

    /// What a repair and a heal share once the baseline holds their cells:
    /// distributes the blocks `cells` fall in, gates exactly the installed
    /// cells those blocks moved — normally `cells`, plus any baseline ≠
    /// installed divergence a sent block carried — with `faults` the links
    /// that went down or came back, and moves the mirror by them.
    fn send_cells<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        cells: &[CellChange],
        faults: &[(NodeId, PortNum)],
        mirror: &mut Mirror,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<Result<ResweepReport, Fallback>> {
        let observer = self.ledger.observer();
        observer.add("repair.changed_cells", cells.len() as u64);
        // The switches hold the padded baseline (the live index vouches for
        // it), so only blocks containing a changed cell can be dirty.
        let candidates = distribution::sorted_blocks(cells.iter().map(|c| FailedBlock {
            switch: c.switch,
            block: c.lid.lft_block(),
        }));
        observer.add("repair.planned_blocks", candidates.len() as u64);
        let healed = self.refresh_partition_state(subnet);
        let before = installed_blocks(subnet, &candidates);
        let carried_deps = mirror.send();
        let report = self.distribute_resumably(
            subnet,
            &mirror.tables,
            Some(&candidates),
            SweepKind::Repair,
            transport,
        )?;
        let observer = self.ledger.observer();
        if !report.failed_blocks.is_empty() {
            // As after a full sweep: tables with stranded blocks are
            // expected to be inconsistent, so the gate is deferred.
            observer.incr("repair.unconverged");
            return Ok(Ok(report));
        }
        let moved = moved_cells(subnet, &candidates, &before);
        let vls = &mirror.tables.vls;
        let (verdict, deps) = ib_verify::FabricVerifier::new()
            .with_deadlock(self.config().verify)
            .with_viewpoint(self.sm_node)
            .verify_moved(subnet, vls, &moved, faults, carried_deps, observer)?;
        if let Some(v) = verdict.violations.first() {
            return Ok(Err(Fallback::VerifyRejected(v.class)));
        }
        self.verify_healed(subnet, &healed)?;
        let span = observer.span("repair.index_splice");
        mirror.apply(&moved, deps);
        span.end();
        Ok(Ok(report))
    }

    /// Counts one fallback three ways: the named reason, the aggregate
    /// `repair.fallback`, and the per-engine `repair.fallback.<engine>` tag
    /// BENCH and soak output key on — a grid run over the full engine
    /// matrix must show *which* engine degraded to the full sweep, not
    /// just that one did. A gate rejection also names the invariant class
    /// that rejected (`repair.verify_rejected.<class>`).
    fn count_repair_fallback(&self, reason: Fallback) {
        let observer = self.ledger.observer();
        let name = match reason {
            Fallback::NoDebt => return observer.incr("repair.heal_no_debt"),
            Fallback::NoBaseline => "repair.no_baseline",
            Fallback::IndexMiss => "repair.index_misses",
            Fallback::EngineError => "repair.engine_error",
            Fallback::VerifyRejected(class) => {
                observer.incr(rejected_counter(class));
                "repair.verify_rejected"
            }
        };
        observer.incr(name);
        observer.incr("repair.fallback");
        observer.incr(engine_counters(self.config().engine).1);
    }
}

/// The `repair.success.<engine>` and `repair.fallback.<engine>` counter
/// names, spelled out so a repair formats nothing.
fn engine_counters(engine: EngineKind) -> (&'static str, &'static str) {
    match engine {
        EngineKind::MinHop => ("repair.success.minhop", "repair.fallback.minhop"),
        EngineKind::FatTree => ("repair.success.fat-tree", "repair.fallback.fat-tree"),
        EngineKind::UpDown => ("repair.success.up-down", "repair.fallback.up-down"),
        EngineKind::Dfsssp => ("repair.success.dfsssp", "repair.fallback.dfsssp"),
        EngineKind::Lash => ("repair.success.lash", "repair.fallback.lash"),
    }
}

/// The `repair.verify_rejected.<class>` counter name.
fn rejected_counter(class: InvariantClass) -> &'static str {
    match class {
        InvariantClass::BlackHole => "repair.verify_rejected.black-hole",
        InvariantClass::ForwardingLoop => "repair.verify_rejected.forwarding-loop",
        InvariantClass::DeadlockCycle => "repair.verify_rejected.deadlock-cycle",
        InvariantClass::Addressing => "repair.verify_rejected.addressing",
        InvariantClass::StaleRoute => "repair.verify_rejected.stale-route",
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
    use crate::sm::SmConfig;
    use crate::testutil::*;
    use crate::traps::Trap;
    use ib_subnet::topology::fattree::two_level;

    #[test]
    fn counter_names_match_the_formatted_ones() {
        for engine in EngineKind::all() {
            let (success, fallback) = engine_counters(engine);
            assert_eq!(success, format!("repair.success.{}", engine.name()));
            assert_eq!(fallback, format!("repair.fallback.{}", engine.name()));
        }
        for class in [
            InvariantClass::BlackHole,
            InvariantClass::ForwardingLoop,
            InvariantClass::DeadlockCycle,
            InvariantClass::Addressing,
            InvariantClass::StaleRoute,
        ] {
            let formatted = format!("repair.verify_rejected.{}", class.name());
            assert_eq!(rejected_counter(class), formatted);
        }
    }

    #[test]
    fn repair_sweep_fixes_link_down_and_counts_success() {
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                verify: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let bring_up_blocks = sm
            .observer()
            .snapshot()
            .unwrap()
            .counter("sweep.dirty_blocks");
        let trap = down_first_uplink(&mut t);
        let mut transport = SmpTransport::perfect(sm.sm_node);
        let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        assert_eq!(report.kind, SweepKind::Repair);
        assert!(report.failed_blocks.is_empty());
        assert!(report.distribution.lft_smps > 0, "dirty blocks were sent");
        assert_all_pairs_connected(&t, &[]);
        t.subnet.validate_degraded().unwrap();
        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.attempts"), 1);
        assert_eq!(snap.counter("repair.success"), 1);
        assert_eq!(snap.counter("repair.success.minhop"), 1);
        assert_eq!(snap.counter("repair.fallback"), 0);
        assert_eq!(snap.counter("repair.fallback.minhop"), 0);
        assert!(snap.counter("repair.dirty_dests") > 0);
        assert_eq!(snap.counter("repair.graph_rebuilt"), 1);
        assert_eq!(snap.counter("repair.graph_reused"), 0);
        // The cost of the stages between engine and wire is attributable:
        // what the engine changed, and the blocks planned from it.
        assert!(snap.counter("repair.changed_cells") > 0);
        assert!(snap.counter("repair.planned_blocks") > 0);
        assert!(snap.counter("repair.planned_blocks") <= snap.counter("repair.changed_cells"));
        assert_eq!(
            snap.counter("sweep.dirty_blocks"),
            snap.counter("repair.planned_blocks") + bring_up_blocks,
            "on a converged fabric every planned block was dirty"
        );
        // The gate walked from exactly the cells the SMPs moved — here the
        // engine's changed cells — and patched the dependency graph the
        // bring-up audit left behind with them.
        assert_eq!(
            snap.counter("verify.delta_cells"),
            snap.counter("repair.changed_cells")
        );
        assert_eq!(
            snap.counter("verify.cdg_patched_cells"),
            snap.counter("verify.delta_cells")
        );
        for reason in ["no-state", "topology", "vls", "split"] {
            assert_eq!(snap.counter(&format!("verify.full_deps.{reason}")), 0);
        }
        assert_eq!(
            sm.channel_deps(),
            Some(
                &ib_verify::FabricVerifier::new()
                    .channel_deps(&t.subnet, sm.installed_vls().unwrap())
                    .unwrap()
            )
        );
        // One child span per stage, in pipeline order, nested inside the
        // repair's own span.
        let repair = snap.spans_named("resweep.repair");
        assert_eq!(repair.len(), 1);
        let mut at = repair[0].start_ns;
        for name in [
            "repair.dirty_set",
            "routing.minhop.repair",
            "sweep.plan",
            "sweep.apply",
            "verify.run",
            "repair.index_splice",
        ] {
            let child = snap
                .spans_named(name)
                .into_iter()
                .filter(|c| c.start_ns >= repair[0].start_ns)
                .collect::<Vec<_>>();
            assert_eq!(child.len(), 1, "{name}");
            assert!(child[0].start_ns >= at, "{name} starts after its sibling");
            at = child[0].start_ns + child[0].duration_ns;
        }
        assert!(at <= repair[0].start_ns + repair[0].duration_ns);

        // The first link comes back without a trap: the next gate's fabric
        // differs from the carried graph's by more than its own fault, so
        // it counts a full dependency pass instead of a patch.
        let Trap::LinkStateChange { node, port } = trap else {
            unreachable!()
        };
        t.subnet.set_link_up(node, port).unwrap();
        let trap = down_uplink(&mut t, 1, 0);
        let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        assert_eq!(report.kind, SweepKind::Repair);
        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("verify.full_deps.topology"), 1);
        assert_eq!(
            sm.channel_deps(),
            Some(
                &ib_verify::FabricVerifier::new()
                    .channel_deps(&t.subnet, sm.installed_vls().unwrap())
                    .unwrap()
            )
        );
    }

    /// A sent block rewrites all 64 of its cells from the baseline, so a
    /// baseline cell that is stale — here leaf 0's row toward a host on
    /// another leaf, whose column the fault does not dirty — is installed
    /// by the repair as an explicit drop. The gate must see that moved
    /// cell, reject the splice and let the full sweep restore the fabric
    /// and an exact index; a column-scoped gate waved it through because
    /// the column was not re-routed.
    #[test]
    fn a_stale_baseline_cell_in_a_sent_block_is_rejected_by_the_gate() {
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let (leaf0, spine1) = (t.switch_levels[0][0], t.switch_levels[1][1]);
        let lft = t.subnet.lft(leaf0).unwrap();
        let victim = t.hosts[2..]
            .iter()
            .map(|&h| t.subnet.node(h).ports[1].lid.unwrap())
            .find(|&lid| {
                let port = lft.get(lid).unwrap();
                t.subnet.neighbor(leaf0, port).unwrap().node == spine1
            })
            .expect("min-hop spreads leaf 0's remote hosts over both spines");
        // The SM is told the row now drops, and the switch is then quietly
        // put back: the baseline holds a drop nothing installed.
        let good = lft.get(victim);
        let drop = Some(PortNum::DROP);
        t.subnet.lft_mut(leaf0).unwrap().assign(victim, drop);
        let told = CellChange {
            switch: leaf0,
            lid: victim,
            old: good,
            new: drop,
        };
        sm.note_cells_changed(&t.subnet, &[told], None);
        t.subnet.lft_mut(leaf0).unwrap().assign(victim, good);

        let trap = down_first_uplink(&mut t);
        let mut transport = SmpTransport::perfect(sm.sm_node);
        let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        assert_eq!(
            report.kind,
            SweepKind::Light,
            "the gate rejected the splice"
        );
        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.verify_rejected.black-hole"), 1);
        assert_eq!(snap.counter("repair.success"), 0);
        let verdict = ib_verify::FabricVerifier::new()
            .verify_with_vls(&t.subnet, sm.installed_vls().unwrap())
            .unwrap();
        assert!(verdict.is_clean(), "{verdict}");
        assert!(sm.verify_route_index(&t.subnet).is_empty());
        assert_all_pairs_connected(&t, &[]);
    }

    #[test]
    fn repair_sends_no_more_smps_than_a_full_sweep_on_a_twin_fabric() {
        // Same fault on two identical fabrics: the incremental repair must
        // not exceed the light sweep's LFT traffic.
        let run = |repair: bool| {
            let mut t = two_level(3, 2, 2);
            let mut sm = SubnetManager::new(
                t.hosts[0],
                SmConfig {
                    repair,
                    ..SmConfig::default()
                },
            );
            sm.bring_up(&mut t.subnet).unwrap();
            let trap = down_first_uplink(&mut t);
            let mut transport = SmpTransport::perfect(sm.sm_node);
            let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
            assert!(report.failed_blocks.is_empty());
            assert_all_pairs_connected(&t, &[]);
            report.distribution.lft_smps
        };
        assert!(run(true) <= run(false));
    }

    #[test]
    fn repair_without_baseline_falls_back_to_light_sweep() {
        // An SM that never computed tables (adopted fabric) has no splice
        // baseline: the repair request must degrade to the full path.
        let (mut t, sm0) = bring_up();
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        drop(sm0);
        sm.set_observer(ib_observe::Observer::metrics());
        let trap = down_first_uplink(&mut t);
        let mut transport = SmpTransport::perfect(sm.sm_node);
        let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        assert_eq!(report.kind, SweepKind::Light);
        assert_all_pairs_connected(&t, &[]);
        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.no_baseline"), 1);
        assert_eq!(snap.counter("repair.fallback"), 1);
        assert_eq!(snap.counter("repair.fallback.minhop"), 1);
    }

    /// A link that comes back settles its repair's debt: the trap undoes
    /// the repair — the same blocks go back out — instead of recomputing,
    /// and the fabric is the bring-up's again. Counted as a heal, not as a
    /// fallback.
    #[test]
    fn a_link_up_trap_heals_by_undoing_its_repair() {
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                verify: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let pristine = sm.carried.baseline().unwrap().lfts.clone();
        let mut transport = SmpTransport::perfect(sm.sm_node);
        let trap = down_first_uplink(&mut t);
        let repair = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        assert_eq!(repair.kind, SweepKind::Repair);
        let Trap::LinkStateChange { node, port } = trap else {
            unreachable!()
        };
        t.subnet.set_link_up(node, port).unwrap();
        let heal = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        assert_eq!(heal.kind, SweepKind::Repair);
        assert_eq!(heal.distribution.lft_smps, repair.distribution.lft_smps);
        assert_all_pairs_connected(&t, &[]);
        assert_eq!(sm.carried.baseline().unwrap().lfts, pristine);
        for (sw, lft) in &pristine {
            assert_eq!(t.subnet.lft(*sw), Some(lft), "{sw:?}");
        }
        assert!(sm.verify_route_index(&t.subnet).is_empty());
        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.heal_debt"), 1);
        assert_eq!(snap.counter("repair.heal_no_debt"), 0);
        assert_eq!(snap.counter("repair.fallback"), 0);
        assert_eq!(snap.counter("resweep.light"), 0);
        assert_eq!(snap.spans_named("resweep.heal").len(), 1);
        // The link's return is a patch of the carried dependency graph.
        for reason in ["no-state", "topology", "vls", "split"] {
            assert_eq!(snap.counter(&format!("verify.full_deps.{reason}")), 0);
        }
        assert_eq!(
            sm.channel_deps(),
            Some(
                &ib_verify::FabricVerifier::new()
                    .channel_deps(&t.subnet, sm.installed_vls().unwrap())
                    .unwrap()
            )
        );
    }

    #[test]
    fn serial_repairs_of_an_all_down_burst_pass_the_scoped_gate() {
        // Both links of a burst go down before any repair runs (the trap
        // queue drained late). Repairing them one at a time, the second
        // fault's black holes already sit in the fabric when the first
        // repair is gated — on cells that repair never moved. The gate
        // walks only from what the first repair moved, so it never looks
        // at them and does not reject into a full sweep.
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let mut transport = SmpTransport::perfect(sm.sm_node);

        let traps = [down_uplink(&mut t, 0, 0), down_uplink(&mut t, 1, 0)];
        for trap in traps {
            let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
            assert_eq!(report.kind, SweepKind::Repair);
            assert!(report.failed_blocks.is_empty());
        }
        assert_all_pairs_connected(&t, &[]);
        t.subnet.validate_degraded().unwrap();
        assert!(sm.verify_route_index(&t.subnet).is_empty());

        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.success"), 2);
        assert_eq!(snap.counter("repair.success.minhop"), 2);
        assert_eq!(snap.counter("repair.verify_rejected"), 0);
        assert_eq!(snap.counter("repair.fallback"), 0);
        // Neither gate found anything: fault 2's damage lies off every
        // walk the first gate started.
        assert_eq!(snap.counter("verify.runs"), 2);
        assert_eq!(snap.counter("verify.violations"), 0);
        assert!(snap.counter("verify.delta_cells") > 0);
        // Both links were already down before the first repair, so the
        // topology epoch never moved between sweeps: one graph build,
        // reused by the second repair.
        assert_eq!(snap.counter("repair.graph_rebuilt"), 1);
        assert_eq!(snap.counter("repair.graph_reused"), 1);
    }

    /// A link-up trap heals by undoing its repair, which must refresh the
    /// repair baseline — a later link-down repair has to splice against
    /// the healed tables, not the repaired ones. Pinned against a twin
    /// fabric that only ever sees the second fault: same SMP count,
    /// byte-identical tables.
    #[test]
    fn link_up_light_sweep_refreshes_the_repair_baseline() {
        let config = SmConfig {
            repair: true,
            ..SmConfig::default()
        };

        // Fabric A: down L (repair), L back up (light sweep), down M.
        let mut ta = two_level(3, 2, 2);
        let mut sma = SubnetManager::new(ta.hosts[0], config);
        sma.bring_up(&mut ta.subnet).unwrap();
        let mut transport = SmpTransport::perfect(sma.sm_node);
        let trap_l = down_uplink(&mut ta, 0, 0);
        sma.handle_trap(&mut ta.subnet, trap_l, &mut transport)
            .unwrap();
        let Trap::LinkStateChange { node, port } = trap_l else {
            unreachable!()
        };
        ta.subnet.set_link_up(node, port).unwrap();
        let up = sma
            .handle_trap(&mut ta.subnet, trap_l, &mut transport)
            .unwrap();
        assert_eq!(up.kind, SweepKind::Repair);
        let trap_m = down_uplink(&mut ta, 1, 0);
        let repair_a = sma
            .handle_trap(&mut ta.subnet, trap_m, &mut transport)
            .unwrap();
        assert_eq!(repair_a.kind, SweepKind::Repair);

        // Fabric B: only ever sees fault M.
        let mut tb = two_level(3, 2, 2);
        let mut smb = SubnetManager::new(tb.hosts[0], config);
        smb.bring_up(&mut tb.subnet).unwrap();
        let mut transport_b = SmpTransport::perfect(smb.sm_node);
        let trap_m_b = down_uplink(&mut tb, 1, 0);
        let repair_b = smb
            .handle_trap(&mut tb.subnet, trap_m_b, &mut transport_b)
            .unwrap();
        assert_eq!(repair_b.kind, SweepKind::Repair);

        // A stale baseline would splice against pre-up tables and diff
        // extra blocks; a fresh one makes the repairs indistinguishable.
        assert_eq!(
            repair_a.distribution.lft_smps,
            repair_b.distribution.lft_smps
        );
        assert_eq!(
            sma.carried.baseline().unwrap().lfts,
            smb.carried.baseline().unwrap().lfts
        );
        for sw in ta.subnet.switches().map(|n| n.id).collect::<Vec<_>>() {
            assert_eq!(ta.subnet.lft(sw), tb.subnet.lft(sw), "{sw:?}");
        }
        assert!(sma.verify_route_index(&ta.subnet).is_empty());
    }

    /// A sweep that strands blocks leaves switches holding rows that are
    /// not the baseline's, and drops the reverse index to say so. Splicing
    /// the next fault into that baseline would re-route only the columns
    /// the *installed* rows sent across it and install the baseline's other
    /// crossings wherever no sent block reaches — so the next link-down is
    /// a counted fallback whose
    /// full distribution brings fabric, baseline and index back in step,
    /// and the fault after that is an ordinary indexed repair again.
    #[test]
    fn stranded_blocks_send_the_next_link_down_to_a_full_sweep_that_revives_the_index() {
        let mut t = two_level(3, 2, 3);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();

        down_uplink(&mut t, 0, 0);
        let mut black_hole =
            SmpTransport::with_channel(sm.sm_node, ib_mad::fault::LossyChannel::black_hole());
        let report = sm.light_sweep(&mut t.subnet, &mut black_hole).unwrap();
        assert!(!report.failed_blocks.is_empty(), "every Set SMP vanished");
        assert!(sm.route_index().is_none());

        let mut transport = SmpTransport::perfect(sm.sm_node);
        let trap = down_uplink(&mut t, 1, 0);
        let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        assert_eq!(report.kind, SweepKind::Light);
        assert!(report.failed_blocks.is_empty());
        assert!(sm.route_index().is_some(), "index is live again");
        assert!(sm.verify_route_index(&t.subnet).is_empty());
        assert_all_pairs_connected(&t, &[]);

        let trap = down_uplink(&mut t, 2, 1);
        let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        assert_eq!(report.kind, SweepKind::Repair);
        assert!(sm.verify_route_index(&t.subnet).is_empty());
        assert_all_pairs_connected(&t, &[]);

        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.attempts"), 2);
        assert_eq!(snap.counter("repair.index_misses"), 1);
        assert_eq!(snap.counter("repair.fallback"), 1);
        assert_eq!(snap.counter("repair.index_hits"), 1);
        assert_eq!(snap.counter("repair.success"), 1);
    }
}
