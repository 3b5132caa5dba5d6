//! LFT distribution: pushing computed tables to switches, block by block.
//!
//! Per switch, the dirty 64-entry blocks between the installed LFT and the
//! target LFT each cost one `SubnSet(LinearForwardingTable)` SMP. On a
//! virgin fabric *every* covered block is dirty, giving the
//! `n · m` SMP total of the paper's equation 2 and Table I's "Min SMPs Full
//! RC" column.
//!
//! Distribution runs in two phases. **Planning** is read-only over the
//! subnet: per switch, read SMP addressing off one route tree searched from
//! the SM ([`route_tree`], built per plan) and diff the installed LFT
//! against a borrowed padded view of the target ([`ib_subnet::PaddedLftView`]),
//! materializing one payload per dirty block. A caller that knows where
//! the changes are — a repair holding its changed cells, a retry pass
//! holding its failed blocks — hands the planner those `(switch, block)`s
//! and only they are diffed; everyone else diffs every block of every
//! switch. Planning fans out across scoped worker threads when
//! [`SweepOptions::workers`] asks for it and the per-chunk results are
//! merged back in ascending switch order.
//! **Applying** is serial and deterministic: the merged plans emit the SMP
//! stream (ledger records, transport sends, installed-LFT writes) in
//! exactly the order the sequential implementation used, so ledgers and
//! installed tables are byte-identical for any worker count.

use std::collections::HashSet;

use ib_mad::fault::{SmpChannel, SmpTransport};
use ib_mad::{lft_smp_for, retarget_lft_smp, RouteTree, Routes, SmpLedger, SmpRouting};
use ib_observe::Observer;
use ib_routing::RoutingTables;
use ib_subnet::{Lft, NodeId, Subnet};
use ib_types::{IbError, IbResult, Lid, PortNum, LFT_BLOCK_SIZE};
use rustc_hash::FxHashMap;

use crate::report::DistributionReport;
use crate::sm::{SmpMode, SweepOptions};

/// A dirty LFT block whose `Set` SMP could not be delivered — and, handed
/// back to the planner, one `(switch, block)` candidate to diff (a retry's
/// failed blocks; the blocks a repair's changed cells fall in).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailedBlock {
    /// The switch the block was destined for.
    pub switch: NodeId,
    /// The 64-entry block index.
    pub block: usize,
}

/// Sorts and deduplicates planner candidates into the order planning
/// expects: by switch index, then block.
pub(crate) fn sorted_blocks(blocks: impl IntoIterator<Item = FailedBlock>) -> Vec<FailedBlock> {
    let mut blocks: Vec<FailedBlock> = blocks.into_iter().collect();
    blocks.sort_unstable_by_key(|b| (b.switch.index(), b.block));
    blocks.dedup();
    blocks
}

/// One switch's fully computed update: SMP addressing plus every dirty
/// block's payload. Produced read-only, applied serially.
struct SwitchPlan {
    switch: NodeId,
    routing: SmpRouting,
    hops: usize,
    blocks: Vec<(usize, [Option<PortNum>; LFT_BLOCK_SIZE])>,
}

/// What planning decided for one switch.
enum PlanOutcome {
    /// Nothing dirty (or nothing dirty among the candidate blocks).
    Clean,
    /// Dirty blocks with a live route to the switch.
    Update(SwitchPlan),
    /// Dirty blocks, but no SMP addressing reaches the switch right now;
    /// they all fail without consuming transport attempts.
    Unreachable {
        /// The unreachable switch.
        switch: NodeId,
        /// Its dirty block indices.
        blocks: Vec<usize>,
    },
}

/// Plans one switch: diff (every block, or only its `candidates`), resolve
/// addressing.
///
/// Returns `Err` only for a structural problem (the node is not a switch);
/// unreachable switches come back as [`PlanOutcome::Unreachable`].
fn plan_switch(
    subnet: &Subnet,
    tree: &RouteTree,
    (sw, target, candidates): PlanJob<'_>,
    topmost: Option<Lid>,
    mode: SmpMode,
) -> IbResult<PlanOutcome> {
    let current = subnet
        .lft(sw)
        .ok_or_else(|| IbError::Management(format!("{} is not a switch", subnet.name_of(sw))))?;
    let view = target.padded_view(topmost);
    let dirty = match candidates {
        None => view.dirty_blocks_against(current),
        Some(blocks) => view.dirty_among(current, blocks.iter().map(|b| b.block)),
    };
    if dirty.is_empty() {
        return Ok(PlanOutcome::Clean);
    }
    let Ok((routing, hops)) = address(subnet, Routes::Tree(tree), sw, mode) else {
        return Ok(PlanOutcome::Unreachable {
            switch: sw,
            blocks: dirty,
        });
    };
    let blocks = dirty
        .into_iter()
        .map(|block| {
            let mut payload = [None; LFT_BLOCK_SIZE];
            view.copy_block_into(block, &mut payload);
            (block, payload)
        })
        .collect();
    Ok(PlanOutcome::Update(SwitchPlan {
        switch: sw,
        routing,
        hops,
        blocks,
    }))
}

/// One planning job: a switch, its target LFT, and — when the caller named
/// candidates — the run of them that falls on this switch.
type PlanJob<'a> = (NodeId, &'a Lft, Option<&'a [FailedBlock]>);

/// Plans the switches of `tables` in ascending switch order, fanning the
/// work across `opts` worker threads: every switch, all blocks diffed, or —
/// given `candidates`, sorted by switch index then block — only the
/// switches and blocks named there (candidates on a switch `tables` does
/// not hold are skipped). Switches in `unserved` are never planned. The
/// returned vector is ordered regardless of the worker count.
#[allow(clippy::too_many_arguments)]
fn plan_all(
    subnet: &Subnet,
    sm_node: NodeId,
    tables: &RoutingTables,
    mode: SmpMode,
    candidates: Option<&[FailedBlock]>,
    unserved: &HashSet<NodeId>,
    opts: SweepOptions,
    observer: &Observer,
) -> IbResult<Vec<PlanOutcome>> {
    let _span = observer.span("sweep.plan");
    let mut jobs: Vec<PlanJob> = match candidates {
        None => {
            let mut jobs: Vec<PlanJob> = tables
                .lfts
                .iter()
                .map(|(&sw, lft)| (sw, lft, None))
                .collect();
            jobs.sort_unstable_by_key(|(sw, ..)| sw.index());
            jobs
        }
        Some(blocks) => {
            debug_assert!(blocks.is_sorted_by_key(|b| (b.switch.index(), b.block)));
            blocks
                .chunk_by(|a, b| a.switch == b.switch)
                .filter_map(|run| {
                    let sw = run[0].switch;
                    Some((sw, tables.lfts.get(&sw)?, Some(run)))
                })
                .collect()
        }
    };
    jobs.retain(|(sw, ..)| !unserved.contains(sw));

    // OpenSM populates every LFT entry up to the topmost assigned LID
    // (unreachable ones to the drop port) and pushes all covered blocks —
    // the `m` of equation 2 is set by the topmost LID, not by how many
    // entries actually route anywhere.
    let topmost = subnet.topmost_lid();

    let workers = opts.effective_workers(jobs.len());
    if observer.is_enabled() {
        observer.add("planner.jobs", jobs.len() as u64);
        observer.record("planner.workers", workers as u64);
    }
    // One search from the SM answers every switch's addressing; the workers
    // share it by reference.
    let tree = &route_tree(subnet, sm_node, observer);
    if workers <= 1 {
        return jobs
            .iter()
            .map(|&job| plan_switch(subnet, tree, job, topmost, mode))
            .collect();
    }

    // Contiguous chunks keep the merge a plain concatenation: chunk `i`
    // holds the plans for the `i`-th slice of the sorted switch list.
    let chunk_len = jobs.len().div_ceil(workers);
    let per_chunk: Vec<IbResult<Vec<PlanOutcome>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk_len)
            .map(|chunk| {
                let worker_obs = observer.clone();
                scope.spawn(move || {
                    let started_ns = worker_obs.now_ns();
                    let plans: IbResult<Vec<PlanOutcome>> = chunk
                        .iter()
                        .map(|&job| plan_switch(subnet, tree, job, topmost, mode))
                        .collect();
                    if worker_obs.is_enabled() {
                        worker_obs.record("planner.chunk_switches", chunk.len() as u64);
                        worker_obs.record(
                            "planner.worker_busy_ns",
                            worker_obs.now_ns().saturating_sub(started_ns),
                        );
                    }
                    plans
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(plans) => plans,
                // A worker panic is a bug in the planner itself, not a
                // degraded-fabric condition; surface it on this thread.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut plans = Vec::with_capacity(jobs.len());
    for chunk in per_chunk {
        plans.extend(chunk?);
    }
    Ok(plans)
}

/// Distributes `tables` into the subnet over the assumed channel: one SMP
/// per dirty block per switch, each block applied to the switch's installed
/// LFT. Planning fans out across `opts` worker threads; the SMP stream stays
/// byte-identical to the sequential path.
///
/// This entry point has no resume story: a dirty switch no SMP can be
/// addressed to is an error. It is raised once the pass is over, so what is
/// installed at that point is the update of every reachable switch, not
/// only of the switches ahead of the first unreachable one.
pub fn distribute_opts(
    subnet: &mut Subnet,
    sm_node: NodeId,
    tables: &RoutingTables,
    mode: SmpMode,
    ledger: &mut SmpLedger,
    opts: SweepOptions,
) -> IbResult<DistributionReport> {
    ledger.begin_phase("lft-distribution");
    let mut transport = SmpTransport::assumed(sm_node);
    let (acct, stranded) = push_blocks(
        subnet,
        sm_node,
        tables,
        mode,
        &mut transport,
        ledger,
        None,
        &HashSet::new(),
        opts,
    )?;
    refuse_stranded(subnet, sm_node, mode, &stranded)?;
    Ok(acct.report())
}

/// What a caller that assumes delivery makes of blocks left undelivered:
/// the addressing error of the first switch they were destined for.
pub(crate) fn refuse_stranded(
    subnet: &Subnet,
    sm_node: NodeId,
    mode: SmpMode,
    stranded: &[FailedBlock],
) -> IbResult<()> {
    let Some(first) = stranded.first() else {
        return Ok(());
    };
    address(subnet, Routes::Search(sm_node), first.switch, mode)?;
    Err(IbError::Topology(format!(
        "{} unreachable from SM",
        subnet.name_of(first.switch)
    )))
}

/// Writes one applied block into a planned switch's installed LFT.
/// Planning only emits updates for nodes that had an LFT, so a miss here
/// means the fabric degraded between plan and apply — an error, not a
/// panic, and the only case that formats the switch's name.
fn write_installed_block(
    subnet: &mut Subnet,
    switch: NodeId,
    block: usize,
    payload: &[Option<PortNum>; LFT_BLOCK_SIZE],
) -> IbResult<()> {
    let Some(lft) = subnet.lft_mut(switch) else {
        return Err(IbError::Management(format!(
            "{} lost its LFT mid-sweep",
            subnet.name_of(switch)
        )));
    };
    lft.write_block(block, payload);
    Ok(())
}

/// Exact cross-pass accounting for a resumable distribution.
///
/// Per-call [`DistributionReport`]s cannot be summed field-wise: a switch
/// that needed a retry pass would be counted in `switches_updated` once per
/// pass, and `max_blocks_per_switch` would see only each pass's fragment.
/// This accumulator tracks applied blocks *per switch* across the initial
/// pass and every retry pass over its failed blocks, so the final report is
/// identical to what a fault-free run would have produced once every block
/// has landed.
#[derive(Clone, Debug, Default)]
pub struct ResumeAccounting {
    applied: FxHashMap<NodeId, usize>,
}

impl ResumeAccounting {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs the blocks applied to `switch` in one pass.
    pub fn add_applied(&mut self, switch: NodeId, blocks: usize) {
        if blocks > 0 {
            *self.applied.entry(switch).or_insert(0) += blocks;
        }
    }

    /// Absorbs another pass's accounting wholesale.
    pub fn merge(&mut self, pass: ResumeAccounting) {
        for (switch, blocks) in pass.applied {
            self.add_applied(switch, blocks);
        }
    }

    /// The exact aggregate over everything absorbed so far.
    #[must_use]
    pub fn report(&self) -> DistributionReport {
        DistributionReport {
            lft_smps: self.applied.values().sum(),
            switches_updated: self.applied.len(),
            max_blocks_per_switch: self.applied.values().copied().max().unwrap_or(0),
        }
    }
}

/// The one apply loop, behind [`distribute_opts`], the full sweeps and the
/// repair pipeline: plans (possibly in parallel, every block or only
/// `candidates`), then sends serially through the transport. A block whose
/// SMP exhausts its retries is *not* applied to the installed LFT; it comes
/// back as a [`FailedBlock`] so the caller can resume with just those as
/// `candidates` instead of resending everything. A switch that is currently
/// unreachable (no directed route, no LID route) fails all of its dirty
/// blocks without consuming attempts. Switches in `unserved` (beyond a
/// split) are skipped. Returns per-switch accounting for this call only —
/// blocks actually attempted and applied here, never blocks from earlier
/// passes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn push_blocks<C: SmpChannel>(
    subnet: &mut Subnet,
    sm_node: NodeId,
    tables: &RoutingTables,
    mode: SmpMode,
    transport: &mut SmpTransport<C>,
    ledger: &mut SmpLedger,
    candidates: Option<&[FailedBlock]>,
    unserved: &HashSet<NodeId>,
    opts: SweepOptions,
) -> IbResult<(ResumeAccounting, Vec<FailedBlock>)> {
    let observer = ledger.observer().clone();
    let plans = plan_all(
        subnet, sm_node, tables, mode, candidates, unserved, opts, &observer,
    )?;
    let _apply_span = observer.span("sweep.apply");
    let mut acct = ResumeAccounting::new();
    let mut failed = Vec::new();

    for outcome in plans {
        let plan = match outcome {
            PlanOutcome::Clean => continue,
            PlanOutcome::Unreachable { switch, blocks } => {
                if observer.is_enabled() {
                    observer.add("sweep.unreachable_blocks", blocks.len() as u64);
                }
                failed.extend(
                    blocks
                        .into_iter()
                        .map(|block| FailedBlock { switch, block }),
                );
                continue;
            }
            PlanOutcome::Update(plan) => plan,
        };
        let mut smp = lft_smp_for(plan.switch, plan.routing);
        let mut sent = 0;
        if observer.is_enabled() {
            observer.add("sweep.dirty_blocks", plan.blocks.len() as u64);
        }
        for (block, payload) in &plan.blocks {
            retarget_lft_smp(&mut smp, *block, payload);
            match transport.send(subnet, &smp, plan.hops, ledger) {
                Ok(_) => {
                    write_installed_block(subnet, plan.switch, *block, payload)?;
                    sent += 1;
                }
                Err(IbError::Transport(_)) => {
                    failed.push(FailedBlock {
                        switch: plan.switch,
                        block: *block,
                    });
                }
                Err(e) => return Err(e),
            }
        }
        if sent > 0 && observer.is_enabled() {
            observer.incr("sweep.switches_updated");
        }
        acct.add_applied(plan.switch, sent);
    }
    Ok((acct, failed))
}

/// The route tree of one multi-target operation, searched from the SM's
/// node and counted as `sm.route_tree_builds`. Built per operation and
/// dropped with it: the topology epoch moves on every LID-registry edit, so
/// a tree kept across operations would never be current.
#[must_use]
pub fn route_tree(subnet: &Subnet, sm_node: NodeId, observer: &Observer) -> RouteTree {
    observer.incr("sm.route_tree_builds");
    RouteTree::build(subnet, sm_node)
}

/// SMP addressing for `target` under `mode`: the routing header and the
/// link traversals the packet takes from the SM, the route read off
/// `routes`.
pub fn address(
    subnet: &Subnet,
    routes: Routes<'_>,
    target: NodeId,
    mode: SmpMode,
) -> IbResult<(SmpRouting, usize)> {
    match mode {
        SmpMode::Directed => {
            let route = routes.directed(subnet, target).ok_or_else(|| {
                IbError::Topology(format!("{} unreachable from SM", subnet.name_of(target)))
            })?;
            let hops = route.hop_count();
            Ok((SmpRouting::Directed(route), hops))
        }
        SmpMode::Destination => {
            let routing = lid_routing(subnet, target)?;
            let hops = routes
                .hops(subnet, target)
                .ok_or_else(|| IbError::Topology("switch unreachable".into()))?;
            Ok((routing, hops))
        }
    }
}

/// Destination-routed addressing for `target`: its first LID.
pub fn lid_routing(subnet: &Subnet, target: NodeId) -> IbResult<SmpRouting> {
    let lid = subnet.node(target).lids().next().ok_or_else(|| {
        IbError::Management(format!(
            "{} has no LID for destination-routed SMPs",
            subnet.name_of(target)
        ))
    })?;
    Ok(SmpRouting::Destination(lid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_routing::testutil::assign_lids;
    use ib_routing::EngineKind;
    use ib_subnet::topology::fattree::two_level;
    use ib_types::Lid;

    /// [`distribute_opts`] with the default options.
    fn distribute(
        subnet: &mut Subnet,
        sm_node: NodeId,
        tables: &RoutingTables,
        mode: SmpMode,
        ledger: &mut SmpLedger,
    ) -> IbResult<DistributionReport> {
        distribute_opts(
            subnet,
            sm_node,
            tables,
            mode,
            ledger,
            SweepOptions::default(),
        )
    }

    /// One directed [`push_blocks`] pass from host 0: every block, or only
    /// the `failed` ones of an earlier pass.
    fn push<C: SmpChannel>(
        t: &mut ib_subnet::topology::BuiltTopology,
        tables: &RoutingTables,
        transport: &mut SmpTransport<C>,
        ledger: &mut SmpLedger,
        failed: Option<&[FailedBlock]>,
    ) -> (ResumeAccounting, Vec<FailedBlock>) {
        push_blocks(
            &mut t.subnet,
            t.hosts[0],
            tables,
            SmpMode::Directed,
            transport,
            ledger,
            failed,
            &HashSet::new(),
            SweepOptions::default(),
        )
        .unwrap()
    }

    fn setup() -> (ib_subnet::topology::BuiltTopology, RoutingTables) {
        let mut t = two_level(2, 3, 2);
        assign_lids(&mut t);
        let tables = EngineKind::MinHop.build().compute(&t.subnet).unwrap();
        (t, tables)
    }

    #[test]
    fn virgin_fabric_pays_n_times_m() {
        let (mut t, tables) = setup();
        let mut ledger = SmpLedger::new();
        let report = distribute(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut ledger,
        )
        .unwrap();
        // 10 LIDs -> topmost 10 -> 1 block; 4 switches -> 4 SMPs.
        assert_eq!(report.lft_smps, 4);
        assert_eq!(report.switches_updated, 4);
        assert_eq!(report.max_blocks_per_switch, 1);
        assert_eq!(ledger.lft_updates(), 4);
    }

    #[test]
    fn redistribution_is_free_when_nothing_changed() {
        let (mut t, tables) = setup();
        let mut ledger = SmpLedger::new();
        distribute(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut ledger,
        )
        .unwrap();
        let again = distribute(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut ledger,
        )
        .unwrap();
        assert_eq!(again.lft_smps, 0);
        assert_eq!(again.switches_updated, 0);
    }

    #[test]
    fn installed_lfts_route_traffic() {
        let (mut t, tables) = setup();
        let mut ledger = SmpLedger::new();
        distribute(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut ledger,
        )
        .unwrap();
        // After distribution the *subnet* LFTs (not just the tables) must
        // deliver packets between the first and last hosts.
        let last = t.hosts[5];
        let lid = t.subnet.node(last).ports[1].lid.unwrap();
        let path = t.subnet.trace_route(t.hosts[0], lid, 16).unwrap();
        assert_eq!(*path.last().unwrap(), last);
    }

    #[test]
    fn destination_mode_needs_switch_lids() {
        let (mut t, tables) = setup();
        let mut ledger = SmpLedger::new();
        let report = distribute(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Destination,
            &mut ledger,
        )
        .unwrap();
        assert_eq!(report.lft_smps, 4);
        // None of the recorded SMPs paid the directed-route overhead.
        assert!(ledger.records().iter().all(|r| !r.directed));
    }

    #[test]
    fn distribute_with_perfect_transport_matches_classic() {
        let (mut t, tables) = setup();
        let mut classic = t.subnet.clone();
        let mut ledger_a = SmpLedger::new();
        let report_a = distribute(
            &mut classic,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut ledger_a,
        )
        .unwrap();

        let mut transport = SmpTransport::perfect(t.hosts[0]);
        let mut ledger_b = SmpLedger::new();
        ledger_b.begin_phase("lft-distribution");
        let (acct, failed) = push(&mut t, &tables, &mut transport, &mut ledger_b, None);
        assert!(failed.is_empty());
        assert_eq!(report_a, acct.report());
        // Byte-identical ledgers: the channel is invisible when fault-free.
        assert_eq!(ledger_a.records(), ledger_b.records());
        assert_eq!(
            ledger_a.phase_total("lft-distribution"),
            ledger_b.phase_total("lft-distribution")
        );
        for sw in classic.physical_switches() {
            assert_eq!(sw.lft(), t.subnet.lft(sw.id), "{}", sw.name);
        }
    }

    /// No resume story: a dirty switch nothing can be addressed to is the
    /// addressing error, raised with every reachable switch installed.
    #[test]
    fn unaddressable_switch_is_an_error_after_the_reachable_ones_are_installed() {
        for mode in [SmpMode::Directed, SmpMode::Destination] {
            let (mut t, tables) = setup();
            // Leaf 1 sorts between leaf 0 and the spines; cut it off.
            let leaf1 = t.switch_levels[0][1];
            let uplinks: Vec<PortNum> = t
                .subnet
                .node(leaf1)
                .connected_ports()
                .filter(|(_, r)| t.subnet.node(r.node).is_switch())
                .map(|(p, _)| p)
                .collect();
            for port in uplinks {
                t.subnet.set_link_down(leaf1, port).unwrap();
            }
            let mut ledger = SmpLedger::new();
            let err = distribute(&mut t.subnet, t.hosts[0], &tables, mode, &mut ledger)
                .unwrap_err()
                .to_string();
            let expected = match mode {
                SmpMode::Directed => "topology error: leaf-1 unreachable from SM",
                SmpMode::Destination => "topology error: switch unreachable",
            };
            assert_eq!(err, expected);
            assert_eq!(ledger.lft_updates(), 3, "{mode:?}");
            for sw in t.subnet.physical_switches() {
                let installed = sw.lft().unwrap().get(Lid::from_raw(1)).is_some();
                assert_eq!(installed, sw.id != leaf1, "{mode:?} {}", sw.name);
            }
        }
    }

    #[test]
    fn black_hole_transport_fails_every_block_and_applies_none() {
        let (mut t, tables) = setup();
        let before: Vec<_> = t
            .subnet
            .physical_switches()
            .map(|s| (s.id, s.lft().unwrap().clone()))
            .collect();
        let mut transport =
            SmpTransport::with_channel(t.hosts[0], ib_mad::LossyChannel::black_hole());
        let mut ledger = SmpLedger::new();
        let (acct, failed) = push(&mut t, &tables, &mut transport, &mut ledger, None);
        let report = acct.report();
        assert_eq!(report.lft_smps, 0);
        assert_eq!(report.switches_updated, 0);
        assert_eq!(failed.len(), 4); // 4 switches x 1 block
        assert_eq!(ledger.delivered(), 0);
        for (sw, lft) in before {
            assert_eq!(t.subnet.lft(sw), Some(&lft));
        }
    }

    #[test]
    fn retry_resumes_only_failed_blocks() {
        let (mut t, tables) = setup();
        // ~40% per-hop drop: some blocks fail even with 4 attempts.
        let mut transport = SmpTransport::lossy(t.hosts[0], 0xBAD, 0.4, 0);
        transport.retry.max_attempts = 2;
        let mut ledger = SmpLedger::new();
        let (acct, mut failed) = push(&mut t, &tables, &mut transport, &mut ledger, None);
        let mut report = acct.report();
        // Keep retrying failed blocks until done (the channel is lossy but
        // fair, so this terminates with overwhelming probability).
        let mut passes = 0;
        while !failed.is_empty() && passes < 64 {
            let (more, still) = push(&mut t, &tables, &mut transport, &mut ledger, Some(&failed));
            report.lft_smps += more.report().lft_smps;
            failed = still;
            passes += 1;
        }
        assert!(failed.is_empty(), "did not converge");
        // Exactly the 4 blocks were eventually applied, once each.
        assert_eq!(report.lft_smps, 4);
        assert_eq!(ledger.lft_updates(), 4);
        assert!(ledger.retries() > 0 || ledger.dropped() > 0);
        // The fabric ends up fully routed.
        let last = t.hosts[5];
        let lid = t.subnet.node(last).ports[1].lid.unwrap();
        let path = t.subnet.trace_route(t.hosts[0], lid, 16).unwrap();
        assert_eq!(*path.last().unwrap(), last);
    }

    #[test]
    fn topmost_lid_rules_block_count() {
        // §VII-C: a single node holding the topmost unicast LID forces the
        // full 768-block LFT onto every switch.
        let (mut t, _) = setup();
        t.subnet.clear_lid(Lid::from_raw(10)).unwrap();
        t.subnet
            .assign_port_lid(t.hosts[5], ib_types::PortNum::new(1), Lid::from_raw(0xBFFF))
            .unwrap();
        let tables = EngineKind::MinHop.build().compute(&t.subnet).unwrap();
        let mut ledger = SmpLedger::new();
        let report = distribute(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut ledger,
        )
        .unwrap();
        assert_eq!(report.max_blocks_per_switch, 768);
    }

    /// Widens the fabric's LID footprint so every switch has several dirty
    /// blocks — enough for drops to split a switch's blocks across passes.
    fn multi_block_setup() -> (ib_subnet::topology::BuiltTopology, RoutingTables) {
        let mut t = two_level(2, 3, 2);
        assign_lids(&mut t);
        t.subnet.clear_lid(Lid::from_raw(10)).unwrap();
        t.subnet
            .assign_port_lid(t.hosts[5], ib_types::PortNum::new(1), Lid::from_raw(300))
            .unwrap();
        let tables = EngineKind::MinHop.build().compute(&t.subnet).unwrap();
        (t, tables)
    }

    #[test]
    fn parallel_planning_is_byte_identical() {
        let (t0, tables) = multi_block_setup();
        let mut reference: Option<(SmpLedger, Vec<(NodeId, Lft)>)> = None;
        for workers in [1usize, 2, 8] {
            let mut subnet = t0.subnet.clone();
            let mut ledger = SmpLedger::new();
            let report = distribute_opts(
                &mut subnet,
                t0.hosts[0],
                &tables,
                SmpMode::Directed,
                &mut ledger,
                SweepOptions::with_workers(workers),
            )
            .unwrap();
            assert!(report.lft_smps > 0);
            let lfts: Vec<(NodeId, Lft)> = subnet
                .physical_switches()
                .map(|s| (s.id, s.lft().unwrap().clone()))
                .collect();
            match &reference {
                None => reference = Some((ledger, lfts)),
                Some((ref_ledger, ref_lfts)) => {
                    assert_eq!(ref_ledger.records(), ledger.records(), "workers={workers}");
                    assert_eq!(ref_lfts, &lfts, "workers={workers}");
                }
            }
        }
    }

    /// Regression: a first pass plus retry passes over its failed blocks,
    /// merged through [`ResumeAccounting`], reproduces the fault-free
    /// report exactly — per-call reports count only blocks applied in that
    /// call, and switches split across passes are neither double-counted in
    /// `switches_updated` nor undercounted in `max_blocks_per_switch`.
    #[test]
    fn resumable_accounting_sums_to_fault_free() {
        // Fault-free baseline.
        let (mut clean, tables) = multi_block_setup();
        let mut ledger0 = SmpLedger::new();
        let mut perfect = SmpTransport::perfect(clean.hosts[0]);
        let (acct0, none_failed) = push(&mut clean, &tables, &mut perfect, &mut ledger0, None);
        let fault_free = acct0.report();
        assert!(none_failed.is_empty());
        assert!(
            fault_free.max_blocks_per_switch >= 4,
            "setup must give each switch several blocks"
        );

        // Injected drops: 2 attempts per SMP, 35% per-hop loss.
        let (mut t, tables) = multi_block_setup();
        let mut transport = SmpTransport::lossy(t.hosts[0], 0xD1CE, 0.35, 0);
        transport.retry.max_attempts = 2;
        let mut ledger = SmpLedger::new();
        let mut acct = ResumeAccounting::new();
        let (acct0, mut failed) = push(&mut t, &tables, &mut transport, &mut ledger, None);
        acct.merge(acct0);
        assert!(!failed.is_empty(), "seed must inject at least one drop");
        let mut passes = 0;
        while !failed.is_empty() && passes < 64 {
            let (more, still) = push(&mut t, &tables, &mut transport, &mut ledger, Some(&failed));
            acct.merge(more);
            failed = still;
            passes += 1;
        }
        assert!(failed.is_empty(), "did not converge");
        assert!(passes > 0, "seed must force at least one retry pass");
        // Exact equality on all three fields — the regression this guards.
        assert_eq!(acct.report(), fault_free);
        // And the ledger agrees block for block.
        assert_eq!(ledger.lft_updates(), fault_free.lft_smps);
    }
}
