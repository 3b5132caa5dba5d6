//! The topology-agnostic dynamic reconfiguration method (§V-C, Algorithm 1).
//!
//! Both variants share the same structure:
//!
//! * **(a)** one SMP to each participating hypervisor to set/unset the LID
//!   on the VF (plus one to install the vGUID at the destination), and
//! * **(b)** at most one or two `SubnSet(LinearForwardingTable)` SMPs per
//!   physical switch that actually needs its LFT changed:
//!   * *LID swapping* (prepopulated LIDs, §V-C1): exchange the rows of the
//!     VM's LID and the destination VF's LID — one SMP if the two LIDs
//!     share a 64-entry block, two otherwise (`m' ∈ {1, 2}`);
//!   * *LID copying* (dynamic assignment, §V-C2): overwrite the VM LID's
//!     row with the destination PF's row — always one SMP (`m' = 1`).
//!
//! No path is ever recomputed: `PCt` is eliminated outright, which is the
//! entire point of the paper. Nor is anything here sized by the fabric:
//! every pass addresses its SMPs off one [`RouteTree`] searched from the SM
//! and returns the [`CellChange`]s it made, so whoever keeps state derived
//! from the installed tables (the SM's repair baseline and reverse index)
//! follows at the cost of the `n'·m'` cells that moved.
//!
//! Step (b) is **plan, then apply**. A read-only planner per variant states
//! which cells change (`plan_swap`, `plan_copy` — also what
//! [`crate::affected`] predicts from); one `apply` installs any plan switch
//! by switch through an [`SmpTransport`], journaling as it goes and rolling
//! the fabric back from the journal when an SMP persistently fails. Which
//! channel the transport rides — assumed, perfect, lossy — is the only
//! thing that tells a classic migration from a fault-aware one.

use std::borrow::Cow;

use ib_mad::fault::{SmpChannel, SmpTransport};
use ib_mad::{lft_smp_for, retarget_lft_smp, RouteTree, Routes, Smp, SmpLedger};
use ib_routing::CellChange;
use ib_sm::distribution::address;
use ib_sm::SmpMode;
use ib_subnet::{NodeId, Subnet};
use ib_types::{IbError, IbResult, Lid, PortNum, LFT_BLOCK_SIZE};

use crate::vm::VmId;

/// Tunables of one reconfiguration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationOptions {
    /// How the LFT-update SMPs are addressed. §VI-B: switch LIDs are
    /// untouched by a VM migration, so destination routing is safe and
    /// removes the per-SMP directed-route overhead `r` (equation 5).
    pub smp_mode: SmpMode,
    /// §VI-C's partially-static variant: first forward the migrating LID
    /// to port 255 (drop) on every switch about to be updated — one extra
    /// SMP per such switch — so in-flight traffic towards the mover is
    /// discarded instead of risking a transition deadlock.
    pub invalidate_first: bool,
    /// §VI-D: when source and destination hypervisors share a leaf switch,
    /// update only that leaf (a leaf is non-blocking, so the rest of the
    /// fabric keeps routing both LIDs toward it correctly).
    pub intra_leaf_shortcut: bool,
}

impl Default for MigrationOptions {
    fn default() -> Self {
        Self {
            smp_mode: SmpMode::Destination,
            invalidate_first: false,
            intra_leaf_shortcut: false,
        }
    }
}

/// SMP accounting of one LFT-update pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LftUpdateStats {
    /// `SubnSet(LinearForwardingTable)` SMPs for the update itself.
    pub lft_smps: usize,
    /// Extra SMPs spent on port-255 invalidation, if enabled.
    pub invalidation_smps: usize,
    /// Switches that actually changed — the paper's `n'`.
    pub switches_updated: usize,
    /// Largest per-switch block count — the paper's `m'` (1 or 2).
    pub max_blocks_per_switch: usize,
}

/// Everything one migration did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationReport {
    /// Whether the migration committed. `false` means every touched LFT
    /// row was rolled back and the VM still runs at the source, its LID
    /// unchanged — the invariant the transaction protects.
    pub committed: bool,
    /// The migrated VM.
    pub vm: VmId,
    /// Source hypervisor index.
    pub from_hypervisor: usize,
    /// Destination hypervisor index.
    pub to_hypervisor: usize,
    /// VM LID before migration.
    pub lid_before: Lid,
    /// VM LID after migration (identical under both vSwitch architectures;
    /// different only under the Shared Port baseline).
    pub lid_after: Lid,
    /// Step (a) SMPs delivered: set/unset LID on the participating
    /// hypervisors plus the vGUID install.
    pub hypervisor_smps: usize,
    /// Step (b) accounting for whatever was applied before commit or
    /// rollback.
    pub lft: LftUpdateStats,
    /// Transactional accounting (retries, rollback cost).
    pub tx: TxStats,
    /// Whether source and destination share a leaf switch.
    pub intra_leaf: bool,
    /// Whether the intra-leaf shortcut actually restricted the update.
    pub used_leaf_shortcut: bool,
}

impl MigrationReport {
    /// Total SMPs of the whole migration.
    #[must_use]
    pub fn total_smps(&self) -> usize {
        self.hypervisor_smps + self.lft.lft_smps + self.lft.invalidation_smps
    }
}

/// The error for a switch the pass must update that holds no LFT.
fn no_lft(subnet: &Subnet, sw: NodeId) -> IbError {
    IbError::Management(format!("{} has no LFT", subnet.name_of(sw)))
}

fn cell(switch: NodeId, lid: Lid, old: Option<PortNum>, new: Option<PortNum>) -> CellChange {
    CellChange {
        switch,
        lid,
        old,
        new,
    }
}

/// The switches Algorithm 1 iterates for one update pass, in ascending
/// order: every physical switch, or an explicit restriction (the §VI-D
/// leaf-only case; the switches the SM can reach on a split fabric).
fn targets<'a>(subnet: &Subnet, restrict: Option<&'a [NodeId]>) -> Cow<'a, [NodeId]> {
    match restrict {
        Some(r) => Cow::Borrowed(r),
        None => {
            let mut v: Vec<NodeId> = subnet.physical_switches().map(|n| n.id).collect();
            v.sort_unstable_by_key(|n| n.index());
            Cow::Owned(v)
        }
    }
}

/// The cells a swap of `a` and `b` changes, in switch order: both rows of
/// every target switch whose two rows differ (`n'` switches; where the
/// initial routing already forwards both LIDs the same way there is
/// nothing to update, §VI-B). Errors when a target switch has no LFT.
pub(crate) fn plan_swap(
    subnet: &Subnet,
    a: Lid,
    b: Lid,
    restrict: Option<&[NodeId]>,
) -> IbResult<Vec<CellChange>> {
    let mut cells = Vec::new();
    for &sw in targets(subnet, restrict).iter() {
        let lft = subnet.lft(sw).ok_or_else(|| no_lft(subnet, sw))?;
        let (pa, pb) = (lft.get(a), lft.get(b));
        if pa != pb {
            cells.extend([cell(sw, a, pa, pb), cell(sw, b, pb, pa)]);
        }
    }
    Ok(cells)
}

/// The cells a copy of `pf_lid`'s row onto `vm_lid` changes, in switch
/// order: `vm_lid`'s row on every target switch where it is not already
/// that copy. Errors when a target switch has no LFT or no row for the PF
/// LID — the copy has no source row there, and skipping the switch could
/// leave the VM a stale row on it.
pub(crate) fn plan_copy(
    subnet: &Subnet,
    pf_lid: Lid,
    vm_lid: Lid,
    restrict: Option<&[NodeId]>,
) -> IbResult<Vec<CellChange>> {
    let mut cells = Vec::new();
    for &sw in targets(subnet, restrict).iter() {
        let lft = subnet.lft(sw).ok_or_else(|| no_lft(subnet, sw))?;
        let target = lft.get(pf_lid).ok_or_else(|| {
            IbError::Management(format!(
                "{} has no row for PF LID {pf_lid}",
                subnet.name_of(sw)
            ))
        })?;
        let old = lft.get(vm_lid);
        if old != Some(target) {
            cells.push(cell(sw, vm_lid, old, Some(target)));
        }
    }
    Ok(cells)
}

/// Accounting of one LFT-update pass as a transaction.
///
/// The attempts-versus-retries convention, pinned by regression tests and
/// reconciled against the [`SmpLedger`]'s per-attempt records: for every
/// *delivered* SMP, `attempts` counts all of its sends (first try
/// included) and `retries` counts `attempts − 1` — the sends beyond the
/// first. A fault-free pass therefore reports `retries == 0` and
/// `attempts` equal to its delivered-SMP count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Whether every LFT SMP was (eventually) delivered. `false` means the
    /// pass was rolled back and the installed LFTs match the pre-pass
    /// state.
    pub committed: bool,
    /// Retry attempts beyond each first try, summed over the delivered
    /// SMPs. Zero for a fault-free run.
    pub retries: usize,
    /// Total send attempts (first tries included) of the delivered SMPs.
    /// Always `retries` plus the number of delivered SMPs.
    pub attempts: usize,
    /// Switches whose rows were restored during rollback.
    pub rolled_back_switches: usize,
    /// Compensating SMPs attempted (best effort) during rollback.
    pub rollback_smps: usize,
}

impl TxStats {
    /// Absorbs the 0-based successful-attempt number the transport returned
    /// for one delivered SMP: `attempt` prior sends failed, so `attempt`
    /// retries and `attempt + 1` total attempts.
    pub(crate) fn count_delivery(&mut self, attempt: u32) {
        self.retries += attempt as usize;
        self.attempts += attempt as usize + 1;
    }
}

/// §V-C1 step (b): swap the LFT rows of `a` and `b` on every switch whose
/// rows differ. Exactly the paper's cost: `m' = 1` SMP per switch when the
/// LIDs share an LFT block, `m' = 2` otherwise, and `n'` = the number of
/// switches whose two rows are not already equal.
///
/// Every SMP is addressed off `tree` (rooted at the SM's node) and sent
/// through `transport`. The pass is a transaction: on the first persistent
/// delivery failure every row already written is rolled back and it reports
/// `committed = false` instead of leaving the fabric half-swapped. Returns
/// the accounting and the cells the pass changed — one entry per cell whose
/// value differs afterwards, in switch order; none after a rollback.
#[allow(clippy::too_many_arguments)]
pub fn swap_on_fabric<C: SmpChannel>(
    subnet: &mut Subnet,
    tree: &RouteTree,
    a: Lid,
    b: Lid,
    opts: &MigrationOptions,
    restrict: Option<&[NodeId]>,
    transport: &mut SmpTransport<C>,
    ledger: &mut SmpLedger,
) -> IbResult<(LftUpdateStats, TxStats, Vec<CellChange>)> {
    if a == b {
        return Err(IbError::Virtualization(
            "cannot swap a LID with itself".into(),
        ));
    }
    let _span = ledger.observer().span("migration.step_b.swap");
    let plan = plan_swap(subnet, a, b, restrict)?;
    Ok(apply(subnet, tree, plan, a, opts, transport, ledger))
}

/// §V-C2 step (b): make `vm_lid`'s row a copy of `pf_lid`'s row on every
/// switch where they differ. One SMP per updated switch, always. Addressing,
/// the transaction and the returned cell list are as for
/// [`swap_on_fabric`].
#[allow(clippy::too_many_arguments)]
pub fn copy_on_fabric<C: SmpChannel>(
    subnet: &mut Subnet,
    tree: &RouteTree,
    pf_lid: Lid,
    vm_lid: Lid,
    opts: &MigrationOptions,
    restrict: Option<&[NodeId]>,
    transport: &mut SmpTransport<C>,
    ledger: &mut SmpLedger,
) -> IbResult<(LftUpdateStats, TxStats, Vec<CellChange>)> {
    if pf_lid == vm_lid {
        return Err(IbError::Virtualization(
            "VM LID cannot equal the PF LID it copies".into(),
        ));
    }
    let _span = ledger.observer().span("migration.step_b.copy");
    let plan = plan_copy(subnet, pf_lid, vm_lid, restrict)?;
    Ok(apply(subnet, tree, plan, vm_lid, opts, transport, ledger))
}

/// Installs a planner's cells, switch by switch — the one loop that sends
/// Algorithm 1's LFT SMPs. Per switch: address it off `tree`, forward
/// `mover` (the migrating LID, which every planned switch holds a cell of)
/// to port 255 first when §VI-C's invalidation is on, write the planned
/// rows, and confirm with one SMP per touched block, in cell order.
///
/// The cells of every switch written so far are the undo journal. A switch
/// that cannot be addressed, or an SMP that exhausts its retries, rolls the
/// journal back (see [`rollback`]); the pass then reports `committed =
/// false` and no changed cell.
fn apply<C: SmpChannel>(
    subnet: &mut Subnet,
    tree: &RouteTree,
    plan: Vec<CellChange>,
    mover: Lid,
    opts: &MigrationOptions,
    transport: &mut SmpTransport<C>,
    ledger: &mut SmpLedger,
) -> (LftUpdateStats, TxStats, Vec<CellChange>) {
    let mut stats = LftUpdateStats::default();
    let mut tx = TxStats::default();
    let mut journaled = 0;
    tx.committed = 'pass: {
        for run in plan.chunk_by(|x, y| x.switch == y.switch) {
            let sw = run[0].switch;
            let Ok((routing, hops)) = address(subnet, Routes::Tree(tree), sw, opts.smp_mode) else {
                break 'pass false;
            };
            journaled += run.len();
            let mut smp = lft_smp_for(sw, routing);
            if opts.invalidate_first {
                write_row(subnet, sw, mover, Some(PortNum::DROP));
                let Ok(attempt) =
                    send_block_smp(subnet, &mut smp, mover.lft_block(), hops, transport, ledger)
                else {
                    break 'pass false;
                };
                tx.count_delivery(attempt);
                stats.invalidation_smps += 1;
            }
            for c in run {
                write_row(subnet, sw, c.lid, c.new);
            }
            let mut blocks = 0;
            for (i, c) in run.iter().enumerate() {
                let block = c.lid.lft_block();
                if run[..i].iter().any(|sent| sent.lid.lft_block() == block) {
                    continue;
                }
                let Ok(attempt) = send_block_smp(subnet, &mut smp, block, hops, transport, ledger)
                else {
                    break 'pass false;
                };
                tx.count_delivery(attempt);
                stats.lft_smps += 1;
                blocks += 1;
            }
            stats.switches_updated += 1;
            stats.max_blocks_per_switch = stats.max_blocks_per_switch.max(blocks);
        }
        true
    };

    if !tx.committed {
        let journal = &plan[..journaled];
        rollback(subnet, tree, opts, journal, transport, ledger, &mut tx);
        return (stats, tx, Vec::new());
    }
    let observer = ledger.observer();
    if observer.is_enabled() {
        observer.incr("migration.tx.committed");
        observer.record("migration.tx.retries", tx.retries as u64);
        observer.record("migration.tx.attempts", tx.attempts as u64);
    }
    (stats, tx, plan)
}

/// Writes one LFT row of the SM's intended state. A switch that lost its
/// LFT since it was planned has nothing to write — or to restore.
fn write_row(subnet: &mut Subnet, sw: NodeId, lid: Lid, port: Option<PortNum>) {
    if let Some(lft) = subnet.lft_mut(sw) {
        lft.assign(lid, port);
    }
}

/// Undoes every journaled cell (newest first) and pushes best-effort
/// compensating SMPs for the touched blocks.
///
/// The local restore is unconditional: the installed LFT models the state
/// the SM *intends*, and a compensating SMP that is itself lost leaves a
/// divergent physical switch that the next trap-driven re-sweep repairs —
/// exactly OpenSM's safety net, so the simulation does not block rollback
/// on it.
fn rollback<C: SmpChannel>(
    subnet: &mut Subnet,
    tree: &RouteTree,
    opts: &MigrationOptions,
    journal: &[CellChange],
    transport: &mut SmpTransport<C>,
    ledger: &mut SmpLedger,
    tx: &mut TxStats,
) {
    let mut switches: Vec<NodeId> = Vec::new();
    let mut blocks: Vec<(NodeId, usize)> = Vec::new();
    for row in journal.iter().rev() {
        write_row(subnet, row.switch, row.lid, row.old);
        if !switches.contains(&row.switch) {
            switches.push(row.switch);
        }
        let key = (row.switch, row.lid.lft_block());
        if !blocks.contains(&key) {
            blocks.push(key);
        }
    }
    tx.rolled_back_switches = switches.len();
    for (sw, block) in blocks {
        let Ok((routing, hops)) = address(subnet, Routes::Tree(tree), sw, opts.smp_mode) else {
            continue; // unreachable switch: the re-sweep will repair it
        };
        tx.rollback_smps += 1;
        let mut smp = lft_smp_for(sw, routing);
        let _ = send_block_smp(subnet, &mut smp, block, hops, transport, ledger);
    }
    let observer = ledger.observer();
    if observer.is_enabled() {
        observer.incr("migration.tx.rolled_back");
        observer.record("migration.tx.rollback_smps", tx.rollback_smps as u64);
    }
}

/// Sends the `SubnSet(LinearForwardingTable)` SMP for `block` of the
/// currently-installed LFT of `smp`'s target (the switch's reusable LFT
/// SMP) through the retrying transport.
fn send_block_smp<C: SmpChannel>(
    subnet: &Subnet,
    smp: &mut Smp,
    block: usize,
    hops: usize,
    transport: &mut SmpTransport<C>,
    ledger: &mut SmpLedger,
) -> IbResult<u32> {
    match subnet.lft(smp.target).and_then(|l| l.block(block)) {
        Some(data) => retarget_lft_smp(smp, block, data),
        None => retarget_lft_smp(smp, block, &[None; LFT_BLOCK_SIZE]),
    }
    transport.send(subnet, smp, hops, ledger)
}
#[cfg(test)]
mod tests {
    use super::*;
    use ib_mad::LossyChannel;
    use ib_sm::{SmConfig, SubnetManager};
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::BuiltTopology;

    /// Bring up a 2-level fat tree with the default SM.
    fn fabric() -> (BuiltTopology, SubnetManager) {
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.bring_up(&mut t.subnet).unwrap();
        (t, sm)
    }

    fn host_lid(t: &BuiltTopology, i: usize) -> Lid {
        t.subnet.node(t.hosts[i]).ports[1].lid.unwrap()
    }

    type Pass = IbResult<(LftUpdateStats, TxStats, Vec<CellChange>)>;

    /// [`swap_on_fabric`] off a fresh route tree, over `transport`.
    fn swap_over<C: SmpChannel>(
        (t, sm): &mut (BuiltTopology, SubnetManager),
        (a, b): (Lid, Lid),
        opts: &MigrationOptions,
        restrict: Option<&[NodeId]>,
        transport: &mut SmpTransport<C>,
    ) -> Pass {
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        swap_on_fabric(
            &mut t.subnet,
            &tree,
            a,
            b,
            opts,
            restrict,
            transport,
            &mut sm.ledger,
        )
    }

    /// [`copy_on_fabric`] off a fresh route tree, over `transport`.
    fn copy_over<C: SmpChannel>(
        (t, sm): &mut (BuiltTopology, SubnetManager),
        (pf, vm): (Lid, Lid),
        opts: &MigrationOptions,
        restrict: Option<&[NodeId]>,
        transport: &mut SmpTransport<C>,
    ) -> Pass {
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        copy_on_fabric(
            &mut t.subnet,
            &tree,
            pf,
            vm,
            opts,
            restrict,
            transport,
            &mut sm.ledger,
        )
    }

    /// The swap over the assumed channel, which always commits.
    fn swap(
        f: &mut (BuiltTopology, SubnetManager),
        lids: (Lid, Lid),
        opts: &MigrationOptions,
        restrict: Option<&[NodeId]>,
    ) -> IbResult<(LftUpdateStats, Vec<CellChange>)> {
        let mut transport = SmpTransport::assumed(f.1.sm_node);
        let (stats, tx, cells) = swap_over(f, lids, opts, restrict, &mut transport)?;
        assert!(tx.committed);
        Ok((stats, cells))
    }

    /// The copy over the assumed channel, which always commits.
    fn copy(
        f: &mut (BuiltTopology, SubnetManager),
        lids: (Lid, Lid),
        opts: &MigrationOptions,
        restrict: Option<&[NodeId]>,
    ) -> IbResult<(LftUpdateStats, Vec<CellChange>)> {
        let mut transport = SmpTransport::assumed(f.1.sm_node);
        let (stats, tx, cells) = copy_over(f, lids, opts, restrict, &mut transport)?;
        assert!(tx.committed);
        Ok((stats, cells))
    }

    fn black_hole(sm: &SubnetManager) -> SmpTransport<LossyChannel> {
        SmpTransport::with_channel(sm.sm_node, LossyChannel::black_hole())
    }

    fn lfts(subnet: &Subnet) -> Vec<(NodeId, ib_subnet::Lft)> {
        subnet
            .physical_switches()
            .map(|n| (n.id, n.lft().unwrap().clone()))
            .collect()
    }

    const INVALIDATE: MigrationOptions = MigrationOptions {
        smp_mode: SmpMode::Destination,
        invalidate_first: true,
        intra_leaf_shortcut: false,
    };

    #[test]
    fn swap_costs_one_smp_per_switch_same_block() {
        let mut f = fabric();
        let a = host_lid(&f.0, 1); // on leaf 0
        let b = host_lid(&f.0, 4); // on leaf 1
        let (stats, _) = swap(&mut f, (a, b), &MigrationOptions::default(), None).unwrap();
        // All LIDs < 64: every updated switch takes exactly one SMP.
        assert_eq!(stats.max_blocks_per_switch, 1);
        assert!(stats.switches_updated >= 1);
        assert_eq!(stats.lft_smps, stats.switches_updated);
        assert_eq!(stats.invalidation_smps, 0);
    }

    #[test]
    fn swap_across_blocks_costs_two() {
        let mut f = fabric();
        // Re-home host 5 onto LID 70 (block 1) to force the 2-SMP case.
        let h5 = f.0.hosts[5];
        let old = host_lid(&f.0, 5);
        f.0.subnet.clear_lid(old).unwrap();
        f.0.subnet
            .assign_port_lid(h5, PortNum::new(1), Lid::from_raw(70))
            .unwrap();
        f.1.full_reconfiguration(&mut f.0.subnet).unwrap();

        let a = host_lid(&f.0, 1);
        let opts = MigrationOptions::default();
        let (stats, _) = swap(&mut f, (a, Lid::from_raw(70)), &opts, None).unwrap();
        assert_eq!(stats.max_blocks_per_switch, 2);
        assert_eq!(stats.lft_smps, stats.switches_updated * 2);
    }

    #[test]
    fn swap_skips_switches_already_aligned() {
        let mut f = fabric();
        // Hosts 1 and 2 share leaf 0: from leaf 1's perspective both are
        // reached over (possibly) the same uplink; from leaf 0 they differ.
        let a = host_lid(&f.0, 1);
        let b = host_lid(&f.0, 2);
        let total_switches = f.0.subnet.num_physical_switches();
        let (stats, _) = swap(&mut f, (a, b), &MigrationOptions::default(), None).unwrap();
        assert!(
            stats.switches_updated < total_switches,
            "n' must be < n when some switches already route both LIDs alike"
        );
        // Their shared leaf must be among the updated (different ports).
        assert!(stats.switches_updated >= 1);
    }

    #[test]
    fn swap_is_involution_on_the_fabric() {
        let mut f = fabric();
        let a = host_lid(&f.0, 1);
        let b = host_lid(&f.0, 4);
        let snapshot = lfts(&f.0.subnet);
        let opts = MigrationOptions::default();
        swap(&mut f, (a, b), &opts, None).unwrap();
        swap(&mut f, (a, b), &opts, None).unwrap();
        for (id, before) in snapshot {
            assert_eq!(f.0.subnet.lft(id).unwrap(), &before);
        }
    }

    #[test]
    fn copy_costs_at_most_one_smp_per_switch() {
        let mut f = fabric();
        // Add a fresh VM LID and copy host 4's path onto it.
        let pf = host_lid(&f.0, 4);
        let vm_lid = Lid::from_raw(40);
        let (stats, _) = copy(&mut f, (pf, vm_lid), &MigrationOptions::default(), None).unwrap();
        assert_eq!(stats.max_blocks_per_switch, 1);
        assert_eq!(stats.lft_smps, stats.switches_updated);
        // Every physical switch now forwards the VM LID like the PF LID.
        for sw in f.0.subnet.physical_switches() {
            let lft = sw.lft().unwrap();
            assert_eq!(lft.get(vm_lid), lft.get(pf));
        }
    }

    #[test]
    fn copy_is_idempotent() {
        let mut f = fabric();
        let pf = host_lid(&f.0, 4);
        let vm_lid = Lid::from_raw(40);
        let opts = MigrationOptions::default();
        copy(&mut f, (pf, vm_lid), &opts, None).unwrap();
        let (again, _) = copy(&mut f, (pf, vm_lid), &opts, None).unwrap();
        assert_eq!(again.lft_smps, 0);
        assert_eq!(again.switches_updated, 0);
    }

    #[test]
    fn invalidate_first_adds_n_prime_smps() {
        let mut f = fabric();
        let a = host_lid(&f.0, 1);
        let b = host_lid(&f.0, 4);
        let (stats, _) = swap(&mut f, (a, b), &INVALIDATE, None).unwrap();
        assert_eq!(stats.invalidation_smps, stats.switches_updated);
    }

    #[test]
    fn restriction_limits_the_update() {
        let mut f = fabric();
        let a = host_lid(&f.0, 1);
        let b = host_lid(&f.0, 2); // same leaf
        let leaf0 = f.0.switch_levels[0][0];
        let opts = MigrationOptions::default();
        let (stats, _) = swap(&mut f, (a, b), &opts, Some(&[leaf0])).unwrap();
        assert!(stats.switches_updated <= 1);
        let (t, _) = &mut f;
        // The LFT swap moves the LIDs between the two hosts; move the
        // endpoint registrations accordingly (the caller's step (a)).
        t.subnet.clear_lid(a).unwrap();
        t.subnet.clear_lid(b).unwrap();
        t.subnet
            .assign_port_lid(t.hosts[2], PortNum::new(1), a)
            .unwrap();
        t.subnet
            .assign_port_lid(t.hosts[1], PortNum::new(1), b)
            .unwrap();
        // Traffic to both LIDs still delivers from everywhere.
        for &h in &t.hosts {
            for lid in [a, b] {
                let path = t.subnet.trace_route(h, lid, 16).unwrap();
                let end = *path.last().unwrap();
                let ep = t.subnet.endpoint_of(lid).unwrap();
                assert_eq!(end, ep.node);
            }
        }
    }

    #[test]
    fn self_swap_and_self_copy_rejected() {
        let mut f = fabric();
        let a = host_lid(&f.0, 1);
        let opts = MigrationOptions::default();
        assert!(swap(&mut f, (a, a), &opts, None).is_err());
        assert!(copy(&mut f, (a, a), &opts, None).is_err());
    }

    /// The cell list is the exact diff of the pass: one entry per cell
    /// whose installed value differs afterwards — the transient DROP of
    /// `invalidate_first` is not a change, switches outside `restrict` and
    /// switches already aligned contribute nothing. It is also exactly what
    /// the planners said beforehand.
    #[test]
    fn passes_report_exactly_the_cells_that_differ() {
        let diff = |before: &Subnet, after: &Subnet, lids: &[Lid]| {
            let mut cells = Vec::new();
            for sw in before.physical_switches() {
                for &lid in lids {
                    let old = sw.lft().unwrap().get(lid);
                    let new = after.lft(sw.id).unwrap().get(lid);
                    if old != new {
                        cells.push(cell(sw.id, lid, old, new));
                    }
                }
            }
            cells
        };

        let mut f = fabric();
        let (a, b) = (host_lid(&f.0, 1), host_lid(&f.0, 2)); // same leaf
        let before = f.0.subnet.clone();
        let plan = plan_swap(&before, a, b, None).unwrap();
        let mut transport = SmpTransport::perfect(f.1.sm_node);
        let (stats, tx, cells) =
            swap_over(&mut f, (a, b), &INVALIDATE, None, &mut transport).unwrap();
        assert!(tx.committed);
        assert_eq!(tx.attempts, stats.lft_smps + stats.invalidation_smps);
        assert!(stats.switches_updated < f.0.subnet.num_physical_switches());
        assert_eq!(cells.len(), 2 * stats.switches_updated);
        assert_eq!(cells, diff(&before, &f.0.subnet, &[a, b]));
        assert_eq!(cells, plan);

        let leaf1 = f.0.switch_levels[0][1];
        let (pf, vm) = (host_lid(&f.0, 4), Lid::from_raw(40));
        let before = f.0.subnet.clone();
        let plan = plan_copy(&before, pf, vm, Some(&[leaf1])).unwrap();
        let (stats, cells) = copy(&mut f, (pf, vm), &INVALIDATE, Some(&[leaf1])).unwrap();
        assert_eq!(stats.switches_updated, 1);
        assert_eq!(
            cells,
            vec![cell(
                leaf1,
                vm,
                None,
                f.0.subnet.lft(leaf1).unwrap().get(pf)
            )]
        );
        assert_eq!(cells, diff(&before, &f.0.subnet, &[vm]));
        assert_eq!(cells, plan);
    }

    /// The channel is the only difference: over the assumed, the perfect
    /// and a zero-loss lossy channel the pass sends the same SMPs, writes
    /// the same rows and reports the same numbers, with and without §VI-C's
    /// invalidation.
    #[test]
    fn tx_swap_under_perfect_transport_matches_classic() {
        for opts in [MigrationOptions::default(), INVALIDATE] {
            let mut classic = fabric();
            let a = host_lid(&classic.0, 1);
            let b = host_lid(&classic.0, 4);
            let mut assumed = SmpTransport::assumed(classic.1.sm_node);
            let reference = swap_over(&mut classic, (a, b), &opts, None, &mut assumed).unwrap();
            assert_eq!(
                reference.0.invalidation_smps,
                if opts.invalidate_first {
                    reference.0.switches_updated
                } else {
                    0
                }
            );

            let mut perfect = fabric();
            let mut transport = SmpTransport::perfect(perfect.1.sm_node);
            let checked = swap_over(&mut perfect, (a, b), &opts, None, &mut transport).unwrap();
            let mut lossless = fabric();
            let mut transport = SmpTransport::lossy(lossless.1.sm_node, 9, 0.0, 0);
            let seeded = swap_over(&mut lossless, (a, b), &opts, None, &mut transport).unwrap();

            for (other, (stats, tx, cells)) in [(&perfect, checked), (&lossless, seeded)] {
                assert!(tx.committed);
                assert_eq!(tx.retries, 0);
                assert_eq!(tx.rollback_smps, 0);
                assert_eq!(
                    (stats, tx, &cells),
                    (reference.0, reference.1, &reference.2)
                );
                assert_eq!(classic.1.ledger.records(), other.1.ledger.records());
                assert_eq!(lfts(&classic.0.subnet), lfts(&other.0.subnet));
            }
        }
    }

    #[test]
    fn tx_swap_rolls_back_on_black_hole() {
        for opts in [MigrationOptions::default(), INVALIDATE] {
            let mut f = fabric();
            let a = host_lid(&f.0, 1);
            let b = host_lid(&f.0, 4);
            let snapshot = lfts(&f.0.subnet);
            let mut transport = black_hole(&f.1);
            let (stats, tx, cells) =
                swap_over(&mut f, (a, b), &opts, None, &mut transport).unwrap();
            assert!(!tx.committed);
            assert!(cells.is_empty(), "a rolled-back pass changed nothing");
            // The very first switch fails, so exactly its rows were journaled
            // — under invalidation, after the port-255 write.
            assert_eq!(tx.rolled_back_switches, 1);
            assert!(tx.rollback_smps >= 1);
            assert_eq!(stats.invalidation_smps, 0);
            // Every row is restored: the mover's to its port, not to DROP.
            assert_eq!(lfts(&f.0.subnet), snapshot, "rows must be restored");
            assert!(f.1.ledger.dropped() > 0);
        }
    }

    #[test]
    fn tx_copy_rolls_back_on_black_hole() {
        let mut f = fabric();
        let pf = host_lid(&f.0, 4);
        let vm_lid = Lid::from_raw(40);
        let snapshot = lfts(&f.0.subnet);
        let mut transport = black_hole(&f.1);
        let opts = MigrationOptions::default();
        let (_, tx, cells) = copy_over(&mut f, (pf, vm_lid), &opts, None, &mut transport).unwrap();
        assert!(!tx.committed);
        assert!(cells.is_empty(), "a rolled-back pass changed nothing");
        assert_eq!(lfts(&f.0.subnet), snapshot);
    }

    /// A planner error refuses the pass before a row is written or an SMP
    /// sent, whatever the channel.
    #[test]
    fn a_refused_plan_writes_nothing() {
        let mut f = fabric();
        let (pf, vm) = (host_lid(&f.0, 4), Lid::from_raw(40));
        let last = f.0.subnet.physical_switches().last().unwrap().id;
        f.0.subnet.lft_mut(last).unwrap().clear(pf);
        let snapshot = lfts(&f.0.subnet);
        let sent = f.1.ledger.total();
        assert!(copy(&mut f, (pf, vm), &MigrationOptions::default(), None).is_err());
        assert_eq!(lfts(&f.0.subnet), snapshot);
        assert_eq!(f.1.ledger.total(), sent);
    }

    #[test]
    fn tx_swap_survives_moderate_loss() {
        let mut f = fabric();
        let mut base = fabric();
        let a = host_lid(&f.0, 1);
        let b = host_lid(&f.0, 4);
        let opts = MigrationOptions::default();
        swap(&mut base, (a, b), &opts, None).unwrap();
        let mut transport = SmpTransport::lossy(f.1.sm_node, 7, 0.10, 0);
        transport.retry.max_attempts = 8;
        let (_, tx, cells) = swap_over(&mut f, (a, b), &opts, None, &mut transport).unwrap();
        assert!(tx.committed, "8 attempts at 10% per-hop loss must converge");
        assert!(!cells.is_empty());
        assert_eq!(
            lfts(&f.0.subnet),
            lfts(&base.0.subnet),
            "lossy commit must equal the fault-free result"
        );
    }

    #[test]
    fn destination_mode_smps_avoid_directed_overhead() {
        let mut f = fabric();
        let a = host_lid(&f.0, 1);
        let b = host_lid(&f.0, 4);
        f.1.ledger.reset();
        let opts = MigrationOptions {
            smp_mode: SmpMode::Destination,
            ..MigrationOptions::default()
        };
        swap(&mut f, (a, b), &opts, None).unwrap();
        assert!(f.1.ledger.records().iter().all(|r| !r.directed));

        let opts = MigrationOptions {
            smp_mode: SmpMode::Directed,
            ..MigrationOptions::default()
        };
        f.1.ledger.reset();
        swap(&mut f, (b, a), &opts, None).unwrap();
        assert!(f.1.ledger.records().iter().all(|r| r.directed));
    }
}
