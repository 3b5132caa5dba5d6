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

use ib_mad::fault::{SmpChannel, SmpTransport};
use ib_mad::{lft_smp_for, retarget_lft_smp, RouteTree, Routes, Smp, SmpLedger, SmpRouting};
use ib_routing::CellChange;
use ib_sm::distribution::{address, lid_routing};
use ib_sm::SmpMode;
use ib_subnet::{Lft, NodeId, Subnet};
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
    /// Step (a) SMPs: set/unset LID on the participating hypervisors plus
    /// the vGUID install.
    pub hypervisor_smps: usize,
    /// Step (b) accounting.
    pub lft: LftUpdateStats,
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

/// The error for a switch the pass must update that holds no LFT: not a
/// switch, or degraded mid-operation — the caller gets to roll back.
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

/// The switches Algorithm 1 iterates for one update pass: every physical
/// switch, or an explicit restriction (the §VI-D leaf-only case).
fn targets(subnet: &Subnet, restrict: Option<&[NodeId]>) -> Vec<NodeId> {
    match restrict {
        Some(r) => r.to_vec(),
        None => {
            let mut v: Vec<NodeId> = subnet.physical_switches().map(|n| n.id).collect();
            v.sort_unstable_by_key(|n| n.index());
            v
        }
    }
}

/// The LFT blocks a swap of `a` and `b` rewrites per switch: one when the
/// LIDs share a block, two otherwise (`m'`).
fn swap_blocks(a: Lid, b: Lid) -> Vec<usize> {
    if a.same_block(b) {
        vec![a.lft_block()]
    } else {
        vec![a.lft_block(), b.lft_block()]
    }
}

/// §V-C1 step (b): swap the LFT rows of `a` and `b` on every switch whose
/// rows differ. Exactly the paper's cost: `m' = 1` SMP per switch when the
/// LIDs share an LFT block, `m' = 2` otherwise, and `n'` = the number of
/// switches whose two rows are not already equal.
///
/// Every SMP is addressed off `tree` (rooted at the SM's node). Returns the
/// accounting and the cells the pass changed — one entry per cell whose
/// value differs afterwards, in switch order.
pub fn swap_on_fabric(
    subnet: &mut Subnet,
    tree: &RouteTree,
    a: Lid,
    b: Lid,
    opts: &MigrationOptions,
    restrict: Option<&[NodeId]>,
    ledger: &mut SmpLedger,
) -> IbResult<(LftUpdateStats, Vec<CellChange>)> {
    if a == b {
        return Err(IbError::Virtualization(
            "cannot swap a LID with itself".into(),
        ));
    }
    let _span = ledger.observer().span("migration.step_b.swap");
    let mut stats = LftUpdateStats::default();
    let mut cells = Vec::new();
    let blocks = swap_blocks(a, b);

    for sw in targets(subnet, restrict) {
        let lft = subnet.lft(sw).ok_or_else(|| no_lft(subnet, sw))?;
        let (pa, pb) = (lft.get(a), lft.get(b));
        if pa == pb {
            // §VI-B: the initial routing already forwards both LIDs the
            // same way from here — nothing to update on this switch.
            continue;
        }
        let (routing, hops) = address(subnet, Routes::Tree(tree), sw, opts.smp_mode)?;
        let mut smp = lft_smp_for(sw, routing);
        if opts.invalidate_first {
            record_block_smp(subnet, &mut smp, a.lft_block(), hops, ledger);
            let Some(lft) = subnet.lft_mut(sw) else {
                return Err(no_lft(subnet, sw));
            };
            lft.set(a, PortNum::DROP);
            stats.invalidation_smps += 1;
        }
        let Some(lft) = subnet.lft_mut(sw) else {
            return Err(no_lft(subnet, sw));
        };
        lft.assign(a, pb);
        lft.assign(b, pa);
        cells.extend([cell(sw, a, pa, pb), cell(sw, b, pb, pa)]);
        for &block in &blocks {
            record_block_smp(subnet, &mut smp, block, hops, ledger);
        }
        stats.lft_smps += blocks.len();
        stats.switches_updated += 1;
        stats.max_blocks_per_switch = stats.max_blocks_per_switch.max(blocks.len());
    }
    Ok((stats, cells))
}

/// The row `vm_lid` must copy on `sw`, or the "no row" error.
fn pf_row(subnet: &Subnet, sw: NodeId, lft: &Lft, pf_lid: Lid) -> IbResult<PortNum> {
    lft.get(pf_lid).ok_or_else(|| {
        IbError::Management(format!(
            "{} has no row for PF LID {pf_lid}",
            subnet.name_of(sw)
        ))
    })
}

/// §V-C2 step (b): make `vm_lid`'s row a copy of `pf_lid`'s row on every
/// switch where they differ. One SMP per updated switch, always. Addressing
/// and the returned cell list are as for [`swap_on_fabric`].
pub fn copy_on_fabric(
    subnet: &mut Subnet,
    tree: &RouteTree,
    pf_lid: Lid,
    vm_lid: Lid,
    opts: &MigrationOptions,
    restrict: Option<&[NodeId]>,
    ledger: &mut SmpLedger,
) -> IbResult<(LftUpdateStats, Vec<CellChange>)> {
    if pf_lid == vm_lid {
        return Err(IbError::Virtualization(
            "VM LID cannot equal the PF LID it copies".into(),
        ));
    }
    let _span = ledger.observer().span("migration.step_b.copy");
    let mut stats = LftUpdateStats::default();
    let mut cells = Vec::new();

    for sw in targets(subnet, restrict) {
        let lft = subnet.lft(sw).ok_or_else(|| no_lft(subnet, sw))?;
        let target = pf_row(subnet, sw, lft, pf_lid)?;
        let old = lft.get(vm_lid);
        if old == Some(target) {
            continue;
        }
        let (routing, hops) = address(subnet, Routes::Tree(tree), sw, opts.smp_mode)?;
        let mut smp = lft_smp_for(sw, routing);
        if opts.invalidate_first {
            record_block_smp(subnet, &mut smp, vm_lid.lft_block(), hops, ledger);
            let Some(lft) = subnet.lft_mut(sw) else {
                return Err(no_lft(subnet, sw));
            };
            lft.set(vm_lid, PortNum::DROP);
            stats.invalidation_smps += 1;
        }
        let Some(lft) = subnet.lft_mut(sw) else {
            return Err(no_lft(subnet, sw));
        };
        lft.set(vm_lid, target);
        cells.push(cell(sw, vm_lid, old, Some(target)));
        record_block_smp(subnet, &mut smp, vm_lid.lft_block(), hops, ledger);
        stats.lft_smps += 1;
        stats.switches_updated += 1;
        stats.max_blocks_per_switch = 1;
    }
    Ok((stats, cells))
}

// ----------------------------------------------------------------------
// Transactional variants
// ----------------------------------------------------------------------

/// Accounting of one transactional LFT-update pass.
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

/// Everything one resilient (transactional) migration did — the
/// fault-aware counterpart of [`MigrationReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxMigrationReport {
    /// Whether the migration committed. `false` means every touched LFT
    /// row was rolled back and the VM still runs at the source.
    pub committed: bool,
    /// The VM the migration was for.
    pub vm: VmId,
    /// Source hypervisor index.
    pub from_hypervisor: usize,
    /// Destination hypervisor index.
    pub to_hypervisor: usize,
    /// The VM's LID (unchanged whether the migration commits or rolls
    /// back — that is the invariant the transaction protects).
    pub lid: Lid,
    /// Step (a) SMPs actually delivered to hypervisors.
    pub hypervisor_smps: usize,
    /// Step (b) accounting for whatever was applied before commit or
    /// rollback.
    pub lft: LftUpdateStats,
    /// Transactional accounting (retries, rollback cost).
    pub tx: TxStats,
}

/// Addressing for a transactional pass: an unroutable switch (e.g. cut off
/// by a mid-migration link failure) is a delivery failure, not a
/// programming error. `None` means no SMP can even be addressed; a switch
/// that has a LID but no live path is still addressed (0 hops) and the
/// transport finds the break, so its attempts land on the ledger.
fn address_tx(
    subnet: &Subnet,
    tree: &RouteTree,
    sw: NodeId,
    mode: SmpMode,
) -> Option<(SmpRouting, usize)> {
    address(subnet, Routes::Tree(tree), sw, mode)
        .or_else(|e| match mode {
            SmpMode::Destination => lid_routing(subnet, sw).map(|routing| (routing, 0)),
            SmpMode::Directed => Err(e),
        })
        .ok()
}

/// §V-C1 step (b) under a faulty fabric: the row swap of
/// [`swap_on_fabric`], executed transactionally. Rows are applied switch
/// by switch and confirmed with retried SMPs through `transport`; on the
/// first persistent delivery failure every already-applied row is rolled
/// back (locally unconditionally, remotely via best-effort compensating
/// SMPs) and the pass reports `committed = false` instead of leaving the
/// fabric half-swapped.
///
/// The changed-cell list doubles as the undo journal: a committed pass
/// returns it, a rolled-back pass changed nothing and returns none.
#[allow(clippy::too_many_arguments)]
pub fn swap_on_fabric_tx<C: SmpChannel>(
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
    let mut stats = LftUpdateStats::default();
    let mut tx = TxStats {
        committed: true,
        ..TxStats::default()
    };
    let mut journal: Vec<CellChange> = Vec::new();
    let blocks = swap_blocks(a, b);

    for sw in targets(subnet, restrict) {
        let lft = subnet.lft(sw).ok_or_else(|| no_lft(subnet, sw))?;
        let (pa, pb) = (lft.get(a), lft.get(b));
        if pa == pb {
            continue;
        }
        let Some((routing, hops)) = address_tx(subnet, tree, sw, opts.smp_mode) else {
            rollback(subnet, tree, opts, &journal, transport, ledger, &mut tx);
            return Ok((stats, tx, Vec::new()));
        };
        journal.extend([cell(sw, a, pa, pb), cell(sw, b, pb, pa)]);
        let Some(lft) = subnet.lft_mut(sw) else {
            // The switch degraded between the read and the write: treat
            // it as a delivery failure and roll the pass back.
            rollback(subnet, tree, opts, &journal, transport, ledger, &mut tx);
            return Ok((stats, tx, Vec::new()));
        };
        lft.assign(a, pb);
        lft.assign(b, pa);
        let mut smp = lft_smp_for(sw, routing);
        for &block in &blocks {
            match send_block_smp(subnet, &mut smp, block, hops, transport, ledger) {
                Ok(attempt) => {
                    tx.count_delivery(attempt);
                    stats.lft_smps += 1;
                }
                Err(IbError::Transport(_)) => {
                    rollback(subnet, tree, opts, &journal, transport, ledger, &mut tx);
                    return Ok((stats, tx, Vec::new()));
                }
                Err(e) => return Err(e),
            }
        }
        stats.switches_updated += 1;
        stats.max_blocks_per_switch = stats.max_blocks_per_switch.max(blocks.len());
    }
    observe_commit(ledger, &tx);
    Ok((stats, tx, journal))
}

/// §V-C2 step (b) under a faulty fabric: the row copy of
/// [`copy_on_fabric`], executed transactionally with the same
/// journal/rollback discipline as [`swap_on_fabric_tx`].
#[allow(clippy::too_many_arguments)]
pub fn copy_on_fabric_tx<C: SmpChannel>(
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
    let mut stats = LftUpdateStats::default();
    let mut tx = TxStats {
        committed: true,
        ..TxStats::default()
    };
    let mut journal: Vec<CellChange> = Vec::new();

    for sw in targets(subnet, restrict) {
        let lft = subnet.lft(sw).ok_or_else(|| no_lft(subnet, sw))?;
        let target = pf_row(subnet, sw, lft, pf_lid)?;
        let old = lft.get(vm_lid);
        if old == Some(target) {
            continue;
        }
        let Some((routing, hops)) = address_tx(subnet, tree, sw, opts.smp_mode) else {
            rollback(subnet, tree, opts, &journal, transport, ledger, &mut tx);
            return Ok((stats, tx, Vec::new()));
        };
        journal.push(cell(sw, vm_lid, old, Some(target)));
        let Some(lft) = subnet.lft_mut(sw) else {
            rollback(subnet, tree, opts, &journal, transport, ledger, &mut tx);
            return Ok((stats, tx, Vec::new()));
        };
        lft.set(vm_lid, target);
        let mut smp = lft_smp_for(sw, routing);
        match send_block_smp(
            subnet,
            &mut smp,
            vm_lid.lft_block(),
            hops,
            transport,
            ledger,
        ) {
            Ok(attempt) => {
                tx.count_delivery(attempt);
                stats.lft_smps += 1;
                stats.switches_updated += 1;
                stats.max_blocks_per_switch = 1;
            }
            Err(IbError::Transport(_)) => {
                rollback(subnet, tree, opts, &journal, transport, ledger, &mut tx);
                return Ok((stats, tx, Vec::new()));
            }
            Err(e) => return Err(e),
        }
    }
    observe_commit(ledger, &tx);
    Ok((stats, tx, journal))
}

/// Mirrors a committed pass's transactional accounting into the observer.
fn observe_commit(ledger: &SmpLedger, tx: &TxStats) {
    let observer = ledger.observer();
    if observer.is_enabled() {
        observer.incr("migration.tx.committed");
        observer.record("migration.tx.retries", tx.retries as u64);
        observer.record("migration.tx.attempts", tx.attempts as u64);
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
    tx.committed = false;
    let mut switches: Vec<NodeId> = Vec::new();
    let mut blocks: Vec<(NodeId, usize)> = Vec::new();
    for row in journal.iter().rev() {
        if let Some(lft) = subnet.lft_mut(row.switch) {
            lft.assign(row.lid, row.old);
        }
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
        let Some((routing, hops)) = address_tx(subnet, tree, sw, opts.smp_mode) else {
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

/// Points `smp` (the switch's reusable LFT SMP) at `block` as currently
/// installed on its target.
fn load_block(subnet: &Subnet, smp: &mut Smp, block: usize) {
    match subnet.lft(smp.target).and_then(|l| l.block(block)) {
        Some(data) => retarget_lft_smp(smp, block, data),
        None => retarget_lft_smp(smp, block, &[None; LFT_BLOCK_SIZE]),
    }
}

/// Sends the `SubnSet(LinearForwardingTable)` SMP for `block` of the
/// currently-installed LFT through the retrying transport.
fn send_block_smp<C: SmpChannel>(
    subnet: &Subnet,
    smp: &mut Smp,
    block: usize,
    hops: usize,
    transport: &mut SmpTransport<C>,
    ledger: &mut SmpLedger,
) -> IbResult<u32> {
    load_block(subnet, smp, block);
    transport.send(subnet, smp, hops, ledger)
}

fn record_block_smp(
    subnet: &Subnet,
    smp: &mut Smp,
    block: usize,
    hops: usize,
    ledger: &mut SmpLedger,
) {
    load_block(subnet, smp, block);
    ledger.record(smp, hops);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_routing::testutil::assign_lids;
    use ib_routing::EngineKind;
    use ib_sm::{SmConfig, SubnetManager};
    use ib_subnet::topology::fattree::two_level;

    /// Bring up a 2-level fat tree with the default SM.
    fn fabric() -> (ib_subnet::topology::BuiltTopology, SubnetManager) {
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.bring_up(&mut t.subnet).unwrap();
        (t, sm)
    }

    fn host_lid(t: &ib_subnet::topology::BuiltTopology, i: usize) -> Lid {
        t.subnet.node(t.hosts[i]).ports[1].lid.unwrap()
    }

    #[test]
    fn swap_costs_one_smp_per_switch_same_block() {
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1); // on leaf 0
        let b = host_lid(&t, 4); // on leaf 1
        let opts = MigrationOptions::default();
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        let (stats, _) =
            swap_on_fabric(&mut t.subnet, &tree, a, b, &opts, None, &mut sm.ledger).unwrap();
        // All LIDs < 64: every updated switch takes exactly one SMP.
        assert_eq!(stats.max_blocks_per_switch, 1);
        assert!(stats.switches_updated >= 1);
        assert_eq!(stats.lft_smps, stats.switches_updated);
        assert_eq!(stats.invalidation_smps, 0);
    }

    #[test]
    fn swap_across_blocks_costs_two() {
        let (mut t, mut sm) = fabric();
        // Re-home host 5 onto LID 70 (block 1) to force the 2-SMP case.
        let h5 = t.hosts[5];
        let old = host_lid(&t, 5);
        t.subnet.clear_lid(old).unwrap();
        t.subnet
            .assign_port_lid(h5, PortNum::new(1), Lid::from_raw(70))
            .unwrap();
        sm.full_reconfiguration(&mut t.subnet).unwrap();

        let a = host_lid(&t, 1);
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        let (stats, _) = swap_on_fabric(
            &mut t.subnet,
            &tree,
            a,
            Lid::from_raw(70),
            &MigrationOptions::default(),
            None,
            &mut sm.ledger,
        )
        .unwrap();
        assert_eq!(stats.max_blocks_per_switch, 2);
        assert_eq!(stats.lft_smps, stats.switches_updated * 2);
    }

    #[test]
    fn swap_skips_switches_already_aligned() {
        let (mut t, mut sm) = fabric();
        // Hosts 1 and 2 share leaf 0: from leaf 1's perspective both are
        // reached over (possibly) the same uplink; from leaf 0 they differ.
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 2);
        let total_switches = t.subnet.num_physical_switches();
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        let (stats, _) = swap_on_fabric(
            &mut t.subnet,
            &tree,
            a,
            b,
            &MigrationOptions::default(),
            None,
            &mut sm.ledger,
        )
        .unwrap();
        assert!(
            stats.switches_updated < total_switches,
            "n' must be < n when some switches already route both LIDs alike"
        );
        // Their shared leaf must be among the updated (different ports).
        assert!(stats.switches_updated >= 1);
    }

    #[test]
    fn swap_is_involution_on_the_fabric() {
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 4);
        let snapshot: Vec<_> = t
            .subnet
            .physical_switches()
            .map(|n| (n.id, n.lft().unwrap().clone()))
            .collect();
        let opts = MigrationOptions::default();
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        swap_on_fabric(&mut t.subnet, &tree, a, b, &opts, None, &mut sm.ledger).unwrap();
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        swap_on_fabric(&mut t.subnet, &tree, a, b, &opts, None, &mut sm.ledger).unwrap();
        for (id, before) in snapshot {
            assert_eq!(t.subnet.lft(id).unwrap(), &before);
        }
    }

    #[test]
    fn copy_costs_at_most_one_smp_per_switch() {
        let (mut t, mut sm) = fabric();
        // Add a fresh VM LID and copy host 4's path onto it.
        let pf = host_lid(&t, 4);
        let vm_lid = Lid::from_raw(40);
        // Register the LID on a scratch endpoint so tracing works: reuse
        // host 5's port (multi-LID endpoints are what vSwitches do).
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        let (stats, _) = copy_on_fabric(
            &mut t.subnet,
            &tree,
            pf,
            vm_lid,
            &MigrationOptions::default(),
            None,
            &mut sm.ledger,
        )
        .unwrap();
        assert_eq!(stats.max_blocks_per_switch, 1);
        assert_eq!(stats.lft_smps, stats.switches_updated);
        // Every physical switch now forwards the VM LID like the PF LID.
        for sw in t.subnet.physical_switches() {
            let lft = sw.lft().unwrap();
            assert_eq!(lft.get(vm_lid), lft.get(pf));
        }
    }

    #[test]
    fn copy_is_idempotent() {
        let (mut t, mut sm) = fabric();
        let pf = host_lid(&t, 4);
        let vm_lid = Lid::from_raw(40);
        let opts = MigrationOptions::default();
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        copy_on_fabric(
            &mut t.subnet,
            &tree,
            pf,
            vm_lid,
            &opts,
            None,
            &mut sm.ledger,
        )
        .unwrap();
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        let (again, _) = copy_on_fabric(
            &mut t.subnet,
            &tree,
            pf,
            vm_lid,
            &opts,
            None,
            &mut sm.ledger,
        )
        .unwrap();
        assert_eq!(again.lft_smps, 0);
        assert_eq!(again.switches_updated, 0);
    }

    #[test]
    fn invalidate_first_adds_n_prime_smps() {
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 4);
        let opts = MigrationOptions {
            invalidate_first: true,
            ..MigrationOptions::default()
        };
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        let (stats, _) =
            swap_on_fabric(&mut t.subnet, &tree, a, b, &opts, None, &mut sm.ledger).unwrap();
        assert_eq!(stats.invalidation_smps, stats.switches_updated);
    }

    #[test]
    fn restriction_limits_the_update() {
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 2); // same leaf
        let leaf0 = t.switch_levels[0][0];
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        let (stats, _) = swap_on_fabric(
            &mut t.subnet,
            &tree,
            a,
            b,
            &MigrationOptions::default(),
            Some(&[leaf0]),
            &mut sm.ledger,
        )
        .unwrap();
        assert!(stats.switches_updated <= 1);
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
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1);
        let opts = MigrationOptions::default();
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        assert!(swap_on_fabric(&mut t.subnet, &tree, a, a, &opts, None, &mut sm.ledger).is_err());
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        assert!(copy_on_fabric(&mut t.subnet, &tree, a, a, &opts, None, &mut sm.ledger).is_err());
    }

    /// The cell list is the exact diff of the pass: one entry per cell
    /// whose installed value differs afterwards — the transient DROP of
    /// `invalidate_first` is not a change, switches outside `restrict` and
    /// switches already aligned contribute nothing.
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
        let opts = MigrationOptions {
            invalidate_first: true,
            ..MigrationOptions::default()
        };

        let (mut t, mut sm) = fabric();
        let (a, b) = (host_lid(&t, 1), host_lid(&t, 2)); // same leaf
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        let before = t.subnet.clone();
        let (stats, cells) =
            swap_on_fabric(&mut t.subnet, &tree, a, b, &opts, None, &mut sm.ledger).unwrap();
        assert!(stats.switches_updated < t.subnet.num_physical_switches());
        assert_eq!(cells.len(), 2 * stats.switches_updated);
        assert_eq!(cells, diff(&before, &t.subnet, &[a, b]));

        let leaf1 = t.switch_levels[0][1];
        let (pf, vm) = (host_lid(&t, 4), Lid::from_raw(40));
        let before = t.subnet.clone();
        let (stats, cells) = copy_on_fabric(
            &mut t.subnet,
            &tree,
            pf,
            vm,
            &opts,
            Some(&[leaf1]),
            &mut sm.ledger,
        )
        .unwrap();
        assert_eq!(stats.switches_updated, 1);
        assert_eq!(
            cells,
            vec![cell(leaf1, vm, None, t.subnet.lft(leaf1).unwrap().get(pf))]
        );
        assert_eq!(cells, diff(&before, &t.subnet, &[vm]));
    }

    #[test]
    fn tx_swap_under_perfect_transport_matches_classic() {
        let (mut t, mut sm) = fabric();
        let (mut t2, mut sm2) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 4);
        let opts = MigrationOptions::default();
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        let (classic, classic_cells) =
            swap_on_fabric(&mut t.subnet, &tree, a, b, &opts, None, &mut sm.ledger).unwrap();
        let mut transport = SmpTransport::perfect(sm2.sm_node);
        let tree = RouteTree::build(&t2.subnet, sm2.sm_node);
        let (stats, tx, cells) = swap_on_fabric_tx(
            &mut t2.subnet,
            &tree,
            a,
            b,
            &opts,
            None,
            &mut transport,
            &mut sm2.ledger,
        )
        .unwrap();
        assert!(tx.committed);
        assert_eq!(tx.retries, 0);
        assert_eq!(tx.rollback_smps, 0);
        assert_eq!(stats, classic);
        assert_eq!(cells, classic_cells);
        assert_eq!(sm.ledger.records(), sm2.ledger.records());
        for sw in t.subnet.physical_switches() {
            assert_eq!(t2.subnet.lft(sw.id).unwrap(), sw.lft().unwrap());
        }
    }

    #[test]
    fn tx_swap_rolls_back_on_black_hole() {
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 4);
        let snapshot: Vec<_> = t
            .subnet
            .physical_switches()
            .map(|n| (n.id, n.lft().unwrap().clone()))
            .collect();
        let mut transport =
            SmpTransport::with_channel(sm.sm_node, ib_mad::LossyChannel::black_hole());
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        let (_, tx, cells) = swap_on_fabric_tx(
            &mut t.subnet,
            &tree,
            a,
            b,
            &MigrationOptions::default(),
            None,
            &mut transport,
            &mut sm.ledger,
        )
        .unwrap();
        assert!(!tx.committed);
        assert!(cells.is_empty(), "a rolled-back pass changed nothing");
        // The very first switch fails, so exactly its rows were journaled.
        assert_eq!(tx.rolled_back_switches, 1);
        assert!(tx.rollback_smps >= 1);
        for (id, before) in snapshot {
            assert_eq!(t.subnet.lft(id).unwrap(), &before, "rows must be restored");
        }
        assert!(sm.ledger.dropped() > 0);
    }

    #[test]
    fn tx_copy_rolls_back_on_black_hole() {
        let (mut t, mut sm) = fabric();
        let pf = host_lid(&t, 4);
        let vm_lid = Lid::from_raw(40);
        let snapshot: Vec<_> = t
            .subnet
            .physical_switches()
            .map(|n| (n.id, n.lft().unwrap().clone()))
            .collect();
        let mut transport =
            SmpTransport::with_channel(sm.sm_node, ib_mad::LossyChannel::black_hole());
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        let (_, tx, cells) = copy_on_fabric_tx(
            &mut t.subnet,
            &tree,
            pf,
            vm_lid,
            &MigrationOptions::default(),
            None,
            &mut transport,
            &mut sm.ledger,
        )
        .unwrap();
        assert!(!tx.committed);
        assert!(cells.is_empty(), "a rolled-back pass changed nothing");
        for (id, before) in snapshot {
            assert_eq!(t.subnet.lft(id).unwrap(), &before);
        }
    }

    #[test]
    fn tx_swap_survives_moderate_loss() {
        let (mut t, mut sm) = fabric();
        let (mut base, mut sm_base) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 4);
        let opts = MigrationOptions::default();
        let tree = RouteTree::build(&base.subnet, sm_base.sm_node);
        swap_on_fabric(
            &mut base.subnet,
            &tree,
            a,
            b,
            &opts,
            None,
            &mut sm_base.ledger,
        )
        .unwrap();
        let mut transport = SmpTransport::lossy(sm.sm_node, 7, 0.10, 0);
        transport.retry.max_attempts = 8;
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        let (_, tx, cells) = swap_on_fabric_tx(
            &mut t.subnet,
            &tree,
            a,
            b,
            &opts,
            None,
            &mut transport,
            &mut sm.ledger,
        )
        .unwrap();
        assert!(tx.committed, "8 attempts at 10% per-hop loss must converge");
        assert!(!cells.is_empty());
        for sw in base.subnet.physical_switches() {
            assert_eq!(
                t.subnet.lft(sw.id).unwrap(),
                sw.lft().unwrap(),
                "lossy commit must equal the fault-free result"
            );
        }
    }

    #[test]
    fn destination_mode_smps_avoid_directed_overhead() {
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 4);
        sm.ledger.reset();
        let opts = MigrationOptions {
            smp_mode: SmpMode::Destination,
            ..MigrationOptions::default()
        };
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        swap_on_fabric(&mut t.subnet, &tree, a, b, &opts, None, &mut sm.ledger).unwrap();
        assert!(sm.ledger.records().iter().all(|r| !r.directed));

        let opts = MigrationOptions {
            smp_mode: SmpMode::Directed,
            ..MigrationOptions::default()
        };
        sm.ledger.reset();
        let tree = RouteTree::build(&t.subnet, sm.sm_node);
        swap_on_fabric(&mut t.subnet, &tree, b, a, &opts, None, &mut sm.ledger).unwrap();
        assert!(sm.ledger.records().iter().all(|r| r.directed));
        let _ = EngineKind::MinHop;
        let _ = assign_lids;
    }
}
