//! The virtualized data center: subnet + hypervisors + subnet manager +
//! VM lifecycle.

use ib_mad::fault::{SmpChannel, SmpTransport};
use ib_mad::{RouteTree, Routes, Smp};
use ib_observe::Observer;
use ib_routing::{CellChange, EngineKind, LidMove, RoutingOptions, VlAssignment};
use ib_sm::distribution::{address, route_tree};
use ib_sm::{BringUpReport, SmConfig, SmpMode, SubnetManager};
use ib_subnet::topology::BuiltTopology;
use ib_subnet::{NodeId, Subnet};
use ib_types::{IbError, IbResult, Lid, PortNum};
use ib_verify::{FabricVerifier, LftSnapshot};
use rustc_hash::FxHashMap;

use crate::migration::{
    copy_on_fabric, swap_on_fabric, LftUpdateStats, MigrationOptions, MigrationReport, TxStats,
};
use crate::virtualize::{virtualize_host, vswitch_vf_port, Hypervisor, VirtArch, VSWITCH_UPLINK};
use crate::vm::{VmId, VmRecord};

/// Data center construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct DataCenterConfig {
    /// SR-IOV addressing architecture.
    pub arch: VirtArch,
    /// VFs per hypervisor (the paper's running example uses 16; Mellanox
    /// ConnectX-3 defaults to 16 with up to 126 supported).
    pub vfs_per_hypervisor: usize,
    /// Routing engine for the initial path computation.
    pub engine: EngineKind,
    /// Routing-engine execution options (worker threads etc.) for the SM's
    /// path computations. Tables are invariant under the worker count.
    pub routing: RoutingOptions,
    /// Reconfiguration options for migrations and dynamic VM creation.
    pub migration: MigrationOptions,
    /// Run the fabric invariant verifier after every SM sweep and after
    /// every migration commit/rollback, failing the operation on any
    /// violation. Off by default.
    pub verify: bool,
}

impl Default for DataCenterConfig {
    fn default() -> Self {
        Self {
            arch: VirtArch::VSwitchPrepopulated,
            vfs_per_hypervisor: 4,
            engine: EngineKind::MinHop,
            routing: RoutingOptions::default(),
            migration: MigrationOptions::default(),
            verify: false,
        }
    }
}

/// A running virtualized IB data center.
#[derive(Debug)]
pub struct DataCenter {
    /// The fabric.
    pub subnet: Subnet,
    /// All hypervisors, indexed by the `hypervisor` field of VM records.
    pub hypervisors: Vec<Hypervisor>,
    /// The subnet manager (owns the SMP ledger and the LID space).
    pub sm: SubnetManager,
    /// Construction parameters.
    pub config: DataCenterConfig,
    /// The initial bring-up report.
    pub bring_up: BringUpReport,
    vms: FxHashMap<VmId, VmRecord>,
    next_vm: u64,
}

impl DataCenter {
    /// Virtualizes every host of `built` into a hypervisor and brings the
    /// fabric up. The SM runs on hypervisor 0's PF.
    pub fn from_topology(built: BuiltTopology, config: DataCenterConfig) -> IbResult<Self> {
        Self::from_topology_observed(built, config, Observer::disabled())
    }

    /// Like [`Self::from_topology`], but the SM reports into `observer`
    /// from the very first bring-up SMP — so discovery/assignment/routing
    /// spans and all per-phase counters cover the whole lifetime.
    pub fn from_topology_observed(
        built: BuiltTopology,
        config: DataCenterConfig,
        observer: Observer,
    ) -> IbResult<Self> {
        let mut subnet = built.subnet;
        if built.hosts.is_empty() {
            return Err(IbError::Virtualization("topology has no hosts".into()));
        }
        let mut hypervisors = Vec::with_capacity(built.hosts.len());
        for (i, &host) in built.hosts.iter().enumerate() {
            hypervisors.push(virtualize_host(
                &mut subnet,
                config.arch,
                i,
                host,
                config.vfs_per_hypervisor,
            )?);
        }
        let mut sm = SubnetManager::new(
            hypervisors[0].pf,
            SmConfig {
                engine: config.engine,
                smp_mode: SmpMode::Directed,
                routing: config.routing,
                verify: config.verify,
                ..SmConfig::default()
            },
        );
        sm.set_observer(observer);
        let bring_up = sm.bring_up(&mut subnet)?;
        Ok(Self {
            subnet,
            hypervisors,
            sm,
            config,
            bring_up,
            vms: FxHashMap::default(),
            next_vm: 0,
        })
    }

    /// The record of a VM.
    #[must_use]
    pub fn vm(&self, id: VmId) -> Option<&VmRecord> {
        self.vms.get(&id)
    }

    /// All VMs, in id order.
    #[must_use]
    pub fn vms(&self) -> Vec<&VmRecord> {
        let mut v: Vec<&VmRecord> = self.vms.values().collect();
        v.sort_unstable_by_key(|r| r.id);
        v
    }

    /// Number of running VMs.
    #[must_use]
    pub fn num_vms(&self) -> usize {
        self.vms.len()
    }

    // ------------------------------------------------------------------
    // VM lifecycle
    // ------------------------------------------------------------------

    /// Boots a VM on hypervisor `hyp`.
    ///
    /// * Shared Port: the VM shares the PF's LID; one vGUID SMP.
    /// * Prepopulated: the VM inherits the VF's prepopulated LID; one vGUID
    ///   SMP and **zero** LFT updates (§V-A: "All that needs to be done is
    ///   to find an available VM slot ... and use it").
    /// * Dynamic: the next free LID is allocated and every physical
    ///   switch's LFT learns it by copying the PF's row — one SMP per
    ///   switch (§V-B).
    pub fn create_vm(&mut self, name: impl Into<String>, hyp: usize) -> IbResult<VmId> {
        let name = name.into();
        self.check_hypervisor(hyp)?;
        let slot = self.hypervisors[hyp]
            .free_slot()
            .ok_or_else(|| IbError::Capacity(format!("hypervisor {hyp} has no free VF")))?;
        let id = VmId(self.next_vm);
        self.next_vm += 1;
        self.sm.ledger.begin_phase(format!("create-{id}"));

        let vguid = self.subnet.mint_vguid();
        let pf = self.hypervisors[hyp].pf;

        // One SMP: an early-exit search to the PF beats a whole route tree.
        let search = Routes::Search(self.sm.sm_node);
        let lid = match self.config.arch {
            VirtArch::SharedPort => {
                self.record(self.vguid_smp(search, pf, Some(vguid))?);
                self.hypervisors[hyp].pf_lid(&self.subnet)?
            }
            VirtArch::VSwitchPrepopulated => {
                self.record(self.vguid_smp(search, pf, Some(vguid))?);
                self.hypervisors[hyp]
                    .vf_lid(&self.subnet, slot)
                    .ok_or_else(|| {
                        IbError::Virtualization(format!(
                            "VF {slot} of hypervisor {hyp} has no prepopulated LID"
                        ))
                    })?
            }
            VirtArch::VSwitchDynamic => {
                // Cable the dormant VF, hand it the next free LID, and let
                // the fabric learn the LID by copying the PF's rows.
                let vsw = vswitch_of(&self.hypervisors[hyp], hyp)?;
                let vf = vf_node_of(&self.hypervisors[hyp], hyp, slot)?;
                self.subnet
                    .connect(vsw, vswitch_vf_port(slot), vf, PortNum::new(1))?;
                let lid = self.sm.lid_space.allocate()?;
                self.subnet.assign_port_lid(vf, PortNum::new(1), lid)?;
                let tree = self.route_tree();
                self.record(self.set_lid_smp(Routes::Tree(&tree), pf, Some(lid))?);
                self.record(self.vguid_smp(Routes::Tree(&tree), pf, Some(vguid))?);
                let pf_lid = self.hypervisors[hyp].pf_lid(&self.subnet)?;
                let (_, tx, mut cells) = copy_on_fabric(
                    &mut self.subnet,
                    &tree,
                    pf_lid,
                    lid,
                    &self.config.migration,
                    None,
                    &mut SmpTransport::assumed(self.sm.sm_node),
                    &mut self.sm.ledger,
                )?;
                if !tx.committed {
                    return Err(IbError::Topology(format!(
                        "{id}: a switch that must learn LID {lid} is unreachable from the SM"
                    )));
                }
                // A brand-new column: every vSwitch learns it.
                self.set_vswitch_routes(lid, (hyp, slot), 0..self.hypervisors.len(), &mut cells);
                self.note_cells(
                    &cells,
                    Some(LidMove::Copy {
                        from: pf_lid,
                        to: lid,
                    }),
                );
                lid
            }
        };

        self.hypervisors[hyp].vfs[slot].attached = Some(id);
        self.vms.insert(
            id,
            VmRecord {
                id,
                name,
                hypervisor: hyp,
                vf_slot: slot,
                lid,
                vguid,
            },
        );
        Ok(id)
    }

    /// Shuts a VM down and frees its VF.
    ///
    /// Dynamic mode releases the LID back to the allocator and un-cables
    /// the VF; stale LFT rows are deliberately left behind (as OpenSM
    /// would until the next sweep) and are overwritten on LID reuse.
    pub fn destroy_vm(&mut self, id: VmId) -> IbResult<()> {
        let vm = self
            .vms
            .remove(&id)
            .ok_or_else(|| IbError::Virtualization(format!("{id} does not exist")))?;
        self.sm.ledger.begin_phase(format!("destroy-{id}"));
        let hyp = vm.hypervisor;
        let pf = self.hypervisors[hyp].pf;
        self.hypervisors[hyp].vfs[vm.vf_slot].attached = None;
        let search = Routes::Search(self.sm.sm_node);
        self.record(self.vguid_smp(search, pf, None)?);

        if self.config.arch == VirtArch::VSwitchDynamic {
            let vf = vf_node_of(&self.hypervisors[hyp], hyp, vm.vf_slot)?;
            self.record(self.set_lid_smp(search, pf, None)?);
            self.subnet.clear_lid(vm.lid)?;
            self.sm.lid_space.release(vm.lid)?;
            self.subnet.disconnect(vf, PortNum::new(1))?;
        }
        Ok(())
    }

    /// Live-migrates a VM (Algorithm 1) over the assumed channel: every SMP
    /// addressed off the migration's route tree is taken as delivered.
    ///
    /// This is [`Self::migrate_vm_resilient`]'s transaction with nothing to
    /// retry. On a split fabric the pass is confined to the SM's component
    /// and commits; a migration that cannot commit (a hypervisor beyond the
    /// split) is an `Err`, returned after compensation with every LFT row
    /// and the VF attachment as before the call.
    pub fn migrate_vm(&mut self, id: VmId, dest: usize) -> IbResult<MigrationReport> {
        let mut transport = SmpTransport::assumed(self.sm.sm_node);
        let report = self.migrate(id, dest, &mut transport)?;
        if report.committed {
            Ok(report)
        } else {
            Err(IbError::Topology(format!(
                "{id} stays on hypervisor {}: the SM cannot reach it or hypervisor {dest}",
                report.from_hypervisor
            )))
        }
    }

    /// Live-migrates a VM (Algorithm 1) over a faulty fabric, as a
    /// transaction.
    ///
    /// Every SMP — the step (a) hypervisor signals and the step (b) LFT
    /// updates — goes through `transport`, which retries with backoff and
    /// reports persistent failure. On persistent failure the migration is
    /// **rolled back**: every LFT row already swapped/copied is restored
    /// (best-effort compensating SMPs, unconditional local state), the
    /// hypervisors are signalled to restore the source attachment, and the
    /// VM keeps running at the source with its registrations untouched.
    /// The returned report says which way it went via `committed`.
    ///
    /// Partition tolerance: a pre-flight reachability check aborts the
    /// migration (counted as `migration.abort.unreachable`) before a
    /// single SMP is sent when either hypervisor sits beyond a fabric
    /// split, and a migration that does run confines its LFT pass to the
    /// switches the SM can still reach.
    ///
    /// Only the two vSwitch architectures are supported — the Shared Port
    /// baseline has no per-VM fabric state to protect transactionally.
    pub fn migrate_vm_resilient<C: SmpChannel>(
        &mut self,
        id: VmId,
        dest: usize,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<MigrationReport> {
        if self.config.arch == VirtArch::SharedPort {
            return Err(IbError::Virtualization(
                "resilient migration models the vSwitch architectures only".into(),
            ));
        }
        self.migrate(id, dest, transport)
    }

    /// The one migration body, behind [`Self::migrate_vm`] and
    /// [`Self::migrate_vm_resilient`]. Whatever refuses the migration does
    /// so with no LFT row written and the VF attached at the source: the
    /// preconditions are checked before the first SMP, and step (b) plans
    /// before it writes.
    fn migrate<C: SmpChannel>(
        &mut self,
        id: VmId,
        dest: usize,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<MigrationReport> {
        let vm = self
            .vms
            .get(&id)
            .cloned()
            .ok_or_else(|| IbError::Virtualization(format!("{id} does not exist")))?;
        let src = vm.hypervisor;
        self.check_hypervisor(dest)?;
        if src == dest {
            return Err(IbError::Virtualization(format!(
                "{id} is already on hypervisor {dest}"
            )));
        }
        let dest_slot = self.hypervisors[dest]
            .free_slot()
            .ok_or_else(|| IbError::Capacity(format!("hypervisor {dest} has no free VF")))?;
        let arch = self.config.arch;
        // Step (b)'s operands: the LID whose rows move and the LID it swaps
        // with (§V-C1) or whose rows it copies (§V-C2).
        let (mover, other) = match arch {
            VirtArch::VSwitchPrepopulated => {
                let dest_vf_lid = self.hypervisors[dest]
                    .vf_lid(&self.subnet, dest_slot)
                    .ok_or_else(|| IbError::Virtualization("destination VF has no LID".into()))?;
                (vm.lid, dest_vf_lid)
            }
            VirtArch::VSwitchDynamic => (vm.lid, self.hypervisors[dest].pf_lid(&self.subnet)?),
            // The §VII-B emulation swaps the *hypervisor* LIDs of the two
            // compute nodes so the VM's LID value survives. Only legal when
            // the source runs exactly this one VM and the destination runs
            // none, because every VM on a node shares its LID.
            VirtArch::SharedPort => {
                if self.hypervisors[src].active_vms() > 1 {
                    return Err(IbError::Virtualization(
                        "shared-port migration: source hypervisor hosts other VMs that share its LID"
                            .into(),
                    ));
                }
                if self.hypervisors[dest].active_vms() > 0 {
                    return Err(IbError::Virtualization(
                        "shared-port migration: destination hypervisor already hosts a VM".into(),
                    ));
                }
                (
                    self.hypervisors[src].pf_lid(&self.subnet)?,
                    self.hypervisors[dest].pf_lid(&self.subnet)?,
                )
            }
        };
        let intra_leaf = self.hypervisors[src].leaf == self.hypervisors[dest].leaf;
        let use_shortcut = self.config.migration.intra_leaf_shortcut && intra_leaf;
        let src_pf = self.hypervisors[src].pf;
        let dest_pf = self.hypervisors[dest].pf;

        self.sm.ledger.begin_phase(format!("migrate-{id}"));
        // Every SMP of the migration — three to the hypervisors, one or two
        // per updated switch — is addressed off this one search, and what
        // it did not reach is beyond a fabric split.
        let tree = self.route_tree();
        let routes = Routes::Tree(&tree);
        let mut report = MigrationReport {
            committed: false,
            vm: id,
            from_hypervisor: src,
            to_hypervisor: dest,
            lid_before: vm.lid,
            lid_after: vm.lid,
            hypervisor_smps: 0,
            lft: LftUpdateStats::default(),
            tx: TxStats::default(),
            intra_leaf,
            used_leaf_shortcut: use_shortcut,
        };

        // Pre-flight (partition tolerance): a hypervisor the fabric split
        // has carried away would detach the VM at the source and then time
        // out on every SMP toward it. Abort before a single SMP is spent;
        // the journal never opens, so there is nothing to roll back or to
        // verify — the stale rows a fresh split leaves behind are the next
        // sweep's business, not this migration's.
        if tree.hops(src_pf).is_none() || tree.hops(dest_pf).is_none() {
            self.sm.observer().incr("migration.abort.unreachable");
            return Ok(report);
        }
        // Step (b) confines itself to the switches the SM can still reach
        // (every physical switch, on a whole fabric): rows beyond a split
        // cannot be updated by any SMP and are rewritten wholesale when the
        // heal sweep runs. `physical_switches` is in ascending node order.
        let targets: Vec<NodeId> = if use_shortcut {
            vec![self.hypervisors[src].leaf]
        } else {
            let switches = self.subnet.physical_switches().map(|n| n.id);
            switches.filter(|&sw| tree.hops(sw).is_some()).collect()
        };
        // Pre-migration fingerprint of every forwarding column: after the
        // commit (or rollback) only the LIDs the migration was allowed to
        // move may have changed anywhere in the fabric (§V-C's locality
        // claim, checked rather than assumed).
        let snapshot = self
            .config
            .verify
            .then(|| LftSnapshot::capture(&self.subnet));

        // Step V-C(a): detach the VF, signal both hypervisors, move vGUID.
        // A signal that fails persistently triggers compensation of the
        // ones already delivered.
        self.hypervisors[src].vfs[vm.vf_slot].attached = None;
        for signal in 0..3 {
            let smp = match signal {
                0 => self.set_lid_smp(routes, src_pf, None),
                1 => self.set_lid_smp(routes, dest_pf, Some(vm.lid)),
                _ => self.vguid_smp(routes, dest_pf, Some(vm.vguid)),
            };
            let Ok(attempt) = self.send(smp, transport) else {
                self.sm.observer().incr("migration.abort.step_a");
                self.undo_step_a(&vm, dest_pf, routes, transport, &mut report);
                self.verify_after_migration(snapshot.as_ref(), &[])?;
                return Ok(report);
            };
            report.tx.count_delivery(attempt);
            report.hypervisor_smps += 1;
        }

        // Step V-C(b): the LFT updates, as a transaction.
        let (opts, restrict) = (&self.config.migration, Some(targets.as_slice()));
        let (subnet, ledger) = (&mut self.subnet, &mut self.sm.ledger);
        let pass = if arch == VirtArch::VSwitchDynamic {
            copy_on_fabric(
                subnet, &tree, other, mover, opts, restrict, transport, ledger,
            )
        } else {
            swap_on_fabric(
                subnet, &tree, mover, other, opts, restrict, transport, ledger,
            )
        };
        let (lft, tx_b, mut cells) = match pass {
            Ok(done) => done,
            // A refused plan wrote nothing: hand the VM back to the source
            // and pass the refusal on.
            Err(refusal) => {
                self.undo_step_a(&vm, dest_pf, routes, transport, &mut report);
                return Err(refusal);
            }
        };
        report.lft = lft;
        report.tx.retries += tx_b.retries;
        report.tx.attempts += tx_b.attempts;
        report.tx.rolled_back_switches += tx_b.rolled_back_switches;
        report.tx.rollback_smps += tx_b.rollback_smps;
        if !tx_b.committed {
            // The fabric is back to its pre-migration LFTs — the pass
            // restored each row it wrote and reports no changed cell, so
            // the SM's baseline and index have nothing to learn. Compensate
            // the hypervisor signals and prove every column untouched.
            self.undo_step_a(&vm, dest_pf, routes, transport, &mut report);
            self.verify_after_migration(snapshot.as_ref(), &[])?;
            return Ok(report);
        }

        // Commit: move the endpoint registrations and the bookkeeping.
        match arch {
            VirtArch::VSwitchPrepopulated => {
                self.commit_prepopulated_registrations(&vm, dest, dest_slot, other, &mut cells)?;
            }
            VirtArch::VSwitchDynamic => {
                self.commit_dynamic_registrations(&vm, dest, dest_slot, &mut cells)?;
            }
            VirtArch::SharedPort => {
                // Swap the endpoint registrations between the two PFs.
                let src_port = first_lid_port(&self.subnet, src_pf);
                let dest_port = first_lid_port(&self.subnet, dest_pf);
                self.subnet.clear_lid(mover)?;
                self.subnet.clear_lid(other)?;
                self.subnet.assign_port_lid(src_pf, src_port, other)?;
                self.subnet.assign_port_lid(dest_pf, dest_port, mover)?;
            }
        }
        self.hypervisors[dest].vfs[dest_slot].attached = Some(id);
        let rec = self
            .vms
            .get_mut(&id)
            .ok_or_else(|| IbError::Virtualization(format!("{id} vanished mid-migration")))?;
        rec.hypervisor = dest;
        rec.vf_slot = dest_slot;

        // A committed swap may move exactly the two swapped LIDs; a
        // committed copy exactly the VM's.
        let swapped = (arch != VirtArch::VSwitchDynamic).then_some(other);
        let allowed: Vec<Lid> = std::iter::once(mover).chain(swapped).collect();
        self.verify_after_migration(snapshot.as_ref(), &allowed)?;
        // The lanes move with the columns. The intra-leaf shortcut rewrites
        // one leaf row, whose last hop into a vSwitch closes no cycle, and
        // every other row keeps its column — and its lanes.
        let moved = match arch {
            _ if use_shortcut => None,
            VirtArch::VSwitchDynamic => Some(LidMove::Copy {
                from: other,
                to: mover,
            }),
            _ => Some(LidMove::Swap(mover, other)),
        };
        self.note_cells(&cells, moved);
        report.committed = true;
        report.tx.committed = true;
        Ok(report)
    }

    /// Compensates step (a) once `report.hypervisor_smps` of its signals
    /// were delivered, newest first: the destination hands the LID back (if
    /// it got it), the source is told to keep it (if it was told to drop
    /// it), and the VF re-attaches at the source. Best effort, booked as
    /// `rollback_smps`.
    fn undo_step_a<C: SmpChannel>(
        &mut self,
        vm: &VmRecord,
        dest_pf: NodeId,
        routes: Routes<'_>,
        transport: &mut SmpTransport<C>,
        report: &mut MigrationReport,
    ) {
        let src_pf = self.hypervisors[vm.hypervisor].pf;
        if report.hypervisor_smps >= 2 {
            report.tx.rollback_smps += 1;
            let _ = self.send(self.set_lid_smp(routes, dest_pf, None), transport);
        }
        if report.hypervisor_smps >= 1 {
            report.tx.rollback_smps += 1;
            let _ = self.send(self.set_lid_smp(routes, src_pf, Some(vm.lid)), transport);
        }
        self.hypervisors[vm.hypervisor].vfs[vm.vf_slot].attached = Some(vm.id);
    }

    /// Endpoint bookkeeping after a committed prepopulated-mode swap: the
    /// VM's LID lands on the destination VF; the destination VF's old LID
    /// falls back to the source VF. The vSwitch cells this re-homes join
    /// `cells`.
    fn commit_prepopulated_registrations(
        &mut self,
        vm: &VmRecord,
        dest: usize,
        dest_slot: usize,
        dest_vf_lid: Lid,
        cells: &mut Vec<CellChange>,
    ) -> IbResult<()> {
        let src = vm.hypervisor;
        let src_vf = vf_node_of(&self.hypervisors[src], src, vm.vf_slot)?;
        let dest_vf = vf_node_of(&self.hypervisors[dest], dest, dest_slot)?;
        self.subnet.clear_lid(vm.lid)?;
        self.subnet.clear_lid(dest_vf_lid)?;
        self.subnet
            .assign_port_lid(src_vf, PortNum::new(1), dest_vf_lid)?;
        self.subnet
            .assign_port_lid(dest_vf, PortNum::new(1), vm.lid)?;

        // vSwitch-internal forwarding (HCA hardware, no SMPs counted): the
        // two vSwitches re-home the swapped LIDs.
        self.set_vswitch_routes(vm.lid, (dest, dest_slot), [src, dest], cells);
        self.set_vswitch_routes(dest_vf_lid, (src, vm.vf_slot), [src, dest], cells);
        Ok(())
    }

    /// Endpoint bookkeeping after a committed dynamic-mode copy: the VF
    /// cable and the LID move with the VM. The vSwitch cells this re-homes
    /// join `cells`.
    fn commit_dynamic_registrations(
        &mut self,
        vm: &VmRecord,
        dest: usize,
        dest_slot: usize,
        cells: &mut Vec<CellChange>,
    ) -> IbResult<()> {
        let src = vm.hypervisor;
        let src_vf = vf_node_of(&self.hypervisors[src], src, vm.vf_slot)?;
        let dest_vf = vf_node_of(&self.hypervisors[dest], dest, dest_slot)?;
        let vsw = vswitch_of(&self.hypervisors[dest], dest)?;
        self.subnet.clear_lid(vm.lid)?;
        self.subnet.disconnect(src_vf, PortNum::new(1))?;
        self.subnet
            .connect(vsw, vswitch_vf_port(dest_slot), dest_vf, PortNum::new(1))?;
        self.subnet
            .assign_port_lid(dest_vf, PortNum::new(1), vm.lid)?;
        self.set_vswitch_routes(vm.lid, (dest, dest_slot), [src, dest], cells);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// Post-migration verification (active when `config.verify`): the
    /// forwarding columns of every LID outside `allowed` must be identical
    /// to the pre-migration `snapshot`, and the full fabric invariants
    /// (black holes, forwarding loops, addressing) must hold. The deadlock
    /// check is left to sweep-time verification, which has the engine's VL
    /// layering in hand. A committed swap of whole columns cannot introduce
    /// a new channel dependency cycle: it leaves every lane's graph equal to
    /// the one before (`tests/migration_lanes.rs` pins this under all five
    /// engines). Copies and the intra-leaf shortcut are outside that pin
    /// (ROADMAP item 6).
    fn verify_after_migration(
        &mut self,
        snapshot: Option<&LftSnapshot>,
        allowed: &[Lid],
    ) -> IbResult<()> {
        let Some(before) = snapshot else {
            return Ok(());
        };
        let after = LftSnapshot::capture(&self.subnet);
        let observer = self.sm.observer();
        observer.incr("migration.verify.runs");
        let mut violations = before.verify_preserved(&after, allowed);
        // Viewpoint scoping: on a split fabric the migration only touched
        // (and only answers for) the SM's component — rows beyond the
        // split are the heal sweep's business.
        let report = FabricVerifier::new()
            .with_deadlock(false)
            .with_viewpoint(self.sm.sm_node)
            .verify_observed(&self.subnet, &VlAssignment::SingleVl, observer)?;
        violations.extend(report.violations);
        if violations.is_empty() {
            observer.incr("migration.verify.clean");
            Ok(())
        } else {
            observer.incr("migration.verify.failed");
            let shown: Vec<String> = violations.iter().take(3).map(ToString::to_string).collect();
            Err(IbError::Management(format!(
                "post-migration verification failed ({} violations): {}",
                violations.len(),
                shown.join("; ")
            )))
        }
    }

    /// Bounds-check a hypervisor index (public entry points take raw
    /// indices; a bad one must be an error, not a panic).
    fn check_hypervisor(&self, hyp: usize) -> IbResult<()> {
        if hyp < self.hypervisors.len() {
            Ok(())
        } else {
            Err(IbError::Virtualization(format!(
                "hypervisor {hyp} does not exist (data center has {})",
                self.hypervisors.len()
            )))
        }
    }

    /// The route tree of one multi-SMP operation, from the SM's node.
    fn route_tree(&self) -> RouteTree {
        route_tree(&self.subnet, self.sm.sm_node, self.sm.observer())
    }

    /// Hands the SM the cells an operation wrote behind its sweeps, and the
    /// LID move that wrote them, so its repair baseline, reverse index and
    /// lanes follow (`migration.note_cells`).
    fn note_cells(&mut self, cells: &[CellChange], moved: Option<LidMove>) {
        let observer = self.sm.observer().clone();
        let _span = observer.span("migration.note_cells");
        observer.add("migration.changed_cells", cells.len() as u64);
        self.sm.note_cells_changed(&self.subnet, cells, moved);
    }

    /// Installs the vSwitch-internal route for `lid` on the vSwitches of
    /// `hyps`: the owner's delivers to the VF port, every other one
    /// forwards out its uplink. A re-homed LID names its old and its new
    /// owner — every other vSwitch already forwards it up — a new LID names
    /// everyone. Models vHCA hardware behaviour; sends no SMPs (the paper's
    /// accounting covers physical switches only). Each cell that actually
    /// changed is appended to `cells`.
    fn set_vswitch_routes(
        &mut self,
        lid: Lid,
        (owner, slot): (usize, usize),
        hyps: impl IntoIterator<Item = usize>,
        cells: &mut Vec<CellChange>,
    ) {
        for h in hyps {
            let Some(vsw) = self.hypervisors[h].vswitch else {
                continue;
            };
            let port = if h == owner {
                vswitch_vf_port(slot)
            } else {
                VSWITCH_UPLINK
            };
            if let Some(lft) = self.subnet.lft_mut(vsw) {
                let old = lft.get(lid);
                if old != Some(port) {
                    lft.set(lid, port);
                    cells.push(CellChange {
                        switch: vsw,
                        lid,
                        old,
                        new: Some(port),
                    });
                }
            }
        }
    }

    /// One `SubnSet(PortInfo)` SMP to a hypervisor (step V-C(a)) and the
    /// hops it takes. PortInfo SMPs to HCAs are directed, as OpenSM does
    /// for host configuration.
    fn set_lid_smp(
        &self,
        routes: Routes<'_>,
        pf: NodeId,
        lid: Option<Lid>,
    ) -> IbResult<(Smp, usize)> {
        let (routing, hops) = address(&self.subnet, routes, pf, SmpMode::Directed)?;
        Ok((Smp::set_port_lid(pf, routing, PortNum::new(1), lid), hops))
    }

    /// One `SubnSet(GUIDInfo)` SMP to a hypervisor (vGUID install/remove)
    /// and the hops it takes.
    fn vguid_smp(
        &self,
        routes: Routes<'_>,
        pf: NodeId,
        vguid: Option<ib_types::Guid>,
    ) -> IbResult<(Smp, usize)> {
        let (routing, hops) = address(&self.subnet, routes, pf, SmpMode::Directed)?;
        Ok((Smp::set_vguid(pf, routing, 0, vguid), hops))
    }

    /// Books one fire-and-forget hypervisor SMP (VM creation/destruction).
    fn record(&mut self, (smp, hops): (Smp, usize)) {
        self.sm.ledger.record(&smp, hops);
    }

    /// Sends one hypervisor SMP of a migration through the retrying
    /// transport. An unroutable hypervisor surfaces as a transport failure,
    /// so callers compensate instead of crashing.
    fn send<C: SmpChannel>(
        &mut self,
        smp: IbResult<(Smp, usize)>,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<u32> {
        let (smp, hops) =
            smp.map_err(|e| IbError::Transport(format!("no route to hypervisor: {e}")))?;
        transport.send(&self.subnet, &smp, hops, &mut self.sm.ledger)
    }

    /// Verifies that every VM LID and every PF LID is reachable from every
    /// hypervisor PF by walking the installed LFTs hop by hop.
    pub fn verify_connectivity(&self) -> IbResult<()> {
        let mut lids: Vec<Lid> = self
            .vms
            .values()
            .map(|vm| vm.lid)
            .chain(
                self.hypervisors
                    .iter()
                    .filter_map(|h| h.pf_lid(&self.subnet).ok()),
            )
            .collect();
        lids.sort_unstable();
        lids.dedup();
        for h in &self.hypervisors {
            for &lid in &lids {
                let target = self
                    .subnet
                    .endpoint_of(lid)
                    .ok_or_else(|| IbError::Management(format!("LID {lid} is unregistered")))?;
                let path = self.subnet.trace_route(h.pf, lid, 64)?;
                let arrived = *path
                    .last()
                    .ok_or_else(|| IbError::Topology(format!("empty route to LID {lid}")))?;
                if arrived != target.node {
                    return Err(IbError::Topology(format!(
                        "LID {lid}: packet from hypervisor {} arrived at {} instead of {}",
                        h.index,
                        self.subnet.name_of(arrived),
                        self.subnet.name_of(target.node),
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The vSwitch node of a hypervisor, or a virtualization error for the
/// Shared Port architecture (which has none).
fn vswitch_of(h: &Hypervisor, hyp: usize) -> IbResult<NodeId> {
    h.vswitch.ok_or_else(|| {
        IbError::Virtualization(format!(
            "hypervisor {hyp} has no vSwitch (shared-port mode)"
        ))
    })
}

/// The VF node behind a hypervisor slot, or a virtualization error for the
/// Shared Port architecture (whose VFs have no fabric presence).
fn vf_node_of(h: &Hypervisor, hyp: usize, slot: usize) -> IbResult<NodeId> {
    h.vfs[slot].node.ok_or_else(|| {
        IbError::Virtualization(format!(
            "VF {slot} of hypervisor {hyp} has no node (shared-port mode)"
        ))
    })
}

fn first_lid_port(subnet: &Subnet, node: NodeId) -> PortNum {
    subnet
        .node(node)
        .ports
        .iter()
        .enumerate()
        .find(|(_, p)| p.lid.is_some())
        .map_or(PortNum::new(1), |(i, _)| PortNum::new(i as u8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_subnet::topology::fattree::two_level;

    fn dc(arch: VirtArch) -> DataCenter {
        dc_with(arch, MigrationOptions::default())
    }

    fn dc_with(arch: VirtArch, migration: MigrationOptions) -> DataCenter {
        let built = two_level(2, 3, 2);
        DataCenter::from_topology(
            built,
            DataCenterConfig {
                arch,
                vfs_per_hypervisor: 3,
                migration,
                ..DataCenterConfig::default()
            },
        )
        .unwrap()
    }

    fn lfts(dc: &DataCenter) -> Vec<(NodeId, ib_subnet::Lft)> {
        dc.subnet
            .physical_switches()
            .map(|n| (n.id, n.lft().unwrap().clone()))
            .collect()
    }

    #[test]
    fn prepopulated_boot_numbers_every_vf() {
        let dc = dc(VirtArch::VSwitchPrepopulated);
        // 4 switches + 6 PFs + 6x3 VFs = 28 LIDs (vSwitches share PF LIDs).
        assert_eq!(dc.subnet.num_lids(), 28);
        for h in &dc.hypervisors {
            for slot in 0..3 {
                assert!(h.vf_lid(&dc.subnet, slot).is_some());
            }
        }
        dc.verify_connectivity().unwrap();
    }

    #[test]
    fn dynamic_boot_numbers_only_physical() {
        let dc = dc(VirtArch::VSwitchDynamic);
        // 4 switches + 6 PFs; dormant VFs are invisible.
        assert_eq!(dc.subnet.num_lids(), 10);
        dc.verify_connectivity().unwrap();
    }

    #[test]
    fn shared_port_boot_is_smallest() {
        let dc = dc(VirtArch::SharedPort);
        assert_eq!(dc.subnet.num_lids(), 10);
        assert!(dc.hypervisors.iter().all(|h| h.vswitch.is_none()));
    }

    #[test]
    fn prepopulated_create_vm_needs_no_lft_smps() {
        let mut dc = dc(VirtArch::VSwitchPrepopulated);
        let before = dc.sm.ledger.lft_updates();
        let vm = dc.create_vm("vm0", 1).unwrap();
        assert_eq!(dc.sm.ledger.lft_updates(), before, "§V-A: creation is free");
        let rec = dc.vm(vm).unwrap();
        assert_eq!(rec.hypervisor, 1);
        dc.verify_connectivity().unwrap();
    }

    #[test]
    fn dynamic_create_vm_costs_one_smp_per_switch() {
        let mut dc = dc(VirtArch::VSwitchDynamic);
        let before = dc.sm.ledger.lft_updates();
        let vm = dc.create_vm("vm0", 1).unwrap();
        // §V-B: one SMP per physical switch to learn the new LID.
        assert_eq!(
            dc.sm.ledger.lft_updates() - before,
            dc.subnet.num_physical_switches()
        );
        let rec = dc.vm(vm).unwrap();
        // The VM LID rides the PF's path on every physical switch.
        let pf_lid = dc.hypervisors[1].pf_lid(&dc.subnet).unwrap();
        for sw in dc.subnet.physical_switches() {
            let lft = sw.lft().unwrap();
            assert_eq!(lft.get(rec.lid), lft.get(pf_lid));
        }
        dc.verify_connectivity().unwrap();
    }

    #[test]
    fn dynamic_lids_spread_after_churn() {
        // Fig. 4's spread layout: create/destroy churn makes VM LIDs
        // non-sequential under dynamic assignment.
        let mut dc = dc(VirtArch::VSwitchDynamic);
        let a = dc.create_vm("a", 0).unwrap();
        let _b = dc.create_vm("b", 1).unwrap();
        let a_lid = dc.vm(a).unwrap().lid;
        dc.destroy_vm(a).unwrap();
        let c = dc.create_vm("c", 2).unwrap();
        // The freed LID is reused (lowest-first), proving churn reshuffles.
        assert_eq!(dc.vm(c).unwrap().lid, a_lid);
        dc.verify_connectivity().unwrap();
    }

    #[test]
    fn capacity_limit_enforced() {
        let mut dc = dc(VirtArch::VSwitchPrepopulated);
        for i in 0..3 {
            dc.create_vm(format!("vm{i}"), 0).unwrap();
        }
        assert!(matches!(
            dc.create_vm("overflow", 0),
            Err(IbError::Capacity(_))
        ));
    }

    #[test]
    fn prepopulated_migration_swaps_and_preserves_lid() {
        let mut dc = dc(VirtArch::VSwitchPrepopulated);
        let vm = dc.create_vm("vm0", 0).unwrap();
        let lid_before = dc.vm(vm).unwrap().lid;
        let report = dc.migrate_vm(vm, 4).unwrap();
        assert_eq!(report.lid_before, lid_before);
        assert_eq!(report.lid_after, lid_before, "the LID follows the VM");
        assert_eq!(report.hypervisor_smps, 3);
        assert!(report.lft.max_blocks_per_switch <= 2);
        assert!(report.lft.switches_updated <= dc.subnet.num_physical_switches());
        assert_eq!(dc.vm(vm).unwrap().hypervisor, 4);
        dc.verify_connectivity().unwrap();
    }

    #[test]
    fn dynamic_migration_copies_and_preserves_lid() {
        let mut dc = dc(VirtArch::VSwitchDynamic);
        let vm = dc.create_vm("vm0", 0).unwrap();
        let lid = dc.vm(vm).unwrap().lid;
        let report = dc.migrate_vm(vm, 4).unwrap();
        assert_eq!(report.lid_after, lid);
        assert_eq!(
            report.lft.max_blocks_per_switch.max(1),
            1,
            "copy is 1 SMP max"
        );
        // The VM LID now rides hypervisor 4's PF path.
        let pf_lid = dc.hypervisors[4].pf_lid(&dc.subnet).unwrap();
        for sw in dc.subnet.physical_switches() {
            let lft = sw.lft().unwrap();
            assert_eq!(lft.get(lid), lft.get(pf_lid));
        }
        dc.verify_connectivity().unwrap();
    }

    #[test]
    fn shared_port_migration_restricted() {
        let mut dc = dc(VirtArch::SharedPort);
        let vm0 = dc.create_vm("vm0", 0).unwrap();
        let _vm1 = dc.create_vm("vm1", 1).unwrap();
        // Destination hosts a VM: refused, before the VF is detached or an
        // SMP sent.
        let sent = dc.sm.ledger.total();
        assert!(dc.migrate_vm(vm0, 1).is_err());
        assert_eq!(dc.sm.ledger.total(), sent);
        let slot = dc.vm(vm0).unwrap().vf_slot;
        assert_eq!(dc.hypervisors[0].vfs[slot].attached, Some(vm0));
        // Destination empty: allowed, LID value preserved via the node-LID
        // swap of the §VII-B emulation.
        let lid = dc.vm(vm0).unwrap().lid;
        let report = dc.migrate_vm(vm0, 2).unwrap();
        assert_eq!(report.lid_after, lid);
        dc.verify_connectivity().unwrap();
    }

    #[test]
    fn migration_to_full_hypervisor_refused() {
        let mut dc = dc(VirtArch::VSwitchPrepopulated);
        let vm = dc.create_vm("vm0", 0).unwrap();
        for i in 0..3 {
            dc.create_vm(format!("f{i}"), 1).unwrap();
        }
        assert!(matches!(dc.migrate_vm(vm, 1), Err(IbError::Capacity(_))));
        assert!(dc.migrate_vm(vm, 0).is_err(), "self-migration refused");
    }

    #[test]
    fn destroy_dynamic_releases_lid() {
        let mut dc = dc(VirtArch::VSwitchDynamic);
        let vm = dc.create_vm("vm0", 0).unwrap();
        let lid = dc.vm(vm).unwrap().lid;
        dc.destroy_vm(vm).unwrap();
        assert_eq!(dc.subnet.endpoint_of(lid), None);
        assert_eq!(dc.num_vms(), 0);
        // Recreating gets the LID back.
        let vm2 = dc.create_vm("vm1", 3).unwrap();
        assert_eq!(dc.vm(vm2).unwrap().lid, lid);
        dc.verify_connectivity().unwrap();
    }

    #[test]
    fn bad_hypervisor_index_is_an_error_not_a_panic() {
        let mut dc = dc(VirtArch::VSwitchPrepopulated);
        assert!(dc.create_vm("vm", 99).is_err());
        let vm = dc.create_vm("vm", 0).unwrap();
        assert!(dc.migrate_vm(vm, 99).is_err());
        let mut transport = SmpTransport::perfect(dc.sm.sm_node);
        assert!(dc.migrate_vm_resilient(vm, 99, &mut transport).is_err());
    }

    #[test]
    fn resilient_migration_commits_like_classic_when_fault_free() {
        for arch in [VirtArch::VSwitchPrepopulated, VirtArch::VSwitchDynamic] {
            for invalidate_first in [false, true] {
                let opts = MigrationOptions {
                    invalidate_first,
                    ..MigrationOptions::default()
                };
                let tag = format!("{arch} invalidate_first={invalidate_first}");
                let mut classic = dc_with(arch, opts);
                let mut resilient = dc_with(arch, opts);
                let vm_c = classic.create_vm("vm", 0).unwrap();
                let vm_r = resilient.create_vm("vm", 0).unwrap();
                let report_c = classic.migrate_vm(vm_c, 4).unwrap();
                let mut transport = SmpTransport::perfect(resilient.sm.sm_node);
                let report_r = resilient
                    .migrate_vm_resilient(vm_r, 4, &mut transport)
                    .unwrap();
                assert!(report_r.committed, "{tag}");
                assert_eq!(report_r.tx.retries, 0);
                assert_eq!(report_r, report_c, "{tag}");
                let n_prime = report_c.lft.switches_updated;
                let invalidations = if invalidate_first { n_prime } else { 0 };
                assert_eq!(report_c.lft.invalidation_smps, invalidations, "{tag}");
                assert_eq!(
                    classic.sm.ledger.records(),
                    resilient.sm.ledger.records(),
                    "{tag}"
                );
                assert_eq!(lfts(&classic), lfts(&resilient), "{tag}");
                resilient.verify_connectivity().unwrap();
            }
        }
    }

    #[test]
    fn resilient_migration_rolls_back_on_black_hole() {
        for arch in [VirtArch::VSwitchPrepopulated, VirtArch::VSwitchDynamic] {
            let mut dc = dc(arch);
            let vm = dc.create_vm("vm", 0).unwrap();
            let before_hyp = dc.vm(vm).unwrap().hypervisor;
            let lid = dc.vm(vm).unwrap().lid;
            let snapshot: Vec<_> = dc
                .subnet
                .physical_switches()
                .map(|n| (n.id, n.lft().unwrap().clone()))
                .collect();
            let mut transport =
                SmpTransport::with_channel(dc.sm.sm_node, ib_mad::LossyChannel::black_hole());
            let report = dc.migrate_vm_resilient(vm, 4, &mut transport).unwrap();
            assert!(!report.committed, "{arch}");
            // The VM still runs at the source, same LID, VF re-attached.
            let rec = dc.vm(vm).unwrap();
            assert_eq!(rec.hypervisor, before_hyp);
            assert_eq!(rec.lid, lid);
            assert_eq!(
                dc.hypervisors[before_hyp].vfs[rec.vf_slot].attached,
                Some(vm)
            );
            for (id, before) in snapshot {
                assert_eq!(dc.subnet.lft(id).unwrap(), &before, "{arch}: LFTs restored");
            }
            dc.verify_connectivity().unwrap();
        }
    }

    /// A migration on a fabric with an unswept fault either commits inside
    /// the SM's component or is refused with the fabric as it was — it never
    /// stops half-way. Both uplinks of leaf 2 are down and no sweep ran, so
    /// leaf 2 still holds rows every pass would want to rewrite.
    #[test]
    fn migration_on_an_unswept_split_commits_or_is_refused_whole() {
        for arch in [VirtArch::VSwitchPrepopulated, VirtArch::VSwitchDynamic] {
            // Hypervisors 0-2, 3-5 and 6-8 sit on leaves 0, 1 and 2.
            for (from, to, commits) in [(2, 5, true), (0, 3, true), (1, 4, true), (0, 6, false)] {
                let tag = format!("{arch} {from}->{to}");
                let mut dc = DataCenter::from_topology(
                    two_level(3, 3, 2),
                    DataCenterConfig {
                        arch,
                        vfs_per_hypervisor: 2,
                        ..DataCenterConfig::default()
                    },
                )
                .unwrap();
                let vm = dc.create_vm("vm", from).unwrap();
                let leaf2 = dc.hypervisors[6].leaf;
                let uplinks: Vec<PortNum> = dc
                    .subnet
                    .node(leaf2)
                    .connected_ports()
                    .filter(|(_, r)| dc.subnet.node(r.node).is_physical_switch())
                    .map(|(p, _)| p)
                    .collect();
                assert_eq!(uplinks.len(), 2);
                for port in uplinks {
                    dc.subnet.set_link_down(leaf2, port).unwrap();
                }

                let before = lfts(&dc);
                let outcome = dc.migrate_vm(vm, to);
                assert_eq!(outcome.is_ok(), commits, "{tag}: {outcome:?}");
                let rec = dc.vm(vm).unwrap().clone();
                if commits {
                    assert_eq!(rec.hypervisor, to, "{tag}");
                    assert_ne!(lfts(&dc), before, "{tag}: reachable switches updated");
                    let cut_off = before.iter().find(|(id, _)| *id == leaf2).unwrap();
                    assert_eq!(dc.subnet.lft(leaf2), Some(&cut_off.1), "{tag}");
                } else {
                    assert_eq!(rec.hypervisor, from, "{tag}");
                    assert_eq!(lfts(&dc), before, "{tag}: every LFT as before the call");
                }
                assert_eq!(dc.sm.verify_route_index(&dc.subnet), Vec::<String>::new());
                // Exactly the slot the record names holds the VM.
                for (h, hyp) in dc.hypervisors.iter().enumerate() {
                    for (slot, vf) in hyp.vfs.iter().enumerate() {
                        let holds = (h, slot) == (rec.hypervisor, rec.vf_slot);
                        assert_eq!(vf.attached == Some(vm), holds, "{tag}: slot {h}/{slot}");
                    }
                }
                // Everyone in the SM's component still reaches the VM.
                let home = dc.subnet.endpoint_of(rec.lid).unwrap().node;
                for hyp in &dc.hypervisors[..6] {
                    let path = dc.subnet.trace_route(hyp.pf, rec.lid, 64);
                    assert_eq!(path.unwrap().last(), Some(&home), "{tag}");
                }
            }
        }
    }

    /// A pass refused by its planner (here: a switch without a row for the
    /// destination PF to copy) is an `Err` with the VM still attached at
    /// the source and no row written.
    #[test]
    fn a_refused_step_b_hands_the_vm_back() {
        let mut dc = dc(VirtArch::VSwitchDynamic);
        let vm = dc.create_vm("vm", 0).unwrap();
        let pf_lid = dc.hypervisors[4].pf_lid(&dc.subnet).unwrap();
        let spine = dc.subnet.physical_switches().last().unwrap().id;
        dc.subnet.lft_mut(spine).unwrap().clear(pf_lid);
        let before = lfts(&dc);
        assert!(dc.migrate_vm(vm, 4).is_err());
        assert_eq!(lfts(&dc), before);
        let rec = dc.vm(vm).unwrap();
        assert_eq!(rec.hypervisor, 0);
        assert_eq!(dc.hypervisors[0].vfs[rec.vf_slot].attached, Some(vm));
    }

    #[test]
    fn resilient_migration_converges_under_loss() {
        for arch in [VirtArch::VSwitchPrepopulated, VirtArch::VSwitchDynamic] {
            let mut dc = dc(arch);
            let vm = dc.create_vm("vm", 0).unwrap();
            let mut transport = SmpTransport::lossy(dc.sm.sm_node, 11, 0.05, 0);
            transport.retry.max_attempts = 8;
            let report = dc.migrate_vm_resilient(vm, 4, &mut transport).unwrap();
            if report.committed {
                assert_eq!(dc.vm(vm).unwrap().hypervisor, 4, "{arch}");
            } else {
                assert_eq!(dc.vm(vm).unwrap().hypervisor, 0, "{arch}: clean rollback");
            }
            dc.verify_connectivity().unwrap();
        }
    }

    #[test]
    fn verified_resilient_migration_commits_clean() {
        for arch in [VirtArch::VSwitchPrepopulated, VirtArch::VSwitchDynamic] {
            let built = two_level(2, 3, 2);
            let mut dc = DataCenter::from_topology_observed(
                built,
                DataCenterConfig {
                    arch,
                    vfs_per_hypervisor: 3,
                    verify: true,
                    ..DataCenterConfig::default()
                },
                Observer::metrics(),
            )
            .unwrap();
            let vm = dc.create_vm("vm", 0).unwrap();
            let mut transport = SmpTransport::perfect(dc.sm.sm_node);
            let report = dc.migrate_vm_resilient(vm, 4, &mut transport).unwrap();
            assert!(report.committed, "{arch}");
            let snap = dc.sm.observer().snapshot().unwrap();
            assert_eq!(snap.counter("migration.verify.runs"), 1, "{arch}");
            assert_eq!(snap.counter("migration.verify.clean"), 1, "{arch}");
            assert_eq!(snap.counter("migration.verify.failed"), 0, "{arch}");
            // The bring-up sweep verified too.
            assert!(snap.counter("verify.runs") >= 1, "{arch}");
        }
    }

    #[test]
    fn verified_rollback_proves_columns_untouched() {
        let built = two_level(2, 3, 2);
        let mut dc = DataCenter::from_topology_observed(
            built,
            DataCenterConfig {
                arch: VirtArch::VSwitchPrepopulated,
                vfs_per_hypervisor: 3,
                verify: true,
                ..DataCenterConfig::default()
            },
            Observer::metrics(),
        )
        .unwrap();
        let vm = dc.create_vm("vm", 0).unwrap();
        let mut transport =
            SmpTransport::with_channel(dc.sm.sm_node, ib_mad::LossyChannel::black_hole());
        let report = dc.migrate_vm_resilient(vm, 4, &mut transport).unwrap();
        assert!(!report.committed);
        let snap = dc.sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("migration.verify.runs"), 1);
        assert_eq!(snap.counter("migration.verify.clean"), 1);
    }

    #[test]
    fn resilient_migration_rejects_shared_port() {
        let mut dc = dc(VirtArch::SharedPort);
        let vm = dc.create_vm("vm", 0).unwrap();
        let mut transport = SmpTransport::perfect(dc.sm.sm_node);
        assert!(dc.migrate_vm_resilient(vm, 4, &mut transport).is_err());
    }

    /// The ledger pin behind the route tree: over a stream of creations and
    /// migrations, every record's `hops` is the hop count of a route
    /// searched independently for that one target, and its `directed` flag
    /// is the mode's (hypervisor SMPs are always directed).
    #[test]
    fn ledger_hops_equal_independently_searched_routes() {
        use ib_mad::{AttributeKind, DirectedRoute};

        let archs = [
            VirtArch::SharedPort,
            VirtArch::VSwitchPrepopulated,
            VirtArch::VSwitchDynamic,
        ];
        for arch in archs {
            for smp_mode in [SmpMode::Directed, SmpMode::Destination] {
                let mut dc = DataCenter::from_topology(
                    two_level(3, 3, 2),
                    DataCenterConfig {
                        arch,
                        vfs_per_hypervisor: 2,
                        migration: MigrationOptions {
                            smp_mode,
                            ..MigrationOptions::default()
                        },
                        ..DataCenterConfig::default()
                    },
                )
                .unwrap();
                let mut checked = dc.sm.ledger.total();
                let mut check = |dc: &DataCenter| {
                    let fresh = &dc.sm.ledger.records()[checked..];
                    assert!(!fresh.is_empty());
                    for r in fresh {
                        let route = DirectedRoute::compute(&dc.subnet, dc.sm.sm_node, r.target)
                            .expect("reachable");
                        assert_eq!(r.hops, route.hop_count(), "{arch} {smp_mode:?} {r:?}");
                        let lft_update = r.attribute == AttributeKind::LftBlock;
                        let directed = !lft_update || smp_mode == SmpMode::Directed;
                        assert_eq!(r.directed, directed, "{arch} {smp_mode:?} {r:?}");
                    }
                    checked = dc.sm.ledger.total();
                };

                // Shared Port may only move a node's single VM to an empty
                // node, so the stream keeps every VM on a node of its own.
                let a = dc.create_vm("a", 0).unwrap();
                check(&dc);
                let b = dc.create_vm("b", 4).unwrap();
                check(&dc);
                for (vm, dest) in [(a, 8), (b, 1), (a, 5), (b, 6), (a, 0)] {
                    dc.migrate_vm(vm, dest).unwrap();
                    check(&dc);
                }
                if arch.has_vswitch() {
                    let mut transport = SmpTransport::perfect(dc.sm.sm_node);
                    for (vm, dest) in [(a, 7), (b, 2)] {
                        let report = dc.migrate_vm_resilient(vm, dest, &mut transport).unwrap();
                        assert!(report.committed);
                        check(&dc);
                    }
                }
                dc.destroy_vm(a).unwrap();
                check(&dc);
                dc.verify_connectivity().unwrap();
            }
        }
    }

    #[test]
    fn intra_leaf_shortcut_updates_one_switch() {
        let shortcut = MigrationOptions {
            intra_leaf_shortcut: true,
            ..MigrationOptions::default()
        };
        // Whatever the pass swaps or copies, an intra-leaf move needs only
        // the leaf (Shared Port swaps the two PF LIDs).
        let archs = [
            VirtArch::SharedPort,
            VirtArch::VSwitchPrepopulated,
            VirtArch::VSwitchDynamic,
        ];
        for arch in archs {
            let mut dc = dc_with(arch, shortcut);
            // Hypervisors 0..3 share leaf 0 (3 hosts per leaf).
            let vm = dc.create_vm("vm0", 0).unwrap();
            let report = dc.migrate_vm(vm, 1).unwrap();
            assert!(report.intra_leaf);
            assert!(report.used_leaf_shortcut);
            assert!(
                report.lft.switches_updated <= 1,
                "{arch} §VI-D: only the leaf"
            );
            dc.verify_connectivity().unwrap();
        }
    }
}
