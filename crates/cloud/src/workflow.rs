//! The §VII-B live-migration workflow.
//!
//! The paper modified OpenStack so that a migration runs four steps:
//!
//! 1. the SR-IOV VF is detached from the VM and the live migration starts;
//! 2. OpenStack signals OpenSM with the VM and its destination node;
//! 3. OpenSM reconfigures the IB network (LID swap/copy + vGUID transfer);
//! 4. when the migration completes, OpenStack attaches the VF holding the
//!    VM's GUID at the destination.
//!
//! [`LiveMigrationWorkflow::execute`] runs exactly those steps against a
//! [`DataCenter`], pulls the reconfiguration SMPs out of the SM's ledger,
//! and replays them through the latency model to produce a timeline;
//! [`LiveMigrationWorkflow::execute_resilient`] is the same workflow over a
//! caller-supplied transport.

use ib_core::{DataCenter, MigrationReport, VmId};
use ib_mad::fault::{SmpChannel, SmpTransport};
use ib_sim::downtime::{DowntimeModel, MigrationTimeline};
use ib_sim::SimTime;
use ib_types::{IbResult, Lid};

/// One recorded workflow step.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkflowStep {
    /// Step name, matching the §VII-B enumeration.
    pub name: String,
    /// Modeled duration.
    pub duration: SimTime,
}

/// The complete trace of one orchestrated migration.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkflowTrace {
    /// The four steps with durations; step 4 names the compensation when
    /// the network side rolled back.
    pub steps: Vec<WorkflowStep>,
    /// The network-side migration report (SMP counts, `n'`, `m'`, and
    /// whether it committed).
    pub report: MigrationReport,
    /// The composed downtime timeline (includes retry/timeout SMPs).
    pub timeline: MigrationTimeline,
    /// VM addresses preserved across the move (or the rollback)?
    pub addresses_preserved: bool,
}

/// Orchestrates §VII-B migrations against a data center.
#[derive(Clone, Debug, Default)]
pub struct LiveMigrationWorkflow {
    /// Timeline parameters.
    pub model: DowntimeModel,
}

impl LiveMigrationWorkflow {
    /// Runs the four-step workflow, migrating `vm` to hypervisor `dest`
    /// over the assumed channel ([`DataCenter::migrate_vm`]).
    pub fn execute(&self, dc: &mut DataCenter, vm: VmId, dest: usize) -> IbResult<WorkflowTrace> {
        self.run(dc, vm, |dc| dc.migrate_vm(vm, dest))
    }

    /// The fault-aware §VII-B workflow: step 3 runs the reconfiguration
    /// over `transport` ([`DataCenter::migrate_vm_resilient`]), and when
    /// the network side rolls back, step 4 becomes **re-attach the VF at
    /// the source** — the orchestrator's compensation — instead of
    /// attaching at the destination. Either way the VM ends up attached
    /// somewhere with its addresses intact; `report.committed` says where.
    pub fn execute_resilient<C: SmpChannel>(
        &self,
        dc: &mut DataCenter,
        vm: VmId,
        dest: usize,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<WorkflowTrace> {
        self.run(dc, vm, |dc| dc.migrate_vm_resilient(vm, dest, transport))
    }

    /// The workflow around one network-side `migrate` call.
    fn run(
        &self,
        dc: &mut DataCenter,
        vm: VmId,
        migrate: impl FnOnce(&mut DataCenter) -> IbResult<MigrationReport>,
    ) -> IbResult<WorkflowTrace> {
        let (lid_before, vguid_before): (Lid, _) = dc
            .vm(vm)
            .map(|r| (r.lid, r.vguid))
            .ok_or_else(|| ib_types::IbError::Virtualization(format!("{vm} does not exist")))?;

        // Steps 1+2 happen on the orchestration plane; step 3 is the SM
        // reconfiguration we actually execute; step 4 re-attaches.
        let report = migrate(dc)?;

        // Pull the reconfiguration SMPs from the ledger phase the
        // migration recorded, and replay them for the timeline — every
        // attempt, including dropped and timed-out ones, which is precisely
        // the extra reconfiguration time that faults cost.
        let phase = format!("migrate-{vm}");
        let smps: Vec<(usize, bool)> = dc
            .sm
            .ledger
            .phase_records(&phase)
            .iter()
            .map(|r| (r.hops, r.directed))
            .collect();
        let timeline = MigrationTimeline::compose(&self.model, &smps);

        let rec = dc.vm(vm).ok_or_else(|| {
            ib_types::IbError::Virtualization(format!("{vm} vanished during migration"))
        })?;
        let addresses_preserved = rec.lid == lid_before && rec.vguid == vguid_before;

        let last = if report.committed {
            "4-attach-vf-with-guid"
        } else {
            "4-reattach-vf-at-source"
        };
        let steps = vec![
            WorkflowStep {
                name: "1-detach-vf-and-start-migration".into(),
                duration: self.model.detach + self.model.stop_and_copy,
            },
            WorkflowStep {
                name: "2-signal-opensm".into(),
                duration: SimTime::from_us(50.0),
            },
            WorkflowStep {
                name: "3-opensm-reconfigures".into(),
                duration: timeline.reconfiguration,
            },
            WorkflowStep {
                name: last.into(),
                duration: self.model.attach,
            },
        ];
        Ok(WorkflowTrace {
            steps,
            report,
            timeline,
            addresses_preserved,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_core::{DataCenterConfig, VirtArch};
    use ib_subnet::topology::fattree::two_level;

    fn dc(arch: VirtArch) -> DataCenter {
        DataCenter::from_topology(
            two_level(2, 3, 2),
            DataCenterConfig {
                arch,
                vfs_per_hypervisor: 2,
                ..DataCenterConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn workflow_preserves_addresses_under_vswitch() {
        for arch in [VirtArch::VSwitchPrepopulated, VirtArch::VSwitchDynamic] {
            let mut dc = dc(arch);
            let vm = dc.create_vm("vm", 0).unwrap();
            let wf = LiveMigrationWorkflow::default();
            let trace = wf.execute(&mut dc, vm, 4).unwrap();
            assert!(trace.addresses_preserved, "{arch}");
            assert_eq!(trace.steps.len(), 4);
            assert!(trace.timeline.downtime > SimTime::ZERO);
            dc.verify_connectivity().unwrap();
        }
    }

    #[test]
    fn reconfiguration_step_is_tiny_share_of_downtime() {
        let mut dc = dc(VirtArch::VSwitchPrepopulated);
        let vm = dc.create_vm("vm", 0).unwrap();
        let trace = LiveMigrationWorkflow::default()
            .execute(&mut dc, vm, 5)
            .unwrap();
        // The whole point: with PCt eliminated and a handful of SMPs, the
        // network reconfiguration is noise next to detach/attach.
        assert!(trace.timeline.reconfiguration_share() < 0.01);
    }

    #[test]
    fn resilient_workflow_commits_when_fault_free() {
        let mut dc = dc(VirtArch::VSwitchPrepopulated);
        let vm = dc.create_vm("vm", 0).unwrap();
        let mut transport = SmpTransport::perfect(dc.sm.sm_node);
        let trace = LiveMigrationWorkflow::default()
            .execute_resilient(&mut dc, vm, 4, &mut transport)
            .unwrap();
        assert!(trace.report.committed);
        assert!(trace.addresses_preserved);
        assert_eq!(trace.steps[3].name, "4-attach-vf-with-guid");
        dc.verify_connectivity().unwrap();
    }

    #[test]
    fn resilient_workflow_compensates_on_persistent_failure() {
        let mut dc = dc(VirtArch::VSwitchDynamic);
        let vm = dc.create_vm("vm", 0).unwrap();
        let mut transport =
            SmpTransport::with_channel(dc.sm.sm_node, ib_mad::LossyChannel::black_hole());
        let trace = LiveMigrationWorkflow::default()
            .execute_resilient(&mut dc, vm, 4, &mut transport)
            .unwrap();
        assert!(!trace.report.committed);
        assert!(
            trace.addresses_preserved,
            "rollback keeps the addresses too"
        );
        assert_eq!(trace.steps[3].name, "4-reattach-vf-at-source");
        assert_eq!(dc.vm(vm).unwrap().hypervisor, 0, "VM stayed home");
        dc.verify_connectivity().unwrap();
    }

    #[test]
    fn workflow_fails_cleanly_on_bad_vm() {
        let mut dc = dc(VirtArch::VSwitchPrepopulated);
        let wf = LiveMigrationWorkflow::default();
        assert!(wf.execute(&mut dc, ib_core::VmId(99), 1).is_err());
    }
}
