//! # ib-core
//!
//! The paper's contribution: the InfiniBand SR-IOV **vSwitch** architecture
//! and its **topology-agnostic dynamic reconfiguration** method for VM live
//! migration (*Towards the InfiniBand SR-IOV vSwitch Architecture*,
//! CLUSTER 2015).
//!
//! Three SR-IOV addressing architectures are implemented side by side:
//!
//! * [`VirtArch::SharedPort`] — the baseline shipped in the real drivers
//!   (§IV-A): every VM shares the hypervisor's LID, so a migrating VM
//!   changes addresses and breaks peers sharing its LID.
//! * [`VirtArch::VSwitchPrepopulated`] (§V-A) — every VF holds a LID from
//!   boot; VM creation is free, migration *swaps* two LFT rows per switch
//!   (1–2 SMPs each), and the initial routing's balance is preserved.
//! * [`VirtArch::VSwitchDynamic`] (§V-B) — LIDs are allocated when VMs are
//!   created; creation and migration *copy* the destination PF's LFT row
//!   (exactly 1 SMP per updated switch), trading balance for a fast boot
//!   and an unbounded VF pool.
//!
//! The [`DataCenter`] type owns a subnet, its hypervisors, and a subnet
//! manager, and exposes the VM lifecycle (`create_vm`, `destroy_vm`,
//! `migrate_vm`) with full SMP accounting, so every claim of §VI (equations
//! 1–5, Table I, the Fig. 5/6 scenarios) can be measured rather than
//! asserted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A degraded fabric must degrade the report, not the process: production
// paths return `IbError` instead of panicking (tests may still unwrap).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod affected;
pub mod capacity;
pub mod concurrent;
pub mod cost;
pub mod datacenter;
pub mod migration;
pub mod virtualize;
pub mod vm;

pub use datacenter::{DataCenter, DataCenterConfig};
pub use migration::{MigrationOptions, MigrationReport, TxStats};
pub use virtualize::{Hypervisor, VfSlot, VirtArch};
pub use vm::{VmId, VmRecord};
