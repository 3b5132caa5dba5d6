//! # ib-cloud
//!
//! The cloud-orchestration layer of the reproduction — the stand-in for the
//! OpenStack deployment of the paper's §VII testbed:
//!
//! * [`inventory`] — compute-node resources (cores, RAM) and VM flavors;
//! * [`placement`] — spread / pack / round-robin schedulers;
//! * [`workflow`] — the §VII-B four-step SR-IOV live-migration workflow
//!   (detach VF → migrate & signal the SM → reconfigure → re-attach VF),
//!   with a simulated timeline;
//! * [`scenarios`] — the paper's testbed replica plus defragmentation and
//!   evacuation scenarios (§V-B's "optimization of fragmented networks"
//!   and "disaster recovery" motivations).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod inventory;
pub mod placement;
pub mod scenarios;
pub mod topology_aware;
pub mod workflow;

pub use inventory::{Inventory, NodeResources, VmFlavor};
pub use placement::{PackPolicy, PlacementPolicy, RoundRobinPolicy, SpreadPolicy};
pub use topology_aware::{migrate_cheapest, rank_destinations, MigrationCandidate};
pub use workflow::{LiveMigrationWorkflow, WorkflowTrace};
