//! # ib-sm
//!
//! The subnet manager: the OpenSM analog that brings a fabric up and keeps
//! it configured. A bring-up runs the classic pipeline:
//!
//! 1. **Discovery** — a directed-route sweep out of the SM node
//!    (`SubnGet(NodeInfo)` per node), since no LFTs exist yet;
//! 2. **LID assignment** — `SubnSet(PortInfo)` per endpoint, allocating from
//!    the unicast [`ib_types::LidSpace`];
//! 3. **Path computation** — a routing engine from `ib-routing` (the `PCt`
//!    term of the paper's equation 1, measured by wall clock);
//! 4. **LFT distribution** — dirty 64-entry blocks pushed switch by switch
//!    (`SubnSet(LinearForwardingTable)`, the `LFTDt = n·m·(k+r)` term).
//!
//! Every SMP goes through the [`ib_mad::SmpLedger`], so reports carry real
//! counts — the full-reconfiguration baseline that the paper's Table I
//! compares the vSwitch method against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A degraded fabric must degrade the report, not the process: production
// paths return `IbError` instead of panicking (tests may still unwrap).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod carried;
pub mod discovery;
pub mod distribution;
pub mod lids;
pub mod quarantine;
pub mod repair;
pub mod report;
pub mod resweep;
pub mod sa;
pub mod sm;
#[cfg(test)]
mod testutil;
pub mod traps;

pub use distribution::{FailedBlock, ResumeAccounting};
pub use ib_routing::RoutingOptions;
pub use quarantine::LinkQuarantine;
pub use report::{BringUpReport, DistributionReport};
pub use sa::{PathRecord, PathRecordCache, SaService};
pub use sm::{SmConfig, SmpMode, SubnetManager, SweepOptions};
pub use traps::{ResweepReport, SweepKind, Trap};
