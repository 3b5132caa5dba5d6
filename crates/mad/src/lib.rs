//! # ib-mad
//!
//! The subnet-management packet (SMP) layer: packet and attribute types,
//! directed-route versus destination-based (LID-routed) addressing, and the
//! [`SmpLedger`] that records every management packet a subnet manager
//! sends.
//!
//! The ledger is the measurement instrument behind the paper's Table I and
//! the `n·m·(k+r)` cost model of §VI: SMP counts are *recorded* as the SM
//! and the vSwitch reconfiguration actually emit packets, never estimated
//! on the side, so the analytic model can be validated against ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod fault;
pub mod ledger;
pub mod route;
pub mod smp;

pub use cost::CostModel;
pub use fault::{
    one_way_latency_ns, AssumedChannel, LossyChannel, PerfectChannel, RetryPolicy, SmpChannel,
    SmpStatus, SmpTransport,
};
pub use ledger::{SmpLedger, SmpRecord};
pub use route::{DirectedRoute, RouteTree, Routes, SmpRouting};
pub use smp::{lft_smp_for, retarget_lft_smp, AttributeKind, Smp, SmpAttribute, SmpMethod};
