//! # ib-sim
//!
//! Discrete-event simulation on top of the subnet model — the ibsim analog
//! of the reproduction. Its instruments:
//!
//! * [`des`] — a small deterministic event queue with logical time.
//! * [`smp_sim`] — replays an [`ib_mad::SmpLedger`] through a per-hop
//!   latency model (`k` per link, `r` per directed-routed hop) with
//!   configurable SM pipelining, turning SMP *counts* into reconfiguration
//!   *time* (equations 2–5 of the paper, including footnote 4's
//!   switches-nearer-the-SM-are-faster effect).
//! * [`downtime`] — the end-to-end live-migration timeline (detach, memory
//!   copy, reconfiguration, attach) that lets the three architectures be
//!   compared on VM downtime.
//! * [`faults`] — seeded fault injection: a [`faults::FaultPlan`] describes
//!   SMP loss/jitter plus timed topology faults, and a
//!   [`faults::FaultDriver`] applies them to the subnet as simulated time
//!   advances, emitting the traps a real fabric would raise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod credit;
pub mod des;
pub mod downtime;
pub mod fairness;
pub mod faults;
pub mod smp_sim;

pub use credit::{CreditSimConfig, CreditSimReport, Flow};
pub use des::{EventQueue, SimTime};
pub use downtime::{DowntimeModel, MigrationTimeline};
pub use fairness::{max_min_fair, FairFlow, FairnessReport};
pub use faults::{FaultDriver, FaultEvent, FaultPlan, TimedFault};
pub use smp_sim::{SmpLatencyModel, SmpReplay};
