//! # ib-verify
//!
//! End-to-end fabric invariant verification over **installed** LFTs.
//!
//! The paper's claim (§V-C, Table I) is that vSwitch reconfiguration stays
//! *correct* while sending orders of magnitude fewer SMPs. The rest of the
//! workspace accounts for the SMPs; this crate proves the correctness half:
//! given a subnet with its forwarding tables actually installed — after a
//! bring-up, a trap-driven re-sweep, or an Algorithm-1 LID swap/copy — the
//! [`FabricVerifier`] checks the four invariants that define a healthy
//! fabric:
//!
//! 1. **No black holes** — every active LID is reachable from every switch
//!    by following LFT entries to its endpoint;
//! 2. **Loop-freedom** — no LFT forwarding cycle exists for any
//!    destination LID;
//! 3. **Deadlock-freedom** — the channel dependency graph induced by the
//!    installed tables (per virtual lane, when the engine layered them) is
//!    acyclic;
//! 4. **vSwitch addressing** — no LID is owned by two endpoints, every
//!    registered LID resolves to a live port, and (via [`LftSnapshot`])
//!    a swap/copy touches only the rows of the LIDs it was asked to move.
//!
//! Invariants 1–3 run as flat array kernels over one dense view of the
//! installed state built per pass (`view.rs`): no table is cloned, each
//! (switch, LID) cell is classified once, and the channel dependency graph
//! ([`ChannelDeps`], `deps.rs`) is the workspace's one CDG,
//! `ib_routing::cdg::Cdg`, with byte counts: a per-lane table of dependency
//! counts keyed by `(switch, out-port)`, searched for cycles in the same
//! order DFSSSP's layering searches its `u32`-counted lanes.
//!
//! A full audit ([`FabricVerifier::audit`]) checks every cell. A repair
//! gate ([`FabricVerifier::verify_moved`]) checks what one repair's SMPs
//! changed: forwarding walks from the moved cells only, and the deadlock
//! check on the graph an earlier pass left behind, patched by those cells.
//!
//! Verification is read-only and deterministic: the same subnet state
//! produces the same [`VerifyReport`], byte for byte, regardless of worker
//! counts anywhere else in the pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The verifier runs on degraded fabrics by design: it must report, never
// panic (tests may still unwrap).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod affected;
mod deps;
mod rindex;
mod snapshot;
mod verifier;
mod view;

pub use affected::affected_destinations;
pub use deps::ChannelDeps;
pub use rindex::ReverseRouteIndex;
pub use snapshot::LftSnapshot;
pub use verifier::{FabricVerifier, InvariantClass, VerifyReport, Violation};
