//! # ib-routing
//!
//! Routing engines for InfiniBand subnets, modeled after the OpenSM engines
//! the paper benchmarks in Fig. 7, plus the machinery to reason about
//! deadlock freedom:
//!
//! * [`minhop`] — OpenSM's default Min-Hop engine: shortest paths (one BFS
//!   per delivery switch) with per-port load balancing.
//! * [`ftree`] — structured fat-tree routing: fast, exploits tree ranks.
//! * [`updn`] — Up*/Down*: deadlock-free by link direction restriction.
//! * [`dfsssp`] — deadlock-free SSSP routing: shortest paths, then cycles in
//!   the channel dependency graph are broken by lifting destinations onto
//!   higher virtual lanes.
//! * [`lash`] — LASH: per-switch-pair shortest paths packed into the fewest
//!   acyclic VL layers.
//! * [`cdg`] — channel dependency graphs, cycle search, and the transition
//!   (`R_old ∪ R_new`) analysis used by §VI-C of the paper.
//!
//! Every engine is a pure function `&Subnet -> RoutingTables`; nothing here
//! mutates the subnet. The subnet manager (crate `ib-sm`) applies tables and
//! accounts the SMPs; the engines only *compute* — which is exactly the
//! `PCt` term of the paper's equation 1. Each engine is written once, as
//! [`RoutingEngine::route`]: a full compute is that kernel over every
//! destination column of fresh, empty tables, an incremental repair the
//! same kernel over the dirty columns of the installed ones.
//!
//! Engines run single-threaded by default; [`RoutingOptions`] (threaded
//! through [`RoutingEngine::compute_with`]) fans the embarrassingly
//! parallel phases across scoped worker threads. The serial,
//! order-sensitive phases are never split, so the produced tables are
//! byte-identical for every worker count — pinned by
//! `tests/parallel_compute.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod cdg;
pub mod dfsssp;
pub mod engine;
pub mod ftree;
pub mod graph;
pub(crate) mod hostcols;
pub mod lash;
pub mod minhop;
pub(crate) mod swcols;
pub mod tables;
#[doc(hidden)]
pub mod testutil;
pub mod updn;

pub use engine::{EngineKind, RoutingEngine, RoutingOptions};
pub use graph::{Components, Destination, SwitchGraph};
pub use tables::{CellChange, LidMove, RoutingTables, SpliceLog, VlAssignment};
