//! # ib-subnet
//!
//! An in-memory model of an InfiniBand subnet: switches with block-structured
//! Linear Forwarding Tables (LFTs), host channel adapters (HCAs), the links
//! between them, and builders for the topologies used in the paper's
//! evaluation (regular fat trees built from 36-port switches) plus tori,
//! meshes, and random irregular networks for the topology-agnostic claims.
//!
//! The subnet is the *ground truth* that every other crate operates on:
//! routing engines read its graph and fill in LFTs, the subnet manager
//! discovers it and distributes LFT blocks, and the vSwitch layer mutates it
//! when VMs are created, destroyed, and live-migrated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;
pub mod lft;
pub mod node;
pub mod subnet;
pub mod topology;

pub use lft::{Lft, PaddedLftView};
pub use node::{Endpoint, Node, NodeId, NodeKind, PortState};
pub use subnet::Subnet;
