//! # ib-types
//!
//! Fundamental InfiniBand addressing and identification types shared by every
//! crate in the `ib-vswitch` workspace.
//!
//! InfiniBand names every endpoint with three addresses (IB Architecture
//! Specification 1.2.1, and §II-B of *Towards the InfiniBand SR-IOV vSwitch
//! Architecture*, CLUSTER 2015):
//!
//! * [`Lid`] — the 16-bit **Local Identifier** used for intra-subnet routing.
//!   Only `0x0001..=0xBFFF` (49151 values) are unicast; the unicast LID space
//!   bounds the size of a subnet.
//! * [`Guid`] — the 64-bit **Global Unique Identifier** burned in by the
//!   manufacturer (and additional *virtual* GUIDs assigned by the subnet
//!   manager for SR-IOV virtual functions).
//! * [`Gid`] — the 128-bit **Global Identifier**, formed from a 64-bit subnet
//!   prefix plus a GUID; a valid IPv6 address.
//!
//! The crate is dependency-light by design: every other crate in the
//! workspace builds on these newtypes, so they must stay small, `Copy`, and
//! cheap to hash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod gid;
pub mod guid;
pub mod lid;
pub mod port;
pub mod vl;

pub use error::{AddressError, IbError, IbResult};
pub use gid::Gid;
pub use guid::Guid;
pub use lid::{Lid, LidSpace, Lmc, MAX_UNICAST_LID, MULTICAST_LID_BASE};
pub use port::PortNum;
pub use vl::VirtualLane;

/// Number of LID entries covered by one Linear Forwarding Table block.
///
/// LFTs are read and written over the management interface in blocks of 64
/// entries (one `SubnSet(LinearForwardingTable)` SMP carries exactly one
/// block). The block granularity is what makes the paper's LID-swap
/// reconfiguration cost either one or two SMPs per switch: one if both LIDs
/// fall in the same block, two otherwise.
pub const LFT_BLOCK_SIZE: usize = 64;

/// The port value that causes a switch to drop packets for a LID.
///
/// §VI-C of the paper proposes forwarding a migrating VM's LID through port
/// 255 to implement a partially-static reconfiguration that drops traffic
/// only towards the moving node.
pub const DROP_PORT: u8 = 255;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lft_block_size_matches_iba() {
        assert_eq!(LFT_BLOCK_SIZE, 64);
    }

    #[test]
    fn drop_port_is_255() {
        assert_eq!(DROP_PORT, 255);
    }
}
