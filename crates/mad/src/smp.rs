//! Subnet Management Packets and their attributes.

use ib_subnet::NodeId;
use ib_types::{Guid, Lid, PortNum, LFT_BLOCK_SIZE};

use crate::route::SmpRouting;

/// SMP method: query or mutate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SmpMethod {
    /// `SubnGet` — read an attribute.
    Get,
    /// `SubnSet` — write an attribute.
    Set,
}

/// The management attribute an SMP carries.
///
/// This is the subset of IBA attributes the simulator needs; each variant
/// corresponds to a real `SubnGet`/`SubnSet` attribute and carries exactly
/// the state that attribute moves.
#[derive(Clone, Debug, PartialEq)]
pub enum SmpAttribute {
    /// `NodeInfo` — discovery: node type, GUID, port count.
    NodeInfo,
    /// `SwitchInfo` — discovery: LFT capacity etc.
    SwitchInfo,
    /// `PortInfo` — read port state, or assign a LID on `Set`.
    PortInfo {
        /// LID to assign (for `Set`); `None` on `Get` or to clear.
        lid: Option<Lid>,
        /// The port the attribute addresses.
        port: PortNum,
    },
    /// `GUIDInfo` — read or set virtual GUIDs on an HCA port (the vGUID
    /// migration step of §V-C(a)).
    GuidInfo {
        /// vGUID to install; `None` clears.
        guid: Option<Guid>,
        /// GUID table index.
        index: u8,
    },
    /// `LinearForwardingTable` — one 64-entry LFT block.
    LftBlock {
        /// Block index.
        block: usize,
        /// 64 forwarding entries (`None` = unreachable).
        payload: Vec<Option<PortNum>>,
    },
}

impl SmpAttribute {
    /// Builds an LFT-block payload attribute, checking the payload length.
    ///
    /// # Panics
    /// Panics if `payload` is not exactly 64 entries long.
    #[must_use]
    pub fn lft_block(block: usize, payload: &[Option<PortNum>]) -> Self {
        assert_eq!(
            payload.len(),
            LFT_BLOCK_SIZE,
            "an LFT SMP carries exactly one 64-entry block"
        );
        Self::LftBlock {
            block,
            payload: payload.to_vec(),
        }
    }

    /// The discriminant-only kind, for ledger bucketing.
    #[must_use]
    pub fn kind(&self) -> AttributeKind {
        match self {
            Self::NodeInfo => AttributeKind::NodeInfo,
            Self::SwitchInfo => AttributeKind::SwitchInfo,
            Self::PortInfo { .. } => AttributeKind::PortInfo,
            Self::GuidInfo { .. } => AttributeKind::GuidInfo,
            Self::LftBlock { .. } => AttributeKind::LftBlock,
        }
    }
}

/// Attribute discriminants for counting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttributeKind {
    /// `NodeInfo`.
    NodeInfo,
    /// `SwitchInfo`.
    SwitchInfo,
    /// `PortInfo`.
    PortInfo,
    /// `GUIDInfo`.
    GuidInfo,
    /// `LinearForwardingTable`.
    LftBlock,
}

/// A subnet management packet.
#[derive(Clone, Debug, PartialEq)]
pub struct Smp {
    /// Get or Set.
    pub method: SmpMethod,
    /// What the packet reads or writes.
    pub attribute: SmpAttribute,
    /// How the packet is addressed (directed-route or LID-routed).
    pub routing: SmpRouting,
    /// The node the packet is destined for (model-level bookkeeping; the
    /// wire carries only the routing information).
    pub target: NodeId,
}

impl Smp {
    /// A `SubnSet(LinearForwardingTable)` update for one block.
    #[must_use]
    pub fn set_lft_block(
        target: NodeId,
        routing: SmpRouting,
        block: usize,
        payload: &[Option<PortNum>],
    ) -> Self {
        Self {
            method: SmpMethod::Set,
            attribute: SmpAttribute::lft_block(block, payload),
            routing,
            target,
        }
    }

    /// A `SubnSet(PortInfo)` LID assignment.
    #[must_use]
    pub fn set_port_lid(
        target: NodeId,
        routing: SmpRouting,
        port: PortNum,
        lid: Option<Lid>,
    ) -> Self {
        Self {
            method: SmpMethod::Set,
            attribute: SmpAttribute::PortInfo { lid, port },
            routing,
            target,
        }
    }

    /// A `SubnSet(GUIDInfo)` vGUID installation.
    #[must_use]
    pub fn set_vguid(target: NodeId, routing: SmpRouting, index: u8, guid: Option<Guid>) -> Self {
        Self {
            method: SmpMethod::Set,
            attribute: SmpAttribute::GuidInfo { guid, index },
            routing,
            target,
        }
    }
}

/// A reusable `SubnSet(LinearForwardingTable)` SMP for one switch: the
/// routing is taken once and the payload buffer is recycled across blocks
/// by [`retarget_lft_smp`], so a per-block loop allocates nothing.
#[must_use]
pub fn lft_smp_for(target: NodeId, routing: SmpRouting) -> Smp {
    Smp {
        method: SmpMethod::Set,
        attribute: SmpAttribute::LftBlock {
            block: 0,
            payload: vec![None; LFT_BLOCK_SIZE],
        },
        routing,
        target,
    }
}

/// Points a reusable LFT SMP at one block.
///
/// # Panics
/// Panics if `smp` does not carry an LFT block or `data` is not exactly 64
/// entries long.
pub fn retarget_lft_smp(smp: &mut Smp, block: usize, data: &[Option<PortNum>]) {
    match &mut smp.attribute {
        SmpAttribute::LftBlock {
            block: b, payload, ..
        } => {
            *b = block;
            payload.copy_from_slice(data);
        }
        _ => unreachable!("a reusable LFT SMP is always an LFT block"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::DirectedRoute;

    #[test]
    fn lft_block_payload_length_enforced() {
        let payload = vec![None; LFT_BLOCK_SIZE];
        let attr = SmpAttribute::lft_block(3, &payload);
        assert_eq!(attr.kind(), AttributeKind::LftBlock);
    }

    #[test]
    #[should_panic(expected = "64-entry")]
    fn short_payload_panics() {
        let payload = vec![None; 10];
        let _ = SmpAttribute::lft_block(0, &payload);
    }

    #[test]
    fn constructors_fill_fields() {
        let target = NodeId::from_index(4);
        let smp = Smp::set_port_lid(
            target,
            SmpRouting::Directed(DirectedRoute::local()),
            PortNum::new(1),
            Some(Lid::from_raw(9)),
        );
        assert_eq!(smp.method, SmpMethod::Set);
        assert_eq!(smp.attribute.kind(), AttributeKind::PortInfo);
        assert_eq!(smp.target, target);
    }
}
