//! Port numbering.

use std::fmt;

/// A port number on a switch or HCA.
///
/// Switch port 0 is the management port (the switch's own endpoint — it is
/// where the switch's LID terminates); external ports are numbered from 1.
/// Port 255 is the IBA "drop" value used by the paper's partially-static
/// reconfiguration variant (§VI-C).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortNum(u8);

impl PortNum {
    /// The switch management port (port 0).
    pub const MANAGEMENT: PortNum = PortNum(0);
    /// The packet-dropping pseudo-port (port 255).
    pub const DROP: PortNum = PortNum(crate::DROP_PORT);

    /// Creates a port number.
    #[must_use]
    pub const fn new(raw: u8) -> Self {
        Self(raw)
    }

    /// Raw value.
    #[inline]
    #[must_use]
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// Whether this is the management port.
    #[inline]
    #[must_use]
    pub const fn is_management(self) -> bool {
        self.0 == 0
    }

    /// Whether this is the drop pseudo-port.
    #[inline]
    #[must_use]
    pub const fn is_drop(self) -> bool {
        self.0 == crate::DROP_PORT
    }

    /// Whether this is a usable external (cable-bearing) port.
    #[must_use]
    pub const fn is_external(self) -> bool {
        !self.is_management() && !self.is_drop()
    }
}

impl fmt::Debug for PortNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for PortNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u8> for PortNum {
    fn from(raw: u8) -> Self {
        Self(raw)
    }
}

impl From<PortNum> for u8 {
    fn from(p: PortNum) -> u8 {
        p.raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(PortNum::MANAGEMENT.is_management());
        assert!(PortNum::DROP.is_drop());
        assert!(PortNum::new(1).is_external());
        assert!(PortNum::new(36).is_external());
        assert!(!PortNum::new(0).is_external());
        assert!(!PortNum::new(255).is_external());
    }

    #[test]
    fn ordering_by_number() {
        assert!(PortNum::new(2) < PortNum::new(4));
    }
}
