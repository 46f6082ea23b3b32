//! Identifier newtypes for router resources.
//!
//! The MMR addresses everything by (physical link, virtual channel on that
//! link) pairs — §3.5: "Virtual channels are specified by indicating the
//! physical link and the virtual channel on that link." Newtypes keep input
//! ports, output ports, VC indices and connection ids from being mixed up.

use std::fmt;

/// A physical port (link) index on a router, `0..ports`.
///
/// The same index space is used for input and output sides; context (or the
/// [`VcRef`] that carries it) says which side is meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortId(pub u8);

impl PortId {
    /// The raw index as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A virtual channel index within one port, `0..vcs_per_port`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VcIndex(pub u16);

impl VcIndex {
    /// The raw index as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for VcIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vc{}", self.0)
    }
}

/// A fully qualified virtual channel: (physical link, VC on that link).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VcRef {
    /// The physical port the VC belongs to.
    pub port: PortId,
    /// The VC index within the port.
    pub vc: VcIndex,
}

impl VcRef {
    /// For tests: a `VcRef` from raw indices.
    #[doc(hidden)]
    pub fn new(port: u8, vc: u16) -> Self {
        VcRef { port: PortId(port), vc: VcIndex(vc) }
    }
}

impl fmt::Display for VcRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.port, self.vc)
    }
}

/// A connection established through the router (or network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnectionId(pub u32);

impl ConnectionId {
    /// The raw id, used as the statistics flow key.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ConnectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn{}", self.0)
    }
}

/// A handle on a router connection: the input VC it owns (§3.5's direct
/// mapping key) and its id, which the slot at `vc` must still hold. Handles
/// order by VC, then id: the router's slot order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnRef {
    /// The input virtual channel the connection owns.
    pub vc: VcRef,
    /// The connection's identity.
    pub id: ConnectionId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(PortId(3).to_string(), "p3");
        assert_eq!(VcIndex(42).to_string(), "vc42");
        assert_eq!(VcRef::new(1, 200).to_string(), "p1.vc200");
        assert_eq!(ConnectionId(7).to_string(), "conn7");
    }

    #[test]
    fn ordering_is_port_major() {
        assert!(VcRef::new(0, 255) < VcRef::new(1, 0));
        assert!(VcRef::new(1, 3) < VcRef::new(1, 4));
    }

    #[test]
    fn a_handle_is_eight_bytes_and_orders_by_vc() {
        assert_eq!(std::mem::size_of::<ConnRef>(), 8);
        let at = |port, vc, id| ConnRef { vc: VcRef::new(port, vc), id: ConnectionId(id) };
        assert!(at(0, 1, 9) < at(1, 0, 2));
        assert!(at(1, 0, 2) < at(1, 0, 3), "a re-leased VC's new handle sorts after the old");
    }

    #[test]
    fn index_conversions() {
        assert_eq!(PortId(7).index(), 7);
        assert_eq!(VcIndex(255).index(), 255);
        assert_eq!(ConnectionId(9).raw(), 9);
    }
}
