//! Binary hypercube topology: `2^dim` routers, one link per differing
//! address bit. Dimension-order routing (`crate::routing`) fixes bits from
//! least to most significant, which is loop-free with a single VC class.

use super::{NodeId, Topology, TopologyError};

/// Parameters of a binary hypercube.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypercube {
    /// Number of dimensions; `2^dim` routers.
    pub dim: u32,
    /// Terminal (NI) ports per router.
    pub terminals_per_router: u16,
}

impl Hypercube {
    /// A hypercube of `dim` dimensions with one terminal port per router.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or the shape overflows the node/port budget.
    pub fn new(dim: u32) -> Self {
        Hypercube::with_terminals(dim, 1)
    }

    /// A hypercube with an explicit terminal-port count.
    ///
    /// # Panics
    ///
    /// Panics if a parameter is zero or the shape overflows the node/port
    /// budget.
    pub fn with_terminals(dim: u32, terminals_per_router: u16) -> Self {
        assert!(dim > 0 && terminals_per_router > 0, "hypercube parameters must be positive");
        assert!(dim <= 16, "node ids are u16: dim <= 16");
        assert!(
            dim as usize + usize::from(terminals_per_router) <= usize::from(u8::MAX),
            "hypercube port count overflows the u8 port id"
        );
        Hypercube { dim, terminals_per_router }
    }

    /// Total router count `2^dim`.
    pub fn nodes(&self) -> usize {
        1usize << self.dim
    }

    /// Ports per router: `dim` links plus the terminal ports.
    pub fn ports_per_node(&self) -> u8 {
        (self.dim as u16 + self.terminals_per_router) as u8
    }

    /// For tests: the link count, `dim · 2^(dim-1)`.
    #[doc(hidden)]
    pub fn links(&self) -> usize {
        (self.dim as usize) << (self.dim - 1)
    }

    /// Closed-form diameter: `dim` (Hamming distance of the corners).
    pub fn diameter_bound(&self) -> usize {
        self.dim as usize
    }

    /// Wires the hypercube: node `n` links to `n ^ (1 << b)` for every bit.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if the wiring plan asks for a duplicate
    /// or over-budget link; unreachable for valid parameters.
    pub fn build(&self) -> Result<Topology, TopologyError> {
        let mut t = Topology::new(self.nodes(), self.ports_per_node());
        for n in 0..self.nodes() {
            for b in 0..self.dim {
                let m = n ^ (1usize << b);
                if n < m {
                    t.connect_next_free(NodeId(n as u16), NodeId(m as u16))?;
                }
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_shape_counts() {
        let c = Hypercube::new(4);
        assert_eq!(c.nodes(), 16);
        assert_eq!(c.links(), 32);
        let t = c.build().expect("wires fit");
        assert!(t.is_connected());
        assert_eq!(t.wires().len(), 32);
        for n in 0..16 {
            assert_eq!(t.degree(NodeId(n)), 4);
            assert!(t.terminal_port(NodeId(n)).is_some());
        }
        // Opposite corners sit diameter apart.
        assert_eq!(t.distances_from(NodeId(0))[15], 4);
    }
}
