//! k-ary n-fly butterfly: a multistage interconnection network of
//! `stages` switch columns by `k^(stages-1)` rows.
//!
//! Switch ⟨s, row⟩ links to ⟨s+1, row'⟩ exactly when `row'` agrees with
//! `row` on every base-`k` digit except digit `s` — crossing boundary `s`
//! can set digit `s` to any value (including a straight link when the
//! digit already matches). Unlike the classic unidirectional fly, links
//! here are bidirectional wires over the shared [`Topology`] type, so any
//! switch can talk to any other and the destination-tag routing in
//! `crate::routing` runs over covering walks (down to the lowest differing
//! digit, up through the highest, then to the destination stage).

use super::{NodeId, Topology, TopologyError};

/// Parameters of a k-ary n-fly butterfly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Butterfly {
    /// Switch radix per direction (`k`): each switch has `k` up-links and
    /// `k` down-links except at the boundary stages.
    pub k: u16,
    /// Stage (column) count `n`; `k^(n-1)` rows.
    pub stages: u16,
    /// Terminal (NI) ports per switch.
    pub terminals_per_router: u16,
}

impl Butterfly {
    /// A `k`-ary butterfly with `stages` columns and one terminal port per
    /// switch.
    ///
    /// # Panics
    ///
    /// Panics if a parameter is degenerate or the shape overflows the
    /// node/port budget.
    pub fn new(k: u16, stages: u16) -> Self {
        Butterfly::with_terminals(k, stages, 1)
    }

    /// A butterfly with an explicit terminal-port count.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, `stages < 2`, a parameter is zero, or the shape
    /// overflows the node/port budget.
    pub fn with_terminals(k: u16, stages: u16, terminals_per_router: u16) -> Self {
        assert!(k >= 2, "butterfly radix must be at least 2");
        assert!(stages >= 2, "a butterfly needs at least two stages");
        assert!(terminals_per_router > 0, "switches need a terminal port");
        let shape = Butterfly { k, stages, terminals_per_router };
        assert!(shape.nodes() <= usize::from(u16::MAX) + 1, "node ids are u16");
        assert!(
            2 * usize::from(k) + usize::from(terminals_per_router) <= usize::from(u8::MAX),
            "butterfly port count overflows the u8 port id"
        );
        shape
    }

    /// Rows per stage: `k^(stages-1)`.
    pub fn rows(&self) -> usize {
        usize::from(self.k).pow(u32::from(self.stages) - 1)
    }

    /// Total switch count `stages · k^(stages-1)`.
    pub fn nodes(&self) -> usize {
        usize::from(self.stages) * self.rows()
    }

    /// Ports per switch: `k` down + `k` up + terminals. Boundary stages
    /// leave one side unwired; those ports stay free.
    pub fn ports_per_node(&self) -> u8 {
        (2 * self.k + self.terminals_per_router) as u8
    }

    /// For tests: the link count, `(stages - 1) · rows · k`.
    #[doc(hidden)]
    pub fn links(&self) -> usize {
        (usize::from(self.stages) - 1) * self.rows() * usize::from(self.k)
    }

    /// Closed-form diameter bound for the bidirectional fly: a full
    /// descent plus a full ascent, `2(stages - 1)`.
    pub fn diameter_bound(&self) -> usize {
        2 * (usize::from(self.stages) - 1)
    }

    /// Node id of switch `row` in stage `stage` (stage-major layout).
    pub fn node(&self, stage: usize, row: usize) -> NodeId {
        NodeId((stage * self.rows() + row) as u16)
    }

    /// The `(stage, row)` coordinates of a switch.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        (node.index() / self.rows(), node.index() % self.rows())
    }

    /// Base-`k` digit `i` of a row index.
    pub fn digit(&self, row: usize, i: usize) -> usize {
        row / usize::from(self.k).pow(i as u32) % usize::from(self.k)
    }

    /// `row` with digit `i` replaced by `v`.
    pub fn set_digit(&self, row: usize, i: usize, v: usize) -> usize {
        let place = usize::from(self.k).pow(i as u32);
        row - self.digit(row, i) * place + v * place
    }

    /// Wires the butterfly: for every stage boundary `s`, row `row` and
    /// digit value `v`, links ⟨s, row⟩ to ⟨s+1, row with digit s = v⟩.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if the wiring plan asks for a duplicate
    /// or over-budget link; unreachable for valid parameters.
    pub fn build(&self) -> Result<Topology, TopologyError> {
        let mut t = Topology::new(self.nodes(), self.ports_per_node());
        for s in 0..usize::from(self.stages) - 1 {
            for row in 0..self.rows() {
                for v in 0..usize::from(self.k) {
                    t.connect_next_free(self.node(s, row), self.node(s + 1, self.set_digit(row, s, v)))?;
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
    fn fly_shape_counts() {
        let b = Butterfly::new(2, 4);
        assert_eq!(b.rows(), 8);
        assert_eq!(b.nodes(), 32);
        assert_eq!(b.links(), 48);
        let t = b.build().expect("wires fit");
        assert!(t.is_connected());
        assert_eq!(t.wires().len(), 48);
        // Interior switches have degree 2k, boundary switches degree k.
        assert_eq!(t.degree(b.node(0, 0)), 2);
        assert_eq!(t.degree(b.node(1, 0)), 4);
        assert_eq!(t.degree(b.node(3, 0)), 2);
        for n in 0..32 {
            assert!(t.terminal_port(NodeId(n)).is_some());
        }
    }

    #[test]
    fn digit_arithmetic_round_trips() {
        let b = Butterfly::new(3, 4); // rows = 27
        for row in 0..27 {
            for i in 0..3 {
                for v in 0..3 {
                    let r2 = b.set_digit(row, i, v);
                    assert_eq!(b.digit(r2, i), v);
                    for j in 0..3 {
                        if j != i {
                            assert_eq!(b.digit(r2, j), b.digit(row, j));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_crossing_sets_one_digit() {
        let b = Butterfly::new(2, 4);
        let t = b.build().expect("wires fit");
        for w in t.wires() {
            let (sa, ra) = b.coords(w.a.0);
            let (sb, rb) = b.coords(w.b.0);
            assert_eq!(sb, sa + 1, "wires join adjacent stages");
            // Rows agree on every digit except the boundary digit.
            for d in 0..3 {
                if d != sa {
                    assert_eq!(b.digit(ra, d), b.digit(rb, d), "digit {d}");
                }
            }
        }
    }
}
