//! The multiplexed crossbar model.
//!
//! §3.3: "The MMR uses a multiplexed crossbar where the internal switch is a
//! crossbar with as many ports as communication links. It reduces silicon
//! area by V and V², respectively, with respect to a partially multiplexed
//! and a fully de-multiplexed crossbar." Buffers are not required at the
//! output side; reconfiguration takes one clock cycle and is hidden by
//! overlapping with arbitration (§3.4); serialization is required when the
//! internal datapath is wider than the physical link.
//!
//! Behaviourally the crossbar just carries the matched flits; this module
//! keeps the *accounting* the architecture sections reason about — port
//! constraints, reconfiguration counts, and the silicon-area comparison
//! across crossbar organisations. (The serialization factor is
//! [`crate::phitlink::PhitTimingModel`]'s.)

use crate::ids::PortId;
use crate::switchsched::MatchedPair;

/// Crossbar organisations compared in §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossbarOrganization {
    /// One crossbar port per physical link (the MMR's choice).
    Multiplexed,
    /// One crossbar input per VC, one output per link.
    PartiallyDemultiplexed,
    /// One crossbar port per VC on both sides.
    FullyDemultiplexed,
}

impl CrossbarOrganization {
    /// Relative silicon area for `links` physical links with `vcs` virtual
    /// channels each, normalised to the multiplexed organisation (area
    /// ∝ inputs × outputs).
    pub fn relative_area(self, vcs: usize) -> f64 {
        match self {
            CrossbarOrganization::Multiplexed => 1.0,
            CrossbarOrganization::PartiallyDemultiplexed => vcs as f64,
            CrossbarOrganization::FullyDemultiplexed => (vcs as f64) * (vcs as f64),
        }
    }
}

/// Configuration and cycle-accounting state of the internal switch.
#[derive(Debug, Clone)]
pub struct Crossbar {
    ports: usize,
    /// Current input→output configuration; `None` = disconnected.
    config: Vec<Option<PortId>>,
    /// Reusable next-configuration buffer ([`Crossbar::apply`] runs every
    /// flit cycle and must not allocate).
    scratch: Vec<Option<PortId>>,
    reconfigurations: u64,
    flits_switched: u64,
}

impl Crossbar {
    /// Creates a disconnected `ports`×`ports` multiplexed crossbar.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(ports: usize) -> Self {
        // mmr-lint: allow(P-PANIC, reason="construction-time config validation (documented # Panics contract), not on the flit-cycle path")
        assert!(ports > 0, "crossbar needs at least one port");
        Crossbar {
            ports,
            config: vec![None; ports],
            scratch: vec![None; ports],
            reconfigurations: 0,
            flits_switched: 0,
        }
    }

    /// Number of ports (equal to physical links — the multiplexed design).
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Applies a matching as the configuration for the next flit cycle and
    /// counts a reconfiguration whenever the setting changed (§3.4: "Once
    /// the current flit transmission has finished, the switch is
    /// reconfigured. This operation requires one clock cycle.").
    ///
    /// Returns the number of flits carried this cycle.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the matching violates the one-flit-per-input-port
    /// constraint of a multiplexed crossbar.
    // mmr-lint: hot
    pub fn apply(&mut self, pairs: &[MatchedPair]) -> usize {
        self.scratch.iter_mut().for_each(|s| *s = None);
        for p in pairs {
            debug_assert!(
                self.scratch[p.input.index()].is_none(),
                "multiplexed crossbar carries one flit per input port"
            );
            self.scratch[p.input.index()] = Some(p.output);
        }
        if self.scratch != self.config {
            self.reconfigurations += 1;
            std::mem::swap(&mut self.config, &mut self.scratch);
        }
        self.flits_switched += pairs.len() as u64;
        pairs.len()
    }

    /// Whether every crosspoint is disconnected — applying an empty matching
    /// to an idle crossbar is a no-op, which lets a quiescent router skip
    /// reconfiguration accounting entirely.
    pub fn is_idle(&self) -> bool {
        self.config.iter().all(Option::is_none)
    }

    /// The output currently connected to `input`, if any.
    pub fn route_of(&self, input: PortId) -> Option<PortId> {
        self.config.get(input.index()).copied().flatten()
    }

    /// Total reconfigurations performed.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Total flits carried.
    pub fn flits_switched(&self) -> u64 {
        self.flits_switched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ConnectionId, VcIndex};

    fn pair(i: u8, o: u8) -> MatchedPair {
        MatchedPair {
            input: PortId(i),
            vc: VcIndex(0),
            output: PortId(o),
            conn: ConnectionId(0),
        }
    }

    #[test]
    fn area_scaling_matches_paper() {
        // "It reduces silicon area by V and V², respectively."
        let v = 256;
        let mux = CrossbarOrganization::Multiplexed.relative_area(v);
        let partial = CrossbarOrganization::PartiallyDemultiplexed.relative_area(v);
        let full = CrossbarOrganization::FullyDemultiplexed.relative_area(v);
        assert_eq!(mux, 1.0);
        assert_eq!(partial / mux, 256.0);
        assert_eq!(full / mux, 65_536.0);
    }

    #[test]
    fn apply_tracks_routes_and_reconfigurations() {
        let mut xb = Crossbar::new(4);
        assert_eq!(xb.apply(&[pair(0, 2), pair(1, 3)]), 2);
        assert_eq!(xb.route_of(PortId(0)), Some(PortId(2)));
        assert_eq!(xb.route_of(PortId(2)), None);
        assert_eq!(xb.reconfigurations(), 1);
        // Same configuration again: no reconfiguration needed.
        xb.apply(&[pair(0, 2), pair(1, 3)]);
        assert_eq!(xb.reconfigurations(), 1);
        // Different configuration: reconfigure.
        xb.apply(&[pair(0, 3)]);
        assert_eq!(xb.reconfigurations(), 2);
        assert_eq!(xb.flits_switched(), 5);
    }

    #[test]
    fn idle_tracks_configuration() {
        let mut xb = Crossbar::new(4);
        assert!(xb.is_idle());
        xb.apply(&[pair(0, 2)]);
        assert!(!xb.is_idle());
        // One empty application clears the configuration (and counts the
        // reconfiguration); further empty applications are no-ops.
        xb.apply(&[]);
        assert!(xb.is_idle());
        let reconfs = xb.reconfigurations();
        xb.apply(&[]);
        assert_eq!(xb.reconfigurations(), reconfs);
    }

    #[test]
    fn port_count_is_recorded() {
        // The multiplexed design: one switch port per physical link.
        assert_eq!(Crossbar::new(8).ports(), 8);
    }
}
