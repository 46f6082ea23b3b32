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
//! across crossbar organisations. (Serialization is modelled at phit
//! granularity in `tests/phit_pipeline.rs`.)

use crate::ids::PortId;
use crate::switchsched::MatchedPair;
use crate::table::set_ports;

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
    /// Current input→output configuration; `None` = disconnected.
    config: Vec<Option<PortId>>,
    /// Bit *i* set ⇔ `config[i]` is connected (the router validates
    /// `ports ≤ 64`), so "is any crosspoint connected" is one word test and
    /// [`Crossbar::apply`] visits only the inputs that change.
    connected: u64,
    reconfigurations: u64,
}

impl Crossbar {
    /// Creates a disconnected `ports`×`ports` multiplexed crossbar.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero or above 64.
    pub fn new(ports: usize) -> Self {
        // mmr-lint: allow(P-PANIC, reason="construction-time config validation (documented # Panics contract), not on the flit-cycle path")
        assert!((1..=64).contains(&ports), "crossbar needs 1..=64 ports");
        Crossbar { config: vec![None; ports], connected: 0, reconfigurations: 0 }
    }

    /// Applies a matching as the configuration for the next flit cycle and
    /// counts a reconfiguration whenever the setting changed (§3.4: "Once
    /// the current flit transmission has finished, the switch is
    /// reconfigured. This operation requires one clock cycle."). Costs the
    /// matched inputs plus the inputs that disconnect: an empty matching on
    /// an idle crossbar touches nothing.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the matching violates the one-flit-per-input-port
    /// constraint of a multiplexed crossbar.
    // mmr-lint: hot
    pub fn apply(&mut self, pairs: &[MatchedPair]) {
        let mut next: u64 = 0;
        let mut changed = false;
        for p in pairs {
            let bit = 1u64 << p.input.index();
            debug_assert!(next & bit == 0, "multiplexed crossbar carries one flit per input port");
            next |= bit;
            let route = &mut self.config[p.input.index()];
            changed |= *route != Some(p.output);
            *route = Some(p.output);
        }
        let dropped = self.connected & !next;
        changed |= dropped != 0;
        for input in set_ports(dropped) {
            self.config[input] = None;
        }
        self.connected = next;
        self.reconfigurations += u64::from(changed);
    }

    /// Whether every crosspoint is disconnected — applying an empty matching
    /// to an idle crossbar is a no-op, which lets a quiescent router skip
    /// reconfiguration accounting entirely.
    pub fn is_idle(&self) -> bool {
        self.connected == 0
    }

    /// The output currently connected to `input`, if any.
    pub fn route_of(&self, input: PortId) -> Option<PortId> {
        self.config.get(input.index()).copied().flatten()
    }

    /// Total reconfigurations performed.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
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
        xb.apply(&[pair(0, 2), pair(1, 3)]);
        assert_eq!(xb.route_of(PortId(0)), Some(PortId(2)));
        assert_eq!(xb.route_of(PortId(2)), None);
        assert_eq!(xb.reconfigurations(), 1);
        // Same configuration again: no reconfiguration needed.
        xb.apply(&[pair(0, 2), pair(1, 3)]);
        assert_eq!(xb.reconfigurations(), 1);
        // Different configuration: reconfigure.
        xb.apply(&[pair(0, 3)]);
        assert_eq!(xb.reconfigurations(), 2);
        assert_eq!(xb.route_of(PortId(1)), None, "the unmatched input disconnects");
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
}
