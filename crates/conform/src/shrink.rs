//! Automatic shrinking: reduces a divergent [`Scenario`] to a minimal
//! reproducer by structural mutation and re-execution.
//!
//! Four passes, each run to a fixpoint, in order of diagnostic value:
//!
//! 1. **Drop churn events** — remove one mid-run arrival/departure at a
//!    time, keeping any removal that preserves the divergence (dynamic
//!    behaviour is usually incidental to a reproducer, so it goes first).
//! 2. **Drop connections** — remove one up-front connection at a time
//!    (greedy delta-debugging with restart, the classic ddmin inner loop).
//! 3. **Shorten the schedule** — halve the injection window while the
//!    divergence persists (fault and churn cycles scale down
//!    proportionally so the schedule stays inside the window).
//! 4. **Shrink the topology** — retry the case on a fixed ladder of
//!    smaller networks, remapping connection and churn endpoints modulo
//!    the node count and discarding fault events that no longer address a
//!    wire.
//!
//! Every candidate is a full deterministic re-run, so the shrinker is as
//! trustworthy as the run it is handed (in a campaign, the runner's); a
//! budget caps the total number of re-runs.

use mmr_sim::Cycles;

use crate::oracle::Divergence;
use crate::scenario::{RoutingChoice, Scenario, TopologySpec};

/// Default re-run budget per shrink (each candidate costs one full case).
pub const DEFAULT_BUDGET: usize = 200;

/// The result of shrinking one divergent scenario.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The minimal scenario still exhibiting a divergence.
    pub scenario: Scenario,
    /// The divergences of the minimal scenario.
    pub divergences: Vec<Divergence>,
    /// Re-runs spent.
    pub attempts: usize,
}

/// Shrinks `scenario` (which must diverge under `run`, a case's
/// divergences) to a minimal reproducer, spending at most `budget` re-runs.
pub fn shrink(
    scenario: &Scenario,
    run: impl Fn(&Scenario) -> Vec<Divergence>,
    budget: usize,
) -> Shrunk {
    let mut current = scenario.clone();
    let mut current_div = run(&current);
    let mut attempts = 1usize;

    let try_candidate = |cand: &Scenario, attempts: &mut usize| -> Option<Vec<Divergence>> {
        if *attempts >= budget {
            return None;
        }
        *attempts += 1;
        Some(run(cand)).filter(|divergences| !divergences.is_empty())
    };

    // Pass 0: try the plain up*/down* fallback — if the divergence
    // survives without the structured routing algorithm, the algorithm is
    // incidental and the reproducer reads simpler.
    if current.routing != RoutingChoice::UpDown {
        let mut cand = current.clone();
        cand.routing = RoutingChoice::UpDown;
        if let Some(divergences) = try_candidate(&cand, &mut attempts) {
            current = cand;
            current_div = divergences;
        }
    }

    // Pass 1: drop churn events one at a time (restart after each success,
    // same ddmin inner loop as the connection pass below).
    let mut progress = true;
    while progress && !current.churn.is_empty() {
        progress = false;
        for i in 0..current.churn.len() {
            let mut cand = current.clone();
            cand.churn.remove(i);
            if let Some(divergences) = try_candidate(&cand, &mut attempts) {
                current = cand;
                current_div = divergences;
                progress = true;
                break;
            }
        }
    }

    // Pass 2: drop connections one at a time, restarting after each
    // success so earlier survivors get another chance to go.
    let mut progress = true;
    while progress && current.conns.len() > 1 {
        progress = false;
        for i in 0..current.conns.len() {
            let mut cand = current.clone();
            cand.conns.remove(i);
            if let Some(divergences) = try_candidate(&cand, &mut attempts) {
                current = cand;
                current_div = divergences;
                progress = true;
                break;
            }
        }
    }

    // Pass 3: halve the injection window (fault and churn times scale
    // with it).
    while current.cycles > 64 {
        let mut cand = current.clone();
        cand.cycles /= 2;
        for f in &mut cand.faults {
            f.at = Cycles(f.at.0 / 2);
        }
        for e in &mut cand.churn {
            e.at /= 2;
        }
        match try_candidate(&cand, &mut attempts) {
            Some(divergences) => {
                current = cand;
                current_div = divergences;
            }
            None => break,
        }
    }

    // Pass 4: fixed ladder of smaller topologies.
    for smaller in [TopologySpec::Ring { nodes: 4 }, TopologySpec::Mesh { width: 2, height: 2 }] {
        if smaller.nodes() >= current.topology.nodes() {
            continue;
        }
        let n = smaller.nodes() as u16;
        let mut cand = current.clone();
        cand.topology = smaller;
        // The ladder shapes have no structured minimal algorithm; recording
        // up*/down* keeps the minimal scenario's spec string honest.
        cand.routing = RoutingChoice::UpDown;
        for c in &mut cand.conns {
            c.src %= n;
            c.dst %= n;
            if c.src == c.dst {
                c.dst = (c.src + 1) % n;
            }
        }
        for e in &mut cand.churn {
            if let crate::scenario::ChurnAction::Open { src, dst, .. } = &mut e.action {
                *src %= n;
                *dst %= n;
                if src == dst {
                    *dst = (*src + 1) % n;
                }
            }
        }
        // Fault specs whose endpoint is not a wire of the smaller topology
        // are discarded by Scenario::fault_plan at run time; specs naming
        // out-of-range nodes are dropped here for report clarity.
        cand.faults.retain(|f| f.node.0 < n);
        if let Some(divergences) = try_candidate(&cand, &mut attempts) {
            current = cand;
            current_div = divergences;
        }
    }

    Shrunk { scenario: current, divergences: current_div, attempts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ConnSpec;

    /// A divergence the shrinker cannot tell from a real one: it holds
    /// while some connection leaves node 0, whatever else the scenario
    /// carries. No simulation runs, so the passes themselves are what is
    /// checked: one connection is left, the window is halved down to the
    /// floor, and the topology lands on the smallest rung of the ladder.
    #[test]
    fn a_synthetic_divergence_shrinks_to_one_connection_on_the_smallest_topology() {
        let leaves_node_0 = |s: &Scenario| -> Vec<Divergence> {
            let from_0 = s.conns.iter().find(|c| c.src == 0);
            let diverge = |c: &ConnSpec| Divergence::SequenceViolation {
                conn: 0,
                expected: 0,
                got: c.dst.into(),
            };
            from_0.map(diverge).into_iter().collect()
        };
        let sc = (1..)
            .map(Scenario::generate)
            .find(|s| s.topology.nodes() > 4 && s.conns.len() > 2 && !leaves_node_0(s).is_empty())
            .expect("some seed draws a larger topology with a connection out of node 0");
        let shrunk = shrink(&sc, leaves_node_0, DEFAULT_BUDGET);
        assert_eq!(shrunk.scenario.conns.len(), 1, "{:?}", shrunk.scenario.conns);
        assert_eq!(shrunk.scenario.conns[0].src, 0);
        assert!(shrunk.scenario.churn.is_empty());
        assert!(shrunk.scenario.cycles <= 64 && shrunk.scenario.cycles < sc.cycles);
        assert_eq!(shrunk.scenario.topology, TopologySpec::Ring { nodes: 4 });
        assert_eq!(shrunk.scenario.routing, RoutingChoice::UpDown);
        assert_eq!(shrunk.divergences, leaves_node_0(&shrunk.scenario));
        assert!(shrunk.attempts < DEFAULT_BUDGET, "{} re-runs", shrunk.attempts);
    }
}
