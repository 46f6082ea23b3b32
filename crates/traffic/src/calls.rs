//! Call-level workload: connection arrivals and departures.
//!
//! The paper's admission control (§4.2) is evaluated here at the *call*
//! level, the classic telephony view: connection requests arrive as a
//! Poisson process, hold for an exponentially distributed time, and are
//! admitted or blocked by the router's bandwidth books and VC pools. The
//! output is the blocking probability and the carried load — the
//! admission-control analogue of an Erlang loss system, with the router's
//! per-link registers as the servers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mmr_core::conn::{ConnectionRequest, QosClass};
use mmr_core::ids::{ConnRef, PortId};
use mmr_core::router::{EstablishError, Router};
use mmr_sim::{Bandwidth, SeededRng};

/// Configuration of a call-level run.
#[derive(Debug, Clone)]
pub struct CallWorkload {
    /// Mean call arrivals per flit cycle.
    pub arrival_rate: f64,
    /// Mean holding time in flit cycles.
    pub mean_holding: f64,
    /// Rates requested by calls (uniformly drawn).
    pub ladder: Vec<Bandwidth>,
    /// Workload seed.
    pub seed: u64,
}

impl CallWorkload {
    /// The offered traffic intensity in erlangs (arrival rate × holding
    /// time): the mean number of calls that *want* to be up concurrently.
    pub fn offered_erlangs(&self) -> f64 {
        self.arrival_rate * self.mean_holding
    }
}

/// The result of a call-level simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallStats {
    /// Call requests generated.
    pub offered: u64,
    /// Calls admitted.
    pub admitted: u64,
    /// Calls blocked, by cause: bandwidth admission control.
    pub blocked_bandwidth: u64,
    /// Calls blocked, by cause: virtual-channel exhaustion.
    pub blocked_vcs: u64,
    /// Time-averaged number of concurrent calls (carried erlangs).
    pub carried_erlangs: f64,
}

impl CallStats {
    /// Fraction of offered calls that were blocked.
    pub fn blocking_probability(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.blocked_bandwidth + self.blocked_vcs) as f64 / self.offered as f64
        }
    }
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum CallEvent {
    Arrival,
    Departure(ConnRef),
}

/// Runs a call-level simulation for `total_cycles` on `router`.
///
/// Only connection establishment and teardown are exercised — no data flits
/// flow — so runs are fast enough to sweep arrival rates densely.
pub fn run_calls(router: &mut Router, workload: &CallWorkload, total_cycles: u64) -> CallStats {
    assert!(workload.arrival_rate > 0.0, "arrival rate must be positive");
    assert!(workload.mean_holding > 0.0, "holding time must be positive");
    assert!(!workload.ladder.is_empty(), "rate ladder must be non-empty");

    let ports = router.config().ports();
    let mut rng = SeededRng::new(workload.seed);
    // (cycle, seq, event), earliest cycle first; `seq` counts schedulings,
    // so same-cycle events pop in the order they were scheduled.
    let mut queue = BinaryHeap::new();
    let mut seq = 0u64..;
    let first = rng.exponential(1.0 / workload.arrival_rate) as u64;
    queue.push(Reverse((first, seq.next(), CallEvent::Arrival)));

    let mut stats = CallStats {
        offered: 0,
        admitted: 0,
        blocked_bandwidth: 0,
        blocked_vcs: 0,
        carried_erlangs: 0.0,
    };
    let mut concurrent: u64 = 0;
    let mut concurrent_integral: f64 = 0.0;
    let mut last_time: u64 = 0;

    while let Some(Reverse((at, _, event))) = queue.pop() {
        if at >= total_cycles {
            break;
        }
        concurrent_integral += concurrent as f64 * (at - last_time) as f64;
        last_time = at;
        match event {
            CallEvent::Arrival => {
                stats.offered += 1;
                let rate = *rng.pick(&workload.ladder);
                let input = PortId(rng.index(ports) as u8);
                let output = PortId(rng.index(ports) as u8);
                match router.establish(ConnectionRequest {
                    input,
                    output,
                    class: QosClass::Cbr { rate },
                }) {
                    Ok(conn) => {
                        stats.admitted += 1;
                        concurrent += 1;
                        let holding = rng.exponential(workload.mean_holding).max(1.0) as u64;
                        let departs = at + holding;
                        queue.push(Reverse((departs, seq.next(), CallEvent::Departure(conn))));
                    }
                    Err(EstablishError::Admission(_)) => stats.blocked_bandwidth += 1,
                    Err(EstablishError::NoFreeInputVc | EstablishError::NoFreeOutputVc) => {
                        stats.blocked_vcs += 1;
                    }
                    Err(
                        e @ (EstablishError::InvalidPort { .. }
                        | EstablishError::Quarantined),
                    ) => unreachable!("standalone router, never quarantined: {e}"),
                }
                let gap = rng.exponential(1.0 / workload.arrival_rate).max(1.0) as u64;
                queue.push(Reverse((at + gap, seq.next(), CallEvent::Arrival)));
            }
            CallEvent::Departure(conn) => {
                router.teardown(conn).expect("departing calls are live");
                concurrent -= 1;
            }
        }
    }
    concurrent_integral += concurrent as f64 * (total_cycles - last_time) as f64;
    stats.carried_erlangs = concurrent_integral / total_cycles as f64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::paper_rate_ladder;
    use mmr_core::router::RouterConfig;

    fn workload(arrival_rate: f64, mean_holding: f64, seed: u64) -> CallWorkload {
        CallWorkload {
            arrival_rate,
            mean_holding,
            ladder: paper_rate_ladder().to_vec(),
            seed,
        }
    }

    #[test]
    fn light_load_admits_everything() {
        let mut router = RouterConfig::paper_default().seed(1).build();
        let w = workload(0.001, 2_000.0, 1); // ~2 erlangs on 8 ports
        let stats = run_calls(&mut router, &w, 400_000);
        assert!(stats.offered > 200, "enough arrivals: {}", stats.offered);
        assert_eq!(stats.blocking_probability(), 0.0, "{stats:?}");
        assert!((stats.carried_erlangs - w.offered_erlangs()).abs() < 1.0, "{stats:?}");
    }

    #[test]
    fn heavy_load_blocks_calls() {
        // Tiny router: one output pair, small VC pool.
        let mut router =
            RouterConfig::paper_default().ports(2).vcs_per_port(8).candidates(2).seed(2).build();
        let w = workload(0.05, 10_000.0, 2); // 500 erlangs of demand on 2 ports
        let stats = run_calls(&mut router, &w, 200_000);
        assert!(stats.blocking_probability() > 0.5, "{stats:?}");
        assert!(stats.admitted > 0, "some calls still fit: {stats:?}");
    }

    #[test]
    fn blocking_probability_is_monotone_in_load() {
        let mut last = -1.0;
        for (i, rate) in [0.002, 0.01, 0.05].into_iter().enumerate() {
            let mut router =
                RouterConfig::paper_default().vcs_per_port(32).seed(3 + i as u64).build();
            let stats = run_calls(&mut router, &workload(rate, 20_000.0, 3), 300_000);
            let p = stats.blocking_probability();
            assert!(p >= last - 0.02, "blocking roughly monotone: {p} after {last}");
            last = p;
        }
        assert!(last > 0.0, "the heaviest point must block");
    }

    #[test]
    fn departures_release_capacity() {
        // With short holding times, a stream of full-link calls keeps
        // succeeding because each departs before the next arrives.
        let mut router = RouterConfig::paper_default().ports(2).vcs_per_port(4).seed(4).build();
        let w = CallWorkload {
            arrival_rate: 0.001,
            mean_holding: 100.0,
            ladder: vec![Bandwidth::from_gbps(1.24)],
            seed: 4,
        };
        let stats = run_calls(&mut router, &w, 400_000);
        assert!(stats.offered > 200);
        assert!(
            stats.blocking_probability() < 0.2,
            "short full-link calls rarely collide: {stats:?}"
        );
    }

    #[test]
    fn stats_accounting_is_consistent() {
        let mut router = RouterConfig::paper_default().vcs_per_port(16).seed(5).build();
        let stats = run_calls(&mut router, &workload(0.02, 5_000.0, 5), 100_000);
        assert_eq!(
            stats.offered,
            stats.admitted + stats.blocked_bandwidth + stats.blocked_vcs,
            "{stats:?}"
        );
        assert!(stats.carried_erlangs > 0.0);
    }
}
