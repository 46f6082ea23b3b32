//! Regression test for iteration-order determinism in the stats path.
//!
//! The recorder's per-flow state is keyed by dense flow id and every
//! cross-flow reduction walks flows in ascending-id order, so the order in
//! which flows *first appear* in the event stream must not leak into any
//! reported aggregate. This pins that property: two runs over the same
//! per-flow delay sequences, interleaved differently (flow 9 discovered
//! first vs. flow 0 discovered first), must agree bit-for-bit on every
//! flow-derived metric. A switch to a hash-keyed container (or any
//! insertion-order-sensitive reduction) breaks this test.

use mmr_sim::stats::DelayJitterRecorder;
use mmr_sim::units::Cycles;

/// Per-flow delay sequences: flow id -> successive flit delays in cycles.
fn flow_traces() -> Vec<(u32, Vec<u64>)> {
    vec![
        (0, vec![3, 5, 4, 9]),
        (2, vec![7, 7, 7]),
        (5, vec![1, 12, 2, 2, 30]),
        (9, vec![4, 4, 8, 6]),
    ]
}

/// Feeds every trace into a recorder, visiting flows in `order` round-robin
/// style so first-appearance order differs between runs while each flow
/// still sees its own delays in sequence.
fn record_interleaved(order: &[usize]) -> DelayJitterRecorder {
    let traces = flow_traces();
    let mut cursors = vec![0usize; traces.len()];
    let mut r = DelayJitterRecorder::new();
    loop {
        let mut progressed = false;
        for &t in order {
            let (flow, delays) = &traces[t];
            if cursors[t] < delays.len() {
                r.record(*flow, Cycles(delays[cursors[t]]));
                cursors[t] += 1;
                progressed = true;
            }
        }
        if !progressed {
            return r;
        }
    }
}

#[test]
fn flow_metrics_ignore_flow_arrival_order() {
    let forward = record_interleaved(&[0, 1, 2, 3]);
    let reversed = record_interleaved(&[3, 2, 1, 0]);

    assert_eq!(forward.flows(), reversed.flows());
    assert_eq!(forward.flits(), reversed.flits());
    // Flow-weighted reductions walk flows in ascending id order, so they
    // must be bitwise identical, not merely approximately equal.
    assert_eq!(
        forward.mean_jitter_cycles().to_bits(),
        reversed.mean_jitter_cycles().to_bits(),
        "connection-weighted jitter depends on flow arrival order"
    );
    assert_eq!(
        forward.mean_jitter_cycles_flit_weighted().to_bits(),
        reversed.mean_jitter_cycles_flit_weighted().to_bits(),
        "flit-weighted jitter depends on flow arrival order"
    );
    for (flow, _) in flow_traces() {
        assert_eq!(
            forward.flow_jitter(flow).map(f64::to_bits),
            reversed.flow_jitter(flow).map(f64::to_bits),
            "per-flow jitter for flow {flow} depends on arrival order"
        );
    }
    // Order-insensitive pooled facts must also agree exactly.
    assert_eq!(forward.delay_tail(), reversed.delay_tail());
}

#[test]
fn identical_streams_are_bit_identical() {
    // Same interleaving twice: the whole recorder output, pooled Welford
    // mean included, must reproduce exactly.
    let a = record_interleaved(&[2, 0, 3, 1]);
    let b = record_interleaved(&[2, 0, 3, 1]);
    assert_eq!(a.mean_delay_cycles().to_bits(), b.mean_delay_cycles().to_bits());
    assert_eq!(a.mean_jitter_cycles().to_bits(), b.mean_jitter_cycles().to_bits());
    assert_eq!(a.delay_tail().is_some(), b.delay_tail().is_some());
}
