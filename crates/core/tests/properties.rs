//! Property tests over the router core invariants.

use mmr_core::arbiter::ArbiterKind;
use mmr_core::conn::{ConnectionRequest, QosClass};
use mmr_core::ids::{ConnectionId, PortId, VcIndex};
use mmr_core::router::{EstablishError, RouterConfig};
use mmr_core::switchsched::is_valid_matching;
use mmr_core::vcm::VirtualChannelMemory;
use mmr_core::{Candidate, Flit, ServicePhase, SwitchScheduler};
use mmr_sim::{Bandwidth, Cycles, SeededRng};
use proptest::prelude::*;

/// Arbitrary candidate lists for a 8×8 switch.
fn candidate_lists() -> impl Strategy<Value = Vec<Vec<Candidate>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..8, 0u16..32, 0.0f64..100.0), 0..10),
        8,
    )
    .prop_map(|per_input| {
        per_input
            .into_iter()
            .enumerate()
            .map(|(i, cands)| {
                let mut seen = std::collections::BTreeSet::new();
                cands
                    .into_iter()
                    .filter(|(_, vc, _)| seen.insert(*vc))
                    .map(|(out, vc, prio)| Candidate {
                        input: PortId(i as u8),
                        vc: VcIndex(vc),
                        output: PortId(out),
                        conn: ConnectionId(u32::from(vc)),
                        phase: ServicePhase::CbrGuaranteed,
                        priority: prio,
                    })
                    .collect()
            })
            .collect()
    })
}

fn arbiter_kinds() -> impl Strategy<Value = ArbiterKind> {
    prop_oneof![
        Just(ArbiterKind::FixedPriority),
        Just(ArbiterKind::BiasedPriority),
        Just(ArbiterKind::RoundRobin),
        Just(ArbiterKind::Autonet { iterations: 4 }),
        Just(ArbiterKind::Islip { iterations: 4 }),
    ]
}

proptest! {
    /// Every non-perfect scheme produces a valid one-to-one matching that
    /// only uses offered candidates.
    #[test]
    fn matchings_are_valid((lists, kind, seed) in (candidate_lists(), arbiter_kinds(), any::<u64>())) {
        let mut sched = SwitchScheduler::new(kind, 8);
        let mut rng = SeededRng::new(seed);
        let pairs = sched.schedule(&lists, &[false; 8], &mut rng);
        prop_assert!(is_valid_matching(&pairs, 8, false));
        for p in &pairs {
            prop_assert!(lists[p.input.index()]
                .iter()
                .any(|c| c.vc == p.vc && c.output == p.output));
        }
    }

    /// Blocked outputs are never matched by any scheme.
    #[test]
    fn blocked_outputs_never_matched(
        (lists, kind, seed, blocked_mask) in
            (candidate_lists(), arbiter_kinds(), any::<u64>(), any::<u8>())
    ) {
        let blocked: Vec<bool> = (0..8).map(|i| blocked_mask & (1 << i) != 0).collect();
        let mut sched = SwitchScheduler::new(kind, 8);
        let mut rng = SeededRng::new(seed);
        let pairs = sched.schedule(&lists, &blocked, &mut rng);
        for p in &pairs {
            prop_assert!(!blocked[p.output.index()], "matched a blocked output");
        }
    }

    /// Priority matching is *maximal*: no unmatched input holds a candidate
    /// for an unmatched output.
    #[test]
    fn priority_matching_is_maximal((lists, seed) in (candidate_lists(), any::<u64>())) {
        let mut sched = SwitchScheduler::new(ArbiterKind::BiasedPriority, 8);
        let mut rng = SeededRng::new(seed);
        let pairs = sched.schedule(&lists, &[false; 8], &mut rng);
        let mut in_used = [false; 8];
        let mut out_used = [false; 8];
        for p in &pairs {
            in_used[p.input.index()] = true;
            out_used[p.output.index()] = true;
        }
        for (i, list) in lists.iter().enumerate() {
            if in_used[i] {
                continue;
            }
            for c in list {
                prop_assert!(
                    out_used[c.output.index()],
                    "input {i} could still send to output {}",
                    c.output.index()
                );
            }
        }
    }

    /// The VCM never loses or duplicates flits under random push/pop
    /// sequences.
    #[test]
    fn vcm_conserves_flits(ops in prop::collection::vec((0u16..8, any::<bool>()), 1..200)) {
        let mut vcm = VirtualChannelMemory::new(8, 4, 4);
        let mut model: Vec<std::collections::VecDeque<u64>> =
            (0..8).map(|_| std::collections::VecDeque::new()).collect();
        let mut seq = 0u64;
        for (t, (vc, is_push)) in ops.into_iter().enumerate() {
            let now = Cycles(t as u64);
            if is_push {
                let flit = Flit::data(ConnectionId(0), seq, now);
                match vcm.push(VcIndex(vc), flit, now) {
                    Ok(()) => {
                        model[usize::from(vc)].push_back(seq);
                        seq += 1;
                    }
                    Err(_) => prop_assert_eq!(model[usize::from(vc)].len(), 4),
                }
            } else {
                let got = vcm.pop(VcIndex(vc), now).map(|f| f.seq);
                prop_assert_eq!(got, model[usize::from(vc)].pop_front());
            }
        }
        let total_model: usize = model.iter().map(std::collections::VecDeque::len).sum();
        prop_assert_eq!(vcm.total_occupancy(), total_model);
        for vc in 0..8u16 {
            prop_assert_eq!(
                vcm.flits_available().get(usize::from(vc)),
                !model[usize::from(vc)].is_empty()
            );
        }
    }

    /// Admission control never over-commits a link: the sum of admitted CBR
    /// rates stays at or below the link rate, whatever the request order.
    #[test]
    fn admission_never_overcommits(rates in prop::collection::vec(1.0f64..600.0, 1..40)) {
        let mut router = RouterConfig::paper_default()
            .ports(2)
            .vcs_per_port(64)
            .seed(1)
            .build();
        let mut admitted = Bandwidth::ZERO;
        for mbps in rates {
            let rate = Bandwidth::from_mbps(mbps);
            match router.establish(ConnectionRequest {
                input: PortId(0),
                output: PortId(1),
                class: QosClass::Cbr { rate },
            }) {
                Ok(_) => admitted += rate,
                Err(EstablishError::Admission(_)) => {
                    prop_assert!(
                        admitted.bits_per_sec() + rate.bits_per_sec() > 1.24e9 * 0.999,
                        "rejected a request that would have fit: {admitted} + {rate}"
                    );
                }
                Err(EstablishError::NoFreeInputVc | EstablishError::NoFreeOutputVc) => {}
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
        prop_assert!(admitted.bits_per_sec() <= 1.24e9 * (1.0 + 1e-9));
    }

    /// Router steps conserve flits: injected = transmitted + still queued,
    /// for every arbitration scheme.
    #[test]
    fn router_conserves_flits(
        (kind, seed, pattern) in
            (arbiter_kinds(), any::<u64>(), prop::collection::vec(0usize..4, 10..120))
    ) {
        let mut router = RouterConfig::paper_default()
            .ports(4)
            .vcs_per_port(8)
            .candidates(4)
            .arbiter(kind)
            .seed(seed)
            .build();
        let conns: Vec<_> = (0..4u8)
            .map(|i| {
                router
                    .establish(ConnectionRequest {
                        input: PortId(i),
                        output: PortId((i + 1) % 4),
                        class: QosClass::Cbr { rate: Bandwidth::from_mbps(310.0) },
                    })
                    .expect("admits")
            })
            .collect();
        let mut injected = 0u64;
        let mut transmitted = 0u64;
        for (cycle, pick) in pattern.iter().enumerate() {
            let now = Cycles(cycle as u64);
            if router.can_inject(conns[*pick]) {
                router.inject(conns[*pick], now).expect("checked");
                injected += 1;
            }
            transmitted += router.step(now).transmitted.len() as u64;
        }
        // Drain.
        for cycle in pattern.len()..pattern.len() + 50 {
            transmitted += router.step(Cycles(cycle as u64)).transmitted.len() as u64;
        }
        prop_assert_eq!(injected, transmitted, "all injected flits eventually leave");
    }
}
