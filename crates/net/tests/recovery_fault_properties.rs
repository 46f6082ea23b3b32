//! Property tests over the recovery policy's backoff schedule and the
//! fault-plan normalization — gaps called out by the conformance-harness
//! work (the harness leans on both being exactly right).

use mmr_net::{FaultAction, FaultEvent, FaultPlan, NodeId, RecoveryPolicy};
use mmr_core::PortId;
use mmr_sim::Cycles;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The backoff schedule is monotonically non-decreasing in the attempt
    /// number: a later retry never waits less than an earlier one.
    #[test]
    fn backoff_is_monotonic(
        base in 0u64..1_000,
        max in 0u64..100_000,
        attempts in 2u32..40
    ) {
        let policy = RecoveryPolicy {
            base_backoff: Cycles(base),
            max_backoff: Cycles(max),
            ..RecoveryPolicy::default()
        };
        for a in 1..attempts {
            let earlier = policy.backoff_for(a);
            let later = policy.backoff_for(a + 1);
            prop_assert!(
                later >= earlier,
                "attempt {a}: {earlier:?} then {:?} shrank", later
            );
        }
    }

    /// Every backoff is bounded by `max_backoff`, the first attempt is
    /// immediate, and the second waits exactly the base backoff (when it
    /// fits the cap) — including at shift counts that would overflow a
    /// `u64` without saturation.
    #[test]
    fn backoff_is_bounded_and_anchored(
        base in 0u64..1_000,
        max in 0u64..100_000,
        attempt in 0u32..200
    ) {
        let policy = RecoveryPolicy {
            base_backoff: Cycles(base),
            max_backoff: Cycles(max),
            ..RecoveryPolicy::default()
        };
        prop_assert_eq!(policy.backoff_for(0), Cycles::ZERO);
        prop_assert_eq!(policy.backoff_for(1), Cycles::ZERO);
        prop_assert_eq!(policy.backoff_for(2), Cycles(base.min(max)));
        prop_assert!(policy.backoff_for(attempt) <= Cycles(max));
    }

    /// `FaultPlan::normalized` is idempotent: normalizing a normalized
    /// plan is a no-op, for any well-formed event soup.
    #[test]
    fn normalization_is_idempotent(
        events in prop::collection::vec(
            (0u64..10_000, 0u16..16, 0u8..8, 0u8..4),
            0..40
        )
    ) {
        let mut plan = Vec::new();
        let mut failed: Vec<(u16, u8)> = Vec::new();
        for (at, node, port, kind) in events {
            let action = match kind {
                // A plan failing the same wire twice without a repair is
                // rejected by normalization; keep generated plans
                // well-formed the same way the scenario generator does.
                0 if !failed.contains(&(node, port)) => {
                    failed.push((node, port));
                    FaultAction::Fail
                }
                1 => FaultAction::CorruptFlit,
                2 => FaultAction::DropFlit,
                _ => continue,
            };
            let (at, node, port) = (Cycles(at), NodeId(node), PortId(port));
            plan.push(FaultEvent { at, action, node, port });
        }
        let plan: FaultPlan = plan.into_iter().collect();
        let once = plan.normalized().expect("generated plans are well-formed");
        let twice = once.clone().normalized().expect("normalized plans stay well-formed");
        let a: Vec<_> = once.events().copied().collect();
        let b: Vec<_> = twice.events().copied().collect();
        prop_assert_eq!(a, b);
    }
}
