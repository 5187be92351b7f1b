//! Property tests for the baseline substrates: a token bucket must never
//! over-deliver, and its `ready_time` must never promise tokens it lacks.

use aq_baselines::TokenBucket;
use aq_netsim::time::{Rate, Time, NS_PER_SEC};
use proptest::prelude::*;

proptest! {
    /// Over any schedule of consume attempts, the bucket releases at most
    /// `burst + rate·elapsed` bytes — the defining shaper property.
    #[test]
    fn token_bucket_never_over_delivers(
        attempts in prop::collection::vec((0u64..100_000, 40u64..9000), 1..300),
        bps in 1_000_000u64..100_000_000_000,
        burst in 1_000u64..1_000_000,
    ) {
        let mut b = TokenBucket::new(Rate::from_bps(bps), burst);
        let mut t = 0u64;
        let mut delivered = 0u64;
        for (gap_ns, size) in attempts {
            t += gap_ns;
            if b.try_consume(Time::from_nanos(t), size) {
                delivered += size;
            }
        }
        let budget = burst
            + (t as u128 * bps as u128 / (8 * NS_PER_SEC as u128)) as u64
            + 1;
        prop_assert!(
            delivered <= budget,
            "delivered {delivered} > budget {budget}"
        );
    }

    /// `ready_time` never lies: consuming at the reported instant succeeds.
    #[test]
    fn token_bucket_ready_time_is_sufficient(
        bps in 1_000_000u64..100_000_000_000,
        burst in 1_000u64..100_000,
        size in 40u64..9_000,
        drain in 0u64..50_000,
    ) {
        let mut b = TokenBucket::new(Rate::from_bps(bps), burst);
        // Drain some arbitrary amount first.
        let _ = b.try_consume(Time::ZERO, drain.min(burst));
        let at = b.ready_time(Time::ZERO, size);
        if at < Time::MAX {
            prop_assert!(b.try_consume(at, size), "promised tokens at {at}");
        }
    }
}
