//! Property-based tests for the A-Gap streaming algorithm — the paper's
//! central invariants must hold for *any* packet trace. Theorem 3.2's
//! recurrence and Algorithm 2's verdicts are checked against
//! [`aq_core::spec`] in `prop_invariants.rs`, not restated here.

use aq_core::gap::{AGap, DGap};
use aq_core::{AqConfig, AqInstance, CcPolicy, PackedAq};
use aq_netsim::packet::AqTag;
use aq_netsim::time::{Rate, Time};
use proptest::prelude::*;

/// Arbitrary packet trace: (inter-arrival ns, size bytes).
fn trace_strategy() -> impl Strategy<Value = Vec<(u64, u32)>> {
    prop::collection::vec((0u64..1_000_000, 40u32..9000), 1..200)
}

fn rate_strategy() -> impl Strategy<Value = u64> {
    // 1 Mbps .. 400 Gbps
    1_000_000u64..400_000_000_000
}

proptest! {
    /// Draining longer before an arrival never increases the gap.
    #[test]
    fn drain_is_monotone_in_time(
        trace in trace_strategy(),
        bps in rate_strategy(),
        extra_ns in 1u64..1_000_000,
    ) {
        let mut a = AGap::new(Rate::from_bps(bps));
        let mut b = AGap::new(Rate::from_bps(bps));
        let mut t = 0u64;
        for (gap_ns, size) in &trace {
            t += gap_ns;
            a.on_packet(Time::from_nanos(t), *size);
            b.on_packet(Time::from_nanos(t), *size);
        }
        let va = a.on_packet(Time::from_nanos(t + 1), 100);
        let vb = b.on_packet(Time::from_nanos(t + 1 + extra_ns), 100);
        prop_assert!(vb <= va, "longer idle ({extra_ns} ns extra) must not grow the gap");
    }

    /// The A-Gap never exceeds the strawman's positive part on the same
    /// backlogged trace (surplus can only *delay* D's positivity).
    #[test]
    fn agap_at_least_strawman(
        trace in trace_strategy(),
        bps in rate_strategy(),
    ) {
        let mut a = AGap::new(Rate::from_bps(bps));
        let mut d = DGap::new(Rate::from_bps(bps));
        let mut t = 0u64;
        for (gap_ns, size) in trace {
            t += gap_ns;
            let va = a.on_packet(Time::from_nanos(t), size) as i64;
            let vd = d.on_packet(Time::from_nanos(t), size);
            prop_assert!(va >= vd, "A {va} must be >= D {vd}");
        }
    }

    /// The 15-byte register encoding quantizes but never corrupts: rate
    /// within 1 Mbps, limit within 1 KB (below saturation), policy exact.
    #[test]
    fn packed_encoding_quantization_bounds(
        mbps in 1u64..16_000_000,
        limit_kb in 0u64..65_535,
        policy_sel in 0u8..3,
    ) {
        let cc = match policy_sel {
            0 => CcPolicy::DropBased,
            1 => CcPolicy::EcnBased { threshold_bytes: 50_000 },
            _ => CcPolicy::DelayBased,
        };
        let inst = AqInstance::new(AqConfig {
            id: AqTag(42),
            rate: Rate::from_mbps(mbps),
            limit_bytes: limit_kb * 1000,
            cc,
        });
        let (decoded, _, _) = PackedAq::encode(&inst).decode();
        prop_assert_eq!(decoded.id, AqTag(42));
        prop_assert_eq!(decoded.rate.as_bps(), mbps * 1_000_000);
        prop_assert_eq!(decoded.limit_bytes, limit_kb * 1000);
        match (cc, decoded.cc) {
            (CcPolicy::DropBased, CcPolicy::DropBased) => {}
            (CcPolicy::DelayBased, CcPolicy::DelayBased) => {}
            (CcPolicy::EcnBased { threshold_bytes: a }, CcPolicy::EcnBased { threshold_bytes: b }) => {
                prop_assert!((a as i64 - b as i64).unsigned_abs() < 25_000);
            }
            (a, b) => prop_assert!(false, "policy changed: {a:?} -> {b:?}"),
        }
    }
}
