//! Algorithm 2 — the traffic-control framework.
//!
//! For every arriving packet the AQ first updates its A-Gap (Algorithm 1),
//! then:
//!
//! * if the gap exceeds the AQ limit, the packet is **dropped** and its size
//!   deducted from the gap (rate limiting, and the loss signal for
//!   drop-based CC);
//! * otherwise, for ECN-based CC the packet is **CE-marked** when the gap
//!   exceeds the virtual threshold;
//! * for delay-based CC the **virtual queuing delay** `A(k)/R` is
//!   accumulated onto the packet for the receiver to echo.

use crate::config::{AqInstance, CcPolicy};
use aq_netsim::packet::{Ecn, Packet};
use aq_netsim::time::Time;

/// What the AQ decided for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AqVerdict {
    /// Forward unchanged.
    Forward,
    /// Forward with a CE mark applied.
    ForwardMarked,
    /// Forward with `A(k)/R` added to the packet's virtual delay field.
    ForwardWithDelay {
        /// Nanoseconds added to the packet's accumulated virtual delay.
        vdelay_ns: u64,
    },
    /// Dropped: gap exceeded the AQ limit.
    Drop,
}

/// Run Algorithm 2 for one packet arrival against one AQ, mutating the
/// packet's ECN / virtual-delay fields according to the verdict. This is
/// the only implementation: [`AqTable::process`](crate::table::AqTable::process)
/// calls it on the row it stores.
pub fn process_packet(aq: &mut AqInstance, now: Time, pkt: &mut Packet) -> AqVerdict {
    aq.arrived_bytes += pkt.size as u64;
    let gap = aq.gap.on_packet(now, pkt.size);
    if gap > aq.cfg.limit_bytes {
        // Lines 2–4: the packet never enters the network, so remove its
        // contribution from the gap.
        aq.gap.deduct(pkt.size);
        aq.drops += 1;
        return AqVerdict::Drop;
    }
    // Algorithm 2's post-condition for the forward path: the gap of every
    // packet allowed through is within the AQ limit, and the drop branch
    // above restored the pre-arrival gap, so the limit can never be
    // exceeded by a forwarded packet's contribution.
    aq_netsim::invariant!(
        gap <= aq.cfg.limit_bytes,
        "forwarding with gap {gap} above limit {} (aq={:?})",
        aq.cfg.limit_bytes,
        aq.cfg.id,
    );
    // Gap telemetry covers forwarded packets only: the drop branch above
    // restored the pre-arrival gap, so observing here keeps the invariant
    // `max_gap_bytes <= limit_bytes` that reports and tests rely on.
    aq.gap_track.observe(gap);
    // Every forwarded packet carries the accumulated virtual queuing delay
    // A(k)/R regardless of the CC policy — delay-based CC consumes it as
    // feedback, and the testbed's Table-4 measurement reads it for every
    // algorithm ("we use the virtual queuing delay as the queuing delay
    // with AQ").
    let vd = aq.gap.virtual_delay().as_nanos();
    pkt.vdelay_ns = pkt.vdelay_ns.saturating_add(vd);
    match aq.cfg.cc {
        CcPolicy::DropBased => AqVerdict::Forward,
        CcPolicy::EcnBased { threshold_bytes } => {
            if gap > threshold_bytes as u64 && pkt.ecn.can_mark() {
                pkt.ecn = Ecn::CongestionExperienced;
                aq.marks += 1;
                AqVerdict::ForwardMarked
            } else {
                AqVerdict::Forward
            }
        }
        CcPolicy::DelayBased => AqVerdict::ForwardWithDelay { vdelay_ns: vd },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AqConfig;
    use aq_netsim::ids::{EntityId, FlowId, NodeId};
    use aq_netsim::packet::AqTag;
    use aq_netsim::time::Rate;

    fn inst(cc: CcPolicy, limit: u64) -> AqInstance {
        AqInstance::new(AqConfig {
            id: AqTag(1),
            rate: Rate::from_gbps(1),
            limit_bytes: limit,
            cc,
        })
    }

    fn pkt(capable: bool) -> Packet {
        let mut p = Packet::data(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            0,
            1000,
            false,
            Time::ZERO,
        );
        if capable {
            p.ecn = Ecn::Capable;
        }
        p
    }

    #[test]
    fn drops_when_gap_exceeds_limit_and_deducts() {
        let mut aq = inst(CcPolicy::DropBased, 2000);
        let mut p = pkt(false);
        // 1060-byte packets back-to-back at t=0: gaps 1060, 2120 (> 2000).
        assert_eq!(
            process_packet(&mut aq, Time::ZERO, &mut p),
            AqVerdict::Forward
        );
        assert_eq!(
            process_packet(&mut aq, Time::ZERO, &mut p.clone()),
            AqVerdict::Drop
        );
        assert_eq!(aq.drops, 1);
        // Dropped packet's bytes were removed: gap back to 1060.
        assert_eq!(aq.gap.bytes(), 1060);
    }

    #[test]
    fn ecn_marks_above_virtual_threshold() {
        let mut aq = inst(
            CcPolicy::EcnBased {
                threshold_bytes: 1500,
            },
            1_000_000,
        );
        let mut a = pkt(true);
        let mut b = pkt(true);
        assert_eq!(
            process_packet(&mut aq, Time::ZERO, &mut a),
            AqVerdict::Forward
        );
        assert_eq!(
            process_packet(&mut aq, Time::ZERO, &mut b),
            AqVerdict::ForwardMarked
        );
        assert!(b.ecn.is_marked());
        assert_eq!(aq.marks, 1);
    }

    #[test]
    fn ecn_never_marks_incapable_traffic() {
        let mut aq = inst(CcPolicy::EcnBased { threshold_bytes: 0 }, 1_000_000);
        let mut p = pkt(false);
        assert_eq!(
            process_packet(&mut aq, Time::ZERO, &mut p),
            AqVerdict::Forward
        );
        assert!(!p.ecn.is_marked());
    }

    #[test]
    fn delay_policy_accumulates_virtual_delay() {
        // 1 Gbps; after a 1060-byte arrival the gap is 1060 B = 8480 bits
        // -> 8480 ns of virtual delay.
        let mut aq = inst(CcPolicy::DelayBased, 1_000_000);
        let mut p = pkt(false);
        p.vdelay_ns = 100;
        match process_packet(&mut aq, Time::ZERO, &mut p) {
            AqVerdict::ForwardWithDelay { vdelay_ns } => assert_eq!(vdelay_ns, 8480),
            v => panic!("unexpected verdict {v:?}"),
        }
        assert_eq!(p.vdelay_ns, 8580); // accumulated onto prior hops
    }

    #[test]
    fn arrived_bytes_counts_demand_including_drops() {
        let mut aq = inst(CcPolicy::DropBased, 500);
        let mut p = pkt(false);
        process_packet(&mut aq, Time::ZERO, &mut p); // dropped (1060 > 500)
        assert_eq!(aq.arrived_bytes, 1060);
    }
}
