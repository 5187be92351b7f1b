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
pub(crate) fn process_packet(aq: &mut AqInstance, now: Time, pkt: &mut Packet) -> AqVerdict {
    aq.arrived_bytes += pkt.size as u64;
    let gap = aq.gap.on_packet(now, pkt.size);
    if gap > aq.cfg.limit_bytes {
        // Lines 2–4: the packet never enters the network, so remove its
        // contribution from the gap.
        aq.gap.deduct(pkt.size);
        aq.drops += 1;
        return AqVerdict::Drop;
    }
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
