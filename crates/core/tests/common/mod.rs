//! Packets and edge-case bursts shared by the core property files, which
//! drive an `AqTable` against `aq_core::spec` through `Lockstep`.

use aq_netsim::ids::{EntityId, FlowId, NodeId};
use aq_netsim::packet::{Ecn, Packet, HEADER_BYTES};
use aq_netsim::time::Time;
use proptest::prelude::*;

/// Quiet time before a burst: at the slowest rate drawn (1 Mbit/s) it
/// drains 1.25 MB, more than any gap the files build, so the burst starts
/// from an empty gap.
pub const QUIET_NS: u64 = 10_000_000_000;

/// A packet of `size` bytes on the wire (at least the header).
pub fn pkt(size: u32, ect: bool) -> Packet {
    let payload = size - HEADER_BYTES;
    let mut p = Packet::datagram(
        FlowId(1),
        EntityId(1),
        NodeId(0),
        NodeId(1),
        payload,
        Time::ZERO,
    );
    if ect {
        p.ecn = Ecn::Capable;
    }
    p
}

/// Cut points, in thousandths, splitting a burst.
pub fn cuts() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..1000, 0..5)
}

/// Wire sizes of a zero-Δ burst whose running sum lands exactly on
/// `target` bytes (an AQ limit or ECN threshold of at least one header):
/// `target` split at `cuts`, pieces shorter than a header merged into the
/// next, then one header-sized packet more to cross it.
pub fn burst(target: u64, cuts: &[u32]) -> Vec<u32> {
    let header = u64::from(HEADER_BYTES);
    let mut points: Vec<u64> = cuts.iter().map(|&c| target * u64::from(c) / 1000).collect();
    points.push(target);
    points.sort_unstable();
    let mut sizes = Vec::new();
    let mut last = 0;
    for p in points {
        if p - last >= header {
            sizes.push(p - last);
            last = p;
        }
    }
    if let Some(tail) = sizes.last_mut() {
        *tail += target - last;
    }
    sizes.push(header);
    sizes
        .into_iter()
        .map(|s| u32::try_from(s).expect("burst sizes fit u32"))
        .collect()
}
