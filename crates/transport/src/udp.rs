//! Unreactive UDP senders: paced constant-bit-rate datagram sources.
//!
//! These model the paper's "aggressive application" — a sender that
//! ignores all congestion signals and pushes at a configured rate
//! (typically the link capacity), starving TCP through a shared physical
//! queue but held to its allocation by an AQ.

use crate::flow::{FlowKind, FlowSpec};
use aq_netsim::node::HostCtx;
use aq_netsim::packet::Packet;
use aq_netsim::time::{Duration, Rate};

/// Sender-side state of one paced UDP flow.
pub struct UdpSender {
    /// The flow description.
    pub spec: FlowSpec,
    rate: Rate,
    remaining: Option<u64>,
    /// Datagrams sent.
    pub sent: u64,
    /// Whether a finite flow has sent all its bytes.
    pub finished: bool,
}

impl UdpSender {
    /// Build from a UDP flow spec.
    ///
    /// # Panics
    /// Panics if the spec is TCP.
    pub fn new(spec: FlowSpec) -> UdpSender {
        let FlowKind::Udp { rate } = spec.kind else {
            panic!("UdpSender requires a UDP spec");
        };
        UdpSender {
            rate,
            remaining: spec.bytes,
            sent: 0,
            finished: false,
            spec,
        }
    }

    /// Pacing interval between datagrams of the configured size.
    pub fn interval(&self) -> Duration {
        self.rate
            .transmit_time(self.spec.mss as u64 + aq_netsim::packet::HEADER_BYTES as u64)
    }

    /// Emit one datagram and report when the next should go out (`None`
    /// when the flow is done).
    pub(crate) fn send_one(&mut self, ctx: &mut HostCtx<'_>) -> Option<Duration> {
        if self.finished {
            return None;
        }
        let payload = match self.remaining {
            None => self.spec.mss,
            Some(0) => {
                self.finished = true;
                return None;
            }
            Some(rem) => rem.min(self.spec.mss as u64) as u32,
        };
        if let Some(rem) = &mut self.remaining {
            *rem -= payload as u64;
        }
        let mut pkt = Packet::datagram(
            self.spec.flow,
            self.spec.entity,
            self.spec.src,
            self.spec.dst,
            payload,
            ctx.now,
        );
        pkt.aq_ingress = self.spec.aq_ingress;
        pkt.aq_egress = self.spec.aq_egress;
        ctx.send(pkt);
        self.sent += 1;
        if self.remaining == Some(0) {
            self.finished = true;
            return None;
        }
        Some(self.interval())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_netsim::ids::{EntityId, FlowId, NodeId};
    use aq_netsim::stats::StatsHub;
    use aq_netsim::time::Time;

    fn spec(rate_gbps: u64, bytes: Option<u64>) -> FlowSpec {
        let mut s = FlowSpec::long_udp(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            Rate::from_gbps(rate_gbps),
        );
        s.bytes = bytes;
        s
    }

    #[test]
    fn pacing_matches_rate() {
        let u = UdpSender::new(spec(10, None));
        // 1060 bytes at 10 Gbps = 848 ns per datagram.
        assert_eq!(u.interval(), Duration::from_nanos(848));
    }

    #[test]
    fn long_lived_flow_keeps_going() {
        let mut u = UdpSender::new(spec(10, None));
        let mut stats = StatsHub::new();
        for i in 0..100 {
            let mut ctx = HostCtx::new(Time::from_nanos(i * 848), NodeId(0), &mut stats);
            assert!(u.send_one(&mut ctx).is_some());
            assert_eq!(ctx.take_sends().len(), 1);
        }
        assert_eq!(u.sent, 100);
    }

    #[test]
    fn finite_flow_stops_after_bytes() {
        let mut u = UdpSender::new(spec(10, Some(2500)));
        let mut stats = StatsHub::new();
        let mut payloads = Vec::new();
        loop {
            let mut ctx = HostCtx::new(Time::ZERO, NodeId(0), &mut stats);
            let more = u.send_one(&mut ctx);
            payloads.extend(ctx.take_sends().iter().map(|p| p.payload()));
            if more.is_none() {
                break;
            }
        }
        assert_eq!(payloads, vec![1000, 1000, 500]);
        assert!(u.finished);
    }
}
