//! The per-host transport endpoint.
//!
//! A [`TransportHost`] is the [`HostApp`] installed on every end host. It
//! owns the host's sending flows (TCP senders and paced UDP sources),
//! creates receiver state on demand for incoming flows, schedules flow
//! start times, demultiplexes ACKs, and manages retransmission and pacing
//! timers on top of the simulator's one-shot timer facility.

use crate::flow::{FlowKind, FlowSpec};
use crate::receiver::ReceiverFlow;
use crate::sender::SenderFlow;
use crate::udp::UdpSender;
use aq_netsim::ids::{FlowId, NodeId};
use aq_netsim::node::{HostApp, HostCtx};
use aq_netsim::packet::{Packet, TransportHeader};
use std::collections::BTreeMap;

const TOKEN_START: u64 = 1 << 56;
const TOKEN_RTO: u64 = 2 << 56;
const TOKEN_PACE: u64 = 3 << 56;
const TOKEN_ARG: u64 = (1 << 56) - 1;

/// The transport endpoint app for one host.
pub struct TransportHost {
    node: NodeId,
    scheduled: Vec<Option<FlowSpec>>,
    /// Closed-loop chains: when the key flow completes, start these
    /// scheduled indices.
    chains: BTreeMap<FlowId, Vec<usize>>,
    senders: BTreeMap<FlowId, SenderFlow>,
    udp: BTreeMap<FlowId, UdpSender>,
    receivers: BTreeMap<FlowId, ReceiverFlow>,
}

impl TransportHost {
    /// An endpoint for `node` with no flows.
    pub fn new(node: NodeId) -> TransportHost {
        TransportHost {
            node,
            scheduled: Vec::new(),
            chains: BTreeMap::new(),
            senders: BTreeMap::new(),
            udp: BTreeMap::new(),
            receivers: BTreeMap::new(),
        }
    }

    /// Schedule a flow this host will send. Must be called before the
    /// simulation starts.
    ///
    /// # Panics
    /// Panics if the spec's source is a different node.
    pub fn add_flow(&mut self, spec: FlowSpec) {
        assert_eq!(
            spec.src, self.node,
            "flow {} sources from {} but was added to {}",
            spec.flow, spec.src, self.node
        );
        let idx = self.scheduled.len();
        if let Some(prev) = spec.after {
            self.chains.entry(prev).or_default().push(idx);
        }
        self.scheduled.push(Some(spec));
    }

    /// Sender state of a flow this host originates (for post-run
    /// inspection).
    pub fn sender(&self, flow: FlowId) -> Option<&SenderFlow> {
        self.senders.get(&flow)
    }

    /// Receiver state of a flow this host terminates.
    pub fn receiver(&self, flow: FlowId) -> Option<&ReceiverFlow> {
        self.receivers.get(&flow)
    }

    /// All active sender flow-ids (diagnostics).
    pub fn sender_flows(&self) -> impl Iterator<Item = &FlowId> {
        self.senders.keys()
    }

    fn arm_rto_if_needed(ctx: &mut HostCtx<'_>, s: &mut SenderFlow, flow: FlowId) {
        if let Some(d) = s.rto_deadline {
            let need = match s.armed_rto {
                None => true,
                Some(armed) => d < armed,
            };
            if need {
                ctx.arm_timer_at(d, TOKEN_RTO | flow.0 as u64);
                s.armed_rto = Some(d);
            }
        }
    }

    /// Launch the flows chained behind a just-completed one.
    fn start_chained(&mut self, ctx: &mut HostCtx<'_>, done: FlowId) {
        let Some(idxs) = self.chains.remove(&done) else {
            return;
        };
        for idx in idxs {
            self.start_flow(ctx, idx);
        }
    }

    fn start_flow(&mut self, ctx: &mut HostCtx<'_>, idx: usize) {
        let Some(spec) = self.scheduled[idx].take() else {
            return;
        };
        ctx.stats
            .register_flow(spec.flow, spec.entity, spec.bytes.unwrap_or(0), ctx.now);
        let flow = spec.flow;
        match spec.kind {
            FlowKind::Tcp(_) => {
                let mut s = SenderFlow::new(spec);
                s.start(ctx);
                Self::arm_rto_if_needed(ctx, &mut s, flow);
                self.senders.insert(flow, s);
            }
            FlowKind::Udp { .. } => {
                let mut u = UdpSender::new(spec);
                if let Some(next) = u.send_one(ctx) {
                    ctx.arm_timer_in(next, TOKEN_PACE | flow.0 as u64);
                }
                self.udp.insert(flow, u);
            }
        }
    }
}

impl HostApp for TransportHost {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for (idx, spec) in self.scheduled.iter().enumerate() {
            let spec = spec.as_ref().expect("not yet started");
            if spec.after.is_none() {
                ctx.arm_timer_at(spec.start, TOKEN_START | idx as u64);
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: Packet) {
        match pkt.transport {
            TransportHeader::Ack {
                cum_ack,
                sack_hi,
                this_seq,
                ecn_echo,
                vdelay_echo_ns,
                ts_echo,
                fin_acked,
            } => {
                let finished = if let Some(s) = self.senders.get_mut(&pkt.flow) {
                    s.on_ack(
                        ctx,
                        cum_ack,
                        sack_hi,
                        this_seq,
                        ecn_echo,
                        vdelay_echo_ns,
                        ts_echo,
                        fin_acked,
                    );
                    Self::arm_rto_if_needed(ctx, s, pkt.flow);
                    s.finished
                } else {
                    false
                };
                if finished {
                    self.start_chained(ctx, pkt.flow);
                }
            }
            TransportHeader::Data { .. } => {
                let r = self
                    .receivers
                    .entry(pkt.flow)
                    .or_insert_with(|| ReceiverFlow::new(pkt.flow));
                r.on_data(ctx, &pkt);
            }
            TransportHeader::Datagram => {
                // Delivery stats were recorded by the simulator; datagrams
                // need no receiver state.
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        let arg = token & TOKEN_ARG;
        match token & !TOKEN_ARG {
            TOKEN_START => self.start_flow(ctx, arg as usize),
            TOKEN_RTO => {
                let flow = FlowId(arg as u32);
                if let Some(s) = self.senders.get_mut(&flow) {
                    s.armed_rto = None;
                    if let Some(d) = s.rto_deadline {
                        if d <= ctx.now && !s.finished {
                            s.on_rto(ctx);
                        }
                    }
                    Self::arm_rto_if_needed(ctx, s, flow);
                }
            }
            TOKEN_PACE => {
                let flow = FlowId(arg as u32);
                let finished = if let Some(u) = self.udp.get_mut(&flow) {
                    match u.send_one(ctx) {
                        Some(next) => {
                            ctx.arm_timer_in(next, TOKEN_PACE | flow.0 as u64);
                            false
                        }
                        None => u.finished,
                    }
                } else {
                    false
                };
                if finished {
                    self.start_chained(ctx, flow);
                }
            }
            other => panic!("unknown transport timer token {other:#x}"),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CcAlgo;
    use aq_netsim::ids::EntityId;
    use aq_netsim::stats::StatsHub;
    use aq_netsim::time::{Rate, Time};

    #[test]
    fn on_start_arms_one_timer_per_flow() {
        let mut h = TransportHost::new(NodeId(0));
        h.add_flow(FlowSpec::long_tcp(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            CcAlgo::Cubic,
        ));
        let mut spec2 =
            FlowSpec::long_tcp(FlowId(2), EntityId(1), NodeId(0), NodeId(1), CcAlgo::Cubic);
        spec2.start = Time::from_millis(5);
        h.add_flow(spec2);
        let mut stats = StatsHub::new();
        let mut ctx = HostCtx::new(Time::ZERO, NodeId(0), &mut stats);
        h.on_start(&mut ctx);
        let timers = ctx.take_timers();
        assert_eq!(timers.len(), 2);
        assert_eq!(timers[0].0, Time::ZERO);
        assert_eq!(timers[1].0, Time::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "sources from")]
    fn wrong_source_is_rejected() {
        let mut h = TransportHost::new(NodeId(0));
        h.add_flow(FlowSpec::long_tcp(
            FlowId(1),
            EntityId(1),
            NodeId(5),
            NodeId(1),
            CcAlgo::Cubic,
        ));
    }

    #[test]
    fn start_timer_launches_tcp_flow_and_registers_it() {
        let mut h = TransportHost::new(NodeId(0));
        h.add_flow(FlowSpec::sized_tcp(
            FlowId(1),
            EntityId(2),
            NodeId(0),
            NodeId(1),
            CcAlgo::NewReno,
            5000,
            Time::ZERO,
        ));
        let mut stats = StatsHub::new();
        let mut ctx = HostCtx::new(Time::ZERO, NodeId(0), &mut stats);
        h.on_timer(&mut ctx, TOKEN_START);
        let sends = ctx.take_sends();
        assert_eq!(sends.len(), 5); // min(IW10, 5 segments)
        assert!(stats.flow(FlowId(1)).is_some());
        assert!(h.sender(FlowId(1)).is_some());
    }

    #[test]
    fn udp_flow_paces_itself() {
        let mut h = TransportHost::new(NodeId(0));
        h.add_flow(FlowSpec::long_udp(
            FlowId(3),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            Rate::from_gbps(10),
        ));
        let mut stats = StatsHub::new();
        let mut ctx = HostCtx::new(Time::ZERO, NodeId(0), &mut stats);
        h.on_timer(&mut ctx, TOKEN_START);
        assert_eq!(ctx.take_sends().len(), 1);
        let timers = ctx.take_timers();
        assert_eq!(timers.len(), 1);
        assert_eq!(timers[0].1, TOKEN_PACE | 3);
        // Fire the pace timer: another datagram + re-arm.
        let mut ctx = HostCtx::new(timers[0].0, NodeId(0), &mut stats);
        h.on_timer(&mut ctx, TOKEN_PACE | 3);
        assert_eq!(ctx.take_sends().len(), 1);
        assert_eq!(ctx.take_timers().len(), 1);
    }

    #[test]
    fn data_packets_create_receiver_and_produce_acks() {
        let mut h = TransportHost::new(NodeId(1));
        let mut stats = StatsHub::new();
        let mut ctx = HostCtx::new(Time::from_micros(5), NodeId(1), &mut stats);
        let data = Packet::data(
            FlowId(9),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            0,
            1000,
            false,
            Time::ZERO,
        );
        h.on_packet(&mut ctx, data);
        let acks = ctx.take_sends();
        assert_eq!(acks.len(), 1);
        assert!(acks[0].is_ack());
        assert!(h.receiver(FlowId(9)).is_some());
    }

    #[test]
    fn stale_rto_timer_is_harmless() {
        let mut h = TransportHost::new(NodeId(0));
        h.add_flow(FlowSpec::long_tcp(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            CcAlgo::NewReno,
        ));
        let mut stats = StatsHub::new();
        let mut ctx = HostCtx::new(Time::ZERO, NodeId(0), &mut stats);
        h.on_timer(&mut ctx, TOKEN_START);
        ctx.take_sends();
        // Fire an RTO timer long before the deadline: nothing happens.
        let mut ctx = HostCtx::new(Time::from_micros(1), NodeId(0), &mut stats);
        h.on_timer(&mut ctx, TOKEN_RTO | 1);
        assert!(ctx.take_sends().is_empty());
        assert_eq!(h.sender(FlowId(1)).expect("sender").timeouts, 0);
    }
}
