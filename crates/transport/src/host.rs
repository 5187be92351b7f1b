//! The per-host transport endpoint.
//!
//! A [`TransportHost`] is the [`HostApp`] installed on every end host. It
//! owns the host's sending flows (TCP senders and paced UDP sources),
//! creates receiver state on demand for incoming flows, schedules flow
//! start times, demultiplexes ACKs, and manages retransmission and pacing
//! timers on top of the simulator's one-shot timer facility.
//!
//! Finished flows retire, so a host's state tracks its live flows, not
//! every flow it ever ran. A sender is dropped once its last segment is
//! acknowledged; later ACKs and stale RTO or pace timers find no flow and
//! do nothing, as they did for a finished one. A completed receiver
//! shrinks to its cumulative ACK point, which is all it needs to answer a
//! retransmission whose final ACK was lost. Dropping state schedules no
//! event, so retirement leaves every run unchanged.

use crate::flow::{FlowKind, FlowSpec};
use crate::receiver::ReceiverFlow;
use crate::sender::SenderFlow;
use crate::udp::UdpSender;
use aq_netsim::ids::{FlowId, NodeId};
use aq_netsim::node::{HostApp, HostCtx};
use aq_netsim::packet::{Packet, TransportHeader};
use std::collections::btree_map::Entry;
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
    /// Retired receivers: each completed flow's cumulative ACK point.
    completed: BTreeMap<FlowId, u64>,
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
            completed: BTreeMap::new(),
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

    /// Sender state of a live flow this host originates (`None` once the
    /// flow has finished and retired).
    pub fn sender(&self, flow: FlowId) -> Option<&SenderFlow> {
        self.senders.get(&flow)
    }

    /// Receiver state of a flow this host terminates (`None` once the
    /// flow has completed and retired).
    pub fn receiver(&self, flow: FlowId) -> Option<&ReceiverFlow> {
        self.receivers.get(&flow)
    }

    /// Flow-ids of the live TCP senders (diagnostics).
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
                match u.send_one(ctx) {
                    Some(next) => {
                        ctx.arm_timer_in(next, TOKEN_PACE | flow.0 as u64);
                        self.udp.insert(flow, u);
                    }
                    // Done in one datagram: retired at once.
                    None => self.start_chained(ctx, flow),
                }
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
                // An ACK for a retired flow finds no sender.
                let Some(s) = self.senders.get_mut(&pkt.flow) else {
                    return;
                };
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
                if !s.finished {
                    Self::arm_rto_if_needed(ctx, s, pkt.flow);
                    return;
                }
                s.check_retirable();
                self.senders.remove(&pkt.flow);
                self.start_chained(ctx, pkt.flow);
            }
            TransportHeader::Data { .. } => {
                let r = match self.receivers.entry(pkt.flow) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        if let Some(&cum) = self.completed.get(&pkt.flow) {
                            // A retransmission whose final ACK was lost.
                            ctx.send(Packet::ack_for(&pkt, cum, cum, true, ctx.now));
                            return;
                        }
                        e.insert(ReceiverFlow::new(pkt.flow))
                    }
                };
                r.on_data(ctx, &pkt);
                if r.completed {
                    let r = self.receivers.remove(&pkt.flow).expect("just received");
                    self.completed.insert(pkt.flow, r.retire());
                }
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
                        if d <= ctx.now {
                            s.on_rto(ctx);
                        }
                    }
                    Self::arm_rto_if_needed(ctx, s, flow);
                }
            }
            TOKEN_PACE => {
                let flow = FlowId(arg as u32);
                let Some(u) = self.udp.get_mut(&flow) else {
                    return;
                };
                match u.send_one(ctx) {
                    Some(next) => ctx.arm_timer_in(next, TOKEN_PACE | flow.0 as u64),
                    None => {
                        self.udp.remove(&flow);
                        self.start_chained(ctx, flow);
                    }
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
    use aq_netsim::time::{Duration, Rate, Time};

    fn sized(flow: u32, bytes: u64) -> FlowSpec {
        FlowSpec::sized_tcp(
            FlowId(flow),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            CcAlgo::NewReno,
            bytes,
            Time::ZERO,
        )
    }

    fn ack_fields(p: &Packet) -> (u64, u64, bool) {
        match p.transport {
            TransportHeader::Ack {
                cum_ack,
                sack_hi,
                fin_acked,
                ..
            } => (cum_ack, sack_hi, fin_acked),
            _ => panic!("not an ack"),
        }
    }

    /// Shuttle packets from `tx` (node 0) to `rx` (node 1) and ACKs back,
    /// with no loss, until `tx` has nothing more to send. Returns the
    /// last data packet delivered.
    fn run_lossless(
        tx: &mut TransportHost,
        rx: &mut TransportHost,
        stats: &mut StatsHub,
        mut data: Vec<Packet>,
    ) -> Packet {
        let mut now = Time::from_micros(1);
        let mut last = None;
        while !data.is_empty() {
            now += Duration::from_micros(10);
            let mut acks = Vec::new();
            for p in data.drain(..) {
                let mut ctx = HostCtx::new(now, NodeId(1), stats);
                rx.on_packet(&mut ctx, p.clone());
                acks.extend(ctx.take_sends());
                last = Some(p);
            }
            now += Duration::from_micros(10);
            for a in acks {
                let mut ctx = HostCtx::new(now, NodeId(0), stats);
                tx.on_packet(&mut ctx, a);
                data.extend(ctx.take_sends());
            }
        }
        last.expect("data was sent")
    }

    /// A 5-segment flow run to completion: the two hosts, the hub and
    /// the FIN segment.
    fn finished_flow() -> (TransportHost, TransportHost, StatsHub, Packet) {
        let (mut tx, mut rx) = (TransportHost::new(NodeId(0)), TransportHost::new(NodeId(1)));
        tx.add_flow(sized(1, 5000));
        let mut stats = StatsHub::new();
        let mut ctx = HostCtx::new(Time::ZERO, NodeId(0), &mut stats);
        tx.on_timer(&mut ctx, TOKEN_START);
        let first = ctx.take_sends();
        let fin = run_lossless(&mut tx, &mut rx, &mut stats, first);
        (tx, rx, stats, fin)
    }

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

    #[test]
    fn finished_sender_retires() {
        let (tx, rx, stats, fin) = finished_flow();
        assert!(matches!(
            fin.transport,
            TransportHeader::Data { seq: 4, fin: true }
        ));
        assert!(stats.flow(FlowId(1)).expect("registered").end.is_some());
        assert!(tx.sender(FlowId(1)).is_none());
        assert_eq!(tx.sender_flows().count(), 0);
        assert!(rx.receiver(FlowId(1)).is_none());
    }

    #[test]
    fn late_ack_and_rto_for_a_retired_sender_are_no_ops() {
        let (mut tx, _rx, mut stats, fin) = finished_flow();
        let mut ctx = HostCtx::new(Time::from_millis(1), NodeId(0), &mut stats);
        tx.on_packet(&mut ctx, Packet::ack_for(&fin, 5, 5, true, Time::ZERO));
        tx.on_timer(&mut ctx, TOKEN_RTO | 1);
        assert!(ctx.take_sends().is_empty());
        assert!(ctx.take_timers().is_empty());
    }

    #[test]
    fn finished_udp_source_retires_and_a_stray_pace_token_is_a_no_op() {
        let mut h = TransportHost::new(NodeId(0));
        let mut spec = FlowSpec::long_udp(
            FlowId(3),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            Rate::from_gbps(10),
        );
        spec.bytes = Some(2500);
        h.add_flow(spec);
        let mut stats = StatsHub::new();
        let mut ctx = HostCtx::new(Time::ZERO, NodeId(0), &mut stats);
        h.on_timer(&mut ctx, TOKEN_START);
        // 1000 + 1000 + 500 bytes: two pace timers, the second sends the last.
        for timers in [1, 1, 0] {
            assert_eq!(ctx.take_sends().len(), 1);
            assert_eq!(ctx.take_timers().len(), timers);
            if timers == 1 {
                h.on_timer(&mut ctx, TOKEN_PACE | 3);
            }
        }
        assert!(h.udp.is_empty());
        h.on_timer(&mut ctx, TOKEN_PACE | 3);
        assert!(ctx.take_sends().is_empty());
        assert!(ctx.take_timers().is_empty());
    }

    #[test]
    fn udp_source_done_in_one_datagram_retires_at_start_and_starts_its_chain() {
        let mut h = TransportHost::new(NodeId(0));
        let mut spec = FlowSpec::long_udp(
            FlowId(3),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            Rate::from_gbps(10),
        );
        spec.bytes = Some(500);
        h.add_flow(spec);
        h.add_flow(sized(4, 2000).chained_after(FlowId(3)));
        let mut stats = StatsHub::new();
        let mut ctx = HostCtx::new(Time::ZERO, NodeId(0), &mut stats);
        h.on_timer(&mut ctx, TOKEN_START);
        let flows: Vec<FlowId> = ctx.take_sends().iter().map(|p| p.flow).collect();
        assert_eq!(flows, vec![FlowId(3), FlowId(4), FlowId(4)]);
        assert!(h.udp.is_empty());
        assert!(h.sender(FlowId(4)).is_some());
    }

    #[test]
    fn chained_flow_starts_when_its_predecessor_retires() {
        let (mut tx, mut rx) = (TransportHost::new(NodeId(0)), TransportHost::new(NodeId(1)));
        tx.add_flow(sized(1, 3000));
        tx.add_flow(sized(2, 2000).chained_after(FlowId(1)));
        let mut stats = StatsHub::new();
        let mut ctx = HostCtx::new(Time::ZERO, NodeId(0), &mut stats);
        tx.on_start(&mut ctx);
        assert_eq!(ctx.take_timers(), vec![(Time::ZERO, TOKEN_START)]);
        tx.on_timer(&mut ctx, TOKEN_START);
        let first = ctx.take_sends();
        let last = run_lossless(&mut tx, &mut rx, &mut stats, first);
        assert_eq!(last.flow, FlowId(2));
        for f in [FlowId(1), FlowId(2)] {
            assert!(stats.flow(f).expect("started").end.is_some());
            assert!(tx.sender(f).is_none());
        }
    }

    #[test]
    fn completed_receiver_reacks_a_duplicate_fin() {
        let (_tx, mut rx, mut stats, fin) = finished_flow();
        assert_eq!(rx.completed.get(&FlowId(1)), Some(&5));
        let mut ctx = HostCtx::new(Time::from_millis(1), NodeId(1), &mut stats);
        rx.on_packet(&mut ctx, fin);
        let acks = ctx.take_sends();
        assert_eq!(acks.len(), 1);
        assert_eq!(ack_fields(&acks[0]), (5, 5, true));
        assert!(rx.receiver(FlowId(1)).is_none());
    }
}
