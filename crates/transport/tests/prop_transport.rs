//! Property tests for the transport: the receiver must reassemble any
//! arrival order exactly, a host that retires completed receivers must
//! ACK exactly as a receiver that never retires, and the sender
//! scoreboard must stay consistent under arbitrary ACK sequences.

use aq_netsim::ids::{EntityId, FlowId, NodeId};
use aq_netsim::node::{HostApp, HostCtx};
use aq_netsim::packet::{Packet, TransportHeader};
use aq_netsim::stats::StatsHub;
use aq_netsim::time::Time;
use aq_transport::{CcAlgo, FlowSpec, ReceiverFlow, SenderFlow, TransportHost};
use proptest::prelude::*;

fn data(seq: u64, fin: bool) -> Packet {
    Packet::data(
        FlowId(1),
        EntityId(1),
        NodeId(0),
        NodeId(1),
        seq,
        1000,
        fin,
        Time::ZERO,
    )
}

/// Deliver one segment through `f` against a fresh hub that knows flow 1:
/// the packets sent, and whether this delivery reported the completion.
fn deliver_fresh(now: Time, f: impl FnOnce(&mut HostCtx<'_>)) -> (Vec<Packet>, bool) {
    let mut stats = StatsHub::new();
    stats.register_flow(FlowId(1), EntityId(1), 0, Time::ZERO);
    let mut ctx = HostCtx::new(now, NodeId(1), &mut stats);
    f(&mut ctx);
    let sends = ctx.take_sends();
    let completed = stats.flow(FlowId(1)).expect("registered").end.is_some();
    (sends, completed)
}

proptest! {
    /// Any arrival permutation (with duplicates injected) reassembles:
    /// cum reaches the total, completion fires exactly when the FIN and
    /// all predecessors are in, and sack_hi never runs below cum.
    #[test]
    fn receiver_reassembles_any_order(
        n in 2u64..60,
        seed in any::<u64>(),
        dup_every in 1usize..7,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut order: Vec<u64> = (0..n).collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        let mut r = ReceiverFlow::new(FlowId(1));
        let mut stats = StatsHub::new();
        stats.register_flow(FlowId(1), EntityId(1), n * 1000, Time::ZERO);
        for (i, seq) in order.iter().enumerate() {
            let mut ctx = HostCtx::new(Time::from_micros(i as u64), NodeId(1), &mut stats);
            r.on_data(&mut ctx, &data(*seq, *seq == n - 1));
            prop_assert!(r.sack_hi() >= r.cum_ack());
            prop_assert!(r.cum_ack() <= n);
            // Duplicate injection: re-deliver an already-seen segment.
            if i % dup_every == 0 {
                let mut ctx = HostCtx::new(Time::from_micros(i as u64), NodeId(1), &mut stats);
                r.on_data(&mut ctx, &data(*seq, *seq == n - 1));
            }
        }
        prop_assert_eq!(r.cum_ack(), n, "all segments reassembled");
        prop_assert!(r.completed, "flow completed");
        prop_assert!(stats.flow(FlowId(1)).expect("registered").end.is_some());
    }

    /// Differential: a `TransportHost` (which retires the receiver once
    /// the flow completes and answers later segments from its cumulative
    /// ACK point) against a standalone `ReceiverFlow` (which never
    /// retires), fed the same shuffled arrivals with duplicates injected
    /// anywhere and after completion. Every ACK must match field for
    /// field, and completion must be reported once, on the same arrival.
    #[test]
    fn retiring_host_acks_like_a_receiver_that_never_retires(
        n in 1u64..40,
        seed in any::<u64>(),
        dups in prop::collection::vec((any::<u64>(), any::<u64>()), 0..20),
        late in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut arrivals: Vec<u64> = (0..n).collect();
        arrivals.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(seed));
        for (at, seq) in dups {
            let at = (at % (arrivals.len() as u64 + 1)) as usize;
            arrivals.insert(at, seq % n);
        }
        // Every segment is in by now: these arrive after completion.
        arrivals.extend(late.iter().map(|seq| seq % n));

        let mut host = TransportHost::new(NodeId(1));
        let mut reference = ReceiverFlow::new(FlowId(1));
        let (mut host_done, mut ref_done) = (Vec::new(), Vec::new());
        for (i, &seq) in arrivals.iter().enumerate() {
            let now = Time::from_micros(i as u64 + 1);
            let mut pkt = data(seq, seq == n - 1);
            pkt.vdelay_ns = i as u64;
            let (host_acks, host_fired) = deliver_fresh(now, |ctx| host.on_packet(ctx, pkt.clone()));
            let (ref_acks, ref_fired) = deliver_fresh(now, |ctx| reference.on_data(ctx, &pkt));
            prop_assert_eq!(host_acks.len(), 1, "arrival {} (seq {}) is acked once", i, seq);
            prop_assert_eq!(
                format!("{:?}", host_acks),
                format!("{:?}", ref_acks),
                "arrival {} (seq {})",
                i,
                seq
            );
            if host_fired {
                host_done.push(i);
            }
            if ref_fired {
                ref_done.push(i);
            }
        }
        prop_assert_eq!(host_done.len(), 1, "completion reported once");
        prop_assert_eq!(host_done, ref_done);
        prop_assert!(host.receiver(FlowId(1)).is_none(), "completed receiver retired");
    }

    /// Feeding the sender arbitrary (even nonsensical) ACK sequences never
    /// panics, never regresses cum_ack, and keeps the pipe bounded by the
    /// window.
    #[test]
    fn sender_scoreboard_stays_consistent(
        acks in prop::collection::vec((0u64..100, 0u64..100), 1..200),
    ) {
        let spec = FlowSpec::long_tcp(FlowId(1), EntityId(1), NodeId(0), NodeId(1), CcAlgo::NewReno);
        let mut s = SenderFlow::new(spec);
        let mut stats = StatsHub::new();
        {
            let mut ctx = HostCtx::new(Time::ZERO, NodeId(0), &mut stats);
            s.start(&mut ctx);
        }
        let mut last_cum = 0u64;
        for (i, (cum, this_seq)) in acks.into_iter().enumerate() {
            let now = Time::from_micros(10 + i as u64);
            let mut ctx = HostCtx::new(now, NodeId(0), &mut stats);
            s.on_ack(&mut ctx, cum, this_seq + 1, this_seq, false, 0, Time::ZERO, false);
            let sent = ctx.take_sends();
            // All emitted packets are data segments of this flow.
            for p in &sent {
                let is_data = matches!(p.transport, TransportHeader::Data { .. });
                prop_assert!(is_data);
                prop_assert_eq!(p.flow, FlowId(1));
            }
            // cum_ack is monotone even under regressive ACK input.
            let cum_now = cum.max(last_cum);
            last_cum = cum_now;
            // Pipe bounded by the window (floor >= 1).
            let wnd = s.cwnd().floor().max(1.0) as u64;
            prop_assert!(
                s.outstanding() <= wnd,
                "pipe {} exceeds window {}",
                s.outstanding(),
                wnd
            );
        }
    }

    /// A finite flow fed a perfect in-order ACK stream always terminates
    /// with exactly `total` distinct segments sent (no spurious
    /// retransmissions on a clean path).
    #[test]
    fn clean_path_sends_each_segment_once(bytes in 1_000u64..2_000_000) {
        let spec = FlowSpec::sized_tcp(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            CcAlgo::Cubic,
            bytes,
            Time::ZERO,
        );
        let total = spec.total_segments().expect("finite");
        let mut s = SenderFlow::new(spec);
        let mut stats = StatsHub::new();
        let mut pending: Vec<u64> = Vec::new();
        {
            let mut ctx = HostCtx::new(Time::ZERO, NodeId(0), &mut stats);
            s.start(&mut ctx);
            pending.extend(ctx.take_sends().iter().filter_map(|p| match p.transport {
                TransportHeader::Data { seq, .. } => Some(seq),
                _ => None,
            }));
        }
        let mut now_us = 0u64;
        let mut cum = 0u64;
        while !s.finished {
            prop_assert!(!pending.is_empty(), "stalled before completion");
            let seq = pending.remove(0);
            prop_assert_eq!(seq, cum, "in-order delivery expected");
            cum += 1;
            now_us += 50;
            let fin_acked = cum == total;
            let mut ctx = HostCtx::new(Time::from_micros(now_us), NodeId(0), &mut stats);
            s.on_ack(&mut ctx, cum, cum, seq, false, 0, Time::from_micros(now_us - 50), fin_acked);
            pending.extend(ctx.take_sends().iter().filter_map(|p| match p.transport {
                TransportHeader::Data { seq, .. } => Some(seq),
                _ => None,
            }));
        }
        prop_assert_eq!(s.segments_sent, total);
        prop_assert_eq!(s.retransmissions, 0);
    }
}
