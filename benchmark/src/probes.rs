//! Replay probes. `run_until` is opaque from outside, so the hot layers
//! inside it are measured one at a time: each layer's public API is
//! driven in isolation with an op stream sized by the traced run's exact
//! counts, giving host ns per op; `share_est = ns/op × ops ÷ run_s` then
//! says how much of the run that layer can account for.
//!
//! Every PRNG here is seeded from the run seed; none of the timed loops
//! allocates per op beyond what the layer itself does.

use crate::clock;
use aq_core::{AGap, AqConfig, AqPipeline, AqTable, CcPolicy};
use aq_netsim::buffer::{Admission, DynamicThreshold, SharedBufferPool};
use aq_netsim::event::{EventKind, EventQueue};
use aq_netsim::ids::{EntityId, FlowId, NodeId, PortId};
use aq_netsim::node::{HostCtx, SwitchPipeline};
use aq_netsim::packet::{AqTag, Ecn, Packet, PacketArena, TransportHeader, MSS};
use aq_netsim::queue::{
    DisaggRedConfig, DisaggRedQueue, Enqueued, FifoConfig, FifoQueue, QueueDiscipline,
};
use aq_netsim::stats::{DelayRecorder, StatsHub, WindowedCounter};
use aq_netsim::time::{Duration, Rate, Time};
use aq_transport::{AckSignals, CcAlgo, FlowSpec, ReceiverFlow, SenderFlow};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;

/// Ops per probe: the run's own count, capped so a probe stays near
/// 0.1 s, or this default where the run never crossed the layer.
const DEFAULT_OPS: u64 = 1_000_000;
const MAX_OPS: u64 = 2_000_000;

/// A data packet's serialization time on a 10 Gbit/s link, an ACK's, and
/// one link's propagation delay: the gaps between a run's events.
const SERIALIZE_DATA_NS: u64 = 848;
const SERIALIZE_ACK_NS: u64 = 52;
const PROPAGATION_NS: u64 = 10_000;

/// Exact op counts of the run the probes replay (zero where the run has
/// no such op), and its host run time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shape {
    pub run_ns: u64,
    pub events: u64,
    /// Port transmissions: one enqueue, dequeue and arena round trip each.
    pub tx_pkts: u64,
    /// Transmissions through ports whose switch has a shared-buffer pool.
    pub pool_pkts: u64,
    /// Of those, transmissions through a disaggregated-RED discipline.
    pub red_pkts: u64,
    /// Data segments delivered (as many ACKs come back).
    pub deliveries: u64,
    /// Packets run through Algorithm 1 + 2.
    pub aq_pkts: u64,
}

impl Shape {
    pub fn from_counts(counts: &BTreeMap<String, u64>, run_s: f64) -> Shape {
        let c = |k: &str| counts.get(k).copied().unwrap_or(0);
        Shape {
            run_ns: (run_s * 1e9) as u64,
            events: c("events"),
            tx_pkts: c("tx_pkts"),
            pool_pkts: c("pool_pkts"),
            red_pkts: c("red_pkts"),
            deliveries: c("rx_bytes") / u64::from(MSS),
            aq_pkts: c("aq_pkts"),
        }
    }
}

fn ops_for(count: u64) -> u64 {
    if count == 0 {
        DEFAULT_OPS
    } else {
        count.min(MAX_OPS)
    }
}

/// Host ns per call of `op`, called `ops` times with the call's index and
/// a simulated clock that advances one data serialization per call.
fn per_op_ns(ops: u64, mut op: impl FnMut(u64, Time)) -> f64 {
    let ((), ns) = clock::timed(|| {
        for i in 0..ops {
            op(i, Time::from_nanos((i + 1) * SERIALIZE_DATA_NS));
        }
    });
    ns as f64 / ops as f64
}

fn data_pkt(seq: u64, now: Time) -> Packet {
    let mut p = Packet::data(
        FlowId(1),
        EntityId(1),
        NodeId(0),
        NodeId(1),
        seq,
        MSS,
        false,
        now,
    );
    p.ecn = Ecn::Capable;
    p.aq_ingress = AqTag(1);
    p
}

/// Run every probe and derive the share estimates. Keys are per-layer
/// metric names.
pub fn run(shape: &Shape, seed: u64) -> BTreeMap<String, f64> {
    let ack = transport_loop(CcAlgo::Cubic, None, ops_for(shape.deliveries));
    let sack = transport_loop(CcAlgo::Dctcp, Some(50), ops_for(shape.deliveries));
    let event = event_push_pop_ns(ops_for(shape.events), seed);
    let packet = arena_alloc_take_ns(ops_for(shape.tx_pkts));
    let fifo = discipline_enq_deq_ns(
        &mut FifoQueue::new(FifoConfig::default()),
        16,
        ops_for(shape.tx_pkts - shape.red_pkts),
    );
    let red_cfg = DisaggRedConfig {
        limit_bytes: 200_000,
        ..DisaggRedConfig::default()
    };
    // A standing backlog between RED's thresholds, so both its stages run.
    let red = discipline_enq_deq_ns(
        &mut DisaggRedQueue::new(red_cfg),
        48,
        ops_for(shape.red_pkts),
    );
    let buffer = pool_admit_cycle_ns(ops_for(shape.pool_pkts));
    let stat_ops = shape.tx_pkts + 3 * shape.deliveries;
    let record = stats_record_ns(ops_for(stat_ops));
    let ingress = pipeline_ingress_ns(ops_for(shape.aq_pkts));

    let run_ns = shape.run_ns.max(1) as f64;
    let share = |ns_per_op: f64, ops: u64| ns_per_op * ops as f64 / run_ns;
    let shares = [
        ("netsim.event.share_est", share(event, shape.events)),
        ("netsim.packet.share_est", share(packet, shape.tx_pkts)),
        (
            "netsim.queue.share_est",
            share(fifo, shape.tx_pkts - shape.red_pkts) + share(red, shape.red_pkts),
        ),
        ("netsim.buffer.share_est", share(buffer, shape.pool_pkts)),
        ("netsim.stats.share_est", share(record, stat_ops)),
        ("core.pipeline.share_est", share(ingress, shape.aq_pkts)),
        (
            "transport.share_est",
            share(ack.on_ack_ns + ack.on_data_ns, shape.deliveries),
        ),
    ];
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    let mut out: BTreeMap<String, f64> = shares
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let singles = [
        ("netsim.sim.residual_share", 1.0 - attributed),
        ("netsim.event.push_pop_ns", event),
        ("netsim.packet.alloc_take_ns", packet),
        ("netsim.queue.fifo_enq_deq_ns", fifo),
        ("netsim.queue.red_enq_deq_ns", red),
        ("netsim.buffer.admit_cycle_ns", buffer),
        ("netsim.stats.record_ns", record),
        (
            "netsim.stats.percentile_ms",
            stats_percentile_ms(ops_for(shape.deliveries), seed),
        ),
        (
            "core.gap.on_packet_ns",
            gap_on_packet_ns(ops_for(shape.aq_pkts)),
        ),
        (
            "core.table.process_small_ns",
            table_process_small_ns(ops_for(shape.aq_pkts)),
        ),
        ("core.pipeline.ingress_ns", ingress),
        ("transport.sender.on_ack_ns", ack.on_ack_ns),
        ("transport.sender.on_ack_sack_ns", sack.on_ack_ns),
        ("transport.receiver.on_data_ns", ack.on_data_ns),
        (
            "transport.cc.cubic_on_ack_ns",
            cc_on_ack_ns(CcAlgo::Cubic, ops_for(shape.deliveries)),
        ),
        (
            "transport.cc.dctcp_on_ack_ns",
            cc_on_ack_ns(CcAlgo::Dctcp, ops_for(shape.deliveries)),
        ),
    ];
    out.extend(singles.map(|(k, v)| (k.to_string(), v)));
    out
}

/// One pop and one push per op on a queue holding a steady few hundred
/// events, each new event a serialization or propagation delay ahead.
fn event_push_pop_ns(ops: u64, seed: u64) -> f64 {
    const STANDING: u64 = 256;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut delta = move || match rng.gen_range(0..4u32) {
        0 => PROPAGATION_NS,
        1 => SERIALIZE_ACK_NS,
        _ => SERIALIZE_DATA_NS,
    };
    let mut q = EventQueue::new();
    let kind = EventKind::TxComplete { port: PortId(0) };
    for i in 0..STANDING {
        q.push(Time::from_nanos(i * SERIALIZE_ACK_NS + delta()), kind);
    }
    let ((), ns) = clock::timed(|| {
        for _ in 0..ops {
            let ev = q.pop().expect("standing events");
            q.push(Time::from_nanos(ev.time.as_nanos() + delta()), ev.kind);
        }
    });
    black_box(q.len());
    ns as f64 / ops as f64
}

/// One alloc and one take per op with a window of packets in flight.
fn arena_alloc_take_ns(ops: u64) -> f64 {
    const IN_FLIGHT: usize = 64;
    let mut arena = PacketArena::new();
    let mut refs: VecDeque<_> = (0..IN_FLIGHT)
        .map(|i| arena.alloc(data_pkt(i as u64, Time::ZERO)))
        .collect();
    let ((), ns) = clock::timed(|| {
        for _ in 0..ops {
            let pkt = arena.take(refs.pop_front().expect("in-flight window"));
            refs.push_back(arena.alloc(pkt));
        }
    });
    black_box(arena.live());
    ns as f64 / ops as f64
}

/// One enqueue and one dequeue per op against a standing backlog.
fn discipline_enq_deq_ns(q: &mut dyn QueueDiscipline, backlog_pkts: u64, ops: u64) -> f64 {
    for i in 0..backlog_pkts {
        if let Enqueued::Dropped(..) = q.enqueue(Time::ZERO, data_pkt(i, Time::ZERO)) {
            panic!("probe backlog exceeds the discipline's limit");
        }
    }
    let mut spare = Some(data_pkt(backlog_pkts, Time::ZERO));
    let ns = per_op_ns(ops, |_, now| {
        let mut pkt = spare.take().expect("one packet circulates");
        pkt.ecn = Ecn::Capable;
        spare = Some(match q.enqueue(now, pkt) {
            Enqueued::Ok => q.dequeue(now).expect("standing backlog"),
            Enqueued::Dropped(p, _) => p,
        });
    });
    black_box(q.backlog_bytes());
    ns
}

/// One admit + commit + release per op on a dynamic-threshold pool that
/// stays about half full over four ports.
fn pool_admit_cycle_ns(ops: u64) -> f64 {
    const PORTS: u32 = 4;
    const STANDING: u32 = 64;
    let bytes = u64::from(MSS + 60);
    let drain = Rate::from_gbps(10);
    let mut pool = SharedBufferPool::new(
        150_000,
        PORTS as usize,
        Box::new(DynamicThreshold::new(1.0)),
    );
    for i in 0..STANDING {
        pool.commit(PortId(i % PORTS), bytes);
    }
    let ((), ns) = clock::timed(|| {
        for i in 0..ops {
            let port = PortId((i % u64::from(PORTS)) as u32);
            pool.release(port, bytes);
            if pool.admit(port, bytes, drain) != Admission::Reject {
                pool.commit(port, bytes);
            }
        }
    });
    black_box(pool.occupancy());
    ns as f64 / ops as f64
}

/// Mean cost of one record call over the stream a delivery causes: a
/// windowed byte count and a delay sample, alternating.
fn stats_record_ns(ops: u64) -> f64 {
    let mut series = WindowedCounter::new(Duration::from_millis(1));
    let mut delays = DelayRecorder::default();
    let pair_ns = per_op_ns(ops / 2, |i, now| {
        series.record(now, u64::from(MSS));
        delays.record(i & 0xffff);
    });
    black_box((series.buckets().len(), delays.len()));
    pair_ns / 2.0
}

/// What a report pays for the first percentile of a recorder holding the
/// run's delay samples (later ones reuse the sort).
fn stats_percentile_ms(samples: u64, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut delays = DelayRecorder::default();
    for _ in 0..samples {
        delays.record(rng.gen_range(0..200_000u64));
    }
    let (p, ns) = clock::timed(|| (delays.percentile(50.0), delays.percentile(99.0)));
    black_box(p);
    clock::millis(ns)
}

fn aq_cfg(id: u32) -> AqConfig {
    AqConfig {
        id: AqTag(id),
        rate: Rate::from_gbps(5),
        limit_bytes: 200_000,
        cc: CcPolicy::EcnBased {
            threshold_bytes: 65_000,
        },
    }
}

/// Algorithm 1 alone: one A-Gap update per op at line-rate spacing.
fn gap_on_packet_ns(ops: u64) -> f64 {
    let mut gap = AGap::new(Rate::from_gbps(5));
    per_op_ns(ops, |_, now| {
        black_box(gap.on_packet(now, black_box(MSS + 60)));
    })
}

/// The sims' table use: eight rows, all hot, read round-robin.
const SMALL_TABLE_ROWS: u32 = 8;

fn table_process_small_ns(ops: u64) -> f64 {
    let mut table = AqTable::new();
    for id in 1..=SMALL_TABLE_ROWS {
        table.deploy(aq_cfg(id));
    }
    let mut pkt = data_pkt(0, Time::ZERO);
    per_op_ns(ops, |i, now| {
        pkt.ecn = Ecn::Capable;
        let id = AqTag((i % u64::from(SMALL_TABLE_ROWS)) as u32 + 1);
        black_box(table.process(id, now, &mut pkt));
    })
}

fn pipeline_ingress_ns(ops: u64) -> f64 {
    let mut pipe = AqPipeline::new();
    for id in 1..=SMALL_TABLE_ROWS {
        pipe.deploy_ingress(aq_cfg(id));
    }
    let mut pkt = data_pkt(0, Time::ZERO);
    per_op_ns(ops, |i, now| {
        pkt.ecn = Ecn::Capable;
        pkt.aq_ingress = AqTag((i % u64::from(SMALL_TABLE_ROWS)) as u32 + 1);
        black_box(pipe.ingress(now, &mut pkt));
    })
}

/// One congestion-control ACK per op, with a loss every thousand ACKs
/// (and a CE echo every sixteenth) so the window stays in its
/// steady-state regime instead of pinning at the clamp.
fn cc_on_ack_ns(algo: CcAlgo, ops: u64) -> f64 {
    let mut cc = algo.build();
    let ns = per_op_ns(ops, |i, now| {
        if i % 1000 == 999 {
            cc.on_loss(now);
        }
        cc.on_ack(&AckSignals {
            now,
            newly_acked: 1,
            rtt: Duration::from_micros(60),
            min_rtt: Duration::from_micros(50),
            queuing_delay: Duration::from_micros(10),
            ecn_echo: i % 16 == 0,
            snd_nxt: i + 32,
            cum_ack: i + 1,
        });
    });
    black_box(cc.cwnd());
    ns
}

struct TransportCost {
    on_ack_ns: f64,
    on_data_ns: f64,
}

/// A sender and a receiver joined by a lossless (or, with `drop_every`,
/// periodically lossy) pipe, advanced a flight at a time: the receiver
/// turns the flight into ACKs, then the sender takes the ACKs and emits
/// the next flight. Each half is timed over whole flights, so the clock
/// is read twice per round trip, not per packet.
fn transport_loop(algo: CcAlgo, drop_every: Option<u64>, acks: u64) -> TransportCost {
    let (src, dst) = (NodeId(0), NodeId(1));
    let mut hub = StatsHub::new();
    let mut sender = SenderFlow::new(FlowSpec::long_tcp(FlowId(1), EntityId(1), src, dst, algo));
    let mut receiver = ReceiverFlow::new(FlowId(1));
    let mut now_ns = PROPAGATION_NS;
    let mut flight: Vec<Packet> = {
        let mut ctx = HostCtx::new(Time::from_nanos(now_ns), src, &mut hub);
        sender.start(&mut ctx);
        ctx.take_sends()
    };
    let (mut sent, mut acked, mut ack_ns, mut data_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut ack_pkts: Vec<Packet> = Vec::new();
    while acked < acks {
        now_ns += PROPAGATION_NS;
        let start = clock::now_ns();
        for pkt in flight.drain(..) {
            sent += 1;
            if drop_every.is_some_and(|n| sent % n == 0) {
                continue;
            }
            now_ns += SERIALIZE_DATA_NS;
            let mut ctx = HostCtx::new(Time::from_nanos(now_ns), dst, &mut hub);
            receiver.on_data(&mut ctx, &pkt);
            ack_pkts.append(&mut ctx.take_sends());
        }
        data_ns += clock::now_ns() - start;

        now_ns += PROPAGATION_NS;
        if ack_pkts.is_empty() {
            // The whole flight was lost: only the retransmission timer
            // gets the flow moving again.
            now_ns = now_ns.max(sender.rto_deadline.map_or(0, Time::as_nanos));
            let mut ctx = HostCtx::new(Time::from_nanos(now_ns), src, &mut hub);
            sender.on_rto(&mut ctx);
            flight.append(&mut ctx.take_sends());
            continue;
        }
        let start = clock::now_ns();
        for ack in ack_pkts.drain(..) {
            let TransportHeader::Ack {
                cum_ack,
                sack_hi,
                this_seq,
                ecn_echo,
                vdelay_echo_ns,
                ts_echo,
                fin_acked,
            } = ack.transport
            else {
                unreachable!("receivers only send ACKs");
            };
            now_ns += SERIALIZE_ACK_NS;
            let mut ctx = HostCtx::new(Time::from_nanos(now_ns), src, &mut hub);
            sender.on_ack(
                &mut ctx,
                cum_ack,
                sack_hi,
                this_seq,
                ecn_echo,
                vdelay_echo_ns,
                ts_echo,
                fin_acked,
            );
            flight.append(&mut ctx.take_sends());
            acked += 1;
        }
        ack_ns += clock::now_ns() - start;
    }
    black_box((sender.cwnd(), receiver.cum_ack()));
    TransportCost {
        on_ack_ns: ack_ns as f64 / acked as f64,
        on_data_ns: data_ns as f64 / acked as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_returns_a_positive_cost_and_shares_follow_the_counts() {
        let shape = Shape {
            run_ns: 1_000_000_000,
            events: 20_000,
            tx_pkts: 10_000,
            pool_pkts: 4_000,
            red_pkts: 4_000,
            deliveries: 5_000,
            aq_pkts: 5_000,
        };
        let m = run(&shape, 1);
        for (name, value) in &m {
            assert!(value.is_finite(), "{name} = {value}");
            if name.ends_with("_ns") || name.ends_with("_ms") {
                assert!(*value > 0.0, "{name} = {value}");
            }
        }
        let share = m["netsim.event.push_pop_ns"] * 20_000.0 / 1e9;
        assert!((m["netsim.event.share_est"] - share).abs() < 1e-12);
        let total: f64 = m
            .iter()
            .filter(|(k, _)| k.ends_with(".share_est"))
            .map(|(_, v)| v)
            .sum();
        assert!((total + m["netsim.sim.residual_share"] - 1.0).abs() < 1e-9);

        // A run that never crosses a layer gives it no share, but the
        // layer's cost is still measured.
        let idle = run(
            &Shape {
                run_ns: 1_000_000_000,
                ..Shape::default()
            },
            1,
        );
        assert_eq!(idle["netsim.buffer.share_est"], 0.0);
        assert!(idle["netsim.buffer.admit_cycle_ns"] > 0.0);
        assert_eq!(idle.len(), m.len());
    }

    #[test]
    fn the_lossy_transport_loop_recovers_and_keeps_acking() {
        let cost = transport_loop(CcAlgo::Dctcp, Some(7), 5_000);
        assert!(cost.on_ack_ns > 0.0 && cost.on_data_ns > 0.0);
    }
}
