//! Property tests for the simulator substrate: exact unit arithmetic,
//! FIFO conservation and marking, delay percentiles, and end-to-end
//! determinism.

use aq_netsim::ids::{EntityId, FlowId, NodeId};
use aq_netsim::packet::{Ecn, Packet};
use aq_netsim::queue::{
    DisaggRedConfig, DisaggRedQueue, DropCause, Enqueued, Fifo, FifoConfig, FifoQueue,
    L4sStepConfig, L4sStepQueue, MarkRule, QueueDiscipline,
};
use aq_netsim::stats::{DelayRecorder, WindowedCounter};
use aq_netsim::time::{Duration, Rate, Time, NS_PER_SEC};
use proptest::prelude::*;

/// Every `p` a [`DelayRecorder`] is asked for after each op: out of range
/// and non-finite values beside the ones reports use.
const PERCENTILES: [f64; 10] = [
    f64::NAN,
    f64::NEG_INFINITY,
    0.0,
    0.1,
    50.0,
    99.0,
    99.9,
    100.0,
    250.0,
    f64::INFINITY,
];

/// A delay sample drawn from one byte: mostly small queuing delays, and
/// one in four from the values around the 4-byte boundary or `u64::MAX`.
fn delay(b: u8) -> u64 {
    let edge = u64::from(u32::MAX);
    match b {
        0..=191 => u64::from(b) * 1_009,
        _ => [edge - 1, edge, edge + 1, u64::MAX][usize::from(b % 4)],
    }
}

/// Drive `q` through `ops` and then drain it. An op `(0, _, _)` dequeues;
/// any other offers a packet of that payload, ECN-capable or not. After
/// every op: the backlog is within `limit`, the white-box counters
/// conserve bytes, packets leave in arrival order, each packet leaves
/// with the codepoint its arrival earned (CE exactly when `marks` moved
/// on its arrival, never on non-ECT traffic) so `marks` equals the CE
/// count among drained and resident packets, a taildrop happens exactly
/// when the packet does not fit, and a fitting packet is dropped only
/// when non-ECT and only by a rule that may (`red_drops`).
fn drive<R: MarkRule>(
    mut q: Fifo<R>,
    limit: u64,
    ops: &[(u8, u32, bool)],
    red_drops: bool,
) -> Result<(), TestCaseError> {
    // Resident packets: (uid, ECN-capable, marked on arrival).
    let mut resident = std::collections::VecDeque::new();
    let (mut offered, mut drops, mut ce_drained) = (0u64, 0u64, 0u64);
    let drain = std::iter::repeat_n((0, 0, false), ops.len());
    for (uid, (op, payload, ect)) in ops.iter().copied().chain(drain).enumerate() {
        if op == 0 {
            if let Some(p) = q.dequeue(Time::ZERO) {
                let (uid, ect, marked) = resident.pop_front().ok_or_else(|| {
                    TestCaseError::fail("dequeued from a queue that should be empty")
                })?;
                prop_assert_eq!(p.uid, uid, "arrival order");
                let want = match (ect, marked) {
                    (false, _) => Ecn::NotCapable,
                    (true, false) => Ecn::Capable,
                    (true, true) => Ecn::CongestionExperienced,
                };
                prop_assert_eq!(p.ecn, want, "codepoint of packet {}", uid);
                ce_drained += u64::from(marked);
            }
        } else {
            let mut p = Packet::data(
                FlowId(1),
                EntityId(1),
                NodeId(0),
                NodeId(1),
                0,
                payload,
                false,
                Time::ZERO,
            );
            p.uid = uid as u64;
            p.ecn = if ect { Ecn::Capable } else { Ecn::NotCapable };
            let (size, fits, marks) = (
                p.size as u64,
                q.backlog_bytes() + p.size as u64 <= limit,
                q.marks,
            );
            offered += size;
            match q.enqueue(Time::ZERO, p) {
                Enqueued::Ok => {
                    prop_assert!(fits, "accepted a packet over the limit");
                    prop_assert!(q.marks - marks <= u64::from(ect), "marked a non-ECT packet");
                    resident.push_back((uid as u64, ect, q.marks > marks));
                }
                Enqueued::Dropped(_, cause) => {
                    drops += 1;
                    prop_assert_eq!(q.marks, marks, "marked a dropped packet");
                    match cause {
                        DropCause::Taildrop => prop_assert!(!fits, "taildropped a fitting packet"),
                        DropCause::RedNonEct => {
                            prop_assert!(
                                fits && red_drops && !ect,
                                "RedNonEct drop of size {}",
                                size
                            )
                        }
                        other => prop_assert!(false, "a FIFO returned {:?}", other),
                    }
                }
            }
        }
        prop_assert!(q.backlog_bytes() <= limit);
        prop_assert_eq!(q.enqueued_bytes, offered);
        prop_assert_eq!(
            q.enqueued_bytes,
            q.dequeued_bytes + q.dropped_bytes + q.backlog_bytes()
        );
        prop_assert_eq!(q.backlog_pkts(), resident.len());
        prop_assert_eq!(q.drops, drops);
        let ce_resident = resident.iter().filter(|r| r.2).count() as u64;
        prop_assert_eq!(q.marks, ce_drained + ce_resident);
    }
    prop_assert_eq!(q.backlog_bytes(), 0);
    Ok(())
}

/// A recorder holding `delay(b)` for each byte.
fn recorder_of(bytes: &[u8]) -> DelayRecorder {
    let mut d = DelayRecorder::default();
    for &b in bytes {
        d.record(delay(b));
    }
    d
}

/// A few thousand samples, more than one merge's worth of staging: at
/// most 8 distinct `delay`s recurring when `x` is even (values the
/// recorder mostly holds already), otherwise all distinct, from a base
/// that other calls may share, `step` apart. The steps give encoded runs
/// of 1, 3 and 4 bytes (a run's head is `delta << 1`): at 3 bytes one
/// call spans 3–5 of the recorder's 4 KiB pages, at 4 bytes up to 2
/// pages below 2³² and the rest wide.
fn bulk(x: u64) -> Vec<u64> {
    let bytes = x.to_le_bytes();
    let n = 4_100 + (x >> 32) as usize % 2_000;
    if x.is_multiple_of(2) {
        (0..n).map(|i| delay(bytes[i % 8])).collect()
    } else {
        let base = u64::from(bytes[1]) << 24;
        let step = [3, (1 << 14) + 1, (1 << 21) + 5][usize::from(bytes[2] % 3)];
        (0..n as u64).map(|i| base + i * step).collect()
    }
}

/// Compare `rec` with the naive model: the samples in a `Vec`, sorted,
/// and nearest rank read off it. The model is sorted in place, so each
/// call sorts only what arrived since the last (a stable sort finds the
/// sorted prefix).
fn check_recorder(rec: &DelayRecorder, model: &mut [u64]) -> Result<(), TestCaseError> {
    model.sort();
    let sorted = &*model;
    prop_assert_eq!(rec.len(), sorted.len());
    prop_assert_eq!(rec.is_empty(), sorted.is_empty());
    for p in PERCENTILES {
        let want = (!sorted.is_empty() && !p.is_nan()).then(|| {
            let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        });
        prop_assert_eq!(rec.percentile(p), want, "p = {} over {:?}", p, sorted);
    }
    prop_assert_eq!(
        format!("{rec:?}"),
        format!("DelayRecorder {{ samples: {sorted:?} }}")
    );
    Ok(())
}

proptest! {
    /// A `DelayRecorder` agrees with a plain sorted `Vec<u64>` on length,
    /// every percentile and its `Debug` text after every op — single and
    /// batched records on both sides of 2³², bulk records long enough to
    /// merge staged samples into the runs mid-call and to span several
    /// pages with multi-byte deltas, merges of queried and
    /// unqueried recorders, clones — whatever merging the queries before
    /// it did.
    #[test]
    fn delay_recorder_matches_a_sorted_vec(
        ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..60),
    ) {
        let mut rec = DelayRecorder::default();
        let mut model: Vec<u64> = Vec::new();
        for (op, x) in ops {
            let bytes = x.to_le_bytes();
            match op % 6 {
                // About one op in 32.
                _ if op >= 248 => {
                    for ns in bulk(x) {
                        rec.record(ns);
                        model.push(ns);
                    }
                }
                0 | 1 => {
                    rec.record(delay(bytes[0]));
                    model.push(delay(bytes[0]));
                }
                2 => {
                    for b in bytes {
                        rec.record(delay(b));
                        model.push(delay(b));
                    }
                }
                3 => {
                    let other = recorder_of(&bytes[..usize::from(op / 6 % 9)]);
                    if op >= 128 {
                        // A queried recorder arrives sorted.
                        let _ = other.percentile(50.0);
                    }
                    model.extend(bytes[..other.len()].iter().map(|&b| delay(b)));
                    rec.merge(other);
                }
                4 => {
                    let copy = rec.clone();
                    check_recorder(&copy, &mut model)?;
                    rec = copy;
                }
                _ => {
                    let mut fresh = DelayRecorder::default();
                    fresh.merge(rec);
                    rec = fresh;
                }
            }
            check_recorder(&rec, &mut model)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Every rank of a recorder whose runs span several pages, with some
    /// values repeated and up to ~2 000 samples left staged, matches
    /// the model: above all the ranks on either side of a page boundary,
    /// which the percentiles checked after each op above rarely land on.
    #[test]
    fn every_rank_of_a_multi_page_recorder(
        x in any::<u64>(),
        repeats in prop::collection::vec(any::<u64>(), 0..300),
    ) {
        let distinct = bulk(x | 1);
        let mut model = distinct.clone();
        model.extend(repeats.iter().map(|&r| distinct[r as usize % distinct.len()]));
        let mut rec = DelayRecorder::default();
        for &ns in &model {
            rec.record(ns);
        }
        model.sort_unstable();
        let len = model.len();
        for rank in 1..=len {
            let p = 100.0 * (rank as f64 - 0.5) / len as f64;
            prop_assert_eq!(rec.percentile(p), Some(model[rank - 1]), "rank {}", rank);
        }
    }
}

proptest! {
    /// `transmit_time` is exact up to its documented round-up: sending the
    /// bytes the rate claims fit in a duration never takes longer than
    /// that duration plus one nanosecond of rounding.
    #[test]
    fn rate_conversions_are_mutually_consistent(
        bps in 1_000u64..400_000_000_000,
        bytes in 1u64..10_000_000,
    ) {
        let r = Rate::from_bps(bps);
        let d = r.transmit_time(bytes);
        // The duration must cover the bytes…
        prop_assert!(r.bytes_in(d) >= bytes.saturating_sub(1));
        // …and not be more than one ns-rounding too generous.
        if d.as_nanos() > 1 {
            let d_minus = Duration::from_nanos(d.as_nanos() - 1);
            prop_assert!(r.bytes_in(d_minus) <= bytes);
        }
    }

    /// Exact byte accounting: `bytes_in` equals floor(bps·ns / 8e9).
    #[test]
    fn bytes_in_matches_exact_arithmetic(
        bps in 1u64..400_000_000_000,
        ns in 0u64..10_000_000_000,
    ) {
        let expect = (bps as u128 * ns as u128 / (8 * NS_PER_SEC as u128)) as u64;
        prop_assert_eq!(Rate::from_bps(bps).bytes_in(Duration::from_nanos(ns)), expect);
    }

    /// Every discipline over the one FIFO — the PQ without and with `K`,
    /// disaggregated RED, L4S with a ramp and as a pure step — conserves
    /// bytes, keeps arrival order and its limit, and marks only what its
    /// `marks` counter owns, under interleaved enqueues and dequeues of
    /// ECT and non-ECT packets (see [`drive`]).
    #[test]
    fn fifo_conserves_order_and_limit(
        rule in 0u8..5,
        limit in 10_000u64..500_000,
        a in 0u64..500_000,
        b in 0u64..500_000,
        ewma_shift in 0u32..5,
        ops in prop::collection::vec((0u8..4, 40u32..9000, any::<bool>()), 1..300),
    ) {
        let (lo, hi) = (a % limit, b % limit);
        let fifo = |k| FifoQueue::new(FifoConfig { limit_bytes: limit, ecn_threshold_bytes: k });
        let l4s = |step_low_bytes, step_high_bytes| {
            L4sStepQueue::new(L4sStepConfig { limit_bytes: limit, step_low_bytes, step_high_bytes })
        };
        match rule {
            0 => drive(fifo(None), limit, &ops, false)?,
            1 => drive(fifo(Some(lo)), limit, &ops, true)?,
            2 => {
                let red = DisaggRedConfig {
                    limit_bytes: limit,
                    min_thresh_bytes: lo,
                    max_thresh_bytes: hi,
                    ewma_shift,
                };
                drive(DisaggRedQueue::new(red), limit, &ops, true)?
            }
            3 => drive(l4s(lo, lo + 1 + hi), limit, &ops, false)?,
            _ => drive(l4s(lo, hi % (lo + 1)), limit, &ops, false)?,
        }
    }

    /// Windowed counters conserve bytes: the bucket sum equals the total
    /// recorded regardless of timing.
    #[test]
    fn windowed_counter_conserves_bytes(
        points in prop::collection::vec((0u64..10_000_000_000, 1u64..1_000_000), 1..200),
        window_ms in 1u64..1000,
    ) {
        let mut c = WindowedCounter::new(Duration::from_millis(window_ms));
        let mut total = 0u64;
        for (t, b) in points {
            c.record(Time::from_nanos(t), b);
            total += b;
        }
        prop_assert_eq!(c.buckets().iter().sum::<u64>(), total);
    }
}

/// Two identical simulations produce bit-identical measurement outcomes —
/// the determinism contract everything else relies on.
#[test]
fn simulation_is_deterministic() {
    use aq_netsim::topology::dumbbell;
    use aq_netsim::Simulator;

    fn run(seed: u64) -> (u64, u64, Vec<u64>) {
        let d = dumbbell(
            2,
            Rate::from_gbps(10),
            Duration::from_micros(10),
            FifoConfig::default(),
        );
        let mut net = d.net;
        // A raw packet generator app is overkill; reuse the port stats from
        // an idle network with injected traffic via a tiny app.
        struct Blaster {
            src: NodeId,
            dst: NodeId,
            sent: u64,
        }
        impl aq_netsim::HostApp for Blaster {
            fn on_start(&mut self, ctx: &mut aq_netsim::HostCtx<'_>) {
                ctx.arm_timer_in(Duration::from_nanos(100), 0);
            }
            fn on_packet(&mut self, _ctx: &mut aq_netsim::HostCtx<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, ctx: &mut aq_netsim::HostCtx<'_>, _token: u64) {
                if self.sent < 5000 {
                    self.sent += 1;
                    ctx.send(Packet::datagram(
                        FlowId(1),
                        EntityId(1),
                        self.src,
                        self.dst,
                        1000,
                        ctx.now,
                    ));
                    ctx.arm_timer_in(Duration::from_nanos(700), 0);
                }
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let (src, dst) = (d.left[0], d.right[0]);
        net.set_app(src, Box::new(Blaster { src, dst, sent: 0 }));
        let mut sim = Simulator::new(net);
        sim.set_seed(seed);
        sim.run_until(Time::from_millis(50));
        let es = sim.stats.entity(EntityId(1)).expect("traffic");
        (
            es.rx_bytes,
            sim.processed_events,
            es.rx_series.buckets().to_vec(),
        )
    }

    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "same seed must reproduce exactly");
    let c = run(8);
    assert_eq!(a.0, c.0, "jitter must not change delivered byte counts");
}

/// A one-host simulation whose app re-arms a 100 ns timer forever.
fn ticker_sim() -> aq_netsim::Simulator {
    use aq_netsim::topology::dumbbell;

    struct Ticker;
    impl aq_netsim::HostApp for Ticker {
        fn on_start(&mut self, ctx: &mut aq_netsim::HostCtx<'_>) {
            ctx.arm_timer_in(Duration::from_nanos(100), 0);
        }
        fn on_packet(&mut self, _ctx: &mut aq_netsim::HostCtx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut aq_netsim::HostCtx<'_>, _token: u64) {
            ctx.arm_timer_in(Duration::from_nanos(100), 0);
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    let d = dumbbell(
        1,
        Rate::from_gbps(10),
        Duration::from_micros(10),
        FifoConfig::default(),
    );
    let mut net = d.net;
    net.set_app(d.left[0], Box::new(Ticker));
    aq_netsim::Simulator::new(net)
}

/// `run_until_idle(n)` fires at most `n` events: a zero budget fires none
/// (it used to underflow), and a budget of one stops after the first.
#[test]
fn run_until_idle_honours_zero_and_one_event_budgets() {
    let mut sim = ticker_sim();
    for (budget, fired) in [(0, 0), (1, 1), (1, 2), (0, 2), (3, 5)] {
        assert!(!sim.run_until_idle(budget), "the ticker never goes idle");
        assert_eq!(sim.processed_events, fired, "after a budget of {budget}");
    }
}

/// `run_until(t)` with `t` already in the past fires nothing and leaves
/// the clock alone (it used to set `now = t`, so a report captured
/// afterwards stamped the earlier time over bytes delivered later).
#[test]
fn run_until_an_earlier_time_leaves_the_clock_alone() {
    let mut sim = ticker_sim();
    sim.run_until(Time::from_nanos(450));
    let fired = sim.processed_events;
    assert!(fired >= 4, "ticks at 100..=400 ns, got {fired} events");
    sim.run_until(Time::from_nanos(250));
    assert_eq!(sim.now(), Time::from_nanos(450));
    assert_eq!(sim.processed_events, fired);
    sim.run_until(Time::from_nanos(500));
    assert_eq!(sim.now(), Time::from_nanos(500));
    assert_eq!(sim.processed_events, fired + 1);
}
