//! Property: the timing-wheel [`EventQueue`] pops in exactly the order a
//! binary heap over `(time, seq)` would. For any interleaving of pushes
//! and pops the wheel and the reference model below must emit the same
//! `(time, seq, payload)` stream. (With `--features invariants` the same
//! check runs inside `EventQueue::pop` on every test in the workspace.)
//!
//! The generated schedules deliberately cross every structural boundary
//! of the wheel: same-slot bursts (level-0 ties), deltas that land on
//! levels 1 and 2, deltas past the wheel horizon (`>= 2^34` ns) that take
//! the sorted-overflow path, and pops interleaved mid-stream so refills
//! happen while later pushes are still arriving. A second property keeps
//! a standing population for tens of thousands of pop/push cycles, so the
//! wheel's slot-chain nodes are freed and reused many times over.

use aq_netsim::event::{arrive_seq, EventKind, EventQueue};
use aq_netsim::ids::{LinkId, NodeId};
use aq_netsim::time::Time;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference scheduler: a binary heap keyed `(time, seq)` carrying the
/// test's payload token, mirroring `EventQueue`'s insertion counter and
/// `push_with_seq`.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(Time, u64, u64)>>,
    next_seq: u64,
}

impl HeapModel {
    fn push(&mut self, time: Time, token: u64) {
        self.heap.push(Reverse((time, self.next_seq, token)));
        self.next_seq += 1;
    }
    fn push_with_seq(&mut self, time: Time, seq: u64, token: u64) {
        self.heap.push(Reverse((time, seq, token)));
    }
    fn pop(&mut self) -> Option<(Time, u64, u64)> {
        self.heap.pop().map(|Reverse(key)| key)
    }
    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((time, ..))| *time)
    }
}

fn timer(token: u64) -> EventKind {
    EventKind::NodeTimer {
        node: NodeId(0),
        token,
    }
}

/// Pop the wheel, flattened to the model's `(time, seq, token)` key.
fn pop_key(wheel: &mut EventQueue) -> Option<(Time, u64, u64)> {
    wheel.pop().map(|e| match e.kind {
        EventKind::NodeTimer { token, .. } => (e.time, e.seq, token),
        other => panic!("test pushed only NodeTimer events, got {other:?}"),
    })
}

/// One wheel epoch: events at or beyond this many nanoseconds from the
/// epoch base live in the sorted-overflow map until a refill pulls their
/// epoch in.
const EPOCH_NS: u64 = 1 << 34;

/// Decode one generated op word into a time delta. The low bits select a
/// scale class so all wheel levels and the overflow map get traffic:
/// same-instant ties, sub-microsecond (level 0), sub-millisecond
/// (level 1), sub-20-second (level 2), and past-horizon (overflow;
/// the wheel spans `2^34` ns ≈ 17 s per epoch).
fn delta_ns(word: u64) -> u64 {
    let magnitude = word >> 3;
    match word & 0b111 {
        0 => 0,
        1 | 2 => magnitude & 0x3FF,                    // < 2^10: level 0
        3 | 4 => magnitude & 0x3_FFFF,                 // < 2^18: level 1
        5 | 6 => magnitude & 0x3_FFFF_FFFF,            // < 2^34: level 2
        _ => (magnitude & 0xFF_FFFF_FFFF) | (1 << 34), // overflow / next epoch
    }
}

/// Pop `n` events from both queues, checking each popped pair matches in
/// full (time, sequence number, and the opaque payload token), and
/// advance the property machine's clock to the latest popped time — the
/// simulator never schedules into the past, so neither does this test.
fn pop_and_compare(
    wheel: &mut EventQueue,
    heap: &mut HeapModel,
    n: usize,
    now: &mut u64,
) -> Result<(), TestCaseError> {
    for _ in 0..n {
        let (a, b) = (pop_key(wheel), heap.pop());
        prop_assert_eq!(a, b, "wheel diverged from the reference heap");
        let Some((time, ..)) = a else {
            return Ok(());
        };
        *now = (*now).max(time.as_nanos());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Any interleaving of pushes (across all wheel levels, ties, and the
    /// overflow horizon) and pops yields the identical event stream from
    /// the wheel and the model, and draining at the end agrees on every
    /// leftover.
    #[test]
    fn wheel_and_heap_model_pop_identically(
        ops in prop::collection::vec(0u64..u64::MAX, 1..250),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapModel::default();
        // Simulator clock: pushes are never scheduled in the past, so the
        // property machine keeps `now` at the latest popped time just as
        // `Simulator::run_until` does.
        let mut now = 0u64;
        let mut arrive_count = 0u64;
        for (i, &word) in ops.iter().enumerate() {
            // Three in four ops push; one in four pops a small burst.
            if word & 0b11 != 0b11 {
                // One in sixteen pushes snaps to an *exact* epoch
                // boundary (a multiple of 2^34 ns) — the overflow-drain
                // edge where an off-by-one in the epoch comparison would
                // strand or resurrect events.
                let t_ns = if (word >> 2) & 0b1111 == 0b1000 {
                    ((now >> 34) + 1 + ((word >> 6) & 0b11)) << 34
                } else {
                    now + delta_ns(word >> 2)
                };
                let t = Time::from_nanos(t_ns);
                let token = i as u64;
                // One in eight pushes carries an arrive-band sequence
                // number (intrinsic, not from the insertion counter), so
                // the overflow map's `(time, seq)` keys mix both bands
                // exactly like a sharded fabric's queues do.
                if (word >> 2) & 0b111 == 0b101 {
                    let link = LinkId(u32::try_from((word >> 5) & 0b11).expect("two bits"));
                    let seq = arrive_seq(link, arrive_count);
                    arrive_count += 1;
                    wheel.push_with_seq(t, seq, timer(token));
                    heap.push_with_seq(t, seq, token);
                } else {
                    wheel.push(t, timer(token));
                    heap.push(t, token);
                }
                prop_assert_eq!(wheel.len(), heap.heap.len());
            } else {
                let burst = ((word >> 2) & 0b111) as usize;
                pop_and_compare(&mut wheel, &mut heap, burst, &mut now)?;
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            }
        }
        // Drain both to empty: whatever is left must also stream out in
        // identical order.
        pop_and_compare(&mut wheel, &mut heap, usize::MAX, &mut now)?;
        prop_assert!(wheel.is_empty() && heap.heap.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// A standing population of 64–512 events replayed for 10–50 k
    /// cycles the way `Simulator::run_until` drives the wheel: peek, pop
    /// the earliest event, advance the clock to it, and let its handler
    /// schedule 0–2 events ahead of the new time. The population drifts
    /// between half and twice its standing size; each case draws its own
    /// mix of ties and level-0, level-1, level-2 and past-epoch deltas.
    /// The wheel and the model must agree on every peek and every pop.
    #[test]
    fn standing_population_replays_identically_over_long_runs(
        standing in 64usize..513,
        cycles in 10_000usize..50_001,
        seed in any::<u64>(),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapModel::default();
        let mut x = seed | 1;
        let mut draw = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Class weights: tie, level 0, level 1, level 2, past the epoch
        // (rare, or the population would soon all sit in the overflow).
        let mix = draw();
        let weights = [
            mix & 0b11,
            1 + ((mix >> 2) & 0b111),
            1 + ((mix >> 5) & 0b1111),
            (mix >> 9) & 0b111,
            (mix >> 12) & 0b1,
        ];
        let total: u64 = weights.iter().sum();
        let delta = move |r: u64| {
            let mut pick = (r >> 5) % total;
            let magnitude = r >> 16;
            for (class, &w) in weights.iter().enumerate() {
                if pick < w {
                    return match class {
                        0 => 0,
                        1 => magnitude % (1 << 10),
                        2 => magnitude % (1 << 18),
                        3 => magnitude % (1 << 28),
                        _ => EPOCH_NS + magnitude % EPOCH_NS,
                    };
                }
                pick -= w;
            }
            unreachable!("pick < total")
        };
        let (mut now, mut token, mut arrive_count) = (0u64, 0u64, 0u64);
        let mut schedule = |wheel: &mut EventQueue, heap: &mut HeapModel, now: u64| {
            let r = draw();
            let t = Time::from_nanos(now + delta(r));
            token += 1;
            if r & 0b111 == 0b101 {
                let link = LinkId(u32::try_from((r >> 3) & 0b11).expect("two bits"));
                let seq = arrive_seq(link, arrive_count);
                arrive_count += 1;
                wheel.push_with_seq(t, seq, timer(token));
                heap.push_with_seq(t, seq, token);
            } else {
                wheel.push(t, timer(token));
                heap.push(t, token);
            }
        };
        for _ in 0..standing {
            schedule(&mut wheel, &mut heap, now);
        }
        for cycle in 0..cycles {
            prop_assert_eq!(wheel.peek_time(), heap.peek_time(), "cycle {}", cycle);
            let (a, b) = (pop_key(&mut wheel), heap.pop());
            prop_assert_eq!(a, b, "wheel diverged from the reference heap, cycle {}", cycle);
            let Some((time, ..)) = a else {
                break;
            };
            now = time.as_nanos();
            let pushes = match wheel.len() {
                n if n <= standing / 2 => 2,
                n if n >= standing * 2 => 0,
                // A zero-mean random walk, keyed off the popped time.
                _ => [0, 1, 1, 2][usize::try_from((now >> 4) % 4).expect("< 4")],
            };
            for _ in 0..pushes {
                schedule(&mut wheel, &mut heap, now);
            }
            prop_assert_eq!(wheel.len(), heap.heap.len());
        }
        pop_and_compare(&mut wheel, &mut heap, usize::MAX, &mut now)?;
        prop_assert!(wheel.is_empty() && heap.heap.is_empty());
    }
}

/// Events exactly *on* the 2^34 ns epoch boundary, one tick either side
/// of it, and same-time ties mixing insertion-counter and arrive-band
/// sequence numbers: the wheel's overflow drain must reproduce the
/// reference heap's `(time, seq)` stream event for event. An epoch
/// comparison that used `>` instead of `>=` (or vice versa) would either
/// strand a boundary event in the overflow or pull it a whole epoch
/// early, and a drain that re-sorted by time alone would break the
/// insertion-before-arrival tie-break.
#[test]
fn epoch_boundary_events_drain_in_reference_order() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapModel::default();

    // Straddle three consecutive epoch boundaries in scrambled push
    // order; every time gets both an insertion-seq and an arrive-band
    // event, so each instant has a cross-band tie to break.
    let mut times = Vec::new();
    for k in [1u64, 3, 2] {
        for dt in [0i64, 1, -1] {
            times.push(k.wrapping_mul(EPOCH_NS).wrapping_add_signed(dt));
        }
    }
    for (i, &t) in times.iter().enumerate() {
        let (time, i) = (Time::from_nanos(t), i as u64);
        let seq = arrive_seq(LinkId(7), i);
        wheel.push(time, timer(i));
        heap.push(time, i);
        wheel.push_with_seq(time, seq, timer(1000 + i));
        heap.push_with_seq(time, seq, 1000 + i);
    }
    // A near event forces the wheel to run entirely inside epoch 0
    // first, so every boundary event above takes the overflow path and
    // the drains below exercise three separate epoch pulls.
    wheel.push(Time::from_nanos(5), timer(999));
    heap.push(Time::from_nanos(5), 999);

    let mut popped = 0usize;
    loop {
        let (a, b) = (pop_key(&mut wheel), heap.pop());
        assert_eq!(a, b, "wheel diverged from the reference at pop {popped}");
        if a.is_none() {
            break;
        }
        popped += 1;
    }
    assert_eq!(
        popped,
        times.len() * 2 + 1,
        "no event stranded or duplicated"
    );
}

/// A burst of same-time events exactly on an epoch boundary pops with
/// every insertion-counter event before every arrive-band event, in
/// FIFO order within each band. This is the exact tie-break the sharded
/// engine's determinism proof leans on, probed at the one instant where
/// the wheel hands over between its overflow map and its slot hierarchy.
#[test]
fn boundary_ties_order_insertions_before_arrivals() {
    let mut q = EventQueue::new();
    let t = Time::from_nanos(2 * EPOCH_NS);
    // Interleave the bands on push so pop order cannot be an accident of
    // push order.
    for i in 0..4u64 {
        q.push_with_seq(t, arrive_seq(LinkId(3), i), timer(100 + i));
        q.push(t, timer(i));
    }
    let tokens: Vec<u64> = std::iter::from_fn(|| pop_key(&mut q))
        .map(|(.., token)| token)
        .collect();
    assert_eq!(
        tokens,
        vec![0, 1, 2, 3, 100, 101, 102, 103],
        "insertion band must pop before the arrive band, FIFO within each"
    );
}
