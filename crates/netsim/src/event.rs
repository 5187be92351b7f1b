//! The deterministic event queue.
//!
//! Events are ordered by `(time, sequence)` where the sequence number is the
//! order of insertion; ties in time therefore resolve in FIFO order and a
//! run is exactly reproducible given the same inputs and seed.
//!
//! The scheduler is a 3-level hierarchical timing wheel with 256 slots per
//! level (1.024 µs grain, ~17 s span) and a sorted `BTreeMap` overflow for
//! events beyond the current ~17 s epoch. Pushes beyond the current slot
//! are O(1); the current slot's events sit in a cursor-tracked sorted run,
//! so pops are O(1) and same-slot pushes later than all pending events (the
//! common case) append in O(1). Discrete-event workloads cluster events
//! tightly in time, so slots stay small and the wheel beats a comparison
//! heap's O(log n)-of-everything per operation.
//!
//! The wheel must pop in exactly the global `(time, seq)` order a binary
//! heap over the same keys would. That reference lives in two places: a
//! model local to `tests/prop_scheduler.rs`, and — under the `invariants`
//! feature — a key-only shadow heap inside [`EventQueue`] that every `pop`
//! of every run is asserted against.

use crate::ids::{AgentId, LinkId, NodeId, PortId};
use crate::packet::PacketRef;
use crate::time::Time;
use std::collections::BTreeMap;
#[cfg(feature = "invariants")]
use std::{cmp::Reverse, collections::BinaryHeap};

/// Sequence-number band for `Arrive` events. Arrivals do not draw from
/// the insertion counter: their sequence number is computed from the
/// launching link's identity and per-link launch count (see
/// [`arrive_seq`]), so it is *intrinsic* to the packet — a sharded run
/// delivering the same arrival into a different shard's queue reproduces
/// the exact same `(time, seq)` key, and therefore the exact same
/// tie-break, as the single-threaded reference engine. The band's high
/// bit puts every arrival *after* all same-time non-arrival events, in
/// both engines, regardless of push order.
pub const SEQ_BAND_ARRIVE: u64 = 1 << 63;

/// Bits reserved for the per-link launch counter inside an arrive seq.
const ARRIVE_COUNT_BITS: u32 = 40;

/// The intrinsic sequence number of the `count`-th packet launched onto
/// `link` (see [`SEQ_BAND_ARRIVE`]). Same-time arrivals order by
/// `(link, launch count)` — a total, engine-independent order.
pub fn arrive_seq(link: LinkId, count: u64) -> u64 {
    debug_assert!(count < (1 << ARRIVE_COUNT_BITS), "launch counter overflow");
    SEQ_BAND_ARRIVE | ((link.0 as u64) << ARRIVE_COUNT_BITS) | count
}

/// What happens when an event fires.
#[derive(Debug, Clone, Copy)]
pub enum EventKind {
    /// A packet finishes propagating over a link and arrives at `node`.
    Arrive {
        /// The receiving node.
        node: NodeId,
        /// The arriving packet, checked out of the simulator's
        /// [`PacketArena`](crate::packet::PacketArena).
        packet: PacketRef,
        /// The link the packet propagated over.
        link: LinkId,
    },
    /// The transmitter of `port` finishes serializing its current packet.
    TxComplete {
        /// The transmitting port.
        port: PortId,
    },
    /// A shaped port reaches its next release time and should re-check its
    /// queue discipline.
    PortWake {
        /// The port to re-check.
        port: PortId,
    },
    /// A timer armed by node application logic fires; `token` is opaque to
    /// the simulator.
    NodeTimer {
        /// The node whose app armed the timer.
        node: NodeId,
        /// Opaque token chosen by the app when arming.
        token: u64,
    },
    /// A timer armed by a control-plane agent fires.
    AgentTimer {
        /// The agent that armed the timer.
        agent: AgentId,
        /// Opaque token chosen by the agent when arming.
        token: u64,
    },
    /// A scheduled fault from the installed
    /// [`FaultPlan`](crate::fault::FaultPlan) fires.
    Fault {
        /// Index of the fault in the plan's event list.
        index: usize,
    },
    /// A scheduled control-plane churn event from the installed
    /// [`ChurnPlan`](crate::churn::ChurnPlan) fires.
    Churn {
        /// Index of the event in the plan's event list.
        index: usize,
    },
}

/// A scheduled event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// When the event fires.
    pub time: Time,
    /// Insertion order; breaks time ties deterministically.
    pub seq: u64,
    /// The action.
    pub kind: EventKind,
}

/// Slots per wheel level (2^8).
const SLOTS: usize = 256;
/// `u64` words per level occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// Wheel levels.
const LEVELS: usize = 3;
/// Bit shift of each level's slot grain: level 0 slots are 2^10 ns
/// (1.024 µs) wide, level 1 slots 2^18 ns (262 µs), level 2 slots
/// 2^26 ns (67 ms).
const SHIFT: [u32; LEVELS] = [10, 18, 26];
/// Everything at or beyond 2^34 ns (~17.2 s) from the epoch base lives in
/// the sorted overflow map.
const EPOCH_SHIFT: u32 = 34;

/// The pending-event set: a hierarchical timing wheel.
///
/// Invariants (maintained by `place`/`refill`):
///
/// * `batch[cursor..]` holds every pending event whose level-0 slot is at
///   or before the current position (`pos >> SHIFT[0]`), sorted
///   *ascending* by `(time, seq)`; `batch[..cursor]` are already-popped
///   events awaiting bulk reclamation. Popping reads at the cursor in
///   O(1), and a same-slot push later than everything pending (the
///   common case: a port's next `TxComplete`, a timer armed for later in
///   the slot) appends in O(1) — only an out-of-order same-slot push
///   pays an ordered insert;
/// * a level-`L` slot only holds events inside the current level-`L+1`
///   window but beyond the current level-`L` slot, so per-level slot
///   indices of pending events are always >= the current index;
/// * `overflow` only holds events in future epochs.
///
/// Together these mean the next event is always `batch[cursor]`, and when
/// the batch drains, the earliest remaining event is in the lowest
/// occupied slot of the lowest non-empty level (or the overflow head) —
/// which is exactly what `refill` cascades from.
pub struct EventQueue {
    /// Current wheel position in nanoseconds; `pos >> SHIFT[0]` is the
    /// slot the batch covers. Never decreases.
    pos: u64,
    /// Front buffer: the current slot's events, ascending `(time, seq)`
    /// from `cursor` on.
    batch: Vec<Event>,
    /// Index of the next unpopped event in `batch`.
    cursor: usize,
    /// `LEVELS * SLOTS` slot buckets, level-major.
    slots: Vec<Vec<Event>>,
    /// Per-level slot occupancy bitmaps.
    occ: [[u64; WORDS]; LEVELS],
    /// Far-future events, keyed by `(time ns, seq)`.
    overflow: BTreeMap<(u64, u64), EventKind>,
    /// Total pending events across batch, slots, and overflow.
    len: usize,
    /// Insertion counter: the `seq` of the next [`push`](EventQueue::push).
    next_seq: u64,
    /// Reference model: the `(time, seq)` key of every pending event in a
    /// binary heap; each `pop` must return the heap's minimum.
    #[cfg(feature = "invariants")]
    shadow: BinaryHeap<Reverse<(Time, u64)>>,
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue {
            pos: 0,
            batch: Vec::new(),
            cursor: 0,
            slots: std::iter::repeat_with(Vec::new)
                .take(LEVELS * SLOTS)
                .collect(),
            occ: [[0; WORDS]; LEVELS],
            overflow: BTreeMap::new(),
            len: 0,
            next_seq: 0,
            #[cfg(feature = "invariants")]
            shadow: BinaryHeap::new(),
        }
    }

    /// File an event into the batch, a wheel slot, or the overflow,
    /// according to its time relative to the current position. Used by
    /// both fresh pushes and re-placement during cascades (the event's
    /// original `seq` is preserved).
    fn place(&mut self, ev: Event) {
        let t = ev.time.as_nanos();
        if (t >> SHIFT[0]) <= (self.pos >> SHIFT[0]) {
            // Current slot (or a past-due timer): into the sorted batch.
            // The `(time, seq)` key is unique, so order is total and
            // equal-time events still pop FIFO by insertion seq.
            let key = (ev.time, ev.seq);
            if self.batch.last().is_none_or(|e| (e.time, e.seq) < key) {
                self.batch.push(ev);
            } else {
                let at = self.cursor
                    + self.batch[self.cursor..].partition_point(|e| (e.time, e.seq) < key);
                self.batch.insert(at, ev);
            }
            return;
        }
        for level in 0..LEVELS {
            let parent_shift = if level + 1 < LEVELS {
                SHIFT[level + 1]
            } else {
                EPOCH_SHIFT
            };
            if (t >> parent_shift) == (self.pos >> parent_shift) {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "masked to SLOTS - 1, so the slot index is < SLOTS"
                )]
                let idx = ((t >> SHIFT[level]) & (SLOTS as u64 - 1)) as usize;
                self.slots[level * SLOTS + idx].push(ev);
                self.occ[level][idx / 64] |= 1u64 << (idx % 64);
                return;
            }
        }
        self.overflow.insert((t, ev.seq), ev.kind);
    }

    /// Lowest occupied slot index >= `from` at `level`, if any.
    fn next_occupied(&self, level: usize, from: usize) -> Option<usize> {
        if from >= SLOTS {
            return None;
        }
        let mut word = from / 64;
        let mut bits = self.occ[level][word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= WORDS {
                return None;
            }
            bits = self.occ[level][word];
        }
    }

    /// Detach slot `idx` of `level`, clearing its occupancy bit. The
    /// caller returns the (drained) `Vec` via `restore_slot` to recycle
    /// its capacity.
    fn take_slot(&mut self, level: usize, idx: usize) -> Vec<Event> {
        self.occ[level][idx / 64] &= !(1u64 << (idx % 64));
        std::mem::take(&mut self.slots[level * SLOTS + idx])
    }

    fn restore_slot(&mut self, level: usize, idx: usize, empty: Vec<Event>) {
        debug_assert!(empty.is_empty());
        self.slots[level * SLOTS + idx] = empty;
    }

    /// Refill the batch from the wheel when it runs dry: advance to the
    /// next occupied level-0 slot, cascading parent slots (and finally
    /// the overflow's next epoch) down as the position crosses their
    /// windows.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "each `cur` is masked to SLOTS - 1, so the slot index is < SLOTS"
    )]
    fn refill(&mut self) {
        loop {
            if self.cursor < self.batch.len() || self.len == 0 {
                return;
            }
            self.batch.clear();
            self.cursor = 0;
            let cur0 = ((self.pos >> SHIFT[0]) & (SLOTS as u64 - 1)) as usize;
            if let Some(idx) = self.next_occupied(0, cur0) {
                // Enter the slot: its events become the new batch.
                self.pos = (self.pos >> SHIFT[1] << SHIFT[1]) | ((idx as u64) << SHIFT[0]);
                let mut v = self.take_slot(0, idx);
                self.batch.append(&mut v);
                self.batch.sort_unstable_by_key(|e| (e.time, e.seq));
                self.restore_slot(0, idx, v);
                continue;
            }
            let cur1 = ((self.pos >> SHIFT[1]) & (SLOTS as u64 - 1)) as usize;
            if let Some(idx) = self.next_occupied(1, cur1 + 1) {
                self.pos = (self.pos >> SHIFT[2] << SHIFT[2]) | ((idx as u64) << SHIFT[1]);
                self.cascade(1, idx);
                continue;
            }
            let cur2 = ((self.pos >> SHIFT[2]) & (SLOTS as u64 - 1)) as usize;
            if let Some(idx) = self.next_occupied(2, cur2 + 1) {
                self.pos = (self.pos >> EPOCH_SHIFT << EPOCH_SHIFT) | ((idx as u64) << SHIFT[2]);
                self.cascade(2, idx);
                continue;
            }
            // Wheels empty: pull the overflow's next epoch in.
            let Some((&(t, _), _)) = self.overflow.first_key_value() else {
                unreachable!("len > 0 but batch, slots, and overflow are all empty");
            };
            let epoch = t >> EPOCH_SHIFT;
            self.pos = epoch << EPOCH_SHIFT;
            while let Some((&(t, _), _)) = self.overflow.first_key_value() {
                if (t >> EPOCH_SHIFT) != epoch {
                    break;
                }
                let ((t, seq), kind) = self.overflow.pop_first().expect("head exists");
                self.place(Event {
                    time: Time::from_nanos(t),
                    seq,
                    kind,
                });
            }
        }
    }

    /// Re-place every event of a parent slot now that the position
    /// entered its window; they land in lower levels (or the batch).
    fn cascade(&mut self, level: usize, idx: usize) {
        let mut v = self.take_slot(level, idx);
        for ev in v.drain(..) {
            self.place(ev);
        }
        self.restore_slot(level, idx, v);
    }

    /// Count `ev` as pending and file it (fresh pushes only; cascades
    /// call `place` directly).
    fn insert(&mut self, ev: Event) {
        self.len += 1;
        #[cfg(feature = "invariants")]
        self.shadow.push(Reverse((ev.time, ev.seq)));
        self.place(ev);
    }

    /// Schedule `kind` to fire at `time`.
    pub fn push(&mut self, time: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(
            seq < SEQ_BAND_ARRIVE,
            "insertion counter ran into the arrive band"
        );
        self.insert(Event { time, seq, kind });
    }

    /// Schedule `kind` at `time` under an explicit, caller-computed
    /// sequence number (an [`arrive_seq`] band value). The insertion
    /// counter is not consumed, so the key is identical no matter which
    /// queue — or which shard's queue — the event is pushed into.
    pub fn push_with_seq(&mut self, time: Time, seq: u64, kind: EventKind) {
        debug_assert!(seq >= SEQ_BAND_ARRIVE, "explicit seqs must be banded");
        self.insert(Event { time, seq, kind });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.refill();
        let ev = self.batch.get(self.cursor).copied();
        #[cfg(feature = "invariants")]
        assert_eq!(
            ev.map(|e| (e.time, e.seq)),
            self.shadow.pop().map(|Reverse(key)| key),
            "invariant violated: wheel pop diverged from the reference heap"
        );
        let ev = ev?;
        self.cursor += 1;
        self.len -= 1;
        Some(ev)
    }

    /// Time of the earliest pending event, if any. Takes `&mut self`
    /// because the wheel may advance its front buffer to answer.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.refill();
        self.batch.get(self.cursor).map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake(p: u32) -> EventKind {
        EventKind::PortWake { port: PortId(p) }
    }

    /// Drain `q` fully, returning `(time, port)` pairs in pop order.
    fn drain(q: &mut EventQueue) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::PortWake { port } => (e.time.as_nanos(), port.0),
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(30), wake(3));
        q.push(Time::from_nanos(10), wake(1));
        q.push(Time::from_nanos(20), wake(2));
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(Time::from_nanos(5), wake(i));
        }
        let want: Vec<(u64, u32)> = (0..100u32).map(|i| (5, i)).collect();
        assert_eq!(drain(&mut q), want);
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_nanos(7), wake(0));
        q.push(Time::from_nanos(3), wake(0));
        assert_eq!(q.peek_time(), Some(Time::from_nanos(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pops_sorted_across_level_boundaries() {
        // Times straddling every wheel boundary: slot edges, level-1/2
        // windows, and the ~17 s epoch (overflow) — pushed latest first.
        let times: Vec<u64> = vec![
            0,
            1,
            1023,
            1024,
            1025,
            (1 << 18) - 1,
            1 << 18,
            (1 << 18) + 1,
            (1 << 26) - 1,
            1 << 26,
            (1 << 26) + 1,
            (1 << 34) - 1,
            1 << 34,
            (1 << 34) + 1,
            (1 << 34) + (1 << 26) + (1 << 18) + 1024 + 1,
            3 << 34,
            u64::from(u32::MAX) * 16,
        ];
        let want: Vec<(u64, u32)> = times.iter().copied().zip(0u32..).collect();
        let mut q = EventQueue::new();
        for &(t, idx) in want.iter().rev() {
            q.push(Time::from_nanos(t), wake(idx));
        }
        assert_eq!(drain(&mut q), want);
    }

    /// The netsim crate's own exercise of the shadow-heap assertion in
    /// [`EventQueue::pop`]: a deterministic pseudo-random interleaving of
    /// pops and pushes (times drifting forward like a simulation, deltas
    /// landing in the batch, on each of the three wheel levels, and in the
    /// overflow). Every instant gets an arrive-band event pushed *before*
    /// an insertion-counter one, so each slot drain has a cross-band tie
    /// that only the `seq` half of the key orders. Every pop is checked
    /// against the reference heap.
    #[test]
    #[cfg_attr(not(feature = "invariants"), ignore = "needs --features invariants")]
    fn shadow_heap_agrees_under_interleaved_push_pop_on_every_level() {
        let mut q = EventQueue::new();
        let mut x: u64 = 0x9E37_79B9;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let mut now = 0u64;
        for round in 0..2000u32 {
            // Same slot, level 0, level 1, level 2, next epoch(s).
            let span = [1 << 9, 1 << 17, 1 << 25, 1 << 33, 1 << 36][(step() % 5) as usize];
            let t = Time::from_nanos(now + step() % span);
            q.push_with_seq(t, arrive_seq(LinkId(0), u64::from(round)), wake(round));
            q.push(t, wake(round));
            if round % 3 == 0 {
                now = q.pop().expect("just pushed").time.as_nanos().max(now);
            }
        }
        assert_eq!(q.len(), 2 * 2000 - 2000usize.div_ceil(3));
        while q.pop().is_some() {}
        assert!(q.is_empty());
    }

    #[test]
    fn past_due_events_pop_first() {
        // A timer armed in the past (relative to the wheel position) must
        // pop before everything else, as from a heap.
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(500_000), wake(1));
        assert_eq!(q.pop().expect("event").time.as_nanos(), 500_000);
        q.push(Time::from_nanos(600_000), wake(2));
        q.push(Time::from_nanos(10), wake(3)); // past-due
        assert_eq!(drain(&mut q), vec![(10, 3), (600_000, 2)]);
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = EventQueue::new();
        let far = (1u64 << 34) * 5 + 12_345;
        q.push(Time::from_nanos(far), wake(9));
        q.push(Time::from_nanos(far), wake(10)); // FIFO inside overflow
        q.push(Time::from_nanos(3), wake(1));
        assert_eq!(drain(&mut q), vec![(3, 1), (far, 9), (far, 10)]);
        assert!(q.is_empty());
    }
}
