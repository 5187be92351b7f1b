//! HTB-style token-bucket shaping — the paper's *pre-determined rate
//! limiter* (PRL) baseline.
//!
//! The shaper is a [`QueueDiscipline`] installed on a host's uplink port.
//! Packets are classified into classes (by destination, or all together);
//! each class owns a token bucket refilled at its configured
//! rate, and a class may release a packet only when its bucket holds
//! enough tokens. Classes are strict: there is **no borrowing** between
//! them — this is precisely the non-work-conserving weakness of
//! pre-determined limiting that the paper's Fig. 6/7 exercise.

use aq_netsim::ids::NodeId;
use aq_netsim::packet::Packet;
use aq_netsim::queue::{DropCause, Enqueued, QueueDiscipline};
use aq_netsim::time::{Duration, Rate, Time, NS_PER_SEC};
use std::collections::{BTreeMap, VecDeque};

const SUB: u64 = 1 << 16;

/// A token bucket: `rate` tokens/s (in bytes), capped at `burst` bytes.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: Rate,
    burst_bytes: u64,
    tokens_sub: u64,
    last_refill: Time,
}

impl TokenBucket {
    /// A bucket that starts full.
    pub fn new(rate: Rate, burst_bytes: u64) -> TokenBucket {
        TokenBucket {
            rate,
            burst_bytes,
            tokens_sub: burst_bytes * SUB,
            last_refill: Time::ZERO,
        }
    }

    /// Configured rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Retarget the refill rate (used by dynamic rate limiters).
    pub fn set_rate(&mut self, now: Time, rate: Rate) {
        self.refill(now);
        self.rate = rate;
    }

    fn refill(&mut self, now: Time) {
        if now <= self.last_refill {
            return;
        }
        let delta = now - self.last_refill;
        let add = (delta.as_nanos() as u128 * self.rate.as_bps() as u128 * SUB as u128
            / (8 * NS_PER_SEC as u128)) as u64;
        self.tokens_sub = (self.tokens_sub + add).min(self.burst_bytes * SUB);
        self.last_refill = now;
    }

    /// Consume `bytes` tokens if available; returns success.
    pub fn try_consume(&mut self, now: Time, bytes: u64) -> bool {
        self.refill(now);
        if self.tokens_sub >= bytes * SUB {
            self.tokens_sub -= bytes * SUB;
            true
        } else {
            false
        }
    }

    /// Earliest time `bytes` tokens will be available (≥ `now`), or
    /// [`Time::MAX`] if they never will be (zero rate, or a request larger
    /// than the burst capacity).
    pub fn ready_time(&mut self, now: Time, bytes: u64) -> Time {
        self.refill(now);
        let need = bytes * SUB;
        if self.tokens_sub >= need {
            return now;
        }
        if self.rate.as_bps() == 0 || bytes > self.burst_bytes {
            return Time::MAX;
        }
        let deficit_sub = need - self.tokens_sub;
        let ns = (deficit_sub as u128 * 8 * NS_PER_SEC as u128)
            .div_ceil(SUB as u128 * self.rate.as_bps() as u128);
        now + Duration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }
}

/// How the shaper assigns packets to classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classify {
    /// All traffic in one class (one rate limiter for the host/VM).
    All,
    /// One class per destination host (ElasticSwitch-style VM-pair
    /// limiting).
    ByDst,
}

/// Key of a class under a given classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ClassKey {
    /// The single class of [`Classify::All`].
    All,
    /// A [`Classify::ByDst`] class.
    Dst(NodeId),
}

#[derive(Debug)]
struct HtbClass {
    bucket: TokenBucket,
    queue: VecDeque<(Packet, Time)>,
    backlog: u64,
    /// Cumulative bytes released (demand measurement for DRL).
    released_bytes: u64,
}

/// The HTB shaper discipline.
pub struct HtbShaper {
    classify: Classify,
    default_rate: Rate,
    burst_bytes: u64,
    per_class_limit: u64,
    classes: BTreeMap<ClassKey, HtbClass>,
}

impl HtbShaper {
    /// A shaper whose classes default to `default_rate`, with the given
    /// bucket burst and per-class buffer limit.
    pub fn new(
        classify: Classify,
        default_rate: Rate,
        burst_bytes: u64,
        per_class_limit: u64,
    ) -> HtbShaper {
        HtbShaper {
            classify,
            default_rate,
            burst_bytes,
            per_class_limit,
            classes: BTreeMap::new(),
        }
    }

    fn key_for(&self, pkt: &Packet) -> ClassKey {
        match self.classify {
            Classify::All => ClassKey::All,
            Classify::ByDst => ClassKey::Dst(pkt.dst),
        }
    }

    fn class_mut(&mut self, key: ClassKey) -> &mut HtbClass {
        let (rate, burst) = (self.default_rate, self.burst_bytes);
        self.classes.entry(key).or_insert_with(|| HtbClass {
            bucket: TokenBucket::new(rate, burst),
            queue: VecDeque::new(),
            backlog: 0,
            released_bytes: 0,
        })
    }

    /// Set (or pre-create with) a class's rate.
    pub(crate) fn set_class_rate(&mut self, now: Time, key: ClassKey, rate: Rate) {
        self.class_mut(key).bucket.set_rate(now, rate);
    }

    /// Current rate of a class, if it exists.
    pub fn class_rate(&self, key: ClassKey) -> Option<Rate> {
        self.classes.get(&key).map(|c| c.bucket.rate())
    }

    /// Bytes released by a class so far (demand signal for DRL).
    pub(crate) fn class_released(&self, key: ClassKey) -> u64 {
        self.classes
            .get(&key)
            .map(|c| c.released_bytes)
            .unwrap_or(0)
    }

    /// Bytes currently queued in a class (backlog = unmet demand).
    pub(crate) fn class_backlog(&self, key: ClassKey) -> u64 {
        self.classes.get(&key).map(|c| c.backlog).unwrap_or(0)
    }

    /// Keys of all classes that have carried traffic.
    pub(crate) fn class_keys(&self) -> Vec<ClassKey> {
        self.classes.keys().copied().collect()
    }
}

impl QueueDiscipline for HtbShaper {
    fn enqueue(&mut self, now: Time, pkt: Packet) -> Enqueued {
        // A packet larger than the bucket burst could never be released
        // and would wedge its class; configure burst >= MTU.
        if pkt.size as u64 > self.burst_bytes {
            return Enqueued::Dropped(pkt, DropCause::Shaper);
        }
        let key = self.key_for(&pkt);
        let limit = self.per_class_limit;
        let class = self.class_mut(key);
        if class.backlog + pkt.size as u64 > limit {
            return Enqueued::Dropped(pkt, DropCause::Shaper);
        }
        class.backlog += pkt.size as u64;
        class.queue.push_back((pkt, now));
        Enqueued::Ok
    }

    fn ready_at(&mut self, now: Time) -> Option<Time> {
        self.classes
            .values_mut()
            .filter(|c| !c.queue.is_empty())
            .map(|c| {
                let head = c.queue.front().expect("nonempty").0.size as u64;
                c.bucket.ready_time(now, head)
            })
            .min()
    }

    fn dequeue(&mut self, now: Time) -> Option<Packet> {
        // Release from the eligible class with the earliest ready time
        // (deterministic tie-break by key order).
        let mut best: Option<(Time, ClassKey)> = None;
        for (key, c) in self.classes.iter_mut() {
            if c.queue.is_empty() {
                continue;
            }
            let head = c.queue.front().expect("nonempty").0.size as u64;
            let t = c.bucket.ready_time(now, head);
            if t <= now && best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, *key));
            }
        }
        let (_, key) = best?;
        let class = self.classes.get_mut(&key).expect("chosen above");
        let (mut pkt, enq_at) = class.queue.pop_front().expect("nonempty");
        let consumed = class.bucket.try_consume(now, pkt.size as u64);
        debug_assert!(consumed, "ready_time promised tokens");
        class.backlog -= pkt.size as u64;
        class.released_bytes += pkt.size as u64;
        pkt.pq_delay_ns += now.since(enq_at).as_nanos();
        Some(pkt)
    }

    fn backlog_bytes(&self) -> u64 {
        self.classes.values().map(|c| c.backlog).sum()
    }

    fn backlog_pkts(&self) -> usize {
        self.classes.values().map(|c| c.queue.len()).sum()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_netsim::ids::{EntityId, FlowId};

    fn pkt(dst: u32) -> Packet {
        Packet::data(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(dst),
            0,
            1000,
            false,
            Time::ZERO,
        )
    }

    #[test]
    fn bucket_paces_to_rate() {
        // 1 Gbps, burst = one packet.
        let mut b = TokenBucket::new(Rate::from_gbps(1), 1060);
        assert!(b.try_consume(Time::ZERO, 1060));
        assert!(!b.try_consume(Time::ZERO, 1060));
        // 1060 bytes at 1 Gbps take 8480 ns to refill.
        assert_eq!(b.ready_time(Time::ZERO, 1060), Time::from_nanos(8480));
        assert!(b.try_consume(Time::from_nanos(8480), 1060));
    }

    #[test]
    fn bucket_caps_at_burst() {
        let mut b = TokenBucket::new(Rate::from_gbps(1), 2000);
        // After a long idle period, tokens cap at the burst size.
        assert!(b.try_consume(Time::from_secs(10), 2000));
        assert!(!b.try_consume(Time::from_secs(10), 1));
    }

    #[test]
    fn zero_rate_class_never_releases() {
        let mut b = TokenBucket::new(Rate::ZERO, 0);
        assert_eq!(b.ready_time(Time::ZERO, 100), Time::MAX);
    }

    #[test]
    fn shaper_releases_at_class_rate() {
        let mut s = HtbShaper::new(Classify::All, Rate::from_gbps(1), 1060, 1_000_000);
        for _ in 0..3 {
            assert!(matches!(s.enqueue(Time::ZERO, pkt(2)), Enqueued::Ok));
        }
        // First packet: burst tokens available immediately.
        assert_eq!(s.ready_at(Time::ZERO), Some(Time::ZERO));
        assert!(s.dequeue(Time::ZERO).is_some());
        // Second must wait one serialization-at-1Gbps interval.
        let t2 = s.ready_at(Time::ZERO).expect("queued");
        assert_eq!(t2, Time::from_nanos(8480));
        assert!(s.dequeue(Time::ZERO).is_none());
        assert!(s.dequeue(t2).is_some());
    }

    #[test]
    fn classes_do_not_borrow() {
        let mut s = HtbShaper::new(Classify::ByDst, Rate::from_gbps(1), 1060, 1_000_000);
        s.enqueue(Time::ZERO, pkt(2));
        s.enqueue(Time::ZERO, pkt(2));
        // Destination 2 exhausted its burst after one packet; 3 is idle.
        assert!(s.dequeue(Time::ZERO).is_some());
        // Even though destination 3's bucket is full, 2 cannot use it.
        assert!(s.dequeue(Time::ZERO).is_none());
        let t = s.ready_at(Time::ZERO).expect("queued");
        assert_eq!(t, Time::from_nanos(8480));
    }

    #[test]
    fn by_dst_classification_separates_destinations() {
        let mut s = HtbShaper::new(Classify::ByDst, Rate::from_gbps(1), 1060, 1_000_000);
        s.enqueue(Time::ZERO, pkt(2));
        s.enqueue(Time::ZERO, pkt(3));
        // Both destinations have their own burst: both release at t=0.
        assert!(s.dequeue(Time::ZERO).is_some());
        assert!(s.dequeue(Time::ZERO).is_some());
        assert_eq!(s.class_keys().len(), 2);
    }

    #[test]
    fn per_class_buffer_taildrops() {
        let mut s = HtbShaper::new(Classify::All, Rate::from_gbps(1), 1060, 2120);
        assert!(matches!(s.enqueue(Time::ZERO, pkt(2)), Enqueued::Ok));
        assert!(matches!(s.enqueue(Time::ZERO, pkt(2)), Enqueued::Ok));
        assert!(matches!(
            s.enqueue(Time::ZERO, pkt(2)),
            Enqueued::Dropped(_, DropCause::Shaper)
        ));
    }

    #[test]
    fn set_class_rate_applies_from_now() {
        let mut s = HtbShaper::new(Classify::All, Rate::from_gbps(1), 1060, 1_000_000);
        s.enqueue(Time::ZERO, pkt(2));
        s.enqueue(Time::ZERO, pkt(2));
        s.dequeue(Time::ZERO);
        s.set_class_rate(Time::ZERO, ClassKey::All, Rate::from_gbps(2));
        // Refill now happens at 2 Gbps: 4240 ns instead of 8480.
        assert_eq!(s.ready_at(Time::ZERO), Some(Time::from_nanos(4240)));
    }
}
