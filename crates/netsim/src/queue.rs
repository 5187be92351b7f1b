//! Queue disciplines for output ports.
//!
//! The default discipline is the paper's *physical queue* (PQ): a FIFO with
//! a byte limit (taildrop) and an optional instantaneous-queue ECN marking
//! threshold, exactly the drop/mark behaviour DCTCP-style data center
//! switches expose. Alternative disciplines (HTB shaping) implement
//! [`QueueDiscipline`] in the `aq-baselines` crate and plug into the same
//! port.
//!
//! The PQ and the AQM zoo of the shared-buffer experiments are one FIFO,
//! [`Fifo`], with three arrival rules ([`MarkRule`]) that pass, CE-mark or
//! drop an arrival under the byte limit: [`EcnThreshold`] ([`FifoQueue`],
//! the PQ), [`DisaggRed`] ([`DisaggRedQueue`]: iRED-style disaggregated
//! RED, where the congestion *decision* made on one arrival is *acted on*
//! at a later arrival) and [`L4sStep`] ([`L4sStepQueue`]: L4S-style
//! step/ramp instantaneous marking). The last two are deterministic: where
//! classic RED would draw a random number, they accumulate the marking
//! probability in a fixed-point credit and fire when it crosses one —
//! error-diffusion dithering, bit-identical across runs.

use crate::packet::Packet;
use crate::time::Time;
use std::collections::VecDeque;

// Declares `DropCause` together with everything that must stay in step
// with its variant list: `DropCause::ALL`, the per-port counter each cause
// moves (`DropCause::counter`) and the read side of that counter
// (`PortStats::drop_count`). The counter is named by the `PortStats` field
// itself, so a cause without a counter does not compile.
macro_rules! drop_causes {
    ($(#[$enum_doc:meta])* pub enum DropCause {
        $($(#[$doc:meta])* $variant:ident => $counter:ident,)*
    }) => {
        $(#[$enum_doc])*
        pub enum DropCause {
            $($(#[$doc])* $variant,)*
        }

        impl DropCause {
            /// Every cause, in declaration order.
            pub const ALL: &'static [DropCause] = &[$(DropCause::$variant,)*];

            /// Name of the [`PortStats`](crate::stats::PortStats) counter
            /// (and report column) that accounts for this cause.
            pub const fn counter(self) -> &'static str {
                match self {
                    $(DropCause::$variant => stringify!($counter),)*
                }
            }
        }

        impl crate::stats::PortStats {
            /// Packets this port lost to `cause`.
            #[cfg(test)]
            pub(crate) fn drop_count(&self, cause: DropCause) -> u64 {
                match cause {
                    $(DropCause::$variant => self.$counter,)*
                }
            }
        }
    };
}

drop_causes! {
    /// Why a packet was rejected at (or in front of) an output port.
    ///
    /// Disciplines report the first three causes through
    /// [`Enqueued::Dropped`]; [`DropCause::AqLimit`] is used by the simulator
    /// when attributing switch-pipeline (AQ limit) drops to the output port
    /// the packet would have taken, so per-port telemetry in
    /// [`crate::stats::StatsHub`] can separate buffer pressure from policy
    /// drops.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum DropCause {
        /// Buffer full: accepting the packet would exceed the byte limit.
        Taildrop => taildrops,
        /// Non-ECT packet arriving at or above the ECN threshold (RED
        /// semantics: mark the capable, drop the incapable).
        RedNonEct => red_drops,
        /// Rejected by a shaper (e.g. a packet larger than its token-bucket
        /// burst, which could never be released).
        Shaper => shaper_drops,
        /// Dropped by an AQ pipeline limit before reaching the port queue.
        /// Never produced by a [`QueueDiscipline`]; only used for stats
        /// attribution.
        AqLimit => aq_drops,
        /// Lost on the wire because the link went down while the packet was
        /// serializing or propagating (fault injection). Never produced by a
        /// [`QueueDiscipline`]; the bytes already left the queue, so this
        /// cause is attribution-only in the port byte identity.
        LinkDown => link_drops,
        /// Lost to stochastic corruption on a faulted link. Like
        /// [`DropCause::LinkDown`], attribution-only: the bytes already left
        /// the queue.
        Corrupt => corrupt_drops,
        /// Refused by the switch's shared-buffer admission policy
        /// ([`crate::buffer::SharedBufferPool`]) before reaching the queue
        /// discipline. Accounted like a taildrop in the port byte identity:
        /// the bytes were offered to the port but never buffered.
        SharedBufferReject => shared_rejects,
        /// Dropped by a switch pipeline because the flow's per-tenant state
        /// could not be admitted — the pipeline's state table is at its
        /// register budget and the stage polices unadmitted traffic
        /// ([`crate::node::PipelineVerdict::DropOverflow`]). Like
        /// [`DropCause::AqLimit`], never produced by a [`QueueDiscipline`]
        /// and attribution-only in the port byte identity: the bytes never
        /// entered the queue.
        AqTableOverflow => overflow_drops,
    }
}

/// Outcome of offering a packet to a queue discipline.
#[derive(Debug)]
pub enum Enqueued {
    /// The packet was accepted and buffered.
    Ok,
    /// The discipline rejected the packet; returned with the cause so the
    /// port can account the loss.
    Dropped(Packet, DropCause),
}

/// A buffering/scheduling discipline attached to an output port.
///
/// The port transmitter drives the discipline: it calls [`ready_at`] to
/// learn when the next packet may leave (allowing shaped disciplines to
/// defer release) and [`dequeue`] when the line is free at or after that
/// time.
///
/// [`ready_at`]: QueueDiscipline::ready_at
/// [`dequeue`]: QueueDiscipline::dequeue
pub trait QueueDiscipline: Send {
    /// Offer a packet for buffering at time `now`.
    fn enqueue(&mut self, now: Time, pkt: Packet) -> Enqueued;

    /// Earliest time the head packet may be released, or `None` when no
    /// packet is buffered. A plain FIFO returns `Some(now)` whenever
    /// non-empty; a shaper returns the next token-availability instant.
    fn ready_at(&mut self, now: Time) -> Option<Time>;

    /// Remove and return the next packet to transmit. Called only when
    /// `ready_at(now) <= now`. Implementations stamp queueing delay onto
    /// the packet.
    fn dequeue(&mut self, now: Time) -> Option<Packet>;

    /// Bytes currently buffered.
    fn backlog_bytes(&self) -> u64;

    /// Packets currently buffered.
    fn backlog_pkts(&self) -> usize;

    /// Cumulative CE marks this discipline has applied. Disciplines that
    /// never mark keep the default of zero; the simulator mirrors this into
    /// per-port telemetry ([`crate::stats::PortStats::ecn_marks`]).
    fn ecn_marks(&self) -> u64 {
        0
    }

    /// Downcast hook so controllers (e.g. a dynamic rate limiter agent) can
    /// reconfigure a concrete discipline through the trait object.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// What a [`MarkRule`] does with an arrival that fits under the byte limit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MarkVerdict {
    /// Buffer the packet as it arrived.
    Pass,
    /// CE-mark the packet and buffer it. Only for ECN-capable arrivals.
    Mark,
    /// Drop the packet ([`DropCause::RedNonEct`]). Only for non-ECT
    /// arrivals.
    Drop,
}

/// The arrival rule of a [`Fifo`]: the one place the physical queue and
/// the AQMs differ.
pub trait MarkRule: Send + 'static {
    /// The fate of an arrival that passed the taildrop check, given the
    /// pre-arrival `backlog` in bytes and whether the packet is
    /// ECN-capable (`ect`).
    fn on_arrival(&mut self, backlog: u64, ect: bool) -> MarkVerdict;
}

/// A FIFO with a taildrop byte limit whose arrivals pass through rule
/// `R`. The packet store, the byte account and dequeue (with queueing
/// delay stamped onto the packet) are the same for every rule.
pub struct Fifo<R> {
    limit_bytes: u64,
    rule: R,
    buf: VecDeque<(Packet, Time)>,
    backlog: u64,
    /// Cumulative drops: taildrops plus the rule's non-ECT drops.
    pub drops: u64,
    /// Cumulative CE marks the rule applied.
    pub marks: u64,
    /// Cumulative bytes offered to [`QueueDiscipline::enqueue`]
    /// (accepted or not).
    pub enqueued_bytes: u64,
    /// Cumulative bytes handed back out by [`QueueDiscipline::dequeue`].
    pub dequeued_bytes: u64,
    /// Cumulative bytes of rejected packets.
    pub dropped_bytes: u64,
}

impl<R: MarkRule> Fifo<R> {
    fn with_rule(limit_bytes: u64, rule: R) -> Fifo<R> {
        Fifo {
            limit_bytes,
            rule,
            buf: VecDeque::new(),
            backlog: 0,
            drops: 0,
            marks: 0,
            enqueued_bytes: 0,
            dequeued_bytes: 0,
            dropped_bytes: 0,
        }
    }

    fn reject(&mut self, pkt: Packet, cause: DropCause) -> Enqueued {
        self.drops += 1;
        self.dropped_bytes += pkt.size as u64;
        self.check_conservation();
        Enqueued::Dropped(pkt, cause)
    }

    /// Byte conservation: every byte ever offered is either still
    /// resident, was handed out, or was dropped — the buffer neither
    /// creates nor destroys bytes.
    fn check_conservation(&self) {
        crate::invariant!(
            self.enqueued_bytes == self.dequeued_bytes + self.dropped_bytes + self.backlog,
            "FIFO byte conservation broken: enqueued={} dequeued={} dropped={} backlog={}",
            self.enqueued_bytes,
            self.dequeued_bytes,
            self.dropped_bytes,
            self.backlog,
        );
        crate::invariant!(
            self.backlog <= self.limit_bytes,
            "backlog {} exceeds taildrop limit {}",
            self.backlog,
            self.limit_bytes,
        );
    }
}

impl<R: MarkRule> QueueDiscipline for Fifo<R> {
    fn enqueue(&mut self, now: Time, mut pkt: Packet) -> Enqueued {
        let size = pkt.size as u64;
        self.enqueued_bytes += size;
        if self.backlog + size > self.limit_bytes {
            return self.reject(pkt, DropCause::Taildrop);
        }
        let ect = pkt.ecn.can_mark();
        let verdict = self.rule.on_arrival(self.backlog, ect);
        crate::invariant!(
            verdict == MarkVerdict::Pass || (verdict == MarkVerdict::Mark) == ect,
            "rule returned {verdict:?} for an arrival with ect={ect}",
        );
        match verdict {
            MarkVerdict::Pass => {}
            MarkVerdict::Mark => {
                pkt.ecn = crate::packet::Ecn::CongestionExperienced;
                self.marks += 1;
            }
            MarkVerdict::Drop => return self.reject(pkt, DropCause::RedNonEct),
        }
        self.backlog += size;
        self.buf.push_back((pkt, now));
        self.check_conservation();
        Enqueued::Ok
    }

    fn ready_at(&mut self, now: Time) -> Option<Time> {
        (!self.buf.is_empty()).then_some(now)
    }

    fn dequeue(&mut self, now: Time) -> Option<Packet> {
        let (mut pkt, enq_at) = self.buf.pop_front()?;
        crate::invariant!(
            self.backlog >= pkt.size as u64,
            "dequeue of {} bytes from a backlog of only {}",
            pkt.size,
            self.backlog,
        );
        self.backlog -= pkt.size as u64;
        self.dequeued_bytes += pkt.size as u64;
        pkt.pq_delay_ns += now.since(enq_at).as_nanos();
        self.check_conservation();
        Some(pkt)
    }

    fn backlog_bytes(&self) -> u64 {
        self.backlog
    }

    fn backlog_pkts(&self) -> usize {
        self.buf.len()
    }

    fn ecn_marks(&self) -> u64 {
        self.marks
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Error-diffusion dither along the ramp `[lo, hi)`: add the probability
/// `(x − lo) / (hi − lo)` to `credit` (in 1/1000ths) and fire each time it
/// crosses one. Below `lo`, or on an empty ramp, nothing accrues.
fn ramp(credit: &mut u64, x: u64, lo: u64, hi: u64) -> bool {
    if x < lo || hi <= lo {
        return false;
    }
    *credit += (x - lo) * 1000 / (hi - lo);
    let fire = *credit >= 1000;
    if fire {
        *credit -= 1000;
    }
    fire
}

/// Configuration of a physical FIFO queue.
#[derive(Clone, Copy, Debug)]
pub struct FifoConfig {
    /// Taildrop limit in bytes. Arriving packets that would push the backlog
    /// beyond this are dropped.
    pub limit_bytes: u64,
    /// Instantaneous-queue ECN threshold in bytes (DCTCP's `K`); `None`
    /// disables it. RED-style semantics: a packet arriving to a backlog of
    /// at least this many bytes is marked CE if ECN-capable and **dropped
    /// if not** — non-ECT traffic must not ride the buffer headroom that
    /// exists only to absorb marked traffic's reaction lag.
    pub ecn_threshold_bytes: Option<u64>,
}

impl Default for FifoConfig {
    fn default() -> Self {
        // 1 MB of buffer, marking disabled — a generic deep-buffered port.
        FifoConfig {
            limit_bytes: 1_000_000,
            ecn_threshold_bytes: None,
        }
    }
}

impl FifoConfig {
    /// A typical shallow-buffered DCTCP-style port: `limit` bytes of buffer
    /// with marking threshold `k` bytes.
    pub fn with_ecn(limit_bytes: u64, k: u64) -> FifoConfig {
        FifoConfig {
            limit_bytes,
            ecn_threshold_bytes: Some(k),
        }
    }
}

/// The physical queue's rule: at or above the instantaneous threshold `K`
/// ([`FifoConfig::ecn_threshold_bytes`]) mark ECT arrivals and drop
/// non-ECT ones; below it, or with no `K`, pass.
pub struct EcnThreshold(Option<u64>);

impl MarkRule for EcnThreshold {
    fn on_arrival(&mut self, backlog: u64, ect: bool) -> MarkVerdict {
        let verdict = match self.0 {
            Some(k) if backlog >= k && ect => MarkVerdict::Mark,
            Some(k) if backlog >= k => MarkVerdict::Drop,
            _ => MarkVerdict::Pass,
        };
        // A mark applied here is legitimate only at or above K.
        crate::invariant!(
            verdict != MarkVerdict::Mark || self.0.is_some_and(|k| backlog >= k),
            "CE mark applied below threshold: backlog={} K={:?}",
            backlog,
            self.0,
        );
        verdict
    }
}

/// The physical FIFO queue (the paper's "PQ").
pub type FifoQueue = Fifo<EcnThreshold>;

impl FifoQueue {
    /// An empty FIFO with the given configuration.
    pub fn new(cfg: FifoConfig) -> FifoQueue {
        Fifo::with_rule(cfg.limit_bytes, EcnThreshold(cfg.ecn_threshold_bytes))
    }
}

/// Configuration of the iRED-style disaggregated RED discipline.
#[derive(Clone, Copy, Debug)]
pub struct DisaggRedConfig {
    /// Taildrop limit in bytes.
    pub limit_bytes: u64,
    /// EWMA backlog at/above which congestion actions start accruing.
    pub min_thresh_bytes: u64,
    /// EWMA backlog at/above which every arrival triggers an action.
    pub max_thresh_bytes: u64,
    /// EWMA weight as a right-shift: `avg += (backlog − avg) >> shift`.
    pub ewma_shift: u32,
}

impl Default for DisaggRedConfig {
    fn default() -> Self {
        DisaggRedConfig {
            limit_bytes: 200_000,
            min_thresh_bytes: 30_000,
            max_thresh_bytes: 90_000,
            ewma_shift: 4,
        }
    }
}

/// iRED-style *disaggregated* RED: the congestion decision and the
/// congestion action are split in time.
///
/// The **decide** stage runs on every arrival that passed the taildrop
/// check: it updates an EWMA of the pre-arrival backlog and, while the
/// average sits in `[min, max)`, accrues marking probability
/// `(avg − min) / (max − min)` into a fixed-point credit (at/above `max` a
/// full action accrues per arrival). Each time the credit crosses 1.0 a
/// *pending action* is queued — but nothing happens to the packet that
/// triggered it.
///
/// The **act** stage runs first: if actions are pending, the arriving
/// packet absorbs one — CE-marked if ECN-capable, dropped
/// ([`DropCause::RedNonEct`]) if not. The packet that pays is therefore
/// never the packet that tripped the decision, which is the disaggregation
/// iRED introduces to move RED's random-drop work off the enqueue critical
/// path.
pub struct DisaggRed {
    cfg: DisaggRedConfig,
    /// EWMA of the backlog (the RED average queue).
    avg: u64,
    /// Fixed-point marking credit, in 1/1000ths of an action.
    credit: u64,
    /// Congestion actions decided but not yet applied.
    pending: u64,
}

impl MarkRule for DisaggRed {
    fn on_arrival(&mut self, backlog: u64, ect: bool) -> MarkVerdict {
        // Act stage: an earlier decision is paid for by this arrival.
        let verdict = match (self.pending, ect) {
            (0, _) => MarkVerdict::Pass,
            (_, true) => MarkVerdict::Mark,
            (_, false) => MarkVerdict::Drop,
        };
        self.pending = self.pending.saturating_sub(1);
        // Decide stage, dithered deterministically.
        let shift = self.cfg.ewma_shift;
        if backlog >= self.avg {
            self.avg += (backlog - self.avg) >> shift;
        } else {
            self.avg -= (self.avg - backlog) >> shift;
        }
        let (min, max) = (self.cfg.min_thresh_bytes, self.cfg.max_thresh_bytes);
        if self.avg >= max || ramp(&mut self.credit, self.avg, min, max) {
            self.pending += 1;
        }
        verdict
    }
}

/// The iRED-style disaggregated RED queue ([`DisaggRed`]).
pub type DisaggRedQueue = Fifo<DisaggRed>;

impl DisaggRedQueue {
    /// An empty disaggregated-RED queue with the given configuration.
    pub fn new(cfg: DisaggRedConfig) -> DisaggRedQueue {
        Fifo::with_rule(
            cfg.limit_bytes,
            DisaggRed {
                cfg,
                avg: 0,
                credit: 0,
                pending: 0,
            },
        )
    }
}

/// Configuration of the L4S-style step/ramp marking discipline.
#[derive(Clone, Copy, Debug)]
pub struct L4sStepConfig {
    /// Taildrop limit in bytes.
    pub limit_bytes: u64,
    /// Instantaneous backlog at which the marking ramp starts.
    pub step_low_bytes: u64,
    /// Instantaneous backlog at/above which every ECT arrival is marked.
    /// When `step_high_bytes <= step_low_bytes` the ramp degenerates to a
    /// pure step at `step_low_bytes`.
    pub step_high_bytes: u64,
}

impl Default for L4sStepConfig {
    fn default() -> Self {
        L4sStepConfig {
            limit_bytes: 200_000,
            step_low_bytes: 10_000,
            step_high_bytes: 40_000,
        }
    }
}

/// L4S-style immediate marking: ECT arrivals are CE-marked on the
/// *instantaneous* backlog, with a linear ramp between `step_low` and
/// `step_high` (deterministically dithered, like [`DisaggRed`]) and a
/// hard step at `step_high`. Non-ECT traffic is never marked and accrues
/// no ramp credit — it only taildrops at the limit, mirroring how an L4S
/// queue treats classic traffic that cannot understand the finer-grained
/// signal.
pub struct L4sStep {
    cfg: L4sStepConfig,
    /// Fixed-point ramp credit, in 1/1000ths of a mark.
    credit: u64,
}

impl MarkRule for L4sStep {
    fn on_arrival(&mut self, backlog: u64, ect: bool) -> MarkVerdict {
        let (low, high) = (self.cfg.step_low_bytes, self.cfg.step_high_bytes);
        if ect && (backlog >= high.max(low) || ramp(&mut self.credit, backlog, low, high)) {
            return MarkVerdict::Mark;
        }
        MarkVerdict::Pass
    }
}

/// The L4S-style step/ramp marking queue ([`L4sStep`]).
pub type L4sStepQueue = Fifo<L4sStep>;

impl L4sStepQueue {
    /// An empty L4S step queue with the given configuration.
    pub fn new(cfg: L4sStepConfig) -> L4sStepQueue {
        Fifo::with_rule(cfg.limit_bytes, L4sStep { cfg, credit: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EntityId, FlowId, NodeId};
    use crate::packet::{Ecn, MSS};

    fn pkt(size_payload: u32) -> Packet {
        Packet::data(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            0,
            size_payload,
            false,
            Time::ZERO,
        )
    }

    #[test]
    fn fifo_preserves_order_and_backlog() {
        let mut q = FifoQueue::new(FifoConfig::default());
        for seq in 0..3u64 {
            let mut p = pkt(MSS);
            p.uid = seq;
            assert!(matches!(q.enqueue(Time::ZERO, p), Enqueued::Ok));
        }
        assert_eq!(q.backlog_pkts(), 3);
        assert_eq!(q.backlog_bytes(), 3 * (MSS as u64 + 60));
        let uids: Vec<u64> = std::iter::from_fn(|| q.dequeue(Time::ZERO))
            .map(|p| p.uid)
            .collect();
        assert_eq!(uids, vec![0, 1, 2]);
        assert_eq!(q.backlog_bytes(), 0);
    }

    #[test]
    fn taildrop_when_limit_exceeded() {
        let mut q = FifoQueue::new(FifoConfig {
            limit_bytes: 2 * 1060,
            ecn_threshold_bytes: None,
        });
        assert!(matches!(q.enqueue(Time::ZERO, pkt(MSS)), Enqueued::Ok));
        assert!(matches!(q.enqueue(Time::ZERO, pkt(MSS)), Enqueued::Ok));
        assert!(matches!(
            q.enqueue(Time::ZERO, pkt(MSS)),
            Enqueued::Dropped(_, DropCause::Taildrop)
        ));
        assert_eq!(q.drops, 1);
        assert_eq!(q.backlog_pkts(), 2);
    }

    #[test]
    fn ecn_marks_capable_and_drops_incapable_at_threshold() {
        let mut q = FifoQueue::new(FifoConfig::with_ecn(1_000_000, 1060));
        let mut capable = pkt(MSS);
        capable.ecn = Ecn::Capable;
        // Below threshold: no mark.
        assert!(matches!(
            q.enqueue(Time::ZERO, capable.clone()),
            Enqueued::Ok
        ));
        // Backlog now 1060 >= K: next capable packet is marked.
        assert!(matches!(
            q.enqueue(Time::ZERO, capable.clone()),
            Enqueued::Ok
        ));
        // Non-ECT traffic is dropped at the threshold (RED semantics).
        assert!(matches!(
            q.enqueue(Time::ZERO, pkt(MSS)),
            Enqueued::Dropped(_, DropCause::RedNonEct)
        ));
        assert_eq!(q.ecn_marks(), 1);
        let a = q.dequeue(Time::ZERO).unwrap();
        let b = q.dequeue(Time::ZERO).unwrap();
        assert!(!a.ecn.is_marked());
        assert!(b.ecn.is_marked());
        assert_eq!(q.marks, 1);
        assert_eq!(q.drops, 1);
    }

    #[test]
    fn dequeue_stamps_queueing_delay() {
        let mut q = FifoQueue::new(FifoConfig::default());
        q.enqueue(Time::from_micros(10), pkt(MSS));
        let p = q.dequeue(Time::from_micros(35)).unwrap();
        assert_eq!(p.pq_delay_ns, 25_000);
    }

    #[test]
    fn ready_at_reflects_occupancy() {
        let mut q = FifoQueue::new(FifoConfig::default());
        assert_eq!(q.ready_at(Time::ZERO), None);
        q.enqueue(Time::ZERO, pkt(MSS));
        assert_eq!(q.ready_at(Time::from_nanos(5)), Some(Time::from_nanos(5)));
    }

    #[test]
    fn disagg_red_decides_on_one_arrival_and_acts_on_a_later_one() {
        let mut q = DisaggRedQueue::new(DisaggRedConfig {
            limit_bytes: 1_000_000,
            min_thresh_bytes: 1_000,
            max_thresh_bytes: 2_000,
            ewma_shift: 0, // avg tracks backlog exactly: deterministic test
        });
        let ect = |_: u32| {
            let mut p = pkt(MSS);
            p.ecn = Ecn::Capable;
            p
        };
        // Fill past max_thresh: the decide stage reads the pre-arrival
        // backlog, so the third arrival sees 2120 B ≥ max and queues a
        // pending action — but is itself untouched.
        for _ in 0..3 {
            assert!(matches!(q.enqueue(Time::ZERO, ect(0)), Enqueued::Ok));
        }
        assert_eq!(q.marks, 0, "the deciding packet must not pay");
        assert!(q.rule.pending > 0, "decision queued for later");
        // The next arrival absorbs the pending action as a CE mark.
        let pending = q.rule.pending;
        assert!(matches!(q.enqueue(Time::ZERO, ect(0)), Enqueued::Ok));
        assert_eq!(q.marks, 1);
        assert!(q.rule.pending >= pending - 1);
        // A non-ECT arrival pays a pending action with a drop instead.
        while q.rule.pending == 0 {
            q.enqueue(Time::ZERO, ect(0));
        }
        assert!(matches!(
            q.enqueue(Time::ZERO, pkt(MSS)),
            Enqueued::Dropped(_, DropCause::RedNonEct)
        ));
        // Conservation holds throughout (checked by the invariant when
        // enabled; re-derive it here so the test bites without features).
        assert_eq!(
            q.enqueued_bytes,
            q.dequeued_bytes + q.dropped_bytes + q.backlog_bytes()
        );
    }

    #[test]
    fn disagg_red_taildrops_at_the_limit() {
        let mut q = DisaggRedQueue::new(DisaggRedConfig {
            limit_bytes: 2 * 1060,
            min_thresh_bytes: 1_000_000,
            max_thresh_bytes: 2_000_000,
            ewma_shift: 4,
        });
        assert!(matches!(q.enqueue(Time::ZERO, pkt(MSS)), Enqueued::Ok));
        assert!(matches!(q.enqueue(Time::ZERO, pkt(MSS)), Enqueued::Ok));
        assert!(matches!(
            q.enqueue(Time::ZERO, pkt(MSS)),
            Enqueued::Dropped(_, DropCause::Taildrop)
        ));
        let p = q.dequeue(Time::from_micros(3)).unwrap();
        assert_eq!(p.pq_delay_ns, 3_000);
    }

    #[test]
    fn l4s_step_marks_every_ect_arrival_above_the_step() {
        let mut q = L4sStepQueue::new(L4sStepConfig {
            limit_bytes: 1_000_000,
            step_low_bytes: 1060,
            step_high_bytes: 1060, // degenerate ramp: pure step
        });
        let mut ect = pkt(MSS);
        ect.ecn = Ecn::Capable;
        assert!(matches!(q.enqueue(Time::ZERO, ect.clone()), Enqueued::Ok));
        assert_eq!(q.marks, 0, "below the step: no mark");
        assert!(matches!(q.enqueue(Time::ZERO, ect.clone()), Enqueued::Ok));
        assert!(matches!(q.enqueue(Time::ZERO, ect.clone()), Enqueued::Ok));
        assert_eq!(q.marks, 2, "every ECT arrival at/above the step marks");
        // Non-ECT traffic is never marked, only taildropped at the limit.
        assert!(matches!(q.enqueue(Time::ZERO, pkt(MSS)), Enqueued::Ok));
        assert_eq!(q.marks, 2);
        let unmarked = q.dequeue(Time::ZERO).unwrap();
        assert!(!unmarked.ecn.is_marked());
        let marked = q.dequeue(Time::ZERO).unwrap();
        assert!(marked.ecn.is_marked());
    }

    #[test]
    fn l4s_ramp_dithers_between_low_and_high() {
        let mut q = L4sStepQueue::new(L4sStepConfig {
            limit_bytes: 1_000_000,
            step_low_bytes: 0,
            step_high_bytes: 4 * 1060,
        });
        let mut ect = pkt(MSS);
        ect.ecn = Ecn::Capable;
        for _ in 0..8 {
            assert!(matches!(q.enqueue(Time::ZERO, ect.clone()), Enqueued::Ok));
        }
        // In the ramp region some but not all arrivals mark, and re-running
        // the identical sequence reproduces the identical count.
        assert!(q.marks > 0 && q.marks < 8, "ramp marked {} of 8", q.marks);
        let first = q.marks;
        let mut q2 = L4sStepQueue::new(L4sStepConfig {
            limit_bytes: 1_000_000,
            step_low_bytes: 0,
            step_high_bytes: 4 * 1060,
        });
        for _ in 0..8 {
            q2.enqueue(Time::ZERO, ect.clone());
        }
        assert_eq!(q2.marks, first, "dithered marking must be deterministic");
        assert_eq!(
            q.enqueued_bytes,
            q.dequeued_bytes + q.dropped_bytes + q.backlog_bytes()
        );
    }
}
