//! Measurement infrastructure shared by all experiments.
//!
//! The hub records three kinds of state, mirroring what the paper's
//! evaluation (§5) reads off real switches:
//!
//! * per *entity* (the paper's unit of bandwidth guarantee): delivered
//!   payload bytes (total and as a windowed time series), physical and
//!   virtual queuing-delay samples, and flow lifecycles (for workload /
//!   flow completion times);
//! * per *(switch, port)*: the conservation counters of the attached queue
//!   discipline (enqueued/dequeued/dropped bytes), drop causes (taildrop vs
//!   RED vs shaper vs AQ limit), ECN marks, and a windowed queue-occupancy
//!   series ([`PortStats`]);
//! * per *switch shared buffer*: pool occupancy (windowed peak series),
//!   admission rejections, and admission marks ([`BufferStats`]), mirrored
//!   from the switch's [`crate::buffer::SharedBufferPool`];
//! * per *AQ instance*: an [`AqSummary`] of gap statistics and limit drops,
//!   exported by `aq-core`'s pipeline.
//!
//! Free functions compute the fairness metrics the paper reports. Entity
//! and port stats live in dense id-indexed vectors (ids are small and
//! dense, and these are touched on every packet event); flow and AQ
//! records stay in `BTreeMap`s. Both layouts iterate in id order, so any
//! serialized report is deterministic.
//!
//! The delay samples are the one part of the hub that grows with every
//! delivered packet (two per data delivery, physical and virtual), so a
//! [`DelayRecorder`] keeps each exactly once, in 4 bytes when it fits
//! `u32` nanoseconds, and sorts in place for percentiles: 8 bytes per
//! delivery for the whole run, report included.

use crate::ids::{EntityId, FlowId, NodeId, PortId};
use crate::queue::DropCause;
use crate::time::{Duration, Time};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Bucket width of every throughput and occupancy series a [`StatsHub`]
/// keeps.
pub const SAMPLE_WINDOW: Duration = Duration::from_millis(10);

/// Bytes counted into fixed-size time windows; yields a throughput series.
#[derive(Clone)]
pub struct WindowedCounter {
    window: Duration,
    buckets: Vec<u64>,
    /// Nanosecond bounds `[start, end)` of the most recently indexed
    /// window. Samples arrive in near-monotonic bursts thousands of times
    /// per window, so this one-entry cache skips the division in
    /// `bucket_index` almost always. Pure memoization: the computed index
    /// is identical either way.
    cached: (u64, u64, usize),
}

impl WindowedCounter {
    /// A counter with the given window size.
    pub fn new(window: Duration) -> WindowedCounter {
        assert!(window.as_nanos() > 0, "window must be positive");
        WindowedCounter {
            window,
            buckets: Vec::new(),
            cached: (0, 0, 0),
        }
    }

    /// Add `bytes` at time `now`.
    pub fn record(&mut self, now: Time, bytes: u64) {
        let idx = self.bucket_index(now);
        self.buckets[idx] += bytes;
    }

    /// Record a *gauge* sample at time `now`, keeping the per-window
    /// maximum instead of a sum. Used for queue-occupancy series: each
    /// bucket then holds the peak value observed during that window.
    ///
    /// A counter instance should be fed exclusively through [`record`]
    /// (sum semantics) or exclusively through `record_max` (peak-gauge
    /// semantics); mixing the two on one instance yields meaningless
    /// buckets.
    ///
    /// ```
    /// use aq_netsim::stats::WindowedCounter;
    /// use aq_netsim::time::{Duration, Time};
    ///
    /// let mut occ = WindowedCounter::new(Duration::from_millis(10));
    /// occ.record_max(Time::from_millis(1), 400);
    /// occ.record_max(Time::from_millis(9), 250); // same window, smaller
    /// occ.record_max(Time::from_millis(12), 90);
    /// assert_eq!(occ.buckets(), &[400, 90]);
    /// ```
    ///
    /// [`record`]: WindowedCounter::record
    pub fn record_max(&mut self, now: Time, value: u64) {
        let idx = self.bucket_index(now);
        self.buckets[idx] = self.buckets[idx].max(value);
    }

    fn bucket_index(&mut self, now: Time) -> usize {
        let ns = now.as_nanos();
        let (start, end, idx) = self.cached;
        if ns >= start && ns < end {
            return idx;
        }
        let w = self.window.as_nanos();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a window index: horizon / window, which `buckets` must hold anyway"
        )]
        let idx = (ns / w) as usize;
        let start = idx as u64 * w;
        self.cached = (start, start + w, idx);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        idx
    }

    /// The configured window.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Raw per-window byte counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The number of windows needed to cover `[0, end)` — the canonical
    /// padded series length for a run that finished at `end`. Never less
    /// than the recorded bucket count, so padding cannot truncate.
    pub fn padded_len(&self, end: Time) -> usize {
        let w = self.window.as_nanos();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a window count: horizon / window, which `buckets` must hold anyway"
        )]
        let covering = end.as_nanos().div_ceil(w) as usize;
        covering.max(self.buckets.len())
    }

    /// Per-window byte counts padded with explicit zero windows out to the
    /// simulation end time `end`. Raw buckets end at the *last recorded
    /// event's* window, so two runs of the same horizon can disagree on
    /// series length merely because one went quiet earlier; exporters
    /// (e.g. `RunReport`) use this so series of the same scenario align
    /// bucket-for-bucket across approaches and seeds.
    pub fn buckets_padded(&self, end: Time) -> Vec<u64> {
        let mut out = self.buckets.clone();
        out.resize(self.padded_len(end), 0);
        out
    }

    /// Throughput series in bits/s, one point per window.
    pub fn rate_series_bps(&self) -> Vec<f64> {
        let w = self.window.as_secs_f64();
        self.buckets.iter().map(|b| *b as f64 * 8.0 / w).collect()
    }

    /// Throughput series in bits/s padded with explicit zero windows out
    /// to `end` (see [`buckets_padded`](WindowedCounter::buckets_padded)).
    pub fn rate_series_bps_padded(&self, end: Time) -> Vec<f64> {
        let w = self.window.as_secs_f64();
        self.buckets_padded(end)
            .into_iter()
            .map(|b| b as f64 * 8.0 / w)
            .collect()
    }

    /// Add another counter's buckets into this one, window for window.
    /// Both counters must use the same window size; the result is as if
    /// every sample had been fed to a single counter (sum semantics) —
    /// which is why gauge-fed (`record_max`) counters must never be
    /// merged across writers that could observe the same instant.
    pub fn merge_add(&mut self, other: &WindowedCounter) {
        assert_eq!(
            self.window, other.window,
            "cannot merge counters with different windows"
        );
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
    }

    /// Average throughput in bits/s over `[from, to)`, counting empty
    /// windows as zero.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "window indexes: horizon / window, which `buckets` must hold anyway"
    )]
    pub fn avg_bps(&self, from: Time, to: Time) -> f64 {
        if to <= from {
            return 0.0;
        }
        let w = self.window.as_nanos();
        let first = (from.as_nanos() / w) as usize;
        let last = (to.as_nanos().saturating_sub(1) / w) as usize;
        let mut bytes = 0u64;
        for i in first..=last {
            bytes += self.buckets.get(i).copied().unwrap_or(0);
        }
        bytes as f64 * 8.0 / (to - from).as_secs_f64()
    }
}

impl std::fmt::Debug for WindowedCounter {
    /// Prints the window and buckets only — the bucket-index cache is
    /// feed-path memoization, and including it would make `{:?}` output
    /// (used by the determinism e2e digest) depend on incidental access
    /// patterns rather than recorded data.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedCounter")
            .field("window", &self.window)
            .field("buckets", &self.buckets)
            .finish()
    }
}

/// Collects delay samples (nanoseconds) and reports nearest-rank
/// percentiles.
///
/// Each sample is stored exactly once: a delay below 2³² ns (≈ 4.3 s)
/// in 4 bytes, a longer one in 8. Every wide sample is larger than every
/// narrow one, so the two vectors sorted one after the other are the
/// whole sample set in order. They are sorted in place, behind a
/// `RefCell`, the first time [`percentile`] or `Debug` needs order after
/// new samples arrive; asking for p50/p99 in a report costs one sort
/// total and no copy.
///
/// [`percentile`]: DelayRecorder::percentile
#[derive(Clone, Default)]
pub struct DelayRecorder {
    samples: RefCell<Samples>,
}

/// The storage behind a [`DelayRecorder`].
#[derive(Clone, Default)]
struct Samples {
    /// Samples below 2³² ns.
    narrow: Vec<u32>,
    /// Samples of 2³² ns and more.
    wide: Vec<u64>,
    /// Whether both vectors are in ascending order.
    sorted: bool,
}

impl Samples {
    fn len(&self) -> usize {
        self.narrow.len() + self.wide.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.narrow.sort_unstable();
            self.wide.sort_unstable();
            self.sorted = true;
        }
    }
}

impl DelayRecorder {
    /// Record one delay sample.
    pub fn record(&mut self, ns: u64) {
        let s = self.samples.get_mut();
        match u32::try_from(ns) {
            Ok(narrow) => s.narrow.push(narrow),
            Err(_) => s.wide.push(ns),
        }
        s.sorted = false;
    }

    /// Number of samples collected.
    pub fn len(&self) -> usize {
        self.samples.borrow().len()
    }

    /// Whether no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `p`-th percentile by nearest-rank, or `None` when empty or
    /// when `p` is NaN. `p` is clamped to `[0.0, 100.0]`: `p <= 0` is the
    /// minimum sample, `p >= 100` the maximum. (A NaN `p` used to cast to
    /// rank 0 and silently return the minimum; it is now rejected.)
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let mut s = self.samples.borrow_mut();
        let len = s.len();
        if len == 0 || p.is_nan() {
            return None;
        }
        s.sort();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "p is clamped to [0, 100] and not NaN, so the rank is ≤ len"
        )]
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * len as f64).ceil() as usize;
        let i = rank.clamp(1, len) - 1;
        Some(match s.narrow.get(i) {
            Some(&ns) => u64::from(ns),
            None => s.wide[i - s.narrow.len()],
        })
    }

    /// Fold another recorder's samples into this one. Percentiles and the
    /// (sorted) `Debug` rendering are order-blind, so merging is exact.
    pub fn merge(&mut self, other: DelayRecorder) {
        let other = other.samples.into_inner();
        let s = self.samples.get_mut();
        s.narrow.extend(other.narrow);
        s.wide.extend(other.wide);
        s.sorted = false;
    }
}

impl std::fmt::Debug for Samples {
    /// One list, narrow samples first (ascending once sorted).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let narrow = self.narrow.iter().map(|&ns| u64::from(ns));
        f.debug_list()
            .entries(narrow.chain(self.wide.iter().copied()))
            .finish()
    }
}

impl std::fmt::Debug for DelayRecorder {
    /// Prints the recorded samples in *sorted* order — the raw insertion
    /// order would leak which sink (single-threaded hub, or one of several
    /// shard hubs merged back together) collected each sample, and
    /// whether a percentile query has sorted them yet. Every statistic
    /// the recorder exports is order-blind, so sorting loses nothing and
    /// makes the determinism e2e digest agree across engines.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = self.samples.borrow_mut();
        s.sort();
        f.debug_struct("DelayRecorder")
            .field("samples", &*s)
            .finish()
    }
}

/// Per-entity measurements.
#[derive(Debug, Clone)]
pub struct EntityStats {
    /// Data/datagram packets injected by the entity's sending hosts
    /// (counting retransmissions; ACKs are excluded). Together with
    /// [`drops`](EntityStats::drops) this closes the per-entity
    /// conservation sum for one-way traffic:
    /// `tx_pkts == delivered + drops + in-network residue`.
    pub tx_pkts: u64,
    /// Payload bytes of [`tx_pkts`](EntityStats::tx_pkts).
    pub tx_bytes: u64,
    /// Payload bytes delivered to destination hosts.
    pub rx_bytes: u64,
    /// Delivered payload as a windowed throughput series.
    pub rx_series: WindowedCounter,
    /// Physical queuing delay experienced by delivered data packets.
    pub pq_delay: DelayRecorder,
    /// Virtual queuing delay accumulated by AQs on delivered data packets.
    pub vdelay: DelayRecorder,
    /// Packets of this entity dropped anywhere (taildrop, shaper, AQ limit).
    pub drops: u64,
}

impl EntityStats {
    fn new() -> EntityStats {
        EntityStats {
            tx_pkts: 0,
            tx_bytes: 0,
            rx_bytes: 0,
            rx_series: WindowedCounter::new(SAMPLE_WINDOW),
            pq_delay: DelayRecorder::default(),
            vdelay: DelayRecorder::default(),
            drops: 0,
        }
    }
}

/// Per-`(switch, port)` telemetry, mirroring the conservation counters of
/// the attached queue discipline plus transmit and drop-cause accounting.
///
/// Fed by the simulator at every enqueue/drop/dequeue/tx-complete, so it
/// works for *any* [`crate::queue::QueueDiscipline`] (FIFO, HTB shaper,
/// DRR), not just [`crate::queue::FifoQueue`]. The byte identity
///
/// ```text
/// enqueued_bytes == dequeued_bytes + dropped_bytes + resident_bytes
/// ```
///
/// holds at every event boundary (see [`PortStats::conserves`]); it is the
/// hub-side image of the FIFO conservation invariant.
#[derive(Debug, Clone)]
pub struct PortStats {
    /// Node owning the port.
    pub node: NodeId,
    /// Packets fully serialized onto the wire.
    pub tx_pkts: u64,
    /// Bytes fully serialized onto the wire.
    pub tx_bytes: u64,
    /// Bytes offered to the discipline (accepted or rejected).
    pub enqueued_bytes: u64,
    /// Bytes handed back out by the discipline for transmission.
    pub dequeued_bytes: u64,
    /// Bytes of rejected packets (all causes below).
    pub dropped_bytes: u64,
    /// Bytes currently buffered (discipline backlog at last event).
    pub resident_bytes: u64,
    /// Packets rejected because the buffer byte limit was reached.
    pub taildrops: u64,
    /// Non-ECT packets dropped at the ECN threshold (RED semantics).
    pub red_drops: u64,
    /// Packets rejected by a shaper discipline.
    pub shaper_drops: u64,
    /// Packets refused by the switch's shared-buffer admission policy
    /// ([`crate::buffer::SharedBufferPool`]) before reaching the queue
    /// discipline. Counted like taildrops in the byte identity: the bytes
    /// were offered to the port but never buffered.
    pub shared_rejects: u64,
    /// Packets dropped by an AQ pipeline limit *before* reaching this
    /// port's queue. Attribution only — these bytes never enter the
    /// discipline, so they are **not** part of the byte identity above.
    pub aq_drops: u64,
    /// Packets dropped by a switch pipeline because their flow's
    /// per-tenant state could not be admitted at the table's register
    /// budget ([`crate::queue::DropCause::AqTableOverflow`]). Attribution
    /// only, like [`aq_drops`](PortStats::aq_drops): the bytes never
    /// entered the discipline.
    pub overflow_drops: u64,
    /// Packets lost on this port's wire because the link died while they
    /// were serializing or propagating (fault injection). Attribution
    /// only — the bytes already left the queue (they are counted in
    /// `dequeued_bytes`), so they are **not** part of the byte identity.
    pub link_drops: u64,
    /// Packets lost to stochastic corruption on this port's wire (fault
    /// injection). Attribution only, like
    /// [`link_drops`](PortStats::link_drops).
    pub corrupt_drops: u64,
    /// Wire bytes of frames cut mid-serialization by link death — the
    /// only post-queue bytes that never reach
    /// [`tx_pkts`](PortStats::tx_pkts)' byte counter; with them,
    /// `dequeued_bytes == tx_bytes + wire_dropped_bytes + serializing`
    /// closes the post-queue wire boundary. Packets lost *after* full
    /// serialization (propagation death, corruption) are already inside
    /// `tx_bytes` and move only [`link_drops`](PortStats::link_drops) /
    /// [`corrupt_drops`](PortStats::corrupt_drops) here (byte totals for
    /// them live in [`crate::fault::FaultTotals`]).
    pub wire_dropped_bytes: u64,
    /// Cumulative CE marks applied by the discipline.
    pub ecn_marks: u64,
    /// Windowed queue-occupancy series: per-window *peak* backlog in bytes
    /// (fed through [`WindowedCounter::record_max`]).
    pub occupancy: WindowedCounter,
}

impl PortStats {
    fn new(node: NodeId) -> PortStats {
        PortStats {
            node,
            tx_pkts: 0,
            tx_bytes: 0,
            enqueued_bytes: 0,
            dequeued_bytes: 0,
            dropped_bytes: 0,
            resident_bytes: 0,
            taildrops: 0,
            red_drops: 0,
            shaper_drops: 0,
            shared_rejects: 0,
            aq_drops: 0,
            overflow_drops: 0,
            link_drops: 0,
            corrupt_drops: 0,
            wire_dropped_bytes: 0,
            ecn_marks: 0,
            occupancy: WindowedCounter::new(SAMPLE_WINDOW),
        }
    }

    /// Total packets rejected at the queue boundary (excludes `aq_drops`,
    /// which happen upstream in the switch pipeline).
    pub fn queue_drops(&self) -> u64 {
        self.taildrops + self.red_drops + self.shaper_drops + self.shared_rejects
    }

    /// Whether the port-level byte identity
    /// `enqueued == dequeued + dropped + resident` holds.
    pub fn conserves(&self) -> bool {
        self.enqueued_bytes == self.dequeued_bytes + self.dropped_bytes + self.resident_bytes
    }

    /// Peak buffered bytes observed over the whole run (max over the
    /// occupancy series).
    pub fn peak_occupancy_bytes(&self) -> u64 {
        self.occupancy.buckets().iter().copied().max().unwrap_or(0)
    }
}

/// Per-switch shared-buffer telemetry, mirroring the cumulative counters
/// of the switch's [`crate::buffer::SharedBufferPool`] plus a windowed
/// occupancy series.
///
/// Fed by the simulator after every pool event (admission commit, release,
/// rejection, mark); counters are *mirrored* absolutely from the pool, so
/// repeated report captures stay idempotent.
#[derive(Debug, Clone)]
pub struct BufferStats {
    /// Switch owning the pool.
    pub node: NodeId,
    /// Installed admission-policy label (`static` / `dt` / `delay`).
    pub policy: &'static str,
    /// Total pool capacity in bytes.
    pub capacity_bytes: u64,
    /// Pool-wide occupancy in bytes at the last sample.
    pub occupancy_bytes: u64,
    /// Packets refused by the admission policy
    /// ([`crate::queue::DropCause::SharedBufferReject`]); the same events
    /// are attributed per port in [`PortStats::shared_rejects`].
    pub shared_rejects: u64,
    /// Bytes of refused packets.
    pub rejected_bytes: u64,
    /// CE marks applied on admission (delay-driven policies).
    pub marks: u64,
    /// Windowed pool-occupancy series: per-window *peak* occupancy in
    /// bytes (fed through [`WindowedCounter::record_max`]).
    pub occupancy: WindowedCounter,
}

impl BufferStats {
    fn new(node: NodeId, policy: &'static str, capacity_bytes: u64) -> Self {
        BufferStats {
            node,
            policy,
            capacity_bytes,
            occupancy_bytes: 0,
            shared_rejects: 0,
            rejected_bytes: 0,
            marks: 0,
            occupancy: WindowedCounter::new(SAMPLE_WINDOW),
        }
    }

    /// Peak pool occupancy observed over the whole run (max over the
    /// occupancy series).
    pub fn peak_occupancy_bytes(&self) -> u64 {
        self.occupancy.buckets().iter().copied().max().unwrap_or(0)
    }
}

/// Which stage of the switch pipeline an AQ sits in (mirrors `aq-core`'s
/// `Position` without introducing a dependency cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AqPosition {
    /// Matched on the receiving port, before routing.
    Ingress,
    /// Matched on the sending port, after routing.
    Egress,
}

impl AqPosition {
    /// Lowercase label used in serialized reports.
    pub fn label(self) -> &'static str {
        match self {
            AqPosition::Ingress => "ingress",
            AqPosition::Egress => "egress",
        }
    }
}

/// End-of-run summary of one AQ instance, exported into the hub by
/// `aq-core`'s pipeline (`AqPipeline::export_stats`).
///
/// Plain data (no `aq-core` types) so `aq-netsim` stays dependency-free;
/// the tag/position pair is the identity of the AQ within a run.
#[derive(Debug, Clone)]
pub struct AqSummary {
    /// The AQ's tag (entity identifier carried in packets).
    pub tag: u32,
    /// Pipeline stage the AQ is deployed at.
    pub position: AqPosition,
    /// Configured drain rate in bits/s.
    pub rate_bps: u64,
    /// Configured AQ limit in bytes.
    pub limit_bytes: u64,
    /// Bytes that arrived at the AQ (forwarded or dropped).
    pub arrived_bytes: u64,
    /// Packets dropped because the gap exceeded the AQ limit.
    pub limit_drops: u64,
    /// CE marks applied by the AQ (ECN-based CC policy).
    pub marks: u64,
    /// Number of gap observations behind the max/mean below.
    pub gap_samples: u64,
    /// Maximum A-Gap (bytes) carried by any forwarded packet.
    pub max_gap_bytes: u64,
    /// Mean A-Gap (bytes) over forwarded packets; 0.0 when no samples.
    pub mean_gap_bytes: f64,
    /// Times this AQ's dynamic state was wiped by an injected fault.
    pub wipes: u64,
    /// Nanoseconds from the latest wipe to re-convergence (rebuilt gap
    /// back at its pre-wipe operating point): 0 when never wiped,
    /// `u64::MAX` while still rebuilding.
    pub reconverge_ns: u64,
}

/// End-of-run summary of one AQ *table* (the per-switch, per-position
/// registry of AQ state), exported by `aq-core`'s pipeline alongside the
/// per-instance [`AqSummary`] rows. This is where the bounded-memory
/// story of the table is accounted: the register budget, how close the
/// table ran to it, and how admission pressure was resolved (rejected
/// deploys, evictions, re-admissions, degraded flows).
///
/// Plain data (no `aq-core` types); the `(node, position)` pair is the
/// identity of the table within a run.
#[derive(Debug, Clone)]
pub struct AqTableSummary {
    /// Switch owning the table.
    pub node: NodeId,
    /// Pipeline stage the table serves.
    pub position: AqPosition,
    /// Overflow-policy label (`reject_new` / `evict_idle`).
    pub policy: &'static str,
    /// Configured register budget in bytes; 0 = unbounded.
    pub budget_bytes: u64,
    /// Register bytes occupied at export time.
    pub occupancy_bytes: u64,
    /// Peak register bytes occupied over the run.
    pub peak_bytes: u64,
    /// Deploy attempts refused because the table was at budget
    /// (`RejectNew`, or `EvictIdle` with nothing to evict).
    pub rejected_deploys: u64,
    /// AQs evicted to admit newer demand (`EvictIdle`).
    pub evictions: u64,
    /// Previously parked AQs re-admitted on a subsequent arrival.
    pub readmissions: u64,
    /// Distinct AQ ids that degraded to physical-queue behavior at least
    /// once (their packets bypassed AQ processing while parked).
    pub degraded_flows: u64,
    /// Packets forwarded (or policed) while their AQ was parked.
    pub degraded_pkts: u64,
    /// Wire bytes of [`degraded_pkts`](AqTableSummary::degraded_pkts).
    pub degraded_bytes: u64,
}

/// Lifecycle of one registered flow.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Owning entity.
    pub entity: EntityId,
    /// Flow payload size in bytes (0 for long-lived flows).
    pub bytes: u64,
    /// When the flow was started.
    pub start: Time,
    /// When the flow completed (receiver holds all bytes), if it has.
    pub end: Option<Time>,
}

impl FlowRecord {
    /// Completion time if finished.
    pub fn fct(&self) -> Option<Duration> {
        self.end.map(|e| e - self.start)
    }
}

/// The shared measurement sink owned by the simulator.
///
/// The simulator feeds it at every delivery, enqueue, drop, dequeue, and
/// tx-complete; readers get per-entity, per-port, and per-AQ views with
/// deterministic id-ordered iteration. The port feed maintains
/// the conservation identity `enqueued == dequeued + dropped + resident`
/// at every event boundary:
///
/// ```
/// use aq_netsim::ids::{NodeId, PortId};
/// use aq_netsim::queue::DropCause;
/// use aq_netsim::stats::StatsHub;
/// use aq_netsim::time::Time;
///
/// let mut hub = StatsHub::new();
/// let (node, port) = (NodeId(0), PortId(0));
/// // A 1500 B packet is buffered, then a second one taildrops.
/// hub.on_port_enqueue(Time::from_micros(1), node, port, 1500, 1500, 0);
/// hub.on_port_queue_drop(node, port, 1500, DropCause::Taildrop);
/// let ps = hub.port(port).unwrap();
/// assert!(ps.conserves());
/// assert_eq!((ps.enqueued_bytes, ps.resident_bytes), (3000, 1500));
/// assert_eq!((ps.taildrops, ps.dropped_bytes), (1, 1500));
/// ```
#[derive(Debug, Default)]
pub struct StatsHub {
    /// Dense, indexed by `EntityId`: the per-packet feeders hit this on
    /// every delivery/inject/drop, so lookups must not pay pointer-chasing
    /// map costs. `None` = entity never seen.
    entities: Vec<Option<EntityStats>>,
    flows: BTreeMap<FlowId, FlowRecord>,
    /// Completions reported for flows this hub has no record of. A sharded
    /// run registers a flow at the sender's shard but completes it at the
    /// receiver's; the receiving hub stages the end time here (first call
    /// wins) until [`absorb`](StatsHub::absorb) reunites it with the
    /// record. Empty at digest time in both engines — the single-threaded
    /// hub always sees the registration first.
    orphan_ends: BTreeMap<FlowId, Time>,
    /// Dense, indexed by `PortId` (port ids are globally unique).
    ports: Vec<Option<PortStats>>,
    /// Dense, indexed by `NodeId`: per-switch shared-buffer telemetry.
    /// `None` = node has no pool (hosts, or pool never sampled).
    pools: Vec<Option<BufferStats>>,
    aqs: BTreeMap<(u32, AqPosition), AqSummary>,
    tables: BTreeMap<(NodeId, AqPosition), AqTableSummary>,
}

impl StatsHub {
    /// An empty hub. Every hub samples throughput in [`SAMPLE_WINDOW`]
    /// buckets, so per-shard hubs merge bucket for bucket.
    pub fn new() -> StatsHub {
        StatsHub::default()
    }

    /// Per-entity stats, creating the slot on first touch.
    pub fn entity_mut(&mut self, e: EntityId) -> &mut EntityStats {
        let idx = e.index();
        if idx >= self.entities.len() {
            self.entities.resize_with(idx + 1, || None);
        }
        self.entities[idx].get_or_insert_with(EntityStats::new)
    }

    /// Read-only per-entity stats.
    pub fn entity(&self, e: EntityId) -> Option<&EntityStats> {
        self.entities.get(e.index())?.as_ref()
    }

    /// All entities with any recorded traffic, in `EntityId` order.
    pub fn entities(&self) -> impl Iterator<Item = (EntityId, &EntityStats)> {
        self.entities
            .iter()
            .enumerate()
            .filter_map(|(i, es)| Some((EntityId::from(i), es.as_ref()?)))
    }

    /// Called by the simulator when a data packet reaches its destination.
    pub fn on_delivery(
        &mut self,
        now: Time,
        entity: EntityId,
        payload: u64,
        pq_ns: u64,
        vd_ns: u64,
    ) {
        let es = self.entity_mut(entity);
        es.rx_bytes += payload;
        es.rx_series.record(now, payload);
        es.pq_delay.record(pq_ns);
        es.vdelay.record(vd_ns);
    }

    /// Called wherever a packet of `entity` is dropped (queue taildrop,
    /// shaper rejection, or AQ pipeline drop).
    pub fn on_drop(&mut self, entity: EntityId) {
        self.entity_mut(entity).drops += 1;
    }

    /// Per-port stats, creating the slot on first touch.
    pub fn port_mut(&mut self, node: NodeId, port: PortId) -> &mut PortStats {
        let idx = port.index();
        if idx >= self.ports.len() {
            self.ports.resize_with(idx + 1, || None);
        }
        self.ports[idx].get_or_insert_with(|| PortStats::new(node))
    }

    /// Read-only per-port stats.
    pub fn port(&self, port: PortId) -> Option<&PortStats> {
        self.ports.get(port.index())?.as_ref()
    }

    /// All ports that have seen any traffic, in `PortId` order.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &PortStats)> {
        self.ports
            .iter()
            .enumerate()
            .filter_map(|(i, ps)| Some((PortId::from(i), ps.as_ref()?)))
    }

    /// Called by the simulator when a discipline accepts a packet.
    /// `backlog` is the discipline's backlog *after* the enqueue and
    /// `marks_total` its cumulative CE-mark counter.
    pub fn on_port_enqueue(
        &mut self,
        now: Time,
        node: NodeId,
        port: PortId,
        bytes: u64,
        backlog: u64,
        marks_total: u64,
    ) {
        let ps = self.port_mut(node, port);
        ps.enqueued_bytes += bytes;
        ps.resident_bytes = backlog;
        ps.ecn_marks = marks_total;
        ps.occupancy.record_max(now, backlog);
    }

    /// Called by the simulator when a packet of `entity` is injected by a
    /// sending host app (data/datagram only; `payload` is payload bytes).
    pub fn on_inject(&mut self, entity: EntityId, payload: u64) {
        let es = self.entity_mut(entity);
        es.tx_pkts += 1;
        es.tx_bytes += payload;
    }

    /// Called by the simulator when a packet is dropped at (or past) a
    /// port. Queue-boundary causes count their offered bytes into
    /// `enqueued_bytes` (mirroring the FIFO counters) so the conservation
    /// identity holds; AQ-pipeline drops are attribution-only because
    /// their bytes never entered the queue. Wire deaths are fed through
    /// [`on_wire_drop`](StatsHub::on_wire_drop) instead.
    pub fn on_port_queue_drop(&mut self, node: NodeId, port: PortId, bytes: u64, cause: DropCause) {
        let ps = self.port_mut(node, port);
        match cause {
            // Pipeline drops never traverse the queue; they are attributed
            // through `on_port_aq_drop` and do not enter the byte identity.
            DropCause::AqLimit => ps.aq_drops += 1,
            // Admission-overflow polices likewise drop in the pipeline,
            // before the queue — attribution only.
            DropCause::AqTableOverflow => ps.overflow_drops += 1,
            DropCause::LinkDown | DropCause::Corrupt => {
                unreachable!("wire deaths are fed through on_wire_drop")
            }
            DropCause::Taildrop => {
                ps.enqueued_bytes += bytes;
                ps.dropped_bytes += bytes;
                ps.taildrops += 1;
            }
            DropCause::RedNonEct => {
                ps.enqueued_bytes += bytes;
                ps.dropped_bytes += bytes;
                ps.red_drops += 1;
            }
            DropCause::Shaper => {
                ps.enqueued_bytes += bytes;
                ps.dropped_bytes += bytes;
                ps.shaper_drops += 1;
            }
            DropCause::SharedBufferReject => {
                ps.enqueued_bytes += bytes;
                ps.dropped_bytes += bytes;
                ps.shared_rejects += 1;
            }
        }
    }

    /// Called by the simulator when a packet dies on a port's wire (link
    /// death or stochastic corruption). `cut` marks a frame cut
    /// mid-serialization: its bytes left the queue but never finished
    /// transmitting, so they enter
    /// [`wire_dropped_bytes`](PortStats::wire_dropped_bytes) to close the
    /// wire boundary. A packet lost *after* full serialization
    /// (propagation death, corruption) is already counted in `tx_bytes`,
    /// so only its cause counter moves.
    pub fn on_wire_drop(
        &mut self,
        node: NodeId,
        port: PortId,
        bytes: u64,
        cause: DropCause,
        cut: bool,
    ) {
        let ps = self.port_mut(node, port);
        match cause {
            DropCause::LinkDown => ps.link_drops += 1,
            DropCause::Corrupt => ps.corrupt_drops += 1,
            _ => unreachable!("wire drops are LinkDown or Corrupt"),
        }
        if cut {
            ps.wire_dropped_bytes += bytes;
        }
    }

    /// Called by the simulator when a discipline releases a packet for
    /// transmission. `backlog` is the backlog *after* the dequeue.
    pub fn on_port_dequeue(
        &mut self,
        now: Time,
        node: NodeId,
        port: PortId,
        bytes: u64,
        backlog: u64,
    ) {
        let ps = self.port_mut(node, port);
        ps.dequeued_bytes += bytes;
        ps.resident_bytes = backlog;
        ps.occupancy.record_max(now, backlog);
    }

    /// Called by the simulator when a packet finishes serializing onto the
    /// wire.
    pub fn on_port_tx(&mut self, node: NodeId, port: PortId, bytes: u64) {
        let ps = self.port_mut(node, port);
        ps.tx_pkts += 1;
        ps.tx_bytes += bytes;
    }

    /// Attribute an AQ-pipeline (limit) drop to the output port the packet
    /// would have taken. Packet-count only: the bytes never entered the
    /// port queue.
    pub fn on_port_aq_drop(&mut self, node: NodeId, port: PortId) {
        self.port_mut(node, port).aq_drops += 1;
    }

    /// Per-switch shared-buffer stats, creating the slot on first touch.
    pub fn pool_mut(
        &mut self,
        node: NodeId,
        policy: &'static str,
        capacity_bytes: u64,
    ) -> &mut BufferStats {
        let idx = node.index();
        if idx >= self.pools.len() {
            self.pools.resize_with(idx + 1, || None);
        }
        self.pools[idx].get_or_insert_with(|| BufferStats::new(node, policy, capacity_bytes))
    }

    /// Read-only per-switch shared-buffer stats.
    pub fn pool(&self, node: NodeId) -> Option<&BufferStats> {
        self.pools.get(node.index())?.as_ref()
    }

    /// All switches with sampled shared-buffer pools, in `NodeId` order.
    pub fn pools(&self) -> impl Iterator<Item = (NodeId, &BufferStats)> {
        self.pools
            .iter()
            .enumerate()
            .filter_map(|(i, bs)| Some((NodeId::from(i), bs.as_ref()?)))
    }

    /// Called by the simulator after every shared-buffer pool event
    /// (admission commit, release, rejection, or mark). The cumulative
    /// counters are mirrored absolutely from the pool — like
    /// [`PortStats::ecn_marks`], so repeated samples are idempotent — and
    /// `occupancy_bytes` feeds the per-window peak series.
    #[expect(clippy::too_many_arguments, reason = "one argument per pool counter")]
    pub fn on_pool_sample(
        &mut self,
        now: Time,
        node: NodeId,
        policy: &'static str,
        capacity_bytes: u64,
        occupancy_bytes: u64,
        shared_rejects: u64,
        rejected_bytes: u64,
        marks: u64,
    ) {
        let bs = self.pool_mut(node, policy, capacity_bytes);
        bs.occupancy_bytes = occupancy_bytes;
        bs.shared_rejects = shared_rejects;
        bs.rejected_bytes = rejected_bytes;
        bs.marks = marks;
        bs.occupancy.record_max(now, occupancy_bytes);
    }

    /// Record (or replace) the end-of-run summary of one AQ instance,
    /// keyed by `(tag, position)`. Re-exporting is idempotent, so reports
    /// may be captured repeatedly during a run.
    pub fn record_aq_summary(&mut self, s: AqSummary) {
        self.aqs.insert((s.tag, s.position), s);
    }

    /// All exported AQ summaries, in `(tag, position)` order.
    pub fn aq_summaries(&self) -> impl Iterator<Item = &AqSummary> {
        self.aqs.values()
    }

    /// Record (or replace) the end-of-run summary of one AQ table, keyed
    /// by `(node, position)`. Re-exporting is idempotent, like
    /// [`record_aq_summary`](StatsHub::record_aq_summary).
    pub fn record_table_summary(&mut self, s: AqTableSummary) {
        self.tables.insert((s.node, s.position), s);
    }

    /// All exported AQ table summaries, in `(node, position)` order.
    pub fn table_summaries(&self) -> impl Iterator<Item = &AqTableSummary> {
        self.tables.values()
    }

    /// Declare a flow before it starts so its completion can be awaited.
    pub fn register_flow(&mut self, flow: FlowId, entity: EntityId, bytes: u64, start: Time) {
        self.flows.insert(
            flow,
            FlowRecord {
                entity,
                bytes,
                start,
                end: None,
            },
        );
    }

    /// Mark a flow complete (first call wins). A completion for a flow
    /// this hub never registered is staged as an orphan end — in a sharded
    /// run the record lives in the sender shard's hub and is settled by
    /// [`absorb`](StatsHub::absorb).
    pub fn flow_completed(&mut self, flow: FlowId, now: Time) {
        if let Some(rec) = self.flows.get_mut(&flow) {
            if rec.end.is_none() {
                rec.end = Some(now);
            }
        } else {
            self.orphan_ends.entry(flow).or_insert(now);
        }
    }

    /// Flows whose completion was reported to this hub without a matching
    /// record (see [`flow_completed`](StatsHub::flow_completed)), with the
    /// staged end times. Cross-hub completion polling treats these as
    /// done; the set empties once hubs are merged.
    pub fn orphan_ends(&self) -> impl Iterator<Item = (&FlowId, &Time)> {
        self.orphan_ends.iter()
    }

    /// Lifecycle record of one flow.
    pub fn flow(&self, flow: FlowId) -> Option<&FlowRecord> {
        self.flows.get(&flow)
    }

    /// All registered flows.
    pub fn flows(&self) -> impl Iterator<Item = (&FlowId, &FlowRecord)> {
        self.flows.iter()
    }

    /// Workload completion time for an entity: latest flow end minus
    /// earliest flow start across its registered flows. `None` until every
    /// flow of the entity has completed (or if it has none).
    pub fn entity_completion(&self, entity: EntityId) -> Option<Duration> {
        let mut first_start = Time::MAX;
        let mut last_end = Time::ZERO;
        let mut any = false;
        for rec in self.flows.values().filter(|r| r.entity == entity) {
            any = true;
            first_start = first_start.min(rec.start);
            last_end = last_end.max(rec.end?);
        }
        any.then(|| last_end - first_start)
    }

    /// Fold another hub into this one — the cross-shard stats merge.
    ///
    /// Entity counters and delay samples are summed/concatenated and
    /// throughput series added bucket-wise (exact: the merged hub is as if
    /// one hub had seen every delivery). Flow records are unioned and
    /// orphan ends settled against them. Port and pool slots are *moved*:
    /// every port/pool event of a run happens on the shard owning the
    /// node, so exactly one hub has data for any slot — two writers for
    /// one slot is a sharding bug and panics.
    pub fn absorb(&mut self, other: StatsHub) {
        for (i, es) in other.entities.into_iter().enumerate() {
            let Some(src) = es else { continue };
            let dst = self.entity_mut(EntityId::from(i));
            dst.tx_pkts += src.tx_pkts;
            dst.tx_bytes += src.tx_bytes;
            dst.rx_bytes += src.rx_bytes;
            dst.rx_series.merge_add(&src.rx_series);
            dst.pq_delay.merge(src.pq_delay);
            dst.vdelay.merge(src.vdelay);
            dst.drops += src.drops;
        }
        for (id, rec) in other.flows {
            match self.flows.entry(id) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(rec);
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    // A flow registers on exactly one shard; a duplicate
                    // record can only carry the missing end time.
                    if o.get().end.is_none() {
                        o.get_mut().end = rec.end;
                    }
                }
            }
        }
        for (id, t) in other.orphan_ends {
            self.orphan_ends.entry(id).or_insert(t);
        }
        let settled: Vec<FlowId> = self
            .orphan_ends
            .iter()
            .filter(|(id, _)| self.flows.contains_key(id))
            .map(|(id, _)| *id)
            .collect();
        for id in settled {
            let t = self
                .orphan_ends
                .remove(&id)
                .expect("settled orphan vanished");
            let rec = self
                .flows
                .get_mut(&id)
                .expect("settled orphan lost its record");
            if rec.end.is_none() {
                rec.end = Some(t);
            }
        }
        if other.ports.len() > self.ports.len() {
            self.ports.resize_with(other.ports.len(), || None);
        }
        for (i, ps) in other.ports.into_iter().enumerate() {
            if let Some(ps) = ps {
                assert!(
                    self.ports[i].is_none(),
                    "port {i} has stats in two shard hubs"
                );
                self.ports[i] = Some(ps);
            }
        }
        if other.pools.len() > self.pools.len() {
            self.pools.resize_with(other.pools.len(), || None);
        }
        for (i, bs) in other.pools.into_iter().enumerate() {
            if let Some(bs) = bs {
                assert!(
                    self.pools[i].is_none(),
                    "pool {i} has stats in two shard hubs"
                );
                self.pools[i] = Some(bs);
            }
        }
        for (key, s) in other.aqs {
            assert!(
                self.aqs.insert(key, s).is_none(),
                "AQ summary exported by two shard hubs"
            );
        }
        for (key, s) in other.tables {
            assert!(
                self.tables.insert(key, s).is_none(),
                "AQ table summary exported by two shard hubs"
            );
        }
    }

    /// Fraction of an entity's registered flows that have completed.
    pub fn entity_completed_fraction(&self, entity: EntityId) -> f64 {
        let (mut total, mut done) = (0u64, 0u64);
        for rec in self.flows.values().filter(|r| r.entity == entity) {
            total += 1;
            if rec.end.is_some() {
                done += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            done as f64 / total as f64
        }
    }
}

/// Jain's fairness index over per-entity allocations: 1.0 = perfectly fair.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    if sumsq <= 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sumsq)
}

/// The paper's *entity fairness* (§5.2): ratio of the smaller of two values
/// to the larger; 1.0 = perfectly fair, 0.0 when either is zero.
pub fn minmax_ratio(a: f64, b: f64) -> f64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    if hi <= 0.0 {
        1.0
    } else {
        lo / hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_counter_buckets_by_time() {
        let mut c = WindowedCounter::new(Duration::from_millis(10));
        c.record(Time::from_millis(1), 100);
        c.record(Time::from_millis(9), 50);
        c.record(Time::from_millis(15), 200);
        assert_eq!(c.buckets(), &[150, 200]);
        // 150 bytes in 10 ms = 120 kbit/s.
        assert!((c.rate_series_bps()[0] - 120_000.0).abs() < 1e-9);
    }

    #[test]
    fn padded_series_cover_the_run_horizon() {
        let mut c = WindowedCounter::new(Duration::from_millis(10));
        c.record(Time::from_millis(5), 1000);
        // Raw buckets stop at the last event's window...
        assert_eq!(c.buckets(), &[1000]);
        // ...padding extends to the simulation end with explicit zeros.
        assert_eq!(c.buckets_padded(Time::from_millis(40)), &[1000, 0, 0, 0]);
        assert_eq!(c.padded_len(Time::from_millis(40)), 4);
        // A partial trailing window still counts as covered.
        assert_eq!(c.padded_len(Time::from_millis(41)), 5);
        // Padding never truncates recorded buckets.
        assert_eq!(c.buckets_padded(Time::from_millis(1)), &[1000]);
        assert_eq!(c.buckets_padded(Time::ZERO), &[1000]);
        let rates = c.rate_series_bps_padded(Time::from_millis(40));
        assert_eq!(rates.len(), 4);
        assert!((rates[0] - 800_000.0).abs() < 1e-9);
        assert_eq!(&rates[1..], &[0.0, 0.0, 0.0]);
        // An untouched counter pads to all-zero windows.
        let empty = WindowedCounter::new(Duration::from_millis(10));
        assert_eq!(empty.buckets_padded(Time::from_millis(25)), &[0, 0, 0]);
    }

    #[test]
    fn avg_bps_counts_empty_windows() {
        let mut c = WindowedCounter::new(Duration::from_millis(10));
        c.record(Time::from_millis(5), 1000);
        // 1000 bytes over 40 ms = 200 kbit/s.
        let avg = c.avg_bps(Time::ZERO, Time::from_millis(40));
        assert!((avg - 200_000.0).abs() < 1e-6);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut d = DelayRecorder::default();
        for v in 1..=100u64 {
            d.record(v);
        }
        assert_eq!(d.percentile(50.0), Some(50));
        assert_eq!(d.percentile(95.0), Some(95));
        assert_eq!(d.percentile(100.0), Some(100));
        assert_eq!(d.percentile(1.0), Some(1));
        assert!(DelayRecorder::default().percentile(50.0).is_none());
    }

    #[test]
    fn percentile_clamps_out_of_range_p_and_rejects_nan() {
        let mut d = DelayRecorder::default();
        for v in 1..=10u64 {
            d.record(v);
        }
        // p <= 0 is the minimum sample, p >= 100 the maximum.
        assert_eq!(d.percentile(0.0), Some(1));
        assert_eq!(d.percentile(-5.0), Some(1));
        assert_eq!(d.percentile(100.0), Some(10));
        assert_eq!(d.percentile(250.0), Some(10));
        assert_eq!(d.percentile(f64::INFINITY), Some(10));
        assert_eq!(d.percentile(f64::NEG_INFINITY), Some(1));
        // NaN must be rejected, not silently mapped to the minimum.
        assert!(d.percentile(f64::NAN).is_none());
        assert!(DelayRecorder::default().percentile(f64::NAN).is_none());
    }

    #[test]
    fn entity_completion_spans_first_start_to_last_end() {
        let mut s = StatsHub::new();
        let e = EntityId(1);
        s.register_flow(FlowId(1), e, 100, Time::from_millis(1));
        s.register_flow(FlowId(2), e, 100, Time::from_millis(3));
        assert_eq!(s.entity_completion(e), None);
        s.flow_completed(FlowId(1), Time::from_millis(10));
        assert_eq!(s.entity_completion(e), None); // flow 2 pending
        s.flow_completed(FlowId(2), Time::from_millis(20));
        assert_eq!(s.entity_completion(e), Some(Duration::from_millis(19)));
        assert!((s.entity_completed_fraction(e) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flow_completed_first_call_wins() {
        let mut s = StatsHub::new();
        s.register_flow(FlowId(1), EntityId(1), 10, Time::ZERO);
        s.flow_completed(FlowId(1), Time::from_millis(5));
        s.flow_completed(FlowId(1), Time::from_millis(9));
        assert_eq!(s.flow(FlowId(1)).unwrap().end, Some(Time::from_millis(5)));
    }

    #[test]
    fn delivery_accumulates_per_entity() {
        let mut s = StatsHub::new();
        s.on_delivery(Time::from_millis(2), EntityId(3), 1000, 500, 700);
        s.on_delivery(Time::from_millis(4), EntityId(3), 1000, 900, 100);
        let es = s.entity(EntityId(3)).unwrap();
        assert_eq!(es.rx_bytes, 2000);
        assert_eq!(es.pq_delay.len(), 2);
        assert_eq!(es.pq_delay.percentile(100.0), Some(900));
    }

    #[test]
    fn record_max_keeps_per_window_peak() {
        let mut c = WindowedCounter::new(Duration::from_millis(10));
        c.record_max(Time::from_millis(1), 500);
        c.record_max(Time::from_millis(8), 300);
        c.record_max(Time::from_millis(12), 900);
        c.record_max(Time::from_millis(19), 100);
        assert_eq!(c.buckets(), &[500, 900]);
    }

    #[test]
    fn percentile_cache_follows_new_samples() {
        let mut d = DelayRecorder::default();
        d.record(10);
        d.record(30);
        assert_eq!(d.percentile(100.0), Some(30));
        // The new sample lands unsorted and must be sorted in.
        d.record(20);
        assert_eq!(d.percentile(50.0), Some(20));
        assert_eq!(d.percentile(100.0), Some(30));
    }

    #[test]
    fn percentile_queries_leave_the_debug_digest_unchanged() {
        // The determinism e2e digests `{:?}` of the whole hub; the lazy
        // in-place sort must therefore stay invisible, or merely *reading*
        // percentiles in a report would change the digest bytes.
        let mut d = DelayRecorder::default();
        for s in [50u64, 10, 40, 20, 30] {
            d.record(s);
        }
        let before = format!("{d:?}");
        assert_eq!(d.percentile(50.0), Some(30));
        assert_eq!(d.percentile(99.0), Some(50));
        assert_eq!(
            format!("{d:?}"),
            before,
            "percentile read leaked into Debug"
        );
        // Same contract for the windowed counter's bucket-index memo.
        let mut w = WindowedCounter::new(Duration::from_millis(1));
        w.record(Time::from_micros(100), 7);
        let before = format!("{w:?}");
        w.avg_bps(Time::ZERO, Time::from_micros(200));
        assert_eq!(format!("{w:?}"), before, "rate query leaked into Debug");
    }

    #[test]
    fn window_cache_matches_an_uncached_counter() {
        // The one-entry bucket-index memo is pure caching: a counter fed
        // through the cached fast path (many hits in one window, then a
        // miss into the next) must land every byte in the same bucket as
        // a fresh counter fed one sample per call.
        let w = Duration::from_millis(1);
        let samples = [
            (0u64, 10u64),
            (999, 20),   // same window: cache hit
            (500, 5),    // same window, earlier time: still a hit
            (1_000, 30), // next window: cache miss, recompute
            (2_500, 40), // skip a window
            (2_600, 2),  // hit in the skipped-to window
        ];
        let mut cached = WindowedCounter::new(w);
        for &(us, bytes) in &samples {
            cached.record(Time::from_micros(us), bytes);
        }
        let mut fresh = WindowedCounter::new(w);
        for &(us, bytes) in &samples {
            // A throwaway record at a far time between samples defeats the
            // memo, forcing the slow division path every time.
            let mut probe = fresh.clone();
            probe.record(Time::from_micros(us + 10_000), 0);
            fresh.record(Time::from_micros(us), bytes);
        }
        assert_eq!(
            format!("{cached:?}"),
            format!("{fresh:?}"),
            "cached and uncached bucket placement diverged"
        );
    }

    #[test]
    fn port_feed_methods_preserve_byte_identity() {
        let mut s = StatsHub::new();
        let (n, p) = (NodeId(0), PortId(7));
        s.on_port_enqueue(Time::from_millis(1), n, p, 1000, 1000, 0);
        s.on_port_enqueue(Time::from_millis(2), n, p, 1000, 2000, 1);
        s.on_port_queue_drop(n, p, 1000, DropCause::Taildrop);
        s.on_port_queue_drop(n, p, 500, DropCause::SharedBufferReject);
        s.on_port_dequeue(Time::from_millis(3), n, p, 1000, 1000);
        s.on_port_tx(n, p, 1000);
        // AQ-limit and wire (fault) drops are attribution-only and must
        // not disturb the queue byte identity. Only a frame cut
        // mid-serialization contributes its bytes to the wire boundary; a
        // post-serialization death is already inside tx_bytes.
        s.on_port_queue_drop(n, p, 1000, DropCause::AqLimit);
        s.on_wire_drop(n, p, 900, DropCause::LinkDown, true);
        s.on_wire_drop(n, p, 850, DropCause::LinkDown, false);
        s.on_wire_drop(n, p, 800, DropCause::Corrupt, false);
        let ps = s.port(p).unwrap();
        assert!(ps.conserves());
        assert_eq!(ps.enqueued_bytes, 3500);
        assert_eq!(ps.dequeued_bytes, 1000);
        assert_eq!(ps.dropped_bytes, 1500);
        assert_eq!(ps.resident_bytes, 1000);
        assert_eq!(ps.taildrops, 1);
        assert_eq!(ps.shared_rejects, 1);
        assert_eq!(ps.aq_drops, 1);
        assert_eq!(ps.link_drops, 2);
        assert_eq!(ps.corrupt_drops, 1);
        assert_eq!(ps.wire_dropped_bytes, 900);
        assert_eq!(ps.queue_drops(), 2);
        assert_eq!(ps.ecn_marks, 1);
        assert_eq!(ps.tx_pkts, 1);
        assert_eq!(ps.peak_occupancy_bytes(), 2000);
    }

    #[test]
    fn one_drop_of_each_cause_moves_exactly_its_named_counter() {
        let (n, p) = (NodeId(0), PortId(7));
        for &cause in DropCause::ALL {
            let mut s = StatsHub::new();
            match cause {
                DropCause::LinkDown | DropCause::Corrupt => s.on_wire_drop(n, p, 100, cause, false),
                _ => s.on_port_queue_drop(n, p, 100, cause),
            }
            let ps = s.port(p).expect("port was fed");
            for &other in DropCause::ALL {
                assert_eq!(
                    ps.drop_count(other),
                    u64::from(other == cause),
                    "one {cause:?} drop, reading `{}`",
                    other.counter()
                );
            }
        }
        let names: std::collections::BTreeSet<_> =
            DropCause::ALL.iter().map(|c| c.counter()).collect();
        assert_eq!(
            names.len(),
            DropCause::ALL.len(),
            "two causes share a counter"
        );
    }

    #[test]
    fn pool_samples_mirror_counters_and_keep_windowed_peaks() {
        let mut s = StatsHub::new();
        let n = NodeId(2);
        s.on_pool_sample(Time::from_millis(1), n, "dt", 150_000, 40_000, 0, 0, 0);
        s.on_pool_sample(Time::from_millis(4), n, "dt", 150_000, 25_000, 1, 1060, 2);
        s.on_pool_sample(Time::from_millis(12), n, "dt", 150_000, 9_000, 1, 1060, 2);
        let bs = s.pool(n).unwrap();
        assert_eq!(bs.policy, "dt");
        assert_eq!(bs.capacity_bytes, 150_000);
        // Counters are mirrored absolutely (idempotent re-sampling)...
        assert_eq!(bs.shared_rejects, 1);
        assert_eq!(bs.rejected_bytes, 1060);
        assert_eq!(bs.marks, 2);
        assert_eq!(bs.occupancy_bytes, 9_000);
        // ...and the series keeps per-window peaks.
        assert_eq!(bs.occupancy.buckets(), &[40_000, 9_000]);
        assert_eq!(bs.peak_occupancy_bytes(), 40_000);
        // Hosts without pools stay invisible.
        assert!(s.pool(NodeId(0)).is_none());
        let nodes: Vec<NodeId> = s.pools().map(|(id, _)| id).collect();
        assert_eq!(nodes, vec![n]);
    }

    #[test]
    fn aq_summary_reexport_is_idempotent() {
        let mut s = StatsHub::new();
        let mk = |drops| AqSummary {
            tag: 5,
            position: AqPosition::Ingress,
            rate_bps: 1_000_000_000,
            limit_bytes: 150_000,
            arrived_bytes: 1_000,
            limit_drops: drops,
            marks: 0,
            gap_samples: 10,
            max_gap_bytes: 3_000,
            mean_gap_bytes: 1_500.0,
            wipes: 0,
            reconverge_ns: 0,
        };
        s.record_aq_summary(mk(1));
        s.record_aq_summary(mk(2));
        let all: Vec<&AqSummary> = s.aq_summaries().collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].limit_drops, 2);
        assert_eq!(all[0].position.label(), "ingress");
    }

    #[test]
    fn fairness_metrics() {
        assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        assert!((minmax_ratio(5.0, 10.0) - 0.5).abs() < 1e-12);
        assert!((minmax_ratio(10.0, 5.0) - 0.5).abs() < 1e-12);
        assert!((minmax_ratio(0.0, 0.0) - 1.0).abs() < 1e-12);
    }
}
