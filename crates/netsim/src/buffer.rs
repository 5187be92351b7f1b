//! Shared switch buffer: one pool per switch, arbitrated across ports.
//!
//! Real datacenter switches do not give every output port a private
//! buffer: all ports draw from one shared memory pool, and an *admission*
//! mechanism decides, packet by packet, whether a port may grow its share.
//! This module models that layer. A [`SharedBufferPool`] sits in front of
//! every queue discipline on a switch (the simulator consults it on every
//! enqueue) and delegates the admit/mark/reject decision to a pluggable
//! [`AdmissionPolicy`]:
//!
//! * [`StaticPartition`] — every port owns a fixed `capacity / ports`
//!   slice. This is the reference: it behaves exactly like today's
//!   isolated per-port FIFOs, just with the limit expressed through the
//!   pool.
//! * [`DynamicThreshold`] — the classic DT algorithm: a port may buffer up
//!   to `alpha × (capacity − occupancy)` bytes, so thresholds shrink as
//!   the pool fills and a single hot port can borrow most of an idle
//!   pool.
//! * [`DelayDriven`] — BShare-style sharing: admission is governed by the
//!   *projected queueing delay* of the arriving packet (port backlog plus
//!   the packet, divided by the port's drain rate). Below the mark
//!   threshold packets are admitted untouched; between mark and max they
//!   are admitted but ECN-marked; beyond max they are rejected.
//!
//! All policy arithmetic is integer (fixed-point where a ratio is needed),
//! so decisions are exactly reproducible — no floating point reaches the
//! simulation fast path. Rejections surface as
//! [`DropCause::SharedBufferReject`](crate::queue::DropCause) through the
//! normal port-drop accounting, and pool occupancy is mirrored into
//! [`BufferStats`](crate::stats::BufferStats) windowed series.

use crate::ids::PortId;
use crate::time::{Duration, Rate};

/// Verdict of an [`AdmissionPolicy`] for one arriving packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Buffer the packet.
    Admit,
    /// Buffer the packet but apply a CE mark if it is ECN-capable
    /// (delay-driven early signalling; non-ECT packets are admitted
    /// unmarked).
    AdmitMark,
    /// Refuse the packet; it is dropped with
    /// [`DropCause::SharedBufferReject`](crate::queue::DropCause).
    Reject,
}

/// Everything a policy may consult for one admission decision.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionCtx {
    /// Total pool capacity in bytes.
    pub capacity_bytes: u64,
    /// Current pool-wide occupancy in bytes (before this packet).
    pub occupancy_bytes: u64,
    /// The arriving port's current share of the pool in bytes.
    pub port_occupancy_bytes: u64,
    /// Number of ports sharing the pool.
    pub ports: u64,
    /// Wire size of the arriving packet in bytes.
    pub pkt_bytes: u64,
    /// Line rate the arriving port drains at.
    pub drain: Rate,
}

/// A pluggable shared-buffer admission algorithm.
///
/// Policies are pure deciders: they never mutate pool state. The pool
/// enforces the hard capacity cap itself before the policy is consulted,
/// so a policy only shapes *how* the remaining headroom is shared.
pub trait AdmissionPolicy: Send {
    /// Decide the fate of one arriving packet.
    fn admit(&self, ctx: &AdmissionCtx) -> Admission;

    /// Stable lowercase label used in serialized reports.
    fn name(&self) -> &'static str;
}

/// Fixed per-port partitioning: each port owns `capacity / ports` bytes.
///
/// The reference policy — equivalent to today's isolated per-port buffers,
/// so `StaticPartition` is the baseline the dynamic policies are compared
/// against.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticPartition;

impl AdmissionPolicy for StaticPartition {
    fn admit(&self, ctx: &AdmissionCtx) -> Admission {
        let share = ctx.capacity_bytes / ctx.ports.max(1);
        if ctx.port_occupancy_bytes + ctx.pkt_bytes > share {
            Admission::Reject
        } else {
            Admission::Admit
        }
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

/// Classic Dynamic Threshold (DT): a port may occupy up to
/// `alpha × (capacity − occupancy)` bytes.
///
/// `alpha` is stored in integer per-mille so the per-packet threshold
/// computation stays in integer arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct DynamicThreshold {
    /// `alpha` scaled by 1000 (e.g. `alpha = 0.5` → 500).
    alpha_milli: u64,
}

impl DynamicThreshold {
    /// A DT policy with the given `alpha` (clamped to `[0, 64]`, rounded
    /// to per-mille precision).
    pub fn new(alpha: f64) -> DynamicThreshold {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "alpha is clamped to [0, 64], so this is ≤ 64 000 (a NaN alpha casts to 0)"
        )]
        let alpha_milli = (alpha.clamp(0.0, 64.0) * 1000.0).round() as u64;
        DynamicThreshold { alpha_milli }
    }
}

impl AdmissionPolicy for DynamicThreshold {
    fn admit(&self, ctx: &AdmissionCtx) -> Admission {
        let free = ctx.capacity_bytes.saturating_sub(ctx.occupancy_bytes);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "free ≤ capacity and alpha ≤ 64: at most 64 buffers' worth of bytes"
        )]
        let threshold = (free as u128 * self.alpha_milli as u128 / 1000) as u64;
        if ctx.port_occupancy_bytes + ctx.pkt_bytes > threshold {
            Admission::Reject
        } else {
            Admission::Admit
        }
    }

    fn name(&self) -> &'static str {
        "dt"
    }
}

/// BShare-style delay-driven sharing: admission keyed on the *projected
/// queueing delay* the arriving packet would experience on its port.
///
/// Delay is the port's post-admission backlog divided by its drain rate —
/// exactly what the packet will wait before reaching the wire. Up to
/// `mark_delay` the packet passes untouched; between `mark_delay` and
/// `max_delay` it is admitted with a CE mark (early congestion
/// signalling); beyond `max_delay` it is rejected, bounding per-port
/// queueing delay regardless of how much pool memory is free.
#[derive(Debug, Clone, Copy)]
pub struct DelayDriven {
    /// Projected delay at/above which admitted packets are CE-marked.
    mark_delay: Duration,
    /// Projected delay above which packets are rejected.
    max_delay: Duration,
}

impl DelayDriven {
    /// A delay-driven policy marking at `mark_delay` and rejecting past
    /// `max_delay`.
    pub fn new(mark_delay: Duration, max_delay: Duration) -> DelayDriven {
        DelayDriven {
            mark_delay,
            max_delay,
        }
    }
}

impl AdmissionPolicy for DelayDriven {
    fn admit(&self, ctx: &AdmissionCtx) -> Admission {
        let projected = ctx
            .drain
            .transmit_time(ctx.port_occupancy_bytes + ctx.pkt_bytes);
        if projected > self.max_delay {
            Admission::Reject
        } else if projected > self.mark_delay {
            Admission::AdmitMark
        } else {
            Admission::Admit
        }
    }

    fn name(&self) -> &'static str {
        "delay"
    }
}

/// One switch's shared packet buffer.
///
/// The simulator consults the pool before offering a packet to the port's
/// queue discipline, commits the bytes only once the discipline accepts
/// (so a taildrop never leaks pool occupancy), and releases them when the
/// packet is dequeued for transmission. Per-port shares therefore mirror
/// the disciplines' backlogs exactly, and
/// `Σ port shares == pool occupancy ≤ capacity` holds at every event
/// boundary.
pub struct SharedBufferPool {
    capacity: u64,
    occupancy: u64,
    /// Per-port byte shares, indexed by global [`PortId`] (lazily sized —
    /// only this switch's ports are ever touched).
    per_port: Vec<u64>,
    /// Number of ports sharing the pool (the static-partition divisor).
    ports: u64,
    policy: Box<dyn AdmissionPolicy>,
    /// Cumulative admission rejections.
    rejects: u64,
    /// Cumulative bytes of rejected packets.
    rejected_bytes: u64,
    /// Cumulative CE marks applied on admission (delay-driven policies).
    marks: u64,
}

impl SharedBufferPool {
    /// A pool of `capacity_bytes` shared by `ports` ports under `policy`.
    pub fn new(capacity_bytes: u64, ports: usize, policy: Box<dyn AdmissionPolicy>) -> Self {
        SharedBufferPool {
            capacity: capacity_bytes,
            occupancy: 0,
            per_port: Vec::new(),
            ports: ports as u64,
            policy,
            rejects: 0,
            rejected_bytes: 0,
            marks: 0,
        }
    }

    fn share_mut(&mut self, port: PortId) -> &mut u64 {
        let idx = port.index();
        if idx >= self.per_port.len() {
            self.per_port.resize(idx + 1, 0);
        }
        &mut self.per_port[idx]
    }

    /// Decide the fate of a packet of `pkt_bytes` arriving at `port`
    /// (which drains at `drain`). A rejection is counted immediately; an
    /// admission must be followed by [`commit`](SharedBufferPool::commit)
    /// once the discipline accepts the packet.
    pub fn admit(&mut self, port: PortId, pkt_bytes: u64, drain: Rate) -> Admission {
        let port_occ = self.port_occupancy(port);
        // Hard cap first: no policy may oversubscribe physical memory.
        let verdict = if self.occupancy + pkt_bytes > self.capacity {
            Admission::Reject
        } else {
            self.policy.admit(&AdmissionCtx {
                capacity_bytes: self.capacity,
                occupancy_bytes: self.occupancy,
                port_occupancy_bytes: port_occ,
                ports: self.ports,
                pkt_bytes,
                drain,
            })
        };
        if verdict == Admission::Reject {
            self.rejects += 1;
            self.rejected_bytes += pkt_bytes;
        }
        verdict
    }

    /// Record that a CE mark requested by [`Admission::AdmitMark`] was
    /// actually applied (the packet was ECN-capable).
    pub(crate) fn note_mark(&mut self) {
        self.marks += 1;
    }

    /// Commit an admitted packet's bytes once the discipline accepted it.
    pub fn commit(&mut self, port: PortId, bytes: u64) {
        self.occupancy += bytes;
        *self.share_mut(port) += bytes;
        crate::invariant!(
            self.occupancy <= self.capacity,
            "pool occupancy {} exceeds capacity {}",
            self.occupancy,
            self.capacity,
        );
        self.check_shares();
    }

    /// Release a packet's bytes when it leaves the port queue for the
    /// wire.
    pub fn release(&mut self, port: PortId, bytes: u64) {
        let share = self.share_mut(port);
        crate::invariant!(
            *share >= bytes,
            "pool release of {bytes} bytes from a {share} byte share",
        );
        *share = share.saturating_sub(bytes);
        crate::invariant!(
            self.occupancy >= bytes,
            "pool release of {} bytes from occupancy {}",
            bytes,
            self.occupancy,
        );
        self.occupancy = self.occupancy.saturating_sub(bytes);
        self.check_shares();
    }

    /// Shares must always sum to the pool occupancy — the pool neither
    /// creates nor destroys bytes.
    fn check_shares(&self) {
        crate::invariant!(
            self.per_port.iter().sum::<u64>() == self.occupancy,
            "pool shares sum to {} but occupancy is {}",
            self.per_port.iter().sum::<u64>(),
            self.occupancy,
        );
    }

    /// Total pool capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Current pool-wide occupancy in bytes.
    pub fn occupancy(&self) -> u64 {
        self.occupancy
    }

    /// `port`'s current share of the pool in bytes.
    pub fn port_occupancy(&self, port: PortId) -> u64 {
        self.per_port.get(port.index()).copied().unwrap_or(0)
    }

    /// Cumulative admission rejections.
    pub fn rejects(&self) -> u64 {
        self.rejects
    }

    /// Cumulative bytes of rejected packets.
    pub fn rejected_bytes(&self) -> u64 {
        self.rejected_bytes
    }

    /// Cumulative CE marks applied on admission.
    pub fn marks(&self) -> u64 {
        self.marks
    }

    /// The installed policy's label.
    pub(crate) fn policy_name(&self) -> &'static str {
        self.policy.name()
    }
}

impl std::fmt::Debug for SharedBufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBufferPool")
            .field("policy", &self.policy.name())
            .field("capacity", &self.capacity)
            .field("occupancy", &self.occupancy)
            .field("rejects", &self.rejects)
            .field("marks", &self.marks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBPS10: Rate = Rate(10_000_000_000);

    fn pool(policy: Box<dyn AdmissionPolicy>) -> SharedBufferPool {
        SharedBufferPool::new(10_000, 4, policy)
    }

    #[test]
    fn static_partition_caps_each_port_at_its_slice() {
        let mut p = pool(Box::new(StaticPartition));
        // 10_000 / 4 ports = 2_500 bytes per port.
        assert_eq!(p.admit(PortId(0), 2_000, GBPS10), Admission::Admit);
        p.commit(PortId(0), 2_000);
        assert_eq!(p.admit(PortId(0), 1_000, GBPS10), Admission::Reject);
        // Another port's slice is untouched even though port 0 is full.
        assert_eq!(p.admit(PortId(1), 2_500, GBPS10), Admission::Admit);
        assert_eq!(p.rejects(), 1);
        assert_eq!(p.rejected_bytes(), 1_000);
    }

    #[test]
    fn dynamic_threshold_shrinks_as_the_pool_fills() {
        let mut p = pool(Box::new(DynamicThreshold::new(1.0)));
        // Empty pool: threshold = 1.0 * 10_000; a single port may take
        // far more than its static 2_500 slice.
        assert_eq!(p.admit(PortId(0), 4_000, GBPS10), Admission::Admit);
        p.commit(PortId(0), 4_000);
        // Now threshold = 10_000 - 4_000 = 6_000 ≥ 4_000 + 1_500: still ok.
        assert_eq!(p.admit(PortId(0), 1_500, GBPS10), Admission::Admit);
        p.commit(PortId(0), 1_500);
        // Threshold = 4_500 < 5_500 resident: the port is now over its DT
        // bound and further growth is refused.
        assert_eq!(p.admit(PortId(0), 100, GBPS10), Admission::Reject);
        // A cold port is held to the same shrunken threshold but starts
        // from zero, so it still gets in.
        assert_eq!(p.admit(PortId(1), 1_000, GBPS10), Admission::Admit);
    }

    #[test]
    fn delay_driven_marks_then_rejects_by_projected_delay() {
        // At 10 Gbps: 1 byte = 0.8 ns, so 10 us ≈ 12_500 bytes.
        let policy = DelayDriven::new(Duration::from_micros(2), Duration::from_micros(6));
        let mut p = SharedBufferPool::new(100_000, 4, Box::new(policy));
        // 2 us at 10 Gbps = 2_500 bytes; below → plain admit.
        assert_eq!(p.admit(PortId(0), 2_000, GBPS10), Admission::Admit);
        p.commit(PortId(0), 2_000);
        // 2_000 + 2_000 = 4_000 bytes → 3.2 us > 2 us → admit + mark.
        assert_eq!(p.admit(PortId(0), 2_000, GBPS10), Admission::AdmitMark);
        p.commit(PortId(0), 2_000);
        p.note_mark();
        // 4_000 + 4_000 = 8_000 bytes → 6.4 us > 6 us → reject.
        assert_eq!(p.admit(PortId(0), 4_000, GBPS10), Admission::Reject);
        assert_eq!((p.marks(), p.rejects()), (1, 1));
    }

    #[test]
    fn hard_cap_binds_before_any_policy() {
        // DT with a huge alpha would admit anything; the physical
        // capacity still refuses oversubscription.
        let mut p = SharedBufferPool::new(3_000, 2, Box::new(DynamicThreshold::new(64.0)));
        assert_eq!(p.admit(PortId(0), 2_000, GBPS10), Admission::Admit);
        p.commit(PortId(0), 2_000);
        assert_eq!(p.admit(PortId(1), 1_500, GBPS10), Admission::Reject);
        assert_eq!(p.admit(PortId(1), 1_000, GBPS10), Admission::Admit);
    }

    #[test]
    fn commit_release_keeps_shares_and_occupancy_in_lockstep() {
        let mut p = pool(Box::new(StaticPartition));
        p.commit(PortId(2), 1_200);
        p.commit(PortId(3), 800);
        assert_eq!(p.occupancy(), 2_000);
        assert_eq!(p.port_occupancy(PortId(2)), 1_200);
        p.release(PortId(2), 1_200);
        assert_eq!(p.occupancy(), 800);
        assert_eq!(p.port_occupancy(PortId(2)), 0);
        p.release(PortId(3), 800);
        assert_eq!(p.occupancy(), 0);
    }

    #[test]
    fn policy_names_are_stable_report_labels() {
        assert_eq!(StaticPartition.name(), "static");
        assert_eq!(DynamicThreshold::new(0.5).name(), "dt");
        assert_eq!(
            DelayDriven::new(Duration::ZERO, Duration::ZERO).name(),
            "delay"
        );
        assert_eq!(DynamicThreshold::new(0.5).alpha_milli, 500);
    }
}
