//! An executable specification of Algorithm 1 + 2 and of the AQ table,
//! and the checker that holds an [`AqTable`] to it.
//!
//! The spec is written from the paper (§3.2–§3.3, Algorithms 1 and 2) and
//! DESIGN §1, not from [`gap`](crate::gap) or [`feedback`](crate::feedback),
//! and it is deliberately naive: one `BTreeMap` row per AQ, eviction by a
//! scan over every row, and the A-Gap held *exactly* as
//! `bytes × 8·10⁹` in a `u128`, so draining `Δ` nanoseconds at `R` bit/s
//! is the integer `Δns × bps` and nothing is ever rounded. Per arrival of
//! `size` bytes at time `t` it runs
//!
//! ```text
//! A = max{0, A − (t − last)·R} + size          (Theorem 3.2, Algorithm 1)
//! A > limit            → drop, A = A − size    (Algorithm 2, lines 2–4)
//! ECN-capable, A > K   → forward CE-marked     (ECN-based CC)
//! otherwise            → forward, carrying A/R (virtual queuing delay)
//! ```
//!
//! and keeps the drop, mark and arrived counters, the max and mean of the
//! gap carried by forwarded packets, the wipe-and-recovery rule of
//! [`AqInstance::wiped`], and the table's register budget with its
//! [`OverflowPolicy`] (the `EvictIdle` victim is the smallest
//! `(last arrival, id)`).
//!
//! ## Tolerance
//!
//! The table holds the gap in 2⁻¹⁶-byte fixed point. Each drain truncates
//! less than 2⁻¹⁶ B, always toward a *larger* gap, and the error
//! accumulates until the gap next empties. So the checker does not ask for
//! equality. With `G` the spec's gap in its units and `n` the drains
//! whose exact amount is not a whole number of 2⁻¹⁶ B since the spec's gap
//! last emptied with at least `n·2⁻¹⁶` B to spare (which empties the
//! table's gap too), it asserts
//!
//! ```text
//! 0 ≤ gap_sub·8·10⁹ − G·2¹⁶ < n·8·10⁹      (= 0 when n = 0)
//! ```
//!
//! Counting from any emptying of the spec's gap would be unsound: a drain
//! that empties it with less to spare can leave up to `n·2⁻¹⁶` B in the
//! table's. The table's verdict must be Algorithm 2's on the table's own
//! gap, exactly, and the spec takes that branch, so the two stay in
//! lockstep: with the gaps within the bound, the spec's own verdict (drop
//! or mark) could differ only when the two gaps fall on opposite sides of
//! the limit or the ECN threshold. The byte gaps a forwarded packet
//! records, their sum and max, the virtual delay and a wipe's
//! re-convergence target are held to the brackets the same bound gives.
//!
//! ## Where it runs
//!
//! With the `invariants` feature on, every [`AqTable`] keeps a
//! [`SpecTable`] beside its rows and checks every process, deploy,
//! remove, eviction, wipe and control write against it, so every
//! end-to-end run under `invariants` is a spec check. Property tests,
//! which must hold in default builds too, drive the pair through
//! [`Lockstep`].

use std::collections::BTreeMap;

use crate::config::{AqConfig, AqInstance, CcPolicy, Recovery, PACKED_AQ_BYTES};
use crate::feedback::AqVerdict;
use crate::gap::GAP_FRAC_BITS;
use crate::table::{AqTable, DeployOutcome, OverflowPolicy};
use aq_netsim::packet::{AqTag, Ecn, Packet};
use aq_netsim::time::{Rate, Time, NS_PER_SEC};

/// Spec gap units per byte: the gap is `bytes × 8·10⁹`, so a drain of
/// `Δns` at `bps` is exactly `Δns × bps` units.
const PER_BYTE: u128 = 8 * NS_PER_SEC as u128;
/// The table's fixed-point units per byte.
const SUB: u128 = 1 << GAP_FRAC_BITS;
/// The virtual delay of an AQ with no rate, which never drains: the
/// simulator's "never".
const UNDRAINED_DELAY_NS: u64 = u64::MAX / 4;

/// One deployed AQ in the spec.
#[derive(Debug, Clone)]
pub struct SpecRow {
    /// The configuration as last deployed or retargeted.
    pub cfg: AqConfig,
    /// `A(t)` in units of 1/(8·10⁹) byte.
    gap: u128,
    /// The time the gap was last drained to.
    last: Time,
    /// When the AQ last saw a packet (its deploy time until then).
    last_arrival: Time,
    /// Inexact drains since the gap last emptied with room to spare (see
    /// the module docs): the table's gap may exceed this one by less than
    /// 2⁻¹⁶ B per such drain.
    inexact: u64,
    drops: u64,
    marks: u64,
    arrived: u64,
    /// Forwarded packets, and the sum and max of the whole-byte gaps they
    /// carried, each as `[spec, spec + fixed-point allowance]`.
    samples: u64,
    sum: [u128; 2],
    max: [u64; 2],
    recovery: Option<Recovery>,
}

impl SpecRow {
    fn new(cfg: AqConfig, now: Time) -> SpecRow {
        SpecRow {
            cfg,
            gap: 0,
            last: now,
            last_arrival: now,
            inexact: 0,
            drops: 0,
            marks: 0,
            arrived: 0,
            samples: 0,
            sum: [0; 2],
            max: [0; 2],
            recovery: None,
        }
    }

    /// Drain `max{0, A − Δ·R}` up to `now`; a time before the last one is
    /// the same instant (Δ = 0).
    fn drain_to(&mut self, now: Time) {
        if now <= self.last {
            return;
        }
        let drained = u128::from((now - self.last).as_nanos()) * u128::from(self.cfg.rate.as_bps());
        self.last = now;
        let spare = drained.saturating_sub(self.gap);
        if drained >= self.gap && spare * SUB >= u128::from(self.inexact) * PER_BYTE {
            self.inexact = 0;
        } else if !(drained * SUB).is_multiple_of(PER_BYTE) {
            self.inexact += 1;
        }
        self.gap -= drained.min(self.gap);
    }

    /// Algorithm 1 for one arrival of `size` bytes at `now`.
    fn arrive(&mut self, now: Time, size: u32) {
        self.arrived += u64::from(size);
        self.last_arrival = now;
        self.drain_to(now);
        self.gap += u128::from(size) * PER_BYTE;
    }

    /// Algorithm 2's comparison `A > bytes`.
    fn above(&self, bytes: u64) -> bool {
        self.gap > u128::from(bytes) * PER_BYTE
    }

    /// The most the table's gap may exceed this one by, in 2¹⁶·8·10⁹ units
    /// per byte (the module docs' bound, inclusive).
    fn slack(&self) -> u128 {
        (u128::from(self.inexact) * PER_BYTE).saturating_sub(1)
    }

    /// The gap in whole bytes rounded up, as `[spec, spec + allowance]`.
    fn byte_gap(&self) -> [u64; 2] {
        let per = SUB * PER_BYTE;
        let spec = self.gap * SUB;
        [spec, spec + self.slack()].map(|g| u64::try_from(g.div_ceil(per)).unwrap_or(u64::MAX))
    }

    /// The virtual queuing delay `A/R` in nanoseconds, as
    /// `[spec, spec + allowance]`.
    fn delay_ns(&self) -> [u64; 2] {
        let bps = u128::from(self.cfg.rate.as_bps());
        if bps == 0 {
            return [UNDRAINED_DELAY_NS; 2];
        }
        let spec = self.gap * SUB;
        [spec, spec + self.slack()].map(|g| u64::try_from(g / (SUB * bps)).unwrap_or(u64::MAX))
    }

    /// Algorithm 2's verdict for the packet that just arrived, on a gap
    /// that `above(bytes)` says exceeds `bytes` or not.
    fn decide(&self, pkt: &Packet, above: impl Fn(u64) -> bool) -> AqVerdict {
        if above(self.cfg.limit_bytes) {
            return AqVerdict::Drop;
        }
        match self.cfg.cc {
            CcPolicy::DropBased => AqVerdict::Forward,
            CcPolicy::EcnBased { threshold_bytes }
                if pkt.ecn.can_mark() && above(u64::from(threshold_bytes)) =>
            {
                AqVerdict::ForwardMarked
            }
            CcPolicy::EcnBased { .. } => AqVerdict::Forward,
            CcPolicy::DelayBased => AqVerdict::ForwardWithDelay {
                vdelay_ns: self.delay_ns()[0],
            },
        }
    }

    /// Carry out `verdict` on the packet that just arrived at `now`.
    fn settle(&mut self, now: Time, verdict: AqVerdict, pkt: &mut Packet) {
        if verdict == AqVerdict::Drop {
            // The dropped packet never enters the network.
            self.gap -= u128::from(pkt.size) * PER_BYTE;
            self.drops += 1;
        } else {
            let bytes = self.byte_gap();
            self.samples += 1;
            for ((sum, max), b) in self.sum.iter_mut().zip(&mut self.max).zip(bytes) {
                *sum += u128::from(b);
                *max = (*max).max(b);
            }
            pkt.vdelay_ns = pkt.vdelay_ns.saturating_add(self.delay_ns()[0]);
            if verdict == AqVerdict::ForwardMarked {
                pkt.ecn = Ecn::CongestionExperienced;
                self.marks += 1;
            }
        }
        // A wiped AQ has re-converged once the bytes arriving after the
        // wipe reach the target; the first crossing counts.
        if let Some(r) = &mut self.recovery {
            if r.recovered_at.is_none() && self.arrived >= r.target_bytes {
                r.recovered_at = Some(now);
            }
        }
    }

    /// The re-convergence target a wipe arms: the mean forwarded gap in
    /// whole bytes (floored), capped at the limit, as
    /// `[spec, spec + allowance]`.
    fn wipe_target(&self) -> [u64; 2] {
        let n = u128::from(self.samples.max(1));
        self.sum.map(|s| {
            u64::try_from(s / n)
                .unwrap_or(u64::MAX)
                .min(self.cfg.limit_bytes)
        })
    }

    /// The row after a switch reboot at `now`: the configuration and idle
    /// clock stay, everything dynamic restarts, and recovery is armed with
    /// `target`.
    fn wiped(&self, now: Time, target_bytes: u64) -> SpecRow {
        let mut fresh = SpecRow::new(self.cfg.clone(), now);
        fresh.last_arrival = self.last_arrival;
        fresh.recovery = Some(Recovery {
            wipes: self.recovery.as_ref().map_or(0, |r| r.wipes) + 1,
            wiped_at: now,
            target_bytes,
            recovered_at: None,
        });
        fresh
    }

    /// Hold a table row (and its idle clock, when known) to this one.
    fn check(&self, inst: &AqInstance, last_arrival: Option<Time>) -> Result<(), String> {
        let id = self.cfg.id.0;
        let fail = |what: &str, got: &dyn std::fmt::Debug, want: &dyn std::fmt::Debug| {
            Err(format!(
                "aq {id}: {what} is {got:?}, the spec says {want:?}"
            ))
        };
        if inst.cfg != self.cfg || inst.gap.rate() != self.cfg.rate {
            return fail("config", &(&inst.cfg, inst.gap.rate()), &self.cfg);
        }
        let (table, spec) = (u128::from(inst.gap.gap_sub()) * PER_BYTE, self.gap * SUB);
        if table < spec || table - spec > self.slack() {
            let want = format!(
                "{spec} + at most {} (after {} inexact drains)",
                self.slack(),
                self.inexact
            );
            return fail("gap × 2¹⁶·8·10⁹", &table, &want);
        }
        let counters = (inst.drops, inst.marks, inst.arrived_bytes);
        if counters != (self.drops, self.marks, self.arrived) {
            return fail(
                "(drops, marks, arrived)",
                &counters,
                &(self.drops, self.marks, self.arrived),
            );
        }
        let track = &inst.gap_track;
        if track.samples() != self.samples
            || !(self.sum[0]..=self.sum[1]).contains(&track.sum())
            || !(self.max[0]..=self.max[1]).contains(&track.max_bytes())
        {
            let got = (track.samples(), track.sum(), track.max_bytes());
            return fail(
                "forwarded (samples, gap sum, gap max)",
                &got,
                &(self.samples, self.sum, self.max),
            );
        }
        if inst.recovery.as_deref() != self.recovery.as_ref() {
            return fail("recovery", &inst.recovery, &self.recovery);
        }
        match last_arrival {
            Some(t) if t != self.last_arrival => fail("idle clock", &t, &self.last_arrival),
            _ => Ok(()),
        }
    }
}

/// The spec of one switch's AQ table (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct SpecTable {
    rows: BTreeMap<u32, SpecRow>,
    budget: Option<u64>,
    policy: OverflowPolicy,
    peak: u64,
    rejected: u64,
    evictions: u64,
}

impl SpecTable {
    /// Cap the table at `bytes` of register memory, 15 B per AQ, with
    /// `policy` deciding a deploy that would overflow it.
    pub fn set_budget(&mut self, bytes: Option<u64>, policy: OverflowPolicy) {
        self.budget = bytes;
        self.policy = policy;
    }

    fn occupancy(&self) -> u64 {
        (self.rows.len() * PACKED_AQ_BYTES) as u64
    }

    /// Deploy `cfg` at `now`. An id already deployed restarts from fresh
    /// state; a new id that would overflow the budget is refused, or under
    /// `EvictIdle` replaces the row with the smallest
    /// `(last arrival, id)`.
    pub fn deploy(&mut self, now: Time, cfg: AqConfig) -> DeployOutcome {
        let id = cfg.id.0;
        if let Some(row) = self.rows.get_mut(&id) {
            *row = SpecRow::new(cfg, now);
            return DeployOutcome::Replaced;
        }
        let mut outcome = DeployOutcome::Deployed;
        let fits = |b: u64| self.occupancy() + PACKED_AQ_BYTES as u64 <= b;
        if !self.budget.is_none_or(fits) {
            let victim = match self.policy {
                OverflowPolicy::RejectNew => None,
                OverflowPolicy::EvictIdle => self
                    .rows
                    .values()
                    .map(|r| (r.last_arrival, r.cfg.id.0))
                    .min(),
            };
            let Some((_, victim)) = victim else {
                self.rejected += 1;
                return DeployOutcome::Rejected;
            };
            self.evictions += 1;
            outcome = DeployOutcome::Evicted(
                self.rows
                    .remove(&victim)
                    .map(|r| r.cfg)
                    .expect("victim is a row"),
            );
        }
        self.rows.insert(id, SpecRow::new(cfg, now));
        self.peak = self.peak.max(self.occupancy());
        outcome
    }

    /// Remove the row deployed under `id`.
    pub fn remove(&mut self, id: AqTag) -> Option<SpecRow> {
        self.rows.remove(&id.0)
    }

    /// The control write: from `now` on, `id` drains at `rate` and drops
    /// above `limit_bytes` (`None` keeps the limit). A new rate splits the
    /// drain at `now`; the gap is otherwise updated only by arrivals, as in
    /// Algorithm 1. `false` when `id` is not deployed.
    pub fn retarget(&mut self, id: AqTag, now: Time, rate: Rate, limit_bytes: Option<u64>) -> bool {
        let Some(row) = self.rows.get_mut(&id.0) else {
            return false;
        };
        if row.cfg.rate != rate {
            row.drain_to(now);
            row.cfg.rate = rate;
        }
        if let Some(limit) = limit_bytes {
            row.cfg.limit_bytes = limit;
        }
        true
    }

    /// Algorithm 1 + 2 for one arrival of `pkt` at `now` on `id`, writing
    /// the mark and the virtual delay on the packet. `None` when `id` is
    /// not deployed.
    pub fn process(&mut self, id: AqTag, now: Time, pkt: &mut Packet) -> Option<AqVerdict> {
        let row = self.rows.get_mut(&id.0)?;
        row.arrive(now, pkt.size);
        let verdict = row.decide(pkt, |bytes| row.above(bytes));
        row.settle(now, verdict, pkt);
        Some(verdict)
    }

    /// Check the table-wide state: row count, occupancy, its high-water
    /// mark, the budget and the rejection and eviction counts.
    fn check_counters(&self, table: &AqTable) -> Result<(), String> {
        let got = (
            table.len(),
            table.register_memory_bytes() as u64,
            table.peak_register_memory_bytes(),
            (table.budget_bytes(), table.policy()),
            (table.rejected_deploys(), table.evictions()),
        );
        let want = (
            self.rows.len(),
            self.occupancy(),
            self.peak,
            (self.budget, self.policy),
            (self.rejected, self.evictions),
        );
        if got == want {
            return Ok(());
        }
        Err(format!(
            "table (rows, occupancy, peak, budget, (rejected, evictions)) is {got:?}, the spec says {want:?}"
        ))
    }

    /// Check the table's row for `id` against the spec's, or that neither
    /// has one.
    pub(crate) fn check_row(&self, id: AqTag, table: &AqTable) -> Result<(), String> {
        match (self.rows.get(&id.0), table.get(id)) {
            (None, None) => Ok(()),
            (Some(spec), Some(inst)) => spec.check(inst, table.last_arrival_of(id)),
            (spec, inst) => Err(format!(
                "aq {}: deployed in the spec {}, in the table {}",
                id.0,
                spec.is_some(),
                inst.is_some()
            )),
        }
    }

    /// Check the whole table against the spec: the table-wide state, the
    /// ids in iteration order, and every row at 2⁻¹⁶-byte resolution.
    pub fn check_table(&self, table: &AqTable) -> Result<(), String> {
        self.check_counters(table)?;
        let ids: Vec<u32> = table.iter().map(|inst| inst.cfg.id.0).collect();
        if !ids.iter().eq(self.rows.keys()) {
            return Err(format!(
                "table ids {ids:?}, the spec's {:?}",
                self.rows.keys()
            ));
        }
        self.rows
            .keys()
            .try_for_each(|&id| self.check_row(AqTag(id), table))
    }

    /// Deploy `cfg` at `now` in the spec, and check that the table, which
    /// just did the same, answered `got`.
    pub(crate) fn mirror_deploy(
        &mut self,
        table: &AqTable,
        now: Time,
        cfg: AqConfig,
        got: &DeployOutcome,
    ) -> Result<(), String> {
        let id = cfg.id;
        let want = self.deploy(now, cfg);
        if *got != want {
            return Err(format!(
                "aq {}: deploy answered {got:?}, the spec says {want:?}",
                id.0
            ));
        }
        if let DeployOutcome::Evicted(victim) = &want {
            self.check_row(victim.id, table)?;
        }
        self.check_counters(table)?;
        self.check_row(id, table)
    }

    /// Remove `id` from the spec, and check the row the table removed.
    pub(crate) fn mirror_remove(
        &mut self,
        table: &AqTable,
        id: AqTag,
        got: Option<&AqInstance>,
    ) -> Result<(), String> {
        match (self.remove(id), got) {
            (Some(spec), Some(inst)) => spec.check(inst, None)?,
            (None, None) => {}
            (spec, inst) => {
                let (spec, inst) = (spec.is_some(), inst.is_some());
                return Err(format!(
                    "aq {}: removed a row from the spec {spec}, from the table {inst}",
                    id.0
                ));
            }
        }
        self.check_counters(table)?;
        self.check_row(id, table)
    }

    /// Wipe the spec at `now`, and check the whole table. A row's
    /// re-convergence target is a floored mean of gaps the table holds to
    /// within its fixed-point allowance, so the table's target must lie in
    /// the spec's bracket, and the spec then adopts it.
    pub(crate) fn mirror_wipe(&mut self, table: &AqTable, now: Time) -> Result<(), String> {
        for (&id, row) in &mut self.rows {
            let target = table
                .get(AqTag(id))
                .and_then(|inst| inst.recovery.as_ref())
                .map(|r| r.target_bytes);
            let [lo, hi] = row.wipe_target();
            match target {
                Some(t) if (lo..=hi).contains(&t) => *row = row.wiped(now, t),
                _ => {
                    return Err(format!(
                        "aq {id}: wipe armed target {target:?}, the spec says {lo}..={hi}"
                    ))
                }
            }
        }
        self.check_table(table)
    }

    /// Run `before`'s arrival at `now` on `id` through the spec, and check
    /// what the table did with it: `got` is its verdict and `after` the
    /// packet it wrote. The verdict must be Algorithm 2's on the table's
    /// own gap, and the spec takes that branch: the gap check then bounds
    /// the table's gap above the spec's, so the spec's own verdict could
    /// only have differed where a threshold falls between the two.
    pub(crate) fn mirror_process(
        &mut self,
        table: &AqTable,
        id: AqTag,
        now: Time,
        before: &Packet,
        got: Option<AqVerdict>,
        after: &Packet,
    ) -> Result<(), String> {
        let row = self.rows.get_mut(&id.0);
        let deployed = (row.is_some(), table.get(id).is_some());
        let (Some(row), Some(got), Some(inst)) = (row, got, table.get(id)) else {
            return match (deployed, got) {
                ((false, false), None) => Ok(()),
                _ => Err(format!(
                    "aq {}: the table answered {got:?}; deployed in the spec {}, in the table {}",
                    id.0, deployed.0, deployed.1
                )),
            };
        };
        let mut pkt = before.clone();
        row.arrive(now, pkt.size);
        let dropped = u64::from(got == AqVerdict::Drop) * u64::from(pkt.size);
        let gap = u128::from(inst.gap.gap_sub()) + u128::from(dropped) * SUB;
        let own = row.decide(&pkt, |bytes| gap > u128::from(bytes) * SUB);
        if std::mem::discriminant(&own) != std::mem::discriminant(&got) {
            let id = id.0;
            return Err(format!("aq {id}: the table answered {got:?} at a gap of {gap} sub-bytes, where Algorithm 2 answers {own:?}"));
        }
        let [lo, hi] = row.delay_ns();
        row.settle(now, got, &mut pkt);
        let (base, vd) = (before.vdelay_ns, after.vdelay_ns);
        let delay_ok = match got {
            AqVerdict::Drop => vd == base,
            AqVerdict::ForwardWithDelay { vdelay_ns } => {
                (lo..=hi).contains(&vdelay_ns) && vd == base.saturating_add(vdelay_ns)
            }
            _ => (base.saturating_add(lo)..=base.saturating_add(hi)).contains(&vd),
        };
        if !delay_ok || after.ecn != pkt.ecn {
            return Err(format!(
                "aq {}: {got:?} wrote (ecn, vdelay) {:?} on a packet carrying {base} ns, the spec {:?} with {lo}..={hi} ns added",
                id.0,
                (after.ecn, vd),
                pkt.ecn
            ));
        }
        self.check_row(id, table)
    }
}

/// An [`AqTable`] and its [`SpecTable`] driven together: each method
/// applies one table operation to both and checks the table against the
/// spec, returning the table's answer or what diverged. This is how a
/// property test holds the fast path to the spec in a default build.
#[derive(Debug, Default)]
pub struct Lockstep {
    /// The implementation under test.
    pub table: AqTable,
    /// The spec it is held to.
    pub spec: SpecTable,
}

impl Lockstep {
    /// [`AqTable::set_budget`] on both.
    pub fn set_budget(&mut self, bytes: Option<u64>, policy: OverflowPolicy) {
        self.table.set_budget(bytes, policy);
        self.spec.set_budget(bytes, policy);
    }

    /// [`AqTable::try_deploy`] on both.
    pub fn deploy(&mut self, now: Time, cfg: AqConfig) -> Result<DeployOutcome, String> {
        let got = self.table.try_deploy(now, cfg.clone());
        self.spec.mirror_deploy(&self.table, now, cfg, &got)?;
        Ok(got)
    }

    /// [`AqTable::process`] on both.
    pub fn process(
        &mut self,
        id: AqTag,
        now: Time,
        pkt: &mut Packet,
    ) -> Result<Option<AqVerdict>, String> {
        let before = pkt.clone();
        let got = self.table.process(id, now, pkt);
        self.spec
            .mirror_process(&self.table, id, now, &before, got, pkt)?;
        Ok(got)
    }

    /// [`AqTable::retarget`] on both.
    pub fn retarget(
        &mut self,
        id: AqTag,
        now: Time,
        rate: Rate,
        limit_bytes: Option<u64>,
    ) -> Result<bool, String> {
        let got = self.table.retarget(id, now, rate, limit_bytes);
        self.spec.retarget(id, now, rate, limit_bytes);
        self.spec.check_row(id, &self.table)?;
        Ok(got)
    }

    /// [`AqTable::remove`] on both.
    pub fn remove(&mut self, id: AqTag) -> Result<Option<AqInstance>, String> {
        let got = self.table.remove(id);
        self.spec.mirror_remove(&self.table, id, got.as_ref())?;
        Ok(got)
    }

    /// [`AqTable::wipe`] on both.
    pub fn wipe(&mut self, now: Time) -> Result<(), String> {
        self.table.wipe(now);
        self.spec.mirror_wipe(&self.table, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_netsim::ids::{EntityId, FlowId, NodeId};
    use aq_netsim::packet::HEADER_BYTES;

    fn cfg(id: u32, rate: Rate, limit_bytes: u64, cc: CcPolicy) -> AqConfig {
        let id = AqTag(id);
        AqConfig {
            id,
            rate,
            limit_bytes,
            cc,
        }
    }

    /// An ECN-capable packet of `size` bytes on the wire.
    fn pkt(size: u32) -> Packet {
        let payload = size - HEADER_BYTES;
        let mut p = Packet::datagram(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            payload,
            Time::ZERO,
        );
        p.ecn = Ecn::Capable;
        p
    }

    /// Feed `n` 64-byte arrivals `step_ns` apart at `bps`, which never let
    /// the gap empty, checking every one. Returns the pair and how many
    /// whole bytes the table's gap then reads above the spec's.
    fn drift(bps: u64, step_ns: u64, n: u64) -> (Lockstep, u64) {
        let mut pair = Lockstep::default();
        let aq = cfg(1, Rate::from_bps(bps), u64::MAX, CcPolicy::DropBased);
        pair.deploy(Time::ZERO, aq).unwrap();
        for k in 0..n {
            let now = Time::from_nanos(k * step_ns);
            pair.process(AqTag(1), now, &mut pkt(64)).unwrap();
        }
        let spec = pair.spec.rows[&1].byte_gap()[0];
        let table = pair.table.get(AqTag(1)).unwrap().gap.bytes();
        (pair, table - spec)
    }

    #[test]
    fn drift_stays_below_one_sub_byte_per_inexact_drain() {
        // 2 M arrivals that never let the gap empty. At 1 234 567 bit/s a
        // 44 ns drain is 444.995 sub-bytes, so nearly a whole 2⁻¹⁶ B is
        // truncated every time and the drift nears the ⌈2 M / 65 536⌉ =
        // 31 B bound; at 3 333 333 333 bit/s each 1 ns drain truncates
        // two thirds of one.
        for (bps, step_ns, want) in [(1_234_567, 44, 31), (3_333_333_333, 1, 20)] {
            let (pair, drift) = drift(bps, step_ns, 2_000_000);
            assert_eq!(pair.spec.rows[&1].inexact, 1_999_999);
            assert_eq!(drift, want, "{bps} bit/s");
        }
    }

    #[test]
    fn whole_sub_byte_drains_keep_the_gap_exact() {
        // At 1 Gbit/s a nanosecond drains 8 192 sub-bytes exactly, so the
        // table never truncates and must equal the spec to the sub-byte.
        let (pair, drift) = drift(1_000_000_000, 7, 10_000);
        assert_eq!((pair.spec.rows[&1].inexact, drift), (0, 0));
    }

    #[test]
    fn algorithm_1_on_worked_examples() {
        // 8 Gbit/s drains one byte per nanosecond.
        let mut pair = Lockstep::default();
        let aq = cfg(1, Rate::from_gbps(8), u64::MAX, CcPolicy::DropBased);
        pair.deploy(Time::ZERO, aq).unwrap();
        let arrive = |pair: &mut Lockstep, ns, size| {
            let mut p = pkt(size);
            pair.process(AqTag(1), Time::from_nanos(ns), &mut p)
                .unwrap();
            (pair.table.get(AqTag(1)).unwrap().gap.bytes(), p.vdelay_ns)
        };
        // Arrivals at one instant add up, 400 ns drain 400 B, an earlier
        // timestamp counts as the same instant (and leaves the clock at
        // 400 ns), and 10 µs idle floor at 0.
        assert_eq!(arrive(&mut pair, 0, 1000).0, 1000);
        assert_eq!(arrive(&mut pair, 0, 500).0, 1500);
        assert_eq!(arrive(&mut pair, 400, 100).0, 1200);
        assert_eq!(arrive(&mut pair, 50, 100).0, 1300);
        assert_eq!(arrive(&mut pair, 500, 100).0, 1300);
        assert_eq!(arrive(&mut pair, 10_000, 200).0, 200);
        // A new rate keeps what drained at the old one (100 B in 100 ns);
        // 60 ns at 4 Gbit/s drain 30 B, and 130 B take 260 ns at 4 Gbit/s.
        let half = Rate::from_gbps(4);
        pair.retarget(AqTag(1), Time::from_nanos(10_100), half, None)
            .unwrap();
        assert_eq!(pair.table.get(AqTag(1)).unwrap().gap.bytes(), 100);
        assert_eq!(arrive(&mut pair, 10_160, 60), (130, 260));
    }

    #[test]
    fn algorithm_2_on_worked_examples() {
        // 1 Gbit/s and 1060 B packets at t = 0: each adds 8 480 ns of
        // virtual delay.
        let mut pair = Lockstep::default();
        let ecn = CcPolicy::EcnBased { threshold_bytes: 0 };
        let (drop, delay) = (CcPolicy::DropBased, CcPolicy::DelayBased);
        let aqs = [
            (1, 2000, drop),
            (2, 500, drop),
            (3, 1 << 20, ecn),
            (4, 1 << 20, delay),
        ];
        for (id, limit, cc) in aqs {
            pair.deploy(Time::ZERO, cfg(id, Rate::from_gbps(1), limit, cc))
                .unwrap();
        }
        let mut send = |id, ecn, vdelay_ns| {
            let mut p = Packet {
                ecn,
                vdelay_ns,
                ..pkt(1060)
            };
            let verdict = pair.process(AqTag(id), Time::ZERO, &mut p).unwrap();
            (verdict.unwrap(), p.ecn, p.vdelay_ns)
        };
        // Past the limit the packet drops and its bytes leave the gap; a
        // drop still counts as demand.
        assert_eq!(send(1, Ecn::Capable, 0).0, AqVerdict::Forward);
        assert_eq!(send(1, Ecn::Capable, 0).0, AqVerdict::Drop);
        assert_eq!(send(2, Ecn::Capable, 0).0, AqVerdict::Drop);
        // A zero threshold marks every ECN-capable packet and no other;
        // every forwarded packet carries A(k)/R onto earlier hops' delay.
        let (capable, ce) = (Ecn::Capable, Ecn::CongestionExperienced);
        let plain = (AqVerdict::Forward, Ecn::NotCapable, 8480);
        assert_eq!(send(3, Ecn::NotCapable, 0), plain);
        assert_eq!(send(3, capable, 0), (AqVerdict::ForwardMarked, ce, 16_960));
        let delay = AqVerdict::ForwardWithDelay { vdelay_ns: 8480 };
        assert_eq!(send(4, capable, 100), (delay, capable, 8580));
        let row = |id| pair.table.get(AqTag(id)).unwrap();
        assert_eq!((row(1).gap.bytes(), row(1).drops), (1060, 1));
        assert_eq!(
            (row(2).arrived_bytes, row(2).drops, row(3).marks),
            (1060, 1, 1)
        );
    }

    #[test]
    fn a_gap_exactly_at_the_limit_or_threshold_is_not_above_it() {
        // Zero-Δ bursts land the gap on the threshold (1500 B) and then the
        // limit (4000 B) exactly: neither marks nor drops; a packet more
        // does.
        let mut pair = Lockstep::default();
        let ecn = CcPolicy::EcnBased {
            threshold_bytes: 1500,
        };
        pair.deploy(Time::ZERO, cfg(1, Rate::from_gbps(1), 4000, ecn))
            .unwrap();
        let at =
            |pair: &mut Lockstep, size| pair.process(AqTag(1), Time::ZERO, &mut pkt(size)).unwrap();
        assert_eq!(at(&mut pair, 1000), Some(AqVerdict::Forward));
        assert_eq!(at(&mut pair, 500), Some(AqVerdict::Forward));
        assert_eq!(at(&mut pair, 2440), Some(AqVerdict::ForwardMarked));
        assert_eq!(at(&mut pair, 60), Some(AqVerdict::ForwardMarked));
        assert_eq!(at(&mut pair, 60), Some(AqVerdict::Drop));
        pair.spec.check_table(&pair.table).unwrap();
    }

    #[test]
    fn a_verdict_straddling_the_limit_follows_the_table() {
        // After 200 k inexact drains the table's gap reads 4 B above the
        // spec's. A limit between the two after a zero-Δ arrival drops in
        // the table and not in the spec, which then follows the drop.
        let (mut pair, drift) = drift(1_234_567, 44, 200_000);
        assert_eq!(drift, 4);
        let now = Time::from_nanos(199_999 * 44);
        let limit = pair.spec.rows[&1].byte_gap()[0] + 100;
        pair.retarget(AqTag(1), now, Rate::from_bps(1_234_567), Some(limit))
            .unwrap();
        let verdict = pair.process(AqTag(1), now, &mut pkt(100)).unwrap();
        assert_eq!(verdict, Some(AqVerdict::Drop));
        assert_eq!(pair.spec.rows[&1].drops, 1);
    }

    #[test]
    fn the_checker_sees_a_gap_one_drain_short() {
        // The same arrivals, the second 1 ns later in the table than in
        // the spec: 0.5 B less gap, which the check refuses.
        let aq = cfg(1, Rate::from_gbps(4), 1_000_000, CcPolicy::DropBased);
        let mut table = AqTable::new();
        let mut spec = SpecTable::default();
        table.deploy(aq.clone());
        spec.deploy(Time::ZERO, aq);
        for (t, at) in [(0, 0), (100, 101)] {
            table.process(AqTag(1), Time::from_nanos(at), &mut pkt(1000));
            spec.process(AqTag(1), Time::from_nanos(t), &mut pkt(1000));
        }
        let err = spec.rows[&1].check(table.get(AqTag(1)).unwrap(), None);
        assert!(err.as_ref().is_err_and(|e| e.contains("gap")), "{err:?}");
    }

    #[test]
    fn eviction_takes_the_smallest_idle_clock_then_id() {
        let mut pair = Lockstep::default();
        pair.set_budget(Some(2 * PACKED_AQ_BYTES as u64), OverflowPolicy::EvictIdle);
        let deploy = |pair: &mut Lockstep, ns, id| {
            let aq = cfg(id, Rate::from_gbps(1), 4000, CcPolicy::DropBased);
            pair.deploy(Time::from_nanos(ns), aq).unwrap()
        };
        deploy(&mut pair, 5, 2);
        deploy(&mut pair, 5, 1);
        // Equal idle clocks: the smaller id goes.
        let victim = |outcome| match outcome {
            DeployOutcome::Evicted(victim) => victim.id.0,
            other => panic!("a full EvictIdle table evicts, got {other:?}"),
        };
        assert_eq!(victim(deploy(&mut pair, 9, 3)), 1);
        // An arrival on 2 leaves 3 the longest idle.
        pair.process(AqTag(2), Time::from_nanos(10), &mut pkt(100))
            .unwrap();
        assert_eq!(victim(deploy(&mut pair, 11, 4)), 3);
    }
}
