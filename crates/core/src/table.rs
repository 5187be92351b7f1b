//! The AQ table — per-switch registry of deployed AQs, one stored row
//! per AQ.
//!
//! Lookup is an indexed load on the 4-byte AQ id (R3: the abstraction must
//! scale to millions of entities regardless of physical queue count). Ids
//! are allocated densely by the controller, so the id→row map is a plain
//! vector; slot 0 is reserved because `AqTag::NONE == 0` means "no AQ".
//!
//! ## Layout
//!
//! The paper keeps an AQ as one 15-byte register entry (4 B id · 3 B rate ·
//! 8 B limit/gap/time/CC) and runs Algorithm 1 + 2 as arithmetic over it.
//! The table does the same at simulator precision: `index` maps id → dense
//! row (the id is the match key, as on the switch), and each dense row is
//! the [`AqInstance`] itself plus the idle clock eviction orders by. There
//! is no second representation — [`AqTable::process`] runs
//! `feedback::process_packet` on the stored instance, [`AqTable::get`] and
//! [`AqTable::iter`] lend it out, and [`AqTable::retarget`] is the one
//! control write. The row is 128 B, wider than the switch's 15 B because the
//! simulator keeps nanosecond clocks, 2⁻¹⁶-byte fixed point and telemetry
//! instead of the quantized encodings of
//! [`PackedAq`](crate::config::PackedAq); a `size_of` test pins it. State
//! only a fault wipe creates ([`Recovery`](crate::config::Recovery)) sits
//! behind one pointer, so a million never-wiped rows do not carry it, and
//! no field needs more than 8-byte alignment, so the row has no padding.
//! Grouping the fields by access frequency would not help: every packet
//! writes the counters and the idle clock beside the gap, so a cold probe
//! touches the whole row either way (PERFORMANCE.md § "AQ state" has the
//! measurement).
//!
//! [`AqTable::register_memory_bytes`] reports the switch register memory
//! the deployed AQs occupy under the paper's 15-byte packed layout — the
//! quantity plotted in Fig. 12.
//!
//! ## Register budget
//!
//! A real switch has a fixed SRAM budget; [`AqTable::set_budget`] caps the
//! table at a configurable number of register bytes and makes admission
//! fallible through [`AqTable::try_deploy`]. When a deploy would exceed
//! the budget the configured [`OverflowPolicy`] decides deterministically:
//! `RejectNew` refuses the newcomer (the caller degrades the flow to
//! physical-queue behavior), `EvictIdle` evicts the longest-idle deployed
//! AQ (smallest last-arrival time, smallest id on ties) to make room.
//! Occupancy never exceeds the budget at any point; the high-water mark is
//! tracked and exported with the table's summary.
//!
//! ## Spec shadow
//!
//! With the `invariants` feature on, the table keeps a
//! [`SpecTable`](crate::spec::SpecTable) beside its rows and checks every
//! mutation against it (see [`crate::spec`]); default builds carry no
//! shadow.

use crate::config::{AqConfig, AqInstance, PACKED_AQ_BYTES};
use crate::feedback::{process_packet, AqVerdict};
use aq_netsim::packet::{AqTag, Packet};
use aq_netsim::time::{Rate, Time};

/// `index` value for "no AQ deployed under this id".
const VACANT: u32 = u32::MAX;

/// What a budgeted table does with a deploy that would overflow its
/// register memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Refuse the newcomer; the caller accounts the flow as degraded and
    /// forwards it with physical-queue behavior only.
    #[default]
    RejectNew,
    /// Evict the longest-idle deployed AQ (deterministically: smallest
    /// last-arrival time, smallest id on ties) and admit the newcomer.
    EvictIdle,
}

impl OverflowPolicy {
    /// Stable artifact label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            OverflowPolicy::RejectNew => "reject_new",
            OverflowPolicy::EvictIdle => "evict_idle",
        }
    }
}

/// What [`AqTable::try_deploy`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum DeployOutcome {
    /// A new row was admitted within budget.
    Deployed,
    /// The id was already deployed; its row was reset to the new config
    /// (no growth, so the budget is irrelevant).
    Replaced,
    /// The table was full; the longest-idle AQ (returned config) was
    /// evicted to make room. Its final state is gone — a later re-deploy
    /// of the evicted id starts from fresh state.
    Evicted(AqConfig),
    /// The table was full under [`OverflowPolicy::RejectNew`]; nothing
    /// changed except the rejection counter.
    Rejected,
}

/// One stored AQ. `inst.cfg.id` is also the key of this row's `index`
/// entry.
#[derive(Debug)]
struct Row {
    inst: AqInstance,
    /// When this AQ last saw a packet (deploy time until the first
    /// arrival). Drives [`OverflowPolicy::EvictIdle`] victim selection.
    /// Kept beside the instance rather than in it so that `wipe`, which
    /// rewrites the instance, cannot perturb eviction order.
    last_arrival: Time,
}

/// Registry of deployed AQ instances, indexed by [`AqTag`] (see module
/// docs).
#[derive(Debug, Default)]
pub struct AqTable {
    /// id → dense row, [`VACANT`] when the id is not deployed.
    index: Vec<u32>,
    rows: Vec<Row>,
    /// Register-memory budget in bytes (`None` = unbounded).
    budget_bytes: Option<u64>,
    /// What to do with a deploy that would overflow the budget.
    policy: OverflowPolicy,
    /// High-water mark of [`AqTable::register_memory_bytes`].
    peak_bytes: u64,
    /// Deploys refused under [`OverflowPolicy::RejectNew`].
    rejected_deploys: u64,
    /// AQs evicted under [`OverflowPolicy::EvictIdle`].
    evictions: u64,
    /// The executable spec every mutation is checked against.
    #[cfg(feature = "invariants")]
    spec: crate::spec::SpecTable,
}

impl AqTable {
    /// An empty table.
    pub fn new() -> AqTable {
        AqTable {
            // Slot 0 is the reserved "no AQ" id.
            index: vec![VACANT],
            rows: Vec::new(),
            budget_bytes: None,
            policy: OverflowPolicy::default(),
            peak_bytes: 0,
            rejected_deploys: 0,
            evictions: 0,
            #[cfg(feature = "invariants")]
            spec: crate::spec::SpecTable::default(),
        }
    }

    /// Check the mutation just made against the spec, which `op` advances
    /// by the same step.
    #[cfg(feature = "invariants")]
    fn shadow(
        &mut self,
        op: impl FnOnce(&mut crate::spec::SpecTable, &AqTable) -> Result<(), String>,
    ) {
        let mut spec = std::mem::take(&mut self.spec);
        let checked = op(&mut spec, self);
        self.spec = spec;
        if let Err(e) = checked {
            panic!("invariant violated: the AQ table diverged from its spec: {e}");
        }
    }

    /// Cap the table at `bytes` of packed register memory (15 B per AQ)
    /// and pick the overflow policy. `None` removes the cap. The budget
    /// applies to *subsequent* deploys; rows already past a lowered cap
    /// stay until removed or evicted.
    pub fn set_budget(&mut self, bytes: Option<u64>, policy: OverflowPolicy) {
        self.budget_bytes = bytes;
        self.policy = policy;
        #[cfg(feature = "invariants")]
        self.spec.set_budget(bytes, policy);
    }

    /// The configured register-memory budget, if any.
    pub fn budget_bytes(&self) -> Option<u64> {
        self.budget_bytes
    }

    /// The configured overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// High-water mark of register-memory occupancy over the table's
    /// lifetime (never exceeds the budget while one is set).
    pub(crate) fn peak_register_memory_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Deploys refused because the table was at budget under
    /// [`OverflowPolicy::RejectNew`].
    pub fn rejected_deploys(&self) -> u64 {
        self.rejected_deploys
    }

    /// AQs evicted to admit newcomers under [`OverflowPolicy::EvictIdle`].
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// When the AQ with this id last saw a packet (its deploy time until
    /// the first arrival).
    pub(crate) fn last_arrival_of(&self, id: AqTag) -> Option<Time> {
        Some(self.rows[self.dense(id)?].last_arrival)
    }

    fn dense(&self, id: AqTag) -> Option<usize> {
        let d = *self.index.get(id.0 as usize)?;
        (d != VACANT).then_some(d as usize)
    }

    /// Deploy an AQ. Replaces any previous AQ with the same id.
    ///
    /// Infallible convenience for unbounded tables (controllers, tests,
    /// model harnesses); budgeted tables admit through
    /// [`AqTable::try_deploy`].
    ///
    /// # Panics
    /// Panics on the reserved id 0, or when a budgeted table under
    /// [`OverflowPolicy::RejectNew`] is full.
    pub fn deploy(&mut self, cfg: AqConfig) {
        let outcome = self.try_deploy(Time::ZERO, cfg);
        assert!(
            outcome != DeployOutcome::Rejected,
            "AQ table at register budget; use try_deploy for fallible admission"
        );
    }

    /// Deploy an AQ against the register budget. Replacing an existing id
    /// never grows the table and always succeeds; a growing deploy at
    /// budget resolves per the configured [`OverflowPolicy`]. `now` stamps
    /// the newcomer's idle clock (and orders future eviction decisions).
    ///
    /// # Panics
    /// Panics on the reserved id 0.
    pub fn try_deploy(&mut self, now: Time, cfg: AqConfig) -> DeployOutcome {
        #[cfg(feature = "invariants")]
        let spec_cfg = cfg.clone();
        let outcome = self.admit(now, cfg);
        #[cfg(feature = "invariants")]
        self.shadow(|spec, table| spec.mirror_deploy(table, now, spec_cfg, &outcome));
        outcome
    }

    fn admit(&mut self, now: Time, cfg: AqConfig) -> DeployOutcome {
        assert!(cfg.id.is_some(), "AQ id 0 is reserved for 'no AQ'");
        let idx = cfg.id.0 as usize;
        if idx >= self.index.len() {
            self.index.resize(idx + 1, VACANT);
        }
        let row = |cfg| Row {
            inst: AqInstance::new(cfg),
            last_arrival: now,
        };
        if self.index[idx] != VACANT {
            self.rows[self.index[idx] as usize] = row(cfg);
            return DeployOutcome::Replaced;
        }
        let full = self
            .budget_bytes
            .is_some_and(|b| ((self.rows.len() + 1) * PACKED_AQ_BYTES) as u64 > b);
        let evicted = if full {
            match self.policy {
                OverflowPolicy::RejectNew => {
                    self.rejected_deploys += 1;
                    return DeployOutcome::Rejected;
                }
                OverflowPolicy::EvictIdle => match self.evict_idle() {
                    Some(victim) => Some(victim),
                    // Budget smaller than a single row: nothing to evict
                    // can make room, so the deploy degenerates to a reject.
                    None => {
                        self.rejected_deploys += 1;
                        return DeployOutcome::Rejected;
                    }
                },
            }
        } else {
            None
        };
        self.index[idx] = u32::try_from(self.rows.len()).expect("more than u32::MAX AQs");
        self.rows.push(row(cfg));
        let occupied = self.register_memory_bytes() as u64;
        aq_netsim::invariant!(
            self.budget_bytes.is_none_or(|b| occupied <= b),
            "AQ table overflowed its register budget: {occupied} B occupied"
        );
        self.peak_bytes = self.peak_bytes.max(occupied);
        match evicted {
            Some(victim) => DeployOutcome::Evicted(victim),
            None => DeployOutcome::Deployed,
        }
    }

    /// Evict the longest-idle AQ: smallest last-arrival time, smallest id
    /// on ties — a total order, so eviction is deterministic regardless of
    /// dense-row layout. Returns the victim's config.
    fn evict_idle(&mut self) -> Option<AqConfig> {
        let victim = (self.rows.iter())
            .map(|r| (r.last_arrival, r.inst.cfg.id))
            .min()?
            .1;
        self.evictions += 1;
        Some(self.take(victim).expect("victim came from the table").cfg)
    }

    /// Remove a deployed AQ, returning its final state. The vacated dense
    /// row is back-filled by the last row (ids stay stable, dense order
    /// does not — iteration is by id, so observable order is unchanged).
    pub fn remove(&mut self, id: AqTag) -> Option<AqInstance> {
        let out = self.take(id);
        #[cfg(feature = "invariants")]
        self.shadow(|spec, table| spec.mirror_remove(table, id, out.as_ref()));
        out
    }

    fn take(&mut self, id: AqTag) -> Option<AqInstance> {
        let d = self.dense(id)?;
        let out = self.rows.swap_remove(d).inst;
        if let Some(resident) = self.rows.get(d) {
            // The former last row now sits at `d` — repoint its index entry.
            self.index[resident.inst.cfg.id.0 as usize] =
                u32::try_from(d).expect("dense index fits u32");
        }
        self.index[id.0 as usize] = VACANT;
        Some(out)
    }

    /// The deployed AQ with this id. Mutation goes through
    /// [`AqTable::process`] and the control writes.
    pub fn get(&self, id: AqTag) -> Option<&AqInstance> {
        Some(&self.rows[self.dense(id)?].inst)
    }

    /// The per-packet fast path: run Algorithm 1 + 2 for one arrival
    /// against the AQ matching `id` and update its idle clock and
    /// fault-recovery bookkeeping. `None` when no AQ carries this id (the
    /// caller forwards untouched).
    #[inline]
    pub fn process(&mut self, id: AqTag, now: Time, pkt: &mut Packet) -> Option<AqVerdict> {
        #[cfg(feature = "invariants")]
        let before = pkt.clone();
        let verdict = self.process_row(id, now, pkt);
        #[cfg(feature = "invariants")]
        self.shadow(|spec, table| spec.mirror_process(table, id, now, &before, verdict, pkt));
        verdict
    }

    #[inline]
    fn process_row(&mut self, id: AqTag, now: Time, pkt: &mut Packet) -> Option<AqVerdict> {
        let d = self.dense(id)?;
        let row = &mut self.rows[d];
        row.last_arrival = now;
        let verdict = process_packet(&mut row.inst, now, pkt);
        row.inst.note_recovery(now);
        Some(verdict)
    }

    /// The control write (weighted re-division, work conservation): from
    /// `now` on, the AQ drains at `rate` and drops above `limit_bytes`
    /// (`None` keeps its limit), keeping the gap it has accumulated.
    /// Returns whether `id` is deployed.
    pub fn retarget(&mut self, id: AqTag, now: Time, rate: Rate, limit_bytes: Option<u64>) -> bool {
        let Some(d) = self.dense(id) else {
            return false;
        };
        let inst = &mut self.rows[d].inst;
        // The equality guard is not just an optimization: `set_rate` drains
        // the gap to `now`, and an extra drain step truncates fixed-point
        // sub-bytes differently than one combined drain would, perturbing
        // byte-exact baselines.
        if inst.cfg.rate != rate {
            inst.set_rate(now, rate);
        }
        if let Some(limit) = limit_bytes {
            inst.cfg.limit_bytes = limit;
        }
        #[cfg(feature = "invariants")]
        self.shadow(|spec, table| {
            spec.retarget(id, now, rate, limit_bytes);
            spec.check_row(id, table)
        });
        true
    }

    /// Number of deployed AQs.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no AQs are deployed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate over deployed AQs in id order.
    pub fn iter(&self) -> impl Iterator<Item = &AqInstance> + '_ {
        self.index
            .iter()
            .filter(|d| **d != VACANT)
            .map(|d| &self.rows[*d as usize].inst)
    }

    /// Switch register memory under the paper's packed layout: 15 bytes per
    /// deployed AQ (Fig. 12's model).
    pub fn register_memory_bytes(&self) -> usize {
        self.rows.len() * PACKED_AQ_BYTES
    }

    /// Wipe the dynamic state of every deployed AQ at `now` (fault
    /// injection: the switch rebooted and lost its registers).
    /// Configurations survive — the controller re-deploys them — but gaps,
    /// counters, and telemetry restart from zero and must be rebuilt from
    /// subsequent arrivals (see [`AqInstance::wiped`]). Idle clocks are
    /// control-plane state and survive too.
    pub fn wipe(&mut self, now: Time) {
        for row in &mut self.rows {
            row.inst = row.inst.wiped(now);
        }
        #[cfg(feature = "invariants")]
        self.shadow(|spec, table| spec.mirror_wipe(table, now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CcPolicy, Recovery};
    use aq_netsim::ids::{EntityId, FlowId, NodeId};

    fn cfg(id: u32) -> AqConfig {
        AqConfig {
            id: AqTag(id),
            rate: Rate::from_gbps(1),
            limit_bytes: 100_000,
            cc: CcPolicy::DropBased,
        }
    }

    fn pkt(size: u32) -> Packet {
        Packet::data(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            0,
            size,
            false,
            Time::ZERO,
        )
    }

    #[test]
    fn deploy_lookup_remove() {
        let mut t = AqTable::new();
        t.deploy(cfg(5));
        t.deploy(cfg(2));
        assert_eq!(t.len(), 2);
        assert!(t.get(AqTag(5)).is_some());
        assert!(t.get(AqTag(3)).is_none());
        assert!(t.remove(AqTag(5)).is_some());
        assert!(t.remove(AqTag(5)).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn redeploy_same_id_replaces_without_double_count() {
        let mut t = AqTable::new();
        t.deploy(cfg(7));
        t.deploy(cfg(7));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn id_zero_is_rejected() {
        AqTable::new().deploy(cfg(0));
    }

    #[test]
    fn register_memory_is_15_bytes_per_aq() {
        let mut t = AqTable::new();
        for i in 1..=1000 {
            t.deploy(cfg(i));
        }
        assert_eq!(t.register_memory_bytes(), 15_000);
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut t = AqTable::new();
        for id in [9, 3, 6] {
            t.deploy(cfg(id));
        }
        let ids: Vec<u32> = t.iter().map(|i| i.cfg.id.0).collect();
        assert_eq!(ids, vec![3, 6, 9]);
    }

    #[test]
    fn scales_to_a_million_entries() {
        let mut t = AqTable::new();
        for i in 1..=1_000_000u32 {
            t.deploy(cfg(i));
        }
        assert_eq!(t.len(), 1_000_000);
        assert_eq!(t.register_memory_bytes(), 15_000_000);
        assert!(t.get(AqTag(999_999)).is_some());
    }

    #[test]
    fn stored_row_is_one_instance_plus_its_idle_clock() {
        // What `core.table.host_bytes_per_aq` measures, beside the 4-byte
        // index entry: 120 B of instance (32 config + 24 gap + 24 counters
        // + 32 gap track + 8 recovery pointer) and the 8 B idle clock, with
        // no padding. Move the pin only together with PERFORMANCE.md
        // § "AQ state".
        assert_eq!(std::mem::size_of::<AqInstance>(), 120);
        assert_eq!(std::mem::size_of::<Row>(), 128);
    }

    #[test]
    fn process_on_unknown_id_is_none() {
        let mut t = AqTable::new();
        t.deploy(cfg(1));
        assert!(t.process(AqTag(2), Time::ZERO, &mut pkt(1000)).is_none());
        assert!(t.process(AqTag::NONE, Time::ZERO, &mut pkt(1000)).is_none());
    }

    #[test]
    fn retarget_writes_rate_and_limit_and_keeps_the_gap() {
        let mut t = AqTable::new();
        t.deploy(cfg(4));
        t.process(AqTag(4), Time::ZERO, &mut pkt(1940));
        let r = Rate::from_gbps(7);
        // 1 µs at 1 Gbit/s drains 125 B of the 2000 B gap.
        assert!(t.retarget(AqTag(4), Time::from_micros(1), r, Some(9000)));
        let inst = t.get(AqTag(4)).unwrap();
        assert_eq!(
            (inst.cfg.rate, inst.gap.rate(), inst.cfg.limit_bytes),
            (r, r, 9000)
        );
        assert_eq!(inst.gap.bytes(), 1875);
        assert!(!t.retarget(AqTag(9), Time::from_micros(1), r, None));
    }

    #[test]
    fn remove_back_fill_keeps_other_ids_resolvable() {
        let mut t = AqTable::new();
        for id in 1..=4 {
            t.deploy(cfg(id));
        }
        // Removing an interior id moves the last dense row into its slot.
        let gone = t.remove(AqTag(2)).expect("deployed");
        assert_eq!(gone.cfg.id, AqTag(2));
        for id in [1, 3, 4] {
            assert_eq!(t.get(AqTag(id)).unwrap().cfg.id, AqTag(id));
        }
        // The back-filled row still processes under its own id.
        // (1000 B of payload + 60 B header = 1060 B on the wire.)
        assert!(t.process(AqTag(4), Time::ZERO, &mut pkt(1000)).is_some());
        assert_eq!(t.get(AqTag(4)).unwrap().arrived_bytes, 1060);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn reject_new_refuses_growth_at_budget_and_counts_it() {
        let mut t = AqTable::new();
        t.set_budget(Some(2 * PACKED_AQ_BYTES as u64), OverflowPolicy::RejectNew);
        assert_eq!(t.try_deploy(Time::ZERO, cfg(1)), DeployOutcome::Deployed);
        assert_eq!(t.try_deploy(Time::ZERO, cfg(2)), DeployOutcome::Deployed);
        assert_eq!(t.try_deploy(Time::ZERO, cfg(3)), DeployOutcome::Rejected);
        assert_eq!(t.len(), 2);
        assert_eq!(t.rejected_deploys(), 1);
        assert_eq!(t.evictions(), 0);
        assert_eq!(t.peak_register_memory_bytes(), 30);
        // Replacing a resident id never grows the table, so it succeeds
        // even at budget.
        assert_eq!(t.try_deploy(Time::ZERO, cfg(2)), DeployOutcome::Replaced);
        // Freeing a slot re-opens admission.
        t.remove(AqTag(1)).expect("deployed");
        assert_eq!(t.try_deploy(Time::ZERO, cfg(3)), DeployOutcome::Deployed);
    }

    #[test]
    fn evict_idle_removes_the_longest_idle_aq_deterministically() {
        let mut t = AqTable::new();
        t.set_budget(Some(3 * PACKED_AQ_BYTES as u64), OverflowPolicy::EvictIdle);
        for id in [1, 2, 3] {
            t.try_deploy(Time::ZERO, cfg(id));
        }
        // Touch 1 and 3; AQ 2 is now the longest idle.
        t.process(AqTag(1), Time::from_micros(5), &mut pkt(1000));
        t.process(AqTag(3), Time::from_micros(6), &mut pkt(1000));
        let out = t.try_deploy(Time::from_micros(7), cfg(4));
        let DeployOutcome::Evicted(victim) = out else {
            panic!("expected an eviction, got {out:?}");
        };
        assert_eq!(victim.id, AqTag(2));
        assert_eq!(t.evictions(), 1);
        assert!(t.get(AqTag(2)).is_none());
        assert!(t.get(AqTag(4)).is_some());
        assert_eq!(t.register_memory_bytes(), 3 * PACKED_AQ_BYTES);
        // Equal idle times break ties on the smallest id: 1 was touched
        // before 3, so 1 goes first.
        let out = t.try_deploy(Time::from_micros(8), cfg(5));
        let DeployOutcome::Evicted(victim) = out else {
            panic!("expected an eviction, got {out:?}");
        };
        assert_eq!(victim.id, AqTag(1));
    }

    #[test]
    fn evict_idle_with_a_sub_row_budget_degenerates_to_reject() {
        let mut t = AqTable::new();
        t.set_budget(Some(1), OverflowPolicy::EvictIdle);
        assert!(t.is_empty());
        assert_eq!(t.try_deploy(Time::ZERO, cfg(1)), DeployOutcome::Rejected);
        assert_eq!(t.rejected_deploys(), 1);
        assert_eq!(t.evictions(), 0);
    }

    #[test]
    fn occupancy_never_exceeds_the_budget() {
        let mut t = AqTable::new();
        let budget = 4 * PACKED_AQ_BYTES as u64;
        t.set_budget(Some(budget), OverflowPolicy::EvictIdle);
        for k in 1..=100u32 {
            t.try_deploy(Time::from_nanos(k as u64), cfg(k));
            assert!(t.register_memory_bytes() as u64 <= budget);
        }
        assert_eq!(t.peak_register_memory_bytes(), budget);
        assert_eq!(t.len(), 4);
        assert_eq!(t.evictions(), 96);
    }

    #[test]
    fn reused_id_starts_from_fresh_state_after_remove() {
        // Satellite regression: a re-used id must not inherit the previous
        // occupant's gap history, telemetry, or recovery bookkeeping.
        let mut t = AqTable::new();
        t.deploy(cfg(7));
        for k in 0..5u64 {
            t.process(AqTag(7), Time::from_nanos(k * 500), &mut pkt(60_000));
        }
        t.wipe(Time::from_micros(3));
        // Rebuild some post-wipe history so the removed snapshot carries
        // every kind of stale state: gap, telemetry, and wipe bookkeeping.
        t.process(AqTag(7), Time::from_micros(4), &mut pkt(60_000));
        let stale = t.remove(AqTag(7)).expect("deployed");
        assert!(stale.arrived_bytes > 0);
        assert_eq!(stale.wipes(), 1);
        t.deploy(cfg(7));
        let fresh = t.get(AqTag(7)).unwrap();
        assert_eq!(fresh.gap_track.samples(), 0);
        assert_eq!(fresh.gap_track.max_bytes(), 0);
        assert_eq!((fresh.drops, fresh.marks, fresh.arrived_bytes), (0, 0, 0));
        assert_eq!((fresh.wipes(), &fresh.recovery), (0, &None));
        assert_eq!(fresh.gap.bytes(), 0);
    }

    #[test]
    fn reused_id_starts_from_fresh_state_after_eviction() {
        // Same guarantee on the eviction path: an evicted-then-readmitted
        // id carries no stale gap history.
        let mut t = AqTable::new();
        t.set_budget(Some(PACKED_AQ_BYTES as u64), OverflowPolicy::EvictIdle);
        t.try_deploy(Time::ZERO, cfg(1));
        t.process(AqTag(1), Time::from_nanos(100), &mut pkt(1000));
        let out = t.try_deploy(Time::from_micros(1), cfg(2));
        assert!(matches!(out, DeployOutcome::Evicted(v) if v.id == AqTag(1)));
        let out = t.try_deploy(Time::from_micros(2), cfg(1));
        assert!(matches!(out, DeployOutcome::Evicted(v) if v.id == AqTag(2)));
        let back = t.get(AqTag(1)).unwrap();
        assert_eq!(back.gap_track.samples(), 0);
        assert_eq!(back.arrived_bytes, 0);
        assert_eq!(back.gap.bytes(), 0);
    }

    #[test]
    fn last_arrival_survives_retarget_and_wipe_round_trips() {
        let mut t = AqTable::new();
        t.deploy(cfg(1));
        t.process(AqTag(1), Time::from_micros(9), &mut pkt(1000));
        assert_eq!(t.last_arrival_of(AqTag(1)), Some(Time::from_micros(9)));
        t.retarget(AqTag(1), Time::from_micros(10), Rate::from_gbps(2), None);
        assert_eq!(t.last_arrival_of(AqTag(1)), Some(Time::from_micros(9)));
        t.wipe(Time::from_micros(11));
        assert_eq!(t.last_arrival_of(AqTag(1)), Some(Time::from_micros(9)));
    }

    #[test]
    fn wipe_resets_dynamic_state_and_arms_recovery() {
        let mut t = AqTable::new();
        t.deploy(cfg(1));
        t.process(AqTag(1), Time::ZERO, &mut pkt(1000))
            .expect("deployed");
        t.wipe(Time::from_millis(1));
        let snap = t.get(AqTag(1)).unwrap();
        assert_eq!(snap.gap.bytes(), 0);
        // One 1060 B arrival (1000 B payload + 60 B header) sets the mean.
        let armed = Recovery {
            wipes: 1,
            wiped_at: Time::from_millis(1),
            target_bytes: 1060,
            recovered_at: None,
        };
        assert_eq!(snap.recovery.as_deref(), Some(&armed));
        // One post-wipe arrival rebuilds the gap past the target.
        t.process(AqTag(1), Time::from_millis(2), &mut pkt(1000))
            .expect("deployed");
        let rec = t.get(AqTag(1)).unwrap().recovery.as_deref();
        assert_eq!(rec.and_then(|r| r.recovered_at), Some(Time::from_millis(2)));
    }

    #[test]
    fn recovery_is_allocated_only_by_a_wipe() {
        let mut t = AqTable::new();
        let untouched = |t: &AqTable| {
            let inst = t.get(AqTag(1)).unwrap();
            (inst.recovery.is_none(), inst.wipes(), inst.reconverge_ns())
        };
        t.deploy(cfg(1));
        assert_eq!(untouched(&t), (true, 0, 0));
        t.process(AqTag(1), Time::from_micros(1), &mut pkt(1000));
        assert_eq!(untouched(&t), (true, 0, 0));
        t.retarget(AqTag(1), Time::from_micros(2), Rate::from_gbps(2), None);
        assert_eq!(untouched(&t), (true, 0, 0));
        t.remove(AqTag(1)).expect("deployed");
        t.deploy(cfg(1));
        assert_eq!(untouched(&t), (true, 0, 0));

        // The second wipe counts on and re-arms from the post-wipe mean:
        // two 1060 B arrivals observe gaps of 1060 and 2120 (1590 mean).
        t.process(AqTag(1), Time::from_micros(3), &mut pkt(1000));
        t.wipe(Time::from_micros(4));
        t.process(AqTag(1), Time::from_micros(5), &mut pkt(1000));
        t.process(AqTag(1), Time::from_micros(5), &mut pkt(1000));
        t.wipe(Time::from_micros(6));
        let inst = t.get(AqTag(1)).unwrap();
        let rearmed = Recovery {
            wipes: 2,
            wiped_at: Time::from_micros(6),
            target_bytes: 1590,
            recovered_at: None,
        };
        assert_eq!(inst.recovery.as_deref(), Some(&rearmed));
        assert_eq!((inst.wipes(), inst.reconverge_ns()), (2, u64::MAX));
    }
}
