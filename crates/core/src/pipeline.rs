//! The AQ data plane (§4.2): a switch pipeline stage matching packets'
//! AQ id tags at ingress and egress.
//!
//! When a packet arrives at a switch, the stage checks the header's
//! ingress-position AQ tag; a default (zero) tag means no AQ operation.
//! Otherwise the matching [`AqInstance`](crate::config::AqInstance) runs
//! Algorithm 1 + Algorithm 2 on
//! the packet. After routing, the same procedure runs for the
//! egress-position tag. Either match may drop, mark, or add virtual delay.
//!
//! The pipeline also implements the paper's §6 *work-conservation* bypass:
//! in [`WorkConservation::BypassWhenIdle`] mode egress-position AQs are
//! skipped while the chosen output port's physical queue is empty, letting
//! entities exceed their allocations when there is no contention.
//!
//! ## Graceful degradation under a register budget
//!
//! Register memory is finite on a real switch, so each table can carry a
//! budget ([`AqPipeline::set_register_budget`]). A deploy that overflows
//! the budget does not fail the run: the config is *parked* in pipeline
//! (control-plane) memory and the flow transparently degrades to plain
//! physical-queue behavior — every packet is still forwarded (or policed,
//! in [`DegradeMode::Police`]) and accounted in the table's
//! [`AqTableSummary`] telemetry. Under [`OverflowPolicy::EvictIdle`] a
//! parked flow's next arrival re-attempts admission, evicting the
//! longest-idle deployed AQ; re-admissions are counted so experiments can
//! observe churn thrash.

use crate::config::{AqConfig, CcPolicy};
use crate::feedback::AqVerdict;
use crate::table::{AqTable, DeployOutcome, OverflowPolicy};
use aq_netsim::ids::{NodeId, PortId};
use aq_netsim::node::{PipelineControl, PipelineVerdict, SwitchPipeline};
use aq_netsim::packet::{AqTag, Packet};
use aq_netsim::stats::{AqPosition, AqSummary, AqTableSummary, StatsHub};
use aq_netsim::time::{Rate, Time};
use std::collections::BTreeMap;

/// Export an end-of-run [`AqSummary`] for every AQ deployed in `table`
/// into the hub, keyed by `(tag, position)`, in one batch. Idempotent:
/// re-exporting replaces the previous summary, so reports may be captured
/// repeatedly during a run.
///
/// Free function (rather than a table method) so harnesses that drive an
/// [`AqTable`] directly — without a pipeline or simulator, like the
/// scalability example — can still publish telemetry.
fn export_aq_table(table: &AqTable, position: AqPosition, hub: &mut StatsHub) {
    hub.record_aq_summaries(table.iter().map(|inst| AqSummary {
        tag: inst.cfg.id.0,
        position,
        rate_bps: inst.cfg.rate.as_bps(),
        limit_bytes: inst.cfg.limit_bytes,
        arrived_bytes: inst.arrived_bytes,
        limit_drops: inst.drops,
        marks: inst.marks,
        gap_samples: inst.gap_track.samples(),
        max_gap_bytes: inst.gap_track.max_bytes(),
        mean_gap_bytes: inst.gap_track.mean_bytes(),
        wipes: inst.wipes(),
        reconverge_ns: inst.reconverge_ns(),
    }));
}

/// Work-conservation policy (§6 Discussions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkConservation {
    /// Strict guarantees: AQs always enforce (the paper's default — the
    /// in/outbound VM guarantees of §2.3 are *contradictory* to work
    /// conservation).
    #[default]
    Off,
    /// Bypass egress-position AQs while the output physical queue is empty,
    /// so entities may grab spare bandwidth; enforcement resumes the moment
    /// queuing appears.
    BypassWhenIdle,
}

/// What happens to packets whose AQ is parked (rejected or evicted at a
/// full table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradeMode {
    /// Forward untouched — the flow falls back to physical-queue behavior
    /// (taildrop/ECN at the port). The paper's graceful default: losing an
    /// AQ costs isolation, never connectivity.
    #[default]
    Forward,
    /// Police: drop packets of parked flows
    /// ([`PipelineVerdict::DropOverflow`]). Models a strict operator that
    /// refuses unenforced traffic; useful for worst-case experiments.
    Police,
}

/// Per-id traffic observed while the id's AQ was parked.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DegradedRow {
    /// Packets that traversed the pipeline without AQ enforcement.
    pub pkts: u64,
    /// Wire bytes of those packets.
    pub bytes: u64,
}

/// Degradation bookkeeping for one table position.
///
/// `parked` is control-plane memory (a `BTreeMap`, deliberately outside
/// the register-budget accounting): the switch CPU remembers the config so
/// the AQ can be re-admitted without controller involvement. `degraded`
/// is cumulative — an id that was parked and later re-admitted keeps its
/// row, so `degraded_flows` counts every id that *ever* degraded.
#[derive(Debug, Default, Clone)]
pub struct DegradeState {
    /// Configs awaiting register space, by AQ id.
    pub parked: BTreeMap<u32, AqConfig>,
    /// Traffic forwarded (or policed) while parked, by AQ id.
    pub degraded: BTreeMap<u32, DegradedRow>,
    /// Parked AQs re-admitted on a subsequent arrival (`EvictIdle` only).
    pub readmissions: u64,
}

impl DegradeState {
    /// Total degraded packets across ids.
    pub fn degraded_pkts(&self) -> u64 {
        self.degraded.values().map(|r| r.pkts).sum()
    }

    /// Total degraded wire bytes across ids.
    pub fn degraded_bytes(&self) -> u64 {
        self.degraded.values().map(|r| r.bytes).sum()
    }
}

/// Per-pipeline counters.
#[derive(Debug, Default, Clone)]
pub struct PipelineStats {
    /// Packets dropped by AQ limits (either position).
    pub drops: u64,
    /// Packets CE-marked by AQs.
    pub marks: u64,
    /// Packets dropped because their AQ was parked and the pipeline runs
    /// [`DegradeMode::Police`].
    pub overflow_drops: u64,
}

/// The AQ pipeline stage deployed on a switch.
pub struct AqPipeline {
    /// AQs matched by the packet's ingress-position tag.
    pub ingress_table: AqTable,
    /// AQs matched by the packet's egress-position tag.
    pub egress_table: AqTable,
    /// Parked/degraded bookkeeping for the ingress table.
    pub ingress_degrade: DegradeState,
    /// Parked/degraded bookkeeping for the egress table.
    pub egress_degrade: DegradeState,
    /// What to do with packets of parked AQs.
    pub degrade_mode: DegradeMode,
    /// Work-conservation mode.
    pub work_conservation: WorkConservation,
    /// Counters.
    pub stats: PipelineStats,
}

impl AqPipeline {
    /// An empty pipeline (no AQs deployed) with strict enforcement, no
    /// register budget, and forwarding degradation.
    pub fn new() -> AqPipeline {
        AqPipeline {
            ingress_table: AqTable::new(),
            egress_table: AqTable::new(),
            ingress_degrade: DegradeState::default(),
            egress_degrade: DegradeState::default(),
            degrade_mode: DegradeMode::Forward,
            work_conservation: WorkConservation::Off,
            stats: PipelineStats::default(),
        }
    }

    /// Cap both tables at `bytes` of packed register memory (15 B per AQ)
    /// under `policy`; `None` removes the cap.
    pub fn set_register_budget(&mut self, bytes: Option<u64>, policy: OverflowPolicy) {
        self.ingress_table.set_budget(bytes, policy);
        self.egress_table.set_budget(bytes, policy);
    }

    /// Deploy an AQ at the ingress position. A deploy the budget rejects
    /// parks the config (the flow degrades; see module docs) — inspect
    /// the returned [`DeployOutcome`] to tell.
    pub fn deploy_ingress(&mut self, cfg: AqConfig) -> DeployOutcome {
        Self::admit(
            &mut self.ingress_table,
            &mut self.ingress_degrade,
            Time::ZERO,
            cfg,
        )
    }

    /// Deploy an AQ at the egress position (parking semantics as
    /// [`deploy_ingress`](AqPipeline::deploy_ingress)).
    pub fn deploy_egress(&mut self, cfg: AqConfig) -> DeployOutcome {
        Self::admit(
            &mut self.egress_table,
            &mut self.egress_degrade,
            Time::ZERO,
            cfg,
        )
    }

    /// Admit `cfg` into `table`, keeping the parked set consistent: a
    /// successful deploy un-parks the id, an eviction parks the victim's
    /// config (so *its* next arrival can bid for re-admission), and a
    /// rejection parks the newcomer.
    fn admit(
        table: &mut AqTable,
        degrade: &mut DegradeState,
        now: Time,
        cfg: AqConfig,
    ) -> DeployOutcome {
        let id = cfg.id.0;
        let outcome = table.try_deploy(now, cfg.clone());
        match &outcome {
            DeployOutcome::Deployed | DeployOutcome::Replaced => {
                degrade.parked.remove(&id);
            }
            DeployOutcome::Evicted(victim) => {
                degrade.parked.remove(&id);
                degrade.parked.insert(victim.id.0, victim.clone());
            }
            DeployOutcome::Rejected => {
                degrade.parked.insert(id, cfg);
            }
        }
        outcome
    }

    /// Export summaries of every deployed AQ (both positions) plus one
    /// [`AqTableSummary`] per position into the hub. Harnesses call this
    /// before serializing a run report; `node` keys the table rows.
    pub fn export_stats(&self, node: NodeId, hub: &mut StatsHub) {
        export_aq_table(&self.ingress_table, AqPosition::Ingress, hub);
        export_aq_table(&self.egress_table, AqPosition::Egress, hub);
        Self::export_table(
            &self.ingress_table,
            &self.ingress_degrade,
            node,
            AqPosition::Ingress,
            hub,
        );
        Self::export_table(
            &self.egress_table,
            &self.egress_degrade,
            node,
            AqPosition::Egress,
            hub,
        );
    }

    fn export_table(
        table: &AqTable,
        degrade: &DegradeState,
        node: NodeId,
        position: AqPosition,
        hub: &mut StatsHub,
    ) {
        hub.record_table_summary(AqTableSummary {
            node,
            position,
            policy: table.policy().label(),
            budget_bytes: table.budget_bytes().unwrap_or(0),
            occupancy_bytes: table.register_memory_bytes() as u64,
            peak_bytes: table.peak_register_memory_bytes(),
            rejected_deploys: table.rejected_deploys(),
            evictions: table.evictions(),
            readmissions: degrade.readmissions,
            degraded_flows: degrade.degraded.len() as u64,
            degraded_pkts: degrade.degraded_pkts(),
            degraded_bytes: degrade.degraded_bytes(),
        });
    }

    fn settle(verdict: AqVerdict, stats: &mut PipelineStats) -> PipelineVerdict {
        match verdict {
            AqVerdict::Drop => {
                stats.drops += 1;
                PipelineVerdict::Drop
            }
            AqVerdict::ForwardMarked => {
                stats.marks += 1;
                PipelineVerdict::Forward
            }
            AqVerdict::Forward | AqVerdict::ForwardWithDelay { .. } => PipelineVerdict::Forward,
        }
    }

    fn apply(
        table: &mut AqTable,
        stats: &mut PipelineStats,
        degrade: &mut DegradeState,
        mode: DegradeMode,
        now: Time,
        tag: AqTag,
        pkt: &mut Packet,
    ) -> PipelineVerdict {
        // `AqTable::process` runs Algorithm 1 + 2 on the stored row and
        // handles post-wipe recovery bookkeeping.
        if let Some(verdict) = table.process(tag, now, pkt) {
            return Self::settle(verdict, stats);
        }
        // No row for this tag. Either the controller never granted it
        // here (forward untouched — it claims an AQ that does not exist
        // on this switch) or the AQ is parked at a full table.
        if !degrade.parked.contains_key(&tag.0) {
            return PipelineVerdict::Forward;
        }
        // Parked. Under `EvictIdle`, demand re-admits: this arrival makes
        // the flow the most-recently-active, so it may displace whichever
        // deployed AQ has been idle longest; a budget below one row
        // rejects it, and `admit` re-parks the same config. (Under
        // `RejectNew` we do not retry per packet — that would inflate
        // `rejected_deploys` by the packet rate; the flow stays degraded
        // until a row frees up and a control-plane deploy re-admits it.)
        if table.policy() == OverflowPolicy::EvictIdle {
            let cfg = degrade.parked[&tag.0].clone();
            if !matches!(
                Self::admit(table, degrade, now, cfg),
                DeployOutcome::Rejected
            ) {
                degrade.readmissions += 1;
                let verdict = table.process(tag, now, pkt).expect("row just deployed");
                return Self::settle(verdict, stats);
            }
        }
        let row = degrade.degraded.entry(tag.0).or_default();
        row.pkts += 1;
        row.bytes += pkt.size as u64;
        match mode {
            DegradeMode::Forward => PipelineVerdict::Forward,
            DegradeMode::Police => {
                stats.overflow_drops += 1;
                PipelineVerdict::DropOverflow
            }
        }
    }
}

impl Default for AqPipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl SwitchPipeline for AqPipeline {
    fn ingress(&mut self, now: Time, pkt: &mut Packet) -> PipelineVerdict {
        if !pkt.aq_ingress.is_some() {
            return PipelineVerdict::Forward;
        }
        Self::apply(
            &mut self.ingress_table,
            &mut self.stats,
            &mut self.ingress_degrade,
            self.degrade_mode,
            now,
            pkt.aq_ingress,
            pkt,
        )
    }

    fn egress(
        &mut self,
        now: Time,
        pkt: &mut Packet,
        _out_port: PortId,
        backlog_bytes: u64,
    ) -> PipelineVerdict {
        if !pkt.aq_egress.is_some() {
            return PipelineVerdict::Forward;
        }
        if self.work_conservation == WorkConservation::BypassWhenIdle && backlog_bytes == 0 {
            return PipelineVerdict::Forward;
        }
        Self::apply(
            &mut self.egress_table,
            &mut self.stats,
            &mut self.egress_degrade,
            self.degrade_mode,
            now,
            pkt.aq_egress,
            pkt,
        )
    }

    fn on_control(&mut self, now: Time, op: &PipelineControl) {
        match *op {
            PipelineControl::Create {
                id,
                rate_bps,
                limit_bytes,
            } => {
                // Tenant churn deploys ingress-position AQs (the paper's
                // per-VM guarantee position); drop-based feedback is the
                // control plane's conservative default.
                let cfg = AqConfig {
                    id: AqTag(id),
                    rate: Rate::from_bps(rate_bps),
                    limit_bytes,
                    cc: CcPolicy::DropBased,
                };
                Self::admit(&mut self.ingress_table, &mut self.ingress_degrade, now, cfg);
            }
            PipelineControl::Destroy { id } => {
                // Destroy is idempotent: the id may be deployed, parked,
                // or long gone. Its degraded history (if any) is kept —
                // the run's telemetry must remember the flow degraded.
                self.ingress_table.remove(AqTag(id));
                self.ingress_degrade.parked.remove(&id);
            }
        }
    }

    fn on_fault_reset(&mut self, now: Time) {
        // The switch rebooted: both tables lose their dynamic state and
        // must rebuild it from subsequent arrivals (configs survive — the
        // controller re-deploys them when the switch comes back).
        self.ingress_table.wipe(now);
        self.egress_table.wipe(now);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CcPolicy, Recovery};
    use aq_netsim::ids::{EntityId, FlowId, NodeId};
    use aq_netsim::time::Rate;

    fn cfg(id: u32, limit: u64) -> AqConfig {
        AqConfig {
            id: AqTag(id),
            rate: Rate::from_gbps(1),
            limit_bytes: limit,
            cc: CcPolicy::DropBased,
        }
    }

    fn pkt(ing: u32, egr: u32) -> Packet {
        let mut p = Packet::data(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            0,
            1000,
            false,
            Time::ZERO,
        );
        p.aq_ingress = AqTag(ing);
        p.aq_egress = AqTag(egr);
        p
    }

    #[test]
    fn default_tags_bypass_all_aq_processing() {
        let mut pipe = AqPipeline::new();
        pipe.deploy_ingress(cfg(1, 10));
        let mut p = pkt(0, 0);
        assert_eq!(pipe.ingress(Time::ZERO, &mut p), PipelineVerdict::Forward);
        assert_eq!(
            pipe.egress(Time::ZERO, &mut p, PortId(0), 0),
            PipelineVerdict::Forward
        );
        let aq = pipe.ingress_table.get(AqTag(1)).unwrap();
        assert_eq!(aq.arrived_bytes, 0, "no AQ processed the packet");
    }

    #[test]
    fn ingress_aq_enforces_limit() {
        let mut pipe = AqPipeline::new();
        pipe.deploy_ingress(cfg(1, 1500));
        let mut a = pkt(1, 0);
        let mut b = pkt(1, 0);
        assert_eq!(pipe.ingress(Time::ZERO, &mut a), PipelineVerdict::Forward);
        assert_eq!(pipe.ingress(Time::ZERO, &mut b), PipelineVerdict::Drop);
        assert_eq!(pipe.stats.drops, 1);
    }

    #[test]
    fn ingress_and_egress_tables_are_independent() {
        let mut pipe = AqPipeline::new();
        pipe.deploy_ingress(cfg(1, 1_000_000));
        pipe.deploy_egress(cfg(1, 1_000_000));
        let mut p = pkt(1, 1);
        pipe.ingress(Time::ZERO, &mut p);
        pipe.egress(Time::ZERO, &mut p, PortId(0), 100);
        assert_eq!(pipe.ingress_table.get(AqTag(1)).unwrap().gap.bytes(), 1060);
        assert_eq!(pipe.egress_table.get(AqTag(1)).unwrap().gap.bytes(), 1060);
    }

    #[test]
    fn unknown_tag_forwards_untouched() {
        let mut pipe = AqPipeline::new();
        let mut p = pkt(42, 0);
        assert_eq!(pipe.ingress(Time::ZERO, &mut p), PipelineVerdict::Forward);
    }

    #[test]
    fn export_stats_publishes_both_positions() {
        let mut pipe = AqPipeline::new();
        pipe.deploy_ingress(cfg(1, 1500));
        pipe.deploy_egress(cfg(2, 1_000_000));
        let mut a = pkt(1, 2);
        let mut b = pkt(1, 0);
        pipe.ingress(Time::ZERO, &mut a);
        pipe.egress(Time::ZERO, &mut a, PortId(0), 100);
        pipe.ingress(Time::ZERO, &mut b); // 2120 > 1500: limit drop
        let mut hub = aq_netsim::StatsHub::new();
        pipe.export_stats(NodeId(0), &mut hub);
        let all: Vec<_> = hub.aq_summaries().collect();
        assert_eq!(all.len(), 2);
        let ing = &all[0];
        assert_eq!(ing.tag, 1);
        assert_eq!(ing.position, aq_netsim::AqPosition::Ingress);
        assert_eq!(ing.limit_drops, 1);
        assert_eq!(ing.arrived_bytes, 2120);
        // Only the forwarded packet is observed, so max gap <= limit.
        assert_eq!(ing.gap_samples, 1);
        assert_eq!(ing.max_gap_bytes, 1060);
        let egr = &all[1];
        assert_eq!(egr.tag, 2);
        assert_eq!(egr.position, aq_netsim::AqPosition::Egress);
        assert_eq!(egr.gap_samples, 1);
    }

    #[test]
    fn fault_reset_wipes_dynamic_state_but_keeps_configs() {
        let mut pipe = AqPipeline::new();
        pipe.deploy_ingress(cfg(1, 1500));
        pipe.deploy_egress(cfg(2, 1_000_000));
        let mut a = pkt(1, 2);
        let mut b = pkt(1, 0);
        pipe.ingress(Time::ZERO, &mut a);
        pipe.egress(Time::ZERO, &mut a, PortId(0), 100);
        pipe.ingress(Time::ZERO, &mut b); // limit drop
        pipe.on_fault_reset(Time::from_millis(1));
        // Configs survive the wipe; gaps, counters, and telemetry do not.
        let ing = pipe.ingress_table.get(AqTag(1)).unwrap();
        assert_eq!(ing.cfg.limit_bytes, 1500);
        assert_eq!(ing.gap.bytes(), 0);
        assert_eq!((ing.drops, ing.arrived_bytes), (0, 0));
        assert_eq!(ing.gap_track.samples(), 0);
        // Pre-wipe mean gap (one 1060 B sample) becomes the target.
        let armed = Recovery {
            wipes: 1,
            wiped_at: Time::from_millis(1),
            target_bytes: 1060,
            recovered_at: None,
        };
        assert_eq!(ing.recovery.as_deref(), Some(&armed));
        assert_eq!(ing.reconverge_ns(), u64::MAX); // not yet rebuilt
        assert_eq!(pipe.egress_table.get(AqTag(2)).unwrap().wipes(), 1);
    }

    #[test]
    fn wiped_aq_reconverges_from_subsequent_arrivals() {
        let mut pipe = AqPipeline::new();
        pipe.deploy_ingress(cfg(1, 10_000));
        // Build an operating point around one packet's worth of gap.
        let mut p = pkt(1, 0);
        pipe.ingress(Time::ZERO, &mut p);
        pipe.on_fault_reset(Time::from_millis(1));
        let recovery = |pipe: &AqPipeline| {
            let inst = pipe.ingress_table.get(AqTag(1)).unwrap();
            inst.recovery.as_deref().cloned().expect("wiped")
        };
        assert_eq!(recovery(&pipe).target_bytes, 1060);
        // First post-wipe arrival rebuilds the gap past the target (the
        // wiped gap restarts at zero, one packet lands it at 1060).
        let mut q = pkt(1, 0);
        pipe.ingress(Time::from_millis(2), &mut q);
        assert_eq!(recovery(&pipe).recovered_at, Some(Time::from_millis(2)));
        let inst = pipe.ingress_table.get(AqTag(1)).unwrap();
        assert_eq!(inst.reconverge_ns(), 1_000_000);
        // The exported summary carries the recovery window.
        let mut hub = aq_netsim::StatsHub::new();
        pipe.export_stats(NodeId(0), &mut hub);
        let s = hub.aq_summaries().next().unwrap();
        assert_eq!((s.wipes, s.reconverge_ns), (1, 1_000_000));
    }

    #[test]
    fn bypass_when_idle_skips_egress_enforcement_only_when_queue_empty() {
        let mut pipe = AqPipeline::new();
        pipe.work_conservation = WorkConservation::BypassWhenIdle;
        pipe.deploy_egress(cfg(1, 500)); // limit smaller than one packet
        let mut p = pkt(0, 1);
        // Empty output queue: bypass, no drop even though gap would exceed.
        assert_eq!(
            pipe.egress(Time::ZERO, &mut p, PortId(0), 0),
            PipelineVerdict::Forward
        );
        let aq = pipe.egress_table.get(AqTag(1)).unwrap();
        assert_eq!(aq.arrived_bytes, 0, "the AQ never saw the packet");
        // Queue built up: enforcement resumes.
        assert_eq!(
            pipe.egress(Time::ZERO, &mut p, PortId(0), 3000),
            PipelineVerdict::Drop
        );
    }

    #[test]
    fn rejected_deploy_parks_and_flow_degrades_to_forward() {
        let mut pipe = AqPipeline::new();
        pipe.set_register_budget(Some(15), OverflowPolicy::RejectNew); // one row
        assert_eq!(
            pipe.deploy_ingress(cfg(1, 1_000_000)),
            DeployOutcome::Deployed
        );
        assert_eq!(
            pipe.deploy_ingress(cfg(2, 1_000_000)),
            DeployOutcome::Rejected
        );
        assert!(pipe.ingress_degrade.parked.contains_key(&2));
        // The parked flow's packets still forward — degraded, not dead.
        let mut p = pkt(2, 0);
        assert_eq!(pipe.ingress(Time::ZERO, &mut p), PipelineVerdict::Forward);
        assert_eq!(pipe.ingress_degrade.degraded[&2].pkts, 1);
        assert_eq!(pipe.ingress_degrade.degraded[&2].bytes, 1060);
        // RejectNew never retries on the data path.
        assert_eq!(pipe.ingress_table.rejected_deploys(), 1);
        let mut hub = aq_netsim::StatsHub::new();
        pipe.export_stats(NodeId(3), &mut hub);
        let tables: Vec<_> = hub.table_summaries().collect();
        assert_eq!(tables.len(), 2);
        let ing = tables
            .iter()
            .find(|t| t.position == aq_netsim::AqPosition::Ingress)
            .unwrap();
        assert_eq!(ing.node, NodeId(3));
        assert_eq!(ing.policy, "reject_new");
        assert_eq!(ing.budget_bytes, 15);
        assert_eq!(ing.occupancy_bytes, 15);
        assert_eq!(ing.rejected_deploys, 1);
        assert_eq!(ing.degraded_flows, 1);
        assert_eq!((ing.degraded_pkts, ing.degraded_bytes), (1, 1060));
    }

    #[test]
    fn police_mode_drops_parked_flow_packets() {
        let mut pipe = AqPipeline::new();
        pipe.set_register_budget(Some(15), OverflowPolicy::RejectNew);
        pipe.degrade_mode = DegradeMode::Police;
        pipe.deploy_ingress(cfg(1, 1_000_000));
        pipe.deploy_ingress(cfg(2, 1_000_000));
        let mut p = pkt(2, 0);
        assert_eq!(
            pipe.ingress(Time::ZERO, &mut p),
            PipelineVerdict::DropOverflow
        );
        assert_eq!(pipe.stats.overflow_drops, 1);
        // A tag that was never granted anywhere is still a plain forward.
        let mut q = pkt(9, 0);
        assert_eq!(pipe.ingress(Time::ZERO, &mut q), PipelineVerdict::Forward);
        assert_eq!(pipe.stats.overflow_drops, 1);
    }

    #[test]
    fn evict_idle_readmits_parked_flow_on_demand() {
        let mut pipe = AqPipeline::new();
        pipe.set_register_budget(Some(15), OverflowPolicy::EvictIdle);
        assert_eq!(
            pipe.deploy_ingress(cfg(1, 1_000_000)),
            DeployOutcome::Deployed
        );
        // AQ 2 evicts idle AQ 1; the victim's config parks.
        match pipe.deploy_ingress(cfg(2, 1_000_000)) {
            DeployOutcome::Evicted(victim) => assert_eq!(victim.id, AqTag(1)),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(pipe.ingress_degrade.parked.contains_key(&1));
        assert!(pipe.ingress_table.get(AqTag(2)).is_some());
        // Demand on the parked flow swaps it back in (AQ 2 is now the
        // longest-idle) and processes the packet against the fresh row.
        let mut p = pkt(1, 0);
        assert_eq!(
            pipe.ingress(Time::from_micros(5), &mut p),
            PipelineVerdict::Forward
        );
        assert_eq!(pipe.ingress_degrade.readmissions, 1);
        assert!(pipe.ingress_table.get(AqTag(1)).is_some());
        assert!(pipe.ingress_degrade.parked.contains_key(&2));
        assert_eq!(
            pipe.ingress_table.get(AqTag(1)).unwrap().arrived_bytes,
            1060
        );
        assert_eq!(pipe.ingress_table.evictions(), 2);
        // Re-admission counts as demand-driven recovery, not degradation:
        // the packet was enforced, so no degraded row appears for id 1.
        assert!(!pipe.ingress_degrade.degraded.contains_key(&1));
    }

    #[test]
    fn control_plane_creates_and_destroys_ingress_aqs() {
        let mut pipe = AqPipeline::new();
        pipe.set_register_budget(Some(30), OverflowPolicy::RejectNew); // two rows
        let create = |id| PipelineControl::Create {
            id,
            rate_bps: 1_000_000_000,
            limit_bytes: 150_000,
        };
        pipe.on_control(Time::ZERO, &create(1));
        pipe.on_control(Time::ZERO, &create(2));
        pipe.on_control(Time::ZERO, &create(3)); // over budget: parks
        assert_eq!(pipe.ingress_table.len(), 2);
        assert!(pipe.ingress_degrade.parked.contains_key(&3));
        let inst = pipe.ingress_table.get(AqTag(1)).unwrap();
        assert_eq!(inst.cfg.rate, Rate::from_gbps(1));
        assert_eq!(inst.cfg.limit_bytes, 150_000);
        // Destroy frees a row; a later create takes it.
        pipe.on_control(Time::from_micros(1), &PipelineControl::Destroy { id: 1 });
        assert_eq!(pipe.ingress_table.len(), 1);
        pipe.on_control(Time::from_micros(2), &create(3));
        assert!(pipe.ingress_table.get(AqTag(3)).is_some());
        assert!(!pipe.ingress_degrade.parked.contains_key(&3));
        // Destroying a parked or unknown id is a no-op, not a panic.
        pipe.on_control(Time::from_micros(3), &PipelineControl::Destroy { id: 99 });
    }
}
