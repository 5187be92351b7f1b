//! Deterministic control-plane churn injection.
//!
//! A [`ChurnPlan`] is a seeded schedule of control-plane operations —
//! per-tenant state creates and destroys aimed at switch pipelines — that
//! the simulator replays through its ordinary event queue, exactly like a
//! [`FaultPlan`](crate::fault::FaultPlan). Churn is *data*, not callbacks:
//! the same plan installed into the same network with the same seeds
//! reproduces the same run byte-for-byte, and a sharded run schedules each
//! event only on the shard owning the target switch, so it fires exactly
//! once across the fleet.
//!
//! The motivating experiment is tenant churn against a *bounded* AQ table:
//! a [`tenant_train`](ChurnPlan::tenant_train) keeps the live-tenant count
//! oscillating around the table's register budget, so every admission
//! decision (reject, evict, re-admit) is exercised as steady state rather
//! than as a rare corner.
//!
//! Determinism contract:
//!
//! * churn events fire in `(time, insertion)` order like every other
//!   event, after same-time fault events (faults are scheduled first) and
//!   before same-time packet arrivals;
//! * the plan is pure data — no randomness is drawn at fire time, so the
//!   `seed` field is provenance (recorded into reports) rather than a
//!   live generator;
//! * pipelines receive churn through the defaulted
//!   [`on_control`](crate::node::SwitchPipeline::on_control) hook, so a
//!   pipeline that models no per-tenant state ignores the stream and the
//!   run is unchanged.

use crate::ids::NodeId;
use crate::node::PipelineControl;
use crate::time::{Duration, Time};

/// A single control-plane operation in a churn schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// Ask the target switch's pipelines to provision per-tenant state
    /// under `aq` (an AQ deploy).
    Create {
        /// The tenant/AQ id to provision.
        aq: u32,
        /// Allocated rate in bit/s.
        rate_bps: u64,
        /// Enforcement limit in bytes.
        limit_bytes: u64,
    },
    /// Ask the target switch's pipelines to tear down the per-tenant
    /// state under `aq`.
    Destroy {
        /// The tenant/AQ id to remove.
        aq: u32,
    },
}

impl ChurnKind {
    /// Stable lowercase label used in logs and serialized reports.
    pub fn label(&self) -> &'static str {
        match self {
            ChurnKind::Create { .. } => "create",
            ChurnKind::Destroy { .. } => "destroy",
        }
    }

    /// The tenant/AQ id the operation targets.
    pub fn aq(&self) -> u32 {
        match self {
            ChurnKind::Create { aq, .. } | ChurnKind::Destroy { aq } => *aq,
        }
    }

    /// The [`PipelineControl`] payload delivered to the switch's
    /// pipelines when this event fires.
    pub fn control(&self) -> PipelineControl {
        match *self {
            ChurnKind::Create {
                aq,
                rate_bps,
                limit_bytes,
            } => PipelineControl::Create {
                id: aq,
                rate_bps,
                limit_bytes,
            },
            ChurnKind::Destroy { aq } => PipelineControl::Destroy { id: aq },
        }
    }
}

/// A churn operation scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// When the operation fires.
    pub at: Time,
    /// The switch whose pipelines receive it.
    pub node: NodeId,
    /// What happens.
    pub kind: ChurnKind,
}

/// A seeded, ordered schedule of control-plane churn to inject into one
/// run.
///
/// Build with the fluent helpers, then hand to
/// [`Simulator::install_churn`](crate::sim::Simulator::install_churn)
/// before the run starts:
///
/// ```
/// use aq_netsim::churn::ChurnPlan;
/// use aq_netsim::ids::NodeId;
/// use aq_netsim::time::{Duration, Time};
///
/// let plan = ChurnPlan::new(42).tenant_train(
///     NodeId(4),
///     Time::from_millis(2),
///     Duration::from_micros(50),
///     10,          // ticks
///     100,         // base id
///     8,           // id span
///     3,           // steady-state live target
///     1_000_000_000,
///     150_000,
/// );
/// // Every tick creates; once `target` tenants are live, it also destroys.
/// assert_eq!(plan.events.len(), 10 + (10 - 3));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Provenance seed recorded into reports. The schedule itself is
    /// deterministic data; no randomness is drawn at fire time.
    pub seed: u64,
    /// The schedule. Order is preserved; same-time events fire in plan
    /// order (the event queue breaks time ties by insertion).
    pub events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// An empty plan with the given provenance seed.
    pub fn new(seed: u64) -> ChurnPlan {
        ChurnPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Whether the plan schedules no operations.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedule one operation.
    pub fn event(mut self, at: Time, node: NodeId, kind: ChurnKind) -> ChurnPlan {
        self.events.push(ChurnEvent { at, node, kind });
        self
    }

    /// Schedule a create/destroy train that holds the live-tenant count at
    /// `target` as steady state.
    ///
    /// Tick `k` (for `k` in `0..ticks`, spaced `cadence` apart starting at
    /// `first`) creates AQ id `base + k % span`; once `target` tenants are
    /// live (`k >= target`), the same tick also destroys the oldest
    /// survivor, id `base + (k - target) % span`. Creates are scheduled
    /// before the same tick's destroy, so the live count briefly touches
    /// `target + 1` at each tick — deliberate overshoot that keeps a table
    /// budgeted for ~`target` AQs permanently at 90–110% occupancy,
    /// exercising reject/evict admission on every tick rather than only at
    /// ramp-up.
    ///
    /// `span` controls id reuse: with `span > target` every destroy is
    /// followed (a few ticks later) by a create of a *different* id before
    /// the destroyed id returns, so eviction, re-admission, and id-reuse
    /// paths all run.
    #[expect(clippy::too_many_arguments, reason = "one argument per train knob")]
    pub fn tenant_train(
        mut self,
        node: NodeId,
        first: Time,
        cadence: Duration,
        ticks: u32,
        base: u32,
        span: u32,
        target: u32,
        rate_bps: u64,
        limit_bytes: u64,
    ) -> ChurnPlan {
        assert!(span > 0, "id span must be positive");
        let mut at = first;
        for k in 0..ticks {
            self.events.push(ChurnEvent {
                at,
                node,
                kind: ChurnKind::Create {
                    aq: base + k % span,
                    rate_bps,
                    limit_bytes,
                },
            });
            if k >= target {
                self.events.push(ChurnEvent {
                    at,
                    node,
                    kind: ChurnKind::Destroy {
                        aq: base + (k - target) % span,
                    },
                });
            }
            at += cadence;
        }
        self
    }
}

/// Run-wide totals of applied churn, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnTotals {
    /// Churn events applied so far.
    pub applied: u64,
    /// Create operations delivered.
    pub creates: u64,
    /// Destroy operations delivered.
    pub destroys: u64,
}

impl ChurnTotals {
    /// Fold another shard's totals into this one.
    pub(crate) fn merge(&mut self, other: ChurnTotals) {
        self.applied += other.applied;
        self.creates += other.creates;
        self.destroys += other.destroys;
    }
}

/// The simulator's runtime churn state: the installed plan plus applied
/// totals.
#[derive(Default)]
pub(crate) struct ChurnState {
    pub(crate) plan: ChurnPlan,
    pub(crate) totals: ChurnTotals,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_train_holds_live_count_around_target() {
        let plan = ChurnPlan::new(1).tenant_train(
            NodeId(2),
            Time::from_millis(1),
            Duration::from_micros(100),
            12,
            100,
            8,
            4,
            1_000_000_000,
            150_000,
        );
        // 12 creates + (12 - 4) destroys.
        assert_eq!(plan.events.len(), 20);
        // Replay the schedule: live count ramps to target, then oscillates
        // between target and target + 1 (create fires before the same
        // tick's destroy).
        let mut live = std::collections::BTreeSet::new();
        let mut peak = 0;
        for ev in &plan.events {
            match ev.kind {
                ChurnKind::Create { aq, .. } => {
                    live.insert(aq);
                }
                ChurnKind::Destroy { aq } => {
                    assert!(live.remove(&aq), "destroyed a tenant never created");
                }
            }
            peak = peak.max(live.len());
        }
        assert_eq!(peak, 5); // target + 1
        assert_eq!(live.len(), 4); // steady state = target
    }

    #[test]
    fn tenant_train_reuses_ids_across_the_span() {
        let plan = ChurnPlan::new(1).tenant_train(
            NodeId(0),
            Time::ZERO,
            Duration::from_micros(10),
            10,
            50,
            4, // span < ticks: ids wrap and get re-created
            2,
            1_000_000,
            10_000,
        );
        let created: Vec<u32> = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                ChurnKind::Create { aq, .. } => Some(aq),
                _ => None,
            })
            .collect();
        assert_eq!(created, [50, 51, 52, 53, 50, 51, 52, 53, 50, 51]);
    }

    #[test]
    fn kinds_render_labels_and_controls() {
        let c = ChurnKind::Create {
            aq: 7,
            rate_bps: 5,
            limit_bytes: 9,
        };
        assert_eq!(c.label(), "create");
        assert_eq!(c.aq(), 7);
        assert_eq!(
            c.control(),
            PipelineControl::Create {
                id: 7,
                rate_bps: 5,
                limit_bytes: 9
            }
        );
        let d = ChurnKind::Destroy { aq: 3 };
        assert_eq!(d.label(), "destroy");
        assert_eq!(d.control(), PipelineControl::Destroy { id: 3 });
    }

    #[test]
    fn same_time_events_keep_plan_order() {
        let plan = ChurnPlan::new(0)
            .event(
                Time::from_millis(1),
                NodeId(0),
                ChurnKind::Destroy { aq: 1 },
            )
            .event(
                Time::from_millis(1),
                NodeId(0),
                ChurnKind::Create {
                    aq: 2,
                    rate_bps: 1,
                    limit_bytes: 1,
                },
            );
        assert_eq!(plan.events[0].kind.label(), "destroy");
        assert_eq!(plan.events[1].kind.label(), "create");
    }
}
