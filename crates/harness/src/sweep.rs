//! Sweep declaration and execution.
//!
//! A sweep is `(scenario × approach × parameter grid × seed set)` over the
//! named scenarios in [`aq_workloads::registry`]. Expansion produces one
//! [`RunPoint`] per combination, keyed by a totally-ordered [`RunKey`];
//! execution fans points over the worker pool (see [`crate::pool`]) and
//! merges results into a `BTreeMap<RunKey, _>`, so the merged artifact is
//! byte-identical no matter how many jobs ran or how they interleaved.
//!
//! Every run also writes its full [`RunReport`] under
//! `<out>/runs/<run key>/`, one directory per run, so per-seed artifacts
//! never collide even when written concurrently.

use crate::pool::{run_supervised, TaskResult};
use aq_bench::report::{EntityRow, RunReport, Section};
use aq_bench::{build_experiment, pq_ecn_for, run_workload, Approach, ExpConfig};
use aq_netsim::ids::EntityId;
use aq_netsim::stats::{jain_index, minmax_ratio};
use aq_netsim::time::{Duration as SimDuration, Time};
use aq_workloads::registry::{self, Params, PlanFault, RunPlan, ScenarioDef, ScenarioPlan};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Identity of one run inside a sweep: the deterministic merge key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RunKey {
    /// Scenario name from the registry.
    pub scenario: String,
    /// Approach name, lowercase (`pq`/`aq`/`prl`/`drl`).
    pub approach: String,
    /// Canonical resolved parameter string (see [`Params::canonical`]).
    pub params: String,
    /// Workload/jitter seed.
    pub seed: u64,
}

impl RunKey {
    /// Filesystem-safe directory name for this run's report artifacts.
    pub fn dir_name(&self) -> String {
        format!(
            "{}+{}+{}+seed{}",
            self.scenario, self.approach, self.params, self.seed
        )
    }
}

impl fmt::Display for RunKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {{{}}} seed={}",
            self.scenario, self.approach, self.params, self.seed
        )
    }
}

/// One expanded point of a sweep, ready to execute.
#[derive(Debug, Clone)]
pub struct RunPoint {
    /// Merge key.
    pub key: RunKey,
    /// Scenario blueprint.
    pub def: &'static ScenarioDef,
    /// Fully-resolved parameters (defaults merged).
    pub resolved: Params,
    /// Sharing approach wrapped around the workload.
    pub approach: Approach,
}

/// One axis of a sweep: a scenario crossed with approaches, a parameter
/// grid, and seeds.
#[derive(Debug, Clone)]
pub struct SweepAxis {
    /// Registry scenario name.
    pub scenario: String,
    /// Approaches to compare.
    pub approaches: Vec<Approach>,
    /// Parameter overrides, one entry per grid point (an empty `Params`
    /// is the all-defaults point; an empty grid means just that point).
    pub grid: Vec<Params>,
    /// Seed ensemble.
    pub seeds: Vec<u64>,
}

/// A declared sweep.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name (recorded in `sweep.json`).
    pub name: String,
    /// Axes, expanded independently and merged.
    pub axes: Vec<SweepAxis>,
}

/// Expand a spec into its run points, validated, key-sorted, deduplicated.
pub fn expand(spec: &SweepSpec) -> Result<Vec<RunPoint>, String> {
    let mut points: BTreeMap<RunKey, RunPoint> = BTreeMap::new();
    for axis in &spec.axes {
        let def = registry::find(&axis.scenario)
            .ok_or_else(|| format!("unknown scenario `{}`", axis.scenario))?;
        if axis.approaches.is_empty() {
            return Err(format!("axis `{}` lists no approaches", axis.scenario));
        }
        if axis.seeds.is_empty() {
            return Err(format!("axis `{}` lists no seeds", axis.scenario));
        }
        let grid: &[Params] = if axis.grid.is_empty() {
            &[Params::new()]
        } else {
            &axis.grid
        };
        for overrides in grid {
            let resolved = def.resolve(overrides)?;
            for &approach in &axis.approaches {
                for &seed in &axis.seeds {
                    let key = RunKey {
                        scenario: def.name.to_string(),
                        approach: approach.name().to_ascii_lowercase(),
                        params: resolved.canonical(),
                        seed,
                    };
                    points.entry(key.clone()).or_insert(RunPoint {
                        key,
                        def,
                        resolved: resolved.clone(),
                        approach,
                    });
                }
            }
        }
    }
    Ok(points.into_values().collect())
}

/// The window of simulation time disturbed by a fault plan, in
/// milliseconds: from the earliest fault onset to the latest fault end
/// (flap trains end when the last up transition fires; point faults like
/// an AQ wipe start and end at their trigger). `None` for a fault-free
/// plan.
fn fault_window_ms(faults: &[PlanFault]) -> Option<(f64, f64)> {
    let mut window: Option<(f64, f64)> = None;
    for f in faults {
        let (s, e) = match *f {
            PlanFault::CoreLinkFlap {
                first_down_ms,
                flaps,
                down_ms,
                up_ms,
            } => (
                first_down_ms,
                first_down_ms + flaps as f64 * (down_ms + up_ms),
            ),
            PlanFault::CoreLinkLoss {
                from_ms, until_ms, ..
            } => (from_ms, until_ms),
            PlanFault::AqReset { at_ms } => (at_ms, at_ms),
            PlanFault::SenderBlackout {
                from_ms, until_ms, ..
            } => (from_ms, until_ms),
        };
        window = Some(match window {
            None => (s, e),
            Some((ws, we)) => (ws.min(s), we.max(e)),
        });
    }
    window
}

fn ms_to_sim(ms: f64) -> SimDuration {
    SimDuration::from_nanos((ms * 1e6).round() as u64)
}

/// Execute one run point: build the experiment on the scenario's own
/// topology, drive it per the scenario's [`RunPlan`], and distill the
/// canonical metric map. When `report_base` is given, the full
/// [`RunReport`] is also written under `<report_base>/<run dir name>/`.
///
/// Fault scenarios (a plan with a non-empty fault set, driven on a fixed
/// horizon) capture two extra report sections — `prefault` at the first
/// fault's onset and `fault_end` when the last fault clears — so the
/// distilled metrics can compare goodput before the disturbance against
/// goodput after recovery (`postfault_goodput_ratio`), alongside the
/// per-cause drop counters and AQ re-convergence times from the final
/// section.
pub fn execute_run(
    point: &RunPoint,
    report_base: Option<&Path>,
) -> Result<BTreeMap<String, f64>, String> {
    let plan = (point.def.build)(&point.resolved);
    let mut exp = build_experiment(
        point.approach,
        &plan,
        ExpConfig {
            seed: point.key.seed,
            ecn_threshold: pq_ecn_for(point.approach, &plan.entities),
        },
    );
    let entity_ids: Vec<EntityId> = plan.entities.iter().map(|e| e.entity).collect();
    let mut rep = RunReport::new(&point.key.dir_name());
    let completions: Vec<Option<f64>> = match plan.run {
        RunPlan::FixedHorizon { horizon } => {
            let horizon_ms = horizon.as_secs_f64() * 1e3;
            if let Some((start_ms, end_ms)) = fault_window_ms(&plan.faults) {
                if start_ms > 0.0 && start_ms < horizon_ms {
                    exp.sim.run_until(Time::ZERO + ms_to_sim(start_ms));
                    rep.capture("prefault", &mut exp.sim);
                }
                if end_ms > start_ms && end_ms < horizon_ms {
                    exp.sim.run_until(Time::ZERO + ms_to_sim(end_ms));
                    rep.capture("fault_end", &mut exp.sim);
                }
            }
            exp.sim.run_until(Time::ZERO + horizon);
            vec![None; entity_ids.len()]
        }
        RunPlan::UntilComplete { deadline } => {
            run_workload(&mut exp.sim, &entity_ids, Time::ZERO + deadline)
        }
    };
    rep.capture("run", &mut exp.sim);
    if let Some(base) = report_base {
        rep.write_to(base)
            .map_err(|e| format!("{}: writing run report: {e}", point.key))?;
    }
    let section = rep
        .sections()
        .last()
        .ok_or_else(|| format!("{}: capture produced no section", point.key))?;
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    metrics.insert("events".to_string(), section.events as f64);
    metrics.insert("jain_goodput".to_string(), weighted_jain(&plan, section));
    let mut total_goodput = 0.0;
    let mut flows_completed = 0u64;
    let mut flows_total = 0u64;
    for e in &section.entities {
        total_goodput += e.goodput_gbps;
        flows_completed += e.flows_completed;
        flows_total += e.flows;
        metrics.insert(format!("goodput_e{}_gbps", e.entity), e.goodput_gbps);
        metrics.insert(format!("drops_e{}", e.entity), e.drops as f64);
    }
    metrics.insert("goodput_total_gbps".to_string(), total_goodput);
    metrics.insert("flows_completed_total".to_string(), flows_completed as f64);
    if flows_total > 0 {
        metrics.insert(
            "completion_frac".to_string(),
            flows_completed as f64 / flows_total as f64,
        );
    }
    for (id, done) in entity_ids.iter().zip(&completions) {
        if let Some(secs) = done {
            metrics.insert(format!("completion_e{}_s", id.0), *secs);
        }
    }
    let finished: Vec<f64> = completions.iter().filter_map(|c| *c).collect();
    if finished.len() == entity_ids.len() && !finished.is_empty() {
        let max = finished.iter().cloned().fold(f64::MIN, f64::max);
        let min = finished.iter().cloned().fold(f64::MAX, f64::min);
        metrics.insert("completion_max_s".to_string(), max);
        metrics.insert("completion_ratio".to_string(), minmax_ratio(min, max));
    }
    if !plan.faults.is_empty() {
        let faults = &section.faults;
        metrics.insert("faults_injected".to_string(), faults.injected.len() as f64);
        metrics.insert("link_down_drops".to_string(), faults.link_down_drops as f64);
        metrics.insert("corrupt_drops".to_string(), faults.corrupt_drops as f64);
        metrics.insert("pause_drops".to_string(), faults.pause_drops as f64);
        let wipes: u64 = section.aqs.iter().map(|a| a.wipes).sum();
        if wipes > 0 {
            metrics.insert("wipes_total".to_string(), wipes as f64);
            // An AQ that never re-converged is scored at the full run
            // length — pessimistic, and guaranteed to trip a re-convergence
            // ceiling rule. Only AQs with arrivals *after* the wipe owe a
            // re-convergence, though: one whose flows all completed before
            // the fault, or that never carried traffic at all (churned
            // tenant slots deployed for table pressure only), has no gap
            // state to rebuild, and scoring it would pin the metric at the
            // horizon.
            let wiped_base = rep
                .sections()
                .iter()
                .find(|s| s.label == "fault_end")
                .or_else(|| rep.sections().iter().find(|s| s.label == "prefault"));
            let post_arrived = |a: &aq_bench::report::AqRow| -> u64 {
                let before = wiped_base
                    .and_then(|s| {
                        s.aqs
                            .iter()
                            .find(|b| b.tag == a.tag && b.position == a.position)
                    })
                    .map(|b| b.arrived_bytes)
                    .unwrap_or(0);
                a.arrived_bytes.saturating_sub(before)
            };
            let worst_ns = section
                .aqs
                .iter()
                .filter(|a| a.wipes > 0 && post_arrived(a) > 0)
                .map(|a| {
                    if a.reconverge_ns == u64::MAX {
                        section.now_ns
                    } else {
                        a.reconverge_ns
                    }
                })
                .max()
                .unwrap_or(0);
            metrics.insert("reconverge_ms_max".to_string(), worst_ns as f64 / 1e6);
        }
        let pre = rep.sections().iter().find(|s| s.label == "prefault");
        let base = rep
            .sections()
            .iter()
            .find(|s| s.label == "fault_end")
            .or(pre);
        if let (Some(pre), Some(base)) = (pre, base) {
            if base.now_ns < section.now_ns {
                let pre_gbps: f64 = pre.entities.iter().map(|e| e.goodput_gbps).sum();
                let rx = |s: &Section| -> u64 { s.entities.iter().map(|e| e.rx_bytes).sum() };
                let post_bytes = rx(section).saturating_sub(rx(base));
                // bits per nanosecond == Gbit/s, exactly.
                let post_gbps = post_bytes as f64 * 8.0 / (section.now_ns - base.now_ns) as f64;
                metrics.insert("goodput_prefault_gbps".to_string(), pre_gbps);
                metrics.insert("goodput_postfault_gbps".to_string(), post_gbps);
                if pre_gbps > 0.0 {
                    metrics.insert("postfault_goodput_ratio".to_string(), post_gbps / pre_gbps);
                }
            }
        }
    }
    if !plan.starts.is_empty() {
        phase_metrics(&plan, section, &mut metrics);
    }
    if plan.fabric.is_some() {
        // The queuing delay each entity's CC reacts to: its AQ's virtual
        // delay under AQ, the physical queues' otherwise.
        for e in &section.entities {
            let p99 = match point.approach {
                Approach::Aq => e.vq_p99_ns,
                _ => e.pq_p99_ns,
            };
            if let Some(ns) = p99 {
                metrics.insert(format!("cc_qdelay_p99_us_e{}", e.entity), ns as f64 / 1e3);
            }
        }
    }
    if !section.buffers.is_empty() {
        let rejects: u64 = section.buffers.iter().map(|b| b.shared_rejects).sum();
        let marks: u64 = section.buffers.iter().map(|b| b.marks).sum();
        let peak = section
            .buffers
            .iter()
            .map(|b| b.peak_occupancy_bytes)
            .max()
            .unwrap_or(0);
        metrics.insert("sharedbuf_rejects_total".to_string(), rejects as f64);
        metrics.insert("sharedbuf_marks_total".to_string(), marks as f64);
        metrics.insert("pool_peak_bytes".to_string(), peak as f64);
    }
    if !section.tables.is_empty() {
        let sum = |f: fn(&aq_bench::report::TableRow) -> u64| -> f64 {
            section.tables.iter().map(f).sum::<u64>() as f64
        };
        metrics.insert(
            "degraded_flows_total".to_string(),
            sum(|t| t.degraded_flows),
        );
        metrics.insert(
            "rejected_deploys_total".to_string(),
            sum(|t| t.rejected_deploys),
        );
        metrics.insert("evictions_total".to_string(), sum(|t| t.evictions));
        metrics.insert("readmissions_total".to_string(), sum(|t| t.readmissions));
        let peak = section
            .tables
            .iter()
            .map(|t| t.peak_bytes)
            .max()
            .unwrap_or(0);
        metrics.insert("table_peak_bytes".to_string(), peak as f64);
    }
    Ok(metrics)
}

/// Jain's index over weight-normalised goodputs: the report's own
/// `jain_goodput` when the weights are equal, and 1.0 at a 1 : 2 split
/// of a 1 : 2 grant.
fn weighted_jain(plan: &ScenarioPlan, section: &Section) -> f64 {
    let per_weight: Vec<f64> = (section.entities.iter())
        .map(|row| {
            let setup = (plan.entities.iter()).find(|e| e.entity.0 as u64 == row.entity);
            row.goodput_gbps / setup.map_or(1, |e| e.weight) as f64
        })
        .collect();
    jain_index(&per_weight)
}

/// Per-phase goodputs of a plan whose entities start at staggered times.
/// Phase `p` runs from the `p`-th distinct start to the next (the last to
/// the horizon); `goodput_p<p>_e<i>_gbps` is entity `i`'s average rate in
/// it, read from the run report's windowed `rate_series_bps`, for every
/// entity that has started by then. `phase_share_err_max` is the largest
/// distance, over all phases, between a started entity's share of the
/// phase's goodput and its weight's share of the started entities'
/// weights — 0 when every phase splits by weight among those present.
fn phase_metrics(plan: &ScenarioPlan, section: &Section, metrics: &mut BTreeMap<String, f64>) {
    let window_ns = aq_netsim::stats::SAMPLE_WINDOW.as_nanos();
    let mut edges: Vec<u64> = plan.starts.iter().map(|s| s.as_nanos()).collect();
    edges.sort_unstable();
    edges.dedup();
    edges.push(section.now_ns);
    let mut worst = 0.0f64;
    for (p, edge) in edges.windows(2).enumerate() {
        let (from, to) = (
            (edge[0] / window_ns) as usize,
            (edge[1] / window_ns) as usize,
        );
        let started: Vec<(&EntityRow, u64, f64)> = (plan.entities.iter())
            .zip(&plan.starts)
            .filter(|(_, start)| start.as_nanos() <= edge[0])
            .filter_map(|(setup, _)| {
                let row = (section.entities.iter()).find(|r| r.entity == setup.entity.0 as u64)?;
                let windows = row.rate_series_bps.get(from..to)?;
                let gbps = windows.iter().sum::<f64>() / windows.len().max(1) as f64 / 1e9;
                Some((row, setup.weight, gbps))
            })
            .collect();
        let total: f64 = started.iter().map(|(_, _, g)| g).sum();
        let weights: u64 = started.iter().map(|(_, w, _)| w).sum();
        for (row, weight, gbps) in &started {
            metrics.insert(format!("goodput_p{p}_e{}_gbps", row.entity), *gbps);
            if total > 0.0 {
                let err = gbps / total - *weight as f64 / weights as f64;
                worst = worst.max(err.abs());
            }
        }
    }
    metrics.insert("phase_share_err_max".to_string(), worst);
}

/// Why a run failed — the `kind` field of `sweep.json` failure entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureKind {
    /// The run returned an error (capture, report I/O, …).
    Error,
    /// The run panicked; the pool caught the unwind.
    Panic,
    /// The run exceeded its wall-clock budget and was abandoned by the
    /// pool supervisor.
    Timeout,
}

impl FailureKind {
    /// Stable artifact label.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Error => "error",
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
        }
    }

    /// Parse counterpart of [`FailureKind::as_str`].
    pub fn parse(s: &str) -> Option<FailureKind> {
        match s {
            "error" => Some(FailureKind::Error),
            "panic" => Some(FailureKind::Panic),
            "timeout" => Some(FailureKind::Timeout),
            _ => None,
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One failed run: its classification plus the human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFailure {
    /// Failure classification.
    pub kind: FailureKind,
    /// What happened (error text, panic payload, or the exceeded budget).
    pub message: String,
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.message)
    }
}

/// Every run of an executed sweep, split into successes and failures.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Per-run metric maps for runs that completed.
    pub metrics: BTreeMap<RunKey, BTreeMap<String, f64>>,
    /// Per-run failures (error / panic / timeout) for runs that did not.
    pub failures: BTreeMap<RunKey, RunFailure>,
}

/// Execute a whole spec over `jobs` workers. Per-run reports go under
/// `<out>/runs/`; the caller renders the merged result (see
/// [`crate::agg::Sweep`]). Point order in the output is key order —
/// independent of scheduling.
///
/// A run that errors, *panics* (the pool catches the unwind), or — when
/// `timeout` is set — overruns its wall-clock budget lands in
/// [`SweepOutcome::failures`] with a distinct [`FailureKind`] instead of
/// aborting the sweep: the rest of the grid still executes (the
/// supervised pool replaces workers lost to hung runs), and the caller
/// turns a non-empty failure set into a nonzero exit after writing the
/// artifacts.
pub fn run_points(
    points: &[RunPoint],
    jobs: usize,
    timeout: Option<Duration>,
    out: Option<&Path>,
) -> Result<SweepOutcome, String> {
    let report_base = out.map(|o| o.join("runs"));
    if let Some(base) = &report_base {
        std::fs::create_dir_all(base).map_err(|e| format!("creating {}: {e}", base.display()))?;
    }
    // The supervised pool detaches its workers (a hung run must not pin
    // the pool), so the task closure owns its inputs.
    let shared: Arc<Vec<RunPoint>> = Arc::new(points.to_vec());
    let base = report_base.clone();
    let results = run_supervised(points.len(), jobs, timeout, move |i| {
        execute_run(&shared[i], base.as_deref())
    });
    let mut outcome = SweepOutcome::default();
    for (point, result) in points.iter().zip(results) {
        let failure = match result {
            TaskResult::Done(Ok(metrics)) => {
                outcome.metrics.insert(point.key.clone(), metrics);
                continue;
            }
            TaskResult::Done(Err(e)) => RunFailure {
                kind: FailureKind::Error,
                message: e,
            },
            TaskResult::Panicked(m) => RunFailure {
                kind: FailureKind::Panic,
                message: m,
            },
            TaskResult::TimedOut => {
                let budget = timeout.expect("timeouts only fire under a budget");
                RunFailure {
                    kind: FailureKind::Timeout,
                    message: format!(
                        "run exceeded the {:.0}s wall-clock budget",
                        budget.as_secs_f64()
                    ),
                }
            }
        };
        outcome.failures.insert(point.key.clone(), failure);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_axis() -> SweepAxis {
        SweepAxis {
            scenario: "fairness_flows".to_string(),
            approaches: vec![Approach::Pq, Approach::Aq],
            grid: vec![
                Params::parse("b_flows=1,horizon_ms=5").expect("grid"),
                Params::parse("b_flows=2,horizon_ms=5").expect("grid"),
            ],
            seeds: vec![1, 2],
        }
    }

    #[test]
    fn expansion_is_sorted_validated_and_deduplicated() {
        let spec = SweepSpec {
            name: "unit".to_string(),
            axes: vec![tiny_axis(), tiny_axis()],
        };
        let points = expand(&spec).expect("expands");
        // 2 approaches x 2 grid points x 2 seeds, duplicates collapsed.
        assert_eq!(points.len(), 8);
        let keys: Vec<&RunKey> = points.iter().map(|p| &p.key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // Resolved params carry defaults alongside overrides.
        assert!(points[0].key.params.contains("horizon_ms=5"));

        let bad = SweepSpec {
            name: "unit".to_string(),
            axes: vec![SweepAxis {
                scenario: "no_such".to_string(),
                approaches: vec![Approach::Pq],
                grid: vec![],
                seeds: vec![1],
            }],
        };
        assert!(expand(&bad).is_err());
    }

    #[test]
    fn dir_names_are_unique_per_point() {
        let spec = SweepSpec {
            name: "unit".to_string(),
            axes: vec![tiny_axis()],
        };
        let points = expand(&spec).expect("expands");
        let mut dirs: Vec<String> = points.iter().map(|p| p.key.dir_name()).collect();
        dirs.sort();
        dirs.dedup();
        assert_eq!(dirs.len(), points.len());
    }

    #[test]
    fn execute_run_produces_the_canonical_metric_surface() {
        let spec = SweepSpec {
            name: "unit".to_string(),
            axes: vec![SweepAxis {
                scenario: "fairness_flows".to_string(),
                approaches: vec![Approach::Aq],
                grid: vec![Params::parse("b_flows=1,horizon_ms=5").expect("grid")],
                seeds: vec![7],
            }],
        };
        let points = expand(&spec).expect("expands");
        let metrics = execute_run(&points[0], None).expect("runs");
        for key in [
            "events",
            "jain_goodput",
            "goodput_e1_gbps",
            "goodput_e2_gbps",
            "goodput_total_gbps",
            "drops_e1",
            "drops_e2",
            "flows_completed_total",
        ] {
            assert!(metrics.contains_key(key), "missing metric `{key}`");
        }
        assert!(metrics["events"] > 0.0);
        assert!(metrics["goodput_total_gbps"] > 0.0);
    }

    #[test]
    fn staggered_plans_distill_phase_goodputs_and_weights_normalise_jain() {
        use aq_netsim::stats::StatsHub;
        // Entity 1 (weight 1) delivers 1 Gbit/s from 0 to 60 ms; entity 2
        // (weight 2) starts at 30 ms and delivers 2 Gbit/s from then on.
        let mut hub = StatsHub::new();
        for ms in 0..60 {
            let at = Time::from_micros(ms * 1000 + 500);
            hub.on_delivery(at, EntityId(1), 125_000, 0, 0);
            if ms >= 30 {
                hub.on_delivery(at, EntityId(2), 250_000, 0, 0);
            }
        }
        let mut rep = RunReport::new("unit");
        rep.capture_hub("run", Time::from_millis(60), 0, &hub);
        let section = &rep.sections()[0];
        let mut plan = registry::find("fairness_flows")
            .expect("registered")
            .plan(&Params::new())
            .expect("plan");
        plan.entities[1].weight = 2;
        plan.starts = vec![SimDuration::ZERO, SimDuration::from_millis(30)];
        let mut metrics = BTreeMap::new();
        phase_metrics(&plan, section, &mut metrics);
        let expect = [
            ("goodput_p0_e1_gbps", 1.0),
            ("goodput_p1_e1_gbps", 1.0),
            ("goodput_p1_e2_gbps", 2.0),
            ("phase_share_err_max", 0.0),
        ];
        assert_eq!(metrics.len(), expect.len(), "{metrics:?}");
        for (key, value) in expect {
            assert!((metrics[key] - value).abs() < 1e-9, "{key}: {metrics:?}");
        }
        // Whole-run goodputs are 1 and 1 Gbit/s (entity 2 ran half the
        // time): even by the report's index, 1 : 2 short by weight.
        assert!((section.jain_goodput - 1.0).abs() < 1e-9);
        assert!((weighted_jain(&plan, section) - 0.9).abs() < 1e-9);
        // A phase that does not split by weight shows up as share error:
        // with equal weights the 1 : 2 phase is 1/6 off for both.
        plan.entities[1].weight = 1;
        phase_metrics(&plan, section, &mut metrics);
        assert!((metrics["phase_share_err_max"] - 1.0 / 6.0).abs() < 1e-9);
        assert_eq!(weighted_jain(&plan, section), section.jain_goodput);
    }

    #[test]
    fn tenant_churn_run_exposes_table_metrics_and_passes_its_trend_bounds() {
        let spec = SweepSpec {
            name: "unit".to_string(),
            axes: vec![SweepAxis {
                scenario: "tenant_churn".to_string(),
                approaches: vec![Approach::Aq],
                grid: vec![Params::parse("policy=0").expect("grid")],
                seeds: vec![1],
            }],
        };
        let points = expand(&spec).expect("expands");
        let metrics = execute_run(&points[0], None).expect("runs");
        for key in [
            "degraded_flows_total",
            "rejected_deploys_total",
            "evictions_total",
            "readmissions_total",
            "table_peak_bytes",
            "completion_frac",
            "reconverge_ms_max",
            "jain_goodput",
        ] {
            assert!(metrics.contains_key(key), "missing metric `{key}`");
        }
        // The default point holds the table just over budget: churn must
        // have produced rejected deploys, and the table peak must sit at
        // the 7-row budget.
        assert!(metrics["rejected_deploys_total"] > 0.0);
        assert_eq!(metrics["table_peak_bytes"], 7.0 * 15.0);
        // The same-point values the trend rules gate on; failures here
        // mean the DEFAULT_RULES bounds drifted from reality.
        assert!(
            metrics["jain_goodput"] >= 0.6,
            "jain {}",
            metrics["jain_goodput"]
        );
        assert_eq!(
            metrics["degraded_flows_total"], 0.0,
            "the default budget must only reject churned (idle) tenant \
             slots, never a grant that carries traffic"
        );
        assert!(
            metrics["completion_frac"] >= 0.5,
            "completion {}",
            metrics["completion_frac"]
        );
    }
}
