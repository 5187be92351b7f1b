//! `aq-sweep perf` — deterministic engine-throughput harness and the
//! `BENCH_*.json` ratchet gate.
//!
//! The sweep gate answers "did the *metrics* move"; this module answers
//! "did the *engine* slow down". It derives one representative run per
//! scenario from a named sweep spec (the AQ approach, first grid point,
//! first seed), drives each run to completion `--repeat` times, and
//! records two kinds of numbers per scenario:
//!
//! * **deterministic counters** — processed events, transmitted packets,
//!   simulated nanoseconds. These are properties of the seeded run, not
//!   the machine, so the gate compares them under a *tight* tolerance
//!   (an unexplained shift means engine behavior changed);
//! * **wall-clock throughput** — events/sec and simulated packets/sec,
//!   taken from the fastest repeat (min wall time filters scheduler
//!   noise). Machines differ, so the gate compares these under a *loose,
//!   one-sided* tolerance: only a regression below `(1 − tol) ×
//!   baseline` fails; improvements always pass and are ratcheted into
//!   the committed baseline via `--update` on the reference machine.
//!
//! Wall-clock time never enters `RunReport` artifacts — those stay
//! byte-identical for same-seed runs. Perf numbers live only in the
//! `BENCH_*.json` written here.

use crate::diff::rel_delta;
use crate::sweep::RunPoint;
use aq_bench::json;
use aq_bench::{
    build_experiment, pq_ecn_for, run_sharded_until, run_workload, run_workload_sharded, ExpConfig,
};
use aq_netsim::ids::EntityId;
use aq_netsim::time::Time;
use aq_netsim::SchedulerKind;
use aq_workloads::registry::RunPlan;
use std::fmt::Write as _;
use std::time::Instant;

/// Default relative tolerance for the deterministic counters (`events`,
/// `tx_pkts`, `sim_ns`). Mirrors the sweep gate's tolerance for its
/// `events` metric: counters are seed properties, not machine properties,
/// so any drift beyond noise means the engine changed behavior.
pub const COUNTER_TOLERANCE: f64 = 0.05;

/// Default relative tolerance for wall-clock throughput: a run may be up
/// to 50% slower than the committed baseline before the gate fails.
/// Loose on purpose — CI machines are noisy and heterogeneous; the
/// ratchet (`--update` on the reference machine) is what tracks real
/// speedups.
pub const WALL_TOLERANCE: f64 = 0.5;

/// Measured throughput of one representative run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    /// Scenario name from the registry.
    pub scenario: String,
    /// Approach name, lowercase.
    pub approach: String,
    /// Canonical resolved parameter string.
    pub params: String,
    /// Workload/jitter seed.
    pub seed: u64,
    /// Engine parallelism: `0` is the single-threaded reference engine;
    /// `N > 0` is the sharded engine with `N` worker threads. The
    /// deterministic counters must not depend on this axis — only the
    /// wall-clock columns may.
    pub jobs: u64,
    /// Events processed by the simulator (deterministic).
    pub events: u64,
    /// Packets transmitted across all ports (deterministic).
    pub tx_pkts: u64,
    /// Simulated time driven, in nanoseconds (deterministic).
    pub sim_ns: u64,
    /// Fastest wall-clock time over the repeats, in nanoseconds.
    pub wall_ns: u64,
    /// `events / wall seconds` for the fastest repeat.
    pub events_per_sec: f64,
    /// `tx_pkts / wall seconds` for the fastest repeat.
    pub pkts_per_sec: f64,
}

/// One `BENCH_*.json` document: a spec's per-scenario perf records.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfBench {
    /// Name of the sweep spec the records were derived from.
    pub spec: String,
    /// Event-scheduler implementation the records were measured under.
    pub scheduler: String,
    /// Per-scenario records, in spec order.
    pub records: Vec<PerfRecord>,
}

/// Select the representative perf points of a spec: for every scenario,
/// the first expanded point under the AQ approach (falling back to the
/// scenario's first point when AQ is not swept). One point per scenario
/// keeps the gate fast while still touching every topology and fault
/// plan the spec covers.
pub fn perf_points(points: &[RunPoint]) -> Vec<RunPoint> {
    let mut picked: Vec<RunPoint> = Vec::new();
    for point in points {
        match picked
            .iter()
            .position(|p| p.key.scenario == point.key.scenario)
        {
            None => picked.push(point.clone()),
            Some(i) => {
                if picked[i].key.approach != "aq" && point.key.approach == "aq" {
                    picked[i] = point.clone();
                }
            }
        }
    }
    picked
}

/// Drive one perf point `repeat` times and distill a [`PerfRecord`].
///
/// `jobs = 0` drives the single-threaded reference engine; `jobs > 0`
/// drives the sharded engine with that many worker threads (falling back
/// to the reference engine when the run cannot shard — agents installed,
/// single-shard topology). The timer brackets only the run loop
/// (experiment construction is excluded); the deterministic counters
/// must be identical across repeats or the measurement is rejected — a
/// perf harness that quietly measures nondeterministic runs would hide
/// engine bugs.
pub fn measure(
    point: &RunPoint,
    repeat: usize,
    scheduler: SchedulerKind,
    jobs: u64,
) -> Result<PerfRecord, String> {
    let mut best_wall = u64::MAX;
    let mut counters: Option<(u64, u64, u64)> = None;
    for _ in 0..repeat.max(1) {
        let plan = (point.def.build)(&point.resolved);
        let mut exp = build_experiment(
            point.approach,
            &plan,
            ExpConfig {
                seed: point.key.seed,
                ecn_threshold: pq_ecn_for(point.approach, &plan.entities),
                ..Default::default()
            },
        );
        exp.sim.set_scheduler(scheduler);
        let entity_ids: Vec<EntityId> = plan.entities.iter().map(|e| e.entity).collect();
        let start = Instant::now();
        let done = if jobs == 0 {
            match plan.run {
                RunPlan::FixedHorizon { horizon } => {
                    exp.sim.run_until(Time::ZERO + horizon);
                }
                RunPlan::UntilComplete { deadline } => {
                    run_workload(&mut exp.sim, &entity_ids, Time::ZERO + deadline);
                }
            }
            exp.sim
        } else {
            let workers = usize::try_from(jobs).unwrap_or(usize::MAX);
            match plan.run {
                RunPlan::FixedHorizon { horizon } => {
                    run_sharded_until(exp.sim, &exp.shard_plan, workers, Time::ZERO + horizon)
                }
                RunPlan::UntilComplete { deadline } => {
                    run_workload_sharded(
                        exp.sim,
                        &exp.shard_plan,
                        workers,
                        &entity_ids,
                        Time::ZERO + deadline,
                    )
                    .0
                }
            }
        };
        let wall = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let events = done.processed_events;
        let tx_pkts: u64 = done.stats.ports().map(|(_, ps)| ps.tx_pkts).sum();
        let sim_ns = done.now().as_nanos();
        match counters {
            None => counters = Some((events, tx_pkts, sim_ns)),
            Some(prev) if prev != (events, tx_pkts, sim_ns) => {
                return Err(format!(
                    "{}: repeats disagree on deterministic counters \
                     ({prev:?} vs {:?}) — engine nondeterminism",
                    point.key,
                    (events, tx_pkts, sim_ns)
                ));
            }
            Some(_) => {}
        }
        best_wall = best_wall.min(wall.max(1));
    }
    let (events, tx_pkts, sim_ns) = counters.expect("at least one repeat ran");
    Ok(PerfRecord {
        scenario: point.key.scenario.clone(),
        approach: point.key.approach.clone(),
        params: point.key.params.clone(),
        seed: point.key.seed,
        jobs,
        events,
        tx_pkts,
        sim_ns,
        wall_ns: best_wall,
        events_per_sec: events as f64 * 1e9 / best_wall as f64,
        pkts_per_sec: tx_pkts as f64 * 1e9 / best_wall as f64,
    })
}

/// Deterministic `BENCH_*.json` bytes for a bench document.
pub fn render_json(bench: &PerfBench) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"{}\",", bench.spec);
    let _ = writeln!(out, "  \"scheduler\": \"{}\",", bench.scheduler);
    let _ = writeln!(out, "  \"records\": [");
    for (i, r) in bench.records.iter().enumerate() {
        let comma = if i + 1 < bench.records.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"scenario\": \"{}\",", r.scenario);
        let _ = writeln!(out, "      \"approach\": \"{}\",", r.approach);
        let _ = writeln!(out, "      \"params\": \"{}\",", r.params);
        let _ = writeln!(out, "      \"seed\": {},", r.seed);
        let _ = writeln!(out, "      \"jobs\": {},", r.jobs);
        let _ = writeln!(out, "      \"events\": {},", r.events);
        let _ = writeln!(out, "      \"tx_pkts\": {},", r.tx_pkts);
        let _ = writeln!(out, "      \"sim_ns\": {},", r.sim_ns);
        let _ = writeln!(out, "      \"wall_ns\": {},", r.wall_ns);
        let _ = writeln!(out, "      \"events_per_sec\": {:.1},", r.events_per_sec);
        let _ = writeln!(out, "      \"pkts_per_sec\": {:.1}", r.pkts_per_sec);
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Parse a `BENCH_*.json` document (inverse of [`render_json`]).
pub fn parse_bench(text: &str) -> Result<PerfBench, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCH json: {e}"))?;
    let spec = doc.field("bench", "BENCH json")?;
    let scheduler = doc.field("scheduler", "BENCH json")?;
    let arr = doc.arr_field("records", "BENCH json")?;
    let mut records = Vec::with_capacity(arr.len());
    for rec in arr {
        records.push(PerfRecord {
            scenario: rec.field("scenario", "record")?,
            approach: rec.field("approach", "record")?,
            params: rec.field("params", "record")?,
            seed: rec.field("seed", "record")?,
            jobs: rec.field("jobs", "record")?,
            events: rec.field("events", "record")?,
            tx_pkts: rec.field("tx_pkts", "record")?,
            sim_ns: rec.field("sim_ns", "record")?,
            wall_ns: rec.field("wall_ns", "record")?,
            events_per_sec: rec.field("events_per_sec", "record")?,
            pkts_per_sec: rec.field("pkts_per_sec", "record")?,
        });
    }
    Ok(PerfBench {
        spec,
        scheduler,
        records,
    })
}

/// Compare a current bench against the committed baseline.
///
/// Deterministic counters are gated two-sided at `counter_tol`;
/// wall-clock throughput is gated one-sided at `wall_tol` (only
/// slowdowns fail). Structural mismatches (missing or new records, spec
/// mismatch) are violations too — `--update` is the way to change the
/// baseline's shape.
pub fn diff_bench(
    baseline: &PerfBench,
    current: &PerfBench,
    counter_tol: f64,
    wall_tol: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    if baseline.spec != current.spec {
        violations.push(format!(
            "spec mismatch: baseline `{}` vs current `{}`",
            baseline.spec, current.spec
        ));
        return violations;
    }
    let ident = |r: &PerfRecord| {
        format!(
            "{} [{}] {{{}}} seed={} jobs={}",
            r.scenario, r.approach, r.params, r.seed, r.jobs
        )
    };
    for b in &baseline.records {
        let Some(c) = current.records.iter().find(|c| {
            c.scenario == b.scenario
                && c.approach == b.approach
                && c.params == b.params
                && c.seed == b.seed
                && c.jobs == b.jobs
        }) else {
            violations.push(format!("{}: record missing from current bench", ident(b)));
            continue;
        };
        for (name, bv, cv) in [
            ("events", b.events, c.events),
            ("tx_pkts", b.tx_pkts, c.tx_pkts),
            ("sim_ns", b.sim_ns, c.sim_ns),
        ] {
            let delta = rel_delta(bv as f64, cv as f64);
            if delta > counter_tol {
                violations.push(format!(
                    "{}: deterministic counter `{name}` moved {bv} -> {cv} \
                     ({:.1}% > {:.1}% tolerance) — engine behavior changed",
                    ident(b),
                    delta * 100.0,
                    counter_tol * 100.0
                ));
            }
        }
        let floor = b.events_per_sec * (1.0 - wall_tol);
        if c.events_per_sec < floor {
            violations.push(format!(
                "{}: throughput regressed {:.0} -> {:.0} events/sec \
                 (floor {:.0} at {:.0}% tolerance)",
                ident(b),
                b.events_per_sec,
                c.events_per_sec,
                floor,
                wall_tol * 100.0
            ));
        }
    }
    for c in &current.records {
        let known = baseline.records.iter().any(|b| {
            b.scenario == c.scenario
                && b.approach == c.approach
                && b.params == c.params
                && b.seed == c.seed
                && b.jobs == c.jobs
        });
        if !known {
            violations.push(format!(
                "{}: record not in baseline (run with --update to ratchet)",
                ident(c)
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{expand, SweepAxis, SweepSpec};
    use aq_bench::Approach;
    use aq_workloads::registry::Params;

    fn bench_fixture() -> PerfBench {
        PerfBench {
            spec: "smoke".to_string(),
            scheduler: "wheel".to_string(),
            records: vec![PerfRecord {
                scenario: "fairness_flows".to_string(),
                approach: "aq".to_string(),
                params: "b_flows=1,horizon_ms=20".to_string(),
                seed: 1,
                jobs: 0,
                events: 100_000,
                tx_pkts: 40_000,
                sim_ns: 20_000_000,
                wall_ns: 50_000_000,
                events_per_sec: 2_000_000.0,
                pkts_per_sec: 800_000.0,
            }],
        }
    }

    #[test]
    fn perf_points_pick_one_aq_point_per_scenario() {
        let points = expand(&crate::smoke_spec()).expect("smoke expands");
        let picked = perf_points(&points);
        assert_eq!(picked.len(), 8, "one point per smoke scenario");
        for p in &picked {
            assert_eq!(p.key.approach, "aq");
            assert_eq!(p.key.seed, 1);
        }
        let mut scenarios: Vec<&str> = picked.iter().map(|p| p.key.scenario.as_str()).collect();
        scenarios.sort_unstable();
        scenarios.dedup();
        assert_eq!(scenarios.len(), 8);
    }

    #[test]
    fn bench_json_roundtrips() {
        let bench = bench_fixture();
        let rendered = render_json(&bench);
        let parsed = parse_bench(&rendered).expect("parses");
        assert_eq!(parsed, bench);
    }

    #[test]
    fn diff_passes_on_identity_and_on_improvement() {
        let bench = bench_fixture();
        assert!(diff_bench(&bench, &bench, COUNTER_TOLERANCE, WALL_TOLERANCE).is_empty());
        let mut faster = bench.clone();
        faster.records[0].wall_ns /= 4;
        faster.records[0].events_per_sec *= 4.0;
        faster.records[0].pkts_per_sec *= 4.0;
        assert!(
            diff_bench(&bench, &faster, COUNTER_TOLERANCE, WALL_TOLERANCE).is_empty(),
            "improvements must never fail the gate"
        );
    }

    #[test]
    fn diff_fails_on_injected_regression_and_counter_drift() {
        let bench = bench_fixture();
        let mut slow = bench.clone();
        slow.records[0].events_per_sec /= 4.0;
        let v = diff_bench(&bench, &slow, COUNTER_TOLERANCE, WALL_TOLERANCE);
        assert_eq!(v.len(), 1, "one throughput violation: {v:?}");
        assert!(v[0].contains("throughput regressed"));

        let mut drifted = bench.clone();
        drifted.records[0].events += 50_000;
        let v = diff_bench(&bench, &drifted, COUNTER_TOLERANCE, WALL_TOLERANCE);
        assert!(
            v.iter().any(|m| m.contains("`events`")),
            "counter drift must fail: {v:?}"
        );

        let missing = PerfBench {
            records: Vec::new(),
            ..bench.clone()
        };
        let v = diff_bench(&bench, &missing, COUNTER_TOLERANCE, WALL_TOLERANCE);
        assert!(v[0].contains("missing"));
    }

    #[test]
    fn measure_is_deterministic_and_counts_work() {
        let spec = SweepSpec {
            name: "unit".to_string(),
            axes: vec![SweepAxis {
                scenario: "fairness_flows".to_string(),
                approaches: vec![Approach::Aq],
                grid: vec![Params::parse("b_flows=1,horizon_ms=2").expect("grid")],
                seeds: vec![1],
            }],
        };
        let points = expand(&spec).expect("expands");
        let picked = perf_points(&points);
        let r1 = measure(&picked[0], 2, SchedulerKind::default(), 0).expect("measures");
        assert!(r1.events > 0);
        assert!(r1.tx_pkts > 0);
        assert_eq!(r1.sim_ns, 2_000_000);
        assert!(r1.events_per_sec > 0.0);
        let r2 = measure(&picked[0], 1, SchedulerKind::default(), 0).expect("measures");
        assert_eq!(
            (r1.events, r1.tx_pkts, r1.sim_ns),
            (r2.events, r2.tx_pkts, r2.sim_ns),
            "counters are seed properties, not timing properties"
        );
    }

    #[test]
    fn sharded_measure_reproduces_the_reference_counters() {
        // The jobs axis may only move wall-clock columns: the deterministic
        // counters of a sharded measurement must equal the reference
        // engine's, for both a shardable dumbbell and a fallback run.
        let spec = SweepSpec {
            name: "unit".to_string(),
            axes: vec![SweepAxis {
                scenario: "fairness_flows".to_string(),
                approaches: vec![Approach::Aq],
                grid: vec![Params::parse("b_flows=1,horizon_ms=2").expect("grid")],
                seeds: vec![1],
            }],
        };
        let points = expand(&spec).expect("expands");
        let picked = perf_points(&points);
        let reference = measure(&picked[0], 1, SchedulerKind::default(), 0).expect("measures");
        for jobs in [1, 2, 4] {
            let sharded = measure(&picked[0], 1, SchedulerKind::default(), jobs).expect("measures");
            assert_eq!(
                (reference.events, reference.tx_pkts, reference.sim_ns),
                (sharded.events, sharded.tx_pkts, sharded.sim_ns),
                "jobs={jobs} moved a deterministic counter"
            );
            assert_eq!(sharded.jobs, jobs);
        }
    }
}
