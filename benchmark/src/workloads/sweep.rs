//! `sweep_grid`: the smoke and extended grids end to end, the way
//! `aq-sweep run` + `aq-sweep diff --drill-down` drive them in CI, then
//! topped up with soak rounds on the next seeds to a fixed number of
//! simulated events, so a unit is the same amount of work on every seed.

use super::{add_report_counts, count_layers, fnv64, uses_red, Scale, UnitOutput, FNV_SEED};
use crate::clock;
use crate::stats;
use crate::trace::Tracer;
use aq_bench::report::RunReport;
use aq_harness::agg::Sweep;
use aq_harness::diff::{diff_sweeps, render_violations, Tolerances};
use aq_harness::drill::{drill_down, render_field_diffs};
use aq_harness::pool::{run_supervised, TaskResult};
use aq_harness::sweep::{execute_run, expand, run_points, RunPoint, SweepOutcome, SweepSpec};
use aq_harness::trends::{check_trends, DEFAULT_RULES};
use aq_harness::{extended_spec, oracle, smoke_spec, soak_round_spec};
use std::path::{Path, PathBuf};

/// The committed baselines; `seed == 1` reproduces their seed set.
const BASELINES: &str = "baselines/expected";
const BASELINE_SEED: u64 = 1;
/// A grid run that takes this long is hung, not slow (each is ≤ 0.2 s).
const RUN_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);
/// Simulated events a full-size unit runs. The 24 run-to-completion
/// points of the grid (`completion_vms`, `cc_mix`) draw heavy-tailed flow
/// sizes from three seeds only, so the 114 runs are 35 M to 50 M events
/// depending on the seed; soak rounds on the seeds after them fill the
/// unit up to this many, and `run_s` stops moving with the seed.
const EVENT_BUDGET: u64 = 52_000_000;
/// Soak rounds kept ready for the top-up. One is at least 11 M events.
const TOP_UP_ROUNDS: u64 = 4;

/// Seeds per grid point at each size.
fn n_seeds(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 3,
        Scale::Reference => 4,
    }
}

/// Full size: both committed grids on seeds `{s, s+1, s+2}` (114 runs).
/// Reference size: the smoke grid on four seeds (120 shorter runs, still
/// over a hundred samples for the per-run p90).
fn specs(scale: Scale, seed: u64) -> Vec<SweepSpec> {
    let mut specs = match scale {
        Scale::Full => vec![smoke_spec(), extended_spec()],
        Scale::Reference => vec![smoke_spec()],
    };
    for spec in &mut specs {
        for axis in &mut spec.axes {
            axis.seeds = (seed..seed + n_seeds(scale)).collect();
        }
    }
    specs
}

/// The runs a full-size unit draws its top-up from, in the order it runs
/// them: one soak round (both grids, one seed) per seed after the grid's.
fn top_up(scale: Scale, seed: u64, out_dir: &Path) -> Result<Grid, String> {
    let mut points = Vec::new();
    if scale == Scale::Full {
        for round in 0..TOP_UP_ROUNDS {
            points.extend(expand(&soak_round_spec(seed + n_seeds(scale) + round, 0))?);
        }
    }
    Ok(Grid {
        name: "top-up".to_string(),
        points,
        dir: out_dir.join("top-up"),
    })
}

fn simulated_events(outcome: &SweepOutcome) -> u64 {
    outcome.metrics.values().map(|m| m["events"] as u64).sum()
}

struct Grid {
    name: String,
    points: Vec<RunPoint>,
    dir: PathBuf,
}

pub fn run(scale: Scale, seed: u64, out_dir: &Path, tr: &mut Tracer) -> Result<UnitOutput, String> {
    let mut out = UnitOutput {
        params: format!(
            "{} jobs=1 seeds={seed}..",
            specs(scale, seed)
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>()
                .join("+")
        ),
        ..UnitOutput::default()
    };

    let (grids, mut top_up) = tr.phase("setup", |tr| {
        tr.span("expand", |_| {
            let grids = specs(scale, seed)
                .iter()
                .map(|spec| {
                    Ok(Grid {
                        name: spec.name.clone(),
                        points: expand(spec)?,
                        dir: out_dir.join(&spec.name),
                    })
                })
                .collect::<Result<Vec<Grid>, String>>()?;
            Ok::<_, String>((grids, top_up(scale, seed, out_dir)?))
        })
    })?;

    // Untraced, the grid goes through the pool exactly as `aq-sweep run
    // --jobs 1` sends it. Traced, the same points run one by one on this
    // thread so each gets a span. The top-up follows run by run, until
    // the unit has simulated its budget of events.
    let outcomes = tr.phase("run", |tr| -> Result<Vec<SweepOutcome>, String> {
        let outcomes = grids
            .iter()
            .map(|g| run_some(&g.points, &g.dir, tr))
            .collect::<Result<Vec<SweepOutcome>, String>>()?;
        let mut events: u64 = outcomes.iter().map(simulated_events).sum();
        let mut ran = 0;
        while scale == Scale::Full && events < EVENT_BUDGET {
            let point = top_up.points.get(ran..=ran).ok_or(format!(
                "{ran} top-up runs simulated {events} events, short of {EVENT_BUDGET}"
            ))?;
            let outcome = run_some(point, &top_up.dir, tr)?;
            events += simulated_events(&outcome);
            for (key, failure) in &outcome.failures {
                out.failures.push(format!("{key}: {failure}"));
            }
            ran += 1;
        }
        top_up.points.truncate(ran);
        Ok(outcomes)
    })?;
    out.attempted = grids.iter().chain([&top_up]).map(|g| g.points.len() as u64).sum();

    let gated = seed == BASELINE_SEED && scale == Scale::Full;
    let mut digest = FNV_SEED;
    tr.phase("report", |tr| -> Result<(), String> {
        for (g, outcome) in grids.iter().zip(outcomes) {
            for (key, failure) in &outcome.failures {
                out.failures.push(format!("{key}: {failure}"));
            }
            let sweep = tr.span("from_runs", |_| {
                Sweep::from_runs(&g.name, outcome.metrics).with_failures(outcome.failures)
            });
            // The trend rules are tuned to the committed seed set (a few
            // sit within 2 % of their floors); on other seeds they still
            // run, for their cost, but decide nothing.
            let trend_failures = tr.span("check_trends", |_| check_trends(&sweep, DEFAULT_RULES));
            if gated {
                out.failures.extend(trend_failures);
            }
            tr.span("write_to", |_| sweep.write_to(&g.dir))
                .map_err(|e| format!("writing {}: {e}", g.dir.display()))?;
            let current = tr.span("load_dir", |_| Sweep::load_dir(&g.dir))?;
            let json_path = g.dir.join("sweep.json");
            let bytes =
                std::fs::read(&json_path).map_err(|e| format!("{}: {e}", json_path.display()))?;
            digest = fnv64(&bytes, digest);

            // Gate against the committed baseline where there is one; on
            // any other seed the sweep is diffed against its own artifacts,
            // which costs the same and must come out clean too.
            let against = if gated {
                Path::new(BASELINES).join(&g.name)
            } else {
                g.dir.clone()
            };
            let baseline = Sweep::load_dir(&against)?;
            let tol = Tolerances::default();
            let violations = tr.span("diff_sweeps", |_| diff_sweeps(&baseline, &current, &tol));
            if !violations.is_empty() {
                out.failures.push(render_violations(&violations));
            }
            let (field_diffs, compared) =
                tr.span("drill_down", |_| drill_down(&against, &g.dir, &tol))?;
            if !field_diffs.is_empty() {
                out.failures.push(render_field_diffs(&field_diffs));
            }
            if compared != g.points.len() {
                out.failures.push(format!(
                    "{}: drill-down compared {compared} run pairs, expected {}",
                    g.name,
                    g.points.len()
                ));
            }
            tr.span("check_report", |tr| check_reports(g, tr, &mut out))?;
        }
        Ok(())
    })?;
    // The top-up's runs are not aggregated, but each one's report is held
    // to the oracle and counted like a grid run's — in a phase of its own,
    // because how many there are (10 to 60) moves with the seed, and
    // `report_s` would move with them.
    tr.phase("top_up_check", |tr| {
        tr.span("check_report", |tr| check_reports(&top_up, tr, &mut out))
    })?;
    out.digest = digest;
    out.pkts = out.counts.get("tx_pkts").copied().unwrap_or(0);
    out.counts.insert("runs".to_string(), out.attempted);
    out.counts
        .insert("top_up_runs".to_string(), top_up.points.len() as u64);

    tr.phase("teardown", |_| drop((grids, top_up)));

    if tr.detail() {
        let overhead_us = tr.phase("pool_probe", |_| pool_task_overhead_us());
        native_layers(tr, overhead_us, &mut out);
    }
    Ok(out)
}

fn run_some(points: &[RunPoint], dir: &Path, tr: &mut Tracer) -> Result<SweepOutcome, String> {
    if !tr.detail() {
        return run_points(points, 1, Some(RUN_TIMEOUT), Some(dir));
    }
    let base = dir.join("runs");
    std::fs::create_dir_all(&base).map_err(|e| format!("creating {}: {e}", base.display()))?;
    let mut outcome = SweepOutcome::default();
    for point in points {
        let metrics = tr.span("execute_run", |_| execute_run(point, Some(&base)))?;
        outcome.metrics.insert(point.key.clone(), metrics);
    }
    Ok(outcome)
}

/// Parse every run's `report.json` back and hold it to the oracle; the
/// parsed reports also give the grid's packet and drop totals.
fn check_reports(g: &Grid, tr: &mut Tracer, out: &mut UnitOutput) -> Result<(), String> {
    for point in &g.points {
        let path = g
            .dir
            .join("runs")
            .join(point.key.dir_name())
            .join("report.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rep = tr.span("parse_json", |_| RunReport::parse_json(&text))?;
        out.failures.extend(oracle::check_report(&rep));
        add_report_counts(&rep, uses_red(&point.resolved), &mut out.counts)?;
        *out.counts.entry("report_bytes".to_string()).or_default() += text.len() as u64;
    }
    Ok(())
}

fn native_layers(tr: &Tracer, pool_task_overhead_us: f64, out: &mut UnitOutput) {
    let per_run = tr.durations_ms("execute_run");
    if stats::highest_supported_percentile(per_run.len()) < Some(90.0) {
        out.failures
            .push(format!("{} grid runs cannot support a p90", per_run.len()));
    }
    let ms = |name: &str| clock::millis(tr.total_ns(name));
    // `check_report` spans enclose the parse; the oracle's own time is
    // what is left.
    let oracle_ms = ms("check_report") - ms("parse_json");
    let layers = [
        ("harness.sweep.run_ms_p50", stats::median(&per_run)),
        (
            "harness.sweep.run_ms_p90",
            stats::percentile(&per_run, 90.0),
        ),
        ("harness.pool.task_overhead_us", pool_task_overhead_us),
        ("harness.agg.from_runs_ms", ms("from_runs")),
        ("harness.agg.write_ms", ms("write_to")),
        ("harness.agg.load_dir_ms", ms("load_dir")),
        ("harness.diff.diff_ms", ms("diff_sweeps")),
        ("harness.drill.drill_ms", ms("drill_down")),
        ("harness.oracle.check_ms", oracle_ms),
        ("harness.trends.check_ms", ms("check_trends")),
    ];
    let counted = count_layers(&out.counts, tr.total_ns("run"), tr.total_ns("parse_json"));
    out.layers.extend(
        counted
            .into_iter()
            .chain(layers)
            .map(|(k, v)| (k.to_string(), v)),
    );
}

/// What the supervised pool adds per task: a grid of no-op tasks through
/// one worker, the way `run_points(jobs = 1)` uses it.
fn pool_task_overhead_us() -> f64 {
    const TASKS: usize = 2000;
    let (results, ns) =
        clock::timed(|| run_supervised(TASKS, 1, Some(RUN_TIMEOUT), std::hint::black_box));
    assert!(results.iter().all(|r| matches!(r, TaskResult::Done(_))));
    ns as f64 / 1e3 / TASKS as f64
}
