//! `aq-sweep` — the sweep orchestrator CLI.
//!
//! ```text
//! aq-sweep list
//! aq-sweep run  [--spec smoke] [--jobs N] [--out DIR] [--seeds 1,2,3] [--no-trends]
//! aq-sweep diff <baseline-dir> <current-dir>
//! aq-sweep check <sweep-dir>
//! aq-sweep soak [--minutes N] [--seed S] [--jobs J] [--out DIR]
//! ```
//!
//! Exit codes: `0` success, `1` gate violation (diff tolerance breach or
//! trend failure), `2` usage or I/O error.

use aq_bench::report::RunReport;
use aq_harness::agg::Sweep;
use aq_harness::diff::{diff_sweeps, render_violations, Tolerances};
use aq_harness::drill;
use aq_harness::oracle;
use aq_harness::sweep::{expand, run_points};
use aq_harness::trends::{check_trends, DEFAULT_RULES};
use aq_harness::{find_spec, named_specs, soak_round_spec};
use aq_workloads::registry;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
aq-sweep: parallel multi-seed sweep orchestrator with a regression gate

USAGE:
  aq-sweep list
      Show registered scenarios (with parameters) and named sweeps.
  aq-sweep run [--spec NAME] [--jobs N] [--out DIR] [--seeds a,b,c]
               [--timeout-s S] [--no-trends]
      Execute a named sweep (default: smoke), write DIR/sweep.json,
      DIR/sweep.csv and per-run reports under DIR/runs/, then evaluate
      trend rules. Default out: target/sweeps/<spec>. Default jobs: 1.
      Each run is supervised under a per-run wall-clock budget (default
      600 s): an overdue run is abandoned and recorded as a `timeout`
      failure while the rest of the grid completes.
  aq-sweep diff [--drill-down] BASELINE_DIR CURRENT_DIR
      Compare two sweep directories under per-metric relative tolerances;
      print a violation table and exit 1 on any violation. When both
      directories carry per-run reports (runs/), each shared run's
      report.json is also compared field by field, tracing aggregate
      violations to the exact (run, section, row, field) that moved;
      --drill-down makes missing runs/ an error instead of a skip.
  aq-sweep check SWEEP_DIR
      Evaluate trend rules against an existing sweep directory.
  aq-sweep soak [--minutes N] [--seed S] [--jobs J] [--out DIR]
                [--timeout-s S]
      Chaos soak: run N seed-rotation rounds (one per requested minute,
      default 10) of the smoke+extended grids — fault trains, shared-
      buffer pressure, and the budget-overflowed tenant-churn scenario —
      each round at a seed derived from --seed (default 1) and the round
      index, writing artifacts under DIR/round<K>/ (default
      target/sweeps/soak). Every run report is checked against the
      invariant oracle (byte conservation, pool and AQ-table budget
      bounds, degradation accounting); any violation or failed run exits
      1. Same --seed and --minutes replay byte-identical artifacts.

EXIT CODES: 0 ok, 1 gate violation, 2 usage/I-O error.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "list" => cmd_list(),
        "run" => cmd_run(&args[1..]),
        "diff" => cmd_diff(&args[1..]),
        "check" => cmd_check(&args[1..]),
        "soak" => cmd_soak(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("aq-sweep: unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cmd_list() -> ExitCode {
    println!("scenarios:");
    for def in registry::registry() {
        println!("  {:<26} {}", def.name, def.summary);
        for p in def.params {
            println!(
                "    --param {:<12} default {:<8} {}",
                p.name, p.default, p.help
            );
        }
    }
    println!("sweeps:");
    for spec in named_specs() {
        let n = expand(&spec).map(|p| p.len()).unwrap_or(0);
        println!("  {:<16} {} runs", spec.name, n);
    }
    ExitCode::SUCCESS
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut spec_name = "smoke".to_string();
    let mut jobs = 1usize;
    let mut out: Option<PathBuf> = None;
    let mut seeds: Option<Vec<u64>> = None;
    let mut run_trends = true;
    let mut timeout_s = 600u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => match it.next() {
                Some(v) => spec_name = v.clone(),
                None => return usage_err("--spec needs a value"),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => jobs = v,
                _ => return usage_err("--jobs needs a positive integer"),
            },
            "--out" => match it.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return usage_err("--out needs a value"),
            },
            "--seeds" => {
                let parsed: Option<Vec<u64>> = it
                    .next()
                    .map(|v| v.split(',').map(|s| s.trim().parse().ok()).collect())
                    .unwrap_or(None);
                match parsed {
                    Some(v) if !v.is_empty() => seeds = Some(v),
                    _ => return usage_err("--seeds needs a comma-separated u64 list"),
                }
            }
            "--timeout-s" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => timeout_s = v,
                _ => return usage_err("--timeout-s needs a positive integer"),
            },
            "--no-trends" => run_trends = false,
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
    }
    let Some(mut spec) = find_spec(&spec_name) else {
        return usage_err(&format!("unknown sweep spec `{spec_name}`"));
    };
    if let Some(seeds) = seeds {
        for axis in &mut spec.axes {
            axis.seeds = seeds.clone();
        }
    }
    let out = out.unwrap_or_else(|| Path::new("target/sweeps").join(&spec.name));
    let points = match expand(&spec) {
        Ok(p) => p,
        Err(e) => return io_err(&e),
    };
    println!(
        "sweep `{}`: {} runs over {} job(s) -> {}",
        spec.name,
        points.len(),
        jobs,
        out.display()
    );
    let timeout = std::time::Duration::from_secs(timeout_s);
    let outcome = match run_points(&points, jobs, Some(timeout), Some(&out)) {
        Ok(m) => m,
        Err(e) => return io_err(&e),
    };
    let sweep = Sweep::from_runs(&spec.name, outcome.metrics).with_failures(outcome.failures);
    if let Err(e) = sweep.write_to(&out) {
        return io_err(&format!("writing sweep artifacts: {e}"));
    }
    println!(
        "wrote {} configs, {} runs: sweep.json + sweep.csv",
        sweep.configs.len(),
        sweep.runs.len()
    );
    if !sweep.failures.is_empty() {
        // Artifacts are written (so the failure is diffable), but a
        // partially-failed sweep is never a green run.
        eprintln!("{} run(s) FAILED:", sweep.failures.len());
        for (key, error) in &sweep.failures {
            eprintln!("  {key}: {error}");
        }
        return ExitCode::from(1);
    }
    if run_trends {
        let failures = check_trends(&sweep, DEFAULT_RULES);
        if !failures.is_empty() {
            eprintln!("trend check FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            return ExitCode::from(1);
        }
        println!("trend check passed ({} rules)", DEFAULT_RULES.len());
    }
    ExitCode::SUCCESS
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut force_drill = false;
    let mut dirs = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--drill-down" => force_drill = true,
            flag if flag.starts_with("--") => {
                return usage_err(&format!("unknown flag `{flag}`"));
            }
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    let [baseline_dir, current_dir] = dirs.as_slice() else {
        return usage_err("diff needs exactly: [--drill-down] BASELINE_DIR CURRENT_DIR");
    };
    let baseline = match Sweep::load_dir(baseline_dir) {
        Ok(s) => s,
        Err(e) => return io_err(&e),
    };
    let current = match Sweep::load_dir(current_dir) {
        Ok(s) => s,
        Err(e) => return io_err(&e),
    };
    let tol = Tolerances::default();
    let violations = diff_sweeps(&baseline, &current, &tol);

    // Drill down whenever both sides carry per-run reports; --drill-down
    // turns a missing runs/ directory into a hard error.
    let both_have_runs = drill::has_runs(baseline_dir) && drill::has_runs(current_dir);
    if force_drill && !both_have_runs {
        return io_err("--drill-down needs runs/ under both sweep directories");
    }
    let field_diffs = if both_have_runs {
        match drill::drill_down(baseline_dir, current_dir, &tol) {
            Ok((diffs, compared)) => {
                println!("drill-down: {compared} run pair(s) compared");
                diffs
            }
            Err(e) => return io_err(&e),
        }
    } else {
        Vec::new()
    };

    if violations.is_empty() && field_diffs.is_empty() {
        println!(
            "diff clean: {} configs, {} runs match `{}` within tolerances",
            current.configs.len(),
            current.runs.len(),
            baseline.name
        );
        return ExitCode::SUCCESS;
    }
    if !violations.is_empty() {
        eprintln!("{}", render_violations(&violations));
    }
    if !field_diffs.is_empty() {
        eprintln!("{}", drill::render_field_diffs(&field_diffs));
    }
    ExitCode::from(1)
}

fn cmd_check(args: &[String]) -> ExitCode {
    let [dir] = args else {
        return usage_err("check needs exactly: SWEEP_DIR");
    };
    let sweep = match Sweep::load_dir(Path::new(dir)) {
        Ok(s) => s,
        Err(e) => return io_err(&e),
    };
    let failures = check_trends(&sweep, DEFAULT_RULES);
    if failures.is_empty() {
        println!("trend check passed ({} rules)", DEFAULT_RULES.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("trend check FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        ExitCode::from(1)
    }
}

fn cmd_soak(args: &[String]) -> ExitCode {
    let mut minutes = 10u64;
    let mut seed = 1u64;
    let mut jobs = 1usize;
    let mut out: Option<PathBuf> = None;
    let mut timeout_s = 600u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--minutes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => minutes = v,
                _ => return usage_err("--minutes needs a positive integer"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage_err("--seed needs a u64"),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => jobs = v,
                _ => return usage_err("--jobs needs a positive integer"),
            },
            "--out" => match it.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return usage_err("--out needs a value"),
            },
            "--timeout-s" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => timeout_s = v,
                _ => return usage_err("--timeout-s needs a positive integer"),
            },
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
    }
    let out = out.unwrap_or_else(|| PathBuf::from("target/sweeps/soak"));
    let timeout = std::time::Duration::from_secs(timeout_s);
    let mut total_runs = 0usize;
    let mut violations: Vec<String> = Vec::new();
    for round in 0..minutes {
        let spec = soak_round_spec(seed, round);
        let points = match expand(&spec) {
            Ok(p) => p,
            Err(e) => return io_err(&e),
        };
        let round_dir = out.join(format!("round{round}"));
        println!(
            "soak round {}/{}: {} runs (seed {}) -> {}",
            round + 1,
            minutes,
            points.len(),
            seed.wrapping_add(round.wrapping_mul(1000)),
            round_dir.display()
        );
        let outcome = match run_points(&points, jobs, Some(timeout), Some(&round_dir)) {
            Ok(m) => m,
            Err(e) => return io_err(&e),
        };
        let sweep = Sweep::from_runs(&spec.name, outcome.metrics).with_failures(outcome.failures);
        if let Err(e) = sweep.write_to(&round_dir) {
            return io_err(&format!("writing sweep artifacts: {e}"));
        }
        if !sweep.failures.is_empty() {
            eprintln!(
                "soak round {round}: {} run(s) FAILED:",
                sweep.failures.len()
            );
            for (key, error) in &sweep.failures {
                eprintln!("  {key}: {error}");
            }
            return ExitCode::from(1);
        }
        // Gate every run report of the round on the invariant oracle.
        for point in &points {
            let path = round_dir
                .join("runs")
                .join(point.key.dir_name())
                .join("report.json");
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => return io_err(&format!("reading {}: {e}", path.display())),
            };
            let report = match RunReport::parse_json(&text) {
                Ok(r) => r,
                Err(e) => return io_err(&format!("{}: {e}", path.display())),
            };
            violations.extend(oracle::check_report(&report));
            total_runs += 1;
        }
        if !violations.is_empty() {
            break;
        }
    }
    if violations.is_empty() {
        println!("soak clean: oracle passed on {total_runs} run report(s)");
        ExitCode::SUCCESS
    } else {
        eprintln!("soak ORACLE VIOLATIONS ({}):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        ExitCode::from(1)
    }
}

fn usage_err(message: &str) -> ExitCode {
    eprintln!("aq-sweep: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn io_err(message: &str) -> ExitCode {
    eprintln!("aq-sweep: {message}");
    ExitCode::from(2)
}
