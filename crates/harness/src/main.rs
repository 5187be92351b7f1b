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
use aq_harness::sweep::{expand, run_points, RunPoint, SweepSpec};
use aq_harness::trends::{check_trends, DEFAULT_RULES};
use aq_harness::{find_spec, named_specs, soak_round_spec};
use aq_workloads::registry;
use std::fmt;
use std::io::{self, Write};
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

/// Standard output of every command. A closed pipe (`aq-sweep list |
/// head -1`) ends the output silently and leaves the exit code to the
/// command; any other write error is reported on stderr and exits 2.
struct Out {
    stdout: io::Stdout,
    /// Set by the first failed write; nothing is written after it.
    failed: Option<io::Error>,
}

/// Write one line to an [`Out`].
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {
        $out.line(format_args!($($arg)*))
    };
}

impl Out {
    fn line(&mut self, args: fmt::Arguments) {
        if self.failed.is_none() {
            self.failed = writeln!(self.stdout, "{args}").err();
        }
    }

    /// The exit code of a command that returned `code`.
    fn finish(mut self, code: ExitCode) -> ExitCode {
        if self.failed.is_none() {
            self.failed = self.stdout.flush().err();
        }
        match self.failed {
            Some(e) if e.kind() != io::ErrorKind::BrokenPipe => io_err(&format!("stdout: {e}")),
            _ => code,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let mut out = Out {
        stdout: io::stdout(),
        failed: None,
    };
    let code = match cmd.as_str() {
        "list" => cmd_list(&mut out),
        "run" => cmd_run(&mut out, &args[1..]),
        "diff" => cmd_diff(&mut out, &args[1..]),
        "check" => cmd_check(&mut out, &args[1..]),
        "soak" => cmd_soak(&mut out, &args[1..]),
        "--help" | "-h" | "help" => {
            say!(out, "{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("aq-sweep: unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    };
    out.finish(code)
}

fn cmd_list(out: &mut Out) -> ExitCode {
    say!(out, "scenarios:");
    for def in registry::registry() {
        say!(out, "  {:<26} {}", def.name, def.summary);
        for p in def.params {
            say!(out, "    {:<20} {:<8} {}", p.name, p.default, p.help);
        }
    }
    say!(out, "sweeps:");
    for spec in named_specs() {
        let n = expand(&spec).map(|p| p.len()).unwrap_or(0);
        say!(out, "  {:<16} {} runs", spec.name, n);
    }
    ExitCode::SUCCESS
}

/// The flags of `run` and `soak`, at their defaults until parsed. Each
/// command accepts only its own subset ([`RUN_FLAGS`], [`SOAK_FLAGS`]).
#[derive(Debug, Clone, PartialEq)]
struct Flags {
    spec: String,
    seeds: Option<Vec<u64>>,
    run_trends: bool,
    minutes: u64,
    seed: u64,
    jobs: usize,
    out: Option<PathBuf>,
    timeout_s: u64,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            spec: "smoke".to_string(),
            seeds: None,
            run_trends: true,
            minutes: 10,
            seed: 1,
            jobs: 1,
            out: None,
            timeout_s: 600,
        }
    }
}

const RUN_FLAGS: &[&str] = &[
    "--spec",
    "--jobs",
    "--out",
    "--seeds",
    "--timeout-s",
    "--no-trends",
];
const SOAK_FLAGS: &[&str] = &["--minutes", "--seed", "--jobs", "--out", "--timeout-s"];

/// Parse a command's flags; a flag outside `accepted` is unknown. The
/// error is the usage message's first line.
fn parse_flags(args: &[String], accepted: &[&str]) -> Result<Flags, String> {
    fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(v: Option<&String>) -> Option<T> {
        v.and_then(|v| v.parse().ok()).filter(|n| *n >= T::from(1))
    }
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let unknown = || format!("unknown flag `{arg}`");
        if !accepted.contains(&arg.as_str()) {
            return Err(unknown());
        }
        match arg.as_str() {
            "--spec" => flags.spec = it.next().ok_or("--spec needs a value")?.clone(),
            "--seeds" => {
                let parsed: Option<Vec<u64>> = it
                    .next()
                    .and_then(|v| v.split(',').map(|s| s.trim().parse().ok()).collect());
                match parsed {
                    Some(v) if !v.is_empty() => flags.seeds = Some(v),
                    _ => return Err("--seeds needs a comma-separated u64 list".into()),
                }
            }
            "--no-trends" => flags.run_trends = false,
            "--minutes" => {
                flags.minutes = positive(it.next()).ok_or("--minutes needs a positive integer")?
            }
            "--seed" => {
                flags.seed = (it.next().and_then(|v| v.parse().ok())).ok_or("--seed needs a u64")?
            }
            "--jobs" => {
                flags.jobs = positive(it.next()).ok_or("--jobs needs a positive integer")?
            }
            "--out" => flags.out = Some(it.next().ok_or("--out needs a value")?.into()),
            "--timeout-s" => {
                flags.timeout_s =
                    positive(it.next()).ok_or("--timeout-s needs a positive integer")?
            }
            _ => return Err(unknown()),
        }
    }
    Ok(flags)
}

/// The sweep step `run` and each `soak` round share: expand `spec`, print
/// the line `announce` makes of its run count, run it under the flags'
/// jobs and timeout, and write `sweep.{json,csv}` and the run reports
/// under `out`. A failed run fails the step after the artifacts are
/// written (so the failure is diffable): a partially failed sweep is never
/// a green run.
fn sweep_step(
    stdout: &mut Out,
    spec: &SweepSpec,
    flags: &Flags,
    out: &Path,
    announce: impl FnOnce(usize) -> String,
) -> Result<(Vec<RunPoint>, Sweep), ExitCode> {
    let points = expand(spec).map_err(|e| io_err(&e))?;
    say!(stdout, "{}", announce(points.len()));
    let timeout = std::time::Duration::from_secs(flags.timeout_s);
    let outcome =
        run_points(&points, flags.jobs, Some(timeout), Some(out)).map_err(|e| io_err(&e))?;
    let sweep = Sweep::from_runs(&spec.name, outcome.metrics).with_failures(outcome.failures);
    if let Err(e) = sweep.write_to(out) {
        return Err(io_err(&format!("writing sweep artifacts: {e}")));
    }
    say!(
        stdout,
        "wrote {} configs, {} runs: sweep.json + sweep.csv",
        sweep.configs.len(),
        sweep.runs.len()
    );
    if !sweep.failures.is_empty() {
        eprintln!("`{}`: {} run(s) FAILED:", spec.name, sweep.failures.len());
        for (key, error) in &sweep.failures {
            eprintln!("  {key}: {error}");
        }
        return Err(ExitCode::from(1));
    }
    Ok((points, sweep))
}

fn cmd_run(stdout: &mut Out, args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, RUN_FLAGS) {
        Ok(f) => f,
        Err(e) => return usage_err(&e),
    };
    let Some(mut spec) = find_spec(&flags.spec) else {
        return usage_err(&format!("unknown sweep spec `{}`", flags.spec));
    };
    if let Some(seeds) = &flags.seeds {
        for axis in &mut spec.axes {
            axis.seeds = seeds.clone();
        }
    }
    let out = (flags.out.clone()).unwrap_or_else(|| Path::new("target/sweeps").join(&spec.name));
    let announce = |n| {
        let (name, jobs, out) = (&spec.name, flags.jobs, out.display());
        format!("sweep `{name}`: {n} runs over {jobs} job(s) -> {out}")
    };
    let sweep = match sweep_step(stdout, &spec, &flags, &out, announce) {
        Ok((_, sweep)) => sweep,
        Err(code) => return code,
    };
    if flags.run_trends {
        let failures = check_trends(&sweep, DEFAULT_RULES);
        if !failures.is_empty() {
            eprintln!("trend check FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            return ExitCode::from(1);
        }
        say!(stdout, "trend check passed ({} rules)", DEFAULT_RULES.len());
    }
    ExitCode::SUCCESS
}

fn cmd_diff(out: &mut Out, args: &[String]) -> ExitCode {
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
                say!(out, "drill-down: {compared} run pair(s) compared");
                diffs
            }
            Err(e) => return io_err(&e),
        }
    } else {
        Vec::new()
    };

    if violations.is_empty() && field_diffs.is_empty() {
        say!(
            out,
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

fn cmd_check(out: &mut Out, args: &[String]) -> ExitCode {
    let [dir] = args else {
        return usage_err("check needs exactly: SWEEP_DIR");
    };
    let sweep = match Sweep::load_dir(Path::new(dir)) {
        Ok(s) => s,
        Err(e) => return io_err(&e),
    };
    let failures = check_trends(&sweep, DEFAULT_RULES);
    if failures.is_empty() {
        say!(out, "trend check passed ({} rules)", DEFAULT_RULES.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("trend check FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        ExitCode::from(1)
    }
}

fn cmd_soak(stdout: &mut Out, args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, SOAK_FLAGS) {
        Ok(f) => f,
        Err(e) => return usage_err(&e),
    };
    let out = (flags.out.clone()).unwrap_or_else(|| PathBuf::from("target/sweeps/soak"));
    let mut total_runs = 0usize;
    let mut violations: Vec<String> = Vec::new();
    for round in 0..flags.minutes {
        let spec = soak_round_spec(flags.seed, round);
        let round_dir = out.join(format!("round{round}"));
        let announce = |n| {
            let (of, dir) = (flags.minutes, round_dir.display());
            let seed = spec.axes[0].seeds[0];
            format!(
                "soak round {}/{of}: {n} runs (seed {seed}) -> {dir}",
                round + 1
            )
        };
        let points = match sweep_step(stdout, &spec, &flags, &round_dir, announce) {
            Ok((points, _)) => points,
            Err(code) => return code,
        };
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
        say!(
            stdout,
            "soak clean: oracle passed on {total_runs} run report(s)"
        );
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn no_flags_parse_to_the_defaults_and_each_flag_sets_its_field() {
        assert_eq!(parse_flags(&[], RUN_FLAGS), Ok(Flags::default()));
        let run = "--spec paper --jobs 2 --out o --seeds 3,4 --timeout-s 9 --no-trends";
        let flags = parse_flags(&argv(&run.split(' ').collect::<Vec<_>>()), RUN_FLAGS);
        let want = Flags {
            spec: "paper".to_string(),
            seeds: Some(vec![3, 4]),
            run_trends: false,
            jobs: 2,
            out: Some(PathBuf::from("o")),
            timeout_s: 9,
            ..Flags::default()
        };
        assert_eq!(flags, Ok(want));
        let soak = argv(&["--minutes", "3", "--seed", "7"]);
        let flags = parse_flags(&soak, SOAK_FLAGS).unwrap();
        assert_eq!((flags.minutes, flags.seed), (3, 7));
    }

    #[test]
    fn zero_jobs_and_zero_timeout_are_rejected() {
        for accepted in [RUN_FLAGS, SOAK_FLAGS] {
            let err = parse_flags(&argv(&["--jobs", "0"]), accepted).unwrap_err();
            assert_eq!(err, "--jobs needs a positive integer");
            let err = parse_flags(&argv(&["--timeout-s", "0"]), accepted).unwrap_err();
            assert_eq!(err, "--timeout-s needs a positive integer");
        }
        let err = parse_flags(&argv(&["--minutes", "0"]), SOAK_FLAGS).unwrap_err();
        assert_eq!(err, "--minutes needs a positive integer");
    }

    #[test]
    fn a_flag_without_its_value_is_rejected() {
        for flag in RUN_FLAGS.iter().chain(SOAK_FLAGS) {
            let accepted = if RUN_FLAGS.contains(flag) {
                RUN_FLAGS
            } else {
                SOAK_FLAGS
            };
            let parsed = parse_flags(&argv(&[flag]), accepted);
            assert_eq!(
                parsed.is_err(),
                *flag != "--no-trends",
                "{flag}: {parsed:?}"
            );
        }
    }

    #[test]
    fn unknown_flags_and_another_commands_flags_are_rejected() {
        let err = parse_flags(&argv(&["--param", "vms", "2"]), RUN_FLAGS).unwrap_err();
        assert_eq!(err, "unknown flag `--param`");
        let err = parse_flags(&argv(&["--spec", "paper"]), SOAK_FLAGS).unwrap_err();
        assert_eq!(err, "unknown flag `--spec`");
        let err = parse_flags(&argv(&["--seed", "1"]), RUN_FLAGS).unwrap_err();
        assert_eq!(err, "unknown flag `--seed`");
    }

    /// Flag names, numbers at and around the bounds, and junk.
    const TOKENS: &[&str] = &[
        "--spec",
        "--jobs",
        "--out",
        "--seeds",
        "--timeout-s",
        "--no-trends",
        "--minutes",
        "--seed",
        "--param",
        "0",
        "1",
        "7",
        "-1",
        "18446744073709551616",
        "1,2",
        "1,,2",
        ",",
        "",
        "-",
        "--",
        "smoke",
        "x=1",
    ];

    proptest! {
        #[test]
        fn parsing_never_panics_and_accepts_only_positive_counts(
            picks in prop::collection::vec(0..TOKENS.len(), 0..10),
            soak in any::<bool>(),
        ) {
            let args: Vec<String> = picks.iter().map(|&i| TOKENS[i].to_string()).collect();
            let accepted = if soak { SOAK_FLAGS } else { RUN_FLAGS };
            if let Ok(flags) = parse_flags(&args, accepted) {
                prop_assert!(flags.jobs >= 1 && flags.timeout_s >= 1 && flags.minutes >= 1);
                prop_assert!(flags.seeds.as_ref().is_none_or(|s| !s.is_empty()));
            }
        }
    }
}
