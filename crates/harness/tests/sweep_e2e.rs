//! End-to-end contracts of the sweep orchestrator.
//!
//! * **Scheduling independence** — the same spec run with `jobs = 1` and
//!   `jobs = 4` must produce byte-identical `sweep.json` / `sweep.csv`
//!   and identical per-run report artifacts. This is the harness's core
//!   promise: parallelism changes wall-clock time, never output.
//! * **The gate fires** — a deliberately perturbed metric must show up as
//!   a diff violation, and an unperturbed copy must not.

use aq_bench::Approach;
use aq_harness::agg::Sweep;
use aq_harness::diff::{diff_sweeps, Tolerances};
use aq_harness::drill::drill_down;
use aq_harness::sweep::{expand, run_points, FailureKind, SweepAxis, SweepSpec};
use aq_workloads::registry::Params;
use std::path::{Path, PathBuf};

/// A spec small enough for debug-build CI: one scenario, 2 approaches,
/// 1 grid point, 2 seeds = 4 runs of a few simulated milliseconds.
fn tiny_spec() -> SweepSpec {
    SweepSpec {
        name: "tiny".to_string(),
        axes: vec![SweepAxis {
            scenario: "fairness_flows".to_string(),
            approaches: vec![Approach::Pq, Approach::Aq],
            grid: vec![Params::parse("b_flows=2,horizon_ms=5").expect("grid")],
            seeds: vec![1, 2],
        }],
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    dir
}

fn run_spec_into(spec: &SweepSpec, dir: &Path, jobs: usize) -> Sweep {
    let points = expand(spec).expect("expands");
    let outcome = run_points(&points, jobs, None, Some(dir)).expect("runs");
    assert!(
        outcome.failures.is_empty(),
        "spec must run cleanly: {:?}",
        outcome.failures
    );
    let sweep = Sweep::from_runs(&spec.name, outcome.metrics);
    sweep.write_to(dir).expect("writes artifacts");
    sweep
}

fn run_into(dir: &Path, jobs: usize) -> Sweep {
    run_spec_into(&tiny_spec(), dir, jobs)
}

#[test]
fn jobs_1_and_jobs_4_produce_byte_identical_artifacts() {
    let serial_dir = scratch_dir("sweep_serial");
    let wide_dir = scratch_dir("sweep_wide");
    run_into(&serial_dir, 1);
    run_into(&wide_dir, 4);

    for artifact in ["sweep.json", "sweep.csv"] {
        let a = std::fs::read(serial_dir.join(artifact)).expect("serial artifact");
        let b = std::fs::read(wide_dir.join(artifact)).expect("wide artifact");
        assert_eq!(a, b, "{artifact} differs between --jobs 1 and --jobs 4");
    }

    // Per-run report directories: same set, same bytes.
    let list = |dir: &Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir.join("runs"))
            .expect("runs dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        names.sort();
        names
    };
    let serial_runs = list(&serial_dir);
    assert_eq!(serial_runs, list(&wide_dir));
    assert_eq!(serial_runs.len(), 4);
    for run in &serial_runs {
        let a = std::fs::read(serial_dir.join("runs").join(run).join("report.json"))
            .expect("serial report");
        let b = std::fs::read(wide_dir.join("runs").join(run).join("report.json"))
            .expect("wide report");
        assert_eq!(a, b, "runs/{run}/report.json differs across job counts");
    }
}

#[test]
fn incast_sharedbuf_reports_are_jobs_invariant() {
    // The shared-buffer layer adds pool state to the hot path (admission
    // checks, occupancy series, the report `buffers` section); none of it
    // may leak scheduling: the same incast spec run with `--jobs 1` and
    // `--jobs 4` must produce byte-identical artifacts and per-run
    // reports across all three admission policies.
    let spec = SweepSpec {
        name: "sharedbuf".to_string(),
        axes: vec![SweepAxis {
            scenario: "incast_sharedbuf".to_string(),
            approaches: vec![Approach::Pq, Approach::Aq],
            grid: vec![
                Params::parse("admission=0,horizon_ms=5").expect("grid"),
                Params::parse("admission=1,horizon_ms=5").expect("grid"),
                Params::parse("admission=2,horizon_ms=5").expect("grid"),
            ],
            seeds: vec![1],
        }],
    };
    let serial_dir = scratch_dir("sharedbuf_serial");
    let wide_dir = scratch_dir("sharedbuf_wide");
    run_spec_into(&spec, &serial_dir, 1);
    run_spec_into(&spec, &wide_dir, 4);

    for artifact in ["sweep.json", "sweep.csv"] {
        let a = std::fs::read(serial_dir.join(artifact)).expect("serial artifact");
        let b = std::fs::read(wide_dir.join(artifact)).expect("wide artifact");
        assert_eq!(a, b, "{artifact} differs between --jobs 1 and --jobs 4");
    }
    let mut runs: Vec<PathBuf> = std::fs::read_dir(serial_dir.join("runs"))
        .expect("runs dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    runs.sort();
    assert_eq!(runs.len(), 6, "2 approaches x 3 admission policies");
    for run in &runs {
        let name = run.file_name().expect("run dir name").to_owned();
        let a = std::fs::read(run.join("report.json")).expect("serial report");
        let b = std::fs::read(wide_dir.join("runs").join(&name).join("report.json"))
            .expect("wide report");
        assert_eq!(
            a,
            b,
            "runs/{}/report.json differs across job counts",
            name.to_string_lossy()
        );
        // The report actually carries the shared-buffer section it is
        // pinning: both dumbbell switches exported pool rows.
        let text = String::from_utf8(a).expect("utf8 report");
        assert!(
            text.contains("\"buffers\":[{"),
            "runs/{}: report carries no buffers section",
            name.to_string_lossy()
        );
    }
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy dir");
    for entry in std::fs::read_dir(from).expect("read dir") {
        let entry = entry.expect("dir entry");
        let src = entry.path();
        let dst = to.join(entry.file_name());
        if src.is_dir() {
            copy_tree(&src, &dst);
        } else {
            std::fs::copy(&src, &dst).expect("copy file");
        }
    }
}

/// Multiply the first occurrence of `"<field>":<int>` in a report by
/// `factor` (or add `delta`), in place.
fn perturb_int_field(path: &Path, field: &str, factor: u64, delta: u64) -> (u64, u64) {
    let text = std::fs::read_to_string(path).expect("read report");
    let needle = format!("\"{field}\":");
    let at = text.find(&needle).expect("field present") + needle.len();
    let end = at
        + text[at..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("digits end");
    let old: u64 = text[at..end].parse().expect("integer field");
    let new = old * factor + delta;
    let patched = format!("{}{}{}", &text[..at], new, &text[end..]);
    std::fs::write(path, patched).expect("write perturbed report");
    (old, new)
}

#[test]
fn drill_down_names_the_perturbed_field_and_absorbs_one_drop() {
    let dir = scratch_dir("drill_base");
    run_into(&dir, 2);
    let copy = scratch_dir("drill_copy");
    copy_tree(&dir, &copy);

    // A faithful copy produces zero field diffs over all four run pairs.
    let tol = Tolerances::default();
    let (diffs, compared) = drill_down(&dir, &copy, &tol).expect("drills");
    assert_eq!(compared, 4);
    assert!(diffs.is_empty(), "faithful copy must be clean: {diffs:?}");

    // One extra drop in one run: inside the absolute slack floor, so the
    // drill-down (like the aggregate gate) stays quiet.
    let run = std::fs::read_dir(copy.join("runs"))
        .expect("runs dir")
        .next()
        .expect("a run")
        .expect("dir entry")
        .file_name()
        .to_string_lossy()
        .into_owned();
    let report = copy.join("runs").join(&run).join("report.json");
    perturb_int_field(&report, "drops", 1, 1);
    let (diffs, _) = drill_down(&dir, &copy, &tol).expect("drills");
    assert!(diffs.is_empty(), "a 0->1 drop is noise: {diffs:?}");

    // A 10x rx_bytes corruption in the same run: the drill-down names the
    // run, the entity row, and the field.
    perturb_int_field(&report, "rx_bytes", 10, 0);
    let (diffs, _) = drill_down(&dir, &copy, &tol).expect("drills");
    assert!(
        diffs
            .iter()
            .any(|d| d.run == run && d.row.starts_with("entity") && d.field == "rx_bytes"),
        "perturbed field must be named with its run and row, got: {diffs:?}"
    );
    assert!(
        diffs.iter().all(|d| d.run == run),
        "untouched runs must stay clean: {diffs:?}"
    );
}

#[test]
fn new_scenarios_execute_through_the_sweep_path() {
    let spec = SweepSpec {
        name: "new_scenarios".to_string(),
        axes: vec![
            SweepAxis {
                scenario: "cc_mix".to_string(),
                approaches: vec![Approach::Aq],
                grid: vec![Params::parse("pair=1,n_flows=4").expect("grid")],
                seeds: vec![1],
            },
            SweepAxis {
                scenario: "interpod_fattree".to_string(),
                approaches: vec![Approach::Aq],
                grid: vec![Params::parse("horizon_ms=10").expect("grid")],
                seeds: vec![1],
            },
        ],
    };
    let points = expand(&spec).expect("expands");
    let outcome = run_points(&points, 2, None, None).expect("runs");
    assert!(
        outcome.failures.is_empty(),
        "new scenarios must run cleanly: {:?}",
        outcome.failures
    );
    assert_eq!(outcome.metrics.len(), 2);
    for (key, metrics) in &outcome.metrics {
        assert!(
            metrics["goodput_total_gbps"] > 0.0,
            "{key} moved no traffic"
        );
        assert!(metrics["jain_goodput"] > 0.0, "{key} has no fairness index");
    }
}

/// The two fault-injection scenarios at small horizons: link flaps (with
/// residual loss and a sender blackout, so every fault kind is exercised)
/// and an AQ table wipe.
fn fault_spec() -> SweepSpec {
    SweepSpec {
        name: "faults".to_string(),
        axes: vec![
            SweepAxis {
                scenario: "linkflap_dumbbell".to_string(),
                approaches: vec![Approach::Aq],
                grid: vec![Params::parse("horizon_ms=30,loss_pct=1,blackout_ms=4").expect("grid")],
                seeds: vec![1, 2],
            },
            SweepAxis {
                scenario: "aq_state_loss".to_string(),
                approaches: vec![Approach::Aq],
                grid: vec![Params::parse("horizon_ms=25").expect("grid")],
                seeds: vec![1, 2],
            },
        ],
    }
}

#[test]
fn fault_scenarios_are_schedule_independent_and_carry_fault_metrics() {
    let serial_dir = scratch_dir("fault_serial");
    let wide_dir = scratch_dir("fault_wide");
    let spec = fault_spec();
    let serial = run_spec_into(&spec, &serial_dir, 1);
    run_spec_into(&spec, &wide_dir, 4);

    // Same seed + same fault plan => byte-identical artifacts regardless
    // of scheduling, per-run reports included.
    for artifact in ["sweep.json", "sweep.csv"] {
        let a = std::fs::read(serial_dir.join(artifact)).expect("serial artifact");
        let b = std::fs::read(wide_dir.join(artifact)).expect("wide artifact");
        assert_eq!(a, b, "{artifact} differs between --jobs 1 and --jobs 4");
    }
    for entry in std::fs::read_dir(serial_dir.join("runs")).expect("runs dir") {
        let run = entry.expect("dir entry").file_name();
        let a = std::fs::read(serial_dir.join("runs").join(&run).join("report.json"))
            .expect("serial report");
        let b = std::fs::read(wide_dir.join("runs").join(&run).join("report.json"))
            .expect("wide report");
        assert_eq!(a, b, "runs/{run:?}/report.json differs across job counts");
    }

    // Every fault run distills the fault metric surface.
    for (key, metrics) in &serial.runs {
        assert!(
            metrics["faults_injected"] >= 1.0,
            "{key} recorded no injected faults"
        );
        assert!(
            metrics.contains_key("goodput_prefault_gbps")
                && metrics.contains_key("goodput_postfault_gbps")
                && metrics.contains_key("postfault_goodput_ratio"),
            "{key} missing pre/post-fault goodput split: {metrics:?}"
        );
        match key.scenario.as_str() {
            "linkflap_dumbbell" => {
                assert!(
                    metrics["link_down_drops"] >= 1.0,
                    "{key}: a flap train must drop in-flight packets"
                );
                assert!(
                    metrics["pause_drops"] >= 1.0,
                    "{key}: the sender blackout must drop paused traffic"
                );
            }
            "aq_state_loss" => {
                assert!(metrics["wipes_total"] >= 1.0, "{key}: no AQ wipes recorded");
                let reconverge = metrics["reconverge_ms_max"];
                assert!(
                    reconverge > 0.0 && reconverge < 15.0,
                    "{key}: wiped AQs must re-converge within the run, got {reconverge}ms"
                );
            }
            other => panic!("unexpected scenario {other}"),
        }
    }
}

#[test]
fn an_overdue_run_times_out_while_the_rest_of_the_grid_completes() {
    // One run with a deliberately enormous horizon (minutes of simulated
    // time — far beyond the wall-clock budget) next to a quick run: the
    // slow run must land in failures as a `timeout`, the quick one must
    // still produce metrics, and the rendered sweep.json must carry the
    // distinct kind.
    let spec = SweepSpec {
        name: "overdue".to_string(),
        axes: vec![SweepAxis {
            scenario: "fairness_flows".to_string(),
            approaches: vec![Approach::Aq],
            grid: vec![
                Params::parse("b_flows=1,horizon_ms=4").expect("grid"),
                Params::parse("b_flows=1,horizon_ms=600000").expect("grid"),
            ],
            seeds: vec![1],
        }],
    };
    let points = expand(&spec).expect("expands");
    let outcome =
        run_points(&points, 2, Some(std::time::Duration::from_secs(2)), None).expect("runs");
    assert_eq!(outcome.metrics.len(), 1, "the quick run must complete");
    assert_eq!(outcome.failures.len(), 1, "the slow run must fail");
    let (key, failure) = outcome.failures.iter().next().expect("one failure");
    assert!(key.params.contains("horizon_ms=600000"));
    assert_eq!(failure.kind, FailureKind::Timeout);
    assert!(failure.message.contains("wall-clock budget"));

    let sweep = Sweep::from_runs(&spec.name, outcome.metrics).with_failures(outcome.failures);
    let rendered = sweep.render_json();
    assert!(
        rendered.contains("\"kind\": \"timeout\""),
        "sweep.json must tag the timeout kind: {rendered}"
    );
    let parsed = Sweep::parse_json(&rendered).expect("parses");
    assert_eq!(
        parsed.failures.values().next().expect("failure").kind,
        FailureKind::Timeout
    );
}

#[test]
fn sweep_dir_round_trips_and_perturbation_fires_the_gate() {
    let dir = scratch_dir("sweep_gate");
    let sweep = run_into(&dir, 2);

    // Loading the directory back reproduces the in-memory sweep exactly.
    let loaded = Sweep::load_dir(&dir).expect("loads");
    assert_eq!(loaded.render_json(), sweep.render_json());
    assert!(
        diff_sweeps(&sweep, &loaded, &Tolerances::default()).is_empty(),
        "a faithful copy must pass the gate"
    );

    // Perturb one aggregate well past its tolerance: the gate must fire.
    let mut perturbed = loaded.clone();
    let config = perturbed
        .configs
        .keys()
        .find(|c| c.approach == "aq")
        .expect("aq config")
        .clone();
    let jain = perturbed
        .configs
        .get_mut(&config)
        .expect("config metrics")
        .get_mut("jain_goodput")
        .expect("jain aggregate");
    jain.mean *= 0.5;
    let violations = diff_sweeps(&sweep, &perturbed, &Tolerances::default());
    assert!(
        violations.iter().any(|v| v.metric == "jain_goodput"),
        "halving jain_goodput must violate its 5% tolerance, got: {violations:?}"
    );
}

#[test]
fn diff_rejects_an_unknown_flag_as_a_usage_error() {
    // A typo'd flag must not be taken for a sweep directory.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_aq-sweep"))
        .args(["diff", "--drill-dwn", "a", "b"])
        .output()
        .expect("aq-sweep runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--drill-dwn`"), "{stderr}");
}
