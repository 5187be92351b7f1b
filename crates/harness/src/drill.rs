//! Per-run drill-down: tracing an aggregate gate violation to the exact
//! report fields that moved.
//!
//! `aq-sweep diff` compares seed-aggregated metrics; when that gate fires
//! the next question is always *which run, which row, which counter*. Both
//! sweep directories carry every run's full `report.json` under `runs/`,
//! so the drill-down loads the run pairs both sides share and compares
//! them field by field. Which tables a section has, which columns a row
//! has, what keys a row and how each cell type compares is declared once,
//! with the report schema ([`aq_bench::report`]); this module pairs the
//! runs and sections up and judges numeric cells by the same
//! [`Tolerances`] as the aggregate gate — including the absolute-slack
//! floor, so a 0 → 1 drop count is noise here exactly as it is there.

use crate::diff::Tolerances;
use aq_bench::report::{DiffSink, RunReport};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

/// One field-level difference between a baseline and a current run report.
#[derive(Debug, Clone)]
pub struct FieldDiff {
    /// Run directory name (the [`RunKey`] dir form).
    ///
    /// [`RunKey`]: crate::sweep::RunKey
    pub run: String,
    /// Section label inside the report.
    pub section: String,
    /// Row identity (`entity 1`, `port 0/4`, `aq 3/ingress`, `metric k`),
    /// empty for section scalars.
    pub row: String,
    /// Field name — also the tolerance lookup key.
    pub field: String,
    /// Baseline value, formatted ("absent" for a missing row/field).
    pub baseline: String,
    /// Current value, formatted.
    pub current: String,
}

fn list_runs(dir: &Path) -> BTreeSet<String> {
    let Ok(entries) = std::fs::read_dir(dir.join("runs")) else {
        return BTreeSet::new();
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect()
}

/// Whether a sweep directory carries per-run reports to drill into.
pub fn has_runs(dir: &Path) -> bool {
    dir.join("runs").is_dir()
}

/// Compare every run report present in *both* sweep directories. Runs
/// present on only one side are skipped — the aggregate gate already
/// reports config drift. Returns the field diffs plus the number of run
/// pairs compared.
pub fn drill_down(
    baseline_dir: &Path,
    current_dir: &Path,
    tol: &Tolerances,
) -> Result<(Vec<FieldDiff>, usize), String> {
    let base_runs = list_runs(baseline_dir);
    let cur_runs = list_runs(current_dir);
    let shared: Vec<&String> = base_runs.intersection(&cur_runs).collect();
    let mut diffs = Vec::new();
    for run in &shared {
        let load = |dir: &Path| -> Result<RunReport, String> {
            let path = dir.join("runs").join(run).join("report.json");
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            RunReport::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
        };
        let base = load(baseline_dir)?;
        let cur = load(current_dir)?;
        diffs.extend(diff_reports(run, &base, &cur, tol));
    }
    Ok((diffs, shared.len()))
}

/// Field-by-field comparison of two parsed run reports.
pub fn diff_reports(
    run: &str,
    baseline: &RunReport,
    current: &RunReport,
    tol: &Tolerances,
) -> Vec<FieldDiff> {
    let mut sink = Sink {
        run,
        section: "",
        tol,
        out: Vec::new(),
    };
    for bs in baseline.sections() {
        sink.section = &bs.label;
        match current.sections().iter().find(|s| s.label == bs.label) {
            Some(cs) => bs.diff(cs, &mut sink),
            None => sink.differs("", "<section>", "present".into(), "absent".into()),
        }
    }
    for cs in current.sections() {
        if !baseline.sections().iter().any(|s| s.label == cs.label) {
            sink.section = &cs.label;
            sink.differs("", "<section>", "absent".into(), "present".into());
        }
    }
    sink.out
}

/// Turns the cell-level differences [`Section::diff`] walks into
/// [`FieldDiff`]s of one run, judging numeric cells by the gate's
/// tolerances.
///
/// [`Section::diff`]: aq_bench::report::Section::diff
struct Sink<'a> {
    run: &'a str,
    section: &'a str,
    tol: &'a Tolerances,
    out: Vec<FieldDiff>,
}

impl DiffSink for Sink<'_> {
    fn violates(&self, field: &str, slack: f64, baseline: f64, current: f64) -> bool {
        self.tol.violates_beyond(field, slack, baseline, current)
    }

    fn differs(&mut self, row: &str, field: &str, baseline: String, current: String) {
        self.out.push(FieldDiff {
            run: self.run.to_string(),
            section: self.section.to_string(),
            row: row.to_string(),
            field: field.to_string(),
            baseline,
            current,
        });
    }
}

/// Render field diffs as the drill-down's human-readable table.
pub fn render_field_diffs(diffs: &[FieldDiff]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} per-run field difference(s):", diffs.len());
    let _ = writeln!(
        out,
        "{:<52} {:<28} {:<14} {:<22} {:>16} {:>16}",
        "run", "section", "row", "field", "baseline", "current"
    );
    for d in diffs {
        let _ = writeln!(
            out,
            "{:<52} {:<28} {:<14} {:<22} {:>16} {:>16}",
            d.run, d.section, d.row, d.field, d.baseline, d.current
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_netsim::ids::{EntityId, FlowId, NodeId, PortId};
    use aq_netsim::stats::StatsHub;
    use aq_netsim::time::Time;

    /// A hub with one entity, one flow, one port — `delivered` scales the
    /// payload so reports built from different values genuinely differ.
    fn hub(delivered: u64, drops: u64) -> StatsHub {
        let mut h = StatsHub::new();
        h.on_delivery(Time::from_millis(2), EntityId(1), delivered, 500, 100);
        for _ in 0..drops {
            h.on_drop(EntityId(1));
        }
        h.register_flow(FlowId(1), EntityId(1), delivered, Time::ZERO);
        h.flow_completed(FlowId(1), Time::from_millis(2));
        h.on_port_enqueue(Time::from_millis(1), NodeId(0), PortId(4), 1000, 1000, 0);
        h.on_port_dequeue(Time::from_millis(2), NodeId(0), PortId(4), 1000, 0);
        h.on_port_tx(NodeId(0), PortId(4), 1000);
        h
    }

    fn report(delivered: u64, drops: u64) -> RunReport {
        let mut r = RunReport::new("unit");
        r.capture_hub("run", Time::from_millis(10), 42, &hub(delivered, drops));
        r
    }

    #[test]
    fn identical_reports_produce_no_field_diffs() {
        let a = report(3000, 0);
        assert!(diff_reports("r", &a, &a, &Tolerances::default()).is_empty());
    }

    #[test]
    fn a_moved_counter_is_named_with_its_row_and_field() {
        let base = report(3000, 0);
        let cur = report(30_000, 0);
        let diffs = diff_reports("r", &base, &cur, &Tolerances::default());
        assert!(
            diffs
                .iter()
                .any(|d| d.row == "entity 1" && d.field == "rx_bytes"),
            "10x rx_bytes must surface as entity 1 / rx_bytes, got: {diffs:?}"
        );
        assert!(
            diffs
                .iter()
                .any(|d| d.row == "entity 1" && d.field.starts_with("rate_series_bps[")),
            "the moved series bucket must be named, got: {diffs:?}"
        );
        let table = render_field_diffs(&diffs);
        assert!(table.contains("rx_bytes"));
        assert!(table.contains("entity 1"));
    }

    #[test]
    fn a_zero_to_one_drop_is_inside_the_slack_floor() {
        let base = report(3000, 0);
        let cur = report(3000, 1);
        let diffs = diff_reports("r", &base, &cur, &Tolerances::default());
        assert!(
            diffs.is_empty(),
            "one extra drop is noise under the 2-packet slack, got: {diffs:?}"
        );
        // Past the slack it is a real difference again.
        let worse = report(3000, 5);
        let diffs = diff_reports("r", &base, &worse, &Tolerances::default());
        assert!(diffs
            .iter()
            .any(|d| d.row == "entity 1" && d.field == "drops"));
    }

    #[test]
    fn a_missing_section_is_structural() {
        let base = report(3000, 0);
        let empty = RunReport::new("unit");
        let diffs = diff_reports("r", &base, &empty, &Tolerances::default());
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].field, "<section>");
        assert_eq!(diffs[0].current, "absent");
    }
}
