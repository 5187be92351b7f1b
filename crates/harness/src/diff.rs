//! The regression gate: structural + numeric comparison of two sweeps.
//!
//! `aq-sweep diff <baseline> <current>` loads both sweep directories,
//! checks that they describe the same configuration set and metric
//! surface, then compares every aggregate under per-metric **relative**
//! tolerances. Counting metrics with inherent seed-level jitter (drops,
//! events) get loose bounds; fairness and goodput get tight ones. Any
//! violation renders into a readable table and flips the exit code.

use crate::agg::{Aggregate, ConfigKey, Sweep};
use std::fmt::Write as _;

/// Per-metric relative tolerances, matched by metric-name prefix, plus an
/// absolute-slack floor for count metrics: a purely relative gate turns a
/// 0 → 1 taildrop in one seed into rel Δ = 1.0 and a false alarm, so small
/// integer metrics additionally pass whenever `|a − b|` is at or below the
/// metric's absolute slack, regardless of the ratio.
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// `(prefix, relative tolerance)` pairs, first match wins.
    by_prefix: Vec<(String, f64)>,
    /// Fallback when no prefix matches.
    default: f64,
    /// `(prefix, absolute slack)` pairs, first match wins; deltas with
    /// `|a − b| <= slack` never violate. Metrics without a matching prefix
    /// get zero slack (purely relative, as before).
    abs_slack: Vec<(String, f64)>,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            by_prefix: vec![
                // Drop counts are the most seed-sensitive observable.
                ("drops".to_string(), 0.25),
                // Event counts shift with retransmission schedules.
                ("events".to_string(), 0.05),
                ("jain".to_string(), 0.05),
                ("completion".to_string(), 0.05),
                ("goodput".to_string(), 0.05),
                ("flows_completed".to_string(), 0.02),
            ],
            default: 0.02,
            // Count metrics whose near-zero values make relative deltas
            // meaningless: a couple of packets either way is noise. (The
            // per-run report columns declare their own slack, next to the
            // column, in `aq_bench::report`.)
            abs_slack: vec![
                ("drops".to_string(), 2.0),
                ("flows_completed".to_string(), 1.0),
            ],
        }
    }
}

impl Tolerances {
    /// The relative tolerance applied to `metric`.
    fn for_metric(&self, metric: &str) -> f64 {
        self.by_prefix
            .iter()
            .find(|(prefix, _)| metric.starts_with(prefix.as_str()))
            .map(|(_, tol)| *tol)
            .unwrap_or(self.default)
    }

    /// The absolute slack applied to `metric` (0 when no prefix matches).
    fn slack_for_metric(&self, metric: &str) -> f64 {
        self.abs_slack
            .iter()
            .find(|(prefix, _)| metric.starts_with(prefix.as_str()))
            .map(|(_, slack)| *slack)
            .unwrap_or(0.0)
    }

    /// Whether `baseline → current` violates this metric's tolerance:
    /// the relative delta must exceed the budget AND the absolute delta
    /// must exceed the metric's slack floor.
    pub fn violates(&self, metric: &str, baseline: f64, current: f64) -> bool {
        self.violates_beyond(metric, 0.0, baseline, current)
    }

    /// [`violates`](Tolerances::violates) for an observable that declares
    /// an absolute slack of its own (report columns do): the larger of the
    /// declared and the by-prefix slack applies.
    pub(crate) fn violates_beyond(
        &self,
        metric: &str,
        slack: f64,
        baseline: f64,
        current: f64,
    ) -> bool {
        rel_delta(baseline, current) > self.for_metric(metric)
            && (baseline - current).abs() > slack.max(self.slack_for_metric(metric))
    }
}

/// Relative distance between two observations; 0 when both are ~zero.
fn rel_delta(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom < 1e-9 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

/// One gate violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which config (empty params/approach for structural violations).
    pub config: ConfigKey,
    /// Which metric (or a structural description).
    pub metric: String,
    /// Human-readable explanation with both values.
    pub detail: String,
}

/// Compare `current` against `baseline`. Returns every violation, most
/// fundamental (structural) first.
pub fn diff_sweeps(baseline: &Sweep, current: &Sweep, tol: &Tolerances) -> Vec<Violation> {
    let mut violations = Vec::new();
    let structural = |config: &ConfigKey, what: String| Violation {
        config: config.clone(),
        metric: "<structure>".to_string(),
        detail: what,
    };
    // A failed run in the current sweep is always a gate failure, whatever
    // the aggregates look like without it.
    for (key, error) in &current.failures {
        violations.push(Violation {
            config: ConfigKey::of(key),
            metric: "<failure>".to_string(),
            detail: format!("run seed={} failed: {error}", key.seed),
        });
    }
    for config in baseline.configs.keys() {
        if !current.configs.contains_key(config) {
            violations.push(structural(
                config,
                "config missing from current sweep".into(),
            ));
        }
    }
    for config in current.configs.keys() {
        if !baseline.configs.contains_key(config) {
            violations.push(structural(config, "config absent from baseline".into()));
        }
    }
    for (config, base_metrics) in &baseline.configs {
        let Some(cur_metrics) = current.configs.get(config) else {
            continue;
        };
        for (metric, base) in base_metrics {
            let Some(cur) = cur_metrics.get(metric) else {
                violations.push(Violation {
                    config: config.clone(),
                    metric: metric.clone(),
                    detail: "metric missing from current sweep".to_string(),
                });
                continue;
            };
            violations.extend(compare_aggregate(config, metric, base, cur, tol));
        }
        for metric in cur_metrics.keys() {
            if !base_metrics.contains_key(metric) {
                violations.push(Violation {
                    config: config.clone(),
                    metric: metric.clone(),
                    detail: "metric absent from baseline".to_string(),
                });
            }
        }
    }
    violations
}

fn compare_aggregate(
    config: &ConfigKey,
    metric: &str,
    base: &Aggregate,
    cur: &Aggregate,
    tol: &Tolerances,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if base.n != cur.n {
        out.push(Violation {
            config: config.clone(),
            metric: metric.to_string(),
            detail: format!(
                "seed count changed: baseline n={}, current n={}",
                base.n, cur.n
            ),
        });
    }
    let allowed = tol.for_metric(metric);
    let slack = tol.slack_for_metric(metric);
    for (field, b, c) in [
        ("mean", base.mean, cur.mean),
        ("min", base.min, cur.min),
        ("max", base.max, cur.max),
    ] {
        if tol.violates(metric, b, c) {
            out.push(Violation {
                config: config.clone(),
                metric: metric.to_string(),
                detail: format!(
                    "{field}: baseline {b:.6}, current {c:.6} (rel Δ {:.4} > tol {:.4}, abs Δ {:.4} > slack {:.4})",
                    rel_delta(b, c),
                    allowed,
                    (b - c).abs(),
                    slack
                ),
            });
        }
    }
    out
}

/// Render violations as the gate's human-readable table.
pub fn render_violations(violations: &[Violation]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} violation(s):", violations.len());
    let _ = writeln!(out, "{:<60} {:<24} detail", "config", "metric");
    for v in violations {
        let config = format!(
            "{}/{}/{}",
            v.config.scenario, v.config.approach, v.config.params
        );
        let _ = writeln!(out, "{:<60} {:<24} {}", config, v.metric, v.detail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::RunKey;
    use std::collections::BTreeMap;

    fn sweep_with(jain: f64, drops: f64) -> Sweep {
        let mut runs = BTreeMap::new();
        for seed in [1u64, 2] {
            let key = RunKey {
                scenario: "s".to_string(),
                approach: "aq".to_string(),
                params: "x=1".to_string(),
                seed,
            };
            let mut m = BTreeMap::new();
            m.insert("jain_goodput".to_string(), jain);
            m.insert("drops_e1".to_string(), drops);
            runs.insert(key, m);
        }
        Sweep::from_runs("unit", runs)
    }

    #[test]
    fn identical_sweeps_pass() {
        let a = sweep_with(0.95, 100.0);
        assert!(diff_sweeps(&a, &a, &Tolerances::default()).is_empty());
    }

    #[test]
    fn loose_metrics_absorb_jitter_that_tight_metrics_flag() {
        let base = sweep_with(0.95, 100.0);
        // 20% drop delta is inside drops' 25% budget; jain is untouched.
        let ok = sweep_with(0.95, 120.0);
        assert!(diff_sweeps(&base, &ok, &Tolerances::default()).is_empty());
        // A 20% jain delta blows the 5% budget on mean/min/max.
        let bad = sweep_with(0.76, 100.0);
        let violations = diff_sweeps(&base, &bad, &Tolerances::default());
        assert_eq!(violations.len(), 3);
        assert!(violations.iter().all(|v| v.metric == "jain_goodput"));
        let table = render_violations(&violations);
        assert!(table.contains("jain_goodput"));
        assert!(table.contains("3 violation(s)"));
    }

    #[test]
    fn structural_drift_is_reported() {
        let base = sweep_with(0.95, 100.0);
        let mut cur = base.clone();
        let config = base.configs.keys().next().expect("one config").clone();
        cur.configs
            .get_mut(&config)
            .expect("config")
            .remove("jain_goodput");
        let violations = diff_sweeps(&base, &cur, &Tolerances::default());
        assert!(violations
            .iter()
            .any(|v| v.detail.contains("missing from current")));
    }

    #[test]
    fn rel_delta_handles_zeros() {
        assert!(rel_delta(0.0, 0.0).abs() < 1e-12);
        assert!((rel_delta(0.0, 2.0) - 1.0).abs() < 1e-12);
        assert!((rel_delta(100.0, 110.0) - 10.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn absolute_slack_floors_near_zero_count_metrics() {
        let tol = Tolerances::default();
        // 0 ↔ 0: never a violation.
        assert!(!tol.violates("drops_e1", 0.0, 0.0));
        // 0 → 1 drop: rel Δ = 1.0 blows the 25% budget, but the absolute
        // delta is within the 2-packet slack — the gate must stay quiet.
        assert!(!tol.violates("drops_e1", 0.0, 1.0));
        // A report column brings its slack with it.
        assert!(!tol.violates_beyond("taildrops", 2.0, 1.0, 0.0));
        assert!(!tol.violates_beyond("ecn_marks", 2.0, 2.0, 0.0));
        assert!(tol.violates_beyond("ecn_marks", 2.0, 3.0, 0.0));
        assert!(!tol.violates("flows_completed_total", 8.0, 9.0));
        // Just past the slack AND past the relative budget: violation.
        assert!(tol.violates("drops_e1", 0.0, 3.0));
        // Large counts: slack is negligible, the relative budget governs.
        assert!(!tol.violates("drops_e1", 1000.0, 1200.0)); // 20% < 25%
        assert!(tol.violates("drops_e1", 1000.0, 1500.0)); // 33% > 25%
                                                           // Metrics with no slack prefix remain purely relative.
        assert!(tol.violates("jain_goodput", 0.0, 0.1));
        assert_eq!(tol.slack_for_metric("jain_goodput"), 0.0);
    }

    #[test]
    fn zero_to_one_drop_passes_the_full_diff() {
        let base = sweep_with(0.95, 0.0);
        let cur = sweep_with(0.95, 1.0);
        assert!(
            diff_sweeps(&base, &cur, &Tolerances::default()).is_empty(),
            "a single extra drop must not fail the gate"
        );
    }
}
