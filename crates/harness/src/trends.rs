//! Qualitative trend assertions over a sweep.
//!
//! EXPERIMENTS.md records the paper's *shape* expectations (AQ fair where
//! PQ is not, AQ completion flat as scale grows). The numeric diff gate
//! only catches drift against a baseline; these rules catch a sweep whose
//! numbers are self-consistent but *qualitatively wrong* — e.g. AQ losing
//! fairness to FIFO. `aq-sweep check` (and `run`) evaluates every rule
//! whose scenario appears in the sweep; rules for absent scenarios are
//! skipped, not failed.

use crate::agg::{ConfigKey, Sweep};
use std::collections::BTreeMap;

/// One qualitative expectation.
#[derive(Debug, Clone)]
pub enum TrendRule {
    /// At every shared params point of `scenario`, metric under approach
    /// `better` must be ≥ the same metric under `worse` minus `slack`.
    NotWorseThan {
        /// Scenario name.
        scenario: &'static str,
        /// Aggregated metric (compared on ensemble means).
        metric: &'static str,
        /// Approach expected to dominate.
        better: &'static str,
        /// Approach providing the floor.
        worse: &'static str,
        /// Additive slack.
        slack: f64,
    },
    /// At every shared params point of `scenario`, metric under approach
    /// `faster` must be ≤ `slower`'s value times `factor`.
    AtMostFactorOf {
        /// Scenario name.
        scenario: &'static str,
        /// Aggregated metric (compared on ensemble means).
        metric: &'static str,
        /// Approach expected to stay fast.
        faster: &'static str,
        /// Approach providing the ceiling.
        slower: &'static str,
        /// Multiplicative headroom.
        factor: f64,
    },
    /// Across all params points of `scenario` under one approach, the
    /// metric must stay flat: relative spread `(max−min)/max ≤ spread`.
    FlatAcrossParams {
        /// Scenario name.
        scenario: &'static str,
        /// Aggregated metric (compared on ensemble means).
        metric: &'static str,
        /// Approach under test.
        approach: &'static str,
        /// Allowed relative spread.
        spread: f64,
    },
    /// At every params point of `scenario` under `approach`, the metric's
    /// ensemble mean must be at least `floor` (absolute bound — used where
    /// no second approach provides a reference, e.g. recovery ratios).
    AtLeast {
        /// Scenario name.
        scenario: &'static str,
        /// Aggregated metric (checked on ensemble means).
        metric: &'static str,
        /// Approach under test.
        approach: &'static str,
        /// Smallest acceptable mean.
        floor: f64,
    },
    /// At every params point of `scenario` under `approach`, the metric's
    /// ensemble mean must be at most `ceiling` (absolute bound).
    AtMost {
        /// Scenario name.
        scenario: &'static str,
        /// Aggregated metric (checked on ensemble means).
        metric: &'static str,
        /// Approach under test.
        approach: &'static str,
        /// Largest acceptable mean.
        ceiling: f64,
    },
}

impl TrendRule {
    /// The scenario this rule watches. The static analyzer's
    /// `registry-coverage` rule cross-checks these names against
    /// `aq_workloads::registry` at lint time; this accessor is the
    /// runtime counterpart used by the coverage test below.
    pub fn scenario(&self) -> &'static str {
        match self {
            TrendRule::NotWorseThan { scenario, .. }
            | TrendRule::AtMostFactorOf { scenario, .. }
            | TrendRule::FlatAcrossParams { scenario, .. }
            | TrendRule::AtLeast { scenario, .. }
            | TrendRule::AtMost { scenario, .. } => scenario,
        }
    }
}

/// The distinct scenarios watched by a rule set, sorted.
pub fn covered_scenarios(rules: &[TrendRule]) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = rules.iter().map(TrendRule::scenario).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The repo's standing expectations, derived from EXPERIMENTS.md.
///
/// * Fig. 8 shape: flow-count unfairness — AQ restores entity fairness
///   that FIFO (PQ) loses, and entity 1's goodput under AQ does not decay
///   as entity 2 adds flows.
/// * Fig. 9 shape: UDP/TCP sharing — AQ keeps the TCP entity alive where
///   PQ lets UDP take the link.
/// * Fig. 6/10 shape: AQ completes about as fast as the raw network and
///   completion stays flat as VM count grows.
pub const DEFAULT_RULES: &[TrendRule] = &[
    TrendRule::NotWorseThan {
        scenario: "fairness_flows",
        metric: "jain_goodput",
        better: "aq",
        worse: "pq",
        slack: 0.05,
    },
    TrendRule::FlatAcrossParams {
        scenario: "fairness_flows",
        metric: "goodput_e1_gbps",
        approach: "aq",
        spread: 0.20,
    },
    TrendRule::NotWorseThan {
        scenario: "udp_tcp_share",
        metric: "jain_goodput",
        better: "aq",
        worse: "pq",
        slack: 0.05,
    },
    TrendRule::AtMostFactorOf {
        scenario: "completion_vms",
        metric: "completion_max_s",
        faster: "aq",
        slower: "pq",
        factor: 1.25,
    },
    TrendRule::FlatAcrossParams {
        scenario: "completion_vms",
        metric: "completion_max_s",
        approach: "aq",
        spread: 0.30,
    },
    // Fig. 10 shape: mixed-CC sharing — AQ isolates entities running
    // different CC algorithms where a shared FIFO lets the more
    // aggressive one win.
    TrendRule::NotWorseThan {
        scenario: "cc_mix",
        metric: "jain_goodput",
        better: "aq",
        worse: "pq",
        slack: 0.05,
    },
    TrendRule::AtMostFactorOf {
        scenario: "cc_mix",
        metric: "completion_max_s",
        faster: "aq",
        slower: "pq",
        factor: 1.30,
    },
    // Inter-pod fat tree: AQ's per-entity fairness must survive ECMP and
    // multi-hop core paths, not just the single dumbbell bottleneck.
    TrendRule::NotWorseThan {
        scenario: "interpod_fattree",
        metric: "jain_goodput",
        better: "aq",
        worse: "pq",
        slack: 0.05,
    },
    // Fault robustness: once a link-flap train clears, goodput must
    // recover to near its pre-fault level (the RTO backoff machinery must
    // not strand senders), and full-run fairness must survive the outage.
    TrendRule::AtLeast {
        scenario: "linkflap_dumbbell",
        metric: "postfault_goodput_ratio",
        approach: "aq",
        floor: 0.6,
    },
    TrendRule::AtLeast {
        scenario: "linkflap_dumbbell",
        metric: "jain_goodput",
        approach: "aq",
        floor: 0.8,
    },
    // AQ state loss: a wiped AQ table must re-converge from subsequent
    // arrivals within a bounded window, and the wipe must not depress
    // post-wipe goodput.
    TrendRule::AtMost {
        scenario: "aq_state_loss",
        metric: "reconverge_ms_max",
        approach: "aq",
        ceiling: 20.0,
    },
    TrendRule::AtLeast {
        scenario: "aq_state_loss",
        metric: "postfault_goodput_ratio",
        approach: "aq",
        floor: 0.6,
    },
    // Shared-buffer incast: AQ must keep two equal entities fair through
    // a small admission-controlled pool, and the pool occupancy peak must
    // never exceed the default 150 KB capacity (the hard cap the
    // SharedBufferPool enforces before any policy runs).
    TrendRule::AtLeast {
        scenario: "incast_sharedbuf",
        metric: "jain_goodput",
        approach: "aq",
        floor: 0.8,
    },
    TrendRule::AtMost {
        scenario: "incast_sharedbuf",
        metric: "pool_peak_bytes",
        approach: "pq",
        ceiling: 150_000.0,
    },
    // AQM zoo: whatever physical AQM the switch egress runs, AQ's virtual
    // ECN must keep the two DCTCP entities fair, and the DT-guarded pool
    // stays within capacity.
    TrendRule::AtLeast {
        scenario: "websearch_aqm_zoo",
        metric: "jain_goodput",
        approach: "aq",
        floor: 0.7,
    },
    TrendRule::AtMost {
        scenario: "websearch_aqm_zoo",
        metric: "pool_peak_bytes",
        approach: "pq",
        ceiling: 150_000.0,
    },
    // Tenant churn against a register budget: control-plane create/
    // destroy pressure must never park a grant that carries real traffic
    // (the churned tenant slots are the ones that overflow), flows keep
    // completing through the mid-churn wipe, and fairness among the
    // grant-holding entities stays in the demand-limited band (the
    // entities run at load 0.25, so Jain here reflects workload skew,
    // not allocation error — the floor guards against collapse, not
    // jitter). Gap re-convergence is gated by `aq_state_loss`, whose
    // traffic persists past the wipe; tenant_churn's light load can
    // legitimately drain right after it.
    TrendRule::AtLeast {
        scenario: "tenant_churn",
        metric: "jain_goodput",
        approach: "aq",
        floor: 0.6,
    },
    TrendRule::AtMost {
        scenario: "tenant_churn",
        metric: "degraded_flows_total",
        approach: "aq",
        ceiling: 0.0,
    },
    TrendRule::AtLeast {
        scenario: "tenant_churn",
        metric: "completion_frac",
        approach: "aq",
        floor: 0.5,
    },
];

/// Mean of `metric` for `(scenario, approach, params)`, if aggregated.
fn mean_of(
    sweep: &Sweep,
    scenario: &str,
    approach: &str,
    params: &str,
    metric: &str,
) -> Option<f64> {
    let key = ConfigKey {
        scenario: scenario.to_string(),
        approach: approach.to_string(),
        params: params.to_string(),
    };
    sweep.configs.get(&key)?.get(metric).map(|a| a.mean)
}

/// All params points of `scenario` present under `approach`.
fn params_points<'a>(sweep: &'a Sweep, scenario: &str, approach: &str) -> Vec<&'a str> {
    sweep
        .configs
        .keys()
        .filter(|c| c.scenario == scenario && c.approach == approach)
        .map(|c| c.params.as_str())
        .collect()
}

/// Evaluate `rules` against a sweep; returns human-readable failures.
/// Rules whose scenario/approach pair is absent from the sweep are
/// skipped — a smoke sweep need not cover every scenario.
pub fn check_trends(sweep: &Sweep, rules: &[TrendRule]) -> Vec<String> {
    let mut failures = Vec::new();
    for rule in rules {
        match rule {
            TrendRule::NotWorseThan {
                scenario,
                metric,
                better,
                worse,
                slack,
            } => {
                for params in params_points(sweep, scenario, better) {
                    let (Some(b), Some(w)) = (
                        mean_of(sweep, scenario, better, params, metric),
                        mean_of(sweep, scenario, worse, params, metric),
                    ) else {
                        continue;
                    };
                    if b < w - slack {
                        failures.push(format!(
                            "{scenario}/{{{params}}}: {metric} under {better} ({b:.4}) \
                             below {worse} ({w:.4}) beyond slack {slack:.2}"
                        ));
                    }
                }
            }
            TrendRule::AtMostFactorOf {
                scenario,
                metric,
                faster,
                slower,
                factor,
            } => {
                for params in params_points(sweep, scenario, faster) {
                    let (Some(f), Some(s)) = (
                        mean_of(sweep, scenario, faster, params, metric),
                        mean_of(sweep, scenario, slower, params, metric),
                    ) else {
                        continue;
                    };
                    if f > s * factor {
                        failures.push(format!(
                            "{scenario}/{{{params}}}: {metric} under {faster} ({f:.4}) \
                             exceeds {factor:.2}x {slower} ({s:.4})"
                        ));
                    }
                }
            }
            TrendRule::AtLeast {
                scenario,
                metric,
                approach,
                floor,
            } => {
                for params in params_points(sweep, scenario, approach) {
                    if let Some(v) = mean_of(sweep, scenario, approach, params, metric) {
                        if v < *floor {
                            failures.push(format!(
                                "{scenario}/{{{params}}}: {metric} under {approach} \
                                 ({v:.4}) below floor {floor:.2}"
                            ));
                        }
                    }
                }
            }
            TrendRule::AtMost {
                scenario,
                metric,
                approach,
                ceiling,
            } => {
                for params in params_points(sweep, scenario, approach) {
                    if let Some(v) = mean_of(sweep, scenario, approach, params, metric) {
                        if v > *ceiling {
                            failures.push(format!(
                                "{scenario}/{{{params}}}: {metric} under {approach} \
                                 ({v:.4}) exceeds ceiling {ceiling:.2}"
                            ));
                        }
                    }
                }
            }
            TrendRule::FlatAcrossParams {
                scenario,
                metric,
                approach,
                spread,
            } => {
                let mut values: BTreeMap<&str, f64> = BTreeMap::new();
                for params in params_points(sweep, scenario, approach) {
                    if let Some(v) = mean_of(sweep, scenario, approach, params, metric) {
                        values.insert(params, v);
                    }
                }
                if values.len() < 2 {
                    continue;
                }
                let max = values.values().cloned().fold(f64::NEG_INFINITY, f64::max);
                let min = values.values().cloned().fold(f64::INFINITY, f64::min);
                if max > 0.0 && (max - min) / max > *spread {
                    failures.push(format!(
                        "{scenario}: {metric} under {approach} not flat across params \
                         (min {min:.4}, max {max:.4}, spread {:.3} > {spread:.2})",
                        (max - min) / max
                    ));
                }
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::RunKey;

    fn sweep_of(points: &[(&str, &str, &str, &str, f64)]) -> Sweep {
        let mut runs = std::collections::BTreeMap::new();
        for (scenario, approach, params, metric, value) in points {
            let key = RunKey {
                scenario: scenario.to_string(),
                approach: approach.to_string(),
                params: params.to_string(),
                seed: 1,
            };
            let entry: &mut std::collections::BTreeMap<String, f64> = runs.entry(key).or_default();
            entry.insert(metric.to_string(), *value);
        }
        Sweep::from_runs("unit", runs)
    }

    #[test]
    fn fair_aq_passes_and_unfair_aq_fails() {
        let good = sweep_of(&[
            ("fairness_flows", "aq", "b_flows=4", "jain_goodput", 0.99),
            ("fairness_flows", "pq", "b_flows=4", "jain_goodput", 0.60),
        ]);
        assert!(check_trends(&good, DEFAULT_RULES).is_empty());
        let bad = sweep_of(&[
            ("fairness_flows", "aq", "b_flows=4", "jain_goodput", 0.50),
            ("fairness_flows", "pq", "b_flows=4", "jain_goodput", 0.90),
        ]);
        let failures = check_trends(&bad, DEFAULT_RULES);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("jain_goodput"));
    }

    #[test]
    fn flatness_rule_fires_on_decay() {
        let decaying = sweep_of(&[
            ("fairness_flows", "aq", "b_flows=1", "goodput_e1_gbps", 5.0),
            ("fairness_flows", "aq", "b_flows=8", "goodput_e1_gbps", 1.0),
        ]);
        let failures = check_trends(&decaying, DEFAULT_RULES);
        assert!(failures.iter().any(|f| f.contains("not flat")));
    }

    #[test]
    fn rules_for_absent_scenarios_are_skipped() {
        let unrelated = sweep_of(&[("udp_tcp_share", "aq", "h=1", "jain_goodput", 0.99)]);
        assert!(check_trends(&unrelated, DEFAULT_RULES).is_empty());
    }

    #[test]
    fn absolute_floor_and_ceiling_rules_fire_on_fault_scenarios() {
        let good = sweep_of(&[
            (
                "linkflap_dumbbell",
                "aq",
                "flaps=2",
                "postfault_goodput_ratio",
                0.95,
            ),
            ("linkflap_dumbbell", "aq", "flaps=2", "jain_goodput", 0.97),
            (
                "aq_state_loss",
                "aq",
                "wipe_at_ms=10",
                "reconverge_ms_max",
                3.0,
            ),
            (
                "aq_state_loss",
                "aq",
                "wipe_at_ms=10",
                "postfault_goodput_ratio",
                1.02,
            ),
        ]);
        assert!(check_trends(&good, DEFAULT_RULES).is_empty());

        let bad = sweep_of(&[
            (
                "linkflap_dumbbell",
                "aq",
                "flaps=2",
                "postfault_goodput_ratio",
                0.2,
            ),
            (
                "aq_state_loss",
                "aq",
                "wipe_at_ms=10",
                "reconverge_ms_max",
                500.0,
            ),
        ]);
        let failures = check_trends(&bad, DEFAULT_RULES);
        assert!(
            failures.iter().any(|f| f.contains("below floor")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("exceeds ceiling")),
            "{failures:?}"
        );
    }

    #[test]
    fn completion_factor_rule_fires() {
        let slow_aq = sweep_of(&[
            ("completion_vms", "aq", "vms=2", "completion_max_s", 2.0),
            ("completion_vms", "pq", "vms=2", "completion_max_s", 1.0),
        ]);
        let failures = check_trends(&slow_aq, DEFAULT_RULES);
        assert!(failures.iter().any(|f| f.contains("exceeds")));
    }

    #[test]
    fn default_rules_cover_every_registered_scenario() {
        // Every scenario in the registry must be watched by at least one
        // default trend rule and appear in a committed baseline sweep —
        // otherwise it is invisible to the sweep regression gate — and no
        // rule may dangle on an unregistered scenario name.
        let expected =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/expected");
        let mut in_baselines = std::collections::BTreeSet::new();
        for entry in std::fs::read_dir(&expected).expect("baselines/expected exists") {
            let dir = entry.expect("readable baselines/expected entry").path();
            let sweep = Sweep::load_dir(&dir).expect("committed baseline sweep loads");
            in_baselines.extend(sweep.runs.into_keys().map(|k| k.scenario));
        }
        let covered = covered_scenarios(DEFAULT_RULES);
        for def in aq_workloads::registry::registry() {
            assert!(
                covered.contains(&def.name),
                "scenario `{}` has no trend rule in DEFAULT_RULES",
                def.name
            );
            assert!(
                in_baselines.contains(def.name),
                "scenario `{}` has no committed baseline sweep under baselines/expected/",
                def.name
            );
        }
        for scenario in covered {
            assert!(
                aq_workloads::registry::find(scenario).is_some(),
                "trend rule names unregistered scenario `{scenario}`"
            );
        }
    }
}
