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
    /// The scenario this rule watches (the coverage test below checks
    /// these names against `aq_workloads::registry`).
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
    // The paper's evaluation (`--spec paper`; EXPERIMENTS.md has the
    // measured-vs-paper tables). Each artifact gets the paper's claim about
    // AQ and, where the paper says a baseline fails, a rule pinning that
    // failure — so a change that quietly "fixes" PQ or PRL is caught too.
    // `jain_goodput` is over weight-normalised goodputs.
    //
    // Fig. 1: CC classes sharing one physical queue interfere (the loser of
    // each pair is starved); two drop-based algorithms do not.
    TrendRule::AtMost {
        scenario: "fig01_cc_interference",
        metric: "jain_goodput",
        approach: "pq",
        ceiling: 0.92,
    },
    TrendRule::AtLeast {
        scenario: "fig01_same_class",
        metric: "jain_goodput",
        approach: "pq",
        floor: 0.95,
    },
    // Table 2: under AQ every entity holds its weight's share whatever the
    // CC mix, UDP included; under PQ every mix is won by one entity. With a
    // single CC algorithm PQ shares evenly too.
    TrendRule::AtLeast {
        scenario: "table2_cc_sharing",
        metric: "jain_goodput",
        approach: "aq",
        floor: 0.98,
    },
    TrendRule::AtMost {
        scenario: "table2_cc_sharing",
        metric: "jain_goodput",
        approach: "pq",
        ceiling: 0.6,
    },
    TrendRule::AtLeast {
        scenario: "table2_same_cc",
        metric: "jain_goodput",
        approach: "aq",
        floor: 0.98,
    },
    TrendRule::AtLeast {
        scenario: "table2_same_cc",
        metric: "jain_goodput",
        approach: "pq",
        floor: 0.95,
    },
    // Fig. 6: AQ completes as fast as the raw network at every VM count;
    // the fixed (PRL) and lagging (DRL) per-VM splits are slower as soon as
    // there is a split — and not before.
    TrendRule::AtMostFactorOf {
        scenario: "fig06_completion_vs_vms",
        metric: "completion_max_s",
        faster: "aq",
        slower: "pq",
        factor: 1.05,
    },
    TrendRule::FlatAcrossParams {
        scenario: "fig06_completion_vs_vms",
        metric: "completion_max_s",
        approach: "aq",
        spread: 0.15,
    },
    TrendRule::AtMostFactorOf {
        scenario: "fig06_completion_vs_vms",
        metric: "completion_max_s",
        faster: "pq",
        slower: "prl",
        factor: 0.75,
    },
    TrendRule::AtMostFactorOf {
        scenario: "fig06_completion_vs_vms",
        metric: "completion_max_s",
        faster: "pq",
        slower: "drl",
        factor: 0.8,
    },
    TrendRule::AtMostFactorOf {
        scenario: "fig06_one_vm",
        metric: "completion_max_s",
        faster: "aq",
        slower: "pq",
        factor: 1.05,
    },
    TrendRule::AtMostFactorOf {
        scenario: "fig06_one_vm",
        metric: "completion_max_s",
        faster: "prl",
        slower: "pq",
        factor: 1.15,
    },
    TrendRule::AtMostFactorOf {
        scenario: "fig06_one_vm",
        metric: "completion_max_s",
        faster: "drl",
        slower: "pq",
        factor: 1.25,
    },
    // Fig. 7: under AQ two equal-weight entities finish together however
    // many VMs entity B has, and no baseline is fairer.
    TrendRule::AtLeast {
        scenario: "fig07_entity_fairness",
        metric: "completion_ratio",
        approach: "aq",
        floor: 0.9,
    },
    TrendRule::NotWorseThan {
        scenario: "fig07_entity_fairness",
        metric: "completion_ratio",
        better: "aq",
        worse: "pq",
        slack: 0.0,
    },
    TrendRule::NotWorseThan {
        scenario: "fig07_entity_fairness",
        metric: "completion_ratio",
        better: "aq",
        worse: "prl",
        slack: 0.05,
    },
    TrendRule::NotWorseThan {
        scenario: "fig07_entity_fairness",
        metric: "completion_ratio",
        better: "aq",
        worse: "drl",
        slack: 0.05,
    },
    // Fig. 8: AQ splits by weight (1:1 and 1:2) whatever the flow counts;
    // PQ splits by flow count, so entity A starves.
    TrendRule::AtLeast {
        scenario: "fig08_flow_count_isolation",
        metric: "jain_goodput",
        approach: "aq",
        floor: 0.98,
    },
    TrendRule::AtMost {
        scenario: "fig08_flow_count_isolation",
        metric: "jain_goodput",
        approach: "pq",
        ceiling: 0.7,
    },
    TrendRule::AtLeast {
        scenario: "fig08_equal_flows",
        metric: "jain_goodput",
        approach: "aq",
        floor: 0.98,
    },
    // Fig. 9: under AQ every entity that has joined holds 1/n of the link
    // in every phase, the UDP blast included; under PQ the UDP entity (e3)
    // holds >= 85 % of the link once it joins and the first TCP entity is
    // starved.
    TrendRule::AtMost {
        scenario: "fig09_udp_tcp",
        metric: "phase_share_err_max",
        approach: "aq",
        ceiling: 0.05,
    },
    TrendRule::AtLeast {
        scenario: "fig09_udp_tcp",
        metric: "goodput_p4_e3_gbps",
        approach: "pq",
        floor: 8.0,
    },
    TrendRule::AtMost {
        scenario: "fig09_udp_tcp",
        metric: "goodput_p4_e1_gbps",
        approach: "pq",
        ceiling: 1.0,
    },
    // Fig. 10: (a) mixed-CC entities finish together under AQ, not under
    // PQ; (b) AQ takes about as long as PQ in total, PRL and DRL
    // significantly longer.
    TrendRule::AtLeast {
        scenario: "fig10_cc_fairness",
        metric: "completion_ratio",
        approach: "aq",
        floor: 0.9,
    },
    TrendRule::AtMost {
        scenario: "fig10_cc_fairness",
        metric: "completion_ratio",
        approach: "pq",
        ceiling: 0.7,
    },
    TrendRule::AtMostFactorOf {
        scenario: "fig10_cc_fairness",
        metric: "completion_max_s",
        faster: "aq",
        slower: "pq",
        factor: 1.1,
    },
    TrendRule::AtMostFactorOf {
        scenario: "fig10_cc_fairness",
        metric: "completion_max_s",
        faster: "pq",
        slower: "prl",
        factor: 0.6,
    },
    TrendRule::AtMostFactorOf {
        scenario: "fig10_cc_fairness",
        metric: "completion_max_s",
        faster: "pq",
        slower: "drl",
        factor: 0.8,
    },
    // Table 3 (5 Gbit/s in / 5 Gbit/s out on a 25 Gbit/s star; goodput is
    // payload, so 5.0 on the wire reads ~4.7): AQ holds VM A's outbound
    // (e1) and inbound (e2) at the profile; PQ limits neither; PRL holds
    // outbound but lets the three senders overrun inbound; DRL stays
    // within the profile in both directions and undershoots.
    TrendRule::AtLeast {
        scenario: "table3_vm_profile",
        metric: "goodput_e1_gbps",
        approach: "aq",
        floor: 4.4,
    },
    TrendRule::AtMost {
        scenario: "table3_vm_profile",
        metric: "goodput_e1_gbps",
        approach: "aq",
        ceiling: 5.0,
    },
    TrendRule::AtLeast {
        scenario: "table3_vm_profile",
        metric: "goodput_e1_gbps",
        approach: "pq",
        floor: 15.0,
    },
    TrendRule::AtMost {
        scenario: "table3_vm_profile",
        metric: "goodput_e1_gbps",
        approach: "drl",
        ceiling: 5.0,
    },
    TrendRule::AtLeast {
        scenario: "table3_vm_profile",
        metric: "goodput_e2_gbps",
        approach: "aq",
        floor: 4.4,
    },
    TrendRule::AtMost {
        scenario: "table3_vm_profile",
        metric: "goodput_e2_gbps",
        approach: "aq",
        ceiling: 5.0,
    },
    TrendRule::AtLeast {
        scenario: "table3_vm_profile",
        metric: "goodput_e2_gbps",
        approach: "pq",
        floor: 15.0,
    },
    TrendRule::AtMost {
        scenario: "table3_vm_profile",
        metric: "goodput_e2_gbps",
        approach: "drl",
        ceiling: 5.0,
    },
    TrendRule::AtMost {
        scenario: "table3_vm_profile",
        metric: "goodput_e1_gbps",
        approach: "prl",
        ceiling: 5.0,
    },
    TrendRule::AtLeast {
        scenario: "table3_vm_profile",
        metric: "goodput_e2_gbps",
        approach: "prl",
        floor: 10.0,
    },
    // Table 4: a 25 Gbit/s AQ of a 100 Gbit/s core behaves like a physical
    // 25 Gbit/s core to each CC algorithm — same throughput, and a virtual
    // queuing delay that tracks the physical one (deep for drop-based CC,
    // shallow for DCTCP) — in both directions.
    TrendRule::AtMostFactorOf {
        scenario: "table4_cc_behavior",
        metric: "goodput_e1_gbps",
        faster: "pq",
        slower: "aq",
        factor: 1.15,
    },
    TrendRule::AtMostFactorOf {
        scenario: "table4_cc_behavior",
        metric: "goodput_e1_gbps",
        faster: "aq",
        slower: "pq",
        factor: 1.15,
    },
    TrendRule::AtMostFactorOf {
        scenario: "table4_cc_behavior",
        metric: "cc_qdelay_p99_us_e1",
        faster: "pq",
        slower: "aq",
        factor: 2.0,
    },
    TrendRule::AtMostFactorOf {
        scenario: "table4_cc_behavior",
        metric: "cc_qdelay_p99_us_e1",
        faster: "aq",
        slower: "pq",
        factor: 2.0,
    },
    // §6 AQ limits: a 100 Mbit/s entity reaches its allocation (0.094
    // payload) with the physical queue's limit or a floored proportional
    // one, and is kept from it by excess drops without the floor.
    TrendRule::AtLeast {
        scenario: "ablation_limit_policy",
        metric: "goodput_e1_gbps",
        approach: "aq",
        floor: 0.085,
    },
    TrendRule::AtMost {
        scenario: "ablation_limit_nofloor",
        metric: "goodput_e1_gbps",
        approach: "aq",
        ceiling: 0.06,
    },
    // §6 work conservation: while entity B idles (phase 0) strict AQs pin
    // entity A at its half, both mechanisms hand it the link; once B
    // starts (phase 1) it gets going under all three.
    TrendRule::AtMost {
        scenario: "ablation_wc_strict",
        metric: "goodput_p0_e1_gbps",
        approach: "aq",
        ceiling: 5.0,
    },
    TrendRule::AtMost {
        scenario: "ablation_wc_strict",
        metric: "phase_share_err_max",
        approach: "aq",
        ceiling: 0.05,
    },
    TrendRule::AtLeast {
        scenario: "ablation_work_conservation",
        metric: "goodput_p0_e1_gbps",
        approach: "aq",
        floor: 8.0,
    },
    TrendRule::AtLeast {
        scenario: "ablation_work_conservation",
        metric: "goodput_p1_e2_gbps",
        approach: "aq",
        floor: 2.0,
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

    /// One synthetic sweep per rule, just on the wrong side of the rule's
    /// bound when `violated`, just on the right side otherwise.
    fn sweep_at(rule: &TrendRule, violated: bool) -> Sweep {
        let off = if violated { 0.01 } else { -0.01 };
        match *rule {
            TrendRule::AtLeast {
                scenario,
                metric,
                approach,
                floor,
            } => sweep_of(&[(scenario, approach, "p=1", metric, floor - off)]),
            TrendRule::AtMost {
                scenario,
                metric,
                approach,
                ceiling,
            } => sweep_of(&[(scenario, approach, "p=1", metric, ceiling + off)]),
            TrendRule::NotWorseThan {
                scenario,
                metric,
                better,
                worse,
                slack,
            } => sweep_of(&[
                (scenario, better, "p=1", metric, 10.0 - slack - off),
                (scenario, worse, "p=1", metric, 10.0),
            ]),
            TrendRule::AtMostFactorOf {
                scenario,
                metric,
                faster,
                slower,
                factor,
            } => sweep_of(&[
                (scenario, faster, "p=1", metric, factor + off),
                (scenario, slower, "p=1", metric, 1.0),
            ]),
            TrendRule::FlatAcrossParams {
                scenario,
                metric,
                approach,
                spread,
            } => sweep_of(&[
                (scenario, approach, "p=1", metric, 1.0),
                (scenario, approach, "p=2", metric, 1.0 - spread - off),
            ]),
        }
    }

    #[test]
    fn every_rule_guarding_a_paper_scenario_fires_when_its_claim_is_violated() {
        let paper: std::collections::BTreeSet<String> = (crate::paper_spec().axes.into_iter())
            .map(|a| a.scenario)
            .collect();
        let mut guarded = std::collections::BTreeSet::new();
        for rule in DEFAULT_RULES
            .iter()
            .filter(|r| paper.contains(r.scenario()))
        {
            guarded.insert(rule.scenario());
            let alone = std::slice::from_ref(rule);
            let held = check_trends(&sweep_at(rule, false), alone);
            assert!(held.is_empty(), "{rule:?} fires inside its bound: {held:?}");
            let broken = sweep_at(rule, true);
            let named = check_trends(&broken, alone);
            assert_eq!(named.len(), 1, "{rule:?}: {named:?}");
            assert!(named[0].starts_with(rule.scenario()), "{}", named[0]);
            // ... and the gate as shipped names the same violation.
            let shipped = check_trends(&broken, DEFAULT_RULES);
            assert!(shipped.contains(&named[0]), "{rule:?} lost in {shipped:?}");
        }
        assert_eq!(guarded.len(), paper.len(), "a paper scenario has no rule");
    }

    #[test]
    fn every_paper_axis_that_runs_aq_has_a_rule_about_aq() {
        // The registry-coverage half of "each artifact states the paper's
        // claim on the AQ side": a rule whose synthetic sweep involves the
        // `aq` approach exists for every paper scenario run under AQ.
        for axis in crate::paper_spec().axes {
            if !axis.approaches.contains(&aq_bench::Approach::Aq) {
                continue;
            }
            let about_aq = DEFAULT_RULES.iter().any(|r| {
                r.scenario() == axis.scenario
                    && sweep_at(r, false)
                        .configs
                        .keys()
                        .any(|c| c.approach == "aq")
            });
            assert!(about_aq, "no AQ-side rule for `{}`", axis.scenario);
        }
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
