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

/// One qualitative expectation: `check` holds for `metric` at the grid
/// points of `scenario` that `at` admits.
#[derive(Debug, Clone, Copy)]
pub struct TrendRule {
    /// Scenario name.
    pub scenario: &'static str,
    /// Which of the scenario's grid points the rule judges.
    pub at: At,
    /// Aggregated metric (compared on ensemble means).
    pub metric: &'static str,
    /// What must hold there.
    pub check: Check,
}

/// A point filter. A grid point is named by its canonical params string
/// (`b_flows=1,b_weight=2`); a filter matches it when one comma-separated
/// item equals the given `name=value` text exactly — no float compare,
/// no parse.
#[derive(Debug, Clone, Copy)]
pub enum At {
    /// Every point.
    All,
    /// Only the points carrying this `name=value` item.
    Is(&'static str),
    /// Every point but those carrying this `name=value` item.
    Not(&'static str),
}

impl At {
    /// Whether the point with canonical params `params` is judged.
    pub(crate) fn admits(self, params: &str) -> bool {
        let carries = |item| params.split(',').any(|p| p == item);
        match self {
            At::All => true,
            At::Is(item) => carries(item),
            At::Not(item) => !carries(item),
        }
    }
}

/// What a rule asserts about its metric's ensemble means.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// At every point, `better`'s mean is ≥ `worse`'s minus `slack`.
    NotWorseThan {
        /// Approach expected to dominate.
        better: &'static str,
        /// Approach providing the floor.
        worse: &'static str,
        /// Additive slack.
        slack: f64,
    },
    /// At every point, `faster`'s mean is ≤ `slower`'s times `factor`.
    AtMostFactorOf {
        /// Approach expected to stay fast.
        faster: &'static str,
        /// Approach providing the ceiling.
        slower: &'static str,
        /// Multiplicative headroom.
        factor: f64,
    },
    /// Across the points under `approach`, the mean stays flat: relative
    /// spread `(max−min)/max ≤ spread`.
    FlatAcrossParams {
        /// Approach under test.
        approach: &'static str,
        /// Allowed relative spread.
        spread: f64,
    },
    /// At every point under `approach`, the mean is at least `floor` (an
    /// absolute bound — used where no second approach provides a
    /// reference, e.g. recovery ratios).
    AtLeast {
        /// Approach under test.
        approach: &'static str,
        /// Smallest acceptable mean.
        floor: f64,
    },
    /// At every point under `approach`, the mean is at most `ceiling` (an
    /// absolute bound).
    AtMost {
        /// Approach under test.
        approach: &'static str,
        /// Largest acceptable mean.
        ceiling: f64,
    },
}

impl Check {
    /// The approach whose points the check judges.
    fn subject(self) -> &'static str {
        match self {
            Check::NotWorseThan { better, .. } => better,
            Check::AtMostFactorOf { faster, .. } => faster,
            Check::FlatAcrossParams { approach, .. }
            | Check::AtLeast { approach, .. }
            | Check::AtMost { approach, .. } => approach,
        }
    }
}

// Positional shorthands that keep each `DEFAULT_RULES` entry to one line
// per field.
const fn not_worse_than(better: &'static str, worse: &'static str, slack: f64) -> Check {
    Check::NotWorseThan {
        better,
        worse,
        slack,
    }
}

const fn at_most_factor_of(faster: &'static str, slower: &'static str, factor: f64) -> Check {
    Check::AtMostFactorOf {
        faster,
        slower,
        factor,
    }
}

const fn flat_across_params(approach: &'static str, spread: f64) -> Check {
    Check::FlatAcrossParams { approach, spread }
}

const fn at_least(approach: &'static str, floor: f64) -> Check {
    Check::AtLeast { approach, floor }
}

const fn at_most(approach: &'static str, ceiling: f64) -> Check {
    Check::AtMost { approach, ceiling }
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
    TrendRule {
        scenario: "fairness_flows",
        at: At::All,
        metric: "jain_goodput",
        check: not_worse_than("aq", "pq", 0.05),
    },
    TrendRule {
        scenario: "fairness_flows",
        at: At::All,
        metric: "goodput_e1_gbps",
        check: flat_across_params("aq", 0.20),
    },
    TrendRule {
        scenario: "udp_tcp_share",
        at: At::All,
        metric: "jain_goodput",
        check: not_worse_than("aq", "pq", 0.05),
    },
    TrendRule {
        scenario: "completion_vms",
        at: At::All,
        metric: "completion_max_s",
        check: at_most_factor_of("aq", "pq", 1.25),
    },
    TrendRule {
        scenario: "completion_vms",
        at: At::All,
        metric: "completion_max_s",
        check: flat_across_params("aq", 0.30),
    },
    // Fig. 10 shape: mixed-CC sharing — AQ isolates entities running
    // different CC algorithms where a shared FIFO lets the more
    // aggressive one win.
    TrendRule {
        scenario: "cc_mix",
        at: At::All,
        metric: "jain_goodput",
        check: not_worse_than("aq", "pq", 0.05),
    },
    TrendRule {
        scenario: "cc_mix",
        at: At::All,
        metric: "completion_max_s",
        check: at_most_factor_of("aq", "pq", 1.30),
    },
    // Inter-pod fat tree: AQ's per-entity fairness must survive ECMP and
    // multi-hop core paths, not just the single dumbbell bottleneck.
    TrendRule {
        scenario: "interpod_fattree",
        at: At::All,
        metric: "jain_goodput",
        check: not_worse_than("aq", "pq", 0.05),
    },
    // Fault robustness: once a link-flap train clears, goodput must
    // recover to near its pre-fault level (the RTO backoff machinery must
    // not strand senders), and full-run fairness must survive the outage.
    TrendRule {
        scenario: "linkflap_dumbbell",
        at: At::All,
        metric: "postfault_goodput_ratio",
        check: at_least("aq", 0.6),
    },
    TrendRule {
        scenario: "linkflap_dumbbell",
        at: At::All,
        metric: "jain_goodput",
        check: at_least("aq", 0.8),
    },
    // AQ state loss: a wiped AQ table must re-converge from subsequent
    // arrivals within a bounded window, and the wipe must not depress
    // post-wipe goodput.
    TrendRule {
        scenario: "aq_state_loss",
        at: At::All,
        metric: "reconverge_ms_max",
        check: at_most("aq", 20.0),
    },
    TrendRule {
        scenario: "aq_state_loss",
        at: At::All,
        metric: "postfault_goodput_ratio",
        check: at_least("aq", 0.6),
    },
    // Shared-buffer incast: AQ must keep two equal entities fair through
    // a small admission-controlled pool, and the pool occupancy peak must
    // never exceed the default 150 KB capacity (the hard cap the
    // SharedBufferPool enforces before any policy runs).
    TrendRule {
        scenario: "incast_sharedbuf",
        at: At::All,
        metric: "jain_goodput",
        check: at_least("aq", 0.8),
    },
    TrendRule {
        scenario: "incast_sharedbuf",
        at: At::All,
        metric: "pool_peak_bytes",
        check: at_most("pq", 150_000.0),
    },
    // AQM zoo: whatever physical AQM the switch egress runs, AQ's virtual
    // ECN must keep the two DCTCP entities fair, and the DT-guarded pool
    // stays within capacity.
    TrendRule {
        scenario: "websearch_aqm_zoo",
        at: At::All,
        metric: "jain_goodput",
        check: at_least("aq", 0.7),
    },
    TrendRule {
        scenario: "websearch_aqm_zoo",
        at: At::All,
        metric: "pool_peak_bytes",
        check: at_most("pq", 150_000.0),
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
    TrendRule {
        scenario: "tenant_churn",
        at: At::All,
        metric: "jain_goodput",
        check: at_least("aq", 0.6),
    },
    TrendRule {
        scenario: "tenant_churn",
        at: At::All,
        metric: "degraded_flows_total",
        check: at_most("aq", 0.0),
    },
    TrendRule {
        scenario: "tenant_churn",
        at: At::All,
        metric: "completion_frac",
        check: at_least("aq", 0.5),
    },
    // The paper's evaluation (`--spec paper`; EXPERIMENTS.md has the
    // measured-vs-paper tables). Each artifact gets the paper's claim about
    // AQ and, where the paper says a baseline fails, a rule pinning that
    // failure — so a change that quietly "fixes" PQ or PRL is caught too.
    // A figure's control — the first point on its own axis, where nothing
    // can go wrong — is one more grid point, and the pins filter it out
    // (`At::Not`) while its everyone-agrees rule picks it out (`At::Is`).
    // `jain_goodput` is over weight-normalised goodputs.
    //
    // Fig. 1: CC classes sharing one physical queue interfere (the loser of
    // each pair is starved); two drop-based algorithms (`pair=5`) do not.
    TrendRule {
        scenario: "fig01_cc_interference",
        at: At::Not("pair=5"),
        metric: "jain_goodput",
        check: at_most("pq", 0.92),
    },
    TrendRule {
        scenario: "fig01_cc_interference",
        at: At::Is("pair=5"),
        metric: "jain_goodput",
        check: at_least("pq", 0.95),
    },
    // Table 2: under AQ every entity holds its weight's share whatever the
    // CC mix, UDP included; under PQ every mix is won by one entity. With a
    // single CC algorithm (`row=8`) PQ shares evenly too.
    TrendRule {
        scenario: "table2_cc_sharing",
        at: At::All,
        metric: "jain_goodput",
        check: at_least("aq", 0.98),
    },
    TrendRule {
        scenario: "table2_cc_sharing",
        at: At::Not("row=8"),
        metric: "jain_goodput",
        check: at_most("pq", 0.6),
    },
    TrendRule {
        scenario: "table2_cc_sharing",
        at: At::Is("row=8"),
        metric: "jain_goodput",
        check: at_least("pq", 0.95),
    },
    // Fig. 6: AQ completes as fast as the raw network at every VM count;
    // the fixed (PRL) and lagging (DRL) per-VM splits are slower as soon as
    // there is a split — and not before (`vms=1`).
    TrendRule {
        scenario: "fig06_completion_vs_vms",
        at: At::All,
        metric: "completion_max_s",
        check: at_most_factor_of("aq", "pq", 1.05),
    },
    TrendRule {
        scenario: "fig06_completion_vs_vms",
        at: At::Not("vms=1"),
        metric: "completion_max_s",
        check: flat_across_params("aq", 0.15),
    },
    TrendRule {
        scenario: "fig06_completion_vs_vms",
        at: At::Not("vms=1"),
        metric: "completion_max_s",
        check: at_most_factor_of("pq", "prl", 0.75),
    },
    TrendRule {
        scenario: "fig06_completion_vs_vms",
        at: At::Not("vms=1"),
        metric: "completion_max_s",
        check: at_most_factor_of("pq", "drl", 0.8),
    },
    TrendRule {
        scenario: "fig06_completion_vs_vms",
        at: At::Is("vms=1"),
        metric: "completion_max_s",
        check: at_most_factor_of("prl", "pq", 1.15),
    },
    TrendRule {
        scenario: "fig06_completion_vs_vms",
        at: At::Is("vms=1"),
        metric: "completion_max_s",
        check: at_most_factor_of("drl", "pq", 1.25),
    },
    // Fig. 7: under AQ two equal-weight entities finish together however
    // many VMs entity B has, and no baseline is fairer.
    TrendRule {
        scenario: "fig07_entity_fairness",
        at: At::All,
        metric: "completion_ratio",
        check: at_least("aq", 0.9),
    },
    TrendRule {
        scenario: "fig07_entity_fairness",
        at: At::All,
        metric: "completion_ratio",
        check: not_worse_than("aq", "pq", 0.0),
    },
    TrendRule {
        scenario: "fig07_entity_fairness",
        at: At::All,
        metric: "completion_ratio",
        check: not_worse_than("aq", "prl", 0.05),
    },
    TrendRule {
        scenario: "fig07_entity_fairness",
        at: At::All,
        metric: "completion_ratio",
        check: not_worse_than("aq", "drl", 0.05),
    },
    // Fig. 8: AQ splits by weight (1:1 and 1:2) whatever the flow counts;
    // PQ splits by flow count, so entity A starves once the counts differ
    // (two single CUBIC flows, `b_flows=1`, have not converged in 500 ms).
    TrendRule {
        scenario: "fig08_flow_count_isolation",
        at: At::All,
        metric: "jain_goodput",
        check: at_least("aq", 0.98),
    },
    TrendRule {
        scenario: "fig08_flow_count_isolation",
        at: At::Not("b_flows=1"),
        metric: "jain_goodput",
        check: at_most("pq", 0.7),
    },
    // Fig. 9: under AQ every entity that has joined holds 1/n of the link
    // in every phase, the UDP blast included; under PQ the UDP entity (e3)
    // holds >= 85 % of the link once it joins and the first TCP entity is
    // starved.
    TrendRule {
        scenario: "fig09_udp_tcp",
        at: At::All,
        metric: "phase_share_err_max",
        check: at_most("aq", 0.05),
    },
    TrendRule {
        scenario: "fig09_udp_tcp",
        at: At::All,
        metric: "goodput_p4_e3_gbps",
        check: at_least("pq", 8.0),
    },
    TrendRule {
        scenario: "fig09_udp_tcp",
        at: At::All,
        metric: "goodput_p4_e1_gbps",
        check: at_most("pq", 1.0),
    },
    // Fig. 10: (a) mixed-CC entities finish together under AQ, not under
    // PQ; (b) AQ takes about as long as PQ in total, PRL and DRL
    // significantly longer.
    TrendRule {
        scenario: "fig10_cc_fairness",
        at: At::All,
        metric: "completion_ratio",
        check: at_least("aq", 0.9),
    },
    TrendRule {
        scenario: "fig10_cc_fairness",
        at: At::All,
        metric: "completion_ratio",
        check: at_most("pq", 0.7),
    },
    TrendRule {
        scenario: "fig10_cc_fairness",
        at: At::All,
        metric: "completion_max_s",
        check: at_most_factor_of("aq", "pq", 1.1),
    },
    TrendRule {
        scenario: "fig10_cc_fairness",
        at: At::All,
        metric: "completion_max_s",
        check: at_most_factor_of("pq", "prl", 0.6),
    },
    TrendRule {
        scenario: "fig10_cc_fairness",
        at: At::All,
        metric: "completion_max_s",
        check: at_most_factor_of("pq", "drl", 0.8),
    },
    // Table 3 (5 Gbit/s in / 5 Gbit/s out on a 25 Gbit/s star; goodput is
    // payload, so 5.0 on the wire reads ~4.7): AQ holds VM A's outbound
    // (e1) and inbound (e2) at the profile; PQ limits neither; PRL holds
    // outbound but lets the three senders overrun inbound; DRL stays
    // within the profile in both directions and undershoots.
    TrendRule {
        scenario: "table3_vm_profile",
        at: At::All,
        metric: "goodput_e1_gbps",
        check: at_least("aq", 4.4),
    },
    TrendRule {
        scenario: "table3_vm_profile",
        at: At::All,
        metric: "goodput_e1_gbps",
        check: at_most("aq", 5.0),
    },
    TrendRule {
        scenario: "table3_vm_profile",
        at: At::All,
        metric: "goodput_e1_gbps",
        check: at_least("pq", 15.0),
    },
    TrendRule {
        scenario: "table3_vm_profile",
        at: At::All,
        metric: "goodput_e1_gbps",
        check: at_most("drl", 5.0),
    },
    TrendRule {
        scenario: "table3_vm_profile",
        at: At::All,
        metric: "goodput_e2_gbps",
        check: at_least("aq", 4.4),
    },
    TrendRule {
        scenario: "table3_vm_profile",
        at: At::All,
        metric: "goodput_e2_gbps",
        check: at_most("aq", 5.0),
    },
    TrendRule {
        scenario: "table3_vm_profile",
        at: At::All,
        metric: "goodput_e2_gbps",
        check: at_least("pq", 15.0),
    },
    TrendRule {
        scenario: "table3_vm_profile",
        at: At::All,
        metric: "goodput_e2_gbps",
        check: at_most("drl", 5.0),
    },
    TrendRule {
        scenario: "table3_vm_profile",
        at: At::All,
        metric: "goodput_e1_gbps",
        check: at_most("prl", 5.0),
    },
    TrendRule {
        scenario: "table3_vm_profile",
        at: At::All,
        metric: "goodput_e2_gbps",
        check: at_least("prl", 10.0),
    },
    // Table 4: a 25 Gbit/s AQ of a 100 Gbit/s core behaves like a physical
    // 25 Gbit/s core to each CC algorithm — same throughput, and a virtual
    // queuing delay that tracks the physical one (deep for drop-based CC,
    // shallow for DCTCP) — in both directions.
    TrendRule {
        scenario: "table4_cc_behavior",
        at: At::All,
        metric: "goodput_e1_gbps",
        check: at_most_factor_of("pq", "aq", 1.15),
    },
    TrendRule {
        scenario: "table4_cc_behavior",
        at: At::All,
        metric: "goodput_e1_gbps",
        check: at_most_factor_of("aq", "pq", 1.15),
    },
    TrendRule {
        scenario: "table4_cc_behavior",
        at: At::All,
        metric: "cc_qdelay_p99_us_e1",
        check: at_most_factor_of("pq", "aq", 2.0),
    },
    TrendRule {
        scenario: "table4_cc_behavior",
        at: At::All,
        metric: "cc_qdelay_p99_us_e1",
        check: at_most_factor_of("aq", "pq", 2.0),
    },
    // §6 AQ limits: a 100 Mbit/s entity reaches its allocation (0.094
    // payload) with the physical queue's limit or a floored proportional
    // one, and is kept from it by excess drops without the floor
    // (`policy=2`).
    TrendRule {
        scenario: "ablation_limit_policy",
        at: At::Not("policy=2"),
        metric: "goodput_e1_gbps",
        check: at_least("aq", 0.085),
    },
    TrendRule {
        scenario: "ablation_limit_policy",
        at: At::Is("policy=2"),
        metric: "goodput_e1_gbps",
        check: at_most("aq", 0.06),
    },
    // §6 work conservation: while entity B idles (phase 0) strict AQs
    // (`mode=2`) pin entity A at its half, both mechanisms hand it the
    // link; once B starts (phase 1) it gets going under all three.
    TrendRule {
        scenario: "ablation_work_conservation",
        at: At::Not("mode=2"),
        metric: "goodput_p0_e1_gbps",
        check: at_least("aq", 8.0),
    },
    TrendRule {
        scenario: "ablation_work_conservation",
        at: At::Not("mode=2"),
        metric: "goodput_p1_e2_gbps",
        check: at_least("aq", 2.0),
    },
    TrendRule {
        scenario: "ablation_work_conservation",
        at: At::Is("mode=2"),
        metric: "goodput_p0_e1_gbps",
        check: at_most("aq", 5.0),
    },
    TrendRule {
        scenario: "ablation_work_conservation",
        at: At::Is("mode=2"),
        metric: "phase_share_err_max",
        check: at_most("aq", 0.05),
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

/// Evaluate `rules` against a sweep; returns human-readable failures.
///
/// A rule judges the points of its scenario that exist under its check's
/// subject approach (`better`, `faster` or `approach`) and that its
/// filter admits. Rules whose scenario/approach pair is absent from the
/// sweep are skipped — a smoke sweep need not cover every scenario. A
/// judged point without the metric fails: an AQ run that leaves an entity
/// unfinished drops `completion_max_s`, and that must not pass a
/// completion rule. A point whose reference approach (`worse`, `slower`)
/// lacks the metric is skipped.
pub fn check_trends(sweep: &Sweep, rules: &[TrendRule]) -> Vec<String> {
    let mut failures = Vec::new();
    for &TrendRule {
        scenario,
        at,
        metric,
        check,
    } in rules
    {
        let subject = check.subject();
        let mut points = Vec::new();
        for (c, metrics) in &sweep.configs {
            if c.scenario != scenario || c.approach != subject || !at.admits(&c.params) {
                continue;
            }
            let params = c.params.as_str();
            match metrics.get(metric) {
                Some(a) => points.push((params, a.mean)),
                None => failures.push(format!(
                    "{scenario}/{{{params}}}: {metric} missing under {subject}"
                )),
            }
        }
        let reference =
            |approach: &str, params: &str| mean_of(sweep, scenario, approach, params, metric);
        for &(params, v) in &points {
            let failed = match check {
                Check::NotWorseThan {
                    better,
                    worse,
                    slack,
                } => reference(worse, params).filter(|w| v < w - slack).map(|w| {
                    format!(
                        "{metric} under {better} ({v:.4}) below {worse} ({w:.4}) \
                         beyond slack {slack:.2}"
                    )
                }),
                Check::AtMostFactorOf {
                    faster,
                    slower,
                    factor,
                } => reference(slower, params)
                    .filter(|s| v > s * factor)
                    .map(|s| {
                        format!(
                            "{metric} under {faster} ({v:.4}) exceeds {factor:.2}x {slower} \
                             ({s:.4})"
                        )
                    }),
                Check::AtLeast { approach, floor } => (v < floor)
                    .then(|| format!("{metric} under {approach} ({v:.4}) below floor {floor:.2}")),
                Check::AtMost { approach, ceiling } => (v > ceiling).then(|| {
                    format!("{metric} under {approach} ({v:.4}) exceeds ceiling {ceiling:.2}")
                }),
                Check::FlatAcrossParams { .. } => None,
            };
            if let Some(what) = failed {
                failures.push(format!("{scenario}/{{{params}}}: {what}"));
            }
        }
        if let Check::FlatAcrossParams { approach, spread } = check {
            let max = points.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
            let min = points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
            if max > 0.0 && (max - min) / max > spread {
                failures.push(format!(
                    "{scenario}: {metric} under {approach} not flat across params \
                     (min {min:.4}, max {max:.4}, spread {:.3} > {spread:.2})",
                    (max - min) / max
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::RunKey;

    fn sweep_of<'a>(
        points: impl IntoIterator<Item = (&'a str, &'a str, &'a str, &'a str, f64)>,
    ) -> Sweep {
        let mut runs = std::collections::BTreeMap::new();
        for (scenario, approach, params, metric, value) in points {
            let key = RunKey {
                scenario: scenario.to_string(),
                approach: approach.to_string(),
                params: params.to_string(),
                seed: 1,
            };
            let entry: &mut std::collections::BTreeMap<String, f64> = runs.entry(key).or_default();
            entry.insert(metric.to_string(), value);
        }
        Sweep::from_runs("unit", runs)
    }

    #[test]
    fn rules_for_absent_scenarios_are_skipped() {
        let unrelated = sweep_of([("udp_tcp_share", "aq", "h=1", "jain_goodput", 0.99)]);
        assert!(check_trends(&unrelated, DEFAULT_RULES).is_empty());
    }

    #[test]
    fn a_judged_point_without_its_metric_fails_the_rule() {
        // An AQ run that leaves an entity unfinished at the deadline has no
        // `completion_max_s`; the AQ completion rules must name the point.
        let fig6 = "fig06_completion_vs_vms";
        let done = "completion_max_s";
        let aq_unfinished = sweep_of([
            (fig6, "aq", "vms=2", "events", 1.0),
            (fig6, "pq", "vms=2", done, 0.19),
        ]);
        let failures = check_trends(&aq_unfinished, DEFAULT_RULES);
        let named = "fig06_completion_vs_vms/{vms=2}: completion_max_s missing under aq";
        assert!(failures.iter().any(|f| f == named), "{failures:?}");
        // A missing *reference* side makes "AQ ≤ 1.05 × PQ" vacuous.
        let rule = TrendRule {
            scenario: fig6,
            at: At::All,
            metric: done,
            check: at_most_factor_of("aq", "pq", 1.05),
        };
        let pq_unfinished = sweep_of([
            (fig6, "aq", "vms=2", done, 0.19),
            (fig6, "pq", "vms=2", "events", 1.0),
        ]);
        assert!(check_trends(&pq_unfinished, &[rule]).is_empty());
    }

    /// The `i`-th point a rule's filter admits in a synthetic sweep.
    fn judged(rule: &TrendRule, i: u32) -> String {
        match rule.at {
            At::Is(item) => format!("{item},p={i}"),
            At::All | At::Not(_) => format!("p={i}"),
        }
    }

    /// A point a filtered rule's filter excludes.
    fn excluded(rule: &TrendRule) -> Option<&'static str> {
        match rule.at {
            At::All => None,
            At::Is(_) => Some("p=9"),
            At::Not(item) => Some(item),
        }
    }

    /// One synthetic sweep per rule, its judged point just on the wrong
    /// side of the rule's bound when `violated`, just on the right side
    /// otherwise. A filtered rule also gets a point its filter excludes,
    /// on the wrong side either way.
    fn sweep_at(rule: &TrendRule, violated: bool) -> Sweep {
        // Approach/value pairs at one point, `off` past the bound.
        let at_point = |off: f64| match rule.check {
            Check::AtLeast { approach, floor } => vec![(approach, floor - off)],
            Check::AtMost { approach, ceiling } => vec![(approach, ceiling + off)],
            Check::NotWorseThan {
                better,
                worse,
                slack,
            } => vec![(better, 10.0 - slack - off), (worse, 10.0)],
            Check::AtMostFactorOf {
                faster,
                slower,
                factor,
            } => vec![(faster, factor + off), (slower, 1.0)],
            // Against a neighbouring point at 1.0.
            Check::FlatAcrossParams { approach, spread } => vec![(approach, 1.0 - spread - off)],
        };
        let mut rows = vec![];
        if let Check::FlatAcrossParams { approach, .. } = rule.check {
            rows.push((approach, judged(rule, 0), 1.0));
        }
        let mut put = |params: String, off| {
            rows.extend(
                at_point(off)
                    .into_iter()
                    .map(|(a, v)| (a, params.clone(), v)),
            );
        };
        put(judged(rule, 1), if violated { 0.01 } else { -0.01 });
        if let Some(params) = excluded(rule) {
            put(params.to_string(), 0.01);
        }
        sweep_of((rows.iter()).map(|(a, p, v)| (rule.scenario, *a, p.as_str(), rule.metric, *v)))
    }

    #[test]
    fn every_rule_fires_when_its_claim_is_violated() {
        for rule in DEFAULT_RULES {
            let alone = std::slice::from_ref(rule);
            let held = check_trends(&sweep_at(rule, false), alone);
            assert!(held.is_empty(), "{rule:?} fires inside its bound: {held:?}");
            let broken = sweep_at(rule, true);
            let named = check_trends(&broken, alone);
            assert_eq!(named.len(), 1, "{rule:?}: {named:?}");
            assert!(named[0].starts_with(rule.scenario), "{}", named[0]);
            if let Some(params) = excluded(rule) {
                // ... at a point the filter admits, not at the excluded one.
                let excluded = format!("{{{params}}}");
                assert!(!named[0].contains(&excluded), "{}", named[0]);
            }
            // ... and the gate as shipped names the same violation.
            let shipped = check_trends(&broken, DEFAULT_RULES);
            assert!(shipped.contains(&named[0]), "{rule:?} lost in {shipped:?}");
            // A judged point without the metric is named too.
            let subject = rule.check.subject();
            let gone = judged(rule, 1);
            let missing = sweep_of(broken.runs.keys().map(|k| {
                let dropped = k.approach == subject && k.params == gone;
                let value = broken.runs[k][rule.metric];
                (
                    rule.scenario,
                    k.approach.as_str(),
                    k.params.as_str(),
                    if dropped { "events" } else { rule.metric },
                    value,
                )
            }));
            let named = check_trends(&missing, alone);
            let want = format!(
                "{}/{{{gone}}}: {} missing under {subject}",
                rule.scenario, rule.metric
            );
            assert_eq!(named, [want], "{rule:?}");
        }
    }

    #[test]
    fn every_filter_names_a_value_the_paper_grid_runs_and_skips() {
        // A typo such as `Is("pari=5")` would switch a pin off silently.
        let points = crate::sweep::expand(&crate::paper_spec()).expect("paper expands");
        for rule in DEFAULT_RULES {
            let (At::Is(item) | At::Not(item)) = rule.at else {
                continue;
            };
            let (name, _) = item.split_once('=').expect("a filter is `name=value`");
            let def = aq_workloads::registry::find(rule.scenario).expect("registered");
            assert!(
                def.params.iter().any(|p| p.name == name),
                "{rule:?}: `{}` declares no `{name}`",
                rule.scenario
            );
            let (with, without): (Vec<_>, Vec<_>) = (points.iter())
                .filter(|p| p.key.scenario == rule.scenario)
                .partition(|p| At::Is(item).admits(&p.key.params));
            assert!(
                !with.is_empty(),
                "{rule:?}: no paper point carries `{item}`"
            );
            assert!(
                !without.is_empty(),
                "{rule:?}: every paper point carries `{item}`"
            );
        }
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
                r.scenario == axis.scenario
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
        for def in aq_workloads::registry::registry() {
            assert!(
                DEFAULT_RULES.iter().any(|r| r.scenario == def.name),
                "scenario `{}` has no trend rule in DEFAULT_RULES",
                def.name
            );
            assert!(
                in_baselines.contains(def.name),
                "scenario `{}` has no committed baseline sweep under baselines/expected/",
                def.name
            );
        }
        for rule in DEFAULT_RULES {
            assert!(
                aq_workloads::registry::find(rule.scenario).is_some(),
                "trend rule names unregistered scenario `{}`",
                rule.scenario
            );
        }
    }
}
