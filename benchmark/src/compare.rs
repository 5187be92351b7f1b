//! `compare A B`: judge result set B against base A, one row per
//! (metric, workload), by the bounds in `BENCHMARK.json`.

use crate::results::{Results, Summary, WorkloadResult};
use crate::spec::{Better, MetricSpec, Spec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the run-to-run spread.
    Better,
    /// No worse than A by more than the bound.
    Within,
    /// Worse than A by more than the bound.
    Worse,
    /// The spread is wider than the bound and the two sets of runs
    /// overlap: more repeats are needed before anything can be said.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Differences smaller than this are within, whatever their ratio: a
/// quarter more of a sub-millisecond set-up is timer noise, not work
/// moved into set-up.
fn floor_of(metric: &str) -> f64 {
    match metric {
        "setup_s" => 0.02,
        "report_s" => 0.005,
        _ => 0.0,
    }
}

/// How much worse B's median is than A's, as a share of A's (negative
/// when B is better).
pub fn worse_by(a: &Summary, b: &Summary, better: Better) -> f64 {
    match better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    }
}

pub fn judge(metric: &MetricSpec, a: &Summary, b: &Summary) -> Verdict {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    if (b.median - a.median).abs() <= floor_of(&metric.name) {
        return Verdict::Within;
    }
    let spread = a.spread().max(b.spread());
    let overlap = a.min <= b.max && b.min <= a.max;
    if spread > bound && overlap {
        return Verdict::Unresolved;
    }
    let worse = worse_by(a, b, metric.better);
    if worse > bound {
        Verdict::Worse
    } else if -worse > spread {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Why two result sets cannot be compared, if they cannot.
pub fn incomparable(a: &Results, b: &Results) -> Option<String> {
    if a.seed != b.seed {
        return Some(format!("seeds differ: {} vs {}", a.seed, b.seed));
    }
    if a.seconds != b.seconds {
        return Some(format!(
            "measuring time (and so repeat counts) differs: {} s vs {} s per workload",
            a.seconds, b.seconds
        ));
    }
    if !a.workloads.keys().eq(b.workloads.keys()) {
        return Some("workload sets differ".to_string());
    }
    for (name, wa) in &a.workloads {
        let wb = &b.workloads[name];
        if wa.params != wb.params {
            return Some(format!(
                "{name}: parameters differ: `{}` vs `{}`",
                wa.params, wb.params
            ));
        }
    }
    None
}

fn failed_frac(w: &WorkloadResult) -> f64 {
    w.failed() as f64 / w.attempted.max(1) as f64
}

/// The report and whether B may pass: no `worse` row and no rise in any
/// workload's share of failed operations.
pub fn compare(spec: &Spec, a: &Results, b: &Results) -> Result<(String, bool), String> {
    if let Some(why) = incomparable(a, b) {
        return Err(format!(
            "refusing to compare `{}` and `{}`: {why}",
            a.label, b.label
        ));
    }
    let mut out = format!(
        "base A = `{}`, B = `{}`, seed {}; ratio = B median / A median\n\
         {:<14} {:<20} {:>14} {:>14} {:>8} {:>7} {:>7} {:>5} {:>5}  verdict\n",
        a.label,
        b.label,
        a.seed,
        "metric",
        "workload",
        "A median",
        "B median",
        "ratio",
        "A iqr%",
        "B iqr%",
        "A n",
        "B n"
    );
    let mut pass = true;
    for metric in &spec.end_to_end {
        for (name, wa) in &a.workloads {
            let (Some(sa), Some(sb)) = (
                wa.metrics.get(&metric.name),
                b.workloads[name].metrics.get(&metric.name),
            ) else {
                return Err(format!(
                    "{name}: `{}` is missing from one side",
                    metric.name
                ));
            };
            let verdict = judge(metric, sa, sb);
            pass &= verdict != Verdict::Worse;
            out.push_str(&format!(
                "{:<14} {:<20} {:>14.6} {:>14.6} {:>8.4} {:>7.2} {:>7.2} {:>5} {:>5}  {} (bound {:.0}% of A, {})\n",
                metric.name,
                name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                sa.n(),
                sb.n(),
                verdict.name(),
                metric.bound.unwrap_or(0.0) * 100.0,
                metric.unit,
            ));
        }
    }
    for (name, wa) in &a.workloads {
        let wb = &b.workloads[name];
        let rose = failed_frac(wb) > failed_frac(wa);
        pass &= !rose;
        out.push_str(&format!(
            "{:<14} {:<20} {:>14} {:>14} {:>8} {:>7} {:>7} {:>5} {:>5}  {}\n",
            "failed_frac",
            name,
            format!("{}/{}", wa.failed(), wa.attempted),
            format!("{}/{}", wb.failed(), wb.attempted),
            "",
            "",
            "",
            "",
            "",
            if rose {
                "worse (any rise fails)"
            } else {
                "within"
            },
        ));
    }
    for (name, wa) in &a.workloads {
        let wb = &b.workloads[name];
        let differing: Vec<&str> = wa
            .counts
            .iter()
            .filter(|(k, v)| wb.counts.get(*k) != Some(v))
            .map(|(k, _)| k.as_str())
            .chain(
                wb.counts
                    .keys()
                    .filter(|k| !wa.counts.contains_key(*k))
                    .map(String::as_str),
            )
            .collect();
        let same = differing.is_empty() && wa.digest == wb.digest;
        out.push_str(&format!(
            "simulated statistics  {name:<20} {}\n",
            if same {
                format!(
                    "identical (report_digest {}, {} exact counts)",
                    wa.digest,
                    wa.counts.len()
                )
            } else {
                format!(
                    "DIFFER: report_digest {} vs {}; counts {differing:?}",
                    wa.digest, wb.digest
                )
            }
        ));
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::tests::workload;
    use std::collections::BTreeMap;

    fn metric(name: &str, better: Better, bound: f64) -> MetricSpec {
        MetricSpec {
            name: name.to_string(),
            unit: "s".to_string(),
            better,
            bound: Some(bound),
        }
    }

    fn around(center: f64, half_width: f64) -> Summary {
        let values: Vec<f64> = (0..7)
            .map(|i| center + half_width * (f64::from(i) - 3.0) / 3.0)
            .collect();
        Summary::of(&values, "s")
    }

    #[test]
    fn verdict_table() {
        let run_s = metric("run_s", Better::Lower, 0.05);
        let base = around(2.0, 0.01);
        // (B, expected) for a lower-is-better metric with a 5 % bound.
        let cases = [
            (around(2.0, 0.01), Verdict::Within),
            (around(2.08, 0.01), Verdict::Within),
            (around(2.12, 0.01), Verdict::Worse),
            (around(1.9, 0.01), Verdict::Better),
            // Improved, but by less than the spread of the runs.
            (around(1.995, 0.01), Verdict::Within),
            // Noisy and overlapping: no verdict either way, even though
            // the median moved past the bound.
            (around(2.12, 0.3), Verdict::Unresolved),
            // Noisy but every run of B beats every run of A.
            (around(1.0, 0.2), Verdict::Better),
            // Noisy, disjoint and worse.
            (around(3.0, 0.3), Verdict::Worse),
        ];
        for (b, expected) in cases {
            assert_eq!(judge(&run_s, &base, &b), expected, "B median {}", b.median);
        }

        let rate = metric("pkts_per_sec", Better::Higher, 0.05);
        assert_eq!(
            judge(&rate, &around(100.0, 0.5), &around(90.0, 0.5)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&rate, &around(100.0, 0.5), &around(110.0, 0.5)),
            Verdict::Better
        );
        assert_eq!(
            worse_by(&around(100.0, 0.5), &around(90.0, 0.5), Better::Higher),
            0.1
        );

        // Under the floor nothing is worse: 0.2 ms -> 0.4 ms of set-up.
        let setup = metric("setup_s", Better::Lower, 0.25);
        assert_eq!(
            judge(&setup, &around(0.0002, 0.00001), &around(0.0004, 0.00001)),
            Verdict::Within
        );
        assert_eq!(
            judge(&setup, &around(0.2, 0.001), &around(0.3, 0.001)),
            Verdict::Worse
        );
    }

    fn results(label: &str, run_s: &[f64], digest: &str) -> Results {
        Results {
            label: label.to_string(),
            seed: 1,
            seconds: 20,
            workloads: BTreeMap::from([("w".to_string(), workload(run_s, digest))]),
        }
    }

    fn spec() -> Spec {
        Spec {
            run_seconds: 20,
            workloads: vec![("w".to_string(), "why".to_string())],
            end_to_end: vec![metric("run_s", Better::Lower, 0.05)],
            per_layer: Vec::new(),
        }
    }

    #[test]
    fn compare_passes_within_and_fails_on_worse_or_new_failures() {
        let a = results("a", &[2.0, 2.01, 1.99], "d1");
        let (text, pass) =
            compare(&spec(), &a, &results("b", &[2.02, 2.03, 2.01], "d1")).expect("comparable");
        assert!(
            pass && text.contains("within") && text.contains("identical"),
            "{text}"
        );

        let (text, pass) =
            compare(&spec(), &a, &results("b", &[2.3, 2.31, 2.29], "d2")).expect("comparable");
        assert!(
            !pass && text.contains("worse") && text.contains("DIFFER"),
            "{text}"
        );

        let mut failing = results("b", &[2.0, 2.01, 1.99], "d1");
        failing
            .workloads
            .get_mut("w")
            .expect("w")
            .failures
            .push("oracle".to_string());
        let (text, pass) = compare(&spec(), &a, &failing).expect("comparable");
        assert!(!pass && text.contains("any rise fails"), "{text}");
    }

    #[test]
    fn compare_refuses_different_inputs() {
        let a = results("a", &[2.0], "d");
        let mut other_seed = a.clone();
        other_seed.seed = 2;
        assert!(compare(&spec(), &a, &other_seed)
            .unwrap_err()
            .contains("seeds differ"));
        let mut other_time = a.clone();
        other_time.seconds = 5;
        assert!(compare(&spec(), &a, &other_time)
            .unwrap_err()
            .contains("repeat counts"));
        let mut other_params = a.clone();
        other_params.workloads.get_mut("w").expect("w").params = "q".to_string();
        assert!(compare(&spec(), &a, &other_params)
            .unwrap_err()
            .contains("parameters differ"));
        let mut other_set = a.clone();
        other_set
            .workloads
            .insert("x".to_string(), workload(&[1.0], "d"));
        assert!(compare(&spec(), &a, &other_set)
            .unwrap_err()
            .contains("workload sets"));
    }
}
