//! Seed-ensemble aggregation and the `sweep.json` / `sweep.csv` artifact.
//!
//! Per configuration (scenario × approach × params) and per metric, the
//! seed ensemble collapses to `n / min / mean / max` plus a
//! normal-approximation 95% confidence half-width (`1.96·sd/√n`, sample
//! sd). Rendering iterates `BTreeMap`s and prints floats at fixed
//! precision, so the artifact bytes depend only on the run results —
//! never on `--jobs` or scheduling. Both renderings have parse
//! counterparts, and a sweep directory round-trips bit-exactly.

use crate::sweep::{FailureKind, RunFailure, RunKey};
use aq_bench::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One configuration of a sweep: every seed of a (scenario, approach,
/// params) triple lands in the same config.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ConfigKey {
    /// Scenario name.
    pub scenario: String,
    /// Approach name, lowercase.
    pub approach: String,
    /// Canonical parameter string.
    pub params: String,
}

impl ConfigKey {
    /// The config a run key belongs to.
    pub fn of(run: &RunKey) -> ConfigKey {
        ConfigKey {
            scenario: run.scenario.clone(),
            approach: run.approach.clone(),
            params: run.params.clone(),
        }
    }
}

/// Seed-ensemble summary of one metric in one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Seeds contributing (a metric may be absent in some seeds, e.g.
    /// `completion_max_s` when one seed misses the deadline).
    pub n: u64,
    /// Smallest observation.
    pub min: f64,
    /// Ensemble mean.
    pub mean: f64,
    /// Largest observation.
    pub max: f64,
    /// Normal-approximation 95% CI half-width (0 when `n < 2`).
    pub ci95: f64,
}

impl Aggregate {
    /// Collapse one metric's per-seed observations.
    fn from_samples(samples: &[f64]) -> Option<Aggregate> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let ci95 = if samples.len() >= 2 {
            let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1.0);
            1.96 * var.sqrt() / n.sqrt()
        } else {
            0.0
        };
        Some(Aggregate {
            n: samples.len() as u64,
            min,
            mean,
            max,
            ci95,
        })
    }
}

/// A completed sweep: per-run metrics plus per-config aggregates.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Sweep name.
    pub name: String,
    /// Raw per-run metric maps, keyed deterministically.
    pub runs: BTreeMap<RunKey, BTreeMap<String, f64>>,
    /// Per-config, per-metric seed-ensemble summaries.
    pub configs: BTreeMap<ConfigKey, BTreeMap<String, Aggregate>>,
    /// Runs that errored, panicked, or timed out, with their kind and
    /// message. Recorded in `sweep.json` so a partially-failed sweep is a
    /// first-class, diffable artifact (and a gate failure).
    pub failures: BTreeMap<RunKey, RunFailure>,
}

impl Sweep {
    /// Attach per-run failures (from [`crate::sweep::SweepOutcome`]).
    pub fn with_failures(mut self, failures: BTreeMap<RunKey, RunFailure>) -> Sweep {
        self.failures = failures;
        self
    }

    /// Build a sweep from merged run results, computing all aggregates.
    pub fn from_runs(name: &str, runs: BTreeMap<RunKey, BTreeMap<String, f64>>) -> Sweep {
        let mut samples: BTreeMap<ConfigKey, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
        for (key, metrics) in &runs {
            let per_metric = samples.entry(ConfigKey::of(key)).or_default();
            for (metric, value) in metrics {
                per_metric.entry(metric.clone()).or_default().push(*value);
            }
        }
        let configs = samples
            .into_iter()
            .map(|(config, metrics)| {
                let aggs = metrics
                    .into_iter()
                    .filter_map(|(m, vals)| Aggregate::from_samples(&vals).map(|a| (m, a)))
                    .collect();
                (config, aggs)
            })
            .collect();
        Sweep {
            name: name.to_string(),
            runs,
            configs,
            failures: BTreeMap::new(),
        }
    }

    /// Deterministic `sweep.json` bytes.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"sweep\": {},", json::escape(&self.name));
        out.push_str("  \"configs\": [\n");
        let n_configs = self.configs.len();
        for (ci, (config, metrics)) in self.configs.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(
                out,
                "      \"scenario\": {},",
                json::escape(&config.scenario)
            );
            let _ = writeln!(
                out,
                "      \"approach\": {},",
                json::escape(&config.approach)
            );
            let _ = writeln!(out, "      \"params\": {},", json::escape(&config.params));
            out.push_str("      \"metrics\": {\n");
            let n_metrics = metrics.len();
            for (mi, (metric, a)) in metrics.iter().enumerate() {
                let _ = write!(
                    out,
                    "        {}: {{\"n\": {}, \"min\": {:.6}, \"mean\": {:.6}, \"max\": {:.6}, \"ci95\": {:.6}}}",
                    json::escape(metric),
                    a.n,
                    a.min,
                    a.mean,
                    a.max,
                    a.ci95
                );
                out.push_str(if mi + 1 < n_metrics { ",\n" } else { "\n" });
            }
            out.push_str("      }\n");
            out.push_str(if ci + 1 < n_configs {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"runs\": [\n");
        let n_runs = self.runs.len();
        for (ri, (key, metrics)) in self.runs.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"scenario\": {},", json::escape(&key.scenario));
            let _ = writeln!(out, "      \"approach\": {},", json::escape(&key.approach));
            let _ = writeln!(out, "      \"params\": {},", json::escape(&key.params));
            let _ = writeln!(out, "      \"seed\": {},", key.seed);
            out.push_str("      \"metrics\": {");
            let n_metrics = metrics.len();
            for (mi, (metric, value)) in metrics.iter().enumerate() {
                let _ = write!(out, "{}: {:.6}", json::escape(metric), value);
                if mi + 1 < n_metrics {
                    out.push_str(", ");
                }
            }
            out.push_str("}\n");
            out.push_str(if ri + 1 < n_runs {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"failures\": [\n");
        let n_failures = self.failures.len();
        for (fi, (key, failure)) in self.failures.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"scenario\": {},", json::escape(&key.scenario));
            let _ = writeln!(out, "      \"approach\": {},", json::escape(&key.approach));
            let _ = writeln!(out, "      \"params\": {},", json::escape(&key.params));
            let _ = writeln!(out, "      \"seed\": {},", key.seed);
            let _ = writeln!(
                out,
                "      \"kind\": {},",
                json::escape(failure.kind.as_str())
            );
            let _ = writeln!(out, "      \"error\": {}", json::escape(&failure.message));
            out.push_str(if fi + 1 < n_failures {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Deterministic `sweep.csv` bytes: one row per (config, metric)
    /// aggregate.
    pub fn render_csv(&self) -> String {
        let mut out = String::from("scenario,approach,params,metric,n,min,mean,max,ci95\n");
        for (config, metrics) in &self.configs {
            for (metric, a) in metrics {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6}",
                    aq_bench::csv::quote(&config.scenario),
                    aq_bench::csv::quote(&config.approach),
                    aq_bench::csv::quote(&config.params),
                    aq_bench::csv::quote(metric),
                    a.n,
                    a.min,
                    a.mean,
                    a.max,
                    a.ci95
                );
            }
        }
        out
    }

    /// Write `sweep.json` + `sweep.csv` into `dir`.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("sweep.json"), self.render_json())?;
        std::fs::write(dir.join("sweep.csv"), self.render_csv())?;
        Ok(())
    }

    /// Parse counterpart of [`Sweep::render_json`].
    pub fn parse_json(text: &str) -> Result<Sweep, String> {
        let doc = json::parse(text).map_err(|e| format!("sweep.json: {e}"))?;
        let name = doc.field("sweep", "sweep.json")?;
        let mut configs = BTreeMap::new();
        for (i, c) in doc.arr_field("configs", "sweep.json")?.iter().enumerate() {
            let ctx = &format!("configs[{i}]");
            let config = ConfigKey {
                scenario: c.field("scenario", ctx)?,
                approach: c.field("approach", ctx)?,
                params: c.field("params", ctx)?,
            };
            let mut metrics = BTreeMap::new();
            for (metric, a) in c.obj_field("metrics", ctx)? {
                let agg = Aggregate {
                    n: a.field("n", metric)?,
                    min: a.field("min", metric)?,
                    mean: a.field("mean", metric)?,
                    max: a.field("max", metric)?,
                    ci95: a.field("ci95", metric)?,
                };
                metrics.insert(metric.clone(), agg);
            }
            configs.insert(config, metrics);
        }
        let mut runs = BTreeMap::new();
        for (i, r) in doc.arr_field("runs", "sweep.json")?.iter().enumerate() {
            let ctx = &format!("runs[{i}]");
            let key = RunKey {
                scenario: r.field("scenario", ctx)?,
                approach: r.field("approach", ctx)?,
                params: r.field("params", ctx)?,
                seed: r.field("seed", ctx)?,
            };
            let mut metrics = BTreeMap::new();
            for (metric, v) in r.obj_field("metrics", ctx)? {
                let value = v
                    .as_f64()
                    .ok_or_else(|| format!("{ctx}: metric `{metric}` is not a number"))?;
                metrics.insert(metric.clone(), value);
            }
            runs.insert(key, metrics);
        }
        let mut failures = BTreeMap::new();
        for (i, f) in doc.arr_field("failures", "sweep.json")?.iter().enumerate() {
            let ctx = &format!("failures[{i}]");
            let key = RunKey {
                scenario: f.field("scenario", ctx)?,
                approach: f.field("approach", ctx)?,
                params: f.field("params", ctx)?,
                seed: f.field("seed", ctx)?,
            };
            let kind: String = f.field("kind", ctx)?;
            failures.insert(
                key,
                RunFailure {
                    kind: FailureKind::parse(&kind)
                        .ok_or_else(|| format!("{ctx}: unknown kind `{kind}`"))?,
                    message: f.field("error", ctx)?,
                },
            );
        }
        Ok(Sweep {
            name,
            runs,
            configs,
            failures,
        })
    }

    /// Parse counterpart of [`Sweep::render_csv`] — returns the aggregate
    /// rows (the CSV carries no per-run data).
    pub fn parse_csv(
        text: &str,
    ) -> Result<BTreeMap<ConfigKey, BTreeMap<String, Aggregate>>, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("sweep.csv: empty file")?;
        if header != "scenario,approach,params,metric,n,min,mean,max,ci95" {
            return Err(format!("sweep.csv: unexpected header `{header}`"));
        }
        let mut configs: BTreeMap<ConfigKey, BTreeMap<String, Aggregate>> = BTreeMap::new();
        for (lineno, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            // RFC-4180: the params field contains commas and is quoted, so
            // every row splits to exactly 9 fields.
            let fields: Vec<String> = aq_bench::csv::split_record(line)
                .map_err(|e| format!("sweep.csv line {}: {e}", lineno + 2))?;
            let [scenario, approach, params, metric, n, min, mean, max, ci95] = &fields[..] else {
                return Err(format!(
                    "sweep.csv line {}: expected 9 fields, got {}",
                    lineno + 2,
                    fields.len()
                ));
            };
            let bad =
                |what: &str, s: &str| format!("sweep.csv line {}: bad {what} `{s}`", lineno + 2);
            let num = |s: &str, what: &str| s.parse::<f64>().map_err(|_| bad(what, s));
            let config = ConfigKey {
                scenario: scenario.clone(),
                approach: approach.clone(),
                params: params.clone(),
            };
            let agg = Aggregate {
                n: n.parse().map_err(|_| bad("n", n))?,
                min: num(min, "min")?,
                mean: num(mean, "mean")?,
                max: num(max, "max")?,
                ci95: num(ci95, "ci95")?,
            };
            configs
                .entry(config)
                .or_default()
                .insert(metric.clone(), agg);
        }
        Ok(configs)
    }

    /// Load a sweep from a directory containing `sweep.json` (as written
    /// by [`Sweep::write_to`]), cross-checking `sweep.csv` when present.
    pub fn load_dir(dir: &Path) -> Result<Sweep, String> {
        let json_path = dir.join("sweep.json");
        let text = std::fs::read_to_string(&json_path)
            .map_err(|e| format!("{}: {e}", json_path.display()))?;
        let sweep = Sweep::parse_json(&text)?;
        let csv_path = dir.join("sweep.csv");
        if let Ok(csv_text) = std::fs::read_to_string(&csv_path) {
            let csv_configs = Sweep::parse_csv(&csv_text)?;
            let json_keys: Vec<&ConfigKey> = sweep.configs.keys().collect();
            let csv_keys: Vec<&ConfigKey> = csv_configs.keys().collect();
            if json_keys != csv_keys {
                return Err(format!(
                    "{}: config set disagrees with sweep.json",
                    csv_path.display()
                ));
            }
        }
        Ok(sweep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sweep() -> Sweep {
        let mut runs = BTreeMap::new();
        for seed in [1u64, 2, 3] {
            let key = RunKey {
                scenario: "fairness_flows".to_string(),
                approach: "aq".to_string(),
                params: "b_flows=1,horizon_ms=5".to_string(),
                seed,
            };
            let mut m = BTreeMap::new();
            m.insert("jain_goodput".to_string(), 0.9 + 0.01 * seed as f64);
            m.insert("events".to_string(), 1000.0 * seed as f64);
            runs.insert(key, m);
        }
        Sweep::from_runs("unit", runs)
    }

    #[test]
    fn aggregate_math_matches_hand_computation() {
        let a = Aggregate::from_samples(&[1.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!(a.n, 3);
        assert!((a.mean - 2.0).abs() < 1e-12);
        assert!((a.min - 1.0).abs() < 1e-12);
        assert!((a.max - 3.0).abs() < 1e-12);
        // sample sd = 1, ci95 = 1.96/sqrt(3)
        assert!((a.ci95 - 1.96 / 3f64.sqrt()).abs() < 1e-9);

        let single = Aggregate::from_samples(&[5.0]).expect("non-empty");
        assert_eq!(single.n, 1);
        assert!((single.ci95).abs() < 1e-12);
        assert!(Aggregate::from_samples(&[]).is_none());
    }

    #[test]
    fn json_round_trip_reproduces_bytes() {
        let sweep = sample_sweep();
        let rendered = sweep.render_json();
        let parsed = Sweep::parse_json(&rendered).expect("parses");
        assert_eq!(parsed.render_json(), rendered);
        assert_eq!(parsed.runs.len(), 3);
        assert_eq!(parsed.configs.len(), 1);
    }

    #[test]
    fn csv_round_trip_agrees_with_configs() {
        let sweep = sample_sweep();
        let parsed = Sweep::parse_csv(&sweep.render_csv()).expect("parses");
        assert_eq!(parsed.len(), sweep.configs.len());
        let (config, metrics) = parsed.iter().next().expect("one config");
        assert_eq!(config.scenario, "fairness_flows");
        // The comma-bearing params field survives because it is quoted.
        assert_eq!(config.params, "b_flows=1,horizon_ms=5");
        assert!(metrics.contains_key("jain_goodput"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Sweep::parse_json("{").is_err());
        assert!(Sweep::parse_json("{\"sweep\": \"x\"}").is_err());
        assert!(Sweep::parse_csv("bogus,header\n").is_err());
        // Every artifact `render_json`/`render_csv` ever committed carries
        // `failures`, a `kind` per failure and a quoted params field; a
        // document without them is malformed, and the error says what is
        // missing.
        let no_failures = "{\"sweep\": \"x\", \"configs\": [], \"runs\": []}";
        let err = Sweep::parse_json(no_failures).expect_err("`failures` is required");
        assert!(err.contains("`failures`"), "{err}");
        let no_kind = "{\"sweep\": \"x\", \"configs\": [], \"runs\": [], \
                       \"failures\": [{\"scenario\": \"s\", \"approach\": \"aq\", \
                       \"params\": \"a=1\", \"seed\": 2, \"error\": \"boom\"}]}";
        let err = Sweep::parse_json(no_kind).expect_err("`kind` is required");
        assert!(
            err.contains("failures[0]") && err.contains("`kind`"),
            "{err}"
        );
        let bogus_kind = no_kind.replace("\"seed\": 2", "\"seed\": 2, \"kind\": \"bogus\"");
        let err = Sweep::parse_json(&bogus_kind).expect_err("unknown kind");
        assert!(err.contains("unknown kind `bogus`"), "{err}");
        let bare_params = "scenario,approach,params,metric,n,min,mean,max,ci95\n\
                           fairness_flows,aq,a=1,b=2,jain_goodput,3,0.9,0.91,0.92,0.01\n";
        let err = Sweep::parse_csv(bare_params).expect_err("unquoted params");
        assert!(err.contains("line 2: expected 9 fields, got 10"), "{err}");
    }

    #[test]
    fn csv_seed_count_must_be_a_whole_number() {
        let header = "scenario,approach,params,metric,n,min,mean,max,ci95\n";
        let row =
            |n: &str| format!("s,aq,\"a=1\",m,3,0.9,0.91,0.92,0.01\ns,aq,\"a=1\",x,{n},1,1,1,0\n");
        assert!(Sweep::parse_csv(&format!("{header}{}", row("2"))).is_ok());
        for n in ["-3", "2.5", "NaN", "", "1e3"] {
            let err = Sweep::parse_csv(&format!("{header}{}", row(n)))
                .expect_err("a seed count is a u64");
            assert_eq!(err, format!("sweep.csv line 3: bad n `{n}`"));
        }
    }

    #[test]
    fn failures_round_trip_through_json_with_distinct_kinds() {
        let key_of = |seed: u64| RunKey {
            scenario: "fairness_flows".to_string(),
            approach: "aq".to_string(),
            params: "b_flows=9,horizon_ms=5".to_string(),
            seed,
        };
        let sweep = sample_sweep().with_failures(BTreeMap::from([
            (
                key_of(8),
                RunFailure {
                    kind: FailureKind::Panic,
                    message: "boom".to_string(),
                },
            ),
            (
                key_of(9),
                RunFailure {
                    kind: FailureKind::Timeout,
                    message: "run exceeded the 600s wall-clock budget".to_string(),
                },
            ),
        ]));
        let rendered = sweep.render_json();
        let parsed = Sweep::parse_json(&rendered).expect("parses");
        assert_eq!(parsed.failures.len(), 2);
        assert_eq!(parsed.failures[&key_of(8)].kind, FailureKind::Panic);
        assert_eq!(parsed.failures[&key_of(8)].message, "boom");
        assert_eq!(parsed.failures[&key_of(9)].kind, FailureKind::Timeout);
        assert_eq!(parsed.render_json(), rendered);
    }
}
