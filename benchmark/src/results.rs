//! `results.json`: one benchmark run reduced to medians, quartiles,
//! exact counts and digests, so two runs can be judged by `compare` and a
//! speed-only change can show "every simulated statistic identical" by
//! diffing two files.

use crate::bench::{self, Samples, END_TO_END, PER_LAYER};
use crate::jsonout::obj;
use crate::spec::Spec;
use crate::stats;
use aq_bench::json::Json;
use std::collections::BTreeMap;

/// One end-to-end metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub unit: String,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub values: Vec<f64>,
}

impl Summary {
    pub fn of(values: &[f64], unit: &str) -> Summary {
        let (q1, q3) = stats::quartiles(values);
        Summary {
            unit: unit.to_string(),
            median: stats::median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            values: values.to_vec(),
        }
    }

    pub fn n(&self) -> usize {
        self.values.len()
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// One per-layer metric on one workload. `borrowed` marks a layer this
/// workload does not cross, measured on another workload's unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub value: f64,
    pub unit: String,
    pub borrowed: bool,
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResult {
    pub params: String,
    pub metrics: BTreeMap<String, Summary>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub counts: BTreeMap<String, u64>,
    pub digest: String,
    /// Empty when the run was not traced.
    pub layers: BTreeMap<String, Layer>,
}

impl WorkloadResult {
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Reduce a workload's units. `layers` is [`bench::per_layer`]'s
    /// output when the run was traced.
    pub fn reduce(
        spec: &Spec,
        samples: &Samples,
        layers: Option<Result<bench::Layers, String>>,
    ) -> WorkloadResult {
        let (mut attempted, mut failures) = bench::tally(samples);
        let mut result = WorkloadResult::default();
        if let Some(first) = samples.untraced.first().or(samples.traced.first()) {
            result.params = first.params.clone();
            result.counts = first.counts.clone();
            result.digest = first.digest.clone();
        }
        if !samples.untraced.is_empty() {
            for (name, values) in bench::end_to_end_values(samples) {
                let unit = spec.end_to_end(name).map_or("", |m| m.unit.as_str());
                result
                    .metrics
                    .insert(name.to_string(), Summary::of(&values, unit));
            }
        }
        match layers {
            Some(Ok(measured)) => {
                for m in &spec.per_layer {
                    if let Some(&(value, borrowed)) = measured.get(&m.name) {
                        result.layers.insert(
                            m.name.clone(),
                            Layer {
                                value,
                                unit: m.unit.clone(),
                                borrowed,
                            },
                        );
                    }
                }
            }
            Some(Err(e)) => {
                attempted += 1;
                failures.push(e);
            }
            None => {}
        }
        result.attempted = attempted;
        result.failures = failures;
        result
    }

    fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        obj([
            ("params", Json::Str(self.params.clone())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("report_digest", Json::Str(self.digest.clone())),
            (
                "counts",
                obj(self
                    .counts
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))),
            ),
            (
                "end_to_end",
                obj(self.metrics.iter().map(|(name, s)| {
                    let body = obj([
                        ("unit", Json::Str(s.unit.clone())),
                        ("median", Json::Num(s.median)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("min", Json::Num(s.min)),
                        ("max", Json::Num(s.max)),
                        ("n", Json::Num(s.n() as f64)),
                        ("values", nums(&s.values)),
                    ]);
                    (name.clone(), body)
                })),
            ),
            (
                "per_layer",
                obj(self.layers.iter().map(|(name, l)| {
                    let body = obj([
                        ("value", Json::Num(l.value)),
                        ("unit", Json::Str(l.unit.clone())),
                        ("borrowed", Json::Bool(l.borrowed)),
                    ]);
                    (name.clone(), body)
                })),
            ),
        ])
    }

    fn from_json(doc: &Json) -> Result<WorkloadResult, String> {
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| format!("results: workload without `{k}`"))
        };
        let members = |k: &str| {
            field(k)?
                .as_obj()
                .ok_or(format!("results: `{k}` is not an object"))
        };
        let text = |d: &Json, k: &str| {
            d.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("results: missing `{k}`"))
        };
        let num = |d: &Json, k: &str| {
            d.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("results: missing `{k}`"))
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in members("end_to_end")? {
            let values = m
                .get("values")
                .and_then(Json::as_arr)
                .ok_or("results: metric without `values`")?
                .iter()
                .map(|v| v.as_f64().ok_or("results: non-numeric value".to_string()))
                .collect::<Result<Vec<f64>, String>>()?;
            metrics.insert(
                name.clone(),
                Summary {
                    unit: text(m, "unit")?,
                    median: num(m, "median")?,
                    q1: num(m, "q1")?,
                    q3: num(m, "q3")?,
                    min: num(m, "min")?,
                    max: num(m, "max")?,
                    values,
                },
            );
        }
        let mut layers = BTreeMap::new();
        for (name, l) in members("per_layer")? {
            layers.insert(
                name.clone(),
                Layer {
                    value: num(l, "value")?,
                    unit: text(l, "unit")?,
                    borrowed: l
                        .get("borrowed")
                        .and_then(Json::as_bool)
                        .ok_or("results: layer without `borrowed`")?,
                },
            );
        }
        Ok(WorkloadResult {
            params: text(doc, "params")?,
            metrics,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("results: bad `attempted`")?,
            failures: field("failures")?
                .as_arr()
                .ok_or("results: bad `failures`")?
                .iter()
                .map(|f| {
                    f.as_str()
                        .map(str::to_string)
                        .ok_or("results: bad failure line".to_string())
                })
                .collect::<Result<_, _>>()?,
            counts: members("counts")?
                .iter()
                .map(|(k, v)| {
                    Ok((
                        k.clone(),
                        v.as_u64().ok_or(format!("results: count `{k}`"))?,
                    ))
                })
                .collect::<Result<_, String>>()?,
            digest: text(doc, "report_digest")?,
            layers,
        })
    }

    /// Every metric by name and unit, as text.
    pub fn table(&self, name: &str) -> String {
        let mut out = format!(
            "== {name}  [{}]\n   ops attempted {}  failed {}  report_digest {}\n",
            self.params,
            self.attempted,
            self.failed(),
            self.digest
        );
        for failure in &self.failures {
            out.push_str(&format!("   FAILED: {failure}\n"));
        }
        for metric in END_TO_END {
            if let Some(s) = self.metrics.get(metric) {
                out.push_str(&format!(
                    "   {metric:<34} {:>16.6} {:<6} q1 {:.6}  q3 {:.6}  min {:.6}  max {:.6}  n {}\n",
                    s.median,
                    s.unit,
                    s.q1,
                    s.q3,
                    s.min,
                    s.max,
                    s.n()
                ));
            }
        }
        for metric in PER_LAYER {
            if let Some(l) = self.layers.get(metric) {
                let note = if l.borrowed {
                    "  (layer not crossed here; measured on another workload's unit)"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "   {metric:<34} {:>16.6} {:<6}{note}\n",
                    l.value, l.unit
                ));
            }
        }
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        out.push_str(&format!("   counts: {}\n", counts.join(" ")));
        out
    }
}

/// A whole run: every workload at one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub label: String,
    pub seed: u64,
    pub seconds: u64,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

impl Results {
    pub fn to_json(&self) -> Json {
        obj([
            ("label", Json::Str(self.label.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            (
                "workloads",
                obj(self
                    .workloads
                    .iter()
                    .map(|(name, w)| (name.clone(), w.to_json()))),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Results, String> {
        let int = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("results: missing `{k}`"))
        };
        Ok(Results {
            label: doc
                .get("label")
                .and_then(Json::as_str)
                .ok_or("results: missing `label`")?
                .to_string(),
            seed: int("seed")?,
            seconds: int("seconds")?,
            workloads: doc
                .get("workloads")
                .and_then(Json::as_obj)
                .ok_or("results: missing `workloads`")?
                .iter()
                .map(|(name, w)| Ok((name.clone(), WorkloadResult::from_json(w)?)))
                .collect::<Result<_, String>>()?,
        })
    }

    pub fn load(path: &std::path::Path) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = aq_bench::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Results::from_json(&doc)
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub fn workload(run_s: &[f64], digest: &str) -> WorkloadResult {
        WorkloadResult {
            params: "p".to_string(),
            metrics: BTreeMap::from([("run_s".to_string(), Summary::of(run_s, "s"))]),
            attempted: 10,
            failures: Vec::new(),
            counts: BTreeMap::from([("events".to_string(), 28_325_076)]),
            digest: digest.to_string(),
            layers: BTreeMap::from([(
                "netsim.sim.ns_per_event".to_string(),
                Layer {
                    value: 92.6,
                    unit: "ns".to_string(),
                    borrowed: true,
                },
            )]),
        }
    }

    #[test]
    fn summary_reports_median_quartiles_and_range() {
        let s = Summary::of(&[2.0, 1.0, 4.0, 3.0, 7.0, 6.0, 5.0], "s");
        assert_eq!(
            (s.median, s.q1, s.q3, s.min, s.max, s.n()),
            (4.0, 2.0, 6.0, 1.0, 7.0, 7)
        );
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    fn results_round_trip_through_the_repo_json_reader() {
        let mut w = workload(&[2.61, 2.6, 2.63], "00ab");
        w.failures.push("digest differs".to_string());
        let results = Results {
            label: "base".to_string(),
            seed: 7,
            seconds: 20,
            workloads: BTreeMap::from([("longflows_fattree".to_string(), w)]),
        };
        let text = crate::jsonout::render(&results.to_json());
        let back =
            Results::from_json(&aq_bench::json::parse(&text).expect("parses")).expect("results");
        assert_eq!(back, results);
        let table = results.workloads["longflows_fattree"].table("longflows_fattree");
        assert!(table.contains("run_s") && table.contains("FAILED: digest differs"));
        assert!(table.contains("netsim.sim.ns_per_event") && table.contains("not crossed"));
    }
}
