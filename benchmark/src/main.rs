//! The repo benchmark. See README.md; `run.sh` is the entry point.
//!
//! ```text
//! aq-benchmark [--workload W] [--seed S] [--seconds T] [--label L]   every metric, results.json + trace.json
//! aq-benchmark --workload W --seed S --seconds T --trace 0|1         one workload, one JSON line last
//! aq-benchmark compare A B                                           judge B against base A
//! ```

mod bench;
mod clock;
mod compare;
mod jsonout;
mod probes;
mod procfs;
mod results;
mod spec;
mod stats;
mod trace;
mod unit;
mod workloads;

use aq_bench::json::Json;
use bench::Samples;
use results::{Results, WorkloadResult};
use spec::Spec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Span;
use workloads::{sim, Scale, NAMES};

const RESULTS_DIR: &str = "benchmark/results";

/// Flags as `--name value` pairs after any positional words.
struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: BTreeMap::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    args.flags.insert(name.to_string(), value.clone());
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn number(&self, name: &str) -> Result<Option<u64>, String> {
        self.text(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} needs a whole number, got `{v}`"))
            })
            .transpose()
    }

    fn trace(&self) -> Result<Option<bool>, String> {
        match self.text("trace") {
            None => Ok(None),
            Some("0") => Ok(Some(false)),
            Some("1") => Ok(Some(true)),
            Some(other) => Err(format!("--trace is 0 or 1, got `{other}`")),
        }
    }

    fn workload(&self) -> Result<Option<&'static str>, String> {
        match self.text("workload") {
            None => Ok(None),
            Some(w) => NAMES
                .into_iter()
                .find(|n| *n == w)
                .map(Some)
                .ok_or_else(|| format!("unknown workload `{w}`; there are {NAMES:?}")),
        }
    }
}

fn main() -> ExitCode {
    clock::now_ns(); // Process entry is the clock's origin.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("aq-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw)?;
    match args.positional.first().map(String::as_str) {
        Some("child") => {
            let workload = args.workload()?.ok_or("child needs --workload")?;
            let scale = args
                .text("scale")
                .and_then(Scale::parse)
                .ok_or("child needs --scale full|reference")?;
            let out = PathBuf::from(args.text("out").ok_or("child needs --out")?);
            unit::child(
                workload,
                scale,
                args.number("seed")?.unwrap_or(1),
                args.trace()?.unwrap_or(false),
                &out,
            )?;
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err("compare needs exactly two result sets: compare A B".to_string());
            };
            let (text, pass) = compare::compare(
                &Spec::load()?,
                &Results::load(&results_path(a))?,
                &Results::load(&results_path(b))?,
            )?;
            print!("{text}");
            Ok(if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        Some(other) => Err(format!("unknown command `{other}`")),
        None => measure(&args),
    }
}

/// A label names `benchmark/results/<label>/results.json`; a path to a
/// directory or to the file itself works too.
fn results_path(arg: &str) -> PathBuf {
    let given = Path::new(arg);
    if given.is_file() {
        given.to_path_buf()
    } else if given.is_dir() {
        given.join("results.json")
    } else {
        Path::new(RESULTS_DIR).join(arg).join("results.json")
    }
}

fn measure(args: &Args) -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    let seed = args.number("seed")?.unwrap_or(1);
    let seconds = args.number("seconds")?.unwrap_or(spec.run_seconds);
    let only = args.workload()?;
    let chosen: Vec<&str> = only.map_or(NAMES.to_vec(), |w| vec![w]);
    // With --trace this is one of the acceptance protocol's runs: one
    // workload, either the end-to-end metrics (0) or the per-layer ones
    // (1), as one JSON line. Without it, everything is measured.
    let protocol = args.trace()?;
    if protocol.is_some() && only.is_none() {
        return Err("--trace needs --workload".to_string());
    }

    let mut samples: BTreeMap<String, Samples> =
        bench::run_rounds(&chosen, seed, seconds, protocol == Some(true));
    if protocol.is_none() {
        for &w in &chosen {
            let s = samples.get_mut(w).expect("entry per workload");
            match bench::run_one(w, Scale::Full, seed, true) {
                Ok(rec) => s.traced.push(rec),
                Err(e) => s.lost.push(e),
            }
        }
    }
    let traced = protocol != Some(false);
    let mut reference = Vec::new();
    if traced && only.is_some() {
        let (units, lost) = bench::reference_units(chosen[0], seed);
        reference = units;
        samples.get_mut(chosen[0]).expect("entry").lost.extend(lost);
    }

    if traced {
        let fattree = sim::LONGFLOWS_FATTREE.name;
        let own = samples.get_mut(fattree).and_then(|s| s.traced.first_mut());
        if let Some(unit) = own.or(reference.iter_mut().find(|u| u.workload == fattree)) {
            bench::add_shard_probe(unit);
        }
    }

    let mut results = Results {
        label: args.text("label").unwrap_or("latest").to_string(),
        seed,
        seconds,
        workloads: BTreeMap::new(),
    };
    for &w in &chosen {
        let layers = traced.then(|| {
            let others: Vec<&unit::UnitRecord> = samples
                .iter()
                .filter(|(name, _)| name.as_str() != w)
                .flat_map(|(_, s)| &s.traced)
                .chain(&reference)
                .collect();
            bench::per_layer(w, &samples[w], &others, seed)
        });
        results.workloads.insert(
            w.to_string(),
            WorkloadResult::reduce(&spec, &samples[w], layers),
        );
    }

    for (name, w) in &results.workloads {
        print!("{}", w.table(name));
    }
    let dir = Path::new(RESULTS_DIR).join(&results.label);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    write(&dir.join("results.json"), &results.to_json())?;
    if traced {
        let runs: Vec<(String, Vec<Span>)> = samples
            .values()
            .flat_map(|s| s.traced.iter().enumerate())
            .chain(reference.iter().enumerate())
            .map(|(i, u)| (u.run_id(i), u.spans.clone()))
            .collect();
        write(&dir.join("trace.json"), &trace::chrome_trace(&runs))?;
    }
    println!(
        "wrote {}/results.json{}",
        dir.display(),
        if traced { " and trace.json" } else { "" }
    );

    let failed: u64 = results.workloads.values().map(WorkloadResult::failed).sum();
    match protocol {
        Some(per_layer) => {
            println!(
                "{}",
                jsonout::render(&protocol_line(&results.workloads[chosen[0]], per_layer))
            );
            Ok(ExitCode::SUCCESS)
        }
        None if failed == 0 => Ok(ExitCode::SUCCESS),
        None => {
            eprintln!("aq-benchmark: {failed} failed operation(s); see FAILED lines above");
            Ok(ExitCode::from(1))
        }
    }
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, jsonout::render(doc) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The acceptance protocol's result line for one workload.
fn protocol_line(w: &WorkloadResult, per_layer: bool) -> Json {
    let metric = |value: f64, unit: &str| {
        jsonout::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.to_string())),
        ])
    };
    let metrics = if per_layer {
        jsonout::obj(
            w.layers
                .iter()
                .map(|(name, l)| (name.clone(), metric(l.value, &l.unit))),
        )
    } else {
        jsonout::obj(
            w.metrics
                .iter()
                .map(|(name, s)| (name.clone(), metric(s.median, &s.unit))),
        )
    };
    jsonout::obj([
        ("correct", Json::Bool(w.failed() == 0)),
        ("attempted", Json::Num(w.attempted as f64)),
        ("failed", Json::Num(w.failed() as f64)),
        ("metrics", metrics),
    ])
}
