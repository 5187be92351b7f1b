//! One unit = one fresh child process of the benchmark binary, so page
//! faults, allocator state and the peak resident set are per repeat. The
//! child prints one JSON line; this module is both ends of that line.

use crate::clock;
use crate::jsonout::{obj, render};
use crate::procfs;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{self, Scale};
use aq_bench::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// A child that takes this long is hung: the slowest unit is ~6 s.
const UNIT_TIMEOUT_S: u64 = 60;

/// What the parent knows about one finished unit.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitRecord {
    pub workload: String,
    pub scale: Scale,
    pub seed: u64,
    pub traced: bool,
    pub params: String,
    pub setup_s: f64,
    pub run_s: f64,
    pub report_s: f64,
    /// Child `main` entry to the end of teardown.
    pub wall_s: f64,
    pub pkts: u64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub counts: BTreeMap<String, u64>,
    pub digest: String,
    pub layers: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

impl UnitRecord {
    pub fn pkts_per_sec(&self) -> f64 {
        self.pkts as f64 / self.run_s
    }

    /// `<workload>[@reference]#<traced|untraced>` — the run id spans carry.
    pub fn run_id(&self, index: usize) -> String {
        let scale = if self.scale == Scale::Reference {
            "@reference"
        } else {
            ""
        };
        let mode = if self.traced { "traced" } else { "untraced" };
        format!("{}{scale}#{mode}{index}", self.workload)
    }

    pub fn to_json(&self) -> Json {
        let nums =
            |m: &BTreeMap<String, f64>| obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
        obj([
            ("workload", Json::Str(self.workload.clone())),
            ("scale", Json::Str(self.scale.name().to_string())),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("params", Json::Str(self.params.clone())),
            ("setup_s", Json::Num(self.setup_s)),
            ("run_s", Json::Num(self.run_s)),
            ("report_s", Json::Num(self.report_s)),
            ("wall_s", Json::Num(self.wall_s)),
            ("pkts", Json::Num(self.pkts as f64)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("attempted", Json::Num(self.attempted as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "counts",
                obj(self
                    .counts
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))),
            ),
            ("digest", Json::Str(self.digest.clone())),
            ("layers", nums(&self.layers)),
            ("spans", trace::spans_to_json(&self.spans)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<UnitRecord, String> {
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| format!("unit record: missing `{k}`"))
        };
        let text = |k: &str| {
            Ok::<_, String>(
                field(k)?
                    .as_str()
                    .ok_or(format!("unit record: `{k}` is not a string"))?
                    .to_string(),
            )
        };
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or(format!("unit record: `{k}` is not a number"))
        };
        let int = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or(format!("unit record: `{k}` is not a count"))
        };
        let members = |k: &str| {
            field(k)?
                .as_obj()
                .ok_or(format!("unit record: `{k}` is not an object"))
        };
        Ok(UnitRecord {
            workload: text("workload")?,
            scale: Scale::parse(&text("scale")?).ok_or("unit record: bad `scale`")?,
            seed: int("seed")?,
            traced: field("traced")?
                .as_bool()
                .ok_or("unit record: bad `traced`")?,
            params: text("params")?,
            setup_s: num("setup_s")?,
            run_s: num("run_s")?,
            report_s: num("report_s")?,
            wall_s: num("wall_s")?,
            pkts: int("pkts")?,
            peak_rss_mb: num("peak_rss_mb")?,
            attempted: int("attempted")?,
            failures: field("failures")?
                .as_arr()
                .ok_or("unit record: bad `failures`")?
                .iter()
                .map(|f| {
                    f.as_str()
                        .map(str::to_string)
                        .ok_or("unit record: bad failure line".to_string())
                })
                .collect::<Result<_, _>>()?,
            counts: members("counts")?
                .iter()
                .map(|(k, v)| {
                    Ok((
                        k.clone(),
                        v.as_u64().ok_or(format!("unit record: count `{k}`"))?,
                    ))
                })
                .collect::<Result<_, String>>()?,
            digest: text("digest")?,
            layers: members("layers")?
                .iter()
                .map(|(k, v)| {
                    Ok((
                        k.clone(),
                        v.as_f64().ok_or(format!("unit record: layer `{k}`"))?,
                    ))
                })
                .collect::<Result<_, String>>()?,
            spans: trace::spans_from_json(field("spans")?)?,
        })
    }
}

/// The child side: run one unit and print its record as the last line of
/// standard output. `setup_s` runs from process entry (the clock's
/// origin) to the end of the set-up phase, so anything the program does
/// before the first timed operation counts as set-up.
pub fn child(
    workload: &str,
    scale: Scale,
    seed: u64,
    traced: bool,
    out_dir: &Path,
) -> Result<(), String> {
    let mut tr = Tracer::new(traced);
    let out = workloads::run_unit(workload, scale, seed, out_dir, &mut tr)?;
    let wall_ns = clock::now_ns();
    let phase_end = |name: &str| -> Result<u64, String> {
        tr.spans()
            .iter()
            .find(|s| s.parent.is_none() && s.name == name)
            .map(|s| s.end_ns)
            .ok_or_else(|| format!("workload recorded no `{name}` phase"))
    };
    let mut failures = out.failures;
    let coverage = trace::top_level_coverage(tr.spans(), wall_ns);
    if coverage < 0.95 {
        failures.push(format!(
            "top-level spans cover only {:.1}% of the unit",
            coverage * 100.0
        ));
    }
    let record = UnitRecord {
        workload: workload.to_string(),
        scale,
        seed,
        traced,
        params: out.params,
        setup_s: clock::secs(phase_end("setup")?),
        run_s: clock::secs(tr.total_ns("run")),
        report_s: clock::secs(tr.total_ns("report")),
        wall_s: clock::secs(wall_ns),
        pkts: out.pkts,
        peak_rss_mb: procfs::status_kb("VmHWM")? as f64 / 1024.0,
        attempted: out.attempted,
        failures,
        counts: out.counts,
        digest: format!("{:016x}", out.digest),
        layers: out.layers,
        spans: if traced {
            tr.spans().to_vec()
        } else {
            Vec::new()
        },
    };
    println!("{}", render(&record.to_json()));
    Ok(())
}

/// The parent side: spawn this same binary as a child for one unit, wait
/// for it, and parse its record. A child that dies, hangs or prints
/// nonsense is an error the caller counts as a failed unit.
pub fn spawn(
    workload: &str,
    scale: Scale,
    seed: u64,
    traced: bool,
    out_dir: &Path,
) -> Result<UnitRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(["child", "--workload", workload, "--scale", scale.name()])
        .args([
            "--seed",
            &seed.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning a unit: {e}"))?;
    // The record is a few hundred kB at most, but a traced one can exceed
    // the pipe buffer: drain stdout on a thread while the watchdog waits.
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        std::io::Read::read_to_string(&mut stdout, &mut text).map(|_| text)
    });
    let deadline = clock::now_ns() + UNIT_TIMEOUT_S * 1_000_000_000;
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("waiting for a unit: {e}"))?
        {
            Some(status) => break status,
            None if clock::now_ns() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!(
                    "{workload}: unit exceeded {UNIT_TIMEOUT_S} s and was killed"
                ));
            }
            None => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "unit output reader panicked".to_string())?
        .map_err(|e| format!("reading a unit's output: {e}"))?;
    if !status.success() {
        return Err(format!("{workload}: unit exited with {status}"));
    }
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: unit printed nothing"))?;
    let doc = json::parse(line).map_err(|e| format!("{workload}: unit record: {e}"))?;
    UnitRecord::from_json(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_record_round_trips_through_the_repo_json_reader() {
        let record = UnitRecord {
            workload: "sweep_grid".to_string(),
            scale: Scale::Reference,
            seed: 7,
            traced: true,
            params: "smoke jobs=1".to_string(),
            setup_s: 0.000_123_456,
            run_s: 4.012_345_678_9,
            report_s: 0.7,
            wall_s: 4.8,
            pkts: 28_325_076,
            peak_rss_mb: 528.25,
            attempted: 114,
            failures: vec!["a \"quoted\" failure\nover two lines".to_string()],
            counts: BTreeMap::from([("events".to_string(), 28_325_076), ("drops".to_string(), 0)]),
            digest: "00ab54a98ceb1f0a".to_string(),
            layers: BTreeMap::from([("netsim.sim.ns_per_event".to_string(), 92.61)]),
            spans: vec![Span {
                name: "run".to_string(),
                start_ns: 10,
                end_ns: 20,
                parent: None,
            }],
        };
        let text = render(&record.to_json());
        let back = UnitRecord::from_json(&json::parse(&text).expect("parses")).expect("record");
        assert_eq!(back, record);
        assert_eq!(record.run_id(2), "sweep_grid@reference#traced2");
    }
}
