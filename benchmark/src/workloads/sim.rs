//! The two long simulation workloads: one registry scenario each, run to
//! its horizon, reported, parsed back and checked by the oracle.

use super::{add_report_counts, count_layers, fnv64, uses_red, Scale, UnitOutput, FNV_SEED};
use crate::clock;
use crate::stats;
use crate::trace::Tracer;
use aq_bench::report::RunReport;
use aq_bench::{build_experiment, pq_ecn_for, run_sharded_until, Approach, ExpConfig, Experiment};
use aq_harness::oracle;
use aq_netsim::time::{Duration, Time};
use aq_workloads::registry::{self, Params, RunPlan, ScenarioPlan};
use std::path::Path;

pub struct SimWorkload {
    pub name: &'static str,
    pub scenario: &'static str,
    pub full: Size,
    pub reference: Size,
}

pub struct Size {
    /// Registry parameter overrides.
    pub params: &'static str,
    /// `run_until` advances in slices of this much simulated time, traced
    /// or not, so both kinds of run make the same calls. A traced run
    /// records a span per slice; every size makes at least 100, enough
    /// for a p90 with ten samples beyond it.
    pub slice: Duration,
    /// Stop at the first slice boundary by which this many events have
    /// been processed, if that comes before the horizon.
    pub event_budget: u64,
}

pub const LONGFLOWS_FATTREE: SimWorkload = SimWorkload {
    name: "longflows_fattree",
    scenario: "interpod_fattree",
    full: Size {
        params: "a_flows=1,b_flows=4,horizon_ms=1000",
        slice: Duration::from_millis(10),
        event_budget: u64::MAX,
    },
    reference: Size {
        params: "a_flows=1,b_flows=4,horizon_ms=100",
        slice: Duration::from_millis(1),
        event_budget: u64::MAX,
    },
};

pub const WEBSEARCH_SHAREDBUF: SimWorkload = SimWorkload {
    name: "websearch_sharedbuf",
    scenario: "websearch_aqm_zoo",
    full: Size {
        params: "aqm=1,load=0.8,n_flows=2000,pool_kb=150,horizon_ms=2000",
        slice: Duration::from_millis(10),
        // The seed draws 4000 flow sizes from a heavy-tailed distribution,
        // so the bytes offered up to the horizon swing by +-10 % between
        // seeds, and run_s, report_s and peak_rss_mb with them. Every
        // seed offers more than this many events' worth; stopping there
        // makes the work the same whatever the seed (all but ~60 of the
        // 4000 flows complete).
        event_budget: 20_000_000,
    },
    reference: Size {
        params: "aqm=1,load=0.8,n_flows=200,pool_kb=150,horizon_ms=200",
        slice: Duration::from_millis(1),
        event_budget: u64::MAX,
    },
};

impl SimWorkload {
    fn size(&self, scale: Scale) -> &Size {
        match scale {
            Scale::Full => &self.full,
            Scale::Reference => &self.reference,
        }
    }
}

fn build(
    w: &SimWorkload,
    params: &str,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(ScenarioPlan, Experiment), String> {
    let def = registry::find(w.scenario).ok_or_else(|| format!("no scenario `{}`", w.scenario))?;
    let plan = tr.span("def.build", |_| -> Result<ScenarioPlan, String> {
        let resolved = def.resolve(&Params::parse(params)?)?;
        Ok((def.build)(&resolved))
    })?;
    let exp = tr.span("build_experiment", |_| {
        build_experiment(
            Approach::Aq,
            &plan,
            ExpConfig {
                seed,
                ecn_threshold: pq_ecn_for(Approach::Aq, &plan.entities),
                ..Default::default()
            },
        )
    });
    Ok((plan, exp))
}

fn horizon_of(plan: &ScenarioPlan) -> Result<Duration, String> {
    match plan.run {
        RunPlan::FixedHorizon { horizon } => Ok(horizon),
        RunPlan::UntilComplete { .. } => Err("sim workloads run to a fixed horizon".to_string()),
    }
}

pub fn run(
    w: &SimWorkload,
    scale: Scale,
    seed: u64,
    out_dir: &Path,
    tr: &mut Tracer,
) -> Result<UnitOutput, String> {
    let size = w.size(scale);
    let mut out = UnitOutput {
        params: format!(
            "{} aq {} events<={}",
            w.scenario, size.params, size.event_budget
        ),
        attempted: 1,
        ..UnitOutput::default()
    };

    let (plan, mut exp) = tr.phase("setup", |tr| build(w, size.params, seed, tr))?;
    let horizon = horizon_of(&plan)?;
    let red = uses_red(&Params::parse(size.params)?);

    tr.phase("run", |tr| {
        let mut now = Duration::ZERO;
        while now < horizon && exp.sim.processed_events < size.event_budget {
            now = (now + size.slice).min(horizon);
            tr.span("run_until.slice", |_| exp.sim.run_until(Time::ZERO + now));
        }
    });

    let report_json = tr.phase("report", |tr| -> Result<String, String> {
        let mut rep = RunReport::new(w.name);
        tr.span("capture", |_| rep.capture("run", &mut exp.sim));
        let files = tr.span("render", |_| rep.render());
        let dir = tr
            .span("write_to", |_| rep.write_to(out_dir))
            .map_err(|e| format!("writing the run report: {e}"))?;
        let path = dir.join("report.json");
        let text = tr
            .span("read", |_| std::fs::read_to_string(&path))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if files
            .iter()
            .find(|(name, _)| *name == "report.json")
            .map(|(_, t)| t)
            != Some(&text)
        {
            out.failures
                .push("report.json on disk differs from the rendered bytes".to_string());
        }
        let parsed = tr.span("parse_json", |_| RunReport::parse_json(&text))?;
        let violations = tr.span("check_report", |_| oracle::check_report(&parsed));
        out.failures.extend(violations);
        add_report_counts(&parsed, red, &mut out.counts)?;
        Ok(text)
    })?;
    out.digest = fnv64(report_json.as_bytes(), FNV_SEED);
    out.pkts = out.counts["tx_pkts"];
    out.counts
        .insert("report_bytes".to_string(), report_json.len() as u64);

    tr.phase("teardown", |_| drop(exp));

    if tr.detail() {
        native_layers(tr, &mut out);
    }
    Ok(out)
}

fn native_layers(tr: &Tracer, out: &mut UnitOutput) {
    let slices = tr.durations_ms("run_until.slice");
    if stats::highest_supported_percentile(slices.len()) < Some(90.0) {
        out.failures
            .push(format!("{} slices cannot support a p90", slices.len()));
    }
    let ms = |name: &str| clock::millis(tr.total_ns(name));
    let layers = [
        ("netsim.sim.slice_ms_p50", stats::median(&slices)),
        ("netsim.sim.slice_ms_p90", stats::percentile(&slices, 90.0)),
        ("workloads.registry.build_ms", ms("def.build")),
        ("bench.build_experiment_ms", ms("build_experiment")),
        ("bench.report.capture_ms", ms("capture")),
        ("bench.report.render_ms", ms("render")),
        ("bench.report.write_ms", ms("write_to")),
        ("harness.oracle.check_ms", ms("check_report")),
    ];
    let counted = count_layers(&out.counts, tr.total_ns("run"), tr.total_ns("parse_json"));
    out.layers.extend(
        counted
            .into_iter()
            .chain(layers)
            .map(|(k, v)| (k.to_string(), v)),
    );
}

/// Time `longflows_fattree` — the one shardable topology — on the
/// sharded engine with two workers. It has no end-to-end metric (the
/// reference engine is what users run), but the number decides what
/// becomes of `shard.rs` (ROADMAP). Returns the host seconds `run_until`
/// took and the digest of the report, which must equal the reference
/// engine's.
pub fn shard_probe(scale: Scale, seed: u64) -> Result<(f64, u64), String> {
    let w = &LONGFLOWS_FATTREE;
    let (plan, exp) = build(w, w.size(scale).params, seed, &mut Tracer::new(false))?;
    let until = Time::ZERO + horizon_of(&plan)?;
    let Experiment {
        sim, shard_plan, ..
    } = exp;
    let (mut merged, ns) = clock::timed(|| run_sharded_until(sim, &shard_plan, 2, until));
    let mut rep = RunReport::new(w.name);
    rep.capture("run", &mut merged);
    Ok((
        clock::secs(ns),
        fnv64(rep.render_json().as_bytes(), FNV_SEED),
    ))
}
