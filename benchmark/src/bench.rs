//! The parent side of a benchmark run: schedule units round-robin,
//! gather their records, run the replay probes, and reduce everything to
//! named metrics.

use crate::clock;
use crate::probes::{self, Shape};
use crate::stats;
use crate::unit::{self, UnitRecord};
use crate::workloads::{sim, Scale, NAMES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// End-to-end metric names, in reporting order.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "run_s",
    "report_s",
    "pkts_per_sec",
    "peak_rss_mb",
];

/// Per-layer metric names, in reporting order: what a traced run must
/// produce for every workload, no more and no less.
pub const PER_LAYER: [&str; 62] = [
    "netsim.sim.events",
    "netsim.sim.ns_per_event",
    "netsim.sim.events_per_pkt",
    "netsim.sim.slice_ms_p50",
    "netsim.sim.slice_ms_p90",
    "netsim.sim.residual_share",
    "netsim.event.push_pop_ns",
    "netsim.event.share_est",
    "netsim.packet.alloc_take_ns",
    "netsim.packet.share_est",
    "netsim.queue.fifo_enq_deq_ns",
    "netsim.queue.red_enq_deq_ns",
    "netsim.queue.drops",
    "netsim.queue.ecn_marks",
    "netsim.queue.share_est",
    "netsim.buffer.admit_cycle_ns",
    "netsim.buffer.rejects",
    "netsim.buffer.share_est",
    "netsim.stats.record_ns",
    "netsim.stats.percentile_ms",
    "netsim.stats.share_est",
    "netsim.shard.run_s_jobs2",
    "netsim.shard.speedup_jobs2",
    "core.gap.on_packet_ns",
    "core.table.process_small_ns",
    "core.pipeline.ingress_ns",
    "core.pipeline.limit_drops",
    "core.pipeline.marks",
    "core.pipeline.share_est",
    "core.table.probe_cold_ns",
    "core.table.probe_hot_ns",
    "core.table.deploy_ns",
    "core.table.evict_ms",
    "core.table.host_bytes_per_aq",
    "core.table.register_bytes_per_aq",
    "transport.sender.on_ack_ns",
    "transport.sender.on_ack_sack_ns",
    "transport.receiver.on_data_ns",
    "transport.cc.cubic_on_ack_ns",
    "transport.cc.dctcp_on_ack_ns",
    "transport.flows_completed",
    "transport.share_est",
    "workloads.registry.build_ms",
    "bench.build_experiment_ms",
    "bench.report.capture_ms",
    "bench.report.render_ms",
    "bench.report.write_ms",
    "bench.report.parse_ms",
    "bench.report.bytes",
    "bench.json.parse_mb_per_s",
    "bench.report.aqs_csv_rows_per_s",
    "harness.sweep.run_ms_p50",
    "harness.sweep.run_ms_p90",
    "harness.pool.task_overhead_us",
    "harness.agg.from_runs_ms",
    "harness.agg.write_ms",
    "harness.agg.load_dir_ms",
    "harness.diff.diff_ms",
    "harness.drill.drill_ms",
    "harness.oracle.check_ms",
    "harness.trends.check_ms",
    "trace.overhead_frac",
];

/// Units always run at least this often (pairs of an untraced and a
/// traced unit: twice), so quartiles mean something even when one unit
/// outlasts the time budget.
const MIN_UNITS: usize = 3;
const MIN_PAIRS: usize = 2;

/// Where units put their artifacts; emptied after each one.
const SCRATCH: &str = "benchmark/results/tmp";

/// Per-layer metric values by name, each with whether it was borrowed:
/// measured on another workload's unit because this one does not cross
/// the layer.
pub type Layers = BTreeMap<String, (f64, bool)>;

/// Everything measured for one workload.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub untraced: Vec<UnitRecord>,
    pub traced: Vec<UnitRecord>,
    /// Units that died, hung or printed no record.
    pub lost: Vec<String>,
}

fn scratch_dir(workload: &str) -> PathBuf {
    Path::new(SCRATCH).join(format!("{workload}-{}", std::process::id()))
}

/// Spawn one unit and clean up after it.
pub fn run_one(
    workload: &str,
    scale: Scale,
    seed: u64,
    traced: bool,
) -> Result<UnitRecord, String> {
    let dir = scratch_dir(workload);
    let record = unit::spawn(workload, scale, seed, traced, &dir);
    // Best effort: a unit that died early may have created nothing.
    let _ = std::fs::remove_dir_all(&dir);
    record
}

/// Run units of `workloads` round-robin — so a slow phase of the host
/// lands on all of them — until each has measured for `seconds`. With
/// `traced`, every untraced unit is followed by a traced one of the same
/// workload, which is what `trace.overhead_frac` compares.
pub fn run_rounds(
    workloads: &[&str],
    seed: u64,
    seconds: u64,
    traced: bool,
) -> BTreeMap<String, Samples> {
    let budget_ns = seconds * 1_000_000_000;
    let mut all: BTreeMap<String, Samples> = workloads
        .iter()
        .map(|w| (w.to_string(), Samples::default()))
        .collect();
    let mut spent_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut started: BTreeMap<&str, usize> = BTreeMap::new();
    let at_least = if traced { MIN_PAIRS } else { MIN_UNITS };
    loop {
        let mut ran = false;
        for &w in workloads {
            if spent_ns.get(w).copied().unwrap_or(0) >= budget_ns
                && started.get(w).copied().unwrap_or(0) >= at_least
            {
                continue;
            }
            ran = true;
            *started.entry(w).or_default() += 1;
            let samples = all.get_mut(w).expect("entry per workload");
            let begin = clock::now_ns();
            for trace in [false, true] {
                if trace && !traced {
                    continue;
                }
                match run_one(w, Scale::Full, seed, trace) {
                    Ok(rec) if trace => samples.traced.push(rec),
                    Ok(rec) => samples.untraced.push(rec),
                    Err(e) => samples.lost.push(e),
                }
            }
            *spent_ns.entry(w).or_default() += clock::now_ns() - begin;
        }
        if !ran {
            return all;
        }
    }
}

/// Operations attempted and failed over a workload's units. Each unit
/// after the first adds one operation: its digest and exact counts must
/// equal the first unit's, traced or not — same seed, same bytes.
pub fn tally(samples: &Samples) -> (u64, Vec<String>) {
    let mut attempted = samples.lost.len() as u64;
    let mut failures: Vec<String> = samples.lost.clone();
    let units: Vec<&UnitRecord> = samples.untraced.iter().chain(&samples.traced).collect();
    for (i, u) in units.iter().enumerate() {
        attempted += u.attempted;
        // A unit cannot fail more operations than it attempted, however
        // many lines its checks printed.
        failures.extend(u.failures.iter().take(u.attempted as usize).cloned());
        if i > 0 {
            attempted += 1;
            let first = units[0];
            if u.digest != first.digest || u.counts != first.counts {
                failures.push(format!(
                    "{}: unit {i} ({}) differs from unit 0: digest {} vs {}",
                    u.workload,
                    if u.traced { "traced" } else { "untraced" },
                    u.digest,
                    first.digest
                ));
            }
        }
    }
    (attempted.max(1), failures)
}

/// The end-to-end metrics of a workload: one value per untraced unit.
pub fn end_to_end_values(samples: &Samples) -> BTreeMap<&'static str, Vec<f64>> {
    let of = |f: fn(&UnitRecord) -> f64| samples.untraced.iter().map(f).collect::<Vec<f64>>();
    BTreeMap::from([
        ("setup_s", of(|u| u.setup_s)),
        ("run_s", of(|u| u.run_s)),
        ("report_s", of(|u| u.report_s)),
        ("pkts_per_sec", of(UnitRecord::pkts_per_sec)),
        ("peak_rss_mb", of(|u| u.peak_rss_mb)),
    ])
}

/// The per-layer metrics of `workload`: what its own traced units
/// measured (medians over them), then — for layers it does not cross —
/// what `others` measured, then the replay probes shaped by its counts.
pub fn per_layer(
    workload: &str,
    samples: &Samples,
    others: &[&UnitRecord],
    seed: u64,
) -> Result<Layers, String> {
    let first = samples
        .traced
        .first()
        .ok_or_else(|| format!("{workload}: no traced unit finished"))?;
    let mut out = Layers::new();
    for name in first.layers.keys() {
        let values: Vec<f64> = samples
            .traced
            .iter()
            .filter_map(|u| u.layers.get(name).copied())
            .collect();
        out.insert(name.clone(), (stats::median(&values), false));
    }
    // Fallbacks in workload order, so which unit a borrowed number comes
    // from does not depend on scheduling.
    for name in NAMES {
        for other in others.iter().filter(|o| o.workload == name) {
            for (k, v) in &other.layers {
                out.entry(k.clone()).or_insert((*v, true));
            }
        }
    }

    let traced_run_s = stats::median(&samples.traced.iter().map(|u| u.run_s).collect::<Vec<_>>());
    let shape = Shape::from_counts(&first.counts, traced_run_s);
    for (k, v) in probes::run(&shape, seed) {
        out.insert(k, (v, false));
    }
    if !samples.untraced.is_empty() {
        let untraced_run_s =
            stats::median(&samples.untraced.iter().map(|u| u.run_s).collect::<Vec<_>>());
        out.insert(
            "trace.overhead_frac".to_string(),
            (traced_run_s / untraced_run_s - 1.0, false),
        );
    }

    let missing: Vec<&str> = PER_LAYER
        .iter()
        .copied()
        .filter(|n| !out.contains_key(*n))
        .collect();
    let extra: Vec<&String> = out
        .keys()
        .filter(|k| !PER_LAYER.contains(&k.as_str()))
        .collect();
    if !missing.is_empty() || !extra.is_empty() {
        return Err(format!(
            "{workload}: per-layer metrics missing {missing:?}, unexpected {extra:?}"
        ));
    }
    Ok(out)
}

/// Time the sharded engine against `fattree`, a traced unit of
/// `longflows_fattree`, and record the result as that unit's own layer
/// metrics. A sharded run that renders other bytes than the reference
/// engine did is a failed operation of that unit.
pub fn add_shard_probe(fattree: &mut UnitRecord) {
    fattree.attempted += 1;
    match sim::shard_probe(fattree.scale, fattree.seed) {
        Ok((jobs2_s, digest)) => {
            if format!("{digest:016x}") != fattree.digest {
                fattree
                    .failures
                    .push("sharded run (jobs=2) rendered a different report.json".to_string());
            }
            fattree
                .layers
                .insert("netsim.shard.run_s_jobs2".to_string(), jobs2_s);
            fattree.layers.insert(
                "netsim.shard.speedup_jobs2".to_string(),
                fattree.run_s / jobs2_s,
            );
        }
        Err(e) => fattree.failures.push(format!("shard probe: {e}")),
    }
}

/// One traced reference-size unit of every workload but `workload`.
pub fn reference_units(workload: &str, seed: u64) -> (Vec<UnitRecord>, Vec<String>) {
    let mut units = Vec::new();
    let mut lost = Vec::new();
    for other in NAMES.into_iter().filter(|n| *n != workload) {
        match run_one(other, Scale::Reference, seed, true) {
            Ok(rec) => units.push(rec),
            Err(e) => lost.push(e),
        }
    }
    (units, lost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(workload: &str, traced: bool, digest: &str) -> UnitRecord {
        UnitRecord {
            workload: workload.to_string(),
            scale: Scale::Full,
            seed: 1,
            traced,
            params: String::new(),
            setup_s: 0.1,
            run_s: 2.0,
            report_s: 0.5,
            wall_s: 2.7,
            pkts: 1000,
            peak_rss_mb: 10.0,
            attempted: 4,
            failures: Vec::new(),
            counts: BTreeMap::from([("events".to_string(), 5)]),
            digest: digest.to_string(),
            layers: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn tally_counts_ops_digest_checks_and_lost_units() {
        let mut s = Samples {
            untraced: vec![unit("w", false, "aa"), unit("w", false, "aa")],
            traced: vec![unit("w", true, "aa")],
            lost: Vec::new(),
        };
        // 3 units x 4 ops + 2 same-bytes checks.
        assert_eq!(tally(&s), (14, Vec::new()));

        s.traced[0].digest = "bb".to_string();
        s.untraced[1].failures = vec!["x".to_string(); 9];
        s.lost.push("unit exited with signal 9".to_string());
        let (attempted, failures) = tally(&s);
        assert_eq!(attempted, 15);
        // The lost unit, 4 of the 9 lines (a unit fails at most what it
        // attempted), and the traced digest mismatch.
        assert_eq!(failures.len(), 1 + 4 + 1);
        assert!(failures.last().expect("mismatch").contains("traced"));

        s.untraced[1].counts.insert("events".to_string(), 6);
        assert_eq!(tally(&s).1.len(), 1 + 4 + 2);
        assert_eq!(tally(&Samples::default()).0, 1);
    }

    #[test]
    fn end_to_end_values_cover_every_named_metric() {
        let s = Samples {
            untraced: vec![unit("w", false, "aa")],
            ..Samples::default()
        };
        let values = end_to_end_values(&s);
        assert_eq!(
            values.keys().copied().collect::<Vec<_>>().len(),
            END_TO_END.len()
        );
        for name in END_TO_END {
            assert_eq!(values[name].len(), 1, "{name}");
        }
        assert_eq!(values["pkts_per_sec"], vec![500.0]);
    }
}
