//! The four workloads. Each runs one *unit* — set-up, a timed run, a
//! report phase, teardown — inside a fresh child process of the
//! benchmark, and hands back exact counts, an output digest and, when
//! traced, the per-layer numbers its spans give directly.
//!
//! Why these four (also in README.md and BENCHMARK.json):
//!
//! * `longflows_fattree` is engine-dominated: scheduler, arena, FIFO,
//!   routing, steady-state scoreboard and a two-row hot AQ table, with no
//!   shared-buffer pool, no AQM zoo, no flow churn and next to no set-up.
//!   Closed loop (window-limited senders). The one shardable topology.
//! * `websearch_sharedbuf` runs the same engine with a different
//!   per-packet mix — pool admit/commit/release, the iRED discipline,
//!   flow start/finish churn, loss/SACK/RTO paths, many delay samples —
//!   everything `longflows_fattree` bypasses. Open loop in simulated time
//!   (Poisson arrivals).
//! * `sweep_grid` is what CI users wait for: 114 short runs (and a top-up
//!   of soak rounds to a fixed event count) where per-run set-up, report
//!   writing, JSON parsing, aggregation and the gate dominate; also the PQ
//!   half, which bypasses AQ altogether.
//! * `aq_table_scale` uses the AQ table differently from the sims: a
//!   working set far beyond cache and writes (deploy, evict) beside
//!   reads, where the sims keep at most eight rows hot and read-only.

pub mod sim;
pub mod sweep;
pub mod table;

use crate::clock;
use crate::trace::Tracer;
use aq_bench::report::RunReport;
use aq_workloads::registry::Params;
use std::collections::BTreeMap;
use std::path::Path;

/// Full size is what the end-to-end metrics are measured on. Reference
/// size is a reduced unit a traced run of *another* workload uses to
/// measure the layers its own unit does not cross.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Reference,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Reference => "reference",
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "reference" => Some(Scale::Reference),
            _ => None,
        }
    }
}

/// Workload names, in reporting order. Must equal BENCHMARK.json's list
/// (a unit test checks).
pub const NAMES: [&str; 4] = [
    "longflows_fattree",
    "websearch_sharedbuf",
    "sweep_grid",
    "aq_table_scale",
];

/// What one unit produced, besides the spans its [`Tracer`] holds.
#[derive(Debug, Default)]
pub struct UnitOutput {
    /// Human-readable parameters, recorded so `compare` can refuse to
    /// judge runs of different inputs.
    pub params: String,
    /// Packets moved during the timed run (the numerator of `pkts_per_sec`).
    pub pkts: u64,
    /// Operations attempted: one sim run, one grid run, one table phase.
    pub attempted: u64,
    /// One line per failed operation or violated check.
    pub failures: Vec<String>,
    /// Exact counts; identical for identical code, workload and seed.
    pub counts: BTreeMap<String, u64>,
    /// FNV-64 of the unit's main output artifact.
    pub digest: u64,
    /// Per-layer metrics this unit measures natively (traced runs only).
    pub layers: BTreeMap<String, f64>,
}

/// Run one unit of `workload`. Spans land in `tr`; the phases every
/// workload records are `setup`, `run`, `report` and `teardown`.
pub fn run_unit(
    workload: &str,
    scale: Scale,
    seed: u64,
    out_dir: &Path,
    tr: &mut Tracer,
) -> Result<UnitOutput, String> {
    match workload {
        "longflows_fattree" => sim::run(&sim::LONGFLOWS_FATTREE, scale, seed, out_dir, tr),
        "websearch_sharedbuf" => sim::run(&sim::WEBSEARCH_SHAREDBUF, scale, seed, out_dir, tr),
        "sweep_grid" => sweep::run(scale, seed, out_dir, tr),
        "aq_table_scale" => table::run(scale, seed, tr),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Whether a scenario's resolved parameters select the disaggregated-RED
/// egress discipline (`aqm=1` on the shared-buffer scenarios).
pub fn uses_red(params: &Params) -> bool {
    params.get_usize("aqm") == Some(1)
}

/// Add one parsed run report's exact counts to `counts`: the simulated
/// statistics a speed-only change must leave identical, and the op
/// counts the replay probes are shaped by.
pub fn add_report_counts(
    rep: &RunReport,
    red: bool,
    counts: &mut BTreeMap<String, u64>,
) -> Result<(), String> {
    let s = rep.sections().last().ok_or("report has no section")?;
    let pool_nodes: Vec<u64> = s.buffers.iter().map(|b| b.node).collect();
    let pool_pkts: u64 = s
        .ports
        .iter()
        .filter(|p| pool_nodes.contains(&p.node))
        .map(|p| p.tx_pkts)
        .sum();
    let ports = |f: fn(&aq_bench::report::PortRow) -> u64| -> u64 { s.ports.iter().map(f).sum() };
    let adds = [
        ("events", s.events),
        ("tx_pkts", ports(|p| p.tx_pkts)),
        (
            "queue_drops",
            ports(|p| p.taildrops + p.red_drops + p.shaper_drops),
        ),
        ("ecn_marks", ports(|p| p.ecn_marks)),
        ("pool_pkts", pool_pkts),
        ("red_pkts", if red { pool_pkts } else { 0 }),
        (
            "pool_rejects",
            s.buffers.iter().map(|b| b.shared_rejects).sum(),
        ),
        ("drops", s.entities.iter().map(|e| e.drops).sum()),
        ("rx_bytes", s.entities.iter().map(|e| e.rx_bytes).sum()),
        (
            "flows_completed",
            s.entities.iter().map(|e| e.flows_completed).sum(),
        ),
        ("aq_limit_drops", s.aqs.iter().map(|a| a.limit_drops).sum()),
        ("aq_marks", s.aqs.iter().map(|a| a.marks).sum()),
        (
            "aq_pkts",
            s.aqs.iter().map(|a| a.gap_samples + a.limit_drops).sum(),
        ),
        ("evictions", s.tables.iter().map(|t| t.evictions).sum()),
    ];
    for (k, v) in adds {
        *counts.entry(k.to_string()).or_default() += v;
    }
    Ok(())
}

/// The per-layer metrics that follow from a unit's summed report counts,
/// its run time and its JSON parse time alone — what both the sims and
/// the grid can say about the layers inside `run_until`.
pub fn count_layers(
    counts: &BTreeMap<String, u64>,
    run_ns: u64,
    parse_ns: u64,
) -> Vec<(&'static str, f64)> {
    let c = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    vec![
        ("netsim.sim.events", c("events")),
        ("netsim.sim.ns_per_event", run_ns as f64 / c("events")),
        ("netsim.sim.events_per_pkt", c("events") / c("tx_pkts")),
        ("netsim.queue.drops", c("queue_drops")),
        ("netsim.queue.ecn_marks", c("ecn_marks")),
        ("netsim.buffer.rejects", c("pool_rejects")),
        ("core.pipeline.limit_drops", c("aq_limit_drops")),
        ("core.pipeline.marks", c("aq_marks")),
        ("transport.flows_completed", c("flows_completed")),
        ("bench.report.parse_ms", clock::millis(parse_ns)),
        ("bench.report.bytes", c("report_bytes")),
        (
            "bench.json.parse_mb_per_s",
            c("report_bytes") / 1e6 / clock::secs(parse_ns),
        ),
    ]
}

/// FNV-1a, 64 bit.
pub fn fnv64(bytes: &[u8], mut hash: u64) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis: the digest of no bytes.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_the_published_vectors() {
        assert_eq!(fnv64(b"", FNV_SEED), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a", FNV_SEED), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar", FNV_SEED), 0x8594_4171_f739_67e8);
        // Chaining equals hashing the concatenation.
        assert_eq!(
            fnv64(b"bar", fnv64(b"foo", FNV_SEED)),
            fnv64(b"foobar", FNV_SEED)
        );
    }
}
