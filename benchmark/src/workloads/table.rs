//! `aq_table_scale`: the paper's R3 — one switch table holding a million
//! AQs — probed cold and hot, churned at its register budget, exported.

use super::{fnv64, Scale, UnitOutput, FNV_SEED};
use crate::clock;
use crate::procfs;
use crate::trace::Tracer;
use aq_bench::report::RunReport;
use aq_core::{AqConfig, AqPipeline, CcPolicy, DeployOutcome, OverflowPolicy, PACKED_AQ_BYTES};
use aq_netsim::ids::{EntityId, FlowId, NodeId};
use aq_netsim::node::{PipelineVerdict, SwitchPipeline};
use aq_netsim::packet::{AqTag, Ecn, Packet};
use aq_netsim::stats::StatsHub;
use aq_netsim::time::{Rate, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Size {
    aqs: u32,
    probes: u64,
}

const FULL: Size = Size {
    aqs: 1_000_000,
    probes: 12_000_000,
};
const REFERENCE: Size = Size {
    aqs: 65_536,
    probes: 2_000_000,
};
/// The hot probe's working set: few enough rows to stay in cache.
const HOT_IDS: u32 = 1024;
/// New tenants deployed into the full table, each evicting one row.
const CHURN_DEPLOYS: u32 = 96;
/// What the report phase allocates at full size, roughly.
const PRETOUCH_BYTES: usize = 320 << 20;
/// Simulated spacing of probe packets.
const PKT_GAP_NS: u64 = 50;

/// A spread of rates and all three feedback policies, as a controller
/// granting a million tenants would produce.
fn config(id: u32) -> AqConfig {
    AqConfig {
        id: AqTag(id),
        rate: Rate::from_mbps(100 + u64::from(id % 1000) * 10),
        limit_bytes: 200_000,
        cc: match id % 3 {
            0 => CcPolicy::EcnBased {
                threshold_bytes: 65_000,
            },
            1 => CcPolicy::DropBased,
            _ => CcPolicy::DelayBased,
        },
    }
}

struct Probe {
    pkt: Packet,
    now_ns: u64,
    forwards: u64,
    drops: u64,
}

impl Probe {
    fn send(&mut self, pipe: &mut AqPipeline, id: u32) {
        self.now_ns += PKT_GAP_NS;
        self.pkt.aq_ingress = AqTag(id);
        self.pkt.vdelay_ns = 0;
        self.pkt.ecn = Ecn::Capable;
        match pipe.ingress(Time::from_nanos(self.now_ns), &mut self.pkt) {
            PipelineVerdict::Forward => self.forwards += 1,
            _ => self.drops += 1,
        }
    }
}

pub fn run(scale: Scale, seed: u64, tr: &mut Tracer) -> Result<UnitOutput, String> {
    let size = match scale {
        Scale::Full => FULL,
        Scale::Reference => REFERENCE,
    };
    let n = size.aqs;
    let mut out = UnitOutput {
        params: format!(
            "aqs={n} probes={}x2 hot_ids={HOT_IDS} churn={CHURN_DEPLOYS}",
            size.probes
        ),
        // probe_cold, probe_hot, churn, export.
        attempted: 4,
        ..UnitOutput::default()
    };

    let rss_before = procfs::status_kb("VmRSS")?;
    let mut pipe = tr.phase("setup", |tr| {
        tr.span("deploy", |_| {
            let mut pipe = AqPipeline::new();
            for id in 1..=n {
                pipe.deploy_ingress(config(id));
            }
            pipe
        })
    });
    let rss_after = procfs::status_kb("VmRSS")?;
    if pipe.ingress_table.len() != n as usize {
        out.failures.push(format!(
            "deployed {} AQs, expected {n}",
            pipe.ingress_table.len()
        ));
    }

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut probe = Probe {
        pkt: Packet::data(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            0,
            1000,
            false,
            Time::ZERO,
        ),
        now_ns: 0,
        forwards: 0,
        drops: 0,
    };
    tr.phase("run", |tr| {
        tr.span("probe_cold", |_| {
            for _ in 0..size.probes {
                probe.send(&mut pipe, rng.gen_range(1..=n));
            }
        });
        // Hot ids are spread over the table, so only their count — not
        // their neighbourhood — keeps them cached.
        let stride = n / HOT_IDS;
        tr.span("probe_hot", |_| {
            for _ in 0..size.probes {
                probe.send(&mut pipe, 1 + rng.gen_range(0..HOT_IDS) * stride);
            }
        });
        tr.span("churn", |_| {
            let budget = u64::from(n) * PACKED_AQ_BYTES as u64;
            pipe.set_register_budget(Some(budget), OverflowPolicy::EvictIdle);
            for i in 1..=CHURN_DEPLOYS {
                if !matches!(
                    pipe.deploy_ingress(config(n + i)),
                    DeployOutcome::Evicted(_)
                ) {
                    out.failures
                        .push(format!("churn deploy {i} did not evict an idle row"));
                }
            }
        });
    });
    if probe.forwards + probe.drops != 2 * size.probes {
        out.failures
            .push("probe verdicts do not add up to the packets sent".to_string());
    }
    let table = &pipe.ingress_table;
    if table.len() != n as usize {
        out.failures.push(format!(
            "table holds {} rows after churn, expected {n}",
            table.len()
        ));
    }
    if table.register_memory_bytes() != n as usize * PACKED_AQ_BYTES {
        out.failures.push(format!(
            "register memory is {} B, expected {} B",
            table.register_memory_bytes(),
            n as usize * PACKED_AQ_BYTES
        ));
    }
    if table.evictions() != u64::from(CHURN_DEPLOYS) {
        out.failures.push(format!(
            "{} evictions, expected {CHURN_DEPLOYS}",
            table.evictions()
        ));
    }

    // The report allocates ~300 MB. On this VM the price of touching a
    // page the guest has not used before swings 2x with the hypervisor's
    // memory state — noise no code change can move, while the footprint
    // that causes it is gated by `peak_rss_mb`. Touching that much memory
    // and handing it back first leaves the report only ordinary faults.
    tr.phase("pretouch", |_| {
        let mut block = vec![0u8; PRETOUCH_BYTES];
        for page in block.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&block);
    });
    let csv = tr.phase("report", |tr| {
        let mut hub = StatsHub::new();
        tr.span("export_stats", |_| pipe.export_stats(NodeId(0), &mut hub));
        let mut rep = RunReport::new("aq_table_scale");
        tr.span("capture", |_| {
            rep.capture_hub("table", Time::from_nanos(probe.now_ns), 0, &hub)
        });
        tr.span("render", |_| rep.render_aqs_csv())
    });
    let rows = csv.lines().count() as u64 - 1;
    if rows != u64::from(n) {
        out.failures
            .push(format!("aqs.csv has {rows} rows, expected {n}"));
    }
    out.digest = fnv64(csv.as_bytes(), FNV_SEED);
    out.pkts = probe.forwards + probe.drops;
    let register_bytes = table.register_memory_bytes() as u64;
    let counts = [
        ("aqs", u64::from(n)),
        ("aq_pkts", out.pkts),
        ("aq_limit_drops", pipe.stats.drops),
        ("aq_marks", pipe.stats.marks),
        ("evictions", table.evictions()),
        ("csv_rows", rows),
        ("csv_bytes", csv.len() as u64),
        ("register_bytes", register_bytes),
    ];
    out.counts.extend(counts.map(|(k, v)| (k.to_string(), v)));

    tr.phase("teardown", |_| {
        drop(csv);
        drop(pipe);
    });

    if tr.detail() {
        let per = |span: &str, ops: f64| tr.total_ns(span) as f64 / ops;
        let layers = [
            (
                "core.table.probe_cold_ns",
                per("probe_cold", size.probes as f64),
            ),
            (
                "core.table.probe_hot_ns",
                per("probe_hot", size.probes as f64),
            ),
            ("core.table.deploy_ns", per("deploy", f64::from(n))),
            (
                "core.table.evict_ms",
                per("churn", f64::from(CHURN_DEPLOYS)) / 1e6,
            ),
            (
                "core.table.host_bytes_per_aq",
                (rss_after.saturating_sub(rss_before) * 1024) as f64 / f64::from(n),
            ),
            (
                "core.table.register_bytes_per_aq",
                register_bytes as f64 / f64::from(n),
            ),
            (
                "bench.report.aqs_csv_rows_per_s",
                rows as f64 / clock::secs(tr.total_ns("render")),
            ),
            (
                "core.pipeline.limit_drops",
                out.counts["aq_limit_drops"] as f64,
            ),
            ("core.pipeline.marks", out.counts["aq_marks"] as f64),
        ];
        out.layers.extend(layers.map(|(k, v)| (k.to_string(), v)));
    }
    Ok(out)
}
