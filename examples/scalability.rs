//! Scalability: one million concurrent AQs in a single switch table.
//!
//! ```text
//! cargo run --release --example scalability
//! ```
//!
//! The paper's R3 requirement: the abstraction must scale to far more
//! entities than there are physical queues. This example deploys one
//! million AQs, streams packets across a rotating subset of them, and
//! reports the limit drops and the register memory the table would occupy
//! on a switch (15 bytes per AQ). Output is deterministic; what the table
//! *costs* per packet (probed cold, hot and under deploy/evict churn) is
//! measured by the repo benchmark's `aq_table_scale` workload
//! (`benchmark/run.sh --workload aq_table_scale`, see benchmark/README.md).

use aq_bench::report::RunReport;
use augmented_queue::core::{AqConfig, AqPipeline, AqTable, AqVerdict, CcPolicy};
use augmented_queue::netsim::packet::{AqTag, Packet};
use augmented_queue::netsim::time::{Rate, Time};
use augmented_queue::netsim::{EntityId, FlowId, NodeId, PipelineVerdict, SwitchPipeline};

const N_AQS: u32 = 1_000_000;
const PACKETS: u64 = 2_000_000;

fn main() {
    // Deploy a million AQs with a spread of allocated rates.
    let mut table = AqTable::new();
    for i in 1..=N_AQS {
        table.deploy(AqConfig {
            id: AqTag(i),
            rate: Rate::from_mbps(100 + (i as u64 % 1000) * 10),
            limit_bytes: 200_000,
            cc: if i % 3 == 0 {
                CcPolicy::EcnBased {
                    threshold_bytes: 65_000,
                }
            } else if i % 3 == 1 {
                CcPolicy::DropBased
            } else {
                CcPolicy::DelayBased
            },
        });
    }
    println!(
        "deployed {} AQs ({} MB of switch register memory)",
        table.len(),
        table.register_memory_bytes() / 1_000_000
    );

    // Stream packets through a rotating subset, as a switch would.
    let mut pkt = Packet::data(
        FlowId(1),
        EntityId(1),
        NodeId(0),
        NodeId(1),
        0,
        1000,
        false,
        Time::ZERO,
    );
    pkt.ecn = augmented_queue::netsim::packet::Ecn::Capable;
    let mut t = 0u64;
    let mut dropped = 0u64;
    for i in 0..PACKETS {
        t += 50;
        let id = AqTag((i % N_AQS as u64) as u32 + 1);
        pkt.vdelay_ns = 0;
        if table.process(id, Time::from_nanos(t), &mut pkt) == Some(AqVerdict::Drop) {
            dropped += 1;
        }
    }
    println!("processed {PACKETS} packets against the million-AQ table ({dropped} limit drops)");

    // The full pipeline wrapper adds the tag-match path.
    let mut pipe = AqPipeline::new();
    for i in 1..=N_AQS {
        pipe.deploy_ingress(AqConfig {
            id: AqTag(i),
            rate: Rate::from_gbps(1),
            limit_bytes: 200_000,
            cc: CcPolicy::DropBased,
        });
    }
    let mut forwarded = 0u64;
    for i in 0..PACKETS {
        pkt.aq_ingress = AqTag((i % N_AQS as u64) as u32 + 1);
        t += 50;
        if pipe.ingress(Time::from_nanos(t), &mut pkt) == PipelineVerdict::Forward {
            forwarded += 1;
        }
    }
    println!("full ingress-pipeline path: {forwarded} of {PACKETS} packets forwarded");
    println!("\nmillions of traffic constituents fit in one table — no physical queues needed.");

    // Structured run report.
    let mut rep = RunReport::new("example_scalability");
    rep.capture_metrics(
        "million_aq_table",
        &[
            ("aqs_deployed", table.len() as f64),
            (
                "register_memory_bytes",
                table.register_memory_bytes() as f64,
            ),
            ("packets_processed", PACKETS as f64),
            ("limit_drops", dropped as f64),
        ],
    );
    rep.write().expect("write run report");
}
