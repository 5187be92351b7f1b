//! CC coexistence: DCTCP, CUBIC, and Swift sharing one bottleneck —
//! first through a plain physical queue, then with one AQ per CC entity.
//!
//! ```text
//! cargo run --release --example cc_coexistence
//! ```
//!
//! Reproduces the paper's §2.2 motivation and §5.3 resolution: through a
//! shared PQ the ECN-based algorithm captures the link and the delay-based
//! one starves; with per-entity AQs each algorithm receives its own
//! feedback signal (loss / virtual-threshold ECN / virtual delay) and the
//! three split the link evenly.

use aq_bench::report::RunReport;
use augmented_queue::core::{
    AqController, AqPipeline, AqRequest, BandwidthDemand, CcPolicy, LimitPolicy, Position,
};
use augmented_queue::netsim::packet::AqTag;
use augmented_queue::netsim::queue::FifoConfig;
use augmented_queue::netsim::time::{Duration, Rate, Time};
use augmented_queue::netsim::topology::dumbbell;
use augmented_queue::netsim::{EntityId, Simulator};
use augmented_queue::transport::{CcAlgo, DelaySignal, FlowKind};
use augmented_queue::workloads::{add_flows, ensure_transport_hosts, goodput_gbps, long_flows};

const LINK_GBPS: u64 = 10;
const PQ_LIMIT: u64 = 200_000;

fn algorithms() -> [CcAlgo; 3] {
    [
        CcAlgo::Dctcp,
        CcAlgo::Cubic,
        CcAlgo::Swift {
            target: Duration::from_micros(50),
        },
    ]
}

fn run(use_aq: bool, rep: &mut RunReport) -> Vec<(String, f64)> {
    let d = dumbbell(
        3,
        Rate::from_gbps(LINK_GBPS),
        Duration::from_micros(10),
        FifoConfig {
            limit_bytes: PQ_LIMIT,
            // The operator configures a PQ marking threshold only when
            // DCTCP must get its signal from the physical queue.
            ecn_threshold_bytes: (!use_aq).then_some(65_000),
        },
    );
    let mut net = d.net;
    let mut tags = [AqTag::NONE; 3];
    if use_aq {
        let mut ctl = AqController::new(
            Rate::from_gbps(LINK_GBPS),
            LimitPolicy::MatchPhysicalQueue {
                pq_limit_bytes: PQ_LIMIT,
            },
        );
        for (i, cc) in algorithms().iter().enumerate() {
            let policy = match cc {
                CcAlgo::Dctcp => CcPolicy::EcnBased {
                    threshold_bytes: 30_000,
                },
                CcAlgo::Swift { .. } => CcPolicy::DelayBased,
                _ => CcPolicy::DropBased,
            };
            let g = ctl
                .request(AqRequest {
                    demand: BandwidthDemand::Weighted(1),
                    cc: policy,
                    position: Position::Ingress,
                    limit_override: None,
                })
                .expect("weighted grants admit");
            tags[i] = g.id;
        }
        let mut pipe = AqPipeline::new();
        ctl.deploy_all(&mut pipe);
        net.add_pipeline(d.sw_left, Box::new(pipe));
    }
    ensure_transport_hosts(&mut net);
    for (i, cc) in algorithms().iter().enumerate() {
        let delay_signal = if use_aq && cc.delay_based() {
            DelaySignal::VirtualDelay
        } else {
            DelaySignal::MeasuredRtt
        };
        add_flows(
            &mut net,
            long_flows(
                EntityId(i as u32 + 1),
                &[(d.left[i], d.right[i])],
                5,
                FlowKind::Tcp(*cc),
                tags[i],
                AqTag::NONE,
                delay_signal,
                (i as u32 + 1) * 100,
            ),
        );
    }
    let mut sim = Simulator::new(net);
    sim.run_until(Time::from_millis(500));
    let out = algorithms()
        .iter()
        .enumerate()
        .map(|(i, cc)| {
            (
                cc.name().to_string(),
                goodput_gbps(
                    &sim.stats,
                    EntityId(i as u32 + 1),
                    Time::from_millis(150),
                    Time::from_millis(500),
                ),
            )
        })
        .collect();
    rep.capture(if use_aq { "aq" } else { "pq" }, &mut sim);
    out
}

fn main() {
    println!("three entities (5 flows each) share a {LINK_GBPS} Gbps bottleneck\n");
    let mut rep = RunReport::new("example_cc_coexistence");
    println!("shared physical queue (ECN threshold 65 KB):");
    for (name, g) in run(false, &mut rep) {
        println!("  {name:<8} {g:5.2} Gbps");
    }
    println!("\nper-entity AQs, equal weights (loss / virtual-ECN / virtual-delay feedback):");
    for (name, g) in run(true, &mut rep) {
        println!("  {name:<8} {g:5.2} Gbps");
    }
    println!("\nwith AQ each algorithm keeps its own control law but the shares equalize.");
    rep.write().expect("write run report");
}
