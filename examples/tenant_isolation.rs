//! Tenant isolation: a UDP bully versus TCP tenants.
//!
//! ```text
//! cargo run --release --example tenant_isolation
//! ```
//!
//! Three tenants share a 10 Gbps core: tenant 1 blasts unreactive UDP at
//! line rate; tenants 2 and 3 run well-behaved CUBIC. Through a shared
//! physical queue the bully takes nearly everything. With one
//! equal-weight AQ per tenant the switch holds every tenant — including
//! the bully — to its third of the link, with no cooperation needed from
//! the bully's end host.

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

fn run(use_aq: bool, rep: &mut RunReport) -> Vec<f64> {
    let d = dumbbell(
        3,
        Rate::from_gbps(10),
        Duration::from_micros(10),
        FifoConfig {
            limit_bytes: 200_000,
            ecn_threshold_bytes: None,
        },
    );
    let mut net = d.net;
    let mut tags = [AqTag::NONE; 3];
    if use_aq {
        let mut ctl = AqController::new(
            Rate::from_gbps(10),
            LimitPolicy::MatchPhysicalQueue {
                pq_limit_bytes: 200_000,
            },
        );
        for tag in tags.iter_mut() {
            *tag = ctl
                .request(AqRequest {
                    demand: BandwidthDemand::Weighted(1),
                    cc: CcPolicy::DropBased,
                    position: Position::Ingress,
                    limit_override: None,
                })
                .expect("weighted grants admit")
                .id;
        }
        let mut pipe = AqPipeline::new();
        ctl.deploy_all(&mut pipe);
        net.add_pipeline(d.sw_left, Box::new(pipe));
    }
    ensure_transport_hosts(&mut net);
    // Tenant 1: the bully.
    add_flows(
        &mut net,
        long_flows(
            EntityId(1),
            &[(d.left[0], d.right[0])],
            1,
            FlowKind::Udp {
                rate: Rate::from_gbps(10),
            },
            tags[0],
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            1,
        ),
    );
    // Tenants 2 and 3: CUBIC.
    for t in 1..3u32 {
        add_flows(
            &mut net,
            long_flows(
                EntityId(t + 1),
                &[(d.left[t as usize], d.right[t as usize])],
                4,
                FlowKind::Tcp(CcAlgo::Cubic),
                tags[t as usize],
                AqTag::NONE,
                DelaySignal::MeasuredRtt,
                (t + 1) * 100,
            ),
        );
    }
    let mut sim = Simulator::new(net);
    sim.run_until(Time::from_millis(400));
    let out = (1..=3)
        .map(|e| {
            goodput_gbps(
                &sim.stats,
                EntityId(e),
                Time::from_millis(100),
                Time::from_millis(400),
            )
        })
        .collect();
    rep.capture(if use_aq { "aq" } else { "pq" }, &mut sim);
    out
}

fn main() {
    println!("tenant 1: UDP at line rate; tenants 2-3: 4 CUBIC flows each; 10 Gbps core\n");
    let mut rep = RunReport::new("example_tenant_isolation");
    let pq = run(false, &mut rep);
    println!(
        "shared physical queue:  bully {:.2}  tcp-2 {:.2}  tcp-3 {:.2}  (Gbps)",
        pq[0], pq[1], pq[2]
    );
    let aq = run(true, &mut rep);
    println!(
        "equal-weight AQs:       bully {:.2}  tcp-2 {:.2}  tcp-3 {:.2}  (Gbps)",
        aq[0], aq[1], aq[2]
    );
    println!("\nthe AQ pins the bully to its third; the excess is dropped in the switch");
    println!("before it can occupy the shared buffer.");
    assert!(pq[0] > 4.0 * pq[1].max(pq[2]), "PQ: bully should dominate");
    assert!(
        aq[0] < 2.0 * aq[1].min(aq[2]),
        "AQ: shares should be comparable"
    );
    rep.write().expect("write run report");
}
