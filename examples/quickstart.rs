//! Quickstart: two entities share a 10 Gbps bottleneck with equal-weight
//! Augmented Queues.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full API surface once: build a topology, ask the controller
//! for weighted AQ grants, deploy the AQ pipeline on the switch, tag each
//! entity's flows with its AQ id, simulate, and read per-entity goodput.

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

fn main() {
    // 1. Topology: a two-pair dumbbell; the core link is the bottleneck.
    let link = Rate::from_gbps(10);
    let d = dumbbell(
        2,
        link,
        Duration::from_micros(10),
        FifoConfig {
            limit_bytes: 200_000,
            ecn_threshold_bytes: None,
        },
    );
    let mut net = d.net;

    // 2. Control plane: the operator runs one controller per contended
    //    link; each tenant requests a weighted share.
    let mut controller = AqController::new(
        link,
        LimitPolicy::MatchPhysicalQueue {
            pq_limit_bytes: 200_000,
        },
    );
    let request = |cc| AqRequest {
        demand: BandwidthDemand::Weighted(1),
        cc,
        position: Position::Ingress,
        limit_override: None,
    };
    let tenant_a = controller
        .request(request(CcPolicy::DropBased))
        .expect("weighted grants admit");
    let tenant_b = controller
        .request(request(CcPolicy::DropBased))
        .expect("weighted grants admit");
    let rate = |id| controller.rate_of(id).expect("a granted AQ has a rate");
    println!(
        "granted: tenant A -> {:?} at {}, tenant B -> {:?} at {}",
        tenant_a.id,
        rate(tenant_a.id),
        tenant_b.id,
        rate(tenant_b.id),
    );

    // 3. Data plane: deploy every granted AQ into a pipeline on the
    //    bottleneck switch.
    let mut pipeline = AqPipeline::new();
    controller.deploy_all(&mut pipeline);
    net.add_pipeline(d.sw_left, Box::new(pipeline));

    // 4. Traffic: tenant A runs one CUBIC flow; tenant B runs eight. The
    //    hypervisor tags each tenant's packets with its AQ id.
    ensure_transport_hosts(&mut net);
    add_flows(
        &mut net,
        long_flows(
            EntityId(1),
            &[(d.left[0], d.right[0])],
            1,
            FlowKind::Tcp(CcAlgo::Cubic),
            tenant_a.id,
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            1,
        ),
    );
    add_flows(
        &mut net,
        long_flows(
            EntityId(2),
            &[(d.left[1], d.right[1])],
            8,
            FlowKind::Tcp(CcAlgo::Cubic),
            tenant_b.id,
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            100,
        ),
    );

    // 5. Simulate and measure.
    let mut sim = Simulator::new(net);
    sim.run_until(Time::from_millis(300));
    let a = goodput_gbps(
        &sim.stats,
        EntityId(1),
        Time::from_millis(100),
        Time::from_millis(300),
    );
    let b = goodput_gbps(
        &sim.stats,
        EntityId(2),
        Time::from_millis(100),
        Time::from_millis(300),
    );
    println!("tenant A (1 flow):  {a:.2} Gbps");
    println!("tenant B (8 flows): {b:.2} Gbps");
    println!("despite the 1-vs-8 flow count, equal weights give each ~half the link.");
    assert!((a / b).max(b / a) < 1.5, "shares should be near-equal");

    // 6. Export the structured run report (per-entity, per-port, per-AQ).
    let mut rep = RunReport::new("example_quickstart");
    rep.capture("quickstart", &mut sim);
    rep.write().expect("write run report");
}
