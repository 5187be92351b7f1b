//! AQ on a multi-switch Clos fabric: the paper's deployment model lets an
//! entity hold AQs on several switches; ECMP spreads its flows across
//! equal-cost paths while the edge AQ still sees (and limits) the whole
//! aggregate.

use augmented_queue::core::{
    AqController, AqPipeline, AqRequest, BandwidthDemand, CcPolicy, LimitPolicy, Position,
};
use augmented_queue::netsim::packet::AqTag;
use augmented_queue::netsim::queue::FifoConfig;
use augmented_queue::netsim::time::{Duration, Rate, Time};
use augmented_queue::netsim::topology::fat_tree;
use augmented_queue::netsim::{EntityId, Simulator};
use augmented_queue::transport::{CcAlgo, DelaySignal, FlowKind};
use augmented_queue::workloads::{add_flows, ensure_transport_hosts, goodput_gbps, long_flows};

#[test]
fn ecmp_spreads_an_entity_across_core_paths() {
    // 8 flows from pod-0 hosts to pod-3 hosts: with 4 core switches every
    // core switch should carry some of them.
    let ft = fat_tree(
        4,
        Rate::from_gbps(10),
        Duration::from_micros(2),
        FifoConfig::default(),
    );
    let mut net = ft.net;
    ensure_transport_hosts(&mut net);
    let pairs: Vec<_> = (0..4).map(|i| (ft.hosts[i], ft.hosts[12 + i])).collect();
    add_flows(
        &mut net,
        long_flows(
            EntityId(1),
            &pairs,
            8,
            FlowKind::Tcp(CcAlgo::Cubic),
            AqTag::NONE,
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            1,
        ),
    );
    let mut sim = Simulator::new(net);
    sim.run_until(Time::from_millis(50));
    let active_cores = ft
        .core
        .iter()
        .filter(|c| {
            sim.net.nodes[c.index()]
                .ports
                .iter()
                .any(|p| sim.stats.port(*p).is_some_and(|ps| ps.tx_pkts > 100))
        })
        .count();
    assert!(
        active_cores >= 3,
        "ECMP should engage most core switches, got {active_cores}/4"
    );
    let g = goodput_gbps(
        &sim.stats,
        EntityId(1),
        Time::from_millis(10),
        Time::from_millis(50),
    );
    assert!(g > 8.0, "multipath aggregate should exceed one path: {g}");
}

#[test]
fn edge_aq_limits_an_entity_across_all_its_ecmp_paths() {
    // The entity's AQ sits at its source ToR (which every packet crosses
    // regardless of the ECMP choice above it), so one AQ bounds the whole
    // aggregate even though flows fan out over four core paths.
    let ft = fat_tree(
        4,
        Rate::from_gbps(10),
        Duration::from_micros(2),
        FifoConfig::default(),
    );
    let mut ctl = AqController::new(
        Rate::from_gbps(10),
        LimitPolicy::MatchPhysicalQueue {
            pq_limit_bytes: 200_000,
        },
    );
    let g = ctl
        .request(AqRequest {
            demand: BandwidthDemand::Absolute(Rate::from_gbps(3)),
            cc: CcPolicy::DropBased,
            position: Position::Ingress,
            limit_override: None,
        })
        .expect("admits");
    let mut pipe = AqPipeline::new();
    ctl.deploy_all(&mut pipe);
    let mut net = ft.net;
    // hosts[0..2] share edge switch 0.
    net.add_pipeline(ft.edge[0], Box::new(pipe));
    ensure_transport_hosts(&mut net);
    let pairs: Vec<_> = (0..2).map(|i| (ft.hosts[i], ft.hosts[12 + i])).collect();
    add_flows(
        &mut net,
        long_flows(
            EntityId(1),
            &pairs,
            8,
            FlowKind::Tcp(CcAlgo::Cubic),
            g.id,
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            1,
        ),
    );
    let mut sim = Simulator::new(net);
    sim.run_until(Time::from_millis(200));
    let gp = goodput_gbps(
        &sim.stats,
        EntityId(1),
        Time::from_millis(50),
        Time::from_millis(200),
    );
    assert!(
        (2.2..=2.9).contains(&gp),
        "entity limited to ~2.83 Gbps payload across all paths, got {gp}"
    );
    let pipe = sim.net.pipeline_mut::<AqPipeline>(ft.edge[0], 0);
    assert!(
        pipe.expect("deployed above").stats.drops > 0,
        "AQ enforced at the ToR"
    );
}
