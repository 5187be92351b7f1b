//! End-to-end behaviour of the baseline systems (PRL/DRL) inside the
//! simulator — these are full substrates, not mocks, so they get the same
//! black-box treatment as AQ.

use augmented_queue::baselines::{ClassKey, Classify, ElasticSwitch, HtbShaper, VmConfig};
use augmented_queue::netsim::packet::AqTag;
use augmented_queue::netsim::queue::FifoConfig;
use augmented_queue::netsim::time::{Duration, Rate, Time};
use augmented_queue::netsim::topology::dumbbell;
use augmented_queue::netsim::{EntityId, Simulator};
use augmented_queue::transport::CcAlgo;
use augmented_queue::transport::DelaySignal;
use augmented_queue::transport::FlowKind;
use augmented_queue::workloads::{add_flows, ensure_transport_hosts, goodput_gbps, long_flows};

#[test]
fn htb_shaper_holds_udp_to_its_class_rate() {
    // A 10 Gbps UDP blast through a 2 Gbps HTB class on the host uplink.
    let d = dumbbell(
        1,
        Rate::from_gbps(10),
        Duration::from_micros(10),
        FifoConfig::default(),
    );
    let mut net = d.net;
    let up = net.host_uplink(d.left[0]);
    net.ports[up.index()].queue = Box::new(HtbShaper::new(
        Classify::All,
        Rate::from_gbps(2),
        30_000,
        500_000,
    ));
    ensure_transport_hosts(&mut net);
    add_flows(
        &mut net,
        long_flows(
            EntityId(1),
            &[(d.left[0], d.right[0])],
            1,
            FlowKind::Udp {
                rate: Rate::from_gbps(10),
            },
            AqTag::NONE,
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            1,
        ),
    );
    let mut sim = Simulator::new(net);
    sim.run_until(Time::from_millis(100));
    let g = goodput_gbps(
        &sim.stats,
        EntityId(1),
        Time::from_millis(20),
        Time::from_millis(100),
    );
    // 2 Gbps wire = 1.887 Gbps payload.
    assert!((1.8..=1.95).contains(&g), "shaped to {g} Gbps, want ~1.89");
}

#[test]
fn htb_tcp_fills_its_class_rate() {
    // TCP through the same shaper should converge to the class rate, not
    // collapse: the shaper queues (delays) rather than polices.
    let d = dumbbell(
        1,
        Rate::from_gbps(10),
        Duration::from_micros(10),
        FifoConfig::default(),
    );
    let mut net = d.net;
    let up = net.host_uplink(d.left[0]);
    net.ports[up.index()].queue = Box::new(HtbShaper::new(
        Classify::All,
        Rate::from_gbps(3),
        30_000,
        500_000,
    ));
    ensure_transport_hosts(&mut net);
    add_flows(
        &mut net,
        long_flows(
            EntityId(1),
            &[(d.left[0], d.right[0])],
            2,
            FlowKind::Tcp(CcAlgo::Cubic),
            AqTag::NONE,
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            1,
        ),
    );
    let mut sim = Simulator::new(net);
    sim.run_until(Time::from_millis(200));
    let g = goodput_gbps(
        &sim.stats,
        EntityId(1),
        Time::from_millis(50),
        Time::from_millis(200),
    );
    assert!((2.4..=2.9).contains(&g), "TCP through 3G shaper got {g}");
}

#[test]
fn elastic_switch_reallocates_toward_demand_within_15ms_epochs() {
    // Two VMs with 5 Gbps hose guarantees on a 10 Gbps core; only VM 1 has
    // demand. After a few 15 ms rounds its pair limit must probe well above
    // the even split.
    let d = dumbbell(
        2,
        Rate::from_gbps(10),
        Duration::from_micros(10),
        FifoConfig::default(),
    );
    let mut net = d.net;
    let mut cfgs = Vec::new();
    for vm in [d.left[0], d.left[1]] {
        let up = net.host_uplink(vm);
        net.ports[up.index()].queue = Box::new(HtbShaper::new(
            Classify::ByDst,
            Rate::from_gbps(5),
            30_000,
            4_000_000,
        ));
        cfgs.push(VmConfig {
            host: vm,
            uplink: up,
            out_guarantee: Rate::from_gbps(5),
            in_guarantee: Rate::from_gbps(10),
        });
    }
    ensure_transport_hosts(&mut net);
    add_flows(
        &mut net,
        long_flows(
            EntityId(1),
            &[(d.left[0], d.right[0])],
            4,
            FlowKind::Tcp(CcAlgo::Cubic),
            AqTag::NONE,
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            1,
        ),
    );
    let mut sim = Simulator::new(net);
    sim.add_agent(Box::new(ElasticSwitch::new(cfgs)));
    sim.run_until(Time::from_millis(300));
    let g = goodput_gbps(
        &sim.stats,
        EntityId(1),
        Time::from_millis(150),
        Time::from_millis(300),
    );
    assert!(
        g > 6.5,
        "work-conserving DRL should lift the active VM beyond its 5G guarantee: {g}"
    );
    // The shaper's class rate was actually raised by the agent.
    let up = sim.net.host_uplink(d.left[0]);
    let shaper = sim
        .net
        .discipline_mut::<HtbShaper>(up)
        .expect("shaper installed");
    let rate = shaper
        .class_rate(ClassKey::Dst(d.right[0]))
        .expect("managed class");
    assert!(rate.as_bps() > 6_000_000_000, "class probed to {rate}");
}
