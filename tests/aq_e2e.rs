//! End-to-end Augmented Queue behaviour: the paper's headline results,
//! exercised through the full stack (controller → pipeline → simulated
//! switch → transports).

use augmented_queue::core::spec::Lockstep;
use augmented_queue::core::{
    AqController, AqPipeline, AqRequest, AqVerdict, BandwidthDemand, CcPolicy, LimitPolicy,
    Position, WorkConservation,
};
use augmented_queue::netsim::packet::AqTag;
use augmented_queue::netsim::queue::FifoConfig;
use augmented_queue::netsim::time::{Duration, Rate, Time};
use augmented_queue::netsim::topology::{dumbbell, star};
use augmented_queue::netsim::{
    EntityId, NodeId, Packet, PipelineVerdict, PortId, Simulator, SwitchPipeline,
};
use augmented_queue::transport::{CcAlgo, DelaySignal, FlowKind};
use augmented_queue::workloads::{add_flows, ensure_transport_hosts, goodput_gbps, long_flows};

const PQ_LIMIT: u64 = 200_000;

fn weighted_request(cc: CcPolicy) -> AqRequest {
    AqRequest {
        demand: BandwidthDemand::Weighted(1),
        cc,
        position: Position::Ingress,
        limit_override: None,
    }
}

#[test]
fn aq_isolates_tcp_from_a_udp_bully() {
    // The headline result: a UDP entity blasting at line rate and a CUBIC
    // entity share the bottleneck 1:1 under equal-weight AQs.
    let d = dumbbell(
        2,
        Rate::from_gbps(10),
        Duration::from_micros(10),
        FifoConfig::default(),
    );
    let mut ctl = AqController::new(
        Rate::from_gbps(10),
        LimitPolicy::MatchPhysicalQueue {
            pq_limit_bytes: PQ_LIMIT,
        },
    );
    let g_udp = ctl
        .request(weighted_request(CcPolicy::DropBased))
        .expect("grant");
    let g_tcp = ctl
        .request(weighted_request(CcPolicy::DropBased))
        .expect("grant");
    let mut pipe = AqPipeline::new();
    ctl.deploy_all(&mut pipe);
    let mut net = d.net;
    net.add_pipeline(d.sw_left, Box::new(pipe));
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
            g_udp.id,
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
            5,
            FlowKind::Tcp(CcAlgo::Cubic),
            g_tcp.id,
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            100,
        ),
    );
    let mut sim = Simulator::new(net);
    sim.run_until(Time::from_millis(300));
    let udp = goodput_gbps(
        &sim.stats,
        EntityId(1),
        Time::from_millis(100),
        Time::from_millis(300),
    );
    let tcp = goodput_gbps(
        &sim.stats,
        EntityId(2),
        Time::from_millis(100),
        Time::from_millis(300),
    );
    // Paper: each entity gets ~1/2 of the link with >95% saturation of its
    // allocation.
    assert!(
        (4.5..=5.3).contains(&udp),
        "UDP entity got {udp} Gbps, want ~5"
    );
    assert!(
        (4.0..=5.3).contains(&tcp),
        "TCP entity got {tcp} Gbps, want ~5"
    );
}

#[test]
fn aq_rate_limits_udp_in_absolute_mode() {
    let d = dumbbell(
        1,
        Rate::from_gbps(10),
        Duration::from_micros(10),
        FifoConfig::default(),
    );
    let mut ctl = AqController::new(
        Rate::from_gbps(10),
        LimitPolicy::MatchPhysicalQueue {
            pq_limit_bytes: PQ_LIMIT,
        },
    );
    let g = ctl
        .request(AqRequest {
            demand: BandwidthDemand::Absolute(Rate::from_gbps(2)),
            cc: CcPolicy::DropBased,
            position: Position::Ingress,
            limit_override: None,
        })
        .expect("grant");
    let mut pipe = AqPipeline::new();
    ctl.deploy_all(&mut pipe);
    let mut net = d.net;
    net.add_pipeline(d.sw_left, Box::new(pipe));
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
            g.id,
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            1,
        ),
    );
    let mut sim = Simulator::new(net);
    sim.run_until(Time::from_millis(100));
    let gp = goodput_gbps(
        &sim.stats,
        EntityId(1),
        Time::from_millis(20),
        Time::from_millis(100),
    );
    // The AQ limits *wire* bytes; goodput is payload, so the expected
    // value is 2 Gbps × 1000/1060 ≈ 1.887 Gbps.
    assert!(
        (1.82..=1.95).contains(&gp),
        "UDP limited to {gp} Gbps payload, want ~1.887 — even though the physical queue never builds"
    );
    // The entity's excess was dropped in the AQ pipeline, not the FIFO.
    let pipe = sim.net.pipeline_mut::<AqPipeline>(d.sw_left, 0);
    assert!(pipe.expect("deployed above").stats.drops > 0);
}

#[test]
fn aq_lets_dctcp_and_cubic_coexist() {
    // Table 2's shape: 5 CUBIC + 5 DCTCP flows, equal-weight AQs, each
    // entity ~4.7 Gbps (vs 0.7/8.7 under a shared PQ).
    let d = dumbbell(
        2,
        Rate::from_gbps(10),
        Duration::from_micros(10),
        FifoConfig::with_ecn(PQ_LIMIT, 65_000),
    );
    let mut ctl = AqController::new(
        Rate::from_gbps(10),
        LimitPolicy::MatchPhysicalQueue {
            pq_limit_bytes: PQ_LIMIT,
        },
    );
    let g_cubic = ctl
        .request(weighted_request(CcPolicy::DropBased))
        .expect("grant");
    let g_dctcp = ctl
        .request(weighted_request(CcPolicy::EcnBased {
            threshold_bytes: 30_000,
        }))
        .expect("grant");
    let mut pipe = AqPipeline::new();
    ctl.deploy_all(&mut pipe);
    let mut net = d.net;
    net.add_pipeline(d.sw_left, Box::new(pipe));
    ensure_transport_hosts(&mut net);
    add_flows(
        &mut net,
        long_flows(
            EntityId(1),
            &[(d.left[0], d.right[0])],
            5,
            FlowKind::Tcp(CcAlgo::Cubic),
            g_cubic.id,
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
            5,
            FlowKind::Tcp(CcAlgo::Dctcp),
            g_dctcp.id,
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            100,
        ),
    );
    let mut sim = Simulator::new(net);
    sim.run_until(Time::from_millis(400));
    let cubic = goodput_gbps(
        &sim.stats,
        EntityId(1),
        Time::from_millis(100),
        Time::from_millis(400),
    );
    let dctcp = goodput_gbps(
        &sim.stats,
        EntityId(2),
        Time::from_millis(100),
        Time::from_millis(400),
    );
    let ratio = cubic.min(dctcp) / cubic.max(dctcp);
    assert!(
        ratio > 0.8,
        "AQ coexistence ratio {ratio} (CUBIC {cubic}, DCTCP {dctcp})"
    );
    assert!(cubic + dctcp > 8.0, "allocations used: {cubic} + {dctcp}");
}

#[test]
fn aq_drives_swift_with_virtual_delay() {
    // A Swift entity allocated 5 Gbps of a 10 Gbps link never builds a
    // physical queue, so the measured queuing delay is ~0 and useless; the
    // AQ's virtual delay must drive it to its allocation instead.
    let d = dumbbell(
        1,
        Rate::from_gbps(10),
        Duration::from_micros(10),
        FifoConfig::default(),
    );
    let mut ctl = AqController::new(
        Rate::from_gbps(10),
        LimitPolicy::MatchPhysicalQueue {
            pq_limit_bytes: PQ_LIMIT,
        },
    );
    let g = ctl
        .request(AqRequest {
            demand: BandwidthDemand::Absolute(Rate::from_gbps(5)),
            cc: CcPolicy::DelayBased,
            position: Position::Ingress,
            limit_override: None,
        })
        .expect("grant");
    let mut pipe = AqPipeline::new();
    ctl.deploy_all(&mut pipe);
    let mut net = d.net;
    net.add_pipeline(d.sw_left, Box::new(pipe));
    ensure_transport_hosts(&mut net);
    add_flows(
        &mut net,
        long_flows(
            EntityId(1),
            &[(d.left[0], d.right[0])],
            4,
            FlowKind::Tcp(CcAlgo::Swift {
                target: Duration::from_micros(50),
            }),
            g.id,
            AqTag::NONE,
            DelaySignal::VirtualDelay,
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
        (4.2..=5.2).contains(&gp),
        "Swift entity reached {gp} Gbps of its 5 Gbps allocation"
    );
    // Physical queue stayed essentially empty: p95 physical delay tiny,
    // virtual delay near the Swift target.
    let es = sim.stats.entity(EntityId(1)).expect("entity");
    let pq95 = es.pq_delay.percentile(95.0).expect("samples");
    let vd95 = es.vdelay.percentile(95.0).expect("samples");
    assert!(pq95 < 20_000, "physical p95 {pq95} ns should be tiny");
    assert!(
        (10_000..=150_000).contains(&vd95),
        "virtual p95 {vd95} ns should hover near the 50 us target"
    );
}

#[test]
fn egress_aq_enforces_vm_inbound_bandwidth() {
    // Fig. 2 / Table 3's core property: 3 senders blast toward VM A; an
    // egress-position AQ on A's downlink caps A's inbound at 5 Gbps even
    // though each sender alone stays under its own outbound cap.
    let s = star(
        4,
        Rate::from_gbps(25),
        Duration::from_micros(5),
        FifoConfig::default(),
    );
    let mut ctl = AqController::new(
        Rate::from_gbps(25),
        LimitPolicy::MatchPhysicalQueue {
            pq_limit_bytes: PQ_LIMIT,
        },
    );
    let g_in = ctl
        .request(AqRequest {
            demand: BandwidthDemand::Absolute(Rate::from_gbps(5)),
            cc: CcPolicy::DropBased,
            position: Position::Egress,
            limit_override: None,
        })
        .expect("grant");
    let mut pipe = AqPipeline::new();
    ctl.deploy_all(&mut pipe);
    let mut net = s.net;
    net.add_pipeline(s.switch, Box::new(pipe));
    ensure_transport_hosts(&mut net);
    // Senders B, C, D each run 3 CUBIC flows to A, tagged with A's
    // egress AQ.
    for (i, src) in s.hosts[1..4].iter().enumerate() {
        add_flows(
            &mut net,
            long_flows(
                EntityId(i as u32 + 1),
                &[(*src, s.hosts[0])],
                3,
                FlowKind::Tcp(CcAlgo::Cubic),
                AqTag::NONE,
                g_in.id,
                DelaySignal::MeasuredRtt,
                (i as u32 + 1) * 100,
            ),
        );
    }
    let mut sim = Simulator::new(net);
    sim.run_until(Time::from_millis(300));
    let total: f64 = (1..=3)
        .map(|e| {
            goodput_gbps(
                &sim.stats,
                EntityId(e),
                Time::from_millis(100),
                Time::from_millis(300),
            )
        })
        .sum();
    assert!(
        (4.0..=5.3).contains(&total),
        "VM A inbound {total} Gbps, want ~5 (PQ alone would give ~25)"
    );
}

#[test]
fn work_conservation_bypass_lets_entities_exceed_allocations_when_idle() {
    // One entity allocated 2 Gbps via an egress AQ; with strict
    // enforcement it gets 2, with bypass-when-idle it grabs the idle link.
    for (mode, lo, hi) in [
        (WorkConservation::Off, 1.8, 2.2),
        (WorkConservation::BypassWhenIdle, 8.0, 10.1),
    ] {
        let d = dumbbell(
            1,
            Rate::from_gbps(10),
            Duration::from_micros(10),
            FifoConfig::default(),
        );
        let mut ctl = AqController::new(
            Rate::from_gbps(10),
            LimitPolicy::MatchPhysicalQueue {
                pq_limit_bytes: PQ_LIMIT,
            },
        );
        let g = ctl
            .request(AqRequest {
                demand: BandwidthDemand::Absolute(Rate::from_gbps(2)),
                cc: CcPolicy::DropBased,
                position: Position::Egress,
                limit_override: None,
            })
            .expect("grant");
        let mut pipe = AqPipeline::new();
        pipe.work_conservation = mode;
        ctl.deploy_all(&mut pipe);
        let mut net = d.net;
        net.add_pipeline(d.sw_left, Box::new(pipe));
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
                g.id,
                DelaySignal::MeasuredRtt,
                1,
            ),
        );
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_millis(100));
        let gp = goodput_gbps(
            &sim.stats,
            EntityId(1),
            Time::from_millis(20),
            Time::from_millis(100),
        );
        assert!(
            (lo..=hi).contains(&gp),
            "mode {mode:?}: got {gp} Gbps, want in [{lo}, {hi}]"
        );
    }
}

#[test]
fn flow_count_does_not_change_entity_shares() {
    // Fig. 8's shape: entity A has 1 flow, entity B has 32; under
    // equal-weight AQs they still split the link ~1:1.
    let d = dumbbell(
        2,
        Rate::from_gbps(10),
        Duration::from_micros(10),
        FifoConfig::with_ecn(PQ_LIMIT, 65_000),
    );
    let mut ctl = AqController::new(
        Rate::from_gbps(10),
        LimitPolicy::MatchPhysicalQueue {
            pq_limit_bytes: PQ_LIMIT,
        },
    );
    let ga = ctl
        .request(weighted_request(CcPolicy::DropBased))
        .expect("grant");
    let gb = ctl
        .request(weighted_request(CcPolicy::DropBased))
        .expect("grant");
    let mut pipe = AqPipeline::new();
    ctl.deploy_all(&mut pipe);
    let mut net = d.net;
    net.add_pipeline(d.sw_left, Box::new(pipe));
    ensure_transport_hosts(&mut net);
    add_flows(
        &mut net,
        long_flows(
            EntityId(1),
            &[(d.left[0], d.right[0])],
            1,
            FlowKind::Tcp(CcAlgo::Cubic),
            ga.id,
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
            32,
            FlowKind::Tcp(CcAlgo::Cubic),
            gb.id,
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            100,
        ),
    );
    let mut sim = Simulator::new(net);
    sim.run_until(Time::from_millis(400));
    let a = goodput_gbps(
        &sim.stats,
        EntityId(1),
        Time::from_millis(100),
        Time::from_millis(400),
    );
    let b = goodput_gbps(
        &sim.stats,
        EntityId(2),
        Time::from_millis(100),
        Time::from_millis(400),
    );
    let ratio = a.min(b) / a.max(b);
    assert!(
        ratio > 0.75,
        "1-flow vs 32-flow entities should still split evenly: {a} vs {b}"
    );
}

/// An ingress AQ stage whose table runs in lockstep with `aq_core::spec`:
/// every packet the simulated switch hands it is checked against
/// Algorithm 1 + 2 as the paper states them, in a default build.
struct SpecCheckedStage(Lockstep);

impl SwitchPipeline for SpecCheckedStage {
    fn ingress(&mut self, now: Time, pkt: &mut Packet) -> PipelineVerdict {
        if !pkt.aq_ingress.is_some() {
            return PipelineVerdict::Forward;
        }
        match self.0.process(pkt.aq_ingress, now, pkt) {
            Ok(Some(AqVerdict::Drop)) => PipelineVerdict::Drop,
            Ok(_) => PipelineVerdict::Forward,
            Err(e) => panic!("at {now}: the AQ table left the spec: {e}"),
        }
    }

    fn egress(&mut self, _: Time, _: &mut Packet, _: PortId, _: u64) -> PipelineVerdict {
        PipelineVerdict::Forward
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[test]
fn aq_table_follows_the_spec_through_a_whole_run_and_a_retarget() {
    // Three equal-weight entities, one per CC policy (a UDP blaster under
    // drop-based AQ, DCTCP under ECN-based, Swift under delay-based), so
    // Algorithm 2 drops, marks and stamps delays on real traffic. At
    // 100 ms the control plane cuts the UDP AQ to 1 Gbps, keeping its
    // limit, and rewrites the other two unchanged; the table must stay
    // with the spec through both kinds of write, and the cut must take
    // hold.
    let d = dumbbell(
        3,
        Rate::from_gbps(10),
        Duration::from_micros(10),
        FifoConfig::with_ecn(PQ_LIMIT, 65_000),
    );
    let mut ctl = AqController::new(
        Rate::from_gbps(10),
        LimitPolicy::MatchPhysicalQueue {
            pq_limit_bytes: PQ_LIMIT,
        },
    );
    let mut net = d.net;
    ensure_transport_hosts(&mut net);
    let udp = FlowKind::Udp {
        rate: Rate::from_gbps(10),
    };
    let swift = FlowKind::Tcp(CcAlgo::Swift {
        target: Duration::from_micros(50),
    });
    let ecn = CcPolicy::EcnBased {
        threshold_bytes: 30_000,
    };
    let dctcp = FlowKind::Tcp(CcAlgo::Dctcp);
    let entities = [
        (CcPolicy::DropBased, udp, DelaySignal::MeasuredRtt, 1),
        (ecn, dctcp, DelaySignal::MeasuredRtt, 4),
        (CcPolicy::DelayBased, swift, DelaySignal::VirtualDelay, 4),
    ];
    for (e, (i, (cc, kind, signal, n))) in (1..).zip(entities.into_iter().enumerate()) {
        let g = ctl.request(weighted_request(cc)).expect("grant");
        let pair = [(d.left[i], d.right[i])];
        let flows = long_flows(
            EntityId(e),
            &pair,
            n,
            kind,
            g.id,
            AqTag::NONE,
            signal,
            100 * e,
        );
        add_flows(&mut net, flows);
    }
    let configs = ctl.configs();
    let mut stage = SpecCheckedStage(Lockstep::default());
    for (_, cfg) in &configs {
        stage.0.deploy(Time::ZERO, cfg.clone()).expect("deploy");
    }
    net.add_pipeline(d.sw_left, Box::new(stage));
    let mut sim = Simulator::new(net);
    fn lockstep(sim: &mut Simulator, sw: NodeId) -> &mut Lockstep {
        let stage = sim.net.pipeline_mut::<SpecCheckedStage>(sw, 0);
        &mut stage.expect("the spec-checked stage").0
    }
    let cut = Time::from_millis(100);
    sim.run_until(cut);
    for (_, cfg) in &configs {
        let (rate, limit) = match cfg.cc {
            CcPolicy::DropBased => (Rate::from_gbps(1), None),
            _ => (cfg.rate, Some(cfg.limit_bytes)),
        };
        let retarget = lockstep(&mut sim, d.sw_left).retarget(cfg.id, cut, rate, limit);
        assert_eq!(retarget, Ok(true), "aq {}", cfg.id.0);
    }
    sim.run_until(Time::from_millis(200));
    let table = &lockstep(&mut sim, d.sw_left).table;
    let rows = configs
        .iter()
        .map(|(_, cfg)| table.get(cfg.id).expect("row"));
    let (drops, marks) = rows.fold((0, 0), |(dr, mk), r| (dr + r.drops, mk + r.marks));
    assert!(drops > 0 && marks > 0, "{drops} AQ drops, {marks} AQ marks");
    let swift = sim.stats.entity(EntityId(3)).expect("Swift entity");
    assert!(swift.vdelay.percentile(95.0) > Some(0), "no virtual delay");
    let goodput = |from_ms, to_ms| {
        let (from, to) = (Time::from_millis(from_ms), Time::from_millis(to_ms));
        goodput_gbps(&sim.stats, EntityId(1), from, to)
    };
    let (before, after) = (goodput(40, 100), goodput(120, 200));
    assert!(
        (2.8..=3.6).contains(&before),
        "UDP got {before} of 10/3 Gbps"
    );
    assert!(
        (0.8..=1.1).contains(&after),
        "UDP got {after} Gbps after the cut to 1"
    );
}
