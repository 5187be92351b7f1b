//! End-to-end checks of the port/AQ telemetry layer.
//!
//! The [`StatsHub`] mirrors the queue disciplines' conservation counters
//! per `(switch, port)` and receives per-AQ gap summaries from the
//! pipeline. These tests drive full simulations and assert that
//!
//! 1. the hub-side byte identity `enqueued == dequeued + dropped +
//!    resident` holds on every port the run touched,
//! 2. the hub's image of the bottleneck port agrees exactly with the
//!    white-box [`FifoQueue`] counters,
//! 3. AQ-limit drops are attributed to ports (and sum to the switch's
//!    pipeline drop count) without entering the byte identity, and
//! 4. the structured [`RunReport`] built from the hub reflects all of the
//!    above.

use aq_bench::report::RunReport;
use aq_bench::{
    build_dumbbell, build_experiment, Approach, EntitySetup, ExpConfig, LongKind, Traffic,
};
use augmented_queue::core::AqPipeline;
use augmented_queue::netsim::fault::{FaultKind, FaultPlan};
use augmented_queue::netsim::queue::FifoQueue;
use augmented_queue::netsim::time::{Duration, Rate, Time};
use augmented_queue::netsim::{EntityId, NodeId, ShardedSim};
use augmented_queue::transport::CcAlgo;
use augmented_queue::workloads::registry::{self, Params};

/// A UDP bully plus a CUBIC entity: guarantees sustained overload, so the
/// bottleneck sees drops in every approach.
fn contended_entities() -> Vec<EntitySetup> {
    vec![
        EntitySetup {
            entity: EntityId(1),
            n_vms: 1,
            cc: CcAlgo::Cubic,
            weight: 1,
            traffic: Traffic::Long {
                n: 1,
                kind: LongKind::Udp(Rate::from_gbps(10)),
            },
        },
        EntitySetup {
            entity: EntityId(2),
            n_vms: 1,
            cc: CcAlgo::Cubic,
            weight: 1,
            traffic: Traffic::Long {
                n: 4,
                kind: LongKind::Tcp,
            },
        },
    ]
}

#[test]
fn hub_port_counters_conserve_and_match_the_queue() {
    let entities = contended_entities();
    let mut exp = build_dumbbell(Approach::Pq, &entities, ExpConfig::default());
    exp.sim.run_until(Time::from_millis(100));

    // 1. Byte conservation on every port the hub saw.
    let mut saw_ports = 0;
    for (pid, ps) in exp.sim.stats.ports() {
        saw_ports += 1;
        assert!(
            ps.conserves(),
            "port {pid:?}: enqueued={} dequeued={} dropped={} resident={}",
            ps.enqueued_bytes,
            ps.dequeued_bytes,
            ps.dropped_bytes,
            ps.resident_bytes,
        );
    }
    assert!(saw_ports > 0, "hub recorded no ports");

    // 2. The bottleneck overflowed: taildrops with real bytes behind them.
    let core = exp
        .sim
        .stats
        .port(exp.core_port)
        .cloned()
        .expect("core port in hub");
    assert!(core.taildrops > 0, "UDP bully should overflow the core PQ");
    assert!(core.dropped_bytes > 0);
    assert!(core.tx_pkts > 0 && core.tx_bytes > 0);
    assert!(core.peak_occupancy_bytes() > 0);

    // 3. The hub's mirror equals the discipline's own white-box counters.
    let fifo = exp
        .sim
        .net
        .discipline_mut::<FifoQueue>(exp.core_port)
        .expect("core queue is a FIFO");
    assert_eq!(core.enqueued_bytes, fifo.enqueued_bytes);
    assert_eq!(core.dequeued_bytes, fifo.dequeued_bytes);
    assert_eq!(core.dropped_bytes, fifo.dropped_bytes);
    assert_eq!(core.queue_drops(), fifo.drops);
    assert_eq!(core.ecn_marks, fifo.marks);
}

#[test]
fn aq_limit_drops_are_attributed_but_outside_the_byte_identity() {
    let entities = contended_entities();
    let mut exp = build_dumbbell(Approach::Aq, &entities, ExpConfig::default());
    exp.sim.run_until(Time::from_millis(100));

    // Conservation still holds everywhere under the AQ pipeline.
    for (pid, ps) in exp.sim.stats.ports() {
        assert!(ps.conserves(), "port {pid:?} violates byte identity");
    }

    // AQ-limit drops happen upstream of the queue; the hub attributes them
    // to the victim's egress port, and the per-port counts add up to the
    // pipeline's own drop counter (kept by `AqPipeline`, not fed by the
    // simulator — an independent count).
    let core_node = exp.sim.stats.port(exp.core_port).expect("core port").node;
    let attributed: u64 = exp.sim.stats.ports().map(|(_, ps)| ps.aq_drops).sum();
    let pipe = exp.sim.net.pipeline_mut::<AqPipeline>(core_node, 0);
    let pipeline = pipe.expect("the dumbbell's AQ pipeline").stats.drops;
    assert!(pipeline > 0, "the bully's AQ should be dropping");
    assert_eq!(
        attributed, pipeline,
        "per-port aq_drops must sum to the pipeline counter"
    );
}

#[test]
fn mid_transfer_link_death_balances_every_conservation_sum() {
    // One UDP entity saturates the dumbbell; the core link is killed for
    // 2 ms mid-transfer (losing whatever is serializing or propagating on
    // it), restored, and near the horizon the sender is blacked out so the
    // network fully drains. After the drain every conservation identity
    // must close exactly — in-flight link-death losses are attribution-only
    // (`wire_dropped_bytes`), never double-counted into the queue identity.
    let entities = vec![EntitySetup {
        entity: EntityId(1),
        n_vms: 1,
        cc: CcAlgo::Cubic,
        weight: 1,
        traffic: Traffic::Long {
            n: 1,
            kind: LongKind::Udp(Rate::from_gbps(10)),
        },
    }];
    let mut exp = build_dumbbell(Approach::Pq, &entities, ExpConfig::default());
    let core_link = exp.sim.net.ports[exp.core_port.index()].link;
    let sender = exp.entity_vms[0].1[0];
    let plan = FaultPlan::new(7)
        .flap(
            core_link,
            Time::from_millis(10),
            1,
            Duration::from_millis(2),
            Duration::from_millis(1),
        )
        .event(Time::from_millis(30), FaultKind::HostPause { node: sender });
    exp.sim.install_faults(plan);
    exp.sim.run_until(Time::from_millis(35));

    // The kill caught traffic mid-flight, and every fault event fired.
    let totals = exp.sim.fault_totals().clone();
    assert_eq!(totals.injected, 3, "down + up + pause must all fire");
    assert!(
        totals.link_down_drops > 0,
        "no packet died on the dead link"
    );
    assert!(
        totals.pause_drops > 0,
        "the blacked-out sender kept sending"
    );

    // 1. The queue-side byte identity still closes on every port.
    for (pid, ps) in exp.sim.stats.ports() {
        assert!(
            ps.conserves(),
            "port {pid:?} violates the byte identity under link death"
        );
    }

    // 2. The wire-side identity closes on the core port: everything
    //    dequeued either finished serializing or died on the wire (the
    //    drained network holds no partially-serialized packet).
    let core = exp.sim.stats.port(exp.core_port).expect("core port in hub");
    assert!(
        core.link_drops > 0,
        "link-death drops attribute to the core"
    );
    assert_eq!(
        core.dequeued_bytes,
        core.tx_bytes + core.wire_dropped_bytes,
        "core wire boundary does not close after the drain"
    );

    // 3. Hub attribution agrees with the simulator's run-wide fault totals.
    let attributed_link: u64 = exp.sim.stats.ports().map(|(_, ps)| ps.link_drops).sum();
    assert_eq!(attributed_link, totals.link_down_drops);
    // wire_dropped_bytes holds only frames cut mid-serialization; the
    // totals also include packets lost while propagating, so the hub's
    // attribution can never exceed them.
    let attributed_wire_bytes: u64 = exp
        .sim
        .stats
        .ports()
        .map(|(_, ps)| ps.wire_dropped_bytes)
        .sum();
    assert!(attributed_wire_bytes <= totals.link_down_dropped_bytes);

    // 4. Per-entity packet conservation: arrived == delivered +
    //    dropped-by-cause. UDP datagrams are fixed-size, so delivered
    //    packets can be recovered exactly from delivered payload bytes.
    let es = exp.sim.stats.entity(EntityId(1)).expect("entity in hub");
    assert!(es.tx_pkts > 0 && es.tx_bytes.is_multiple_of(es.tx_pkts));
    let payload = es.tx_bytes / es.tx_pkts;
    assert!(es.rx_bytes.is_multiple_of(payload));
    let delivered_pkts = es.rx_bytes / payload;
    assert_eq!(
        es.tx_pkts,
        delivered_pkts + es.drops,
        "arrived != delivered + dropped after full drain"
    );

    // 5. And the per-cause decomposition accounts for every drop: the
    //    sole entity's losses are exactly the queue taildrops, the wire
    //    deaths, and the blackout injections — nothing uncategorized.
    let by_cause: u64 = exp
        .sim
        .stats
        .ports()
        .map(|(_, ps)| ps.taildrops + ps.shaper_drops + ps.link_drops + ps.corrupt_drops)
        .sum::<u64>()
        + totals.pause_drops;
    assert_eq!(es.drops, by_cause, "a drop escaped cause attribution");
}

#[test]
fn shared_buffer_pool_occupancy_conserves_across_link_kill() {
    // `incast_sharedbuf` installs a SharedBufferPool on both dumbbell
    // switches. Step the run in 1 ms windows and, at every sample, check
    // the pool against the disciplines it mirrors: each per-port share
    // equals that port's discipline backlog, the shares sum to the pool
    // occupancy, and the occupancy never exceeds the pool capacity —
    // including across a mid-run core-link kill (down 2 ms at 10 ms),
    // which freezes draining and slams the pool into its admission
    // ceiling while the conservation identity must keep closing.
    let def = registry::find("incast_sharedbuf").expect("registered scenario");
    let params = Params::parse("admission=0,horizon_ms=30").expect("params parse");
    let plan = def.plan(&params).expect("plan builds");
    let mut exp = build_experiment(Approach::Pq, &plan, ExpConfig::default());

    let core_link = exp.sim.net.ports[exp.core_port.index()].link;
    let faults = FaultPlan::new(11).flap(
        core_link,
        Time::from_millis(10),
        1,
        Duration::from_millis(2),
        Duration::from_millis(1),
    );
    exp.sim.install_faults(faults);

    let mut pool_samples = 0u32;
    let mut peak = 0u64;
    for ms in 1..=30u64 {
        exp.sim.run_until(Time::from_millis(ms));
        for node in &exp.sim.net.nodes {
            let Some(pool) = exp.sim.shared_buffer(node.id) else {
                continue;
            };
            let mut share_sum = 0u64;
            for &pid in &node.ports {
                let backlog = exp.sim.net.ports[pid.index()].queue.backlog_bytes();
                assert_eq!(
                    pool.port_occupancy(pid),
                    backlog,
                    "t={ms}ms node {:?} port {pid:?}: pool share diverged \
                     from the discipline backlog",
                    node.id,
                );
                share_sum += backlog;
            }
            assert_eq!(
                share_sum,
                pool.occupancy(),
                "t={ms}ms node {:?}: port shares do not sum to the pool \
                 occupancy",
                node.id,
            );
            assert!(
                pool.occupancy() <= pool.capacity_bytes(),
                "t={ms}ms node {:?}: pool occupancy {} exceeds capacity {}",
                node.id,
                pool.occupancy(),
                pool.capacity_bytes(),
            );
            peak = peak.max(pool.occupancy());
            pool_samples += 1;
        }
    }

    // Both switch pools were sampled at all 30 windows, the incast
    // actually filled buffer, the kill+restore both fired, and the
    // static partition rejected load at the left switch.
    assert_eq!(pool_samples, 60, "expected 2 pools x 30 windowed samples");
    assert!(peak > 0, "incast never occupied the shared buffer");
    assert_eq!(exp.sim.fault_totals().injected, 2, "down + up must fire");
    let left = exp
        .sim
        .shared_buffer(NodeId(0))
        .expect("left switch carries a pool");
    assert!(
        left.rejects() > 0,
        "static partition should reject under incast + link kill"
    );
}

#[test]
fn run_report_reflects_hub_and_gap_telemetry() {
    let entities = contended_entities();
    let mut exp = build_dumbbell(Approach::Aq, &entities, ExpConfig::default());
    exp.sim.run_until(Time::from_millis(100));

    let mut rep = RunReport::new("telemetry_e2e");
    rep.capture("aq", &mut exp.sim);
    let section = &rep.sections()[0];

    // Entities made progress and the fairness index is sane.
    assert_eq!(section.entities.len(), 2);
    assert!(section.entities.iter().all(|e| e.rx_bytes > 0));
    assert!(section.jain_goodput > 0.0 && section.jain_goodput <= 1.0);

    // Every port row carries the conservation verdict the hub computed.
    assert!(!section.ports.is_empty());
    assert!(section.ports.iter().all(|p| p.conserves));

    // The pipeline exported one summary per deployed AQ; the A-Gap is
    // sampled on forwarded packets only, so its peak respects the limit.
    assert_eq!(section.aqs.len(), 2, "two ingress AQs deployed");
    for aq in &section.aqs {
        assert_eq!(aq.position, "ingress");
        assert!(aq.gap_samples > 0, "AQ {} never sampled", aq.tag);
        assert!(
            aq.max_gap_bytes <= aq.limit_bytes,
            "AQ {}: gap {} exceeds limit {}",
            aq.tag,
            aq.max_gap_bytes,
            aq.limit_bytes,
        );
        assert!(aq.mean_gap_bytes <= aq.max_gap_bytes as f64);
        assert!(aq.arrived_bytes > 0);
    }
    // The bully's AQ is the one shedding load.
    assert!(section.aqs.iter().any(|aq| aq.limit_drops > 0));

    // Rendering is pure: identical bytes for identical state.
    assert_eq!(rep.render(), rep.render());

    // Windowed series are padded to the capture horizon: a 100 ms run with
    // 10 ms windows yields exactly 10 buckets on every entity and port row,
    // however early its traffic went quiet — the sweep drill-down compares
    // series bucket-by-bucket, so lengths must line up across rows, seeds
    // and approaches.
    for e in &section.entities {
        assert_eq!(
            e.rate_series_bps.len(),
            10,
            "entity {} series not padded to the horizon",
            e.entity
        );
    }
    for p in &section.ports {
        assert_eq!(
            p.occupancy.len(),
            10,
            "port {}/{} occupancy not padded to the horizon",
            p.node,
            p.port
        );
    }
}

#[test]
fn conservation_counters_close_after_cross_shard_merge() {
    // The sharded engine runs one pod (plus the core) per shard and folds
    // every shard's stats hub into one at the end. Conservation identities
    // are the merge's acid test: a packet crossing shards is enqueued on
    // one shard's port telemetry and dequeued on another's, so any
    // double-count or dropped contribution in the fold breaks the byte
    // identity somewhere. Drive the cross-pod fat-tree scenario sharded
    // five ways and audit the merged hub like any single-engine run.
    let def = registry::find("interpod_fattree").expect("scenario registered");
    let plan = def
        .plan(&Params::parse("a_flows=1,b_flows=2,horizon_ms=20").expect("params"))
        .expect("plan");
    let exp = build_experiment(Approach::Aq, &plan, ExpConfig::default());
    let mut sharded = match ShardedSim::partition(exp.sim, &exp.shard_plan, 2) {
        Ok(s) => s,
        Err(_) => panic!("interpod fat tree must shard per pod plus core"),
    };
    assert_eq!(sharded.shards(), 5, "k=4 fat tree: four pods plus the core");
    sharded.run_until(Time::from_millis(20));
    let sim = sharded.finish();

    // 1. The queue-side byte identity closes on every port of the merged
    //    hub, and traffic actually crossed the fabric.
    let mut busy_ports = 0;
    for (pid, ps) in sim.stats.ports() {
        assert!(
            ps.conserves(),
            "port {pid:?} violates the byte identity after the cross-shard merge: \
             enqueued={} dequeued={} dropped={} resident={}",
            ps.enqueued_bytes,
            ps.dequeued_bytes,
            ps.dropped_bytes,
            ps.resident_bytes,
        );
        if ps.enqueued_bytes > 0 {
            busy_ports += 1;
        }
    }
    assert!(
        busy_ports > 4,
        "cross-pod traffic should light up the fabric"
    );

    // 2. Both entities moved real cross-pod traffic, and no entity
    //    delivered more than it sent (rx is payload-only, tx counts every
    //    launched packet).
    for e in [EntityId(1), EntityId(2)] {
        let es = sim.stats.entity(e).expect("entity in merged hub");
        assert!(es.tx_pkts > 0, "entity {e:?} sent nothing");
        assert!(es.rx_bytes > 0, "entity {e:?} delivered nothing cross-pod");
        assert!(
            es.rx_bytes <= es.tx_bytes,
            "entity {e:?} delivered more bytes than it transmitted"
        );
    }

    // 3. Global flow conservation: every packet the fabric transmitted
    //    was enqueued somewhere first (tx happens only after a dequeue).
    let enq: u64 = sim.stats.ports().map(|(_, ps)| ps.enqueued_bytes).sum();
    let tx: u64 = sim.stats.ports().map(|(_, ps)| ps.tx_bytes).sum();
    assert!(tx <= enq, "merged hub transmitted bytes it never enqueued");
}
