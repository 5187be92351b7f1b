//! Same seed ⇒ byte-identical run.
//!
//! The repository's reproducibility contract, checked end to end: two
//! executions of the same full-stack AQ scenario with the same seed must
//! produce *identical* statistics — not statistically similar, identical.
//! The digest covers the Debug rendering of the entire [`StatsHub`]
//! (per-entity byte/packet/drop/mark counters, delay percentiles,
//! windowed throughput) plus the processed-event count, so any divergence
//! anywhere in the event stream shows up. A second, wider scenario runs
//! an ECMP fat-tree and additionally digests the rendered `RunReport`
//! artifact bytes, pinning down the serialization path as well. Further
//! scenarios cover the baseline disciplines (PRL's static rate limiters,
//! DRL's ElasticSwitch agent, and a disaggregated-RED core queue, all on
//! a dumbbell):
//! the sweep harness's regression gate compares AQ against the
//! baselines, so they must honor the same byte-identical contract.
//!
//! Everything that could break this is policed elsewhere: the root
//! `clippy.toml` bans the sources of host-dependent state (wall clocks,
//! hash collections, threads) and `tests/lint_policy.rs` shows each rule
//! fires, and the vendored `rand` has no entropy-based constructors at
//! all.

use aq_bench::report::RunReport;
use aq_bench::{
    build_dumbbell, build_experiment, run_workload, Approach, EntitySetup, ExpConfig, LongKind,
    Traffic,
};
use augmented_queue::core::{
    AqController, AqPipeline, AqRequest, BandwidthDemand, CcPolicy, LimitPolicy, Position,
};
use augmented_queue::netsim::packet::AqTag;
use augmented_queue::netsim::queue::{DisaggRedConfig, DisaggRedQueue, FifoConfig};
use augmented_queue::netsim::time::{Duration, Rate, Time};
use augmented_queue::netsim::topology::{dumbbell, fat_tree};
use augmented_queue::netsim::{EntityId, ShardedSim, Simulator};
use augmented_queue::transport::{CcAlgo, DelaySignal, FlowKind};
use augmented_queue::workloads::registry::{self, Params, RunPlan};
use augmented_queue::workloads::{add_flows, ensure_transport_hosts, long_flows};

/// Run a mixed UDP + CUBIC dumbbell scenario under AQ and digest every
/// observable statistic.
fn run_digest(seed: u64) -> String {
    let d = dumbbell(
        2,
        Rate::from_gbps(10),
        Duration::from_micros(10),
        FifoConfig::default(),
    );
    let mut ctl = AqController::new(
        Rate::from_gbps(10),
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
    let g_udp = ctl.request(request(CcPolicy::DropBased)).expect("grant");
    let g_tcp = ctl.request(request(CcPolicy::DropBased)).expect("grant");
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
            4,
            FlowKind::Tcp(CcAlgo::Cubic),
            g_tcp.id,
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            100,
        ),
    );
    let mut sim = Simulator::new(net);
    sim.set_seed(seed);
    sim.run_until(Time::from_millis(60));
    format!(
        "events={} now={:?} stats={:?}",
        sim.processed_events,
        sim.now(),
        sim.stats
    )
}

/// The wide variant: ECMP fat-tree fabric, an AQ-limited entity fanned
/// out over all core paths, and the digest extended to cover the rendered
/// [`RunReport`] artifact bytes (JSON + every CSV) on top of the raw
/// `StatsHub` Debug output. This is the same contract the bench binaries
/// and examples rely on when they promise byte-identical run-report
/// artifacts for a given seed.
fn run_fat_tree_digest(seed: u64) -> String {
    let (rep, stats_digest) = fat_tree_report(seed);
    let artifact: String = rep
        .render()
        .into_iter()
        .map(|(file, bytes)| format!("--- {file}\n{bytes}"))
        .collect();
    format!("{stats_digest}\n{artifact}")
}

/// Build and run the ECMP fat-tree scenario once, returning the captured
/// [`RunReport`] plus a digest of the raw simulator state.
fn fat_tree_report(seed: u64) -> (RunReport, String) {
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
    let g_tcp = ctl
        .request(AqRequest {
            demand: BandwidthDemand::Absolute(Rate::from_gbps(3)),
            cc: CcPolicy::DropBased,
            position: Position::Ingress,
            limit_override: None,
        })
        .expect("grant");
    let g_udp = ctl
        .request(AqRequest {
            demand: BandwidthDemand::Absolute(Rate::from_gbps(2)),
            cc: CcPolicy::DropBased,
            position: Position::Ingress,
            limit_override: None,
        })
        .expect("grant");
    let mut pipe = AqPipeline::new();
    ctl.deploy_all(&mut pipe);
    let mut net = ft.net;
    // hosts[0..2] share edge switch 0; every ECMP path crosses it.
    net.add_pipeline(ft.edge[0], Box::new(pipe));
    ensure_transport_hosts(&mut net);
    let pairs: Vec<_> = (0..2).map(|i| (ft.hosts[i], ft.hosts[12 + i])).collect();
    add_flows(
        &mut net,
        long_flows(
            EntityId(1),
            &pairs,
            6,
            FlowKind::Tcp(CcAlgo::Cubic),
            g_tcp.id,
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            1,
        ),
    );
    add_flows(
        &mut net,
        long_flows(
            EntityId(2),
            &[(ft.hosts[1], ft.hosts[13])],
            1,
            FlowKind::Udp {
                rate: Rate::from_gbps(5),
            },
            g_udp.id,
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            100,
        ),
    );
    let mut sim = Simulator::new(net);
    sim.set_seed(seed);
    sim.run_until(Time::from_millis(40));
    let mut rep = RunReport::new("determinism_fat_tree");
    rep.capture("fat_tree", &mut sim);
    let digest = format!(
        "events={} now={:?} stats={:?}",
        sim.processed_events,
        sim.now(),
        sim.stats
    );
    (rep, digest)
}

fn unbalanced_entities() -> Vec<EntitySetup> {
    vec![
        EntitySetup {
            entity: EntityId(1),
            n_vms: 1,
            cc: CcAlgo::Cubic,
            weight: 1,
            traffic: Traffic::Long {
                n: 1,
                kind: LongKind::Tcp,
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

/// A baseline-approach dumbbell (PRL's static rate limiters or DRL's
/// ElasticSwitch agent) digested the same way: baseline approaches must
/// honor the same reproducibility contract as AQ, since the harness's
/// regression gate compares AQ *against* them. When `red_core` is set,
/// the core port's FIFO is additionally swapped for a [`DisaggRedQueue`]
/// so an AQM-zoo discipline is pinned too.
fn run_baseline_digest(approach: Approach, red_core: bool, seed: u64) -> String {
    let mut exp = build_dumbbell(
        approach,
        &unbalanced_entities(),
        ExpConfig {
            seed,
            ..Default::default()
        },
    );
    if red_core {
        exp.sim.net.ports[exp.core_port.index()].queue =
            Box::new(DisaggRedQueue::new(DisaggRedConfig::default()));
    }
    exp.sim.run_until(Time::from_millis(30));
    let label = approach.name().to_ascii_lowercase();
    let mut rep = RunReport::new(&format!("determinism_{label}_dumbbell"));
    rep.capture(&label, &mut exp.sim);
    let artifact: String = rep
        .render()
        .into_iter()
        .map(|(file, bytes)| format!("--- {file}\n{bytes}"))
        .collect();
    format!(
        "events={} now={:?} stats={:?}\n{artifact}",
        exp.sim.processed_events,
        exp.sim.now(),
        exp.sim.stats
    )
}

/// Build a fault-injection registry scenario (link flap trains, stochastic
/// corruption, sender blackout, AQ table wipe — whatever the scenario's
/// `FaultPlan` schedules), run it to its horizon, and digest the raw
/// simulator state, the fault totals, and the rendered `RunReport`
/// artifact bytes. Same seed + same fault plan must replay byte-for-byte:
/// each stochastic corruption window draws from its own stream seeded by
/// (plan seed, fault index), never from the traffic RNG.
fn run_fault_scenario_digest(scenario: &str, params: &str, seed: u64) -> String {
    let def = registry::find(scenario).expect("fault scenario registered");
    let resolved = def
        .resolve(&Params::parse(params).expect("params parse"))
        .expect("params resolve");
    let plan = (def.build)(&resolved);
    assert!(
        !plan.faults.is_empty(),
        "{scenario}: expected a fault plan to exercise"
    );
    let RunPlan::FixedHorizon { horizon } = plan.run else {
        panic!("{scenario}: fault scenarios run on a fixed horizon");
    };
    let mut exp = build_experiment(
        Approach::Aq,
        &plan,
        ExpConfig {
            seed,
            ..Default::default()
        },
    );
    exp.sim.run_until(Time::ZERO + horizon);
    let mut rep = RunReport::new(&format!("determinism_{scenario}"));
    rep.capture("run", &mut exp.sim);
    let artifact: String = rep
        .render()
        .into_iter()
        .map(|(file, bytes)| format!("--- {file}\n{bytes}"))
        .collect();
    format!(
        "events={} now={:?} faults={:?} stats={:?}\n{artifact}",
        exp.sim.processed_events,
        exp.sim.now(),
        exp.sim.fault_totals(),
        exp.sim.stats
    )
}

/// Run one registry scenario either on the single-threaded reference
/// engine (`jobs == None`) or sharded over `jobs` worker threads, and
/// digest the raw merged simulator state plus the rendered `RunReport`
/// artifact bytes. Sharding must be *invisible* in the digest — the
/// merged shards reproduce the reference event stream exactly — so the
/// helper panics if a scenario expected to shard falls back.
fn run_sharded_scenario_digest(
    scenario: &str,
    params: &str,
    seed: u64,
    jobs: Option<usize>,
) -> String {
    let def = registry::find(scenario).expect("scenario registered");
    let resolved = def
        .resolve(&Params::parse(params).expect("params parse"))
        .expect("params resolve");
    let plan = (def.build)(&resolved);
    let mut exp = build_experiment(
        Approach::Aq,
        &plan,
        ExpConfig {
            seed,
            ..Default::default()
        },
    );
    let ids: Vec<EntityId> = plan.entities.iter().map(|e| e.entity).collect();
    let mut sim = match jobs {
        None => {
            match plan.run {
                RunPlan::FixedHorizon { horizon } => exp.sim.run_until(Time::ZERO + horizon),
                RunPlan::UntilComplete { deadline } => {
                    run_workload(&mut exp.sim, &ids, Time::ZERO + deadline);
                }
            }
            exp.sim
        }
        Some(n) => {
            let mut sharded = match ShardedSim::partition(exp.sim, &exp.shard_plan, n) {
                Ok(s) => s,
                Err(_) => panic!("{scenario}: expected a shardable run, partition fell back"),
            };
            match plan.run {
                RunPlan::FixedHorizon { horizon } => sharded.run_until(Time::ZERO + horizon),
                RunPlan::UntilComplete { deadline } => {
                    let check_every = Duration::from_millis(10);
                    let deadline = Time::ZERO + deadline;
                    let mut t = sharded.now();
                    loop {
                        t = (t + check_every).min(deadline);
                        sharded.run_until(t);
                        let done = ids
                            .iter()
                            .all(|e| sharded.entity_completed_fraction(*e) >= 1.0);
                        if done || t >= deadline {
                            break;
                        }
                    }
                }
            }
            sharded.finish()
        }
    };
    let mut rep = RunReport::new(&format!("determinism_sharded_{scenario}"));
    rep.capture("run", &mut sim);
    let artifact: String = rep
        .render()
        .into_iter()
        .map(|(file, bytes)| format!("--- {file}\n{bytes}"))
        .collect();
    format!(
        "events={} now={:?} faults={:?} stats={:?}\n{artifact}",
        sim.processed_events,
        sim.now(),
        sim.fault_totals(),
        sim.stats
    )
}

#[test]
fn sharded_engine_produces_identical_bytes_at_every_job_count() {
    // The sharded engine's whole value rests on this: for every smoke
    // scenario plus the cross-pod fat-tree, the merged multi-shard run
    // must reproduce the reference engine's digest byte for byte at
    // every `--jobs` level — stats hub, fault totals, and rendered
    // report artifacts included. `jobs = 1` runs the sharded rounds
    // serially (same partition and merge, no threads), so a divergence
    // there isolates the partition/merge logic from the threading.
    for (scenario, params) in [
        ("interpod_fattree", "a_flows=1,b_flows=2,horizon_ms=20"),
        ("aq_state_loss", "horizon_ms=25,n_flows=4,wipe_at_ms=10"),
        ("completion_vms", "deadline_ms=5000,n_flows=8,size_scale=2,vms=1"),
        ("fairness_flows", "b_flows=1,horizon_ms=20"),
        ("incast_sharedbuf", "admission=1,horizon_ms=20"),
        (
            "linkflap_dumbbell",
            "blackout_ms=0,down_ms=2,flap_at_ms=10,flaps=2,horizon_ms=30,loss_pct=0,n_flows=4,up_ms=3",
        ),
        ("udp_tcp_share", "horizon_ms=20,tcp_flows=4,udp_gbps=10"),
        ("websearch_aqm_zoo", "aqm=1,horizon_ms=20"),
        ("tenant_churn", "horizon_ms=25,wipe_at_ms=12"),
    ] {
        let reference = run_sharded_scenario_digest(scenario, params, 1, None);
        for jobs in [1usize, 2, 4] {
            let sharded = run_sharded_scenario_digest(scenario, params, 1, Some(jobs));
            assert_eq!(
                reference, sharded,
                "{scenario}: sharded run at jobs={jobs} diverged from the reference engine"
            );
        }
    }
}

#[test]
fn budget_overflow_degrades_gracefully_at_every_job_count() {
    // Hold the tenant-churn AQ table to a 2-row register budget against
    // the controller's 3 boot-time grants, under both overflow policies.
    // The run must complete without panicking, conserve bytes at every
    // port, account the degraded traffic in the table summary, and replay
    // byte-identically on the sharded engine at jobs 1 and 4.
    for (policy, label) in [(0u32, "reject_new"), (1u32, "evict_idle")] {
        let params = format!("budget_aqs=2,policy={policy},horizon_ms=20,wipe_at_ms=0,churn_aqs=2");
        let reference = run_sharded_scenario_digest("tenant_churn", &params, 1, None);
        for jobs in [1usize, 4] {
            let sharded = run_sharded_scenario_digest("tenant_churn", &params, 1, Some(jobs));
            assert_eq!(
                reference, sharded,
                "tenant_churn overflow ({label}): jobs={jobs} diverged from reference"
            );
        }

        // Re-run once more to inspect the captured report directly.
        let def = registry::find("tenant_churn").expect("registered");
        let resolved = def
            .resolve(&Params::parse(&params).expect("params parse"))
            .expect("params resolve");
        let plan = (def.build)(&resolved);
        let RunPlan::FixedHorizon { horizon } = plan.run else {
            panic!("tenant_churn runs on a fixed horizon");
        };
        let mut exp = build_experiment(
            Approach::Aq,
            &plan,
            ExpConfig {
                seed: 1,
                ..Default::default()
            },
        );
        exp.sim.run_until(Time::ZERO + horizon);
        let mut rep = RunReport::new("overflow_check");
        rep.capture("run", &mut exp.sim);
        let section = rep.sections().last().expect("captured");
        for p in &section.ports {
            assert!(
                p.conserves,
                "{label}: port n{}/p{} broke byte conservation under overflow",
                p.node, p.port
            );
        }
        let tables: Vec<_> = section.tables.iter().collect();
        assert!(!tables.is_empty(), "{label}: no table summaries exported");
        let budget: u64 = 2 * 15;
        for t in &tables {
            assert_eq!(t.policy, label);
            assert_eq!(t.budget_bytes, budget);
            assert!(
                t.occupancy_bytes <= budget && t.peak_bytes <= budget,
                "{label}: table n{}/{} ran past its budget",
                t.node,
                t.position
            );
        }
        if policy == 0 {
            // RejectNew parks the losing grant for the whole run: its
            // traffic must show up as degraded, not vanish.
            let degraded_pkts: u64 = tables.iter().map(|t| t.degraded_pkts).sum();
            let degraded_flows: u64 = tables.iter().map(|t| t.degraded_flows).sum();
            assert!(
                degraded_pkts > 0 && degraded_flows > 0,
                "reject_new: a 2-row budget against 3 grants must degrade traffic \
                 (pkts {degraded_pkts}, flows {degraded_flows})"
            );
        } else {
            // EvictIdle re-admits a parked AQ on its next packet by
            // evicting the longest-idle row, so overflow shows up as
            // eviction/readmission churn rather than parked traffic.
            let churn: u64 = tables.iter().map(|t| t.evictions + t.readmissions).sum();
            assert!(churn > 0, "evict_idle: expected eviction/readmission churn");
        }
        // Degradation is graceful: every entity still moved traffic.
        for e in &section.entities {
            assert!(
                e.rx_bytes > 0,
                "{label}: entity {} moved no bytes under overflow",
                e.entity
            );
        }
    }
}

#[test]
fn same_seed_same_bytes() {
    let a = run_digest(0x5176_0001);
    let b = run_digest(0x5176_0001);
    assert_eq!(a, b, "two same-seed runs diverged");
}

#[test]
fn same_seed_same_bytes_fat_tree_with_run_report() {
    let a = run_fat_tree_digest(0x5176_0002);
    let b = run_fat_tree_digest(0x5176_0002);
    assert_eq!(a, b, "fat-tree runs (incl. run-report artifact) diverged");
    let c = run_fat_tree_digest(0x0BAD_F00D);
    assert_ne!(a, c, "fat-tree digest failed to register a seed change");
}

#[test]
fn same_seed_same_bytes_baseline_prl_dumbbell() {
    let a = run_baseline_digest(Approach::Prl, false, 0x5176_0003);
    let b = run_baseline_digest(Approach::Prl, false, 0x5176_0003);
    assert_eq!(
        a, b,
        "PRL baseline runs (incl. run-report artifact) diverged"
    );
    let c = run_baseline_digest(Approach::Prl, false, 0x0BAD_BEEF);
    assert_ne!(a, c, "PRL baseline digest failed to register a seed change");
}

#[test]
fn same_seed_same_bytes_baseline_drl_dumbbell() {
    // DRL adds the ElasticSwitch agent's periodic rate retuning on top of
    // the shapers; its control loop must replay byte-identically too.
    let a = run_baseline_digest(Approach::Drl, false, 0x5176_0004);
    let b = run_baseline_digest(Approach::Drl, false, 0x5176_0004);
    assert_eq!(
        a, b,
        "DRL baseline runs (incl. run-report artifact) diverged"
    );
    let c = run_baseline_digest(Approach::Drl, false, 0x0BAD_D00D);
    assert_ne!(a, c, "DRL baseline digest failed to register a seed change");
}

#[test]
fn same_seed_same_bytes_red_core_queue() {
    // Disaggregated RED at the core carries queue-internal state (the
    // backlog EWMA, the marking credit, pending actions) the FIFO paths
    // never touch; pin its replay as well.
    let a = run_baseline_digest(Approach::Pq, true, 0x5176_0005);
    let b = run_baseline_digest(Approach::Pq, true, 0x5176_0005);
    assert_eq!(a, b, "RED-core runs (incl. run-report artifact) diverged");
    let c = run_baseline_digest(Approach::Pq, true, 0x0BAD_0D0A);
    assert_ne!(a, c, "RED-core digest failed to register a seed change");
}

#[test]
fn fat_tree_report_round_trips_through_the_parser() {
    // The regression gate reads reports back with `RunReport::parse_json`;
    // on a real captured run (not a synthetic hub) the parse must
    // reproduce the rendered bytes exactly, and the metrics CSV must
    // parse row-for-row.
    let (rep, _) = fat_tree_report(0x5176_0002);
    let rendered = rep.render_json();
    let parsed = RunReport::parse_json(&rendered).expect("captured report parses");
    assert_eq!(
        parsed.render_json(),
        rendered,
        "fat-tree report JSON round-trip is not byte-exact"
    );
    let rows = RunReport::parse_metrics_csv(&rep.render_metrics_csv()).expect("metrics CSV parses");
    assert_eq!(
        rows.len(),
        rep.sections()
            .iter()
            .map(|s| s.metrics.len())
            .sum::<usize>()
    );
}

#[test]
fn same_seed_same_bytes_under_fault_injection() {
    // Both fault scenarios from the registry: a flap train plus a
    // stochastic corruption window plus a sender blackout
    // (linkflap_dumbbell), and a mid-run AQ table wipe with re-convergence
    // tracking (aq_state_loss). The digest includes the rendered report —
    // the same contract `aq-sweep` relies on when it promises
    // schedule-independent, byte-identical artifacts.
    for (scenario, params) in [
        (
            "linkflap_dumbbell",
            "horizon_ms=30,loss_pct=1,blackout_ms=4",
        ),
        ("aq_state_loss", "horizon_ms=25"),
    ] {
        let a = run_fault_scenario_digest(scenario, params, 0x5176_0006);
        let b = run_fault_scenario_digest(scenario, params, 0x5176_0006);
        assert_eq!(a, b, "{scenario}: same-seed fault runs diverged");
        let c = run_fault_scenario_digest(scenario, params, 0x0BAD_FA17);
        assert_ne!(a, c, "{scenario}: digest failed to register a seed change");
    }
}

#[test]
fn different_seed_different_jitter_stream() {
    // Sanity check that the digest is sensitive enough to notice change:
    // a different seed perturbs forwarding jitter and must show up.
    let a = run_digest(0x5176_0001);
    let b = run_digest(0x0BAD_CAFE);
    assert_ne!(a, b, "digest failed to register a seed change");
}
