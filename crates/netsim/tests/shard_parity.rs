//! Sharded-engine parity: a [`ShardedSim`] run must be byte-identical to
//! the single-threaded reference engine — same processed-event count, same
//! stats hub (compared through its `Debug` rendering, which covers every
//! counter, series, and delay distribution), same fault log and totals —
//! at every worker count.

use aq_netsim::fault::FaultPlan;
use aq_netsim::ids::{EntityId, FlowId, NodeId, PortId};
use aq_netsim::packet::Packet;
use aq_netsim::queue::FifoConfig;
use aq_netsim::shard::{ShardPlan, ShardedSim};
use aq_netsim::time::{Duration, Rate, Time};
use aq_netsim::topology::{dumbbell, fat_tree};
use aq_netsim::{HostApp, HostCtx, Network, PipelineVerdict, Simulator, SwitchPipeline};
use std::any::Any;

/// Sends `count` datagrams of `size` bytes to `dst`, paced by `gap`.
struct Source {
    src: NodeId,
    dst: NodeId,
    flow: FlowId,
    entity: EntityId,
    count: u32,
    size: u32,
    gap: Duration,
    sent: u32,
}

impl HostApp for Source {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.arm_timer_in(self.gap, 0);
    }
    fn on_packet(&mut self, _ctx: &mut HostCtx<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
        ctx.send(Packet::datagram(
            self.flow,
            self.entity,
            self.src,
            self.dst,
            self.size,
            ctx.now,
        ));
        self.sent += 1;
        if self.sent < self.count {
            ctx.arm_timer_in(self.gap, 0);
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn add_source(net: &mut Network, i: u32, src: NodeId, dst: NodeId, count: u32) {
    net.set_app(
        src,
        Box::new(Source {
            src,
            dst,
            flow: FlowId(i + 1),
            entity: EntityId(i + 1),
            count,
            size: 900 + (i * 131) % 500,
            gap: Duration::from_micros(9 + (i as u64 * 7) % 23),
            sent: 0,
        }),
    );
}

/// Everything observable about a finished run, as one comparable string.
fn digest(sim: &Simulator) -> String {
    format!(
        "events={} now={} totals={:?} log={:?} stats={:?}",
        sim.processed_events,
        sim.now(),
        sim.fault_totals(),
        sim.fault_log(),
        sim.stats,
    )
}

/// Run the reference engine to `t` (in `chunks` equal `run_until` calls).
fn run_reference(mut sim: Simulator, t: Time, chunks: u64) -> String {
    for i in 1..=chunks {
        sim.run_until(Time::from_nanos(t.as_nanos() * i / chunks));
    }
    digest(&sim)
}

/// Shard the same simulator and run it the same way.
fn run_sharded(sim: Simulator, plan: &ShardPlan, jobs: usize, t: Time, chunks: u64) -> String {
    let mut sharded = ShardedSim::partition(sim, plan, jobs).unwrap_or_else(|_| {
        panic!("partition rejected a shardable topology");
    });
    for i in 1..=chunks {
        sharded.run_until(Time::from_nanos(t.as_nanos() * i / chunks));
    }
    digest(&sharded.finish())
}

fn dumbbell_under_load(plan: FaultPlan) -> (Simulator, ShardPlan) {
    let d = dumbbell(
        4,
        Rate::from_mbps(1000),
        Duration::from_micros(5),
        FifoConfig {
            limit_bytes: 30_000,
            ecn_threshold_bytes: None,
        },
    );
    let shard_plan = d.shard_plan();
    let mut net = d.net;
    // Cross traffic both ways plus same-side traffic, so shards exchange
    // packets while also churning through purely local events.
    for i in 0..4 {
        add_source(&mut net, i as u32, d.left[i], d.right[i], 160);
        add_source(&mut net, 4 + i as u32, d.right[i], d.left[(i + 1) % 4], 120);
    }
    let mut sim = Simulator::new(net);
    sim.install_faults(plan);
    (sim, shard_plan)
}

#[test]
fn dumbbell_sharded_matches_reference_at_every_job_count() {
    let t = Time::from_millis(12);
    let (sim, _) = dumbbell_under_load(FaultPlan::new(0));
    let want = run_reference(sim, t, 1);
    for jobs in [1, 2, 4] {
        let (sim, plan) = dumbbell_under_load(FaultPlan::new(0));
        let got = run_sharded(sim, &plan, jobs, t, 1);
        assert_eq!(want, got, "jobs={jobs} diverged from reference");
    }
}

#[test]
fn chunked_sharded_runs_compose_like_the_reference() {
    let t = Time::from_millis(12);
    let (sim, _) = dumbbell_under_load(FaultPlan::new(0));
    let want = run_reference(sim, t, 7);
    let (sim, plan) = dumbbell_under_load(FaultPlan::new(0));
    let got = run_sharded(sim, &plan, 2, t, 7);
    assert_eq!(want, got, "chunked sharded run diverged");
}

#[test]
fn faulted_dumbbell_sharded_matches_reference() {
    // Flap the core link and corrupt it for a window: exercises owned-shard
    // fault scheduling, wire-fate cuts on cross-shard launches, and the
    // seeded corruption stream.
    let core_link = {
        let (sim, _) = dumbbell_under_load(FaultPlan::new(0));
        let d_core = sim.net.nodes[0].ports.last().copied().expect("core port");
        sim.net.ports[d_core.index()].link
    };
    let plan = || {
        FaultPlan::new(0xFA11)
            .flap(
                core_link,
                Time::from_millis(2),
                2,
                Duration::from_micros(400),
                Duration::from_millis(1),
            )
            .loss_window(
                core_link,
                Time::from_millis(6),
                Time::from_millis(9),
                120_000,
            )
    };
    let t = Time::from_millis(12);
    let (sim, _) = dumbbell_under_load(plan());
    let want = run_reference(sim, t, 1);
    for jobs in [1, 4] {
        let (sim, shard_plan) = dumbbell_under_load(plan());
        let got = run_sharded(sim, &shard_plan, jobs, t, 1);
        assert_eq!(want, got, "jobs={jobs} diverged under faults");
    }
}

fn fat_tree_under_load() -> (Simulator, ShardPlan) {
    let ft = fat_tree(
        4,
        Rate::from_mbps(1000),
        Duration::from_micros(2),
        FifoConfig {
            limit_bytes: 40_000,
            ecn_threshold_bytes: None,
        },
    );
    let shard_plan = ft.shard_plan();
    let hosts = ft.hosts.clone();
    let mut net = ft.net;
    // Pod-crossing pairs (through the core shard) and one intra-pod pair.
    for i in 0..hosts.len() {
        let dst = hosts[(i + 5) % hosts.len()];
        add_source(&mut net, i as u32, hosts[i], dst, 90);
    }
    (Simulator::new(net), shard_plan)
}

#[test]
fn fat_tree_sharded_matches_reference_per_pod_plus_core() {
    let t = Time::from_millis(8);
    let (sim, plan) = fat_tree_under_load();
    assert_eq!(plan.shards(), 5, "4 pods + core shard");
    let want = run_reference(sim, t, 1);
    for jobs in [1, 2, 4] {
        let (sim, plan) = fat_tree_under_load();
        let got = run_sharded(sim, &plan, jobs, t, 1);
        assert_eq!(want, got, "jobs={jobs} diverged on the fat tree");
    }
}

#[test]
fn partition_rejects_unshardable_runs() {
    // Started simulators, agent-bearing simulators, and single-shard plans
    // all fall back to the reference engine via `Err`.
    let (mut sim, plan) = dumbbell_under_load(FaultPlan::new(0));
    sim.run_until(Time::from_micros(1));
    let back = ShardedSim::partition(sim, &plan, 2);
    assert!(back.is_err(), "started run must not shard");

    let (sim, _) = dumbbell_under_load(FaultPlan::new(0));
    let single = ShardPlan::single(sim.net.nodes.len());
    assert!(ShardedSim::partition(sim, &single, 2).is_err());
}

/// Forwards `fuse` packets, then panics — a stand-in for an `invariant!`
/// failure or a pipeline bug inside one shard.
struct Tripwire {
    fuse: u32,
}

impl SwitchPipeline for Tripwire {
    fn ingress(&mut self, _now: Time, _pkt: &mut Packet) -> PipelineVerdict {
        assert!(self.fuse > 0, "tripwire pipeline blew its fuse");
        self.fuse -= 1;
        PipelineVerdict::Forward
    }
    fn egress(&mut self, _: Time, _: &mut Packet, _: PortId, _: u64) -> PipelineVerdict {
        PipelineVerdict::Forward
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A worker that panics mid-round never reaches the round's end barrier on
/// its own; the run must fail with the worker's message on the calling
/// thread, not hang the coordinator.
#[test]
#[should_panic(expected = "tripwire pipeline blew its fuse")]
fn worker_panic_fails_the_run_instead_of_hanging_it() {
    let (mut sim, plan) = dumbbell_under_load(FaultPlan::new(0));
    let right_switch = NodeId(1); // the second node `dumbbell` adds
    sim.net
        .add_pipeline(right_switch, Box::new(Tripwire { fuse: 50 }));
    let mut sharded = ShardedSim::partition(sim, &plan, 2).unwrap_or_else(|_| {
        panic!("partition rejected a shardable topology");
    });
    sharded.run_until(Time::from_millis(12));
}
