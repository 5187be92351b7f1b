//! The discrete-event simulation core.
//!
//! [`Simulator`] owns the [`Network`] (nodes, ports, links, routes), the
//! event queue, the measurement hub, and any control-plane [`Agent`]s. A
//! run is fully deterministic: events fire in `(time, insertion)` order and
//! all randomness lives in seeded generators owned by host apps and
//! workload generators.
//!
//! Packet life cycle:
//!
//! 1. a host app calls [`HostCtx::send`]; the simulator routes the packet
//!    and offers it to the uplink port's queue discipline;
//! 2. the port transmitter serializes it at line rate (`TxComplete`), then
//!    the packet propagates over the link (`Arrive` at the peer);
//! 3. a switch runs its ingress pipelines, routes, runs its egress
//!    pipelines, and offers the packet to the chosen output port;
//! 4. at the destination host the simulator records delivery stats and
//!    hands the packet to the app.

use crate::buffer::{Admission, SharedBufferPool};
use crate::churn::{ChurnEvent, ChurnPlan, ChurnState, ChurnTotals};
use crate::event::{arrive_seq, EventKind, EventQueue};
use crate::fault::{AppliedFault, FaultEvent, FaultKind, FaultPlan, FaultState, FaultTotals};
use crate::ids::{AgentId, LinkId, NodeId, PortId};
use crate::link::Link;
use crate::node::{HostApp, HostCtx, Node, NodeKind, PipelineControl, PipelineVerdict};
use crate::packet::{Packet, PacketArena, TransportHeader};
use crate::port::Port;
use crate::queue::{DropCause, Enqueued};
use crate::stats::StatsHub;
use crate::time::{Duration, Time};

/// The static network: nodes, ports, links, and precomputed routes.
pub struct Network {
    /// All nodes, indexed by [`NodeId`].
    pub nodes: Vec<Node>,
    /// All output ports, indexed by [`PortId`].
    pub ports: Vec<Port>,
    /// All unidirectional links, indexed by [`LinkId`].
    pub links: Vec<Link>,
    /// `routes[node][dst]` is the set of equal-cost next-hop ports on
    /// `node` toward `dst` (ECMP); flows hash onto one of them.
    pub(crate) routes: Vec<Vec<Vec<PortId>>>,
}

impl Network {
    /// The output port `node` uses to reach `dst` for the given flow.
    /// Equal-cost paths are selected by a deterministic per-flow hash
    /// (ECMP): every packet of a flow takes the same path, different
    /// flows spread across the path set.
    pub fn route(&self, node: NodeId, dst: NodeId, flow: crate::ids::FlowId) -> Option<PortId> {
        let set = &self.routes[node.index()][dst.index()];
        match set.len() {
            0 => None,
            1 => Some(set[0]),
            n => {
                // Knuth multiplicative hash over (flow, node) so the same
                // flow picks independently at each hop.
                let h =
                    (flow.0 as u64 ^ ((node.0 as u64) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Some(set[(h >> 32) as usize % n])
            }
        }
    }

    /// All equal-cost next hops from `node` toward `dst`.
    pub fn route_set(&self, node: NodeId, dst: NodeId) -> &[PortId] {
        &self.routes[node.index()][dst.index()]
    }

    /// Attach a data-plane pipeline stage to a switch.
    ///
    /// # Panics
    /// Panics if `node` is a host.
    pub fn add_pipeline(&mut self, node: NodeId, pipe: Box<dyn crate::node::SwitchPipeline>) {
        match &mut self.nodes[node.index()].kind {
            NodeKind::Switch { pipelines, .. } => pipelines.push(pipe),
            NodeKind::Host { .. } => panic!("{node} is a host, not a switch"),
        }
    }

    /// Install (or replace) the application on a host.
    ///
    /// # Panics
    /// Panics if `node` is a switch.
    pub fn set_app(&mut self, node: NodeId, app: Box<dyn HostApp>) {
        match &mut self.nodes[node.index()].kind {
            NodeKind::Host { app: slot } => *slot = Some(app),
            NodeKind::Switch { .. } => panic!("{node} is a switch, not a host"),
        }
    }

    /// Mutable access to a host's app, downcast to its concrete type.
    /// `None` if the node has no app or the type does not match.
    pub fn app_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        match &mut self.nodes[node.index()].kind {
            NodeKind::Host { app } => app.as_mut()?.as_any_mut().downcast_mut::<T>(),
            NodeKind::Switch { .. } => None,
        }
    }

    /// Mutable access to the `i`-th pipeline of a switch, downcast to its
    /// concrete type.
    pub fn pipeline_mut<T: 'static>(&mut self, node: NodeId, i: usize) -> Option<&mut T> {
        match &mut self.nodes[node.index()].kind {
            NodeKind::Switch { pipelines, .. } => {
                pipelines.get_mut(i)?.as_any_mut().downcast_mut::<T>()
            }
            NodeKind::Host { .. } => None,
        }
    }

    /// Mutable access to a port's queue discipline, downcast to its
    /// concrete type (e.g. to retune an HTB shaper).
    pub fn discipline_mut<T: 'static>(&mut self, port: PortId) -> Option<&mut T> {
        self.ports[port.index()]
            .queue
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// The single uplink port of a host (panics if the node has several
    /// ports; use explicit routing for multi-homed nodes).
    pub fn host_uplink(&self, node: NodeId) -> PortId {
        let ports = &self.nodes[node.index()].ports;
        assert_eq!(ports.len(), 1, "{node} is multi-homed; route explicitly");
        ports[0]
    }
}

/// Timer requests an agent makes during a callback.
pub struct AgentCtx {
    /// The agent being called.
    pub agent: AgentId,
    /// Current simulation time.
    pub now: Time,
    pub(crate) timers: Vec<(Time, u64)>,
}

impl AgentCtx {
    /// A fresh context (the simulator builds these before each callback;
    /// public so agents can be unit-tested standalone).
    pub fn new(agent: AgentId, now: Time) -> AgentCtx {
        AgentCtx {
            agent,
            now,
            timers: Vec::new(),
        }
    }

    /// Arm a timer firing [`Agent::on_timer`] at absolute time `at`.
    pub fn arm_timer_at(&mut self, at: Time, token: u64) {
        self.timers.push((at, token));
    }

    /// Arm a timer `after` from now.
    pub fn arm_timer_in(&mut self, after: Duration, token: u64) {
        let at = self.now + after;
        self.timers.push((at, token));
    }
}

/// A control-plane agent with periodic global visibility — e.g. the
/// ElasticSwitch-style dynamic rate limiter, or an AQ work-conservation
/// reallocator. Unlike host apps, agents may inspect and mutate the whole
/// network when their timers fire.
pub trait Agent: Send {
    /// Called once at simulation start.
    fn on_start(&mut self, net: &mut Network, stats: &mut StatsHub, ctx: &mut AgentCtx);

    /// Called when one of the agent's timers fires.
    fn on_timer(&mut self, net: &mut Network, stats: &mut StatsHub, ctx: &mut AgentCtx, token: u64);
}

/// A packet launched onto a link whose receiving node lives on another
/// shard: the payload of the cross-shard event log. The `(time, seq)` pair
/// is the packet's intrinsic arrival key (see
/// [`arrive_seq`](crate::event::arrive_seq)), so the receiving shard's
/// queue pops it in exactly the order a single-threaded run would.
pub(crate) struct CrossMsg {
    pub(crate) time: Time,
    pub(crate) seq: u64,
    pub(crate) node: NodeId,
    pub(crate) link: LinkId,
    pub(crate) pkt: Packet,
}

/// Per-shard context installed by the sharded driver: which shard this
/// simulator is, who owns every node, and the outbox collecting launches
/// bound for other shards.
pub(crate) struct ShardCtx {
    pub(crate) me: u32,
    /// Node index → owning shard.
    pub(crate) owner: Vec<u32>,
    pub(crate) outbox: Vec<CrossMsg>,
}

/// Maximum per-hop forwarding jitter in nanoseconds (see
/// [`Simulator::new`] for why it is one MTU slot at 10 Gbps).
const JITTER_NS: u64 = 800;

/// SplitMix64 finalizer: the stateless hash behind per-launch forwarding
/// jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mirror a pool's counters and occupancy into the hub after a pool
/// event. A free function over the two fields so the call sites can hold
/// `self.pools` and `self.stats` at once.
fn sample_pool(stats: &mut StatsHub, now: Time, node: NodeId, pool: &SharedBufferPool) {
    stats.on_pool_sample(
        now,
        node,
        pool.policy_name(),
        pool.capacity_bytes(),
        pool.occupancy(),
        pool.rejects(),
        pool.rejected_bytes(),
        pool.marks(),
    );
}

/// The simulator.
pub struct Simulator {
    /// Current simulation time.
    pub(crate) now: Time,
    /// The network under simulation.
    pub net: Network,
    /// Measurements.
    pub stats: StatsHub,
    pub(crate) events: EventQueue,
    pub(crate) agents: Vec<Option<Box<dyn Agent>>>,
    pub(crate) next_uid: u64,
    pub(crate) started: bool,
    /// Total events processed (diagnostics; also the unit throughput
    /// figures are reported against).
    pub processed_events: u64,
    /// Seed of the forwarding-jitter hash (the only randomness inside the
    /// simulator core). Jitter is a pure function of
    /// `(seed, link, launch index)`, so any shard computes the same draw
    /// for the same launch regardless of global event interleaving.
    pub(crate) jitter_seed: u64,
    /// Per-link monotonic arrival clamp so jitter never reorders a link.
    pub(crate) last_arrival: Vec<Time>,
    /// Per-link launch counter: drives both the jitter hash and the
    /// intrinsic arrival sequence ([`arrive_seq`](crate::event::arrive_seq)).
    pub(crate) launch_count: Vec<u64>,
    /// Installed fault plan plus runtime link/host health (see
    /// [`crate::fault`]).
    pub(crate) faults: FaultState,
    /// Installed control-plane churn plan plus applied totals (see
    /// [`crate::churn`]).
    pub(crate) churn: ChurnState,
    /// Per-switch shared buffer pools, indexed by [`NodeId`]; `None` for
    /// nodes without one (all hosts, and switches left on isolated
    /// per-port buffering).
    pub(crate) pools: Vec<Option<SharedBufferPool>>,
    /// Freelist arena parking packets in flight over links; `Arrive`
    /// events carry a [`PacketRef`](crate::packet::PacketRef) into it.
    pub(crate) arena: PacketArena,
    /// Sharding context, when this simulator is one shard of a
    /// [`ShardedSim`](crate::shard::ShardedSim) run; `None` for the
    /// single-threaded reference engine.
    pub(crate) shard: Option<ShardCtx>,
    /// Recycled send buffer lent to host-app callbacks.
    scratch_sends: Vec<Packet>,
    /// Recycled timer buffer lent to host-app and agent callbacks.
    scratch_timers: Vec<(Time, u64)>,
}

impl Simulator {
    /// Wrap a built network in a fresh simulator at time zero.
    ///
    /// Per-hop forwarding jitter is up to 800 ns (`JITTER_NS`, about one
    /// MTU serialization time at 10 Gbps): real switch forwarding latency
    /// varies at this scale under load, and without jitter a perfectly
    /// deterministic simulator phase-locks same-rate flows at taildrop
    /// boundaries (one flow's packets always land exactly when a slot
    /// frees, the other's always find the queue full), producing
    /// pathological sharing no physical network exhibits. Randomizing the
    /// arrival phase across a full packet slot makes the contended-slot
    /// winner uniform, which is what AIMD fairness analysis assumes. The
    /// jitter is drawn from a seeded RNG and never reorders packets on a
    /// link, so runs stay exactly reproducible.
    pub fn new(net: Network) -> Simulator {
        let links = net.links.len();
        let nodes = net.nodes.len();
        Simulator {
            now: Time::ZERO,
            net,
            stats: StatsHub::new(),
            events: EventQueue::new(),
            agents: Vec::new(),
            next_uid: 0,
            started: false,
            processed_events: 0,
            jitter_seed: 0x5176,
            last_arrival: vec![Time::ZERO; links],
            launch_count: vec![0; links],
            faults: FaultState::new(links, nodes),
            churn: ChurnState::default(),
            pools: (0..nodes).map(|_| None).collect(),
            arena: PacketArena::new(),
            shard: None,
            scratch_sends: Vec::new(),
            scratch_timers: Vec::new(),
        }
    }

    /// Install a fault plan; its events are scheduled when the simulation
    /// starts. Replaces any previously installed plan.
    ///
    /// # Panics
    /// Panics if the simulation has already started (faults are part of a
    /// run's static inputs, like topology and seeds).
    pub fn install_faults(&mut self, plan: FaultPlan) {
        assert!(
            !self.started,
            "install_faults must be called before the simulation starts"
        );
        self.faults.wire = crate::fault::WireFate::from_plan(&plan, self.net.links.len());
        self.faults.plan = plan;
    }

    /// Install a control-plane churn plan; its events are scheduled when
    /// the simulation starts. Replaces any previously installed plan.
    ///
    /// # Panics
    /// Panics if the simulation has already started (churn is part of a
    /// run's static inputs, like topology and fault plans).
    pub fn install_churn(&mut self, plan: ChurnPlan) {
        assert!(
            !self.started,
            "install_churn must be called before the simulation starts"
        );
        self.churn.plan = plan;
    }

    /// Run-wide totals of applied churn operations.
    pub fn churn_totals(&self) -> &ChurnTotals {
        &self.churn.totals
    }

    /// Fold another shard's churn totals into this simulator's (the
    /// sharded driver's end-of-run merge; each shard applies only the
    /// churn it owns).
    pub(crate) fn merge_churn_totals(&mut self, other: ChurnTotals) {
        self.churn.totals.merge(other);
    }

    /// Install a shared buffer pool on a switch: every enqueue at any of
    /// the switch's ports is arbitrated by the pool's admission policy
    /// before the port's queue discipline sees the packet (rejections
    /// surface as [`DropCause::SharedBufferReject`]). Replaces any
    /// previously installed pool.
    ///
    /// # Panics
    /// Panics if the simulation has already started, or if `node` is a
    /// host (hosts keep their private NIC buffers).
    pub fn install_shared_buffer(&mut self, node: NodeId, pool: SharedBufferPool) {
        assert!(
            !self.started,
            "install_shared_buffer must be called before the simulation starts"
        );
        assert!(
            !self.net.nodes[node.index()].is_host(),
            "{node} is a host; shared buffers belong to switches"
        );
        self.pools[node.index()] = Some(pool);
    }

    /// The shared buffer pool installed on `node`, if any.
    pub fn shared_buffer(&self, node: NodeId) -> Option<&SharedBufferPool> {
        self.pools[node.index()].as_ref()
    }

    /// The faults applied so far, in firing order.
    pub fn fault_log(&self) -> &[AppliedFault] {
        &self.faults.log
    }

    /// Run-wide totals of fault-caused packet loss, by cause.
    pub fn fault_totals(&self) -> &FaultTotals {
        &self.faults.totals
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Reseed the simulator's jitter hash (per-repetition seeds in
    /// experiment sweeps).
    pub fn set_seed(&mut self, seed: u64) {
        self.jitter_seed = seed;
    }

    /// The forwarding-jitter draw for the next launch on `link`: a pure
    /// hash of `(seed, link, launch index)`. Replaces the old stateful
    /// jitter RNG, whose draw order was the *global* launch interleaving —
    /// unknowable to a shard that sees only its own links.
    fn jitter_for(&self, link: usize) -> Duration {
        let x = splitmix64(
            self.jitter_seed
                ^ (link as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ self.launch_count[link].wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        Duration::from_nanos(x % (JITTER_NS + 1))
    }

    /// Register a control-plane agent. Its `on_start` runs when the
    /// simulation starts.
    pub fn add_agent(&mut self, agent: Box<dyn Agent>) -> AgentId {
        let id = AgentId::from(self.agents.len());
        self.agents.push(Some(agent));
        id
    }

    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Fault events first: they get the lowest sequence numbers, so a
        // fault scheduled at the same instant as later-inserted packet
        // events fires in a fixed, reproducible order. A shard schedules
        // only the faults it owns — link faults belong to the shard of the
        // feeding port's node, node faults to the node's shard — so every
        // fault is applied exactly once across the fleet.
        for index in 0..self.faults.plan.events.len() {
            let ev = self.faults.plan.events[index];
            if let Some(ctx) = &self.shard {
                let owner_node = match ev.kind {
                    FaultKind::LinkDown { link }
                    | FaultKind::LinkUp { link }
                    | FaultKind::LossStart { link, .. }
                    | FaultKind::LossStop { link } => {
                        self.net.ports[self.net.links[link.index()].from_port.index()].node
                    }
                    FaultKind::AqReset { node }
                    | FaultKind::HostPause { node }
                    | FaultKind::HostResume { node } => node,
                };
                if ctx.owner[owner_node.index()] != ctx.me {
                    continue;
                }
            }
            self.events.push(ev.at, EventKind::Fault { index });
        }
        // Churn events next: like faults they are static plan data, and a
        // shard schedules only the events whose target switch it owns, so
        // each control operation is applied exactly once across the fleet.
        for index in 0..self.churn.plan.events.len() {
            let ev = self.churn.plan.events[index];
            if let Some(ctx) = &self.shard {
                if ctx.owner[ev.node.index()] != ctx.me {
                    continue;
                }
            }
            self.events.push(ev.at, EventKind::Churn { index });
        }
        // Host apps first, in node order, then agents — all at time zero.
        for n in 0..self.net.nodes.len() {
            let node = NodeId::from(n);
            if self.net.nodes[n].is_host() {
                self.with_app(node, |app, ctx| app.on_start(ctx));
            }
        }
        for a in 0..self.agents.len() {
            let id = AgentId::from(a);
            let mut agent = self.agents[a].take().expect("agent reentrancy");
            let mut ctx = AgentCtx {
                agent: id,
                now: self.now,
                timers: Vec::new(),
            };
            agent.on_start(&mut self.net, &mut self.stats, &mut ctx);
            self.agents[a] = Some(agent);
            for (at, token) in ctx.timers {
                self.events
                    .push(at, EventKind::AgentTimer { agent: id, token });
            }
        }
    }

    /// Run until simulation time `t` (inclusive of events at `t`); the
    /// clock then reads `t`. A `t` already in the past is a no-op: the
    /// clock never moves backwards.
    pub fn run_until(&mut self, t: Time) {
        self.start();
        while let Some(et) = self.events.peek_time() {
            if et > t {
                break;
            }
            let ev = self.events.pop().expect("peeked");
            crate::invariant!(
                ev.time >= self.now,
                "event clock moved backwards: now={} event={}",
                self.now,
                ev.time,
            );
            self.now = ev.time;
            self.processed_events += 1;
            self.dispatch(ev.kind);
        }
        self.now = self.now.max(t);
    }

    /// Run until no events remain or `max_events` more have fired.
    /// Returns true if the event queue drained.
    pub fn run_until_idle(&mut self, max_events: u64) -> bool {
        self.start();
        for _ in 0..max_events {
            let Some(ev) = self.events.pop() else {
                return true;
            };
            crate::invariant!(
                ev.time >= self.now,
                "event clock moved backwards: now={} event={}",
                self.now,
                ev.time,
            );
            self.now = ev.time;
            self.processed_events += 1;
            self.dispatch(ev.kind);
        }
        self.events.is_empty()
    }

    /// Schedule start-of-run events (faults, host `on_start`, agents) if
    /// the run has not started yet. Idempotent; the sharded driver calls
    /// this on every shard before computing the first synchronization
    /// horizon, because an unstarted shard has an empty event queue.
    pub(crate) fn ensure_started(&mut self) {
        self.start();
    }

    /// The time of the earliest pending event, if any.
    pub(crate) fn next_event_time(&mut self) -> Option<Time> {
        self.events.peek_time()
    }

    /// Process every event strictly before `h` (the conservative-lookahead
    /// round body). Unlike [`run_until`](Simulator::run_until) the clock
    /// is *not* advanced to `h` afterwards: `h` is a synchronization
    /// horizon, not a chunk boundary, so rounds leave the clock at the
    /// last processed event and only the driver's final `run_until` pins
    /// every shard to the chunk target.
    pub(crate) fn run_until_before(&mut self, h: Time) {
        self.start();
        while let Some(et) = self.events.peek_time() {
            if et >= h {
                break;
            }
            let ev = self.events.pop().expect("peeked");
            crate::invariant!(
                ev.time >= self.now,
                "event clock moved backwards: now={} event={}",
                self.now,
                ev.time,
            );
            self.now = ev.time;
            self.processed_events += 1;
            self.dispatch(ev.kind);
        }
    }

    /// Replay one cross-shard launch into this shard's queue under its
    /// intrinsic `(time, seq)` key.
    pub(crate) fn deliver_cross(&mut self, msg: CrossMsg) {
        let packet = self.arena.alloc(msg.pkt);
        self.events.push_with_seq(
            msg.time,
            msg.seq,
            EventKind::Arrive {
                node: msg.node,
                packet,
                link: msg.link,
            },
        );
    }

    /// Drain the outbox of cross-shard launches accumulated since the last
    /// call. Empty for the single-threaded engine.
    pub(crate) fn take_outbox(&mut self) -> Vec<CrossMsg> {
        match &mut self.shard {
            Some(ctx) => std::mem::take(&mut ctx.outbox),
            None => Vec::new(),
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrive {
                node,
                packet,
                link: _,
            } => {
                let pkt = self.arena.take(packet);
                self.on_arrive(node, pkt);
            }
            EventKind::Fault { index } => self.apply_fault(index),
            EventKind::Churn { index } => self.apply_churn(index),
            EventKind::TxComplete { port } => self.on_tx_complete(port),
            EventKind::PortWake { port } => {
                let p = &mut self.net.ports[port.index()];
                if p.wake_at == Some(self.now) {
                    p.wake_at = None;
                }
                self.try_transmit(port);
            }
            EventKind::NodeTimer { node, token } => {
                self.with_app(node, |app, ctx| app.on_timer(ctx, token));
            }
            EventKind::AgentTimer { agent, token } => {
                let idx = agent.index();
                let mut a = self.agents[idx].take().expect("agent reentrancy");
                let mut ctx = AgentCtx {
                    agent,
                    now: self.now,
                    timers: std::mem::take(&mut self.scratch_timers),
                };
                a.on_timer(&mut self.net, &mut self.stats, &mut ctx, token);
                self.agents[idx] = Some(a);
                let mut timers = ctx.timers;
                for (at, token) in timers.drain(..) {
                    self.events.push(at, EventKind::AgentTimer { agent, token });
                }
                self.scratch_timers = timers;
            }
        }
    }

    /// Run a host-app callback with a fresh context, then apply the side
    /// effects it requested (sends, timers).
    fn with_app(&mut self, node: NodeId, f: impl FnOnce(&mut dyn HostApp, &mut HostCtx<'_>)) {
        let slot = match &mut self.net.nodes[node.index()].kind {
            NodeKind::Host { app } => app,
            NodeKind::Switch { .. } => panic!("{node} is not a host"),
        };
        let Some(mut app) = slot.take() else {
            return; // host without an app silently sinks packets
        };
        let mut ctx = HostCtx::new(self.now, node, &mut self.stats);
        // Lend the recycled buffers to the callback (callbacks never
        // nest: `inject` below re-enters no app). `mem::take` leaves
        // fresh empty vecs behind, so even an unexpected nested callback
        // would be correct, just unrecycled.
        ctx.sends = std::mem::take(&mut self.scratch_sends);
        ctx.timers = std::mem::take(&mut self.scratch_timers);
        f(app.as_mut(), &mut ctx);
        let HostCtx {
            mut sends,
            mut timers,
            ..
        } = ctx;
        match &mut self.net.nodes[node.index()].kind {
            NodeKind::Host { app: slot } => *slot = Some(app),
            NodeKind::Switch { .. } => unreachable!(),
        }
        for pkt in sends.drain(..) {
            self.inject(node, pkt);
        }
        for (at, token) in timers.drain(..) {
            self.events.push(at, EventKind::NodeTimer { node, token });
        }
        self.scratch_sends = sends;
        self.scratch_timers = timers;
    }

    /// Apply the fault at `index` of the installed plan (see
    /// [`crate::fault`] for semantics of each kind).
    fn apply_fault(&mut self, index: usize) {
        let FaultEvent { kind, .. } = self.faults.plan.events[index];
        match kind {
            FaultKind::LinkDown { link } => {
                let l = link.index();
                if self.faults.link_up[l] {
                    self.faults.link_up[l] = false;
                    // Bump the epoch: packets launched before this instant
                    // carry the old value and die at their next checkpoint.
                    self.faults.link_downs[l] += 1;
                }
            }
            FaultKind::LinkUp { link } => {
                let l = link.index();
                if !self.faults.link_up[l] {
                    self.faults.link_up[l] = true;
                    // The feeding port held its queue while down; resume.
                    let port = self.net.links[l].from_port;
                    self.try_transmit(port);
                }
            }
            // Corruption windows are precomputed into the launch-time
            // [`WireFate`](crate::fault) schedule when the plan is
            // installed; firing here only records the log entry.
            FaultKind::LossStart { .. } | FaultKind::LossStop { .. } => {}
            FaultKind::AqReset { node } => {
                if let NodeKind::Switch { pipelines, .. } = &mut self.net.nodes[node.index()].kind {
                    for pipe in pipelines.iter_mut() {
                        pipe.on_fault_reset(self.now);
                    }
                }
            }
            FaultKind::HostPause { node } => self.faults.paused[node.index()] = true,
            FaultKind::HostResume { node } => self.faults.paused[node.index()] = false,
        }
        self.faults.log.push(AppliedFault {
            at: self.now,
            kind: kind.label(),
            target: kind.target(),
            plan_index: index,
        });
        self.faults.totals.injected += 1;
    }

    /// Apply the churn operation at `index` of the installed plan: every
    /// pipeline of the target switch receives the control payload through
    /// its [`on_control`](crate::node::SwitchPipeline::on_control) hook.
    fn apply_churn(&mut self, index: usize) {
        let ChurnEvent { node, op, .. } = self.churn.plan.events[index];
        if let NodeKind::Switch { pipelines, .. } = &mut self.net.nodes[node.index()].kind {
            for pipe in pipelines.iter_mut() {
                pipe.on_control(self.now, &op);
            }
        }
        self.churn.totals.applied += 1;
        match op {
            PipelineControl::Create { .. } => self.churn.totals.creates += 1,
            PipelineControl::Destroy { .. } => self.churn.totals.destroys += 1,
        }
    }

    /// Account a packet lost on `link`'s wire (fault injection),
    /// attributed to the feeding port. `cut` marks a frame cut
    /// mid-serialization (it never finished transmitting, so its bytes
    /// close the port's wire boundary); a post-serialization loss is
    /// already inside `tx_bytes` and moves only the cause counters.
    fn wire_drop(&mut self, link: LinkId, pkt: Packet, cause: DropCause, cut: bool) {
        let bytes = pkt.size as u64;
        match cause {
            DropCause::LinkDown => {
                self.faults.totals.link_down_drops += 1;
                self.faults.totals.link_down_dropped_bytes += bytes;
            }
            DropCause::Corrupt => {
                self.faults.totals.corrupt_drops += 1;
                self.faults.totals.corrupt_dropped_bytes += bytes;
            }
            _ => unreachable!("wire drops are LinkDown or Corrupt"),
        }
        let port = self.net.links[link.index()].from_port;
        let node = self.net.ports[port.index()].node;
        self.stats.on_wire_drop(node, port, bytes, cause, cut);
        self.stats.on_drop(pkt.entity);
    }

    /// Account a packet dying at the dead NIC of a blacked-out host.
    fn pause_drop(&mut self, pkt: &Packet) {
        self.faults.totals.pause_drops += 1;
        self.faults.totals.pause_dropped_bytes += pkt.size as u64;
        self.stats.on_drop(pkt.entity);
    }

    /// Route a packet out of `node` and offer it to the uplink port.
    fn inject(&mut self, node: NodeId, mut pkt: Packet) {
        // Count the injection before any fault can eat the packet, so
        // per-entity conservation (`tx == delivered + drops + residue`)
        // holds under blackouts too.
        let counts = matches!(
            pkt.transport,
            TransportHeader::Data { .. } | TransportHeader::Datagram
        );
        if counts {
            self.stats.on_inject(pkt.entity, pkt.payload() as u64);
        }
        if self.faults.paused[node.index()] {
            self.pause_drop(&pkt);
            return;
        }
        pkt.uid = self.next_uid;
        self.next_uid += 1;
        let Some(port) = self.net.route(node, pkt.dst, pkt.flow) else {
            panic!("no route from {node} to {}", pkt.dst);
        };
        self.enqueue_at_port(port, pkt);
    }

    fn enqueue_at_port(&mut self, port: PortId, mut pkt: Packet) {
        let now = self.now;
        let entity = pkt.entity;
        let bytes = pkt.size as u64;
        let (node, link) = {
            let p = &self.net.ports[port.index()];
            (p.node, p.link)
        };
        // Shared-buffer admission: a switch with an installed pool
        // arbitrates every enqueue across its ports before the queue
        // discipline sees the packet. Hosts never carry a pool.
        if let Some(pool) = self.pools[node.index()].as_mut() {
            let drain = self.net.links[link.index()].rate;
            match pool.admit(port, bytes, drain) {
                Admission::Admit => {}
                Admission::AdmitMark => {
                    if pkt.ecn.can_mark() {
                        pkt.ecn = crate::packet::Ecn::CongestionExperienced;
                        pool.note_mark();
                    }
                }
                Admission::Reject => {
                    sample_pool(&mut self.stats, now, node, pool);
                    self.stats
                        .on_port_queue_drop(node, port, bytes, DropCause::SharedBufferReject);
                    self.stats.on_drop(entity);
                    return;
                }
            }
        }
        let p = &mut self.net.ports[port.index()];
        match p.queue.enqueue(now, pkt) {
            Enqueued::Ok => {
                let backlog = p.queue.backlog_bytes();
                let marks = p.queue.ecn_marks();
                self.stats
                    .on_port_enqueue(now, node, port, bytes, backlog, marks);
                // Commit pool bytes only after the discipline accepted, so
                // a taildrop never leaks pool occupancy.
                if let Some(pool) = self.pools[node.index()].as_mut() {
                    pool.commit(port, bytes);
                    sample_pool(&mut self.stats, now, node, pool);
                }
                self.try_transmit(port);
            }
            Enqueued::Dropped(_, cause) => {
                self.stats.on_port_queue_drop(node, port, bytes, cause);
                self.stats.on_drop(entity);
            }
        }
    }

    fn try_transmit(&mut self, port: PortId) {
        let now = self.now;
        let p = &mut self.net.ports[port.index()];
        if p.busy() {
            return;
        }
        let lidx = p.link.index();
        if !self.faults.link_up[lidx] {
            // Dead link: hold the queue; the LinkUp fault resumes draining.
            return;
        }
        match p.queue.ready_at(now) {
            None => {}
            Some(t) if t <= now => {
                let pkt = p
                    .queue
                    .dequeue(now)
                    .expect("discipline reported ready but gave no packet");
                let bytes = pkt.size as u64;
                let backlog = p.queue.backlog_bytes();
                let node = p.node;
                let link = &self.net.links[lidx];
                let dur = if p.tx_memo.0 == bytes {
                    p.tx_memo.1
                } else {
                    let d = link.rate.transmit_time(bytes);
                    p.tx_memo = (bytes, d);
                    d
                };
                p.in_flight = Some(pkt);
                // Launches only happen on up links, so this is the epoch
                // of the current up period.
                p.launch_downs = self.faults.link_downs[lidx];
                self.stats.on_port_dequeue(now, node, port, bytes, backlog);
                // The packet left the queue for the wire: its shared-buffer
                // bytes are freed for other ports to claim.
                if let Some(pool) = self.pools[node.index()].as_mut() {
                    pool.release(port, bytes);
                    sample_pool(&mut self.stats, now, node, pool);
                }
                self.events.push(now + dur, EventKind::TxComplete { port });
            }
            // Shaped release in the future: arm one wake for the
            // earliest known release instant.
            Some(t) if p.wake_at.is_none_or(|w| t < w) => {
                p.wake_at = Some(t);
                self.events.push(t, EventKind::PortWake { port });
            }
            Some(_) => {}
        }
    }

    fn on_tx_complete(&mut self, port: PortId) {
        let p = &mut self.net.ports[port.index()];
        let pkt = p.in_flight.take().expect("TxComplete on idle port");
        let link_id = p.link;
        let lidx = link_id.index();
        let launch_downs = p.launch_downs;
        if !self.faults.link_up[lidx] || self.faults.link_downs[lidx] != launch_downs {
            // The wire died mid-serialization: the frame was cut and never
            // reaches the peer (no tx counters — nothing made it out).
            self.wire_drop(link_id, pkt, DropCause::LinkDown, true);
            self.try_transmit(port);
            return;
        }
        self.stats.on_port_tx(p.node, port, pkt.size as u64);
        let link = &self.net.links[lidx];
        let to = link.to_node;
        let prop = link.prop_delay;
        let jitter = self.jitter_for(lidx);
        // Jitter must not reorder packets already launched on this link.
        let at = (self.now + prop + jitter).max(self.last_arrival[lidx]);
        self.last_arrival[lidx] = at;
        let seq = arrive_seq(link_id, self.launch_count[lidx]);
        self.launch_count[lidx] += 1;
        // Launch-time wire fate. Faults are plan data, so whether the wire
        // dies under this packet or corrupts it is already decided; ruling
        // here (instead of at arrival) means the receiving side — possibly
        // another shard — never consults this link's fault state. Per-link
        // launch order equals arrival order (the clamp above), so the
        // corruption stream is drawn in arrival order exactly as the
        // arrival-time check did.
        if self.faults.wire.cut_in_flight(lidx, self.now, at) {
            self.wire_drop(link_id, pkt, DropCause::LinkDown, false);
            self.try_transmit(port);
            return;
        }
        if self.faults.wire.corrupts(lidx, at) {
            self.wire_drop(link_id, pkt, DropCause::Corrupt, false);
            self.try_transmit(port);
            return;
        }
        // A launch bound for a node another shard owns goes to the outbox;
        // the driver replays it into the owner's queue under the identical
        // `(time, seq)` key.
        if let Some(ctx) = &mut self.shard {
            if ctx.owner[to.index()] != ctx.me {
                ctx.outbox.push(CrossMsg {
                    time: at,
                    seq,
                    node: to,
                    link: link_id,
                    pkt,
                });
                self.try_transmit(port);
                return;
            }
        }
        self.events.push_with_seq(
            at,
            seq,
            EventKind::Arrive {
                node: to,
                packet: self.arena.alloc(pkt),
                link: link_id,
            },
        );
        self.try_transmit(port);
    }

    fn on_arrive(&mut self, node: NodeId, pkt: Packet) {
        match &self.net.nodes[node.index()].kind {
            NodeKind::Host { .. } => {
                debug_assert_eq!(pkt.dst, node, "packet routed to wrong host");
                if self.faults.paused[node.index()] {
                    // Blacked-out receiver: the packet dies at the NIC,
                    // before delivery accounting and the app callback.
                    self.pause_drop(&pkt);
                    return;
                }
                let counts = matches!(
                    pkt.transport,
                    TransportHeader::Data { .. } | TransportHeader::Datagram
                );
                if counts {
                    self.stats.on_delivery(
                        self.now,
                        pkt.entity,
                        pkt.payload() as u64,
                        pkt.pq_delay_ns,
                        pkt.vdelay_ns,
                    );
                }
                self.with_app(node, |app, ctx| app.on_packet(ctx, pkt));
            }
            NodeKind::Switch { .. } => self.forward_through_switch(node, pkt),
        }
    }

    fn forward_through_switch(&mut self, node: NodeId, mut pkt: Packet) {
        let now = self.now;
        // Ingress pipelines.
        let entity = pkt.entity;
        let NodeKind::Switch { pipelines } = &mut self.net.nodes[node.index()].kind else {
            unreachable!()
        };
        // The first stage that does not forward decides; later stages
        // never see the packet.
        let verdict = (pipelines.iter_mut())
            .map(|pipe| pipe.ingress(now, &mut pkt))
            .find(|v| *v != PipelineVerdict::Forward)
            .unwrap_or(PipelineVerdict::Forward);
        if verdict != PipelineVerdict::Forward {
            // Attribute the pipeline drop to the port the packet would
            // have taken (the routing decision is deterministic, so the
            // lookup is exact even though the packet never reaches it).
            if let Some(out) = self.net.route(node, pkt.dst, pkt.flow) {
                match verdict {
                    PipelineVerdict::Drop => self.stats.on_port_aq_drop(node, out),
                    PipelineVerdict::DropOverflow => self.stats.on_port_queue_drop(
                        node,
                        out,
                        pkt.size as u64,
                        DropCause::AqTableOverflow,
                    ),
                    PipelineVerdict::Forward => unreachable!(),
                }
            }
            self.stats.on_drop(entity);
            return;
        }
        // Routing (ECMP by flow hash).
        let Some(out_port) = self.net.route(node, pkt.dst, pkt.flow) else {
            panic!("switch {node} has no route to {}", pkt.dst);
        };
        // Egress pipelines.
        let backlog = self.net.ports[out_port.index()].queue.backlog_bytes();
        let NodeKind::Switch { pipelines } = &mut self.net.nodes[node.index()].kind else {
            unreachable!()
        };
        let verdict = (pipelines.iter_mut())
            .map(|pipe| pipe.egress(now, &mut pkt, out_port, backlog))
            .find(|v| *v != PipelineVerdict::Forward)
            .unwrap_or(PipelineVerdict::Forward);
        match verdict {
            PipelineVerdict::Forward => {}
            PipelineVerdict::Drop => {
                self.stats.on_port_aq_drop(node, out_port);
                self.stats.on_drop(entity);
                return;
            }
            PipelineVerdict::DropOverflow => {
                self.stats.on_port_queue_drop(
                    node,
                    out_port,
                    pkt.size as u64,
                    DropCause::AqTableOverflow,
                );
                self.stats.on_drop(entity);
                return;
            }
        }
        self.enqueue_at_port(out_port, pkt);
    }
}
