//! Deterministic multi-core sharded simulation.
//!
//! [`ShardedSim`] splits one [`Simulator`] run across worker threads: the
//! node set is partitioned by a [`ShardPlan`] (one shard per fat-tree pod
//! plus a core shard, or one per dumbbell side), and each shard runs a
//! complete `Simulator` of its own — its own timing wheel, its own
//! [`PacketArena`](crate::packet::PacketArena), its own
//! [`StatsHub`](crate::stats::StatsHub) — over the nodes it owns.
//!
//! # Synchronization: conservative lookahead
//!
//! Shards synchronize with the classic conservative-lookahead round
//! (Chandy–Misra with a global window). Let `L` be the minimum propagation
//! delay over every *cross-shard* link (links whose feeding node and
//! receiving node live on different shards). Each round:
//!
//! 1. deliver the pending cross-shard log (sorted by `(time, seq)`) into
//!    the receiving shards' event queues;
//! 2. compute `m`, the minimum next-event time across all shards;
//! 3. run every shard in parallel over events strictly before `h = m + L`;
//! 4. collect each shard's outbox of cross-shard launches into the log.
//!
//! Safety: an event processed at `u ≥ m` can generate a cross-shard
//! arrival no earlier than `u + L ≥ m + L = h`, so nothing a shard does
//! inside a round can affect any other shard within that same round.
//! Partitions with a zero-delay cross-shard link are rejected (the window
//! would never advance).
//!
//! # Determinism
//!
//! Results are byte-identical to the single-threaded engine — and
//! identical for any worker count — because nothing observable depends on
//! scheduling:
//!
//! * Every `Arrive` event carries an intrinsic `(time, seq)` key
//!   ([`arrive_seq`](crate::event::arrive_seq)) derived from the link and
//!   its launch counter, not from insertion order, so a shard pops the
//!   exact event sequence the reference engine would pop restricted to its
//!   nodes.
//! * Forwarding jitter is a pure hash of `(seed, link, launch index)`.
//! * The cross-shard log is sorted by `(time, seq)` before delivery: a
//!   deterministic ordered event log, independent of which worker finished
//!   first.
//! * Workers only ever mutate the shard they have claimed (each shard
//!   lives in its own `Mutex`); rounds are separated by barriers.
//!
//! The merged run ([`ShardedSim::finish`]) folds per-shard stats hubs,
//! fault logs, and counters back into one reporting-grade [`Simulator`].

use std::any::Any;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex};

use crate::fault::FaultState;
use crate::ids::{EntityId, FlowId, NodeId};
use crate::node::{Node, NodeKind};
use crate::port::Port;
use crate::queue::{FifoConfig, FifoQueue};
use crate::sim::{CrossMsg, Network, ShardCtx, Simulator};
use crate::time::{Duration, Time};

/// A node → shard assignment.
///
/// Shard ids must be dense (`0..shards`); the plan is validated when a
/// [`ShardedSim`] is built from it. Topology builders provide canonical
/// plans (e.g. [`FatTree::shard_plan`](crate::topology::FatTree::shard_plan):
/// shard 0 = core switches, shard `p + 1` = pod `p`).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// `owner[node]` is the shard that owns the node.
    owner: Vec<u32>,
    /// Number of shards (`max(owner) + 1`).
    shards: u32,
}

impl ShardPlan {
    /// Build a plan from a node → shard map.
    pub fn new(owner: Vec<u32>) -> ShardPlan {
        let shards = owner.iter().copied().max().map_or(0, |m| m + 1);
        ShardPlan { owner, shards }
    }

    /// The trivial plan: every node on shard 0 (never parallelized).
    pub fn single(nodes: usize) -> ShardPlan {
        ShardPlan {
            owner: vec![0; nodes],
            shards: 1,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning `node`.
    pub fn owner(&self, node: NodeId) -> u32 {
        self.owner[node.index()]
    }
}

/// One coordination round handed from the coordinator to the workers.
struct Round {
    /// Run events up to this time.
    target: Time,
    /// Strict horizon (`< target`, a lookahead window) vs. inclusive chunk
    /// boundary (`≤ target`, the final partial round of a chunk).
    strict: bool,
    /// The chunk is over; workers exit.
    quit: bool,
    /// The first panic a worker caught this round, for the coordinator to
    /// re-raise once every worker is back at the barrier.
    panic: Option<Box<dyn Any + Send>>,
}

/// A `Simulator` run sharded across worker threads.
///
/// Built by [`partition`](ShardedSim::partition), driven by
/// [`run_until`](ShardedSim::run_until) (chunked, so completion-polling
/// drivers work unchanged), and collapsed back into a single reporting
/// [`Simulator`] by [`finish`](ShardedSim::finish).
pub struct ShardedSim {
    /// One complete simulator per shard, each behind its own lock. Workers
    /// only ever lock the shard they claimed for the current round.
    cells: Vec<Mutex<Simulator>>,
    /// Node index → owning shard.
    owner: Vec<u32>,
    /// Worker thread count (1 = run rounds on the calling thread).
    jobs: usize,
    /// Minimum propagation delay over cross-shard links.
    lookahead: Duration,
    /// The cross-shard event log: launches collected from shard outboxes,
    /// awaiting delivery at the top of the next round.
    pending: Vec<CrossMsg>,
    /// Chunk clock (mirrors every shard's clock between `run_until` calls).
    now: Time,
    /// Start-of-run events have been scheduled on every shard.
    started: bool,
}

impl ShardedSim {
    /// Split `sim` into per-shard simulators.
    ///
    /// Returns the untouched simulator as `Err` when the run cannot be
    /// sharded, so callers can fall back to the single-threaded engine:
    /// the simulation already started, control-plane agents are installed
    /// (they mutate the whole network), the plan has fewer than two
    /// shards, the plan does not cover the node set, there is no
    /// cross-shard link at all, or some cross-shard link has zero
    /// propagation delay (no lookahead window).
    // The large `Err` variant is the point of the API: callers get the
    // untouched simulator back by value so the fallback path costs no
    // allocation and no copy of the network.
    #[allow(clippy::result_large_err)]
    pub fn partition(
        sim: Simulator,
        plan: &ShardPlan,
        jobs: usize,
    ) -> Result<ShardedSim, Simulator> {
        if sim.started
            || !sim.agents.is_empty()
            || plan.shards < 2
            || plan.owner.len() != sim.net.nodes.len()
        {
            return Err(sim);
        }
        let mut lookahead: Option<Duration> = None;
        for link in &sim.net.links {
            let from_node = sim.net.ports[link.from_port.index()].node;
            if plan.owner[from_node.index()] == plan.owner[link.to_node.index()] {
                continue;
            }
            if link.prop_delay == Duration::ZERO {
                return Err(sim);
            }
            lookahead = Some(match lookahead {
                Some(l) if l <= link.prop_delay => l,
                _ => link.prop_delay,
            });
        }
        let Some(lookahead) = lookahead else {
            // No cross-shard traffic is possible; sharding buys nothing.
            return Err(sim);
        };

        let Simulator {
            net,
            faults,
            churn,
            pools,
            jitter_seed,
            ..
        } = sim;
        let Network {
            nodes,
            ports,
            links,
            routes,
        } = net;
        let nshards = plan.shards as usize;

        // Every shard gets the *full* index space — same node/port/link
        // tables, same route tables — so ids, routes, and per-link launch
        // counters line up with the reference engine. Non-owned slots hold
        // inert placeholders (app-less hosts, default FIFO ports); owned
        // slots get the real objects, moved, never cloned.
        let mut shard_nodes: Vec<Vec<Node>> = (0..nshards).map(|_| Vec::new()).collect();
        for (i, node) in nodes.into_iter().enumerate() {
            let own = plan.owner[i] as usize;
            for (s, v) in shard_nodes.iter_mut().enumerate() {
                if s != own {
                    v.push(Node {
                        id: node.id,
                        kind: NodeKind::Host { app: None },
                        ports: node.ports.clone(),
                    });
                }
            }
            shard_nodes[own].push(node);
        }
        let mut shard_ports: Vec<Vec<Port>> = (0..nshards).map(|_| Vec::new()).collect();
        for port in ports {
            let own = plan.owner[port.node.index()] as usize;
            for (s, v) in shard_ports.iter_mut().enumerate() {
                if s != own {
                    v.push(Port::new(
                        port.id,
                        port.node,
                        port.link,
                        Box::new(FifoQueue::new(FifoConfig::default())),
                    ));
                }
            }
            shard_ports[own].push(port);
        }
        let mut shard_pools: Vec<Vec<_>> = (0..nshards).map(|_| Vec::new()).collect();
        for (i, mut pool) in pools.into_iter().enumerate() {
            let own = plan.owner[i] as usize;
            for (s, v) in shard_pools.iter_mut().enumerate() {
                v.push(if s == own { pool.take() } else { None });
            }
        }

        let mut shard_nodes = shard_nodes.into_iter();
        let mut shard_ports = shard_ports.into_iter();
        let mut shard_pools = shard_pools.into_iter();
        let mut cells = Vec::with_capacity(nshards);
        for s in 0..nshards {
            let net = Network {
                nodes: shard_nodes.next().expect("shard count"),
                ports: shard_ports.next().expect("shard count"),
                links: links.clone(),
                routes: routes.clone(),
            };
            let mut shard = Simulator::new(net);
            shard.jitter_seed = jitter_seed;
            shard.install_faults(faults.plan.clone());
            shard.install_churn(churn.plan.clone());
            shard.pools = shard_pools.next().expect("shard count");
            shard.shard = Some(ShardCtx {
                me: u32::try_from(s).expect("shard count fits u32"),
                owner: plan.owner.clone(),
                outbox: Vec::new(),
            });
            cells.push(Mutex::new(shard));
        }

        Ok(ShardedSim {
            cells,
            owner: plan.owner.clone(),
            jobs: jobs.max(1),
            lookahead,
            pending: Vec::new(),
            now: Time::ZERO,
            started: false,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// Chunk clock: the time every shard has been run to.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events processed across all shards.
    pub fn processed_events(&mut self) -> u64 {
        self.cells
            .iter_mut()
            .map(|c| c.get_mut().expect("shard lock poisoned").processed_events)
            .sum()
    }

    /// Fraction of `entity`'s registered flows that have completed, seen
    /// across every shard: a flow counts as done if its owning shard
    /// recorded an end, or if any shard staged an orphan completion for it
    /// (the receiver lives on another shard). Matches the single-threaded
    /// [`StatsHub::entity_completed_fraction`](crate::stats::StatsHub::entity_completed_fraction)
    /// at every poll.
    pub fn entity_completed_fraction(&mut self, entity: EntityId) -> f64 {
        let mut orphans: BTreeSet<FlowId> = BTreeSet::new();
        for cell in &mut self.cells {
            let shard = cell.get_mut().expect("shard lock poisoned");
            orphans.extend(shard.stats.orphan_ends().map(|(id, _)| *id));
        }
        let (mut total, mut done) = (0u64, 0u64);
        for cell in &mut self.cells {
            let shard = cell.get_mut().expect("shard lock poisoned");
            for (id, rec) in shard.stats.flows() {
                if rec.entity != entity {
                    continue;
                }
                total += 1;
                if rec.end.is_some() || orphans.contains(id) {
                    done += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            done as f64 / total as f64
        }
    }

    /// Run every shard until simulation time `t` (inclusive), exactly as
    /// the single-threaded engine's `run_until(t)` would. Chunked calls
    /// compose: pending cross-shard launches survive between calls.
    pub fn run_until(&mut self, t: Time) {
        if !self.started {
            for cell in &mut self.cells {
                cell.get_mut()
                    .expect("shard lock poisoned")
                    .ensure_started();
            }
            self.started = true;
        }
        if self.jobs <= 1 {
            self.run_chunk_serial(t);
        } else {
            self.run_chunk_parallel(t);
        }
        // Pin every shard's clock to the chunk boundary (no events ≤ t
        // remain anywhere, so this processes nothing).
        for cell in &mut self.cells {
            cell.get_mut().expect("shard lock poisoned").run_until(t);
        }
        self.now = t;
    }

    /// The round loop, single-threaded: same rounds, same deliveries, same
    /// results as the parallel path — used for `--jobs 1` and as the
    /// byte-equivalence reference in tests.
    fn run_chunk_serial(&mut self, t: Time) {
        while let Some((target, strict)) = self.begin_round(t) {
            for cell in &mut self.cells {
                let shard = cell.get_mut().expect("shard lock poisoned");
                if strict {
                    shard.run_until_before(target);
                } else {
                    shard.run_until(target);
                }
            }
            self.collect_outboxes();
        }
    }

    /// The round loop, parallel: one worker scope for the whole chunk,
    /// rounds separated by barriers. Workers claim shards off a shared
    /// cursor, so a straggler shard never idles the rest of the fleet.
    fn run_chunk_parallel(&mut self, t: Time) {
        let jobs = self.jobs.min(self.cells.len());
        let round = Mutex::new(Round {
            target: Time::ZERO,
            strict: true,
            quit: false,
            panic: None,
        });
        let claim = Mutex::new(0usize);
        let start_barrier = Barrier::new(jobs + 1);
        let end_barrier = Barrier::new(jobs + 1);
        let cells = &self.cells;
        let owner = &self.owner;
        let pending = &mut self.pending;
        let lookahead = self.lookahead;
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    start_barrier.wait();
                    let (target, strict, quit) = {
                        let r = round.lock().expect("round lock poisoned");
                        (r.target, r.strict, r.quit)
                    };
                    if quit {
                        break;
                    }
                    // A panic inside a shard (an `invariant!`, a pipeline
                    // bug) must still reach the barrier, or the coordinator
                    // and every other worker would wait on it forever.
                    let caught = catch_unwind(AssertUnwindSafe(|| loop {
                        let idx = {
                            let mut cursor = claim.lock().expect("claim lock poisoned");
                            let i = *cursor;
                            *cursor += 1;
                            i
                        };
                        if idx >= cells.len() {
                            break;
                        }
                        let mut shard = cells[idx].lock().expect("shard lock poisoned");
                        if strict {
                            shard.run_until_before(target);
                        } else {
                            shard.run_until(target);
                        }
                    }));
                    if let Err(payload) = caught {
                        let mut r = round.lock().expect("round lock poisoned");
                        r.panic.get_or_insert(payload);
                    }
                    end_barrier.wait();
                });
            }
            // Coordinator (this thread).
            loop {
                let next = round_spec(cells, pending, owner, lookahead, t);
                let Some((target, strict)) = next else {
                    round.lock().expect("round lock poisoned").quit = true;
                    start_barrier.wait();
                    break;
                };
                {
                    let mut r = round.lock().expect("round lock poisoned");
                    r.target = target;
                    r.strict = strict;
                }
                *claim.lock().expect("claim lock poisoned") = 0;
                start_barrier.wait();
                end_barrier.wait();
                let caught = {
                    let mut r = round.lock().expect("round lock poisoned");
                    r.quit = r.panic.is_some();
                    r.panic.take()
                };
                if let Some(payload) = caught {
                    // Release the workers, then fail the run on this thread.
                    start_barrier.wait();
                    resume_unwind(payload);
                }
                for cell in cells.iter() {
                    pending.append(&mut cell.lock().expect("shard lock poisoned").take_outbox());
                }
            }
        });
    }

    /// Deliver the pending cross-shard log and compute the next round's
    /// `(target, strict)`, or `None` when the chunk is done.
    fn begin_round(&mut self, t: Time) -> Option<(Time, bool)> {
        let cells = &mut self.cells;
        self.pending.sort_by_key(|m| (m.time, m.seq));
        for msg in self.pending.drain(..) {
            let own = self.owner[msg.node.index()] as usize;
            cells[own]
                .get_mut()
                .expect("shard lock poisoned")
                .deliver_cross(msg);
        }
        let m = cells
            .iter_mut()
            .filter_map(|c| c.get_mut().expect("shard lock poisoned").next_event_time())
            .min()?;
        if m > t {
            return None;
        }
        let h = m + self.lookahead;
        Some(if h > t { (t, false) } else { (h, true) })
    }

    /// Append every shard's outbox to the pending log (serial path).
    fn collect_outboxes(&mut self) {
        for cell in &mut self.cells {
            self.pending
                .append(&mut cell.get_mut().expect("shard lock poisoned").take_outbox());
        }
    }

    /// Collapse the shards back into one reporting-grade [`Simulator`]:
    /// real nodes, ports, pools, and app state pulled back from their
    /// owning shards; stats hubs folded in shard order through
    /// [`StatsHub::absorb`](crate::stats::StatsHub::absorb); fault logs
    /// concatenated and sorted by `(time, plan index)` — exactly the
    /// single-threaded firing order.
    ///
    /// The merged simulator is for *reporting*: its event queue is empty
    /// (in-flight work is gone, just as the reference engine abandons
    /// undelivered arrivals in its arena at the end of a run), so running
    /// it further processes nothing.
    pub fn finish(mut self) -> Simulator {
        let t = self.now;
        let processed = self.processed_events();
        let mut shards: Vec<Simulator> = self
            .cells
            .into_iter()
            .map(|c| c.into_inner().expect("shard lock poisoned"))
            .collect();
        let owner = self.owner;

        let n_nodes = owner.len();
        let mut nodes = Vec::with_capacity(n_nodes);
        for (i, &shard_id) in owner.iter().enumerate() {
            let own = shard_id as usize;
            let slot = &mut shards[own].net.nodes[i];
            let placeholder = Node {
                id: slot.id,
                kind: NodeKind::Host { app: None },
                ports: Vec::new(),
            };
            nodes.push(std::mem::replace(slot, placeholder));
        }
        let n_ports = shards[0].net.ports.len();
        let mut ports = Vec::with_capacity(n_ports);
        for i in 0..n_ports {
            let node = shards[0].net.ports[i].node;
            let own = owner[node.index()] as usize;
            let slot = &mut shards[own].net.ports[i];
            let placeholder = Port::new(
                slot.id,
                slot.node,
                slot.link,
                Box::new(FifoQueue::new(FifoConfig::default())),
            );
            ports.push(std::mem::replace(slot, placeholder));
        }
        let links = std::mem::take(&mut shards[0].net.links);
        let routes = std::mem::take(&mut shards[0].net.routes);
        let n_links = links.len();

        let net = Network {
            nodes,
            ports,
            links,
            routes,
        };
        let mut merged = Simulator::new(net);
        merged.started = true;
        merged.now = t;
        merged.processed_events = processed;
        merged.jitter_seed = shards[0].jitter_seed;

        let mut stats = std::mem::replace(&mut shards[0].stats, crate::stats::StatsHub::new());
        for shard in &mut shards[1..] {
            stats.absorb(std::mem::replace(
                &mut shard.stats,
                crate::stats::StatsHub::new(),
            ));
        }
        merged.stats = stats;

        merged.next_uid = shards.iter().map(|s| s.next_uid).sum();

        let mut faults = FaultState::new(n_links, n_nodes);
        faults.wire = crate::fault::WireFate::from_plan(&shards[0].faults.plan, n_links);
        faults.plan = std::mem::take(&mut shards[0].faults.plan);
        for i in 0..n_links {
            let from_node = merged.net.ports[merged.net.links[i].from_port.index()].node;
            let own = owner[from_node.index()] as usize;
            faults.link_up[i] = shards[own].faults.link_up[i];
            faults.link_downs[i] = shards[own].faults.link_downs[i];
        }
        for (i, &shard_id) in owner.iter().enumerate() {
            faults.paused[i] = shards[shard_id as usize].faults.paused[i];
        }
        let mut log = Vec::new();
        for shard in &mut shards {
            log.append(&mut shard.faults.log);
        }
        log.sort_by_key(|a| (a.at, a.plan_index));
        faults.log = log;
        for shard in &shards {
            let t = &shard.faults.totals;
            faults.totals.injected += t.injected;
            faults.totals.link_down_drops += t.link_down_drops;
            faults.totals.link_down_dropped_bytes += t.link_down_dropped_bytes;
            faults.totals.corrupt_drops += t.corrupt_drops;
            faults.totals.corrupt_dropped_bytes += t.corrupt_dropped_bytes;
            faults.totals.pause_drops += t.pause_drops;
            faults.totals.pause_dropped_bytes += t.pause_dropped_bytes;
        }
        merged.faults = faults;

        merged.churn.plan = std::mem::take(&mut shards[0].churn.plan);
        for shard in &shards {
            merged.merge_churn_totals(shard.churn.totals);
        }

        for (i, shard) in shards.iter_mut().enumerate() {
            let own_pools: Vec<_> = shard.pools.drain(..).collect();
            for (n, pool) in own_pools.into_iter().enumerate() {
                if owner[n] as usize == i {
                    merged.pools[n] = pool;
                }
            }
        }
        merged
    }
}

/// [`ShardedSim::begin_round`] for the parallel coordinator, which holds
/// field borrows instead of `&mut self` (the worker closures borrow
/// `cells` for the whole scope).
fn round_spec(
    cells: &[Mutex<Simulator>],
    pending: &mut Vec<CrossMsg>,
    owner: &[u32],
    lookahead: Duration,
    t: Time,
) -> Option<(Time, bool)> {
    pending.sort_by_key(|m| (m.time, m.seq));
    for msg in pending.drain(..) {
        let own = owner[msg.node.index()] as usize;
        cells[own]
            .lock()
            .expect("shard lock poisoned")
            .deliver_cross(msg);
    }
    let m = cells
        .iter()
        .filter_map(|c| c.lock().expect("shard lock poisoned").next_event_time())
        .min()?;
    if m > t {
        return None;
    }
    let h = m + lookahead;
    Some(if h > t { (t, false) } else { (h, true) })
}
