//! Scenario assembly: turn a workload description into concrete flows and
//! install them on simulated hosts.
//!
//! Every experiment in the paper's §5 is an instance of the same recipe:
//! one or more *entities*, each owning a set of sending VMs, generating
//! web-search flows (or long-lived TCP/UDP flows) toward some destination
//! set under some CC algorithm and AQ tagging. This module provides that
//! recipe once, so figure harnesses stay declarative.

use crate::arrivals::PoissonArrivals;
use crate::websearch::FlowSizeDist;
use aq_netsim::ids::{EntityId, FlowId, NodeId};
use aq_netsim::packet::AqTag;
use aq_netsim::sim::Network;
use aq_netsim::time::{Duration, Rate, Time};
use aq_transport::{CcAlgo, DelaySignal, FlowKind, FlowSpec, TransportHost};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Description of one entity's web-search workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// The owning entity.
    entity: EntityId,
    /// Sending hosts (the entity's VMs).
    srcs: Vec<NodeId>,
    /// Destination candidates.
    dsts: Vec<NodeId>,
    /// Congestion control for every flow.
    cc: CcAlgo,
    /// Number of flows to generate.
    n_flows: usize,
    /// Offered load as a fraction of `capacity`.
    load: f64,
    /// The reference link whose capacity defines the load.
    capacity: Rate,
    /// RNG seed (sizes, arrivals, and endpoints all derive from it).
    seed: u64,
}

impl WorkloadSpec {
    /// A plain web-search workload: `n_flows` flows at `load`, uniformly
    /// random endpoints, arrivals from time zero. Flows come out untagged
    /// with a measured-RTT delay signal; the harness that knows the AQ
    /// grants tags them.
    #[expect(clippy::too_many_arguments, reason = "one argument per scenario knob")]
    pub fn web_search(
        entity: EntityId,
        srcs: Vec<NodeId>,
        dsts: Vec<NodeId>,
        cc: CcAlgo,
        n_flows: usize,
        load: f64,
        capacity: Rate,
        seed: u64,
    ) -> WorkloadSpec {
        WorkloadSpec {
            entity,
            srcs,
            dsts,
            cc,
            n_flows,
            load,
            capacity,
            seed,
        }
    }

    /// Generate the concrete flows. Flow ids are
    /// `flow_id_base .. flow_id_base + n_flows`.
    pub fn generate(&self, flow_id_base: u32) -> Vec<FlowSpec> {
        let dist = FlowSizeDist::web_search();
        let arrivals = PoissonArrivals::for_load(self.load, self.capacity, dist.mean_bytes());
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut t = Time::ZERO;
        let mut flows = Vec::with_capacity(self.n_flows);
        for i in 0..self.n_flows {
            t += arrivals.next_gap(&mut rng);
            let bytes = dist.sample(&mut rng);
            let (src, dst) = uniform_pair(&mut rng, &self.srcs, &self.dsts);
            flows.push(FlowSpec::sized_tcp(
                FlowId(flow_id_base + i as u32),
                self.entity,
                src,
                dst,
                self.cc,
                bytes,
                t,
            ));
        }
        flows
    }
}

/// A uniformly random source and an independent uniformly random
/// destination, re-drawn while they are equal: the paper's arbitrary
/// traffic matrix, where "any source may talk to any destination".
fn uniform_pair<R: Rng>(rng: &mut R, srcs: &[NodeId], dsts: &[NodeId]) -> (NodeId, NodeId) {
    assert!(!srcs.is_empty() && !dsts.is_empty());
    loop {
        let s = srcs[rng.gen_range(0..srcs.len())];
        let d = dsts[rng.gen_range(0..dsts.len())];
        if s != d {
            return (s, d);
        }
        assert!(
            srcs.len() > 1 || dsts.len() > 1,
            "uniform matrix with identical single src and dst"
        );
    }
}

/// A *closed-loop* per-VM replay of the web-search trace: the entity's
/// flow list is dealt round-robin to its VMs, and each VM works through
/// its list sequentially — the next flow starts when the previous one
/// completes (the way a worker replays trace entries). Concurrency
/// therefore equals the VM count, which is exactly what makes flow-level
/// fair sharing favour many-VM entities in the paper's Fig. 7.
#[derive(Debug, Clone)]
pub struct ClosedWorkload {
    /// The owning entity.
    entity: EntityId,
    /// The entity's sending VMs (one in-flight flow each).
    srcs: Vec<NodeId>,
    /// Destination candidates (drawn uniformly per flow).
    dsts: Vec<NodeId>,
    /// Congestion control for every flow.
    cc: CcAlgo,
    /// Total number of flows across all VMs.
    n_flows: usize,
    /// Flow-size multiplier. The published trace's sizes make sub-RTT
    /// flows at data-center RTTs, so a one-flow-deep closed loop becomes
    /// latency-bound and the bottleneck never saturates; scaling sizes
    /// keeps the distribution's shape while making the replay
    /// bandwidth-bound (see EXPERIMENTS.md).
    size_scale: f64,
    /// RNG seed.
    seed: u64,
}

impl ClosedWorkload {
    /// A plain closed-loop web-search workload; every VM's first flow
    /// starts at time zero, untagged (see [`WorkloadSpec::web_search`]).
    pub fn web_search(
        entity: EntityId,
        srcs: Vec<NodeId>,
        dsts: Vec<NodeId>,
        cc: CcAlgo,
        n_flows: usize,
        seed: u64,
    ) -> ClosedWorkload {
        ClosedWorkload {
            entity,
            srcs,
            dsts,
            cc,
            n_flows,
            size_scale: 1.0,
            seed,
        }
    }

    /// Scale all flow sizes (builder style).
    pub fn with_size_scale(mut self, scale: f64) -> ClosedWorkload {
        assert!(scale > 0.0);
        self.size_scale = scale;
        self
    }

    /// Generate the chained flows; ids are `flow_id_base..`.
    pub fn generate(&self, flow_id_base: u32) -> Vec<FlowSpec> {
        assert!(!self.srcs.is_empty(), "closed workload needs VMs");
        let dist = FlowSizeDist::web_search();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        // Per-VM chain tails (previous flow id on that VM).
        let mut tails: Vec<Option<FlowId>> = vec![None; self.srcs.len()];
        let mut flows = Vec::with_capacity(self.n_flows);
        for i in 0..self.n_flows {
            let vm = i % self.srcs.len();
            let src = self.srcs[vm];
            let bytes = (dist.sample(&mut rng) as f64 * self.size_scale) as u64;
            let dst = loop {
                let d = self.dsts[rng.gen_range(0..self.dsts.len())];
                if d != src {
                    break d;
                }
            };
            let id = FlowId(flow_id_base + i as u32);
            let mut spec =
                FlowSpec::sized_tcp(id, self.entity, src, dst, self.cc, bytes, Time::ZERO);
            if let Some(prev) = tails[vm] {
                spec = spec.chained_after(prev);
            }
            tails[vm] = Some(id);
            flows.push(spec);
        }
        flows
    }
}

/// Install an empty [`TransportHost`] on every host that has no app yet.
/// Call once after building the network, before adding flows.
pub fn ensure_transport_hosts(net: &mut Network) {
    let hosts: Vec<NodeId> = net
        .nodes
        .iter()
        .filter(|n| n.is_host())
        .map(|n| n.id)
        .collect();
    for h in hosts {
        if net.app_mut::<TransportHost>(h).is_none() {
            net.set_app(h, Box::new(TransportHost::new(h)));
        }
    }
}

/// Add flows to their source hosts' [`TransportHost`]s (which must already
/// be installed — see [`ensure_transport_hosts`]).
pub fn add_flows(net: &mut Network, flows: Vec<FlowSpec>) {
    for spec in flows {
        let host = net
            .app_mut::<TransportHost>(spec.src)
            .unwrap_or_else(|| panic!("{} has no TransportHost", spec.src));
        host.add_flow(spec);
    }
}

/// Convenience: `n` long-lived flows of one entity between fixed endpoint
/// pairs, round-robin over `pairs`.
#[expect(clippy::too_many_arguments, reason = "one argument per FlowSpec field")]
pub fn long_flows(
    entity: EntityId,
    pairs: &[(NodeId, NodeId)],
    n: usize,
    kind: FlowKind,
    aq_ingress: AqTag,
    aq_egress: AqTag,
    delay_signal: DelaySignal,
    flow_id_base: u32,
) -> Vec<FlowSpec> {
    (0..n)
        .map(|i| {
            let (src, dst) = pairs[i % pairs.len()];
            let mut spec = match kind {
                FlowKind::Tcp(cc) => {
                    FlowSpec::long_tcp(FlowId(flow_id_base + i as u32), entity, src, dst, cc)
                }
                FlowKind::Udp { rate } => {
                    FlowSpec::long_udp(FlowId(flow_id_base + i as u32), entity, src, dst, rate)
                }
            }
            .with_aq(aq_ingress, aq_egress);
            spec.delay_signal = delay_signal;
            // Desynchronize slow-start bursts slightly, as real senders
            // never start in perfect lockstep.
            spec.start = Time::from_nanos(i as u64 * 1_379);
            spec
        })
        .collect()
}

/// Average goodput of an entity over `[from, to)` in Gbit/s, from the
/// stats hub's delivery series.
pub fn goodput_gbps(
    stats: &aq_netsim::stats::StatsHub,
    entity: EntityId,
    from: Time,
    to: Time,
) -> f64 {
    stats
        .entity(entity)
        .map(|es| es.rx_series.avg_bps(from, to) / 1e9)
        .unwrap_or(0.0)
}

/// Run a simulator until every flow of the given entities has completed
/// or `deadline` passes; returns true when everything finished.
pub fn run_until_complete(
    sim: &mut aq_netsim::sim::Simulator,
    entities: &[EntityId],
    deadline: Time,
    check_every: Duration,
) -> bool {
    let mut t = sim.now();
    loop {
        t = (t + check_every).min(deadline);
        sim.run_until(t);
        let done = entities
            .iter()
            .all(|e| sim.stats.entity_completed_fraction(*e) >= 1.0);
        if done {
            return true;
        }
        if t >= deadline {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_netsim::queue::FifoConfig;
    use aq_netsim::sim::Simulator;
    use aq_netsim::topology::dumbbell;

    #[test]
    fn generate_produces_deterministic_sorted_arrivals() {
        let spec = WorkloadSpec::web_search(
            EntityId(1),
            vec![NodeId(2), NodeId(3)],
            vec![NodeId(4), NodeId(5)],
            CcAlgo::Cubic,
            50,
            0.5,
            Rate::from_gbps(10),
            11,
        );
        let a = spec.generate(100);
        let b = spec.generate(100);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.flow, y.flow);
            assert_eq!(x.bytes, y.bytes);
            assert_eq!(x.start, y.start);
            assert_eq!((x.src, x.dst), (y.src, y.dst));
        }
        for w in a.windows(2) {
            assert!(w[0].start <= w[1].start, "arrivals sorted");
        }
        assert!(a.iter().all(|f| f.src != f.dst));
    }

    #[test]
    fn uniform_pairs_never_selfloop_and_cover_every_pair() {
        let hosts = [NodeId(1), NodeId(2), NodeId(3)];
        let mut rng = SmallRng::seed_from_u64(5);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..600 {
            let (s, d) = uniform_pair(&mut rng, &hosts, &hosts);
            assert_ne!(s, d);
            seen.insert((s.0, d.0));
        }
        assert_eq!(seen.len(), 6, "all ordered pairs appear");
    }

    #[test]
    fn install_helpers_wire_flows_to_hosts() {
        let d = dumbbell(
            2,
            Rate::from_gbps(10),
            Duration::from_micros(10),
            FifoConfig::default(),
        );
        let mut net = d.net;
        ensure_transport_hosts(&mut net);
        let spec = WorkloadSpec::web_search(
            EntityId(1),
            d.left.clone(),
            d.right.clone(),
            CcAlgo::Cubic,
            10,
            0.4,
            Rate::from_gbps(10),
            3,
        );
        let flows = spec.generate(1);
        assert_eq!(flows.len(), 10);
        let mut wiring: Vec<(Time, FlowId, NodeId)> =
            flows.iter().map(|f| (f.start, f.flow, f.src)).collect();
        wiring.sort();
        add_flows(&mut net, flows);
        // Flows start on their scheduled timer and retire when they
        // finish, so check each one 1 ns after its own start: its sender
        // has launched, and no flow finishes within 1 ns of starting.
        let mut sim = Simulator::new(net);
        for (start, flow, src) in wiring {
            sim.run_until(start + Duration::from_nanos(1));
            for &h in &d.left {
                let app = sim.net.app_mut::<TransportHost>(h).expect("installed");
                let here = app.sender_flows().any(|&f| f == flow);
                assert_eq!(here, h == src, "{flow} on {h}, scheduled from {src}");
            }
        }
    }

    #[test]
    fn long_flows_round_robin_pairs_and_desynchronize() {
        let pairs = [(NodeId(1), NodeId(2)), (NodeId(3), NodeId(4))];
        let flows = long_flows(
            EntityId(2),
            &pairs,
            4,
            FlowKind::Tcp(CcAlgo::Dctcp),
            AqTag(5),
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            10,
        );
        assert_eq!(flows[0].src, NodeId(1));
        assert_eq!(flows[1].src, NodeId(3));
        assert_eq!(flows[2].src, NodeId(1));
        assert_eq!(flows[0].aq_ingress, AqTag(5));
        assert!(flows[1].start > flows[0].start);
        assert!(flows.iter().all(|f| f.bytes.is_none()));
    }
}
