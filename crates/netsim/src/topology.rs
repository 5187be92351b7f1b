//! Topology construction and static routing.
//!
//! [`NetBuilder`] assembles nodes, full-duplex cables, and per-direction
//! queue configurations, then computes all-pairs shortest-path next hops by
//! breadth-first search (deterministic tie-breaking by link insertion
//! order). Helpers build the two topologies the paper evaluates on: the
//! dumbbell of Fig. 5(a) and the single-switch star of Fig. 5(b) / Fig. 2.

use crate::ids::{LinkId, NodeId, PortId};
use crate::link::Link;
use crate::node::{Node, NodeKind};
use crate::port::Port;
use crate::queue::{FifoConfig, FifoQueue, QueueDiscipline};
use crate::sim::Network;
use crate::time::{Duration, Rate};
use std::collections::VecDeque;

/// Incremental network builder.
#[derive(Default)]
pub struct NetBuilder {
    nodes: Vec<Node>,
    ports: Vec<Port>,
    links: Vec<Link>,
}

impl NetBuilder {
    /// An empty builder.
    pub fn new() -> NetBuilder {
        NetBuilder::default()
    }

    /// Add a host (its app is installed later with [`Network::set_app`]).
    pub fn add_host(&mut self) -> NodeId {
        let id = NodeId::from(self.nodes.len());
        self.nodes.push(Node {
            id,
            kind: NodeKind::Host { app: None },
            ports: Vec::new(),
        });
        id
    }

    /// Add a switch with no pipelines (a plain physical-queue switch).
    pub fn add_switch(&mut self) -> NodeId {
        let id = NodeId::from(self.nodes.len());
        self.nodes.push(Node {
            id,
            kind: NodeKind::Switch {
                pipelines: Vec::new(),
            },
            ports: Vec::new(),
        });
        id
    }

    /// Connect `a` and `b` with a full-duplex cable: `rate` and
    /// `prop_delay` apply to both directions; each direction gets a FIFO
    /// with its own config. Returns the two ports `(a_to_b, b_to_a)`.
    fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        rate: Rate,
        prop_delay: Duration,
        fifo_a_to_b: FifoConfig,
        fifo_b_to_a: FifoConfig,
    ) -> (PortId, PortId) {
        let p_ab = self.half_link(
            a,
            b,
            rate,
            prop_delay,
            Box::new(FifoQueue::new(fifo_a_to_b)),
        );
        let p_ba = self.half_link(
            b,
            a,
            rate,
            prop_delay,
            Box::new(FifoQueue::new(fifo_b_to_a)),
        );
        (p_ab, p_ba)
    }

    /// A full-duplex cable whose two directions queue in the same FIFO
    /// configuration.
    pub fn connect_symmetric(
        &mut self,
        a: NodeId,
        b: NodeId,
        rate: Rate,
        prop_delay: Duration,
        fifo: FifoConfig,
    ) -> (PortId, PortId) {
        self.connect(a, b, rate, prop_delay, fifo, fifo)
    }

    /// One direction of a cable with an arbitrary queue discipline (used
    /// e.g. to give a host uplink an HTB shaper).
    pub fn half_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        rate: Rate,
        prop_delay: Duration,
        queue: Box<dyn QueueDiscipline>,
    ) -> PortId {
        let port = PortId::from(self.ports.len());
        let link = LinkId::from(self.links.len());
        self.links.push(Link {
            id: link,
            from_port: port,
            to_node: to,
            rate,
            prop_delay,
        });
        self.ports.push(Port::new(port, from, link, queue));
        self.nodes[from.index()].ports.push(port);
        port
    }

    /// Finish: compute all-pairs shortest-path next hops — keeping *every*
    /// equal-cost next hop so flows ECMP across them — and produce the
    /// network.
    ///
    /// # Panics
    /// Panics if the graph is not connected (some pair has no route).
    pub fn build(self) -> Network {
        let n = self.nodes.len();
        // in_edges[x]: (u, port on u) for every link u -> x, insertion order.
        let mut in_edges: Vec<Vec<(NodeId, PortId)>> = vec![Vec::new(); n];
        for link in &self.links {
            let u = self.ports[link.from_port.index()].node;
            in_edges[link.to_node.index()].push((u, link.from_port));
        }
        let mut routes: Vec<Vec<Vec<PortId>>> = vec![vec![Vec::new(); n]; n];
        for dst in 0..n {
            // BFS from dst along reversed edges computes hop distances;
            // every edge u->x with dist[u] = dist[x] + 1 is then an
            // equal-cost next hop of u.
            let mut dist = vec![u32::MAX; n];
            dist[dst] = 0;
            let mut q = VecDeque::from([dst]);
            while let Some(x) = q.pop_front() {
                for &(u, _) in &in_edges[x] {
                    if dist[u.index()] == u32::MAX {
                        dist[u.index()] = dist[x] + 1;
                        q.push_back(u.index());
                    }
                }
            }
            for x in 0..n {
                if dist[x] == u32::MAX {
                    continue;
                }
                for &(u, port) in &in_edges[x] {
                    if dist[u.index()] == dist[x] + 1 {
                        routes[u.index()][dst].push(port);
                    }
                }
            }
            for (u, r) in routes.iter().enumerate() {
                assert!(
                    u == dst || !r[dst].is_empty(),
                    "graph not connected: n{u} cannot reach n{dst}"
                );
            }
        }
        Network {
            nodes: self.nodes,
            ports: self.ports,
            links: self.links,
            routes,
        }
    }
}

/// A built dumbbell (Fig. 5(a)): `left[i]` pairs with `right[i]`; all
/// host↔switch edges and the core link share one rate.
pub struct Dumbbell {
    /// Hosts on the left side.
    pub left: Vec<NodeId>,
    /// Hosts on the right side.
    pub right: Vec<NodeId>,
    /// Left aggregation switch.
    pub sw_left: NodeId,
    /// Right aggregation switch.
    pub sw_right: NodeId,
    /// The bottleneck port (left switch toward right switch).
    pub core_port: PortId,
    /// The built network.
    pub net: Network,
}

impl Dumbbell {
    /// The canonical two-shard plan: shard 0 = left switch plus left
    /// hosts, shard 1 = right switch plus right hosts. The only
    /// cross-shard links are the two core directions, so the lookahead
    /// window is the core propagation delay.
    pub fn shard_plan(&self) -> crate::shard::ShardPlan {
        let mut owner = vec![0u32; self.net.nodes.len()];
        owner[self.sw_right.index()] = 1;
        for h in &self.right {
            owner[h.index()] = 1;
        }
        crate::shard::ShardPlan::new(owner)
    }
}

/// Build a dumbbell with `pairs` hosts per side. The core link (the
/// bottleneck for left→right traffic) uses `core_fifo`; edge links get
/// generous buffers and the same rate, so the core is the unique
/// bottleneck.
pub fn dumbbell(pairs: usize, rate: Rate, prop_delay: Duration, core_fifo: FifoConfig) -> Dumbbell {
    dumbbell_asym(pairs, rate, rate, prop_delay, core_fifo)
}

/// Dumbbell with distinct edge and core rates (e.g. fast 100 Gbps NICs
/// into a 25 Gbps core so all queueing concentrates at the core).
pub fn dumbbell_asym(
    pairs: usize,
    edge_rate: Rate,
    core_rate: Rate,
    prop_delay: Duration,
    core_fifo: FifoConfig,
) -> Dumbbell {
    let mut b = NetBuilder::new();
    let sw_left = b.add_switch();
    let sw_right = b.add_switch();
    let edge_fifo = FifoConfig {
        limit_bytes: 16_000_000,
        ecn_threshold_bytes: None,
    };
    let mut left = Vec::new();
    let mut right = Vec::new();
    for _ in 0..pairs {
        let h = b.add_host();
        b.connect_symmetric(h, sw_left, edge_rate, prop_delay, edge_fifo);
        left.push(h);
    }
    for _ in 0..pairs {
        let h = b.add_host();
        b.connect_symmetric(h, sw_right, edge_rate, prop_delay, edge_fifo);
        right.push(h);
    }
    let (core_port, _) = b.connect(
        sw_left, sw_right, core_rate, prop_delay, core_fifo, core_fifo,
    );
    Dumbbell {
        left,
        right,
        sw_left,
        sw_right,
        core_port,
        net: b.build(),
    }
}

/// A built single-switch star (Fig. 5(b) / Fig. 2).
pub struct Star {
    /// The hosts, in creation order.
    pub hosts: Vec<NodeId>,
    /// The switch at the center.
    pub switch: NodeId,
    /// `downlinks[i]` is the switch port toward `hosts[i]` (where inbound
    /// contention appears).
    pub downlinks: Vec<PortId>,
    /// The built network.
    pub net: Network,
}

/// Build a star of `n` hosts around one switch; every cable shares `rate`
/// and `prop_delay`, switch downlink ports use `fifo`. Host uplink
/// buffers are kept at Linux-qdisc scale (2 MB ≈ a ~1300-packet pfifo) so
/// a saturating sender does not bufferbloat its own reverse-ACK path by
/// multiple milliseconds.
pub fn star(n: usize, rate: Rate, prop_delay: Duration, fifo: FifoConfig) -> Star {
    let mut b = NetBuilder::new();
    let switch = b.add_switch();
    let edge_fifo = FifoConfig {
        limit_bytes: 2_000_000,
        ecn_threshold_bytes: None,
    };
    let mut hosts = Vec::new();
    let mut downlinks = Vec::new();
    for _ in 0..n {
        let h = b.add_host();
        let (_, down) = b.connect(h, switch, rate, prop_delay, edge_fifo, fifo);
        hosts.push(h);
        downlinks.push(down);
    }
    Star {
        hosts,
        switch,
        downlinks,
        net: b.build(),
    }
}

/// A built k-ary fat tree (the standard 3-tier Clos data center fabric).
pub struct FatTree {
    /// All hosts, pod-major order (`k²/4` per pod... `k³/4` total).
    pub hosts: Vec<NodeId>,
    /// Edge (ToR) switches, pod-major.
    pub edge: Vec<NodeId>,
    /// Aggregation switches, pod-major.
    pub agg: Vec<NodeId>,
    /// Core switches.
    pub core: Vec<NodeId>,
    /// The built network.
    pub net: Network,
}

impl FatTree {
    /// The canonical plan from the sharded-simulation design: one shard
    /// per pod plus a core shard. Shard 0 owns every core switch; shard
    /// `p + 1` owns pod `p`'s aggregation switches, edge switches, and
    /// hosts. Every cross-shard link is an agg↔core link, so the
    /// lookahead window is the (uniform) link propagation delay.
    pub fn shard_plan(&self) -> crate::shard::ShardPlan {
        let mut half = 1usize;
        while half * half < self.core.len() {
            half += 1;
        }
        let pod = |i: usize, per_pod: usize| u32::try_from(i / per_pod).expect("pod count") + 1;
        let mut owner = vec![0u32; self.net.nodes.len()];
        for (i, n) in self.agg.iter().enumerate() {
            owner[n.index()] = pod(i, half);
        }
        for (i, n) in self.edge.iter().enumerate() {
            owner[n.index()] = pod(i, half);
        }
        for (i, n) in self.hosts.iter().enumerate() {
            owner[n.index()] = pod(i, half * half);
        }
        crate::shard::ShardPlan::new(owner)
    }
}

/// Build a k-ary fat tree: `k` pods, each with `k/2` edge and `k/2`
/// aggregation switches; `(k/2)²` core switches; `k/2` hosts per edge
/// switch. Every link shares `rate` and `prop_delay`; inter-switch ports
/// use `fifo`, host uplinks get Linux-qdisc-scale buffers. Flows ECMP
/// across the `(k/2)²` equal-cost core paths between pods.
///
/// # Panics
/// Panics unless `k` is even and ≥ 2.
pub fn fat_tree(k: usize, rate: Rate, prop_delay: Duration, fifo: FifoConfig) -> FatTree {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat tree requires even k >= 2"
    );
    let half = k / 2;
    let mut b = NetBuilder::new();
    let edge_fifo = FifoConfig {
        limit_bytes: 2_000_000,
        ecn_threshold_bytes: None,
    };
    let core: Vec<NodeId> = (0..half * half).map(|_| b.add_switch()).collect();
    let mut edge = Vec::new();
    let mut agg = Vec::new();
    let mut hosts = Vec::new();
    for _pod in 0..k {
        let pod_agg: Vec<NodeId> = (0..half).map(|_| b.add_switch()).collect();
        let pod_edge: Vec<NodeId> = (0..half).map(|_| b.add_switch()).collect();
        // Edge <-> agg full bipartite within the pod.
        for e in &pod_edge {
            for a in &pod_agg {
                b.connect_symmetric(*e, *a, rate, prop_delay, fifo);
            }
        }
        // Agg i connects to core switches [i*half, (i+1)*half).
        for (i, a) in pod_agg.iter().enumerate() {
            for c in &core[i * half..(i + 1) * half] {
                b.connect_symmetric(*a, *c, rate, prop_delay, fifo);
            }
        }
        // Hosts.
        for e in &pod_edge {
            for _ in 0..half {
                let h = b.add_host();
                b.connect(h, *e, rate, prop_delay, edge_fifo, fifo);
                hosts.push(h);
            }
        }
        edge.extend(pod_edge);
        agg.extend(pod_agg);
    }
    FatTree {
        hosts,
        edge,
        agg,
        core,
        net: b.build(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;

    #[test]
    fn dumbbell_routes_cross_traffic_through_core() {
        let d = dumbbell(
            3,
            Rate::from_gbps(10),
            Duration::from_micros(10),
            FifoConfig::default(),
        );
        // Left host 0 reaches right host 0 via its uplink; the left switch
        // forwards over the core port.
        let l0 = d.left[0];
        let r0 = d.right[0];
        assert!(d.net.route(l0, r0, FlowId(1)).is_some());
        assert_eq!(d.net.route(d.sw_left, r0, FlowId(1)), Some(d.core_port));
        // Hosts have exactly one port.
        assert_eq!(d.net.nodes[l0.index()].ports.len(), 1);
    }

    #[test]
    fn star_downlinks_match_hosts() {
        let s = star(
            4,
            Rate::from_gbps(25),
            Duration::from_micros(5),
            FifoConfig::default(),
        );
        for (i, h) in s.hosts.iter().enumerate() {
            assert_eq!(s.net.route(s.switch, *h, FlowId(1)), Some(s.downlinks[i]));
            // Every other host routes via its single uplink.
            for other in &s.hosts {
                if other != h {
                    let up = s.net.host_uplink(*h);
                    assert_eq!(s.net.route(*h, *other, FlowId(1)), Some(up));
                }
            }
        }
    }

    #[test]
    fn fat_tree_k4_has_standard_shape() {
        let ft = fat_tree(
            4,
            Rate::from_gbps(10),
            Duration::from_micros(2),
            FifoConfig::default(),
        );
        assert_eq!(ft.hosts.len(), 16);
        assert_eq!(ft.edge.len(), 8);
        assert_eq!(ft.agg.len(), 8);
        assert_eq!(ft.core.len(), 4);
        // Inter-pod traffic has two equal-cost uplinks at the edge switch.
        let h0 = ft.hosts[0];
        let h_far = ft.hosts[15];
        let tor = ft.edge[0];
        assert_eq!(ft.net.route_set(tor, h_far).len(), 2, "ECMP at the ToR");
        // And the whole path works for any flow id.
        for f in 0..8u32 {
            assert!(ft.net.route(h0, h_far, FlowId(f)).is_some());
        }
    }

    #[test]
    fn ecmp_spreads_flows_but_keeps_each_flow_stable() {
        let ft = fat_tree(
            4,
            Rate::from_gbps(10),
            Duration::from_micros(2),
            FifoConfig::default(),
        );
        let tor = ft.edge[0];
        let dst = ft.hosts[15];
        let mut used = std::collections::BTreeSet::new();
        for f in 0..64u32 {
            let p1 = ft.net.route(tor, dst, FlowId(f)).expect("routed");
            let p2 = ft.net.route(tor, dst, FlowId(f)).expect("routed");
            assert_eq!(p1, p2, "per-flow path stability");
            used.insert(p1);
        }
        assert_eq!(used.len(), 2, "64 flows must cover both uplinks");
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn disconnected_graph_is_rejected() {
        let mut b = NetBuilder::new();
        b.add_host();
        b.add_host();
        b.build();
    }
}
