//! # aq-bench — one builder for every experiment
//!
//! A scenario is described once, as an [`aq_workloads::registry`]
//! [`ScenarioPlan`]; [`build_experiment`] wires it under one of the four
//! compared approaches (PQ, AQ, PRL, DRL) on the topology the plan names,
//! and `aq_harness::sweep::execute_run` drives it and distills its
//! metrics. Every table and figure of the paper is an axis of the `paper`
//! sweep over that one path (EXPERIMENTS.md maps them); this crate also
//! holds the [`report`] artifact every run emits.

use aq_baselines::{Classify, ElasticSwitch, HtbShaper, VmConfig};
use aq_core::{
    AqController, AqPipeline, AqRequest, AqTable, BandwidthDemand, CcPolicy, LimitPolicy,
    OverflowPolicy, Position, ReallocatorConfig, WorkConservation, WorkConservingReallocator,
    PACKED_AQ_BYTES,
};
use aq_netsim::buffer::{
    AdmissionPolicy, DelayDriven, DynamicThreshold, SharedBufferPool, StaticPartition,
};
use aq_netsim::churn::ChurnPlan;
use aq_netsim::fault::FaultPlan;
use aq_netsim::ids::{EntityId, NodeId, PortId};
use aq_netsim::node::NodeKind;
use aq_netsim::packet::AqTag;
use aq_netsim::queue::{DisaggRedConfig, DisaggRedQueue, FifoConfig, L4sStepConfig, L4sStepQueue};
use aq_netsim::shard::{ShardPlan, ShardedSim};
use aq_netsim::sim::{Agent, AgentCtx, Network, Simulator};
use aq_netsim::stats::StatsHub;
use aq_netsim::time::{Duration, Rate, Time};
use aq_netsim::topology::{dumbbell_asym, fat_tree, star};
use aq_transport::{CcAlgo, DelaySignal, FlowKind};
use aq_workloads::registry::{
    AdmissionKind, AqMode, AqmKind, BufferPlan, LimitKind, OverflowKind, PlanAqBudget, PlanChurn,
    PlanFault, RunPlan, ScenarioPlan, Topology,
};
use aq_workloads::{add_flows, ensure_transport_hosts, long_flows, ClosedWorkload, WorkloadSpec};
use std::collections::BTreeMap;

pub mod csv;
pub mod json;
pub mod report;

// The entity/traffic description types live in the workload layer so the
// scenario registry can name them; re-exported for callers that build an
// entity list by hand (`build_dumbbell`).
pub use aq_workloads::registry::{EntitySetup, LongKind, Traffic};

/// The four approaches compared throughout §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// Plain physical queues.
    Pq,
    /// Augmented Queues (this paper).
    Aq,
    /// Pre-determined rate limiters (HTB at hosts, fixed even split).
    Prl,
    /// Dynamic rate limiters (ElasticSwitch-style, 15 ms adjustment).
    Drl,
}

impl Approach {
    /// All four, in the paper's reporting order.
    pub const ALL: [Approach; 4] = [Approach::Pq, Approach::Aq, Approach::Prl, Approach::Drl];

    /// Display name used in printed rows.
    pub fn name(&self) -> &'static str {
        match self {
            Approach::Pq => "PQ",
            Approach::Aq => "AQ",
            Approach::Prl => "PRL",
            Approach::Drl => "DRL",
        }
    }
}

/// What a caller chooses on top of a plan: the seed and whether the
/// physical queues mark ECN. Links and queue limits are the plan's
/// ([`ScenarioPlan::fabric`], else the default fabric).
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Core ECN threshold (needed whenever ECN-based CC participates).
    pub ecn_threshold: Option<u64>,
    /// Workload/jitter seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            ecn_threshold: None,
            seed: 1,
        }
    }
}

/// The links and physical queues one experiment is built on.
#[derive(Debug, Clone, Copy)]
struct Fabric {
    /// Rate of every link (the dumbbell core may be sliced narrower).
    link: Rate,
    /// One-way propagation per link.
    prop: Duration,
    /// Physical-queue limit of the contended ports (bytes).
    pq_limit: u64,
    /// ECN threshold of the contended ports (bytes).
    ecn_threshold: Option<u64>,
}

/// The fabric of every plan without a [`FabricPlan`] of its own: 10 Gbit/s
/// links with 10 µs of one-way propagation and 200 KB physical queues.
///
/// [`FabricPlan`]: aq_workloads::registry::FabricPlan
const DEFAULT_FABRIC: Fabric = Fabric {
    link: Rate::from_gbps(10),
    prop: Duration::from_micros(10),
    pq_limit: 200_000,
    ecn_threshold: None,
};

impl Fabric {
    /// `plan`'s fabric, marking ECN where `cfg` asks for it.
    fn of(plan: &ScenarioPlan, cfg: ExpConfig) -> Fabric {
        match plan.fabric {
            Some(f) => Fabric {
                link: f.link,
                prop: f.prop,
                pq_limit: f.pq_limit,
                ecn_threshold: cfg.ecn_threshold.map(|_| f.ecn_k),
            },
            None => Fabric {
                ecn_threshold: cfg.ecn_threshold,
                ..DEFAULT_FABRIC
            },
        }
    }

    /// The FIFO of every contended fabric port.
    fn fifo(&self) -> FifoConfig {
        FifoConfig {
            limit_bytes: self.pq_limit,
            ecn_threshold_bytes: self.ecn_threshold,
        }
    }
}

/// The physical-queue ECN threshold an operator would configure for this
/// experiment: switches get a marking threshold only when ECN-based CC
/// runs against the *physical* queue. Under AQ the physical queue is a
/// dumb buffer — the AQ's virtual threshold generates the ECN signal — so
/// no PQ ECN config is used (and non-ECT traffic is not RED-dropped).
pub fn pq_ecn_for(approach: Approach, entities: &[EntitySetup]) -> Option<u64> {
    let has_ecn_cc = entities.iter().any(|e| matches!(e.cc, CcAlgo::Dctcp));
    match approach {
        Approach::Aq => None,
        _ if has_ecn_cc => Some(65_000),
        _ => None,
    }
}

/// A fully-wired experiment ready to run.
pub struct Experiment {
    /// The simulator.
    pub sim: Simulator,
    /// Per-entity sending hosts (left side).
    pub entity_vms: Vec<(EntityId, Vec<NodeId>)>,
    /// The destination pool: an entity sends to every host here that is
    /// not one of its own VMs.
    pub receivers: Vec<NodeId>,
    /// The bottleneck port (the dumbbell's core port, the fat tree's first
    /// receiver downlink, the star's downlink to the first VM).
    pub core_port: PortId,
    /// Topology-derived shard ownership map (one shard per fat-tree pod
    /// plus a core shard; dumbbells split at the core link) for the
    /// sharded engine. Runs that cannot shard (agents installed, star
    /// topologies, zero-delay cross links) fall back to the reference
    /// engine via [`ShardedSim::partition`]'s `Err` arm.
    pub shard_plan: ShardPlan,
}

/// The paper's virtual ECN threshold for ECN-based CC under an AQ, where
/// the plan's fabric does not set one.
const VIRTUAL_ECN_K: u64 = 30_000;

/// AQ CC policy for a transport CC algorithm.
fn cc_policy_for(cc: CcAlgo, ecn_k: u64) -> CcPolicy {
    match cc {
        CcAlgo::Dctcp => CcPolicy::EcnBased {
            threshold_bytes: ecn_k as u32,
        },
        CcAlgo::Swift { .. } => CcPolicy::DelayBased,
        _ => CcPolicy::DropBased,
    }
}

/// An instantiated topology, before any approach is wired onto it.
struct Site {
    net: Network,
    entity_vms: Vec<(EntityId, Vec<NodeId>)>,
    receivers: Vec<NodeId>,
    /// `aq_switch[i]` is the switch whose pipeline polices entity `i`.
    aq_switch: Vec<NodeId>,
    core_port: PortId,
    shard_plan: ShardPlan,
}

/// Deal the entities' VMs out of `hosts`, `stride` hosts apart per entity
/// (`None` = back to back).
fn assign_vms(
    entities: &[EntitySetup],
    hosts: &[NodeId],
    stride: Option<usize>,
) -> Vec<(EntityId, Vec<NodeId>)> {
    let mut next = 0usize;
    entities
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let base = stride.map_or(next, |s| i * s);
            next += e.n_vms;
            (e.entity, hosts[base..base + e.n_vms].to_vec())
        })
        .collect()
}

/// Dumbbell: each entity gets `n_vms` left-side hosts (in declaration
/// order); the right side mirrors the left and is the destination pool of
/// all entities. `core` is the core link's rate.
fn dumbbell_site(entities: &[EntitySetup], f: Fabric, core: Rate) -> Site {
    let total_vms: usize = entities.iter().map(|e| e.n_vms).sum();
    let d = dumbbell_asym(total_vms.max(2), f.link, core, f.prop, f.fifo());
    Site {
        shard_plan: d.shard_plan(),
        entity_vms: assign_vms(entities, &d.left, None),
        receivers: d.right,
        aq_switch: vec![d.sw_left; entities.len()],
        core_port: d.core_port,
        net: d.net,
    }
}

/// Fat tree: entity `i` gets its `n_vms` hosts under edge switch `i` of
/// pod 0, and every entity sends to the shared receiver pool under the
/// first edge switch of the *last* pod — all traffic crosses pods and
/// ECMPs over the core, and the contended resources are the receiver ToR
/// downlinks. AQ pipelines sit on each entity's sending ToR (each ToR
/// polices exactly the traffic it ingresses); PRL/DRL shape at the host
/// uplinks as in the dumbbell.
fn fat_tree_site(entities: &[EntitySetup], f: Fabric, k: usize) -> Site {
    let half = k / 2;
    assert!(
        entities.len() <= half,
        "one sending ToR per entity: at most {half} entities on a k={k} fat tree"
    );
    assert!(
        entities.iter().all(|e| e.n_vms <= half),
        "at most {half} hosts per ToR"
    );
    let ft = fat_tree(k, f.link, f.prop, f.fifo());
    // Hosts are pod-major, `half` per edge switch.
    let rx_base = (k - 1) * half * half;
    let receivers: Vec<NodeId> = ft.hosts[rx_base..rx_base + half].to_vec();
    // The hottest shared port: the receiver ToR's downlink to the first
    // receiver — every entity's flow toward that host crosses it.
    let core_port = ft.net.route_set(ft.edge[(k - 1) * half], receivers[0])[0];
    Site {
        shard_plan: ft.shard_plan(),
        entity_vms: assign_vms(entities, &ft.hosts, Some(half)),
        receivers,
        aq_switch: ft.edge[..entities.len()].to_vec(),
        core_port,
        net: ft.net,
    }
}

/// Star: the entities' VMs around one switch, every VM a potential
/// destination of every other entity.
fn star_site(entities: &[EntitySetup], f: Fabric) -> Site {
    let total_vms: usize = entities.iter().map(|e| e.n_vms).sum();
    let s = star(total_vms, f.link, f.prop, f.fifo());
    Site {
        shard_plan: ShardPlan::single(s.net.nodes.len()),
        entity_vms: assign_vms(entities, &s.hosts, None),
        receivers: s.hosts,
        aq_switch: vec![s.switch; entities.len()],
        core_port: s.downlinks[0],
        net: s.net,
    }
}

fn limit_policy(kind: LimitKind, pq_limit_bytes: u64) -> LimitPolicy {
    match kind {
        LimitKind::MatchPhysicalQueue => LimitPolicy::MatchPhysicalQueue { pq_limit_bytes },
        LimitKind::ProportionalShare { min_bytes } => LimitPolicy::ProportionalShare {
            pq_limit_bytes,
            min_bytes,
        },
    }
}

/// Install per-VM HTB shapers on every sending host's uplink. Entity
/// share = weight-proportional slice of `share`, each VM getting
/// share/n_vms — or, under the hose model, every VM its `hose` profile.
/// PRL keeps the split fixed; DRL classifies by destination and lets the
/// ElasticSwitch agent retune class rates every 15 ms — for DRL that
/// agent is returned.
fn install_rate_limiters(
    net: &mut Network,
    approach: Approach,
    entities: &[EntitySetup],
    entity_vms: &[(EntityId, Vec<NodeId>)],
    share: Rate,
    hose: Option<Rate>,
    link: Rate,
) -> Option<ElasticSwitch> {
    let total_w: u64 = entities.iter().map(|e| e.weight).sum();
    let classify = if approach == Approach::Prl {
        Classify::All
    } else {
        Classify::ByDst
    };
    // Under the hose model a VM's ACKs queue behind its own shaped data,
    // so the class buffer stays at Linux-qdisc scale.
    let class_limit = if hose.is_some() { 500_000 } else { 4_000_000 };
    let mut vm_cfgs = Vec::new();
    for (e, (_, vms)) in entities.iter().zip(entity_vms) {
        let vm_rate = hose.unwrap_or_else(|| {
            share
                .scaled(e.weight, total_w.max(1))
                .scaled(1, e.n_vms.max(1) as u64)
        });
        for vm in vms {
            let up = net.host_uplink(*vm);
            net.ports[up.index()].queue =
                Box::new(HtbShaper::new(classify, vm_rate, 30_000, class_limit));
            vm_cfgs.push(VmConfig {
                host: *vm,
                uplink: up,
                out_guarantee: vm_rate,
                // Only a hose profile constrains inbound traffic; without
                // one, admit up to a full link inbound.
                in_guarantee: hose.unwrap_or(link),
            });
        }
    }
    (approach == Approach::Drl).then(|| match hose {
        // The profile is "no more, no less": DRL treats the hose
        // guarantees as caps and only redistributes within them.
        Some(_) => ElasticSwitch::with_hose_cap(vm_cfgs),
        None => ElasticSwitch::new(vm_cfgs),
    })
}

fn deploy(pipe: &mut AqPipeline, position: Position, cfg: aq_core::AqConfig) {
    let _ = match position {
        Position::Ingress => pipe.deploy_ingress(cfg),
        Position::Egress => pipe.deploy_egress(cfg),
    };
}

/// `xs` without repeats, in first-appearance order.
fn distinct(xs: &[NodeId]) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    for x in xs {
        if !out.contains(x) {
            out.push(*x);
        }
    }
    out
}

fn pipe_at(net: &mut Network, sw: NodeId) -> &mut AqPipeline {
    net.pipeline_mut::<AqPipeline>(sw, 0)
        .expect("an AQ pipeline was installed at setup")
}

/// [`AqMode::GrantOnJoin`]'s control plane: request each entity's AQ when
/// the entity starts, deploy it, and push the re-divided weighted rates
/// into the AQs already running without resetting their gaps.
struct JoinGrants {
    ctl: AqController,
    /// `(start, switch, request)` in grant order; the first `granted` are
    /// deployed.
    joins: Vec<(Time, NodeId, AqRequest)>,
    granted: usize,
}

impl JoinGrants {
    fn grant_due(&mut self, net: &mut Network, now: Time) {
        while let Some((at, sw, req)) = self.joins.get(self.granted) {
            if *at > now {
                break;
            }
            let id = self
                .ctl
                .request(req.clone())
                .expect("weighted grants always admit")
                .id;
            let (position, cfg) = (self.ctl.configs().into_iter())
                .find(|(_, c)| c.id == id)
                .expect("granted AQ has a config");
            deploy(pipe_at(net, *sw), position, cfg);
            self.granted += 1;
        }
        for (_, sw, _) in &self.joins[..self.granted] {
            self.ctl.sync_rates(pipe_at(net, *sw), now);
        }
    }
}

impl Agent for JoinGrants {
    fn on_start(&mut self, net: &mut Network, _stats: &mut StatsHub, ctx: &mut AgentCtx) {
        self.grant_due(net, ctx.now);
        for (at, _, _) in &self.joins[self.granted..] {
            ctx.arm_timer_at(*at, 0);
        }
    }

    fn on_timer(&mut self, net: &mut Network, _stats: &mut StatsHub, ctx: &mut AgentCtx, _: u64) {
        self.grant_due(net, ctx.now);
    }
}

/// The AQ tags packets carry: `(ingress, egress)` per entity — or, under
/// the hose model, per VM (a packet takes its source VM's ingress AQ and
/// its destination VM's egress AQ).
#[derive(Default)]
struct Tags {
    entity: Vec<(AqTag, AqTag)>,
    vm: BTreeMap<NodeId, (AqTag, AqTag)>,
}

/// When entity `i`'s traffic (and, under `GrantOnJoin`, its AQ) starts.
fn start_of(plan: &ScenarioPlan, i: usize) -> Duration {
    plan.starts.get(i).copied().unwrap_or(Duration::ZERO)
}

/// The AQ approach's control plane: grant every entity (or, on a hose
/// star, every VM) its AQs from a controller of `share` capacity, deploy
/// them on the entities' switches per the plan's [`AqMode`], and return
/// the tags the traffic must carry. Agents the mode needs go to `agents`.
fn deploy_aqs(
    net: &mut Network,
    plan: &ScenarioPlan,
    pq_limit: u64,
    share: Rate,
    entity_vms: &[(EntityId, Vec<NodeId>)],
    aq_switch: &[NodeId],
    agents: &mut Vec<Box<dyn Agent>>,
) -> Tags {
    let entities = &plan.entities;
    let ecn_k = plan.fabric.map_or(VIRTUAL_ECN_K, |f| f.ecn_k);
    let request = |e: &EntitySetup, demand, position| AqRequest {
        demand,
        cc: cc_policy_for(e.cc, ecn_k),
        position,
        limit_override: None,
    };
    let mut ctl = AqController::new(share, limit_policy(plan.aq_limit, pq_limit));
    let mut tags = Tags::default();
    if let Topology::Star { hose } = plan.topology {
        for (e, (_, vms)) in entities.iter().zip(entity_vms) {
            for vm in vms {
                let mut grant = |position| {
                    ctl.request(request(e, BandwidthDemand::Absolute(hose), position))
                        .expect("the VMs' hose profiles fit the link")
                        .id
                };
                tags.vm
                    .insert(*vm, (grant(Position::Ingress), grant(Position::Egress)));
            }
        }
        let mut pipe = AqPipeline::new();
        ctl.deploy_all(&mut pipe);
        net.add_pipeline(aq_switch[0], Box::new(pipe));
        return tags;
    }
    // Bypass mode consults the output queue's occupancy, so its AQs sit at
    // the egress position.
    let position = match plan.aq_mode {
        AqMode::BypassWhenIdle => Position::Egress,
        _ => Position::Ingress,
    };
    // Ids are granted in start order (entity order among equals), so a
    // flow's tag is known before its grant.
    let mut order: Vec<usize> = (0..entities.len()).collect();
    order.sort_by_key(|&i| start_of(plan, i));
    tags.entity = vec![(AqTag::NONE, AqTag::NONE); entities.len()];
    for (&i, id) in order.iter().zip(1..) {
        tags.entity[i] = match position {
            Position::Ingress => (AqTag(id), AqTag::NONE),
            Position::Egress => (AqTag::NONE, AqTag(id)),
        };
    }
    let joins: Vec<(Time, NodeId, AqRequest)> = (order.iter())
        .map(|&i| {
            let demand = BandwidthDemand::Weighted(entities[i].weight);
            let req = request(&entities[i], demand, position);
            (Time::ZERO + start_of(plan, i), aq_switch[i], req)
        })
        .collect();
    if plan.aq_mode != AqMode::GrantOnJoin {
        for (_, _, req) in &joins {
            ctl.request(req.clone())
                .expect("weighted grants always admit");
        }
    }
    for sw in distinct(aq_switch) {
        let mut pipe = AqPipeline::new();
        if plan.aq_mode == AqMode::BypassWhenIdle {
            pipe.work_conservation = WorkConservation::BypassWhenIdle;
        }
        // The AQs granted so far (none yet under `GrantOnJoin`), in grant
        // order beside the request that produced each.
        let mut guarantees = BTreeMap::new();
        for ((_, on, _), (position, aq)) in joins.iter().zip(ctl.configs()) {
            if *on == sw {
                guarantees.insert(aq.id, aq.rate);
                deploy(&mut pipe, position, aq);
            }
        }
        net.add_pipeline(sw, Box::new(pipe));
        if plan.aq_mode == AqMode::Reallocate {
            agents.push(Box::new(WorkConservingReallocator::new(
                ReallocatorConfig {
                    switch: sw,
                    pipeline_index: 0,
                    capacity: share,
                    guarantees,
                    interval: Duration::from_millis(10),
                },
            )));
        }
    }
    if plan.aq_mode == AqMode::GrantOnJoin {
        agents.push(Box::new(JoinGrants {
            ctl,
            joins,
            granted: 0,
        }));
    }
    tags
}

/// Generate every entity's flows, tag them, shift them to the entity's
/// start and hand them to the sending hosts.
fn install_traffic(
    sim: &mut Simulator,
    plan: &ScenarioPlan,
    entity_vms: &[(EntityId, Vec<NodeId>)],
    receivers: &[NodeId],
    tags: &Tags,
    link: Rate,
    seed: u64,
) {
    let mut flow_base = 1u32;
    for (i, (e, (_, vms))) in plan.entities.iter().zip(entity_vms).enumerate() {
        let dsts: Vec<NodeId> = (receivers.iter().copied())
            .filter(|r| !vms.contains(r))
            .collect();
        let mut flows = match &e.traffic {
            Traffic::WebSearch { n_flows, load } => WorkloadSpec::web_search(
                e.entity,
                vms.clone(),
                dsts,
                e.cc,
                *n_flows,
                *load,
                link,
                seed.wrapping_add(e.entity.0 as u64 * 7919),
            )
            .generate(flow_base),
            // Every entity replays the *same* trace (same seed): the
            // paper's entities "both run the web search trace", and a
            // shared flow list is what makes completion times
            // comparable under a heavy-tailed size distribution.
            Traffic::WebSearchClosed {
                n_flows,
                size_scale,
            } => ClosedWorkload::web_search(e.entity, vms.clone(), dsts, e.cc, *n_flows, seed)
                .with_size_scale(*size_scale)
                .generate(flow_base),
            Traffic::Long { n, kind } => {
                let pairs: Vec<(NodeId, NodeId)> = (vms.iter().enumerate())
                    .map(|(i, vm)| (*vm, dsts[i % dsts.len()]))
                    .collect();
                let kind = match kind {
                    LongKind::Tcp => FlowKind::Tcp(e.cc),
                    LongKind::Udp(rate) => FlowKind::Udp { rate: *rate },
                };
                let (none, rtt) = (AqTag::NONE, DelaySignal::MeasuredRtt);
                long_flows(e.entity, &pairs, *n, kind, none, none, rtt, flow_base)
            }
        };
        for f in &mut flows {
            (f.aq_ingress, f.aq_egress) = match tags.entity.get(i) {
                Some(entity) => *entity,
                None => (
                    tags.vm.get(&f.src).map_or(AqTag::NONE, |t| t.0),
                    tags.vm.get(&f.dst).map_or(AqTag::NONE, |t| t.1),
                ),
            };
            if e.cc.delay_based() && (f.aq_ingress.is_some() || f.aq_egress.is_some()) {
                f.delay_signal = DelaySignal::VirtualDelay;
            }
            f.start += start_of(plan, i);
        }
        flow_base += flows.len() as u32;
        add_flows(&mut sim.net, flows);
    }
}

/// Wire `approach` around an instantiated topology and install the
/// plan's traffic. `share` is the capacity the entities divide.
fn wire(
    approach: Approach,
    plan: &ScenarioPlan,
    fabric: Fabric,
    seed: u64,
    share: Rate,
    site: Site,
) -> Experiment {
    let Site {
        mut net,
        entity_vms,
        receivers,
        aq_switch,
        core_port,
        shard_plan,
    } = site;
    let link = fabric.link;
    let mut agents: Vec<Box<dyn Agent>> = Vec::new();
    let tags = match approach {
        Approach::Pq => Tags::default(),
        Approach::Aq => deploy_aqs(
            &mut net,
            plan,
            fabric.pq_limit,
            share,
            &entity_vms,
            &aq_switch,
            &mut agents,
        ),
        Approach::Prl | Approach::Drl => {
            let hose = match plan.topology {
                Topology::Star { hose } => Some(hose),
                _ => None,
            };
            let entities = &plan.entities;
            let drl =
                install_rate_limiters(&mut net, approach, entities, &entity_vms, share, hose, link);
            agents.extend(drl.map(|a| Box::new(a) as Box<dyn Agent>));
            Tags::default()
        }
    };
    ensure_transport_hosts(&mut net);
    let mut sim = Simulator::new(net);
    sim.set_seed(seed ^ 0x9e37_79b9_7f4a_7c15);
    for agent in agents {
        sim.add_agent(agent);
    }
    install_traffic(&mut sim, plan, &entity_vms, &receivers, &tags, link, seed);
    Experiment {
        sim,
        entity_vms,
        receivers,
        core_port,
        shard_plan,
    }
}

/// Build a dumbbell experiment from a bare entity list: each entity gets
/// `n_vms` left-side hosts (in declaration order); the right side mirrors
/// the left and is used as the destination pool by all entities.
pub fn build_dumbbell(approach: Approach, entities: &[EntitySetup], cfg: ExpConfig) -> Experiment {
    let run = RunPlan::FixedHorizon {
        horizon: Duration::ZERO,
    };
    build_experiment(approach, &ScenarioPlan::new(entities.to_vec(), run), cfg)
}

/// Build the experiment a scenario plan describes — on the topology and
/// fabric the plan names, under `approach` — and install the plan's
/// faults, buffers, table budget and churn against the instantiated
/// fabric.
pub fn build_experiment(approach: Approach, plan: &ScenarioPlan, cfg: ExpConfig) -> Experiment {
    let fabric = Fabric::of(plan, cfg);
    let share = plan.fabric.and_then(|f| f.slice).unwrap_or(fabric.link);
    let site = match plan.topology {
        // A sliced fabric's core is `share` wide — except under AQ, which
        // carves its slice out of a full-rate core.
        Topology::Dumbbell if approach == Approach::Aq => {
            dumbbell_site(&plan.entities, fabric, fabric.link)
        }
        Topology::Dumbbell => dumbbell_site(&plan.entities, fabric, share),
        Topology::FatTree { k } => fat_tree_site(&plan.entities, fabric, k),
        Topology::Star { .. } => star_site(&plan.entities, fabric),
    };
    let mut exp = wire(approach, plan, fabric, cfg.seed, share, site);
    if let Some(bp) = plan.buffers {
        install_buffering(&mut exp, bp, fabric.pq_limit);
    }
    if !plan.faults.is_empty() {
        let faults = translate_faults(&exp, &plan.faults, cfg.seed);
        exp.sim.install_faults(faults);
    }
    if let Some(budget) = plan.aq_budget {
        install_aq_budget(&mut exp, budget);
    }
    if let Some(churn) = plan.churn {
        install_churn(&mut exp, churn, fabric, cfg.seed);
    }
    exp
}

/// Every switch carrying a pipeline stage — the scenario layer's "the
/// bottleneck switch" for control-plane operations. Falls back to the
/// bottleneck port's owner when the approach deploys no pipelines
/// (PQ/PRL/DRL), so churn trains still fire (as no-ops) and run
/// structure stays comparable across approaches.
fn pipeline_switches(exp: &Experiment) -> Vec<NodeId> {
    let net = &exp.sim.net;
    let mut targets: Vec<NodeId> = net
        .nodes
        .iter()
        .filter(|n| matches!(&n.kind, NodeKind::Switch { pipelines, .. } if !pipelines.is_empty()))
        .map(|n| n.id)
        .collect();
    if targets.is_empty() {
        targets.push(net.ports[exp.core_port.index()].node);
    }
    targets
}

/// Bound every deployed pipeline's AQ tables by the plan's register
/// budget, re-admitting the controller's setup-time deploys through the
/// fallible path (in id order) as if the switch had booted with the
/// budget in place. With a budget at or above the grant count the grants
/// all land and churned tenants contend for the remaining rows; below it
/// the highest-id grants park immediately, so their traffic runs
/// degraded from the first packet — the overload configuration the
/// acceptance criteria exercise.
fn install_aq_budget(exp: &mut Experiment, budget: PlanAqBudget) {
    let policy = match budget.policy {
        OverflowKind::RejectNew => OverflowPolicy::RejectNew,
        OverflowKind::EvictIdle => OverflowPolicy::EvictIdle,
    };
    let bytes = (budget.aqs * PACKED_AQ_BYTES) as u64;
    for node in pipeline_switches(exp) {
        let count = match &exp.sim.net.nodes[node.index()].kind {
            NodeKind::Switch { pipelines, .. } => pipelines.len(),
            NodeKind::Host { .. } => 0,
        };
        for i in 0..count {
            if let Some(pipe) = exp.sim.net.pipeline_mut::<AqPipeline>(node, i) {
                let ingress: Vec<_> = pipe
                    .ingress_table
                    .iter()
                    .map(|inst| inst.cfg.clone())
                    .collect();
                let egress: Vec<_> = pipe
                    .egress_table
                    .iter()
                    .map(|inst| inst.cfg.clone())
                    .collect();
                // Fresh bounded tables: this runs before the simulator
                // starts, so the only state to carry over is the configs.
                pipe.ingress_table = AqTable::new();
                pipe.egress_table = AqTable::new();
                pipe.set_register_budget(Some(bytes), policy);
                for cfg in ingress {
                    let _ = pipe.deploy_ingress(cfg);
                }
                for cfg in egress {
                    let _ = pipe.deploy_egress(cfg);
                }
            }
        }
    }
}

/// Translate a scenario's churn train onto the instantiated fabric: one
/// create/destroy train per pipeline-bearing switch. Tenant AQs get a
/// tenth of the link and the physical-queue limit — small enough that a
/// burst of them fits the fabric, large enough to matter when enforced.
fn install_churn(exp: &mut Experiment, churn: PlanChurn, fabric: Fabric, seed: u64) {
    let mut plan = ChurnPlan::new(seed ^ 0xC0DE_CAFE_5EED_1234);
    let first = fault_at(churn.first_ms);
    let cadence = Duration::from_nanos((churn.cadence_us * 1000.0).round() as u64);
    let rate_bps = fabric.link.as_bps() / 10;
    for node in pipeline_switches(exp) {
        plan = plan.tenant_train(
            node,
            first,
            cadence,
            churn.ticks as u32,
            churn.base_id,
            churn.id_span,
            churn.target_live as u32,
            rate_bps,
            fabric.pq_limit,
        );
    }
    exp.sim.install_churn(plan);
}

/// Instantiate a scenario's [`BufferPlan`] on the built fabric: swap the
/// requested AQM onto every switch egress port (host uplinks keep their
/// approach-specific discipline) and install one shared-buffer pool per
/// switch, sized by the plan and guarded by its admission policy. Must
/// run before the simulator starts — the queues are still empty.
fn install_buffering(exp: &mut Experiment, bp: BufferPlan, pq_limit: u64) {
    let net = &mut exp.sim.net;
    let mut port_counts = vec![0usize; net.nodes.len()];
    for p in &net.ports {
        port_counts[p.node.index()] += 1;
    }
    let switches: Vec<NodeId> = net
        .nodes
        .iter()
        .filter(|n| matches!(n.kind, NodeKind::Switch { .. }))
        .map(|n| n.id)
        .collect();
    if bp.aqm != AqmKind::Fifo {
        for i in 0..net.ports.len() {
            let node = net.ports[i].node;
            if !matches!(net.nodes[node.index()].kind, NodeKind::Switch { .. }) {
                continue;
            }
            net.ports[i].queue = match bp.aqm {
                AqmKind::DisaggRed => Box::new(DisaggRedQueue::new(DisaggRedConfig {
                    limit_bytes: pq_limit,
                    ..DisaggRedConfig::default()
                })),
                AqmKind::L4sStep => Box::new(L4sStepQueue::new(L4sStepConfig {
                    limit_bytes: pq_limit,
                    ..L4sStepConfig::default()
                })),
                AqmKind::Fifo => unreachable!("guarded above"),
            };
        }
    }
    for node in switches {
        let policy: Box<dyn AdmissionPolicy> = match bp.admission {
            AdmissionKind::StaticPartition => Box::new(StaticPartition),
            AdmissionKind::DynamicThreshold { alpha } => Box::new(DynamicThreshold::new(alpha)),
            AdmissionKind::DelayDriven { mark_us, max_us } => Box::new(DelayDriven::new(
                Duration::from_micros(mark_us),
                Duration::from_micros(max_us),
            )),
        };
        let pool = SharedBufferPool::new(bp.pool_bytes, port_counts[node.index()], policy);
        exp.sim.install_shared_buffer(node, pool);
    }
}

fn fault_at(ms: f64) -> Time {
    Time::from_micros((ms.max(0.0) * 1000.0) as u64)
}

fn fault_for(ms: f64) -> Duration {
    Duration::from_micros((ms.max(0.0) * 1000.0) as u64)
}

/// Translate a scenario's logical faults onto the instantiated fabric:
/// "the core link" is the link behind the experiment's bottleneck port,
/// "the bottleneck switch" is every switch carrying a pipeline stage (or
/// the bottleneck port's owner when the approach deploys none), and
/// sender indices count the entities' VMs in declaration order. The fault
/// RNG seed is derived from the run seed so the corruption streams are
/// independent of the traffic RNG yet reproduce with the run.
fn translate_faults(exp: &Experiment, faults: &[PlanFault], seed: u64) -> FaultPlan {
    let net = &exp.sim.net;
    let core_link = net.ports[exp.core_port.index()].link;
    let mut plan = FaultPlan::new(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
    for f in faults {
        match *f {
            PlanFault::CoreLinkFlap {
                first_down_ms,
                flaps,
                down_ms,
                up_ms,
            } => {
                plan = plan.flap(
                    core_link,
                    fault_at(first_down_ms),
                    flaps,
                    fault_for(down_ms),
                    fault_for(up_ms),
                );
            }
            PlanFault::CoreLinkLoss {
                from_ms,
                until_ms,
                loss_ppm,
            } => {
                plan = plan.loss_window(core_link, fault_at(from_ms), fault_at(until_ms), loss_ppm);
            }
            PlanFault::AqReset { at_ms } => {
                // No pipeline state anywhere (PQ/PRL/DRL): the reboot
                // still happens, on the bottleneck switch, as a no-op.
                for node in pipeline_switches(exp) {
                    plan = plan.aq_reset(node, fault_at(at_ms));
                }
            }
            PlanFault::SenderBlackout {
                sender,
                from_ms,
                until_ms,
            } => {
                let senders: Vec<NodeId> = exp
                    .entity_vms
                    .iter()
                    .flat_map(|(_, vms)| vms.iter().copied())
                    .collect();
                let host = senders[sender % senders.len()];
                plan = plan.blackout(host, fault_at(from_ms), fault_at(until_ms));
            }
        }
    }
    plan
}

/// Run a simulator to `until` on the sharded engine with `jobs` worker
/// threads, merging shards back into one reporting simulator at the end.
/// Runs that cannot be partitioned (installed agents, a single shard,
/// zero-lookahead cross links) fall back to the reference engine, so the
/// result is well-defined — and byte-identical — for every input.
pub fn run_sharded_until(sim: Simulator, plan: &ShardPlan, jobs: usize, until: Time) -> Simulator {
    match ShardedSim::partition(sim, plan, jobs) {
        Ok(mut sharded) => {
            sharded.run_until(until);
            sharded.finish()
        }
        Err(mut sim) => {
            sim.run_until(until);
            sim
        }
    }
}

/// Run until all entities' workloads complete (or `deadline`); returns
/// per-entity completion time in seconds (`None` if unfinished).
pub fn run_workload(
    sim: &mut Simulator,
    entities: &[EntityId],
    deadline: Time,
) -> Vec<Option<f64>> {
    aq_workloads::run_until_complete(sim, entities, deadline, Duration::from_millis(10));
    entities
        .iter()
        .map(|e| sim.stats.entity_completion(*e).map(|d| d.as_secs_f64()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Summed goodput of entities 1 and 2 over `[from_ms, to_ms)`, Gbit/s.
    fn goodput(sim: &Simulator, from_ms: u64, to_ms: u64) -> f64 {
        let (from, to) = (Time::from_millis(from_ms), Time::from_millis(to_ms));
        (1..=2)
            .map(|e| aq_workloads::goodput_gbps(&sim.stats, EntityId(e), from, to))
            .sum()
    }

    fn build_fat_tree(approach: Approach, entities: &[EntitySetup], k: usize) -> Experiment {
        let run = RunPlan::FixedHorizon {
            horizon: Duration::ZERO,
        };
        let plan = ScenarioPlan {
            topology: Topology::FatTree { k },
            ..ScenarioPlan::new(entities.to_vec(), run)
        };
        build_experiment(approach, &plan, ExpConfig::default())
    }

    fn plan_of(scenario: &str, params: &str) -> ScenarioPlan {
        aq_workloads::registry::find(scenario)
            .expect("registered")
            .plan(&aq_workloads::Params::parse(params).expect("parse"))
            .expect("plan")
    }

    fn two_long_entities() -> Vec<EntitySetup> {
        vec![
            EntitySetup {
                entity: EntityId(1),
                n_vms: 1,
                cc: CcAlgo::Cubic,
                weight: 1,
                traffic: Traffic::Long {
                    n: 2,
                    kind: LongKind::Tcp,
                },
            },
            EntitySetup {
                entity: EntityId(2),
                n_vms: 1,
                cc: CcAlgo::Cubic,
                weight: 1,
                traffic: Traffic::Long {
                    n: 2,
                    kind: LongKind::Tcp,
                },
            },
        ]
    }

    #[test]
    fn all_four_approaches_build_and_run() {
        for approach in Approach::ALL {
            let mut exp = build_dumbbell(approach, &two_long_entities(), ExpConfig::default());
            exp.sim.run_until(Time::from_millis(20));
            let total = goodput(&exp.sim, 5, 20);
            assert!(
                total > 3.0,
                "{}: entities moved {} Gbps through the core",
                approach.name(),
                total
            );
        }
    }

    #[test]
    fn aq_approach_tags_flows_and_deploys_pipeline() {
        let exp = build_dumbbell(Approach::Aq, &two_long_entities(), ExpConfig::default());
        // Pipeline deployed on the left switch with two ingress AQs.
        let mut sim = exp.sim;
        let pipe = sim
            .net
            .pipeline_mut::<AqPipeline>(aq_netsim::ids::NodeId(0), 0)
            .expect("AQ pipeline on sw_left");
        assert_eq!(pipe.ingress_table.len(), 2);
    }

    #[test]
    fn all_four_approaches_build_and_run_on_a_fat_tree() {
        for approach in Approach::ALL {
            let mut exp = build_fat_tree(approach, &two_long_entities(), 4);
            assert_eq!(exp.receivers.len(), 2, "k=4: half hosts under the rx ToR");
            exp.sim.run_until(Time::from_millis(20));
            let total = goodput(&exp.sim, 5, 20);
            assert!(
                total > 3.0,
                "{}: entities moved {} Gbps across pods",
                approach.name(),
                total
            );
        }
    }

    #[test]
    fn fat_tree_aq_deploys_one_pipeline_per_sending_tor() {
        let f = DEFAULT_FABRIC;
        let exp = build_fat_tree(Approach::Aq, &two_long_entities(), 4);
        // Node numbering is deterministic: a twin topology yields the
        // same edge-switch ids as the one inside the experiment.
        let twin = fat_tree(4, f.link, f.prop, f.fifo());
        let mut sim = exp.sim;
        for tor in 0..2 {
            let pipe = sim
                .net
                .pipeline_mut::<AqPipeline>(twin.edge[tor], 0)
                .expect("AQ pipeline on the sending ToR");
            assert_eq!(pipe.ingress_table.len(), 1, "ToR {tor} polices one entity");
        }
    }

    #[test]
    fn fault_scenarios_translate_install_and_run() {
        let def = aq_workloads::registry::find("linkflap_dumbbell").expect("registered");
        let plan = def
            .plan(
                &aq_workloads::Params::parse("loss_pct=1,blackout_ms=4,horizon_ms=25")
                    .expect("parse"),
            )
            .expect("plan");
        let mut exp = build_experiment(Approach::Aq, &plan, ExpConfig::default());
        exp.sim.run_until(Time::from_millis(25));
        // 2 flaps (4 events) + loss window (2) + blackout (2) all fired.
        assert_eq!(exp.sim.fault_log().len(), 8);
        assert_eq!(exp.sim.fault_totals().injected, 8);
        // The dead core killed traffic mid-flight and the blackout cost
        // the paused sender packets.
        assert!(exp.sim.fault_totals().link_down_drops > 0, "link drops");
        assert!(exp.sim.fault_totals().pause_drops > 0, "pause drops");
        // Traffic still moves after the train ends.
        let total = goodput(&exp.sim, 20, 25);
        assert!(total > 1.0, "post-fault goodput recovered: {total}");
    }

    #[test]
    fn aq_state_loss_scenario_wipes_and_reconverges() {
        let def = aq_workloads::registry::find("aq_state_loss").expect("registered");
        let plan = def
            .plan(&aq_workloads::Params::parse("wipe_at_ms=5,horizon_ms=15").expect("parse"))
            .expect("plan");
        let mut exp = build_experiment(Approach::Aq, &plan, ExpConfig::default());
        exp.sim.run_until(Time::from_millis(15));
        let mut report = crate::report::RunReport::new("unit");
        report.capture("wipe", &mut exp.sim);
        let s = &report.sections()[0];
        assert_eq!(s.faults.injected.len(), 1);
        assert_eq!(s.faults.injected[0].kind, "aq_reset");
        for a in &s.aqs {
            assert_eq!(a.wipes, 1, "every AQ wiped once");
            assert!(
                a.reconverge_ns > 0 && a.reconverge_ns < u64::MAX,
                "AQ {} rebuilt from arrivals (reconverge_ns = {})",
                a.tag,
                a.reconverge_ns
            );
        }
    }

    #[test]
    fn tenant_churn_scenario_pressures_the_budgeted_table() {
        let def = aq_workloads::registry::find("tenant_churn").expect("registered");
        let plan = def
            .plan(&aq_workloads::Params::parse("horizon_ms=10,wipe_at_ms=6").expect("parse"))
            .expect("plan");
        let mut exp = build_experiment(Approach::Aq, &plan, ExpConfig::default());
        exp.sim.run_until(Time::from_millis(10));
        let totals = exp.sim.churn_totals();
        assert!(totals.applied > 0, "churn train fired");
        assert!(totals.creates > totals.destroys, "train holds a live set");
        let pipe = exp
            .sim
            .net
            .pipeline_mut::<AqPipeline>(aq_netsim::ids::NodeId(0), 0)
            .expect("AQ pipeline on sw_left");
        let table = &pipe.ingress_table;
        // Default budget (7 rows) fits the 3 grants; the 4–5 live churned
        // tenants keep the table at/over budget, so every steady-state
        // tick is refused at the full table.
        assert_eq!(table.budget_bytes(), Some(7 * 15));
        assert!(table.register_memory_bytes() as u64 <= 7 * 15);
        assert!(table.rejected_deploys() > 0, "steady-state budget pressure");
        for tag in 1..=3u32 {
            assert!(
                table.get(AqTag(tag)).is_some(),
                "grant {tag} survives churn"
            );
        }
    }

    #[test]
    fn tenant_churn_overload_degrades_grants_yet_traffic_completes() {
        let def = aq_workloads::registry::find("tenant_churn").expect("registered");
        for policy in 0..2u32 {
            // budget_aqs=2 < 3 grants: the boot-time re-admission parks
            // the highest-id grant, so entity 3's traffic runs degraded.
            let plan = def
                .plan(
                    &aq_workloads::Params::parse(&format!(
                        "budget_aqs=2,policy={policy},horizon_ms=10,wipe_at_ms=6"
                    ))
                    .expect("parse"),
                )
                .expect("plan");
            let mut exp = build_experiment(Approach::Aq, &plan, ExpConfig::default());
            exp.sim.run_until(Time::from_millis(10));
            {
                let pipe = exp
                    .sim
                    .net
                    .pipeline_mut::<AqPipeline>(aq_netsim::ids::NodeId(0), 0)
                    .expect("AQ pipeline on sw_left");
                assert!(pipe.ingress_table.register_memory_bytes() as u64 <= 2 * 15);
                match policy {
                    0 => {
                        // RejectNew: entity 3 stays parked; its packets are
                        // forwarded unenforced and accounted as degraded.
                        assert!(pipe.ingress_degrade.parked.contains_key(&3));
                        let row = pipe.ingress_degrade.degraded.get(&3).expect("degraded row");
                        assert!(row.pkts > 0 && row.bytes > 0, "degraded traffic accounted");
                        assert!(pipe.ingress_table.rejected_deploys() > 0);
                    }
                    _ => {
                        // EvictIdle: demand keeps swapping the three grants
                        // through the two rows — readmission thrash, but every
                        // entity's packets are enforced when its row is in.
                        assert!(pipe.ingress_table.evictions() > 0);
                        assert!(pipe.ingress_degrade.readmissions > 0);
                    }
                }
            }
            // Degraded or not, all three entities still move traffic.
            for e in [EntityId(1), EntityId(2), EntityId(3)] {
                let moved = exp.sim.stats.entity(e).map(|s| s.rx_bytes).unwrap_or(0);
                assert!(moved > 0, "policy {policy}: entity {} starved", e.0);
            }
        }
    }

    #[test]
    fn incast_sharedbuf_installs_pools_and_policies_redistribute_rejects() {
        let def = aq_workloads::registry::find("incast_sharedbuf").expect("registered");
        let mut rejects = Vec::new();
        for admission in 0..3 {
            let plan = def
                .plan(
                    &aq_workloads::Params::parse(&format!("admission={admission},horizon_ms=15"))
                        .expect("parse"),
                )
                .expect("plan");
            let mut exp = build_experiment(Approach::Pq, &plan, ExpConfig::default());
            exp.sim.run_until(Time::from_millis(15));
            let pool = exp
                .sim
                .shared_buffer(aq_netsim::ids::NodeId(0))
                .expect("pool on sw_left");
            assert!(
                exp.sim.shared_buffer(aq_netsim::ids::NodeId(1)).is_some(),
                "pool on sw_right too"
            );
            assert!(
                pool.occupancy() <= pool.capacity_bytes(),
                "occupancy bounded by capacity"
            );
            rejects.push(pool.rejects());
        }
        // The three policies must land measurably different reject totals
        // on the bottleneck switch: static partitioning starves the hot
        // core port, DT lends it most of the idle pool, delay-driven sits
        // in between (and marks instead of dropping until max_delay).
        assert!(rejects[0] > 0, "static partition rejects under incast");
        assert!(
            rejects[0] != rejects[1] && rejects[1] != rejects[2] && rejects[0] != rejects[2],
            "admission policies must redistribute drops distinctly: {rejects:?}"
        );
    }

    #[test]
    fn websearch_aqm_zoo_swaps_switch_egress_disciplines() {
        let def = aq_workloads::registry::find("websearch_aqm_zoo").expect("registered");
        for (aqm, _label) in [(1u32, "disagg_red"), (2, "l4s_step")] {
            let plan = def
                .plan(
                    &aq_workloads::Params::parse(&format!("aqm={aqm},horizon_ms=10"))
                        .expect("parse"),
                )
                .expect("plan");
            let mut exp = build_experiment(Approach::Pq, &plan, ExpConfig::default());
            // The core bottleneck port (on a switch) runs the chosen AQM.
            let core = exp.core_port;
            let swapped = match aqm {
                1 => exp.sim.net.discipline_mut::<DisaggRedQueue>(core).is_some(),
                _ => exp.sim.net.discipline_mut::<L4sStepQueue>(core).is_some(),
            };
            assert!(swapped, "aqm={aqm}: core port discipline swapped");
            // Host uplinks keep their FIFO.
            let up = exp.sim.net.host_uplink(exp.entity_vms[0].1[0]);
            assert!(
                exp.sim
                    .net
                    .discipline_mut::<aq_netsim::queue::FifoQueue>(up)
                    .is_some(),
                "host uplink keeps its FIFO"
            );
            exp.sim.run_until(Time::from_millis(10));
            assert!(
                exp.sim.shared_buffer(aq_netsim::ids::NodeId(0)).is_some(),
                "DT pool installed"
            );
        }
    }

    #[test]
    fn staggered_starts_hold_traffic_back_and_grant_on_join_redivides_the_link() {
        // Fig. 9: entity k starts at k x 100 ms; under AQ its AQ is granted
        // at that instant and everyone granted so far re-divides the link.
        let plan = plan_of("fig09_udp_tcp", "");
        for approach in Approach::ALL {
            let mut exp = build_experiment(approach, &plan, ExpConfig::default());
            exp.sim.run_until(Time::from_millis(110));
            let rx = |e: u32| exp.sim.stats.entity(EntityId(e)).map_or(0, |s| s.rx_bytes);
            assert!(
                rx(1) > 0 && rx(2) > 0,
                "{}: e1, e2 started",
                approach.name()
            );
            assert_eq!(rx(3), 0, "{}: e3 starts at 200 ms", approach.name());
        }
        let mut exp = build_experiment(Approach::Aq, &plan, ExpConfig::default());
        for (until_ms, live) in [(50, 1), (150, 2), (250, 3)] {
            exp.sim.run_until(Time::from_millis(until_ms));
            let table = &pipe_at(&mut exp.sim.net, NodeId(0)).ingress_table;
            assert_eq!(table.len(), live, "at {until_ms} ms");
            for id in 1..=live as u32 {
                let share = Rate::from_gbps(10).scaled(1, live as u64);
                let rate = table.get(AqTag(id)).map(|inst| inst.cfg.rate);
                assert_eq!(rate, Some(share), "AQ {id} of {live}");
            }
        }
    }

    #[test]
    fn a_sliced_fabric_is_a_slow_core_under_pq_and_an_aq_of_a_fast_core_under_aq() {
        // Table 4: 25 Gbit/s physical core vs a 25 Gbit/s AQ of a
        // 100 Gbit/s core, same limit and ECN threshold in both.
        let plan = plan_of("table4_cc_behavior", "cc=2");
        let cfg = |approach| ExpConfig {
            ecn_threshold: pq_ecn_for(approach, &plan.entities),
            ..ExpConfig::default()
        };
        let core_rate = |exp: &Experiment| {
            let net = &exp.sim.net;
            net.links[net.ports[exp.core_port.index()].link.index()].rate
        };
        let pq = build_experiment(Approach::Pq, &plan, cfg(Approach::Pq));
        assert_eq!(core_rate(&pq), Rate::from_gbps(25));
        let mut aq = build_experiment(Approach::Aq, &plan, cfg(Approach::Aq));
        assert_eq!(core_rate(&aq), Rate::from_gbps(100));
        let inst = (pipe_at(&mut aq.sim.net, NodeId(0)).ingress_table)
            .get(AqTag(1))
            .expect("the entity's AQ");
        assert_eq!(inst.cfg.rate, Rate::from_gbps(25));
        assert_eq!(inst.cfg.limit_bytes, 2_000_000);
        assert_eq!(
            inst.cfg.cc,
            CcPolicy::EcnBased {
                threshold_bytes: 200_000
            }
        );
    }

    #[test]
    fn the_hose_star_gives_every_vm_an_inbound_and_an_outbound_profile() {
        // Table 3: 4 VMs, 5 Gbit/s in / 5 Gbit/s out each.
        let plan = plan_of("table3_vm_profile", "");
        let hose = Rate::from_gbps(5);
        let mut aq = build_experiment(Approach::Aq, &plan, ExpConfig::default());
        assert_eq!(aq.receivers.len(), 4, "every VM is a destination");
        let switch = aq.sim.net.ports[aq.core_port.index()].node;
        let pipe = pipe_at(&mut aq.sim.net, switch);
        for table in [&pipe.ingress_table, &pipe.egress_table] {
            assert_eq!(table.len(), 4);
            assert!(table.iter().all(|inst| inst.cfg.rate == hose));
        }
        // AQ holds VM A's outbound (entity 1) and inbound (entity 2) at the
        // profile; PRL can only shape senders, so three of them overrun it.
        aq.sim.run_until(Time::from_millis(30));
        let mut prl = build_experiment(Approach::Prl, &plan, ExpConfig::default());
        for vm in prl.receivers.clone() {
            let up = prl.sim.net.host_uplink(vm);
            assert!(prl.sim.net.discipline_mut::<HtbShaper>(up).is_some());
        }
        prl.sim.run_until(Time::from_millis(30));
        let gbps = |exp: &Experiment, e| {
            aq_workloads::goodput_gbps(&exp.sim.stats, EntityId(e), Time::ZERO, exp.sim.now())
        };
        assert!(gbps(&aq, 1) <= 5.0 && gbps(&aq, 2) <= 5.0);
        assert!(gbps(&prl, 1) <= 5.0 && gbps(&prl, 2) > 7.5);
    }

    #[test]
    fn aq_limit_and_work_conservation_modes_reach_the_pipeline() {
        // §6 limit policies: 100 Mbit/s of 10 Gbit/s is 1% of 200 KB.
        for (scenario, params, limit) in [
            ("ablation_limit_policy", "policy=0", 200_000),
            ("ablation_limit_policy", "policy=1", 30_000),
            ("ablation_limit_policy", "policy=2", 2_000),
        ] {
            let plan = plan_of(scenario, params);
            let mut exp = build_experiment(Approach::Aq, &plan, ExpConfig::default());
            let table = &pipe_at(&mut exp.sim.net, NodeId(0)).ingress_table;
            let small = table.get(AqTag(1)).expect("entity 1's AQ");
            assert_eq!(small.cfg.rate, Rate::from_mbps(100), "{scenario} {params}");
            assert_eq!(small.cfg.limit_bytes, limit, "{scenario} {params}");
        }
        // §6 work conservation: entity B idles until 300 ms.
        for (scenario, params, conserves) in [
            ("ablation_work_conservation", "mode=2", false),
            ("ablation_work_conservation", "mode=0", true),
            ("ablation_work_conservation", "mode=1", true),
        ] {
            let plan = plan_of(scenario, params);
            let mut exp = build_experiment(Approach::Aq, &plan, ExpConfig::default());
            let pipe = pipe_at(&mut exp.sim.net, NodeId(0));
            let bypass = plan.aq_mode == AqMode::BypassWhenIdle;
            assert_eq!(pipe.egress_table.len(), if bypass { 2 } else { 0 });
            assert_eq!(pipe.ingress_table.len(), if bypass { 0 } else { 2 });
            exp.sim.run_until(Time::from_millis(60));
            let alone = goodput(&exp.sim, 20, 60);
            assert_eq!(
                alone > 8.0,
                conserves,
                "{scenario} {params}: A alone {alone}"
            );
        }
    }

    #[test]
    fn prl_approach_installs_shapers() {
        let exp = build_dumbbell(Approach::Prl, &two_long_entities(), ExpConfig::default());
        let mut sim = exp.sim;
        for (_, vms) in &exp.entity_vms {
            for vm in vms {
                let up = sim.net.host_uplink(*vm);
                assert!(
                    sim.net.discipline_mut::<HtbShaper>(up).is_some(),
                    "shaper on {vm}"
                );
            }
        }
    }
}
