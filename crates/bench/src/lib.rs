//! # aq-bench — experiment harnesses for every table and figure
//!
//! Each `benches/figXX_*.rs` / `benches/tableX_*.rs` target (custom
//! `harness = false`) regenerates one table or figure of the paper and
//! prints the same rows/series the paper reports; `cargo bench` therefore
//! re-runs the whole evaluation. This library holds the shared scaffolding:
//! building one of the four compared approaches (PQ, AQ, PRL, DRL) around
//! a common topology and entity description.

use aq_baselines::{Classify, ElasticSwitch, HtbShaper, VmConfig};
use aq_core::{
    AqController, AqPipeline, AqRequest, AqTable, BandwidthDemand, CcPolicy, LimitPolicy,
    OverflowPolicy, Position, PACKED_AQ_BYTES,
};
use aq_netsim::buffer::{
    AdmissionPolicy, DelayDriven, DynamicThreshold, SharedBufferPool, StaticPartition,
};
use aq_netsim::churn::ChurnPlan;
use aq_netsim::fault::FaultPlan;
use aq_netsim::ids::{EntityId, NodeId};
use aq_netsim::node::NodeKind;
use aq_netsim::packet::AqTag;
use aq_netsim::queue::{DisaggRedConfig, DisaggRedQueue, FifoConfig, L4sStepConfig, L4sStepQueue};
use aq_netsim::shard::{ShardPlan, ShardedSim};
use aq_netsim::sim::{Network, Simulator};
use aq_netsim::time::{Duration, Rate, Time};
use aq_netsim::topology::{dumbbell, fat_tree, Dumbbell};
use aq_transport::{CcAlgo, DelaySignal, FlowKind};
use aq_workloads::registry::{
    AdmissionKind, AqmKind, BufferPlan, OverflowKind, PlanAqBudget, PlanChurn, PlanFault,
    ScenarioPlan, Topology,
};
use aq_workloads::{add_flows, ensure_transport_hosts, long_flows, ClosedWorkload, WorkloadSpec};

pub mod csv;
pub mod json;
pub mod report;

// The entity/traffic description types moved to the workload layer so the
// scenario registry (`aq_workloads::registry`) can name them; re-exported
// here so every figure bench keeps importing them from `aq_bench`.
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

/// Common experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Per-link rate (every dumbbell link, including the core).
    pub link: Rate,
    /// One-way propagation per link.
    pub prop: Duration,
    /// Core physical-queue limit.
    pub pq_limit: u64,
    /// Core ECN threshold (needed whenever ECN-based CC participates).
    pub ecn_threshold: Option<u64>,
    /// Workload/jitter seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            link: Rate::from_gbps(10),
            prop: Duration::from_micros(10),
            pq_limit: 200_000,
            ecn_threshold: None,
            seed: 1,
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
    /// Right-side hosts (receivers).
    pub receivers: Vec<NodeId>,
    /// The dumbbell's core bottleneck port.
    pub core_port: aq_netsim::ids::PortId,
    /// Topology-derived shard ownership map (one shard per fat-tree pod
    /// plus a core shard; dumbbells split at the core link) for the
    /// sharded engine. Runs that cannot shard (agents installed, star
    /// topologies, zero-delay cross links) fall back to the reference
    /// engine via [`ShardedSim::partition`]'s `Err` arm.
    pub shard_plan: ShardPlan,
}

/// AQ CC policy for a transport CC algorithm, with the paper's virtual
/// ECN threshold for ECN-based CC.
pub fn cc_policy_for(cc: CcAlgo) -> CcPolicy {
    match cc {
        CcAlgo::Dctcp => CcPolicy::EcnBased {
            threshold_bytes: 30_000,
        },
        CcAlgo::Swift { .. } => CcPolicy::DelayBased,
        _ => CcPolicy::DropBased,
    }
}

/// Grant one weighted ingress AQ per entity from a controller sized to
/// the shared link. Returns the controller (whose configs still need
/// deploying into one or more pipelines) plus the per-entity tags the
/// entities' flows must be stamped with.
fn aq_control(entities: &[EntitySetup], cfg: ExpConfig) -> (AqController, Vec<(EntityId, AqTag)>) {
    let mut ctl = AqController::new(
        cfg.link,
        LimitPolicy::MatchPhysicalQueue {
            pq_limit_bytes: cfg.pq_limit,
        },
    );
    let mut tags = Vec::new();
    for e in entities {
        let grant = ctl
            .request(AqRequest {
                demand: BandwidthDemand::Weighted(e.weight),
                cc: cc_policy_for(e.cc),
                position: Position::Ingress,
                limit_override: None,
            })
            .expect("weighted grants always admit");
        tags.push((e.entity, grant.id));
    }
    (ctl, tags)
}

/// Install per-VM HTB shapers on every sending host's uplink. Entity
/// share = weight-proportional slice of one link; each VM gets
/// share/n_vms. PRL keeps the split fixed; DRL classifies by destination
/// and lets the ElasticSwitch agent retune class rates every 15 ms —
/// for DRL the VM configs that agent needs are returned.
fn install_rate_limiters(
    net: &mut Network,
    approach: Approach,
    entities: &[EntitySetup],
    entity_vms: &[(EntityId, Vec<NodeId>)],
    cfg: ExpConfig,
) -> Option<Vec<VmConfig>> {
    let total_w: u64 = entities.iter().map(|e| e.weight).sum();
    let classify = if approach == Approach::Prl {
        Classify::All
    } else {
        Classify::ByDst
    };
    let mut vm_cfgs = Vec::new();
    for (e, (_, vms)) in entities.iter().zip(entity_vms) {
        let entity_rate = cfg.link.scaled(e.weight, total_w.max(1));
        let vm_rate = entity_rate.scaled(1, e.n_vms.max(1) as u64);
        for vm in vms {
            let up = net.host_uplink(*vm);
            net.ports[up.index()].queue =
                Box::new(HtbShaper::new(classify, vm_rate, 30_000, 4_000_000));
            vm_cfgs.push(VmConfig {
                host: *vm,
                uplink: up,
                out_guarantee: vm_rate,
                // No inbound hose constraint binds in these scenarios;
                // admit up to a full link inbound.
                in_guarantee: cfg.link,
            });
        }
    }
    (approach == Approach::Drl).then_some(vm_cfgs)
}

/// Build a dumbbell experiment: each entity gets `n_vms` left-side hosts
/// (in declaration order); the right side mirrors the left and is used as
/// the destination pool by all entities.
pub fn build_dumbbell(approach: Approach, entities: &[EntitySetup], cfg: ExpConfig) -> Experiment {
    let total_vms: usize = entities.iter().map(|e| e.n_vms).sum();
    let pairs = total_vms.max(2);
    let core_fifo = FifoConfig {
        limit_bytes: cfg.pq_limit,
        ecn_threshold_bytes: cfg.ecn_threshold,
    };
    let d: Dumbbell = dumbbell(pairs, cfg.link, cfg.prop, core_fifo);
    let shard_plan = d.shard_plan();
    let mut net = d.net;

    // Assign VMs to entities in order.
    let mut entity_vms = Vec::new();
    let mut next = 0usize;
    for e in entities {
        let vms: Vec<NodeId> = d.left[next..next + e.n_vms].to_vec();
        next += e.n_vms;
        entity_vms.push((e.entity, vms));
    }
    let receivers = d.right.clone();

    // Approach-specific control plane.
    let mut tags: Vec<(EntityId, AqTag)> = Vec::new();
    let mut drl_vm_cfgs: Option<Vec<VmConfig>> = None;
    match approach {
        Approach::Pq => {}
        Approach::Aq => {
            let (ctl, granted) = aq_control(entities, cfg);
            tags = granted;
            let mut pipe = AqPipeline::new();
            ctl.deploy_all(&mut pipe);
            net.add_pipeline(d.sw_left, Box::new(pipe));
        }
        Approach::Prl | Approach::Drl => {
            drl_vm_cfgs = install_rate_limiters(&mut net, approach, entities, &entity_vms, cfg);
        }
    }
    ensure_transport_hosts(&mut net);
    let mut sim = Simulator::new(net);
    sim.set_seed(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
    if let Some(vm_cfgs) = drl_vm_cfgs {
        sim.add_agent(Box::new(ElasticSwitch::new(vm_cfgs)));
    }
    install_traffic(&mut sim, entities, &entity_vms, &receivers, &tags, cfg);
    Experiment {
        sim,
        entity_vms,
        receivers,
        core_port: d.core_port,
        shard_plan,
    }
}

/// Build a fat-tree experiment: entity `i` gets its `n_vms` hosts under
/// edge switch `i` of pod 0, and every entity sends to the shared
/// receiver pool under the first edge switch of the *last* pod — all
/// traffic crosses pods and ECMPs over the core, and the contended
/// resources are the receiver ToR downlinks. AQ pipelines sit on each
/// entity's sending ToR (each ToR polices exactly the traffic it
/// ingresses); PRL/DRL shape at the host uplinks as in the dumbbell.
pub fn build_fat_tree(
    approach: Approach,
    entities: &[EntitySetup],
    cfg: ExpConfig,
    k: usize,
) -> Experiment {
    let half = k / 2;
    assert!(
        entities.len() <= half,
        "one sending ToR per entity: at most {half} entities on a k={k} fat tree"
    );
    let fabric_fifo = FifoConfig {
        limit_bytes: cfg.pq_limit,
        ecn_threshold_bytes: cfg.ecn_threshold,
    };
    let ft = fat_tree(k, cfg.link, cfg.prop, fabric_fifo);
    let shard_plan = ft.shard_plan();
    let mut net = ft.net;

    // Hosts are pod-major, `half` per edge switch: entity i's VMs live
    // under ft.edge[i] in pod 0.
    let mut entity_vms = Vec::new();
    for (i, e) in entities.iter().enumerate() {
        assert!(e.n_vms <= half, "at most {half} hosts per ToR");
        let base = i * half;
        entity_vms.push((e.entity, ft.hosts[base..base + e.n_vms].to_vec()));
    }
    let rx_base = (k - 1) * half * half;
    let receivers: Vec<NodeId> = ft.hosts[rx_base..rx_base + half].to_vec();
    let rx_edge = ft.edge[(k - 1) * half];

    let mut tags: Vec<(EntityId, AqTag)> = Vec::new();
    let mut drl_vm_cfgs: Option<Vec<VmConfig>> = None;
    match approach {
        Approach::Pq => {}
        Approach::Aq => {
            let (ctl, granted) = aq_control(entities, cfg);
            tags = granted;
            for (i, (_, tag)) in tags.iter().enumerate() {
                let aq_cfg = ctl
                    .configs()
                    .into_iter()
                    .find(|(_, c)| c.id == *tag)
                    .expect("granted AQ has a config")
                    .1;
                let mut pipe = AqPipeline::new();
                pipe.deploy_ingress(aq_cfg);
                net.add_pipeline(ft.edge[i], Box::new(pipe));
            }
        }
        Approach::Prl | Approach::Drl => {
            drl_vm_cfgs = install_rate_limiters(&mut net, approach, entities, &entity_vms, cfg);
        }
    }
    ensure_transport_hosts(&mut net);
    // The hottest shared port: the receiver ToR's downlink to the first
    // receiver — every entity's flow toward that host crosses it.
    let core_port = net.route_set(rx_edge, receivers[0])[0];
    let mut sim = Simulator::new(net);
    sim.set_seed(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
    if let Some(vm_cfgs) = drl_vm_cfgs {
        sim.add_agent(Box::new(ElasticSwitch::new(vm_cfgs)));
    }
    install_traffic(&mut sim, entities, &entity_vms, &receivers, &tags, cfg);
    Experiment {
        sim,
        entity_vms,
        receivers,
        core_port,
        shard_plan,
    }
}

/// Build the experiment a scenario plan describes, on the topology the
/// plan names, and install the plan's faults against the instantiated
/// fabric.
pub fn build_experiment(approach: Approach, plan: &ScenarioPlan, cfg: ExpConfig) -> Experiment {
    let mut exp = match plan.topology {
        Topology::Dumbbell => build_dumbbell(approach, &plan.entities, cfg),
        Topology::FatTree { k } => build_fat_tree(approach, &plan.entities, cfg, k),
    };
    if let Some(bp) = plan.buffers {
        install_buffering(&mut exp, bp, cfg);
    }
    if !plan.faults.is_empty() {
        let faults = translate_faults(&exp, &plan.faults, cfg.seed);
        exp.sim.install_faults(faults);
    }
    if let Some(budget) = plan.aq_budget {
        install_aq_budget(&mut exp, budget);
    }
    if let Some(churn) = plan.churn {
        install_churn(&mut exp, churn, cfg);
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
fn install_churn(exp: &mut Experiment, churn: PlanChurn, cfg: ExpConfig) {
    let mut plan = ChurnPlan::new(cfg.seed ^ 0xC0DE_CAFE_5EED_1234);
    let first = fault_at(churn.first_ms);
    let cadence = Duration::from_nanos((churn.cadence_us * 1000.0).round() as u64);
    let rate_bps = cfg.link.as_bps() / 10;
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
            cfg.pq_limit,
        );
    }
    exp.sim.install_churn(plan);
}

/// Instantiate a scenario's [`BufferPlan`] on the built fabric: swap the
/// requested AQM onto every switch egress port (host uplinks keep their
/// approach-specific discipline) and install one shared-buffer pool per
/// switch, sized by the plan and guarded by its admission policy. Must
/// run before the simulator starts — the queues are still empty.
fn install_buffering(exp: &mut Experiment, bp: BufferPlan, cfg: ExpConfig) {
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
                    limit_bytes: cfg.pq_limit,
                    ..DisaggRedConfig::default()
                })),
                AqmKind::L4sStep => Box::new(L4sStepQueue::new(L4sStepConfig {
                    limit_bytes: cfg.pq_limit,
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
                let mut targets: Vec<NodeId> = net
                    .nodes
                    .iter()
                    .filter(|n| {
                        matches!(&n.kind, NodeKind::Switch { pipelines, .. } if !pipelines.is_empty())
                    })
                    .map(|n| n.id)
                    .collect();
                if targets.is_empty() {
                    // No pipeline state anywhere (PQ/PRL/DRL): the reboot
                    // still happens, on the bottleneck switch, as a no-op.
                    targets.push(net.ports[exp.core_port.index()].node);
                }
                for node in targets {
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

fn install_traffic(
    sim: &mut Simulator,
    entities: &[EntitySetup],
    entity_vms: &[(EntityId, Vec<NodeId>)],
    receivers: &[NodeId],
    tags: &[(EntityId, AqTag)],
    cfg: ExpConfig,
) {
    let mut flow_base = 1u32;
    for (e, (_, vms)) in entities.iter().zip(entity_vms) {
        let tag = tags
            .iter()
            .find(|(id, _)| *id == e.entity)
            .map(|(_, t)| *t)
            .unwrap_or(AqTag::NONE);
        let delay_signal = if e.cc.delay_based() && tag.is_some() {
            DelaySignal::VirtualDelay
        } else {
            DelaySignal::MeasuredRtt
        };
        match &e.traffic {
            Traffic::WebSearch { n_flows, load } => {
                let mut spec = WorkloadSpec::web_search(
                    e.entity,
                    vms.clone(),
                    receivers.to_vec(),
                    e.cc,
                    *n_flows,
                    *load,
                    cfg.link,
                    cfg.seed.wrapping_add(e.entity.0 as u64 * 7919),
                )
                .with_aq(tag, AqTag::NONE);
                spec.delay_signal = delay_signal;
                add_flows(&mut sim.net, spec.generate(flow_base));
                flow_base += *n_flows as u32;
            }
            Traffic::WebSearchClosed {
                n_flows,
                size_scale,
            } => {
                // Every entity replays the *same* trace (same seed): the
                // paper's entities "both run the web search trace", and a
                // shared flow list is what makes completion times
                // comparable under a heavy-tailed size distribution.
                let mut spec = ClosedWorkload::web_search(
                    e.entity,
                    vms.clone(),
                    receivers.to_vec(),
                    e.cc,
                    *n_flows,
                    cfg.seed,
                )
                .with_size_scale(*size_scale)
                .with_aq(tag, AqTag::NONE);
                spec.delay_signal = delay_signal;
                add_flows(&mut sim.net, spec.generate(flow_base));
                flow_base += *n_flows as u32;
            }
            Traffic::Long { n, kind } => {
                let pairs: Vec<(NodeId, NodeId)> = vms
                    .iter()
                    .enumerate()
                    .map(|(i, vm)| (*vm, receivers[i % receivers.len()]))
                    .collect();
                let fk = match kind {
                    LongKind::Tcp => FlowKind::Tcp(e.cc),
                    LongKind::Udp(rate) => FlowKind::Udp { rate: *rate },
                };
                add_flows(
                    &mut sim.net,
                    long_flows(
                        e.entity,
                        &pairs,
                        *n,
                        fk,
                        tag,
                        AqTag::NONE,
                        delay_signal,
                        flow_base,
                    ),
                );
                flow_base += *n as u32;
            }
        }
    }
}

/// Steady-state goodput of an entity in Gbit/s over `[warmup, until)`.
pub fn steady_goodput(sim: &Simulator, e: EntityId, warmup: Time, until: Time) -> f64 {
    aq_workloads::goodput_gbps(&sim.stats, e, warmup, until)
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
            let total: f64 = [EntityId(1), EntityId(2)]
                .iter()
                .map(|e| steady_goodput(&exp.sim, *e, Time::from_millis(5), Time::from_millis(20)))
                .sum();
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
            let mut exp = build_fat_tree(approach, &two_long_entities(), ExpConfig::default(), 4);
            assert_eq!(exp.receivers.len(), 2, "k=4: half hosts under the rx ToR");
            exp.sim.run_until(Time::from_millis(20));
            let total: f64 = [EntityId(1), EntityId(2)]
                .iter()
                .map(|e| steady_goodput(&exp.sim, *e, Time::from_millis(5), Time::from_millis(20)))
                .sum();
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
        let cfg = ExpConfig::default();
        let exp = build_fat_tree(Approach::Aq, &two_long_entities(), cfg, 4);
        // Node numbering is deterministic: a twin topology yields the
        // same edge-switch ids as the one inside the experiment.
        let twin = fat_tree(
            4,
            cfg.link,
            cfg.prop,
            FifoConfig {
                limit_bytes: cfg.pq_limit,
                ecn_threshold_bytes: cfg.ecn_threshold,
            },
        );
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
        let total: f64 = [EntityId(1), EntityId(2)]
            .iter()
            .map(|e| steady_goodput(&exp.sim, *e, Time::from_millis(20), Time::from_millis(25)))
            .sum();
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
