//! Named, parameterized scenario registry.
//!
//! The sweep harness (`aq-harness`) needs to enumerate experiment
//! scenarios *by name* and instantiate them over a parameter grid — the
//! same way the paper's figures are trends over `(scenario × parameter ×
//! seed)` points rather than single runs. This module holds the
//! experiment-description vocabulary of the one run path (`registry` →
//! `aq_bench::build_experiment` → `aq_harness::sweep::execute_run`):
//!
//! * [`EntitySetup`] / [`Traffic`] / [`LongKind`] — what each entity
//!   sends (moved here from `aq-bench` so scenario descriptions live with
//!   the workload layer; `aq-bench` re-exports them);
//! * [`Params`] — a named `f64` parameter assignment with a canonical,
//!   deterministic string rendering used as a stable sweep key;
//! * [`ScenarioDef`] — a named blueprint mapping resolved parameters to
//!   entity setups plus a [`RunPlan`];
//! * [`registry`] / [`find`] — the enumerable table of blueprints.
//!
//! A plan describes the workload, the fabric and how the AQ control plane
//! is configured when AQ is the approach; *which* sharing approach
//! (PQ/AQ/PRL/DRL) wraps it is the caller's axis
//! (`aq_bench::build_experiment` takes an approach and an `ExpConfig`
//! alongside the plan).

use aq_netsim::ids::EntityId;
use aq_netsim::time::{Duration, Rate};
use aq_transport::CcAlgo;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What an entity sends.
#[derive(Debug, Clone)]
pub enum Traffic {
    /// Open-loop web-search flows: `n_flows` Poisson arrivals at `load`
    /// of the bottleneck.
    WebSearch {
        /// Number of flows.
        n_flows: usize,
        /// Offered load fraction of the bottleneck capacity.
        load: f64,
    },
    /// Closed-loop web-search replay: `n_flows` dealt round-robin to the
    /// entity's VMs, each VM running its list back to back (the paper's
    /// per-VM trace-replay model for Figs. 6/7/10).
    WebSearchClosed {
        /// Total flows across the entity's VMs.
        n_flows: usize,
        /// Flow-size multiplier (bandwidth-boundedness knob).
        size_scale: f64,
    },
    /// `n` long-lived flows (TCP of the entity's CC, or UDP at `rate`).
    Long {
        /// Flow count.
        n: usize,
        /// TCP (entity CC) or UDP.
        kind: LongKind,
    },
}

/// Long-lived flow kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LongKind {
    /// TCP under the entity's CC algorithm.
    Tcp,
    /// UDP at the given rate.
    Udp(Rate),
}

/// One entity in an experiment.
#[derive(Debug, Clone)]
pub struct EntitySetup {
    /// Entity id (must be unique and nonzero).
    pub entity: EntityId,
    /// Number of sending VMs (left-side hosts) the entity owns.
    pub n_vms: usize,
    /// Congestion control used by all the entity's TCP flows.
    pub cc: CcAlgo,
    /// Network weight (weighted AQ mode; PRL/DRL derive even splits).
    pub weight: u64,
    /// What the entity sends.
    pub traffic: Traffic,
}

/// How long to drive a scenario instance.
#[derive(Debug, Clone, Copy)]
pub enum RunPlan {
    /// Run long-lived traffic for a fixed horizon and measure rates.
    FixedHorizon {
        /// Simulated run length.
        horizon: Duration,
    },
    /// Run until every entity's sized workload completes (or `deadline`),
    /// and measure completion times.
    UntilComplete {
        /// Give-up point; unfinished entities report no completion.
        deadline: Duration,
    },
}

/// Physical fabric a scenario instance runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Host-pair dumbbell with a single shared core bottleneck
    Dumbbell,
    /// k-ary ECMP fat tree; entities sit in the first pod (one edge
    /// switch each) and send to a shared remote pod, so the contention is
    /// cross-pod and spread over the core paths.
    FatTree {
        /// Fat-tree arity (even, ≥ 2; `k = 4` is 16 hosts).
        k: usize,
    },
    /// Single-switch star of the entities' VMs under the hose model
    /// (Fig. 2 / Table 3): every VM holds a `hose` inbound and outbound
    /// bandwidth profile, and each entity sends from its own VMs to
    /// everyone else's. PRL shapes every uplink at the profile, DRL
    /// re-partitions within it, AQ meters each packet by its source VM's
    /// ingress AQ and its destination VM's egress AQ.
    Star {
        /// Per-VM inbound and outbound profile.
        hose: Rate,
    },
}

/// A fault to inject, described against the scenario's *logical* topology
/// (the bench layer translates it to concrete link/node ids when it
/// instantiates the fabric, and derives the fault RNG seed from the run
/// seed so the whole run stays deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanFault {
    /// Flap the shared bottleneck link: `flaps` down/up cycles starting at
    /// `first_down_ms`, each `down_ms` dark then `up_ms` lit.
    CoreLinkFlap {
        /// When the first down edge fires (simulated ms).
        first_down_ms: f64,
        /// Number of down/up cycles.
        flaps: u32,
        /// Dark interval per cycle (simulated ms).
        down_ms: f64,
        /// Lit interval between cycles (simulated ms).
        up_ms: f64,
    },
    /// Corrupt packets on the shared bottleneck link with the given
    /// probability over `[from_ms, until_ms)`.
    CoreLinkLoss {
        /// Window start (simulated ms).
        from_ms: f64,
        /// Window end (simulated ms).
        until_ms: f64,
        /// Corruption probability in parts per million.
        loss_ppm: u32,
    },
    /// Wipe the AQ tables of the bottleneck switch at `at_ms` (switch
    /// reboot: configs survive via controller re-deploy, dynamic state is
    /// rebuilt from subsequent arrivals).
    AqReset {
        /// Wipe instant (simulated ms).
        at_ms: f64,
    },
    /// Black out one sending host over `[from_ms, until_ms)`: its NIC
    /// drops all traffic in both directions while timers keep firing, so
    /// the transport rides RTO backoff through the outage.
    SenderBlackout {
        /// Index into the scenario's sender hosts (VM order).
        sender: usize,
        /// Blackout start (simulated ms).
        from_ms: f64,
        /// Blackout end (simulated ms).
        until_ms: f64,
    },
}

/// Which admission policy guards a scenario's per-switch shared-buffer
/// pools (the bench layer maps these onto
/// `aq_netsim::buffer::AdmissionPolicy` implementations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionKind {
    /// Static per-port partition — today's reference behavior.
    StaticPartition,
    /// Classic dynamic threshold: admit while the port holds less than
    /// `alpha ×` the free pool space.
    DynamicThreshold {
        /// DT alpha.
        alpha: f64,
    },
    /// BShare-style delay-driven admission: mark/reject by the projected
    /// queueing delay of the arriving packet.
    DelayDriven {
        /// Projected delay at/above which admitted packets are CE-marked
        /// (µs).
        mark_us: u64,
        /// Projected delay above which packets are rejected (µs).
        max_us: u64,
    },
}

/// Which queue discipline a scenario runs on switch egress ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AqmKind {
    /// Taildrop FIFO with optional ECN threshold — the default fabric.
    Fifo,
    /// iRED-style disaggregated RED (split decide/act stages).
    DisaggRed,
    /// L4S-style step/ramp marking.
    L4sStep,
}

/// The shared-buffer layer a scenario instantiates on every switch: one
/// pool per switch, guarded by an admission policy, with a chosen AQM on
/// the switch egress ports. `None` on a [`ScenarioPlan`] keeps the
/// classic per-port-FIFO fabric with no pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferPlan {
    /// Pool capacity per switch (bytes, shared by all its ports).
    pub pool_bytes: u64,
    /// Admission policy consulted on every switch enqueue.
    pub admission: AdmissionKind,
    /// Queue discipline on switch egress ports.
    pub aqm: AqmKind,
}

/// Overflow policy for a scenario's bounded AQ tables (mirrors
/// `aq_core::OverflowPolicy`; the bench layer maps it across so the
/// workload crate stays free of the core dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowKind {
    /// Refuse deploys at budget; the refused flow degrades to
    /// physical-queue behavior.
    RejectNew,
    /// Evict the longest-idle AQ to admit new demand.
    EvictIdle,
}

/// A register-memory budget on every AQ-bearing switch table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanAqBudget {
    /// Budget expressed in AQ rows (15 packed bytes each).
    pub aqs: usize,
    /// What a deploy at budget does.
    pub policy: OverflowKind,
}

/// A control-plane tenant-churn train against the bottleneck switch: a
/// create every `cadence_us`, cycling ids through
/// `[base_id, base_id + id_span)`, destroying the oldest tenant once
/// `target_live` are up — so live control-plane demand holds at
/// `target_live`/`target_live + 1` for the rest of the run (the bench
/// layer translates this to an `aq_netsim::churn::ChurnPlan`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanChurn {
    /// First create instant (simulated ms).
    pub first_ms: f64,
    /// Tick cadence (simulated µs).
    pub cadence_us: f64,
    /// Number of create ticks.
    pub ticks: usize,
    /// First tenant AQ id (chosen above the entity-grant id range).
    pub base_id: u32,
    /// Ids cycle modulo this span.
    pub id_span: u32,
    /// Steady-state live tenant count.
    pub target_live: usize,
}

/// A scenario's own fabric, where it differs from `aq_bench`'s default
/// one (10 Gbit/s links, 10 µs propagation, 200 KB physical queues).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricPlan {
    /// Rate of every link.
    pub link: Rate,
    /// One-way propagation per link.
    pub prop: Duration,
    /// Physical-queue limit of the contended ports (bytes).
    pub pq_limit: u64,
    /// ECN threshold wherever ECN-based CC runs: the physical queue's
    /// under PQ/PRL/DRL, the AQs' virtual one under AQ (bytes).
    pub ecn_k: u64,
    /// Table 4's environment pair: the entities share `slice` of the
    /// fabric. Under PQ/PRL/DRL the dumbbell core *is* a `slice`-rate
    /// link; under AQ the core runs at `link` rate and the controller
    /// divides `slice` among the entities' AQs.
    pub slice: Option<Rate>,
}

/// How the AQ controller sets AQ limits (mirrors `aq_core::LimitPolicy`,
/// the two §6 policies; the physical-queue limit comes from the fabric).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LimitKind {
    /// Every AQ gets the physical queue's limit.
    #[default]
    MatchPhysicalQueue,
    /// The physical queue's limit divided by allocated bandwidth, never
    /// below `min_bytes`.
    ProportionalShare {
        /// Floor on any AQ's limit (bytes).
        min_bytes: u64,
    },
}

/// What the AQ control plane does with bandwidth an entity is not using.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AqMode {
    /// Every entity's AQ is deployed at setup at its weighted share of the
    /// link and stays there (the paper's strict, non-work-conserving AQ).
    #[default]
    Strict,
    /// §6 mechanism 1: egress-position AQs that let traffic bypass them
    /// while the physical queue is empty.
    BypassWhenIdle,
    /// §6 mechanism 2: a controller re-divides the link by measured demand
    /// every 10 ms, never below an active entity's weighted share.
    Reallocate,
    /// Fig. 9: an entity's AQ is granted when the entity starts, and the
    /// link is re-divided by weight across the entities granted so far.
    GrantOnJoin,
}

/// A fully-resolved scenario instance: the entities plus the run plan.
#[derive(Debug, Clone)]
pub struct ScenarioPlan {
    /// Entity descriptions, in entity-id order.
    pub entities: Vec<EntitySetup>,
    /// How long to run.
    pub run: RunPlan,
    /// Fabric to instantiate.
    pub topology: Topology,
    /// Faults to inject (empty for fault-free scenarios).
    pub faults: Vec<PlanFault>,
    /// Shared-buffer/AQM layer (`None` = classic per-port FIFOs).
    pub buffers: Option<BufferPlan>,
    /// Tenant create/destroy churn train (`None` = static control plane).
    pub churn: Option<PlanChurn>,
    /// AQ-table register budget (`None` = unbounded tables).
    pub aq_budget: Option<PlanAqBudget>,
    /// When each entity's traffic starts, in entity order (empty = all at
    /// time zero). A staggered plan also distills per-phase goodputs.
    pub starts: Vec<Duration>,
    /// Link rates and queue limits (`None` = `aq_bench`'s default fabric).
    pub fabric: Option<FabricPlan>,
    /// AQ-limit policy under the AQ approach.
    pub aq_limit: LimitKind,
    /// Work-conservation mode under the AQ approach.
    pub aq_mode: AqMode,
}

impl ScenarioPlan {
    /// `entities` driven per `run` on the default dumbbell: no faults, no
    /// shared buffers, no churn, unbounded tables, everyone starts at
    /// time zero, strict AQs with the physical queue's limit.
    pub fn new(entities: Vec<EntitySetup>, run: RunPlan) -> ScenarioPlan {
        ScenarioPlan {
            entities,
            run,
            topology: Topology::Dumbbell,
            faults: vec![],
            buffers: None,
            churn: None,
            aq_budget: None,
            starts: vec![],
            fabric: None,
            aq_limit: LimitKind::default(),
            aq_mode: AqMode::default(),
        }
    }
}

/// One named parameter with its default value.
#[derive(Debug, Clone, Copy)]
pub struct ParamDef {
    /// Parameter name as used in grids and canonical keys.
    pub name: &'static str,
    /// Value used when a sweep does not override the parameter.
    pub default: f64,
    /// One-line description.
    pub help: &'static str,
}

/// A named `f64` parameter assignment.
///
/// Keys iterate in `BTreeMap` order, so [`canonical`] renders the same
/// string for the same assignment regardless of insertion order — the
/// property the sweep harness relies on for stable run keys and
/// byte-identical merged output.
///
/// [`canonical`]: Params::canonical
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params(BTreeMap<String, f64>);

impl Params {
    /// An empty assignment.
    pub fn new() -> Params {
        Params(BTreeMap::new())
    }

    /// Set one parameter (overwrites).
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Look up one parameter.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Look up one parameter and round it to a count.
    pub fn get_usize(&self, name: &str) -> Option<usize> {
        self.get(name).map(|v| v.max(0.0).round() as usize)
    }

    /// A resolved parameter, as the scenario builders read it. Builders
    /// only ever see [`ScenarioDef::resolve`]d assignments, which carry
    /// every declared name — so a miss means the builder reads a name its
    /// `params` list does not declare, and that is a registry bug.
    fn val(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("registry bug: builder reads undeclared parameter `{name}`"))
    }

    /// [`val`](Params::val) rounded to a count.
    fn count(&self, name: &str) -> usize {
        self.val(name).max(0.0).round() as usize
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Canonical `name=value` rendering, comma-separated, name-sorted.
    /// Integral values print without a fraction (`vms=4`), others with
    /// fixed precision (`load=0.8000`), so the string is deterministic.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}={}", fmt_param(*v));
        }
        out
    }

    /// Parse a `name=value[,name=value...]` assignment (the inverse of
    /// [`canonical`](Params::canonical); an empty string is an empty
    /// assignment).
    pub fn parse(text: &str) -> Result<Params, String> {
        let mut p = Params::new();
        for part in text.split(',').filter(|s| !s.trim().is_empty()) {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("bad parameter `{part}` (expected name=value)"))?;
            let value: f64 = v
                .trim()
                .parse()
                .map_err(|_| format!("bad value in `{part}`"))?;
            if !value.is_finite() {
                return Err(format!("non-finite value in `{part}`"));
            }
            p.set(k.trim(), value);
        }
        Ok(p)
    }
}

/// Deterministic parameter-value formatting: integers bare, fractions at
/// fixed precision. A fraction that rounds away at that precision
/// (`2.99999999`) renders as the integer it rounds to, so the rendering
/// parses back to a value that renders the same.
fn fmt_param(v: f64) -> String {
    let t = v.trunc();
    if (v - t).abs() < 1e-9 {
        return format!("{}", t as i64);
    }
    let fixed = format!("{v:.4}");
    if fixed.ends_with(".0000") {
        fmt_param(v.round())
    } else {
        fixed
    }
}

/// A named scenario blueprint.
pub struct ScenarioDef {
    /// Registry name (also the sweep key prefix).
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Parameters the blueprint understands, with defaults.
    pub params: &'static [ParamDef],
    /// Build the plan from a *resolved* parameter set (all params
    /// present). Use [`ScenarioDef::resolve`] first.
    pub build: fn(&Params) -> ScenarioPlan,
}

impl ScenarioDef {
    /// Merge `overrides` over the blueprint defaults. Unknown parameter
    /// names are an error, so grid typos cannot silently no-op.
    pub fn resolve(&self, overrides: &Params) -> Result<Params, String> {
        for (name, _) in overrides.iter() {
            if !self.params.iter().any(|p| p.name == name) {
                return Err(format!(
                    "scenario `{}` has no parameter `{name}` (has: {})",
                    self.name,
                    self.params
                        .iter()
                        .map(|p| p.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        let mut resolved = Params::new();
        for p in self.params {
            resolved.set(p.name, overrides.get(p.name).unwrap_or(p.default));
        }
        Ok(resolved)
    }

    /// Resolve and build in one step.
    pub fn plan(&self, overrides: &Params) -> Result<ScenarioPlan, String> {
        Ok((self.build)(&self.resolve(overrides)?))
    }
}

impl std::fmt::Debug for ScenarioDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioDef")
            .field("name", &self.name)
            .field("summary", &self.summary)
            .finish_non_exhaustive()
    }
}

fn ms(v: f64) -> Duration {
    Duration::from_micros((v.max(0.0) * 1000.0) as u64)
}

/// The Swift configuration of every mixed-CC scenario: a 50 µs target
/// queuing delay (the paper's Fig. 10 setting).
const SWIFT: CcAlgo = CcAlgo::Swift {
    target: Duration::from_micros(50),
};

fn entity(id: u32, n_vms: usize, cc: CcAlgo, weight: u64, traffic: Traffic) -> EntitySetup {
    EntitySetup {
        entity: EntityId(id),
        n_vms,
        cc,
        weight,
        traffic,
    }
}

/// One single-VM, weight-1 entity per `(flows, cc, kind)` row, all
/// long-lived, for `horizon_ms` — Fig. 1 and Table 2.
fn long_mix(rows: &[(usize, CcAlgo, LongKind)], horizon_ms: f64) -> ScenarioPlan {
    let entities = (1..)
        .zip(rows)
        .map(|(id, &(n, cc, kind))| entity(id, 1, cc, 1, Traffic::Long { n, kind }))
        .collect();
    ScenarioPlan::new(
        entities,
        RunPlan::FixedHorizon {
            horizon: ms(horizon_ms),
        },
    )
}

/// One weight-1 entity per `(vms, cc)` row, each replaying the closed
/// web-search trace — Figs. 6, 7 and 10.
fn closed_trace(
    rows: &[(usize, CcAlgo)],
    n_flows: usize,
    size_scale: f64,
    deadline_ms: f64,
) -> ScenarioPlan {
    let trace = Traffic::WebSearchClosed {
        n_flows,
        size_scale,
    };
    let entities = (1..)
        .zip(rows)
        .map(|(id, &(vms, cc))| entity(id, vms, cc, 1, trace.clone()))
        .collect();
    ScenarioPlan::new(
        entities,
        RunPlan::UntilComplete {
            deadline: ms(deadline_ms),
        },
    )
}

/// The paper-scale closed trace of Figs. 6, 7 and 10: 64 flows of 8× the
/// web-search sizes per entity, 20 s to finish.
fn paper_trace(rows: &[(usize, CcAlgo)]) -> ScenarioPlan {
    closed_trace(rows, 64, 8.0, 20_000.0)
}

/// Entity A with one long CUBIC flow against entity B with `b_flows`, at
/// weights `1 : b_weight` — Fig. 8.
fn one_vs_many(b_flows: usize, b_weight: u64, horizon_ms: f64) -> ScenarioPlan {
    let long = |n| Traffic::Long {
        n,
        kind: LongKind::Tcp,
    };
    ScenarioPlan::new(
        vec![
            entity(1, 1, CcAlgo::Cubic, 1, long(1)),
            entity(2, 1, CcAlgo::Cubic, b_weight, long(b_flows.max(1))),
        ],
        RunPlan::FixedHorizon {
            horizon: ms(horizon_ms),
        },
    )
}

/// Two single-VM CUBIC entities with `n_flows` long flows each.
fn two_equal_long(n_flows: usize, horizon_ms: f64) -> ScenarioPlan {
    let tcp = LongKind::Tcp;
    long_mix(&[(n_flows.max(1), CcAlgo::Cubic, tcp); 2], horizon_ms)
}

fn fairness_flows(p: &Params) -> ScenarioPlan {
    one_vs_many(p.count("b_flows"), 1, p.val("horizon_ms"))
}

fn fig08_flow_count_isolation(p: &Params) -> ScenarioPlan {
    one_vs_many(p.count("b_flows"), p.count("b_weight").max(1) as u64, 500.0)
}

fn completion_vms(p: &Params) -> ScenarioPlan {
    closed_trace(
        &[(p.count("vms").max(1), CcAlgo::Cubic); 2],
        p.count("n_flows").max(1),
        p.val("size_scale"),
        p.val("deadline_ms"),
    )
}

fn fig06_completion_vs_vms(p: &Params) -> ScenarioPlan {
    paper_trace(&[(p.count("vms").max(1), CcAlgo::Cubic)])
}

fn fig07_entity_fairness(p: &Params) -> ScenarioPlan {
    paper_trace(&[(1, CcAlgo::Cubic), (p.count("b_vms").max(1), CcAlgo::Cubic)])
}

fn fig10_cc_fairness(p: &Params) -> ScenarioPlan {
    let (a, b) = match p.count("pair") {
        0 => (CcAlgo::Cubic, CcAlgo::Dctcp),
        1 => (CcAlgo::NewReno, CcAlgo::Dctcp),
        _ => (CcAlgo::Cubic, SWIFT),
    };
    paper_trace(&[(4, a), (4, b)])
}

fn cc_mix(p: &Params) -> ScenarioPlan {
    // `pair` selects which CC algorithms compete (Fig. 10's axes):
    // 0 = CUBIC vs DCTCP, 1 = DCTCP vs Swift, 2 = CUBIC vs Swift.
    let (a, b) = match p.count("pair") {
        0 => (CcAlgo::Cubic, CcAlgo::Dctcp),
        1 => (CcAlgo::Dctcp, SWIFT),
        _ => (CcAlgo::Cubic, SWIFT),
    };
    closed_trace(
        &[(1, a), (1, b)],
        p.count("n_flows").max(1),
        p.val("size_scale"),
        p.val("deadline_ms"),
    )
}

fn udp_tcp_share(p: &Params) -> ScenarioPlan {
    let udp = LongKind::Udp(Rate::from_gbps(p.count("udp_gbps").max(1) as u64));
    long_mix(
        &[
            (1, CcAlgo::Cubic, udp),
            (p.count("tcp_flows").max(1), CcAlgo::Cubic, LongKind::Tcp),
        ],
        p.val("horizon_ms"),
    )
}

fn fig01_cc_interference(p: &Params) -> ScenarioPlan {
    // Pairs 0-4 cross two of the paper's CC classes (drop-, ECN- and
    // delay-based); pair 5 is the same-class control.
    let (a, b) = match p.count("pair") {
        0 => (CcAlgo::Cubic, CcAlgo::Dctcp),
        1 => (CcAlgo::NewReno, CcAlgo::Dctcp),
        2 => (CcAlgo::Cubic, SWIFT),
        3 => (CcAlgo::Dctcp, SWIFT),
        5 => (CcAlgo::Cubic, CcAlgo::NewReno),
        _ => (CcAlgo::NewReno, SWIFT),
    };
    long_mix(&[(10, a, LongKind::Tcp), (10, b, LongKind::Tcp)], 400.0)
}

fn table2_cc_sharing(p: &Params) -> ScenarioPlan {
    use CcAlgo::{Cubic, Dctcp, Illinois, NewReno};
    let tcp = LongKind::Tcp;
    let rows: &[(usize, CcAlgo, LongKind)] = match p.count("row") {
        0 => &[(5, Cubic, tcp), (5, Dctcp, tcp)],
        1 => &[(5, NewReno, tcp), (5, Dctcp, tcp)],
        2 => &[(5, Illinois, tcp), (5, Dctcp, tcp)],
        3 => &[(5, Cubic, tcp), (5, SWIFT, tcp)],
        4 => &[(5, Dctcp, tcp), (5, SWIFT, tcp)],
        5 => &[(10, Dctcp, tcp), (5, NewReno, tcp)],
        6 => &[(10, Dctcp, tcp), (5, SWIFT, tcp)],
        8 => &[(5, Cubic, tcp); 2],
        _ => &[
            (1, Cubic, LongKind::Udp(Rate::from_gbps(10))),
            (3, Cubic, tcp),
            (3, Dctcp, tcp),
            (3, SWIFT, tcp),
        ],
    };
    long_mix(rows, 1500.0)
}

fn fig09_udp_tcp(_: &Params) -> ScenarioPlan {
    let udp = LongKind::Udp(Rate::from_gbps(10));
    let tcp = (4, CcAlgo::Cubic, LongKind::Tcp);
    ScenarioPlan {
        starts: (0..5).map(|k| ms(k as f64 * 100.0)).collect(),
        aq_mode: AqMode::GrantOnJoin,
        ..long_mix(&[tcp, tcp, (1, CcAlgo::Cubic, udp), tcp, tcp], 700.0)
    }
}

fn table3_vm_profile(_: &Params) -> ScenarioPlan {
    // VM A (entity 1) sends to B, C, D; B, C, D (entity 2) send to A. Both
    // directions offer a full line of web-search traffic, so the enforced
    // rate, not the demand, is what each approach reveals.
    let line_rate = Traffic::WebSearch {
        n_flows: 3000,
        load: 1.0,
    };
    ScenarioPlan {
        topology: Topology::Star {
            hose: Rate::from_gbps(5),
        },
        fabric: Some(FabricPlan {
            link: Rate::from_gbps(25),
            prop: Duration::from_micros(5),
            pq_limit: 400_000,
            ecn_k: 65_000,
            slice: None,
        }),
        ..ScenarioPlan::new(
            vec![
                entity(1, 1, CcAlgo::Cubic, 1, line_rate.clone()),
                entity(2, 3, CcAlgo::Cubic, 1, line_rate),
            ],
            RunPlan::FixedHorizon { horizon: ms(600.0) },
        )
    }
}

fn table4_cc_behavior(p: &Params) -> ScenarioPlan {
    let cc = match p.count("cc") {
        0 => CcAlgo::Cubic,
        1 => CcAlgo::NewReno,
        _ => CcAlgo::Dctcp,
    };
    ScenarioPlan {
        fabric: Some(FabricPlan {
            link: Rate::from_gbps(100),
            prop: Duration::from_micros(10),
            pq_limit: 2_000_000,
            ecn_k: 200_000,
            slice: Some(Rate::from_gbps(25)),
        }),
        ..long_mix(&[(8, cc, LongKind::Tcp)], 400.0)
    }
}

/// A 100 Mbit/s entity beside a 9.9 Gbit/s one (weights 1 : 99 of the
/// 10 Gbit/s core) under the given AQ-limit policy — the §6 ablation.
fn limit_ablation(aq_limit: LimitKind) -> ScenarioPlan {
    let long = |n| Traffic::Long {
        n,
        kind: LongKind::Tcp,
    };
    ScenarioPlan {
        aq_limit,
        ..ScenarioPlan::new(
            vec![
                entity(1, 1, CcAlgo::Cubic, 1, long(2)),
                entity(2, 1, CcAlgo::Cubic, 99, long(5)),
            ],
            RunPlan::FixedHorizon { horizon: ms(400.0) },
        )
    }
}

fn ablation_limit_policy(p: &Params) -> ScenarioPlan {
    limit_ablation(match p.count("policy") {
        0 => LimitKind::MatchPhysicalQueue,
        2 => LimitKind::ProportionalShare { min_bytes: 0 },
        _ => LimitKind::ProportionalShare { min_bytes: 30_000 },
    })
}

/// Entity A active throughout, equal-weight entity B idle until 300 ms of
/// 600 — the §6 work-conservation ablation.
fn conservation_ablation(aq_mode: AqMode) -> ScenarioPlan {
    ScenarioPlan {
        starts: vec![Duration::ZERO, ms(300.0)],
        aq_mode,
        ..two_equal_long(4, 600.0)
    }
}

fn ablation_work_conservation(p: &Params) -> ScenarioPlan {
    conservation_ablation(match p.count("mode") {
        0 => AqMode::BypassWhenIdle,
        2 => AqMode::Strict,
        _ => AqMode::Reallocate,
    })
}

fn interpod_fattree(p: &Params) -> ScenarioPlan {
    let long = |n: usize| Traffic::Long {
        n: n.max(1),
        kind: LongKind::Tcp,
    };
    ScenarioPlan {
        topology: Topology::FatTree { k: 4 },
        ..ScenarioPlan::new(
            vec![
                entity(1, 2, CcAlgo::Cubic, 1, long(p.count("a_flows"))),
                entity(2, 2, CcAlgo::Cubic, 1, long(p.count("b_flows"))),
            ],
            RunPlan::FixedHorizon {
                horizon: ms(p.val("horizon_ms")),
            },
        )
    }
}

fn linkflap_dumbbell(p: &Params) -> ScenarioPlan {
    let flap_at = p.val("flap_at_ms").max(0.0);
    let flaps = p.count("flaps").max(1) as u32;
    let down_ms = p.val("down_ms").max(0.0);
    let up_ms = p.val("up_ms").max(0.0);
    let loss_pct = p.val("loss_pct").clamp(0.0, 100.0);
    let blackout_ms = p.val("blackout_ms").max(0.0);
    let horizon_ms = p.val("horizon_ms");
    let mut faults = vec![PlanFault::CoreLinkFlap {
        first_down_ms: flap_at,
        flaps,
        down_ms,
        up_ms,
    }];
    if loss_pct > 0.0 {
        // The corruption window opens once the flap train ends, so the
        // recovering senders also ride a lossy core (1% = 10_000 ppm).
        faults.push(PlanFault::CoreLinkLoss {
            from_ms: flap_at + flaps as f64 * (down_ms + up_ms),
            until_ms: horizon_ms,
            loss_ppm: (loss_pct * 10_000.0).round() as u32,
        });
    }
    if blackout_ms > 0.0 {
        // Entity 1's (only) sender goes dark alongside the first flap,
        // exercising multi-RTO backoff and recovery.
        faults.push(PlanFault::SenderBlackout {
            sender: 0,
            from_ms: flap_at,
            until_ms: flap_at + blackout_ms,
        });
    }
    ScenarioPlan {
        faults,
        ..two_equal_long(p.count("n_flows"), horizon_ms)
    }
}

fn aq_state_loss(p: &Params) -> ScenarioPlan {
    ScenarioPlan {
        faults: vec![PlanFault::AqReset {
            at_ms: p.val("wipe_at_ms").max(0.0),
        }],
        ..two_equal_long(p.count("n_flows"), p.val("horizon_ms"))
    }
}

fn tenant_churn(p: &Params) -> ScenarioPlan {
    let traffic = Traffic::WebSearch {
        n_flows: p.count("n_flows").max(1),
        load: p.val("load").clamp(0.01, 1.0),
    };
    let policy = match p.count("policy") {
        0 => OverflowKind::RejectNew,
        _ => OverflowKind::EvictIdle,
    };
    let target = p.count("churn_aqs").max(1);
    let cadence_us = p.val("churn_cadence_us").max(1.0);
    let first_ms = p.val("churn_start_ms").max(0.0);
    let horizon_ms = p.val("horizon_ms");
    let wipe_at = p.val("wipe_at_ms").max(0.0);
    // Create ticks run from the first tick to the horizon at the cadence,
    // so the steady-state pressure lasts the remainder of the run.
    let ticks = (((horizon_ms - first_ms).max(0.0) * 1000.0) / cadence_us).floor() as usize;
    ScenarioPlan {
        faults: if wipe_at > 0.0 {
            vec![PlanFault::AqReset { at_ms: wipe_at }]
        } else {
            vec![]
        },
        churn: Some(PlanChurn {
            first_ms,
            cadence_us,
            ticks,
            // Tenant ids sit above the controller's entity-grant range so
            // churn never collides with the three granted AQs.
            base_id: 100,
            id_span: (target + 2) as u32,
            target_live: target,
        }),
        aq_budget: Some(PlanAqBudget {
            aqs: p.count("budget_aqs").max(1),
            policy,
        }),
        ..ScenarioPlan::new(
            (1..=3)
                .map(|id| entity(id, 1, CcAlgo::Cubic, 1, traffic.clone()))
                .collect(),
            RunPlan::FixedHorizon {
                horizon: ms(horizon_ms),
            },
        )
    }
}

/// Map the `admission` parameter (0 static, 1 DT, 2 delay-driven) plus
/// the DT alpha onto an [`AdmissionKind`]. The delay thresholds are fixed
/// at 50 µs (mark) / 200 µs (reject) — at 10 Gbit/s those project to
/// ~62 KB and ~250 KB of port backlog respectively.
fn admission_kind(p: &Params) -> AdmissionKind {
    let alpha = p.val("dt_alpha").clamp(0.001, 64.0);
    match p.count("admission") {
        0 => AdmissionKind::StaticPartition,
        1 => AdmissionKind::DynamicThreshold { alpha },
        _ => AdmissionKind::DelayDriven {
            mark_us: 50,
            max_us: 200,
        },
    }
}

fn pool_bytes(p: &Params) -> u64 {
    (p.val("pool_kb").max(1.0) * 1000.0).round() as u64
}

fn incast_sharedbuf(p: &Params) -> ScenarioPlan {
    let traffic = Traffic::Long {
        n: p.count("flows").max(1),
        kind: LongKind::Tcp,
    };
    let senders = p.count("senders").max(1);
    ScenarioPlan {
        buffers: Some(BufferPlan {
            pool_bytes: pool_bytes(p),
            admission: admission_kind(p),
            aqm: AqmKind::Fifo,
        }),
        ..ScenarioPlan::new(
            vec![
                entity(1, senders, CcAlgo::Cubic, 1, traffic.clone()),
                entity(2, senders, CcAlgo::Cubic, 1, traffic),
            ],
            RunPlan::FixedHorizon {
                horizon: ms(p.val("horizon_ms")),
            },
        )
    }
}

fn websearch_aqm_zoo(p: &Params) -> ScenarioPlan {
    let traffic = Traffic::WebSearch {
        n_flows: p.count("n_flows").max(1),
        load: p.val("load").clamp(0.05, 2.0),
    };
    let aqm = match p.count("aqm") {
        0 => AqmKind::Fifo,
        1 => AqmKind::DisaggRed,
        _ => AqmKind::L4sStep,
    };
    ScenarioPlan {
        buffers: Some(BufferPlan {
            pool_bytes: pool_bytes(p),
            admission: AdmissionKind::DynamicThreshold { alpha: 1.0 },
            aqm,
        }),
        ..ScenarioPlan::new(
            vec![
                entity(1, 2, CcAlgo::Dctcp, 1, traffic.clone()),
                entity(2, 2, CcAlgo::Dctcp, 1, traffic),
            ],
            RunPlan::FixedHorizon {
                horizon: ms(p.val("horizon_ms")),
            },
        )
    }
}

/// All registered scenarios, in name order.
pub fn registry() -> &'static [ScenarioDef] {
    const REGISTRY: &[ScenarioDef] = &[
        ScenarioDef {
            name: "ablation_limit_policy",
            summary: "§6 AQ-limit ablation: a 100 Mbit/s entity beside a 9.9 Gbit/s one \
                      reaches its allocation with every AQ at the physical queue's limit or \
                      proportional limits with a 30 KB floor; without the floor (2 KB, \
                      under two packets) excess drops keep it from its allocation",
            params: &[ParamDef {
                name: "policy",
                default: 0.0,
                help: "AQ-limit policy: 0 match the physical queue, 1 proportional with a \
                       30 KB floor, 2 proportional with no floor",
            }],
            build: ablation_limit_policy,
        },
        ScenarioDef {
            name: "ablation_work_conservation",
            summary: "§6 work-conservation ablation: entity B idles until 300 ms of 600; \
                      bypass-while-the-queue-is-empty and periodic reallocation both let \
                      entity A use the whole link meanwhile and still protect B once it \
                      starts, while strict AQs pin A at its half",
            params: &[ParamDef {
                name: "mode",
                default: 0.0,
                help: "mechanism: 0 bypass when idle (egress AQs), 1 reallocate every 10 ms, \
                       2 none (strict AQs)",
            }],
            build: ablation_work_conservation,
        },
        ScenarioDef {
            name: "aq_state_loss",
            summary: "two equal TCP entities share the dumbbell core; the bottleneck \
                      switch's AQ tables are wiped mid-run (simulated reboot) and \
                      per-entity state is rebuilt from subsequent arrivals; measures \
                      re-convergence time and post-wipe fairness",
            params: &[
                ParamDef {
                    name: "n_flows",
                    default: 4.0,
                    help: "long flows per entity",
                },
                ParamDef {
                    name: "wipe_at_ms",
                    default: 10.0,
                    help: "AQ table wipe instant (simulated ms)",
                },
                ParamDef {
                    name: "horizon_ms",
                    default: 40.0,
                    help: "run length (simulated ms)",
                },
            ],
            build: aq_state_loss,
        },
        ScenarioDef {
            name: "cc_mix",
            summary: "two entities with different CC algorithms (pair 0: CUBIC vs DCTCP, \
                      1: DCTCP vs Swift, 2: CUBIC vs Swift) replay the closed web-search \
                      trace; completion-time fairness across CC mixes (Fig. 10 shape)",
            params: &[
                ParamDef {
                    name: "pair",
                    default: 0.0,
                    help: "CC pairing: 0 CUBIC+DCTCP, 1 DCTCP+Swift, 2 CUBIC+Swift",
                },
                ParamDef {
                    name: "n_flows",
                    default: 8.0,
                    help: "flows per entity",
                },
                ParamDef {
                    name: "size_scale",
                    default: 2.0,
                    help: "flow-size multiplier",
                },
                ParamDef {
                    name: "deadline_ms",
                    default: 5000.0,
                    help: "completion deadline (simulated ms)",
                },
            ],
            build: cc_mix,
        },
        ScenarioDef {
            name: "completion_vms",
            summary: "two equal entities replay the closed web-search trace over `vms` \
                      VMs each; completion time vs VM count (Fig. 6 shape)",
            params: &[
                ParamDef {
                    name: "vms",
                    default: 2.0,
                    help: "sending VMs per entity",
                },
                ParamDef {
                    name: "n_flows",
                    default: 8.0,
                    help: "flows per entity across its VMs",
                },
                ParamDef {
                    name: "size_scale",
                    default: 2.0,
                    help: "flow-size multiplier",
                },
                ParamDef {
                    name: "deadline_ms",
                    default: 5000.0,
                    help: "completion deadline (simulated ms)",
                },
            ],
            build: completion_vms,
        },
        ScenarioDef {
            name: "fairness_flows",
            summary: "1 long flow vs `b_flows` long flows; per-entity goodput vs flow \
                      count (Fig. 8 shape)",
            params: &[
                ParamDef {
                    name: "b_flows",
                    default: 4.0,
                    help: "entity B's long-flow count",
                },
                ParamDef {
                    name: "horizon_ms",
                    default: 40.0,
                    help: "run length (simulated ms)",
                },
            ],
            build: fairness_flows,
        },
        ScenarioDef {
            name: "fig01_cc_interference",
            summary: "Fig. 1: two entities of 10 long flows each, running CC algorithms of \
                      different classes, share one physical queue for 400 ms — ECN-based \
                      CC starves drop-based CC, everything starves delay-based CC; two \
                      drop-based algorithms (pair 5) share evenly",
            params: &[ParamDef {
                name: "pair",
                default: 0.0,
                help: "0 CUBIC+DCTCP, 1 NewReno+DCTCP, 2 CUBIC+Swift, 3 DCTCP+Swift, \
                       4 NewReno+Swift, 5 CUBIC+NewReno (same class)",
            }],
            build: fig01_cc_interference,
        },
        ScenarioDef {
            name: "fig06_completion_vs_vms",
            summary: "Fig. 6: one entity replays the paper-scale web-search trace (64 flows, \
                      8× sizes) split over `vms` VMs; completion time vs VM count (one VM \
                      has no split to get wrong, so all four approaches finish together)",
            params: &[ParamDef {
                name: "vms",
                default: 4.0,
                help: "the entity's sending VMs",
            }],
            build: fig06_completion_vs_vms,
        },
        ScenarioDef {
            name: "fig07_entity_fairness",
            summary: "Fig. 7: entity A (1 VM) and entity B (`b_vms` VMs) replay the \
                      paper-scale trace at equal weights; ratio of their completion times",
            params: &[ParamDef {
                name: "b_vms",
                default: 4.0,
                help: "entity B's sending VMs",
            }],
            build: fig07_entity_fairness,
        },
        ScenarioDef {
            name: "fig08_flow_count_isolation",
            summary: "Fig. 8: entity A (1 long flow) vs entity B (`b_flows` long flows) \
                      for 500 ms at weights 1 : `b_weight`; share vs flow count",
            params: &[
                ParamDef {
                    name: "b_flows",
                    default: 16.0,
                    help: "entity B's long-flow count",
                },
                ParamDef {
                    name: "b_weight",
                    default: 1.0,
                    help: "entity B's weight (entity A's is 1)",
                },
            ],
            build: fig08_flow_count_isolation,
        },
        ScenarioDef {
            name: "fig09_udp_tcp",
            summary: "Fig. 9: five single-VM entities join the link 100 ms apart — four \
                      with 4 CUBIC flows, the third a 10 Gbit/s UDP blast — and run to \
                      700 ms; under AQ each join is granted an equal-weight AQ and the \
                      link is re-divided",
            params: &[],
            build: fig09_udp_tcp,
        },
        ScenarioDef {
            name: "fig10_cc_fairness",
            summary: "Fig. 10: two 4-VM entities with different CC algorithms replay the \
                      paper-scale trace; completion-time fairness and total completion",
            params: &[ParamDef {
                name: "pair",
                default: 0.0,
                help: "0 CUBIC+DCTCP, 1 NewReno+DCTCP, 2 CUBIC+Swift",
            }],
            build: fig10_cc_fairness,
        },
        ScenarioDef {
            name: "incast_sharedbuf",
            summary: "2×`senders` TCP entities converge on the dumbbell core through a \
                      small per-switch shared buffer pool; the `admission` axis contrasts \
                      static partitioning, dynamic threshold (DT), and delay-driven \
                      (BShare-style) admission by where drops land and how high the pool \
                      fills",
            params: &[
                ParamDef {
                    name: "admission",
                    default: 0.0,
                    help: "admission policy: 0 static partition, 1 dynamic threshold, \
                           2 delay-driven",
                },
                ParamDef {
                    name: "dt_alpha",
                    default: 1.0,
                    help: "DT alpha (admission=1 only)",
                },
                ParamDef {
                    name: "pool_kb",
                    default: 150.0,
                    help: "shared pool capacity per switch (KB)",
                },
                ParamDef {
                    name: "senders",
                    default: 4.0,
                    help: "sending VMs per entity",
                },
                ParamDef {
                    name: "flows",
                    default: 8.0,
                    help: "long flows per entity",
                },
                ParamDef {
                    name: "horizon_ms",
                    default: 40.0,
                    help: "run length (simulated ms)",
                },
            ],
            build: incast_sharedbuf,
        },
        ScenarioDef {
            name: "interpod_fattree",
            summary: "k=4 fat tree; two 2-VM entities in pod 0 (one ToR each, `a_flows` \
                      vs `b_flows` long flows) send cross-pod to shared receivers in the \
                      last pod; per-entity goodput under ECMP core contention",
            params: &[
                ParamDef {
                    name: "a_flows",
                    default: 1.0,
                    help: "entity A's long-flow count",
                },
                ParamDef {
                    name: "b_flows",
                    default: 4.0,
                    help: "entity B's long-flow count",
                },
                ParamDef {
                    name: "horizon_ms",
                    default: 40.0,
                    help: "run length (simulated ms)",
                },
            ],
            build: interpod_fattree,
        },
        ScenarioDef {
            name: "linkflap_dumbbell",
            summary: "two equal TCP entities on the dumbbell; the shared core link \
                      flaps down/up mid-run (optionally followed by a stochastic \
                      corruption window and a sender blackout); measures drop \
                      attribution and post-recovery goodput vs the pre-fault level",
            params: &[
                ParamDef {
                    name: "n_flows",
                    default: 4.0,
                    help: "long flows per entity",
                },
                ParamDef {
                    name: "flap_at_ms",
                    default: 10.0,
                    help: "first down edge (simulated ms)",
                },
                ParamDef {
                    name: "flaps",
                    default: 2.0,
                    help: "down/up cycles",
                },
                ParamDef {
                    name: "down_ms",
                    default: 2.0,
                    help: "dark interval per cycle (simulated ms)",
                },
                ParamDef {
                    name: "up_ms",
                    default: 3.0,
                    help: "lit interval between cycles (simulated ms)",
                },
                ParamDef {
                    name: "loss_pct",
                    default: 0.0,
                    help: "post-flap core corruption probability (percent; 0 = off)",
                },
                ParamDef {
                    name: "blackout_ms",
                    default: 0.0,
                    help: "entity 1 sender blackout length from the first flap (0 = off)",
                },
                ParamDef {
                    name: "horizon_ms",
                    default: 40.0,
                    help: "run length (simulated ms)",
                },
            ],
            build: linkflap_dumbbell,
        },
        ScenarioDef {
            name: "table2_cc_sharing",
            summary: "Table 2: entities of long flows under different CC algorithms (and \
                      one UDP blast) share the core for 1.5 s; with one CC algorithm \
                      (row 8) the physical queue shares evenly too",
            params: &[ParamDef {
                name: "row",
                default: 0.0,
                help: "0 5 CUBIC+5 DCTCP, 1 5 NewReno+5 DCTCP, 2 5 Illinois+5 DCTCP, \
                       3 5 CUBIC+5 Swift, 4 5 DCTCP+5 Swift, 5 10 DCTCP+5 NewReno, \
                       6 10 DCTCP+5 Swift, 7 1 UDP+3 CUBIC+3 DCTCP+3 Swift, \
                       8 5 CUBIC+5 CUBIC",
            }],
            build: table2_cc_sharing,
        },
        ScenarioDef {
            name: "table3_vm_profile",
            summary: "Table 3: four VMs on a 25 Gbit/s star, each with a 5 Gbit/s in / \
                      5 Gbit/s out hose profile; VM A sends a full line of web-search \
                      traffic to B, C, D (entity 1) while they send one to A (entity 2), \
                      600 ms",
            params: &[],
            build: table3_vm_profile,
        },
        ScenarioDef {
            name: "table4_cc_behavior",
            summary: "Table 4: 8 long flows of one CC algorithm on a 25 Gbit/s physical \
                      core (PQ) vs a 25 Gbit/s AQ of a 100 Gbit/s core (AQ), 400 ms; \
                      throughput and the queuing delay the CC sees",
            params: &[ParamDef {
                name: "cc",
                default: 0.0,
                help: "0 CUBIC, 1 NewReno, 2 DCTCP",
            }],
            build: table4_cc_behavior,
        },
        ScenarioDef {
            name: "tenant_churn",
            summary: "three equal web-search entities share the dumbbell while a \
                      control-plane churn train creates/destroys tenant AQs against a \
                      bounded table held at ~90–110% of its register budget (the \
                      `policy` axis contrasts reject-new degradation with idle \
                      eviction), with a mid-run AQ-table wipe; measures post-churn \
                      fairness, reconvergence, and degraded-flow completion",
            params: &[
                ParamDef {
                    name: "budget_aqs",
                    default: 7.0,
                    help: "AQ-table register budget, in 15-byte AQ rows",
                },
                ParamDef {
                    name: "policy",
                    default: 0.0,
                    help: "overflow policy: 0 reject-new (degrade), 1 evict-idle",
                },
                ParamDef {
                    name: "churn_aqs",
                    default: 4.0,
                    help: "steady-state live churned-tenant count",
                },
                ParamDef {
                    name: "churn_cadence_us",
                    default: 50.0,
                    help: "tenant create cadence (simulated µs)",
                },
                ParamDef {
                    name: "churn_start_ms",
                    default: 5.0,
                    help: "first tenant create (simulated ms)",
                },
                ParamDef {
                    name: "n_flows",
                    default: 8.0,
                    help: "web-search flows per entity",
                },
                ParamDef {
                    name: "load",
                    default: 0.25,
                    help: "offered load fraction per entity",
                },
                ParamDef {
                    name: "wipe_at_ms",
                    default: 20.0,
                    help: "AQ table wipe instant (simulated ms; 0 = off)",
                },
                ParamDef {
                    name: "horizon_ms",
                    default: 40.0,
                    help: "run length (simulated ms)",
                },
            ],
            build: tenant_churn,
        },
        ScenarioDef {
            name: "udp_tcp_share",
            summary: "one unreactive UDP entity vs one TCP entity; who holds the link \
                      (Fig. 9 shape)",
            params: &[
                ParamDef {
                    name: "tcp_flows",
                    default: 4.0,
                    help: "TCP entity's flow count",
                },
                ParamDef {
                    name: "udp_gbps",
                    default: 10.0,
                    help: "UDP send rate (Gbit/s, whole)",
                },
                ParamDef {
                    name: "horizon_ms",
                    default: 40.0,
                    help: "run length (simulated ms)",
                },
            ],
            build: udp_tcp_share,
        },
        ScenarioDef {
            name: "websearch_aqm_zoo",
            summary: "two DCTCP entities drive open-loop web-search arrivals through a \
                      DT-guarded shared buffer; the `aqm` axis swaps the switch egress \
                      discipline (FIFO+ECN, iRED-style disaggregated RED, L4S step \
                      marking) to contrast physical AQM signals against AQ's virtual \
                      ECN (the Aq approach)",
            params: &[
                ParamDef {
                    name: "aqm",
                    default: 0.0,
                    help: "egress discipline: 0 FIFO, 1 disaggregated RED, 2 L4S step",
                },
                ParamDef {
                    name: "load",
                    default: 0.8,
                    help: "offered load fraction of the bottleneck",
                },
                ParamDef {
                    name: "n_flows",
                    default: 20.0,
                    help: "web-search flows per entity",
                },
                ParamDef {
                    name: "pool_kb",
                    default: 150.0,
                    help: "shared pool capacity per switch (KB)",
                },
                ParamDef {
                    name: "horizon_ms",
                    default: 40.0,
                    help: "run length (simulated ms)",
                },
            ],
            build: websearch_aqm_zoo,
        },
    ];
    REGISTRY
}

/// Look up a scenario by name.
pub fn find(name: &str) -> Option<&'static ScenarioDef> {
    registry().iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestCaseError;
    use std::ops::Range;

    #[test]
    fn registry_is_name_sorted_and_findable() {
        let names: Vec<_> = registry().iter().map(|s| s.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "registry must stay name-sorted");
        for n in names {
            assert!(find(n).is_some());
        }
        assert!(find("no_such_scenario").is_none());
    }

    #[test]
    fn params_canonical_is_order_independent_and_parses_back() {
        let mut a = Params::new();
        a.set("vms", 4.0);
        a.set("load", 0.8);
        let mut b = Params::new();
        b.set("load", 0.8);
        b.set("vms", 4.0);
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), "load=0.8000,vms=4");
        let parsed = Params::parse(&a.canonical()).expect("round-trip");
        assert_eq!(parsed.canonical(), a.canonical());
        assert!(Params::parse("vms").is_err());
        assert!(Params::parse("vms=notanumber").is_err());
    }

    /// What an assignment is written in: names, `=`, `,`, and the
    /// characters of a number (with `e` both a letter and an exponent).
    const PARAM_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz=,.-e0123456789  ";

    /// Text over `alphabet`, `len` characters long.
    fn text_over(alphabet: &'static [u8], len: Range<usize>) -> impl Strategy<Value = String> {
        prop::collection::vec(any::<u8>(), len).prop_map(move |bytes| {
            (bytes.iter())
                .map(|b| alphabet[*b as usize % alphabet.len()] as char)
                .collect()
        })
    }

    fn param_text() -> impl Strategy<Value = String> {
        text_over(PARAM_ALPHABET, 0..24)
    }

    /// The canonical form of an accepted assignment parses back to itself.
    fn assert_canonical_is_a_fixed_point(text: &str) -> Result<(), TestCaseError> {
        if let Ok(p) = Params::parse(text) {
            let canonical = p.canonical();
            let again = Params::parse(&canonical).map(|q| q.canonical());
            prop_assert_eq!(again, Ok(canonical), "from {:?}", text);
        }
        Ok(())
    }

    proptest! {
        /// Arbitrary text never panics the parser, and what it accepts
        /// renders to a fixed point.
        #[test]
        fn parse_never_panics_and_canonical_is_a_fixed_point(text in param_text()) {
            assert_canonical_is_a_fixed_point(&text)?;
        }

        /// The same over `name=value` text whose value is made of the
        /// characters of a number, so that most of it parses.
        #[test]
        fn canonical_is_a_fixed_point_for_number_shaped_values(
            name in text_over(b"abcxyz", 1..4),
            value in text_over(b"0123456789.-e", 1..12),
        ) {
            assert_canonical_is_a_fixed_point(&format!("{name}={value}"))?;
        }

        /// Every spelling of a non-finite value is rejected, whatever the
        /// name and wherever the assignment sits.
        #[test]
        fn non_finite_values_are_rejected(
            name in param_text(),
            which in 0..6usize,
            first in any::<bool>(),
        ) {
            let name: String = name.chars().filter(|c| c.is_ascii_lowercase()).collect();
            let value = ["inf", "-inf", "nan", "NaN", "infinity", "1e999"][which];
            let bad = format!("{name}={value}");
            let text = if first { format!("{bad},x=1") } else { format!("x=1,{bad}") };
            prop_assert!(Params::parse(&text).is_err(), "{} parsed", text);
        }
    }

    #[test]
    fn a_fraction_that_rounds_away_renders_as_the_integer() {
        for (text, canonical) in [
            ("x=2.99999999", "x=3"),
            ("x=-0.00001", "x=0"),
            ("x=0.5", "x=0.5000"),
        ] {
            let p = Params::parse(text).expect("parses");
            assert_eq!(p.canonical(), canonical, "{text}");
        }
    }

    #[test]
    fn resolve_applies_defaults_and_rejects_unknown_params() {
        let def = find("fairness_flows").expect("registered");
        let resolved = def.resolve(&Params::parse("b_flows=16").expect("parse"));
        let resolved = resolved.expect("resolves");
        assert_eq!(resolved.get("b_flows"), Some(16.0));
        assert_eq!(resolved.get("horizon_ms"), Some(40.0));
        assert!(def
            .resolve(&Params::parse("bflows=16").expect("parse"))
            .is_err());
    }

    #[test]
    fn every_scenario_builds_with_defaults() {
        for def in registry() {
            // A builder that reads a name its `params` list does not
            // declare panics in `Params::val`; name the scenario.
            let plan = std::panic::catch_unwind(|| def.plan(&Params::new()))
                .unwrap_or_else(|_| panic!("{}: builder reads an undeclared parameter", def.name))
                .expect("default plan");
            assert!(!plan.entities.is_empty(), "{}: no entities", def.name);
            let mut ids: Vec<u32> = plan.entities.iter().map(|e| e.entity.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len(),
                plan.entities.len(),
                "{}: duplicate entity ids",
                def.name
            );
            assert!(
                plan.starts.is_empty() || plan.starts.len() == plan.entities.len(),
                "{}: one start per entity",
                def.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "registry bug: builder reads undeclared parameter `b_flows`")]
    fn reading_an_undeclared_parameter_is_a_registry_bug() {
        // What `every_scenario_builds_with_defaults` trips over: a builder
        // handed a resolved set that lacks a name it reads.
        fairness_flows(&Params::new());
    }

    #[test]
    fn paper_scenarios_describe_the_grids_their_benches_hard_coded() {
        let plan = |name: &str, params: &str| {
            find(name)
                .expect("registered")
                .plan(&Params::parse(params).expect("parse"))
                .expect("plan")
        };
        // Fig. 9: five joins 100 ms apart, the third a UDP blast.
        let fig9 = plan("fig09_udp_tcp", "");
        let starts: Vec<Duration> = (0..5).map(|k| Duration::from_millis(k * 100)).collect();
        assert_eq!(fig9.starts, starts);
        assert_eq!(fig9.aq_mode, AqMode::GrantOnJoin);
        assert!(matches!(
            fig9.entities[2].traffic,
            Traffic::Long {
                n: 1,
                kind: LongKind::Udp(_)
            }
        ));
        // Table 2's last row is the four-entity UDP mix; the others pair up.
        assert_eq!(plan("table2_cc_sharing", "row=7").entities.len(), 4);
        assert_eq!(plan("table2_cc_sharing", "row=6").entities.len(), 2);
        // Table 3: 1 + 3 VMs on a 25G star with a 5G hose.
        let t3 = plan("table3_vm_profile", "");
        assert_eq!(
            t3.topology,
            Topology::Star {
                hose: Rate::from_gbps(5)
            }
        );
        assert_eq!(t3.fabric.expect("fabric").link, Rate::from_gbps(25));
        let vms: Vec<usize> = t3.entities.iter().map(|e| e.n_vms).collect();
        assert_eq!(vms, [1, 3]);
        // Table 4: a 25G slice of a 100G fabric, per CC row.
        let t4 = plan("table4_cc_behavior", "cc=2");
        assert_eq!(t4.fabric.expect("fabric").slice, Some(Rate::from_gbps(25)));
        assert_eq!(t4.entities[0].cc, CcAlgo::Dctcp);
        // The §6 ablations: weights 1:99 and a late entity B.
        let limit = plan("ablation_limit_policy", "policy=1");
        assert_eq!(
            limit.aq_limit,
            LimitKind::ProportionalShare { min_bytes: 30_000 }
        );
        let weights: Vec<u64> = limit.entities.iter().map(|e| e.weight).collect();
        assert_eq!(weights, [1, 99]);
        let wc = plan("ablation_work_conservation", "mode=1");
        assert_eq!(wc.aq_mode, AqMode::Reallocate);
        assert_eq!(wc.starts, [Duration::ZERO, Duration::from_millis(300)]);
        assert_eq!(
            plan("ablation_work_conservation", "mode=2").aq_mode,
            AqMode::Strict
        );
        // Fig. 8's second axis is entity B's weight.
        assert_eq!(
            plan("fig08_flow_count_isolation", "b_weight=2").entities[1].weight,
            2
        );
        // The CC controls of Fig. 1 and Table 2 are values on their axes.
        let ccs = |p: ScenarioPlan| p.entities.iter().map(|e| e.cc).collect::<Vec<_>>();
        let fig1 = ccs(plan("fig01_cc_interference", "pair=5"));
        assert_eq!(fig1, [CcAlgo::Cubic, CcAlgo::NewReno]);
        assert_eq!(ccs(plan("table2_cc_sharing", "row=8")), [CcAlgo::Cubic; 2]);
    }

    #[test]
    fn cc_mix_pairs_select_distinct_cc_algorithms() {
        let def = find("cc_mix").expect("registered");
        let expect = |pair: &str, a: CcAlgo, b: CcAlgo| {
            let plan = def
                .plan(&Params::parse(pair).expect("parse"))
                .expect("plan");
            assert_eq!(plan.entities[0].cc, a, "{pair}: entity 1");
            assert_eq!(plan.entities[1].cc, b, "{pair}: entity 2");
            assert!(matches!(plan.run, RunPlan::UntilComplete { .. }));
            assert_eq!(plan.topology, Topology::Dumbbell);
        };
        let swift = CcAlgo::Swift {
            target: Duration::from_micros(50),
        };
        expect("pair=0", CcAlgo::Cubic, CcAlgo::Dctcp);
        expect("pair=1", CcAlgo::Dctcp, swift);
        expect("pair=2", CcAlgo::Cubic, swift);
    }

    #[test]
    fn interpod_fattree_runs_on_a_fat_tree() {
        let def = find("interpod_fattree").expect("registered");
        let plan = def
            .plan(&Params::parse("a_flows=2,b_flows=6").expect("parse"))
            .expect("plan");
        assert_eq!(plan.topology, Topology::FatTree { k: 4 });
        assert_eq!(plan.entities.len(), 2);
        for e in &plan.entities {
            assert_eq!(e.n_vms, 2);
        }
        match (&plan.entities[0].traffic, &plan.entities[1].traffic) {
            (Traffic::Long { n: a, .. }, Traffic::Long { n: b, .. }) => {
                assert_eq!((*a, *b), (2, 6));
            }
            other => panic!("unexpected traffic {other:?}"),
        }
    }

    #[test]
    fn linkflap_dumbbell_builds_the_full_fault_set() {
        let def = find("linkflap_dumbbell").expect("registered");
        let plan = def
            .plan(&Params::parse("flaps=3,loss_pct=1,blackout_ms=4").expect("parse"))
            .expect("plan");
        assert_eq!(plan.topology, Topology::Dumbbell);
        assert_eq!(plan.faults.len(), 3);
        assert_eq!(
            plan.faults[0],
            PlanFault::CoreLinkFlap {
                first_down_ms: 10.0,
                flaps: 3,
                down_ms: 2.0,
                up_ms: 3.0,
            }
        );
        // Loss window opens where the 3-cycle train ends (10 + 3*5 = 25)
        // and 1% maps to 10_000 ppm.
        assert_eq!(
            plan.faults[1],
            PlanFault::CoreLinkLoss {
                from_ms: 25.0,
                until_ms: 40.0,
                loss_ppm: 10_000,
            }
        );
        assert_eq!(
            plan.faults[2],
            PlanFault::SenderBlackout {
                sender: 0,
                from_ms: 10.0,
                until_ms: 14.0,
            }
        );
        // Defaults keep the optional faults off.
        let bare = def.plan(&Params::new()).expect("plan");
        assert_eq!(bare.faults.len(), 1);
        assert!(matches!(bare.faults[0], PlanFault::CoreLinkFlap { .. }));
    }

    #[test]
    fn aq_state_loss_schedules_one_wipe() {
        let def = find("aq_state_loss").expect("registered");
        let plan = def
            .plan(&Params::parse("wipe_at_ms=15").expect("parse"))
            .expect("plan");
        assert_eq!(plan.faults, vec![PlanFault::AqReset { at_ms: 15.0 }]);
        assert_eq!(plan.entities.len(), 2);
        assert!(matches!(plan.run, RunPlan::FixedHorizon { .. }));
    }

    #[test]
    fn fault_free_scenarios_carry_no_faults() {
        for name in [
            "fairness_flows",
            "cc_mix",
            "interpod_fattree",
            "incast_sharedbuf",
            "websearch_aqm_zoo",
        ] {
            let plan = find(name)
                .expect("registered")
                .plan(&Params::new())
                .expect("plan");
            assert!(plan.faults.is_empty(), "{name} should be fault-free");
        }
    }

    #[test]
    fn classic_scenarios_carry_no_buffer_plan() {
        for def in registry() {
            let plan = def.plan(&Params::new()).expect("plan");
            let expect_pool = matches!(def.name, "incast_sharedbuf" | "websearch_aqm_zoo");
            assert_eq!(
                plan.buffers.is_some(),
                expect_pool,
                "{}: unexpected buffer plan presence",
                def.name
            );
        }
    }

    #[test]
    fn incast_sharedbuf_selects_admission_policies() {
        let def = find("incast_sharedbuf").expect("registered");
        let admission = |params: &str| {
            let plan = def
                .plan(&Params::parse(params).expect("parse"))
                .expect("plan");
            let bp = plan.buffers.expect("buffer plan");
            assert_eq!(bp.aqm, AqmKind::Fifo);
            assert_eq!(bp.pool_bytes, 150_000);
            bp.admission
        };
        assert_eq!(admission("admission=0"), AdmissionKind::StaticPartition);
        assert!(matches!(
            admission("admission=1"),
            AdmissionKind::DynamicThreshold { .. }
        ));
        assert!(matches!(
            admission("admission=2"),
            AdmissionKind::DelayDriven { .. }
        ));
        let plan = def
            .plan(&Params::parse("admission=1,dt_alpha=0.5,pool_kb=80").expect("parse"))
            .expect("plan");
        let bp = plan.buffers.expect("buffer plan");
        assert_eq!(bp.pool_bytes, 80_000);
        assert_eq!(bp.admission, AdmissionKind::DynamicThreshold { alpha: 0.5 });
    }

    #[test]
    fn websearch_aqm_zoo_selects_disciplines() {
        let def = find("websearch_aqm_zoo").expect("registered");
        for (v, aqm) in [
            (0.0, AqmKind::Fifo),
            (1.0, AqmKind::DisaggRed),
            (2.0, AqmKind::L4sStep),
        ] {
            let mut p = Params::new();
            p.set("aqm", v);
            let plan = def.plan(&p).expect("plan");
            let bp = plan.buffers.expect("buffer plan");
            assert_eq!(bp.aqm, aqm);
            assert!(matches!(
                bp.admission,
                AdmissionKind::DynamicThreshold { .. }
            ));
            for e in &plan.entities {
                assert_eq!(e.cc, CcAlgo::Dctcp);
                assert!(matches!(e.traffic, Traffic::WebSearch { .. }));
            }
        }
    }

    #[test]
    fn tenant_churn_holds_demand_near_budget() {
        let def = find("tenant_churn").expect("registered");
        let plan = def.plan(&Params::new()).expect("plan");
        assert_eq!(plan.entities.len(), 3);
        let budget = plan.aq_budget.expect("budget");
        assert_eq!(budget.aqs, 7);
        assert_eq!(budget.policy, OverflowKind::RejectNew);
        let churn = plan.churn.expect("churn");
        // Steady-state demand = 3 entity grants + the live tenant train,
        // oscillating target/target+1: 7–8 rows against a 7-row budget —
        // the table sits at 100–114% of budget for the rest of the run.
        assert_eq!(churn.target_live, 4);
        assert!(churn.id_span as usize > churn.target_live);
        assert!(churn.base_id > 3, "tenant ids must clear the grant range");
        // 35 ms of churn at 50 µs cadence = 700 create ticks.
        assert_eq!(churn.ticks, 700);
        assert_eq!(plan.faults, vec![PlanFault::AqReset { at_ms: 20.0 }]);
        // The policy axis flips to eviction; wipe_at_ms=0 disables the wipe.
        let plan = def
            .plan(&Params::parse("policy=1,wipe_at_ms=0").expect("parse"))
            .expect("plan");
        assert_eq!(plan.aq_budget.unwrap().policy, OverflowKind::EvictIdle);
        assert!(plan.faults.is_empty());
    }

    #[test]
    fn classic_scenarios_carry_no_churn_or_budget() {
        for def in registry() {
            let plan = def.plan(&Params::new()).expect("plan");
            let expect = def.name == "tenant_churn";
            assert_eq!(plan.churn.is_some(), expect, "{}: churn", def.name);
            assert_eq!(plan.aq_budget.is_some(), expect, "{}: budget", def.name);
        }
    }

    #[test]
    fn completion_vms_scales_with_params() {
        let def = find("completion_vms").expect("registered");
        let plan = def
            .plan(&Params::parse("vms=4,n_flows=12").expect("parse"))
            .expect("plan");
        for e in &plan.entities {
            assert_eq!(e.n_vms, 4);
            match &e.traffic {
                Traffic::WebSearchClosed { n_flows, .. } => assert_eq!(*n_flows, 12),
                other => panic!("unexpected traffic {other:?}"),
            }
        }
        assert!(matches!(plan.run, RunPlan::UntilComplete { .. }));
    }
}
