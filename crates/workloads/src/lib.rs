//! # aq-workloads — workload generation
//!
//! Regenerates the paper's evaluation workloads:
//!
//! * [`websearch`] — the DCTCP web-search flow-size distribution as an
//!   empirical CDF sampler;
//! * [`arrivals`] — Poisson flow arrivals targeted at an offered load;
//! * [`scenario`] — assembly of entity workloads into concrete
//!   [`aq_transport::FlowSpec`]s (uniformly random endpoints, the paper's
//!   arbitrary traffic matrix) and their installation on hosts, plus
//!   small measurement helpers shared by the figure harnesses;
//! * [`registry`] — named, parameterized scenario blueprints
//!   ([`EntitySetup`]/[`Traffic`] descriptions enumerable by name) that
//!   the sweep harness instantiates over parameter grids and seed sets.

// Determinism policy (DESIGN §5a): float equality is
// representation-fragile.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod arrivals;
pub mod registry;
pub mod scenario;
pub mod websearch;

pub use registry::{
    EntitySetup, LongKind, Params, PlanFault, RunPlan, ScenarioDef, ScenarioPlan, Traffic,
};
pub use scenario::{
    add_flows, ensure_transport_hosts, goodput_gbps, long_flows, run_until_complete,
    ClosedWorkload, WorkloadSpec,
};
