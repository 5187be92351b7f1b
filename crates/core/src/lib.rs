//! # aq-core — the Augmented Queue abstraction
//!
//! Implementation of *Augmented Queue: A Scalable In-Network Abstraction
//! for Data Center Network Sharing* (SIGCOMM 2023):
//!
//! * [`gap`] — the A-Gap streaming measure (Algorithm 1 / Theorem 3.2) and
//!   the §3.2.1 strawman `D(t)` it replaces;
//! * [`config`] — AQ configuration (Table 1) and the 15-byte packed
//!   register layout behind Fig. 12;
//! * [`feedback`] — Algorithm 2: limit drops, virtual-threshold ECN marks,
//!   and virtual queuing delay, per entity;
//! * [`table`] — the per-switch AQ registry scaling to millions of ids;
//! * [`pipeline`] — the switch data plane (§4.2) as an
//!   [`aq_netsim::SwitchPipeline`], including §6 work-conservation bypass;
//! * [`controller`] — the control plane (§4.1): requests, grants,
//!   absolute/weighted modes, AQ-limit policies;
//! * [`conservation`] — the §6 EyeQ/Seawall-style periodic reallocator;
//! * [`resources`] — the documented Tofino resource-accounting model
//!   behind Fig. 11.
//!
//! ## Quick tour
//!
//! ```
//! use aq_core::controller::{AqController, AqRequest, BandwidthDemand, LimitPolicy};
//! use aq_core::config::{CcPolicy, Position};
//! use aq_core::pipeline::AqPipeline;
//! use aq_netsim::time::Rate;
//!
//! // Operator: one controller per contended link.
//! let mut ctl = AqController::new(
//!     Rate::from_gbps(10),
//!     LimitPolicy::MatchPhysicalQueue { pq_limit_bytes: 200_000 },
//! );
//! // Tenant: request an equal-weight share with ECN feedback.
//! let grant = ctl.request(AqRequest {
//!     demand: BandwidthDemand::Weighted(1),
//!     cc: CcPolicy::EcnBased { threshold_bytes: 30_000 },
//!     position: Position::Ingress,
//!     limit_override: None,
//! }).unwrap();
//! // Operator: deploy on the switch; tenant tags packets with `grant.id`.
//! let mut pipe = AqPipeline::new();
//! ctl.deploy_all(&mut pipe);
//! assert_eq!(ctl.rate_of(grant.id), Some(Rate::from_gbps(10)));
//! ```

#![warn(missing_docs)]
// Determinism policy (DESIGN §5a): float equality is
// representation-fragile, and byte/time counters are 64-bit here, so a
// narrowing cast names its bound in an `#[expect]`.
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(clippy::cast_possible_truncation)]

pub mod config;
pub mod conservation;
pub mod controller;
pub mod feedback;
pub mod gap;
pub mod pipeline;
pub mod resources;
pub mod table;

pub use config::{AqConfig, AqInstance, CcPolicy, PackedAq, Position, PACKED_AQ_BYTES};
pub use conservation::{ReallocatorConfig, WorkConservingReallocator};
pub use controller::{AqController, AqRequest, BandwidthDemand, Grant, GrantError, LimitPolicy};
pub use feedback::{process_packet, AqVerdict};
pub use gap::{AGap, DGap, GapTrack, GAP_FRAC_BITS};
pub use pipeline::{
    export_aq_table, AqPipeline, DegradeMode, DegradeState, DegradedRow, PipelineStats,
    WorkConservation,
};
pub use resources::{
    aq_program_usage, memory_for_aqs, AqFeatures, DeviceCapacity, ResourceUsage, Utilization,
};
pub use table::{AqTable, DeployOutcome, OverflowPolicy};
