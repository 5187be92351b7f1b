//! # aq-netsim — deterministic packet-level network simulator
//!
//! The simulation substrate for the Augmented Queue reproduction. The paper
//! evaluates AQ inside NS3 (with BMv2 software switches) and on a Tofino
//! testbed; this crate replaces both with a self-contained, deterministic
//! discrete-event simulator:
//!
//! * [`time`] — integer nanosecond clocks and exact bit-rate arithmetic;
//! * [`event`] — the `(time, insertion-order)` event queue;
//! * [`fault`] — the deterministic fault-injection layer ([`FaultPlan`]:
//!   link down/up and flap trains, stochastic corruption, switch state
//!   wipes, host blackouts);
//! * [`packet`] — packets with transport, ECN, and AQ header fields;
//! * [`queue`] — the [`queue::QueueDiscipline`] trait alternative
//!   disciplines implement, and one taildrop FIFO ([`queue::Fifo`]) with
//!   three arrival rules: the physical queue's ECN threshold
//!   ([`queue::FifoQueue`]) and the AQM zoo ([`queue::DisaggRedQueue`],
//!   [`queue::L4sStepQueue`]);
//! * [`buffer`] — the per-switch shared buffer pool and its pluggable
//!   admission policies (static partition, dynamic threshold,
//!   delay-driven);
//! * [`link`]/[`port`] — line-rate serialization and propagation;
//! * [`node`] — the [`node::HostApp`] and [`node::SwitchPipeline`]
//!   extension traits (transports attach to hosts, AQ attaches to switches);
//! * [`topology`] — builders for the paper's dumbbell and star topologies;
//! * [`sim`] — the event loop, routing, and control-plane agents;
//! * [`stats`] — per-entity, per-port, and per-AQ measurement (the
//!   observability layer every experiment reads its results from).
//!
//! The simulator is single-threaded and allocation-light; determinism is a
//! hard requirement so every figure in the evaluation regenerates exactly.
//!
//! ## The `invariants` feature
//!
//! The `invariants` cargo feature compiles in runtime checks of the
//! properties the correctness argument rests on (FIFO byte conservation,
//! ECN marking only at/above threshold, event-clock monotonicity, …) via
//! the [`invariant!`] macro. With the feature off — the default — the
//! checks cost nothing; with it on, a violation panics with structured
//! context. Enable it in CI and when debugging:
//!
//! ```bash
//! cargo test --workspace --features invariants
//! ```

#![warn(missing_docs)]
// Determinism policy (DESIGN §5a): float equality is
// representation-fragile, and byte/time counters are 64-bit here, so a
// narrowing cast names its bound in an `#[expect]`.
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(clippy::cast_possible_truncation)]

pub mod buffer;
pub mod churn;
pub mod event;
pub mod fault;
pub mod ids;
pub mod invariant;
pub mod link;
pub mod node;
pub mod packet;
pub mod port;
pub mod queue;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;

pub use buffer::{
    Admission, AdmissionCtx, AdmissionPolicy, DelayDriven, DynamicThreshold, SharedBufferPool,
    StaticPartition,
};
pub use fault::{AppliedFault, FaultEvent, FaultKind, FaultPlan, FaultTotals};
pub use ids::{AgentId, EntityId, FlowId, LinkId, NodeId, PortId};
pub use node::{HostApp, HostCtx, PipelineVerdict, SwitchPipeline};
pub use packet::{AqTag, Ecn, Packet, TransportHeader, HEADER_BYTES, MSS};
pub use queue::{
    DisaggRedConfig, DisaggRedQueue, DropCause, Enqueued, FifoConfig, FifoQueue, L4sStepConfig,
    L4sStepQueue, QueueDiscipline,
};
pub use shard::{ShardPlan, ShardedSim};
pub use sim::{Agent, AgentCtx, Network, Simulator};
pub use stats::{
    jain_index, minmax_ratio, AqPosition, AqSummary, BufferStats, DelayRecorder, PortStats,
    StatsHub, WindowedCounter,
};
pub use time::{Duration, Rate, Time, NS_PER_SEC};
pub use topology::{dumbbell, dumbbell_asym, fat_tree, star, Dumbbell, FatTree, NetBuilder, Star};
