//! # aq-transport — host transport layer
//!
//! The end-host side of the reproduction: a reliable window-based
//! transport with per-packet ACKs (carrying ECN echo, timestamp echo, and
//! the AQ virtual-delay echo), NewReno-style loss recovery, and five
//! pluggable congestion-control algorithms — NewReno, CUBIC, TCP-Illinois,
//! DCTCP, and Swift — plus unreactive paced UDP sources.
//!
//! The entry point is [`TransportHost`], the [`aq_netsim::HostApp`]
//! installed on every simulated host; flows are described by [`FlowSpec`].

// Determinism policy (DESIGN §5a): float equality is
// representation-fragile.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod cc;
pub mod flow;
pub mod host;
pub mod receiver;
pub mod sender;
pub mod udp;

pub use cc::{AckSignals, CcAlgo, CongestionControl};
pub use flow::{DelaySignal, FlowKind, FlowSpec};
pub use host::TransportHost;
pub use receiver::ReceiverFlow;
pub use sender::SenderFlow;
pub use udp::UdpSender;
