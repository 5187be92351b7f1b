//! Unidirectional point-to-point links.
//!
//! A link models the wire between an output port and the peer node: packets
//! serialize at the line `rate` (handled by the port transmitter) and then
//! propagate for `prop_delay` before arriving at `to_node`. Full-duplex
//! cables are represented as two independent links.

use crate::ids::{LinkId, NodeId, PortId};
use crate::time::{Duration, Rate};

/// A unidirectional link.
#[derive(Debug, Clone)]
pub struct Link {
    /// This link's id.
    pub id: LinkId,
    /// The output port that feeds the link.
    pub(crate) from_port: PortId,
    /// The node packets arrive at after propagation.
    pub to_node: NodeId,
    /// Line rate (serialization speed).
    pub rate: Rate,
    /// One-way propagation delay.
    pub(crate) prop_delay: Duration,
}
