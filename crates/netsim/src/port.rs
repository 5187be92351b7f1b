//! Output ports: a queue discipline plus a transmitter state machine.
//!
//! The transmitter serializes one packet at a time at the attached link's
//! line rate. When the discipline defers release (a shaper), the port arms a
//! single wake event for the release instant; duplicate wakes are suppressed
//! so shaped ports do not flood the event queue.

use crate::ids::{LinkId, NodeId, PortId};
use crate::packet::Packet;
use crate::queue::QueueDiscipline;
use crate::time::{Duration, Time};

/// An output port.
pub struct Port {
    /// This port's id.
    pub id: PortId,
    /// The node the port belongs to.
    pub node: NodeId,
    /// The link the port feeds.
    pub link: LinkId,
    /// Buffering/scheduling discipline (physical FIFO by default).
    pub queue: Box<dyn QueueDiscipline>,
    /// Packet currently being serialized, if any.
    pub in_flight: Option<Packet>,
    /// Link down-transition epoch captured when the in-flight packet
    /// started serializing; if the link's epoch differs at `TxComplete`,
    /// the wire died mid-serialization and the packet is lost.
    pub(crate) launch_downs: u64,
    /// A `PortWake` event is pending for this time; used to suppress
    /// duplicate wake events for shaped queues.
    pub(crate) wake_at: Option<Time>,
    /// Memo of the last serialization-time computation `(wire bytes,
    /// duration)`. Traffic on a port is dominated by one or two frame
    /// sizes (MSS data one way, ACKs the other), and the link rate is
    /// fixed, so this skips the `u128` division in
    /// [`crate::time::Rate::transmit_time`] for almost every packet.
    /// Pure memoization of a pure function — timings are bit-identical.
    pub(crate) tx_memo: (u64, Duration),
}

impl Port {
    /// A fresh idle port.
    pub fn new(id: PortId, node: NodeId, link: LinkId, queue: Box<dyn QueueDiscipline>) -> Port {
        Port {
            id,
            node,
            link,
            queue,
            in_flight: None,
            launch_downs: 0,
            wake_at: None,
            // Matches the real computation for 0 bytes (0 bits → 0 ns), so
            // the memo is valid from the start.
            tx_memo: (0, Duration::ZERO),
        }
    }

    /// Whether the transmitter is currently serializing a packet.
    pub(crate) fn busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Total bytes buffered in the discipline (not counting the packet on
    /// the wire).
    pub fn backlog_bytes(&self) -> u64 {
        self.queue.backlog_bytes()
    }
}
