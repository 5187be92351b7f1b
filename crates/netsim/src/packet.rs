//! The simulation packet.
//!
//! A [`Packet`] carries enough header state to support every experiment in
//! the paper: a transport header (data segments and ACKs with ECN echo and
//! delay echo), the ECN codepoint, and the AQ header fields from §4.1 of the
//! paper — the two AQ id tags (ingress-position and egress-position AQ) and
//! the accumulated *virtual queuing delay* that delay-based congestion
//! control reads instead of physical queuing delay (§3.3.2).

use crate::ids::{EntityId, FlowId, NodeId};
use crate::time::Time;

/// Standard maximum segment size used throughout the experiments (bytes of
/// payload per full-sized data packet).
pub const MSS: u32 = 1000;

/// Fixed per-packet header overhead charged on the wire (Ethernet + IP +
/// transport + AQ tags), in bytes.
pub const HEADER_BYTES: u32 = 60;

/// Size in bytes of a pure ACK on the wire.
pub const ACK_BYTES: u32 = 64;

/// ECN codepoint carried in the (simulated) IP header.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Ecn {
    /// Transport did not negotiate ECN; the packet must be dropped, not
    /// marked, on congestion.
    #[default]
    NotCapable,
    /// ECN-capable transport, not yet marked.
    Capable,
    /// Congestion experienced — marked by a queue or by an AQ.
    CongestionExperienced,
}

impl Ecn {
    /// Whether a congested hop may mark instead of dropping.
    pub fn can_mark(self) -> bool {
        !matches!(self, Ecn::NotCapable)
    }

    /// Whether the mark has been applied.
    pub fn is_marked(self) -> bool {
        matches!(self, Ecn::CongestionExperienced)
    }
}

/// The AQ id tag carried in the packet header (§4.1 "AQ grants"). The tenant
/// hypervisor tags each packet with up to two AQ ids: one matched at switch
/// ingress pipelines and one matched at egress pipelines. `AqTag::NONE` is
/// the default value meaning "no AQ at this position".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct AqTag(pub u32);

impl AqTag {
    /// Default tag: no AQ deployed at this position.
    pub const NONE: AqTag = AqTag(0);

    /// Whether this tag names a real AQ.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// Transport-layer header of a simulation packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransportHeader {
    /// A data segment.
    Data {
        /// Segment index within the flow (0-based).
        seq: u64,
        /// Marks the last segment of a finite flow.
        fin: bool,
    },
    /// A cumulative + selective acknowledgment.
    Ack {
        /// Next segment index expected in order (all below received).
        cum_ack: u64,
        /// Highest segment index received so far plus one (SACK right edge);
        /// `sack_hi > cum_ack` implies a gap, which drives fast retransmit.
        sack_hi: u64,
        /// The segment this ACK acknowledges specifically. Because the
        /// receiver ACKs every data packet, this single field gives the
        /// sender an exact SACK scoreboard.
        this_seq: u64,
        /// Receiver saw CE on the segment this ACK acknowledges.
        ecn_echo: bool,
        /// Virtual queuing delay accumulated by AQs along the data path,
        /// echoed back verbatim (nanoseconds).
        vdelay_echo_ns: u64,
        /// Sender timestamp echoed from the data segment, for RTT sampling.
        ts_echo: Time,
        /// Set on the ACK of a FIN segment once the receiver holds the
        /// entire flow; lets the sender mark the flow complete.
        fin_acked: bool,
    },
    /// Unreliable datagram (UDP); no feedback is generated.
    Datagram,
}

/// A packet traversing the simulated network.
///
/// Packets are moved by value through queues and links — a packet is a
/// small plain struct and the simulator is single-threaded. While a packet
/// propagates over a link it is parked in the simulator's [`PacketArena`]
/// and the in-flight event carries only a [`PacketRef`], keeping events
/// small and recycling packet storage instead of round-tripping it through
/// the allocator.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Globally unique id (assigned by the simulator on injection).
    pub uid: u64,
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// The entity (application / CC aggregate / VM) that owns the flow.
    pub entity: EntityId,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Total wire size in bytes (headers + payload).
    pub size: u32,
    /// Transport header.
    pub transport: TransportHeader,
    /// ECN codepoint.
    pub ecn: Ecn,
    /// AQ id matched at switch *ingress* pipelines (outbound control).
    pub aq_ingress: AqTag,
    /// AQ id matched at switch *egress* pipelines (inbound control).
    pub aq_egress: AqTag,
    /// Accumulated virtual queuing delay (§3.3.2), piggybacked and updated
    /// by every AQ the packet traverses; echoed by the receiver in ACKs.
    pub vdelay_ns: u64,
    /// Time the sender injected the packet (for RTT / delay accounting).
    pub sent_at: Time,
    /// Sum of time spent sitting in physical queues so far (diagnostics and
    /// Table 4's queuing-delay distribution).
    pub pq_delay_ns: u64,
}

impl Packet {
    /// Build a full-size data segment.
    #[expect(clippy::too_many_arguments, reason = "one argument per header field")]
    pub fn data(
        flow: FlowId,
        entity: EntityId,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        payload: u32,
        fin: bool,
        now: Time,
    ) -> Packet {
        Packet {
            uid: 0,
            flow,
            entity,
            src,
            dst,
            size: payload + HEADER_BYTES,
            transport: TransportHeader::Data { seq, fin },
            ecn: Ecn::NotCapable,
            aq_ingress: AqTag::NONE,
            aq_egress: AqTag::NONE,
            vdelay_ns: 0,
            sent_at: now,
            pq_delay_ns: 0,
        }
    }

    /// Build an ACK for `data` flowing back from `src` (the data receiver).
    pub fn ack_for(
        data: &Packet,
        cum_ack: u64,
        sack_hi: u64,
        fin_acked: bool,
        now: Time,
    ) -> Packet {
        let this_seq = match data.transport {
            TransportHeader::Data { seq, .. } => seq,
            _ => 0,
        };
        Packet {
            uid: 0,
            flow: data.flow,
            entity: data.entity,
            src: data.dst,
            dst: data.src,
            size: ACK_BYTES,
            transport: TransportHeader::Ack {
                cum_ack,
                sack_hi,
                this_seq,
                ecn_echo: data.ecn.is_marked(),
                vdelay_echo_ns: data.vdelay_ns,
                ts_echo: data.sent_at,
                fin_acked,
            },
            ecn: Ecn::NotCapable,
            aq_ingress: AqTag::NONE,
            aq_egress: AqTag::NONE,
            vdelay_ns: 0,
            sent_at: now,
            pq_delay_ns: 0,
        }
    }

    /// Build an unreliable datagram.
    pub fn datagram(
        flow: FlowId,
        entity: EntityId,
        src: NodeId,
        dst: NodeId,
        payload: u32,
        now: Time,
    ) -> Packet {
        Packet {
            uid: 0,
            flow,
            entity,
            src,
            dst,
            size: payload + HEADER_BYTES,
            transport: TransportHeader::Datagram,
            ecn: Ecn::NotCapable,
            aq_ingress: AqTag::NONE,
            aq_egress: AqTag::NONE,
            vdelay_ns: 0,
            sent_at: now,
            pq_delay_ns: 0,
        }
    }

    /// Payload bytes carried (wire size minus fixed header).
    pub fn payload(&self) -> u32 {
        self.size.saturating_sub(HEADER_BYTES)
    }

    /// True for data segments (the packets AQs and queues act on most).
    pub fn is_data(&self) -> bool {
        matches!(self.transport, TransportHeader::Data { .. })
    }

    /// True for pure ACKs.
    pub fn is_ack(&self) -> bool {
        matches!(self.transport, TransportHeader::Ack { .. })
    }
}

/// Handle to a packet parked in a [`PacketArena`] — the payload of
/// in-flight [`Arrive`](crate::event::EventKind::Arrive) events. A ref is
/// checked out exactly once; the slot is recycled on [`PacketArena::take`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PacketRef(u32);

/// Deliberately opaque: the slot index is freelist-recycled scheduling
/// state, so printing it would leak event-schedule history into any
/// `Debug` output that embeds a ref (and per-shard arenas assign slots
/// independently, so the index is not even comparable across engines).
impl std::fmt::Debug for PacketRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PacketRef(·)")
    }
}

/// A freelist arena for packets in flight over links.
///
/// The event queue stores tens of thousands of pending arrivals; holding
/// each `Packet` (~112 bytes) inline in its event made every event copy
/// and every scheduler operation drag that weight around. The arena parks
/// the packet in a stable slot, events carry a 4-byte [`PacketRef`], and
/// freed slots are reused in LIFO order — no per-packet allocator traffic
/// after the high-water mark, and no effect on determinism (slot choice
/// never influences event order).
#[derive(Default)]
pub struct PacketArena {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> PacketArena {
        PacketArena::default()
    }

    /// An empty arena with backing storage reserved for `n` slots.
    ///
    /// Only the `Vec` allocation is pre-sized; slot *assignment* is
    /// identical to a fresh arena (first alloc gets slot 0, and so on),
    /// so pre-sizing can never change observable behavior.
    pub fn with_capacity(n: usize) -> PacketArena {
        let mut a = PacketArena::default();
        a.slots.reserve(n);
        a
    }

    /// Park `pkt`, returning its handle.
    pub fn alloc(&mut self, pkt: Packet) -> PacketRef {
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.is_none(), "freelist pointed at a live slot");
                *slot = Some(pkt);
                PacketRef(idx)
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena outgrew u32 handles");
                self.slots.push(Some(pkt));
                PacketRef(idx)
            }
        }
    }

    /// Check the packet back out, recycling its slot.
    ///
    /// # Panics
    /// Panics if the handle was already taken — every ref is single-use.
    pub fn take(&mut self, r: PacketRef) -> Packet {
        let pkt = self.slots[r.0 as usize]
            .take()
            .expect("PacketRef taken twice");
        self.free.push(r.0);
        pkt
    }

    /// Packets currently parked.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots ever allocated (the high-water mark of in-flight packets).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_recycles_slots_lifo() {
        let mut arena = PacketArena::new();
        let mk = |seq| {
            Packet::data(
                FlowId(1),
                EntityId(1),
                NodeId(0),
                NodeId(1),
                seq,
                MSS,
                false,
                Time::ZERO,
            )
        };
        let a = arena.alloc(mk(0));
        let b = arena.alloc(mk(1));
        assert_eq!(arena.live(), 2);
        let pa = arena.take(a);
        assert!(matches!(pa.transport, TransportHeader::Data { seq: 0, .. }));
        // Freed slot is reused before the arena grows.
        let c = arena.alloc(mk(2));
        assert_eq!(c, a);
        assert_eq!(arena.capacity(), 2);
        let pb = arena.take(b);
        assert!(matches!(pb.transport, TransportHeader::Data { seq: 1, .. }));
        arena.take(c);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn arena_slot_assignment_ignores_reserved_capacity() {
        // A pre-sized arena must hand out exactly the same refs, in the
        // same order, as a fresh one — capacity is an allocator hint, not
        // simulation state.
        let mk = |seq| {
            Packet::data(
                FlowId(1),
                EntityId(1),
                NodeId(0),
                NodeId(1),
                seq,
                MSS,
                false,
                Time::ZERO,
            )
        };
        let mut cold = PacketArena::new();
        let mut warm = PacketArena::with_capacity(1024);
        let mut refs_cold = Vec::new();
        let mut refs_warm = Vec::new();
        for seq in 0..8 {
            refs_cold.push(cold.alloc(mk(seq)));
            refs_warm.push(warm.alloc(mk(seq)));
        }
        // Interleave frees and reallocs; the LIFO freelist must evolve
        // identically on both sides.
        cold.take(refs_cold[2]);
        warm.take(refs_warm[2]);
        cold.take(refs_cold[5]);
        warm.take(refs_warm[5]);
        for seq in 8..11 {
            refs_cold.push(cold.alloc(mk(seq)));
            refs_warm.push(warm.alloc(mk(seq)));
        }
        assert_eq!(refs_cold, refs_warm);
        assert_eq!(cold.capacity(), warm.capacity());
    }

    #[test]
    fn packet_ref_debug_is_opaque() {
        let mut arena = PacketArena::new();
        let r0 = arena.alloc(Packet::datagram(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            MSS,
            Time::ZERO,
        ));
        arena.take(r0);
        let r1 = arena.alloc(Packet::datagram(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            MSS,
            Time::ZERO,
        ));
        // Recycled slot, but the rendered form must not reveal which slot
        // was handed out — schedule history stays out of Debug output.
        assert_eq!(format!("{:?}", r0), format!("{:?}", r1));
        assert!(!format!("{:?}", r1).contains('0'));
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn arena_rejects_double_take() {
        let mut arena = PacketArena::new();
        let r = arena.alloc(Packet::datagram(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            MSS,
            Time::ZERO,
        ));
        arena.take(r);
        arena.take(r);
    }

    #[test]
    fn data_packet_carries_header_overhead() {
        let p = Packet::data(
            FlowId(1),
            EntityId(2),
            NodeId(0),
            NodeId(1),
            5,
            MSS,
            false,
            Time::ZERO,
        );
        assert_eq!(p.size, MSS + HEADER_BYTES);
        assert_eq!(p.payload(), MSS);
        assert!(p.is_data());
        assert!(!p.is_ack());
    }

    #[test]
    fn ack_reverses_direction_and_echoes_signals() {
        let mut d = Packet::data(
            FlowId(1),
            EntityId(2),
            NodeId(3),
            NodeId(9),
            5,
            MSS,
            false,
            Time::from_micros(10),
        );
        d.ecn = Ecn::CongestionExperienced;
        d.vdelay_ns = 1234;
        let a = Packet::ack_for(&d, 6, 6, false, Time::from_micros(20));
        assert_eq!(a.src, NodeId(9));
        assert_eq!(a.dst, NodeId(3));
        match a.transport {
            TransportHeader::Ack {
                cum_ack,
                ecn_echo,
                vdelay_echo_ns,
                ts_echo,
                ..
            } => {
                assert_eq!(cum_ack, 6);
                assert!(ecn_echo);
                assert_eq!(vdelay_echo_ns, 1234);
                assert_eq!(ts_echo, Time::from_micros(10));
            }
            _ => panic!("not an ack"),
        }
    }

    #[test]
    fn ecn_codepoint_semantics() {
        assert!(!Ecn::NotCapable.can_mark());
        assert!(Ecn::Capable.can_mark());
        assert!(Ecn::CongestionExperienced.can_mark());
        assert!(Ecn::CongestionExperienced.is_marked());
        assert!(!Ecn::Capable.is_marked());
    }

    #[test]
    fn default_aq_tag_is_none() {
        assert!(!AqTag::NONE.is_some());
        assert!(AqTag(7).is_some());
    }
}
