//! The receiver: reassembly, cumulative + SACK-right-edge acknowledgment,
//! ECN echo, virtual-delay echo, and flow-completion reporting.

use aq_netsim::ids::FlowId;
use aq_netsim::node::HostCtx;
use aq_netsim::packet::{Packet, TransportHeader};
use std::collections::BTreeSet;

/// Receiver-side state of one reliable flow (created on the first data
/// packet).
#[derive(Debug)]
pub struct ReceiverFlow {
    /// The flow being received.
    pub flow: FlowId,
    /// Next in-order sequence expected.
    cum: u64,
    /// Sequences received above `cum`.
    out_of_order: BTreeSet<u64>,
    /// Sequence of the FIN segment, once seen.
    fin_seq: Option<u64>,
    /// All data up to and including FIN has arrived.
    pub completed: bool,
}

impl ReceiverFlow {
    /// Fresh state for `flow`.
    pub fn new(flow: FlowId) -> ReceiverFlow {
        ReceiverFlow {
            flow,
            cum: 0,
            out_of_order: BTreeSet::new(),
            fin_seq: None,
            completed: false,
        }
    }

    /// Next expected in-order sequence.
    pub fn cum_ack(&self) -> u64 {
        self.cum
    }

    /// SACK right edge: one past the highest sequence held.
    pub fn sack_hi(&self) -> u64 {
        self.out_of_order
            .iter()
            .next_back()
            .map(|s| s + 1)
            .unwrap_or(self.cum)
            .max(self.cum)
    }

    /// Process a data segment: reassemble and send an ACK back. Reports
    /// flow completion to the stats hub the first time all bytes are held.
    pub fn on_data(&mut self, ctx: &mut HostCtx<'_>, pkt: &Packet) {
        let TransportHeader::Data { seq, fin } = pkt.transport else {
            return;
        };
        if fin {
            self.fin_seq = Some(seq);
        }
        if seq == self.cum {
            self.cum += 1;
            while self.out_of_order.remove(&self.cum) {
                self.cum += 1;
            }
        } else if seq > self.cum {
            self.out_of_order.insert(seq);
        } // seq < cum: duplicate of already-delivered data; ACK anyway.
        if !self.completed {
            if let Some(f) = self.fin_seq {
                if self.cum > f {
                    self.completed = true;
                    ctx.stats.flow_completed(self.flow, ctx.now);
                }
            }
        }
        let ack = Packet::ack_for(pkt, self.cum, self.sack_hi(), self.completed, ctx.now);
        ctx.send(ack);
    }

    /// Retire a completed flow, keeping only its cumulative ACK point.
    /// Every later segment is a duplicate below it, and with nothing held
    /// out of order `sack_hi() == cum_ack()`, so `(cum, cum, true)` is
    /// exactly the ACK this state would have sent.
    pub(crate) fn retire(self) -> u64 {
        aq_netsim::invariant!(
            self.completed && self.out_of_order.is_empty(),
            "{} retires with completed={} and {} segments out of order",
            self.flow,
            self.completed,
            self.out_of_order.len()
        );
        self.cum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_netsim::ids::{EntityId, NodeId};
    use aq_netsim::stats::StatsHub;
    use aq_netsim::time::Time;

    fn data(seq: u64, fin: bool) -> Packet {
        Packet::data(
            FlowId(7),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            seq,
            1000,
            fin,
            Time::ZERO,
        )
    }

    fn deliver(r: &mut ReceiverFlow, stats: &mut StatsHub, seq: u64, fin: bool) -> Packet {
        let mut ctx = HostCtx::new(Time::from_micros(seq * 10 + 1), NodeId(1), stats);
        r.on_data(&mut ctx, &data(seq, fin));
        let mut sends = ctx.take_sends();
        assert_eq!(sends.len(), 1, "every data packet is acked");
        sends.pop().expect("ack")
    }

    fn ack_fields(p: &Packet) -> (u64, u64, bool) {
        match p.transport {
            TransportHeader::Ack {
                cum_ack,
                sack_hi,
                fin_acked,
                ..
            } => (cum_ack, sack_hi, fin_acked),
            _ => panic!("not an ack"),
        }
    }

    #[test]
    fn in_order_delivery_advances_cum() {
        let mut r = ReceiverFlow::new(FlowId(7));
        let mut stats = StatsHub::new();
        for seq in 0..3 {
            let ack = deliver(&mut r, &mut stats, seq, false);
            assert_eq!(ack_fields(&ack), (seq + 1, seq + 1, false));
        }
    }

    #[test]
    fn hole_produces_dup_acks_with_growing_sack() {
        let mut r = ReceiverFlow::new(FlowId(7));
        let mut stats = StatsHub::new();
        deliver(&mut r, &mut stats, 0, false);
        // 1 lost; 2, 3, 4 arrive.
        let a2 = deliver(&mut r, &mut stats, 2, false);
        let a3 = deliver(&mut r, &mut stats, 3, false);
        let a4 = deliver(&mut r, &mut stats, 4, false);
        assert_eq!(ack_fields(&a2), (1, 3, false));
        assert_eq!(ack_fields(&a3), (1, 4, false));
        assert_eq!(ack_fields(&a4), (1, 5, false));
        // Retransmission of 1 fills the hole and jumps cum to 5.
        let a1 = deliver(&mut r, &mut stats, 1, false);
        assert_eq!(ack_fields(&a1), (5, 5, false));
    }

    #[test]
    fn completion_requires_all_segments_through_fin() {
        let mut r = ReceiverFlow::new(FlowId(7));
        let mut stats = StatsHub::new();
        stats.register_flow(FlowId(7), EntityId(1), 3000, Time::ZERO);
        deliver(&mut r, &mut stats, 0, false);
        // FIN arrives out of order: not complete (segment 1 missing).
        let afin = deliver(&mut r, &mut stats, 2, true);
        assert_eq!(ack_fields(&afin), (1, 3, false));
        assert!(!r.completed);
        let a1 = deliver(&mut r, &mut stats, 1, false);
        assert_eq!(ack_fields(&a1), (3, 3, true));
        assert!(r.completed);
        assert!(stats.flow(FlowId(7)).expect("registered").end.is_some());
    }

    #[test]
    fn duplicate_data_is_acked_but_not_recounted_for_cum() {
        let mut r = ReceiverFlow::new(FlowId(7));
        let mut stats = StatsHub::new();
        deliver(&mut r, &mut stats, 0, false);
        let dup = deliver(&mut r, &mut stats, 0, false);
        assert_eq!(ack_fields(&dup), (1, 1, false));
    }
}
