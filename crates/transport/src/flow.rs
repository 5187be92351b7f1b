//! Flow specifications.
//!
//! A [`FlowSpec`] describes one unidirectional flow: who talks to whom, how
//! much, starting when, under which transport (a TCP-like reliable flow
//! with one of the five CC algorithms, or unreactive UDP), which AQ id tags
//! its packets carry, and which delay signal a delay-based CC consumes.

use crate::cc::CcAlgo;
use aq_netsim::ids::{EntityId, FlowId, NodeId};
use aq_netsim::packet::{AqTag, MSS};
use aq_netsim::time::{Rate, Time};

/// Transport kind for a flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowKind {
    /// Reliable, window-based transport under the given congestion control.
    Tcp(CcAlgo),
    /// Unreliable constant-bit-rate datagrams at the given rate — the
    /// "aggressive UDP application" of the paper's experiments.
    Udp {
        /// Sending rate (paced; typically the link capacity).
        rate: Rate,
    },
}

/// Where a delay-based CC reads its queuing-delay signal from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelaySignal {
    /// `rtt − min_rtt` measured end to end (physical queues).
    #[default]
    MeasuredRtt,
    /// The AQ-accumulated virtual queuing delay echoed by the receiver
    /// (§3.3.2).
    VirtualDelay,
}

/// Full description of one flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Unique flow id (assigned by the workload/scenario generator).
    pub flow: FlowId,
    /// The entity this flow belongs to (unit of bandwidth guarantee).
    pub entity: EntityId,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Payload bytes to transfer; `None` for a long-lived flow.
    pub bytes: Option<u64>,
    /// Absolute start time.
    pub start: Time,
    /// Transport kind.
    pub kind: FlowKind,
    /// AQ id matched at switch ingress pipelines (0 = none).
    pub aq_ingress: AqTag,
    /// AQ id matched at switch egress pipelines (0 = none).
    pub aq_egress: AqTag,
    /// Delay-signal source for delay-based CC.
    pub delay_signal: DelaySignal,
    /// Segment payload size.
    pub mss: u32,
    /// Closed-loop chaining: start this flow when `after` completes
    /// (sender side) instead of at `start`. Models a VM worker replaying
    /// its trace entries back to back.
    pub after: Option<FlowId>,
}

impl FlowSpec {
    /// A long-lived TCP flow with default MSS and measured-RTT delay.
    pub fn long_tcp(
        flow: FlowId,
        entity: EntityId,
        src: NodeId,
        dst: NodeId,
        cc: CcAlgo,
    ) -> FlowSpec {
        FlowSpec {
            flow,
            entity,
            src,
            dst,
            bytes: None,
            start: Time::ZERO,
            kind: FlowKind::Tcp(cc),
            aq_ingress: AqTag::NONE,
            aq_egress: AqTag::NONE,
            delay_signal: DelaySignal::MeasuredRtt,
            mss: MSS,
            after: None,
        }
    }

    /// A finite TCP transfer of `bytes` starting at `start`.
    pub fn sized_tcp(
        flow: FlowId,
        entity: EntityId,
        src: NodeId,
        dst: NodeId,
        cc: CcAlgo,
        bytes: u64,
        start: Time,
    ) -> FlowSpec {
        FlowSpec {
            bytes: Some(bytes),
            start,
            ..FlowSpec::long_tcp(flow, entity, src, dst, cc)
        }
    }

    /// A long-lived paced UDP flow at `rate`.
    pub fn long_udp(
        flow: FlowId,
        entity: EntityId,
        src: NodeId,
        dst: NodeId,
        rate: Rate,
    ) -> FlowSpec {
        FlowSpec {
            kind: FlowKind::Udp { rate },
            ..FlowSpec::long_tcp(flow, entity, src, dst, CcAlgo::NewReno)
        }
    }

    /// Tag every packet of this flow with AQ ids (builder style).
    pub fn with_aq(mut self, ingress: AqTag, egress: AqTag) -> FlowSpec {
        self.aq_ingress = ingress;
        self.aq_egress = egress;
        self
    }

    /// Chain behind another flow (builder style): this flow starts when
    /// `prev` completes rather than at an absolute time.
    pub fn chained_after(mut self, prev: FlowId) -> FlowSpec {
        self.after = Some(prev);
        self
    }

    /// Number of segments for a finite flow (`None` for long-lived).
    pub fn total_segments(&self) -> Option<u64> {
        self.bytes.map(|b| b.div_ceil(self.mss as u64).max(1))
    }

    /// Payload size of segment `seq`.
    pub(crate) fn segment_payload(&self, seq: u64) -> u32 {
        match self.bytes {
            None => self.mss,
            Some(total) => {
                let sent_before = seq * self.mss as u64;
                let remaining = total.saturating_sub(sent_before);
                remaining.min(self.mss as u64) as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bytes: u64) -> FlowSpec {
        FlowSpec::sized_tcp(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            CcAlgo::Cubic,
            bytes,
            Time::ZERO,
        )
    }

    #[test]
    fn segment_count_rounds_up() {
        assert_eq!(spec(1).total_segments(), Some(1));
        assert_eq!(spec(1000).total_segments(), Some(1));
        assert_eq!(spec(1001).total_segments(), Some(2));
        assert_eq!(spec(2500).total_segments(), Some(3));
    }

    #[test]
    fn last_segment_is_partial() {
        let s = spec(2500);
        assert_eq!(s.segment_payload(0), 1000);
        assert_eq!(s.segment_payload(1), 1000);
        assert_eq!(s.segment_payload(2), 500);
    }

    #[test]
    fn long_lived_flow_has_no_end() {
        let s = FlowSpec::long_tcp(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(1),
            CcAlgo::NewReno,
        );
        assert_eq!(s.total_segments(), None);
        assert_eq!(s.segment_payload(12345), MSS);
    }

    #[test]
    fn with_aq_sets_both_tags() {
        let s = spec(1000).with_aq(AqTag(3), AqTag(4));
        assert_eq!(s.aq_ingress, AqTag(3));
        assert_eq!(s.aq_egress, AqTag(4));
    }
}
