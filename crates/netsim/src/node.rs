//! Nodes: hosts running application logic and switches running pipelines.
//!
//! Host behaviour (transports, traffic generators) is supplied by the user
//! of this crate through the [`HostApp`] trait; switch data-plane extensions
//! (the AQ pipeline, or nothing for a plain physical-queue switch) are
//! supplied through [`SwitchPipeline`]. The simulator core owns the nodes
//! and drives these traits.

use crate::ids::{NodeId, PortId};
use crate::packet::Packet;
use crate::stats::StatsHub;
use crate::time::{Duration, Time};

/// Verdict of a switch pipeline stage on a packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PipelineVerdict {
    /// Continue processing / forward the packet.
    Forward,
    /// Drop the packet here (counted as a pipeline drop).
    Drop,
    /// Drop the packet because its flow's in-network state could not be
    /// admitted (the pipeline's state table is at its register budget and
    /// the stage polices rather than degrades). Accounted separately from
    /// [`PipelineVerdict::Drop`] under
    /// [`DropCause::AqTableOverflow`](crate::queue::DropCause::AqTableOverflow).
    DropOverflow,
}

/// A control-plane operation delivered to a switch pipeline mid-run — the
/// payload of a [`ChurnPlan`](crate::churn::ChurnPlan) event. Plain data:
/// this crate does not know what an AQ is, so the pipeline implementation
/// interprets the ids and rates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PipelineControl {
    /// Provision per-tenant state under `id` (an AQ table deploy).
    Create {
        /// The tenant/AQ id.
        id: u32,
        /// Allocated rate in bit/s.
        rate_bps: u64,
        /// Enforcement limit in bytes.
        limit_bytes: u64,
    },
    /// Tear down the per-tenant state under `id`.
    Destroy {
        /// The tenant/AQ id.
        id: u32,
    },
}

/// A programmable stage in a switch data plane, matching the paper's §4.2:
/// the stage sees every packet once at ingress (right after arrival, before
/// routing) and once at egress (after routing, before the output queue).
///
/// The AQ data plane in `aq-core` implements this trait; a vanilla switch
/// has no pipelines and every packet is simply forwarded.
pub trait SwitchPipeline: Send {
    /// Ingress-pipeline processing. May rewrite header fields (ECN,
    /// virtual delay) and may drop.
    fn ingress(&mut self, now: Time, pkt: &mut Packet) -> PipelineVerdict;

    /// Egress-pipeline processing, after the output port is chosen.
    /// `backlog_bytes` is the current occupancy of the chosen output
    /// port's physical queue (lets an AQ implement the §6 bypass-when-idle
    /// work-conservation mode).
    fn egress(
        &mut self,
        now: Time,
        pkt: &mut Packet,
        out_port: PortId,
        backlog_bytes: u64,
    ) -> PipelineVerdict;

    /// Control-plane hook: a churn event ([`crate::churn::ChurnPlan`])
    /// asks the pipeline to create or destroy per-tenant state mid-run.
    /// The default is a no-op — a pipeline with no per-tenant state (or
    /// one not participating in the churn experiment) ignores control
    /// traffic.
    fn on_control(&mut self, _now: Time, _op: &PipelineControl) {}

    /// Fault hook: the switch lost its data-plane state at `now` (e.g. a
    /// reboot injected by a [`FaultPlan`](crate::fault::FaultPlan)).
    /// Implementations must discard dynamic per-entity state and rebuild
    /// it from subsequent arrivals; configuration (deployed by the control
    /// plane) may be retained. The default is a no-op — a stateless
    /// pipeline has nothing to lose.
    fn on_fault_reset(&mut self, _now: Time) {}

    /// Downcast hook so the control plane can reconfigure a deployed
    /// pipeline (e.g. update AQ rates) through the trait object.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Side effects a host app requests from the simulator during a callback.
///
/// The context is drained by the simulator when the callback returns:
/// packets are routed out of the host's ports and timers are scheduled.
pub struct HostCtx<'a> {
    /// Current simulation time.
    pub now: Time,
    /// The host this callback runs on.
    pub node: NodeId,
    /// Shared measurement sink (flow completions, custom series).
    pub stats: &'a mut StatsHub,
    pub(crate) sends: Vec<Packet>,
    pub(crate) timers: Vec<(Time, u64)>,
}

impl<'a> HostCtx<'a> {
    /// A fresh context (the simulator builds these before each callback;
    /// public so host apps can be unit-tested standalone).
    pub fn new(now: Time, node: NodeId, stats: &'a mut StatsHub) -> HostCtx<'a> {
        HostCtx {
            now,
            node,
            stats,
            sends: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Transmit `pkt` from this host. The packet is routed toward
    /// `pkt.dst` and offered to the uplink port's queue discipline.
    pub fn send(&mut self, pkt: Packet) {
        self.sends.push(pkt);
    }

    /// Arm a timer that fires [`HostApp::on_timer`] at absolute time `at`
    /// with the opaque `token`.
    pub fn arm_timer_at(&mut self, at: Time, token: u64) {
        self.timers.push((at, token));
    }

    /// Arm a timer `after` from now.
    pub fn arm_timer_in(&mut self, after: Duration, token: u64) {
        let at = self.now + after;
        self.timers.push((at, token));
    }

    /// Drain the packets queued by [`send`](HostCtx::send) — used by the
    /// simulator after each callback, and by unit tests driving app logic
    /// standalone.
    pub fn take_sends(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.sends)
    }

    /// Drain the armed timers — counterpart of [`take_sends`](HostCtx::take_sends).
    pub fn take_timers(&mut self) -> Vec<(Time, u64)> {
        std::mem::take(&mut self.timers)
    }
}

/// Application logic running on a host: transports, traffic sources, sinks.
pub trait HostApp: Send {
    /// Called once at simulation start (time zero) before any packet moves.
    fn on_start(&mut self, ctx: &mut HostCtx<'_>);

    /// Called when a packet addressed to this host arrives.
    fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: Packet);

    /// Called when a timer armed through the context fires.
    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64);

    /// Downcast hook so experiment harnesses can inspect application state
    /// (e.g. sender statistics) after — or during — a run.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// What a node is.
pub enum NodeKind {
    /// A host. The app slot is `Option` so the simulator can temporarily
    /// take the app out while running a callback (avoiding aliased
    /// borrows of the node table).
    Host {
        /// The installed application, if any.
        app: Option<Box<dyn HostApp>>,
    },
    /// A switch with an ordered list of pipeline stages.
    Switch {
        /// Pipeline stages, run in order on every forwarded packet.
        pipelines: Vec<Box<dyn SwitchPipeline>>,
    },
}

/// A node in the topology.
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// Host or switch.
    pub kind: NodeKind,
    /// Output ports owned by this node.
    pub ports: Vec<PortId>,
}

impl Node {
    /// Whether this node is a host.
    pub fn is_host(&self) -> bool {
        matches!(self.kind, NodeKind::Host { .. })
    }
}
