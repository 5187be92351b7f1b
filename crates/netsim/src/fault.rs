//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded schedule of infrastructure faults — link
//! down/up transitions and flap trains, stochastic packet corruption on a
//! link, switch data-plane state wipes, and host pause/resume blackouts —
//! that the simulator replays through its ordinary event queue. Faults are
//! *data*, not callbacks: the same plan installed into the same network
//! with the same seeds reproduces the same run byte-for-byte, and the plan
//! itself is recorded into run reports so an experiment's failure schedule
//! is part of its provenance.
//!
//! Determinism contract:
//!
//! * fault events fire in `(time, insertion)` order like every other event;
//! * the stochastic corruption stream of each fault draws from its own
//!   generator, seeded from `(plan seed, fault index)` via SplitMix64
//!   derivation — independent of the traffic and jitter RNGs, so adding or
//!   removing a loss fault never perturbs unrelated randomness;
//! * packets lost to faults are accounted under dedicated drop causes
//!   ([`DropCause::LinkDown`](crate::queue::DropCause::LinkDown),
//!   [`DropCause::Corrupt`](crate::queue::DropCause::Corrupt)) so
//!   conservation checks still balance.

use crate::ids::{LinkId, NodeId};
use crate::time::{Duration, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One part per million — the unit corruption probabilities are expressed
/// in, so plans stay integer-exact (no floating point in the schedule).
const PPM: u32 = 1_000_000;

/// A single injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Take a link down. Packets serializing or propagating on it are lost
    /// ([`DropCause::LinkDown`](crate::queue::DropCause::LinkDown));
    /// packets already queued at the feeding port stay buffered.
    LinkDown {
        /// The link to kill.
        link: LinkId,
    },
    /// Bring a link back up; the feeding port resumes draining its queue.
    LinkUp {
        /// The link to restore.
        link: LinkId,
    },
    /// Start corrupting packets on a link: each arrival is independently
    /// lost with probability `loss_ppm / 1e6`, drawn from a dedicated
    /// seeded stream ([`DropCause::Corrupt`](crate::queue::DropCause::Corrupt)).
    LossStart {
        /// The link to corrupt.
        link: LinkId,
        /// Per-packet loss probability in parts per million.
        loss_ppm: u32,
    },
    /// Stop corrupting packets on a link.
    LossStop {
        /// The link to heal.
        link: LinkId,
    },
    /// Wipe the data-plane state of a switch (modelling a reboot): every
    /// pipeline's [`on_fault_reset`](crate::node::SwitchPipeline::on_fault_reset)
    /// hook fires and must rebuild per-entity state from later arrivals.
    AqReset {
        /// The switch to wipe.
        node: NodeId,
    },
    /// Black out a host: its sends and its arriving packets are dropped
    /// until resume. Timers keep firing (the host CPU is alive; its NIC is
    /// not), so sender retransmission timers exercise backoff.
    HostPause {
        /// The host to pause.
        node: NodeId,
    },
    /// End a host blackout.
    HostResume {
        /// The host to resume.
        node: NodeId,
    },
}

impl FaultKind {
    /// Stable lowercase label used in fault logs and serialized reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            FaultKind::LinkDown { .. } => "link_down",
            FaultKind::LinkUp { .. } => "link_up",
            FaultKind::LossStart { .. } => "loss_start",
            FaultKind::LossStop { .. } => "loss_stop",
            FaultKind::AqReset { .. } => "aq_reset",
            FaultKind::HostPause { .. } => "host_pause",
            FaultKind::HostResume { .. } => "host_resume",
        }
    }

    /// The faulted element, rendered with its id prefix (`l3`, `n7`).
    pub(crate) fn target(&self) -> String {
        match self {
            FaultKind::LinkDown { link }
            | FaultKind::LinkUp { link }
            | FaultKind::LossStart { link, .. }
            | FaultKind::LossStop { link } => link.to_string(),
            FaultKind::AqReset { node }
            | FaultKind::HostPause { node }
            | FaultKind::HostResume { node } => node.to_string(),
        }
    }
}

/// A fault scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: Time,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, ordered schedule of faults to inject into one run.
///
/// Build with the fluent helpers, then hand to
/// [`Simulator::install_faults`](crate::sim::Simulator::install_faults)
/// before the run starts:
///
/// ```
/// use aq_netsim::fault::FaultPlan;
/// use aq_netsim::ids::LinkId;
/// use aq_netsim::time::{Duration, Time};
///
/// let plan = FaultPlan::new(42)
///     .flap(
///         LinkId(0),
///         Time::from_millis(10),
///         2,
///         Duration::from_millis(1),
///         Duration::from_millis(4),
///     )
///     .loss_window(LinkId(1), Time::from_millis(30), Time::from_millis(40), 50_000);
/// assert_eq!(plan.events.len(), 6); // 2 flaps * (down + up) + loss start/stop
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the plan's stochastic faults. Independent streams are
    /// derived per fault index, so two loss faults in one plan never share
    /// a generator.
    pub seed: u64,
    /// The schedule. Order is preserved; same-time faults fire in plan
    /// order (the event queue breaks time ties by insertion).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan with the given stochastic seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedule one fault.
    pub fn event(mut self, at: Time, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Schedule a flap train: `flaps` down/up cycles starting at
    /// `first_down`, each holding the link down for `down_for` and then up
    /// for `up_for` before the next cycle.
    pub fn flap(
        mut self,
        link: LinkId,
        first_down: Time,
        flaps: u32,
        down_for: Duration,
        up_for: Duration,
    ) -> FaultPlan {
        let mut at = first_down;
        for _ in 0..flaps {
            self.events.push(FaultEvent {
                at,
                kind: FaultKind::LinkDown { link },
            });
            at += down_for;
            self.events.push(FaultEvent {
                at,
                kind: FaultKind::LinkUp { link },
            });
            at += up_for;
        }
        self
    }

    /// Schedule a corruption window on `link` over `[from, until)` with the
    /// given per-packet loss probability (parts per million).
    pub fn loss_window(self, link: LinkId, from: Time, until: Time, loss_ppm: u32) -> FaultPlan {
        self.event(from, FaultKind::LossStart { link, loss_ppm })
            .event(until, FaultKind::LossStop { link })
    }

    /// Schedule a switch data-plane wipe at `at`.
    pub fn aq_reset(self, node: NodeId, at: Time) -> FaultPlan {
        self.event(at, FaultKind::AqReset { node })
    }

    /// Schedule a host blackout over `[from, until)`.
    pub fn blackout(self, node: NodeId, from: Time, until: Time) -> FaultPlan {
        self.event(from, FaultKind::HostPause { node })
            .event(until, FaultKind::HostResume { node })
    }

    /// The derived seed of the stochastic stream belonging to the fault at
    /// `index` in the plan. SplitMix64-style mixing (the same derivation
    /// `SmallRng::seed_from_u64` uses internally) keeps streams of nearby
    /// indices statistically independent.
    fn stream_seed(&self, index: usize) -> u64 {
        self.seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// One fault as actually applied during a run (the fault log recorded into
/// reports: what fired, when, and at which element).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedFault {
    /// Simulation time the fault fired.
    pub at: Time,
    /// The fault's kind as a stable lowercase label (`link_down`,
    /// `loss_start`, `aq_reset`, …).
    pub kind: &'static str,
    /// The faulted element, rendered with its id prefix (`l3`, `n7`).
    pub target: String,
    /// Index of the fault in its [`FaultPlan`]. Same-time entries sort by
    /// plan order, which makes logs produced by independent shards merge
    /// back into exactly the single-threaded log.
    pub plan_index: usize,
}

/// Run-wide totals of fault-caused packet loss, by cause.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Fault events applied so far.
    pub injected: u64,
    /// Packets lost on a dead link (serializing or propagating at death).
    pub link_down_drops: u64,
    /// Wire bytes of [`link_down_drops`](FaultTotals::link_down_drops).
    pub link_down_dropped_bytes: u64,
    /// Packets lost to stochastic corruption.
    pub corrupt_drops: u64,
    /// Wire bytes of [`corrupt_drops`](FaultTotals::corrupt_drops).
    pub corrupt_dropped_bytes: u64,
    /// Packets dropped at a blacked-out host (sends and arrivals).
    pub pause_drops: u64,
    /// Wire bytes of [`pause_drops`](FaultTotals::pause_drops).
    pub pause_dropped_bytes: u64,
}

/// An active corruption process on one link.
pub(crate) struct LossProcess {
    loss_ppm: u32,
    rng: SmallRng,
}

impl LossProcess {
    pub(crate) fn new(seed: u64, loss_ppm: u32) -> LossProcess {
        LossProcess {
            loss_ppm,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Draw one Bernoulli trial: `true` means the packet is corrupted.
    pub(crate) fn corrupts(&mut self) -> bool {
        self.rng.gen_range(0..PPM as u64) < self.loss_ppm as u64
    }
}

/// One corruption window on a link, precomputed from the plan.
///
/// `stop` is [`Time::MAX`] for a window the plan never closes. The
/// stochastic process is created lazily on the first packet whose arrival
/// lands in the window, seeded from the opening fault's plan index — so a
/// window draws the same stream no matter which shard evaluates it.
pub(crate) struct LossWindow {
    start: Time,
    stop: Time,
    loss_ppm: u32,
    stream_seed: u64,
    process: Option<LossProcess>,
}

/// The precomputed wire fate of every link: when it dies and when it
/// corrupts.
///
/// Faults are plan data, so a packet's fate on the wire is decidable the
/// moment it launches: the down-transitions and corruption windows of each
/// link are replayed from the plan up front (with the same up-state guards
/// [`apply_fault`](crate::sim::Simulator) uses), and the launch path asks
/// two questions — does a down-transition fall inside my flight interval,
/// and does a corruption window cover my arrival? Evaluating fate at
/// launch instead of arrival is what lets a shard decide the fate of a
/// cross-shard packet without consulting the destination shard's state.
pub(crate) struct WireFate {
    /// Per link: effective down-transition times, in firing order.
    downs: Vec<Vec<Time>>,
    /// Per link: corruption windows ordered by start, non-overlapping (a
    /// `LossStart` inside an open window closes it, as the live engine's
    /// process-overwrite did).
    windows: Vec<Vec<LossWindow>>,
}

impl WireFate {
    /// Fault-free fate for `links` links.
    pub(crate) fn new(links: usize) -> WireFate {
        WireFate {
            downs: vec![Vec::new(); links],
            windows: (0..links).map(|_| Vec::new()).collect(),
        }
    }

    /// Replay `plan` into per-link schedules. Events are applied in the
    /// order the event queue would fire them: `(time, plan index)`.
    pub(crate) fn from_plan(plan: &FaultPlan, links: usize) -> WireFate {
        let mut fate = WireFate::new(links);
        let mut order: Vec<usize> = (0..plan.events.len()).collect();
        order.sort_by_key(|&i| (plan.events[i].at, i));
        let mut up = vec![true; links];
        let mut open: Vec<Option<usize>> = vec![None; links];
        for i in order {
            let ev = &plan.events[i];
            match ev.kind {
                FaultKind::LinkDown { link } => {
                    let l = link.index();
                    if up[l] {
                        up[l] = false;
                        fate.downs[l].push(ev.at);
                    }
                }
                FaultKind::LinkUp { link } => up[link.index()] = true,
                FaultKind::LossStart { link, loss_ppm } => {
                    let l = link.index();
                    if let Some(w) = open[l].take() {
                        fate.windows[l][w].stop = ev.at;
                    }
                    open[l] = Some(fate.windows[l].len());
                    fate.windows[l].push(LossWindow {
                        start: ev.at,
                        stop: Time::MAX,
                        loss_ppm,
                        stream_seed: plan.stream_seed(i),
                        process: None,
                    });
                }
                FaultKind::LossStop { link } => {
                    let l = link.index();
                    if let Some(w) = open[l].take() {
                        fate.windows[l][w].stop = ev.at;
                    }
                }
                FaultKind::AqReset { .. }
                | FaultKind::HostPause { .. }
                | FaultKind::HostResume { .. } => {}
            }
        }
        fate
    }

    /// Does a down-transition land strictly after launch and at-or-before
    /// arrival? Transitions exactly at the arrival instant kill the packet
    /// because fault events outrank arrivals in the same-time tie-break.
    pub(crate) fn cut_in_flight(&self, link: usize, launched: Time, arrives: Time) -> bool {
        self.downs[link]
            .iter()
            .any(|&d| launched < d && d <= arrives)
    }

    /// Draw the corruption trial for a packet arriving on `link` at
    /// `arrives`; `true` means the packet dies on the wire. Windows are
    /// half-open `[start, stop)` — an arrival sharing an instant with
    /// `LossStart` is corrupted-checked, one sharing with `LossStop` is
    /// not, matching the fault-before-arrival tie-break.
    pub(crate) fn corrupts(&mut self, link: usize, arrives: Time) -> bool {
        for w in &mut self.windows[link] {
            if w.start <= arrives && arrives < w.stop {
                let ppm = w.loss_ppm;
                return w
                    .process
                    .get_or_insert_with(|| LossProcess::new(w.stream_seed, ppm))
                    .corrupts();
            }
        }
        false
    }
}

/// The simulator's runtime fault state: installed plan plus per-link and
/// per-node health, the applied-fault log, and loss totals.
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    /// Per-link health; packets only launch onto up links.
    pub(crate) link_up: Vec<bool>,
    /// Cumulative down-transitions per link. Packets capture the epoch at
    /// launch; any mismatch at serialization end means the wire died (and
    /// possibly revived) underneath them, so they are lost.
    pub(crate) link_downs: Vec<u64>,
    /// Launch-time wire fate: precomputed down-transitions and corruption
    /// windows per link.
    pub(crate) wire: WireFate,
    /// Per-node blackout flag.
    pub(crate) paused: Vec<bool>,
    pub(crate) log: Vec<AppliedFault>,
    pub(crate) totals: FaultTotals,
}

impl FaultState {
    pub(crate) fn new(links: usize, nodes: usize) -> FaultState {
        FaultState {
            plan: FaultPlan::default(),
            link_up: vec![true; links],
            link_downs: vec![0; links],
            wire: WireFate::new(links),
            paused: vec![false; nodes],
            log: Vec::new(),
            totals: FaultTotals::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flap_train_alternates_down_and_up() {
        let plan = FaultPlan::new(1).flap(
            LinkId(2),
            Time::from_millis(5),
            3,
            Duration::from_millis(1),
            Duration::from_millis(2),
        );
        let kinds: Vec<&str> = plan.events.iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            kinds,
            [
                "link_down",
                "link_up",
                "link_down",
                "link_up",
                "link_down",
                "link_up"
            ]
        );
        let times: Vec<u64> = plan.events.iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(
            times,
            [5_000_000, 6_000_000, 8_000_000, 9_000_000, 11_000_000, 12_000_000]
        );
    }

    #[test]
    fn stream_seeds_differ_per_fault_index() {
        let plan = FaultPlan::new(7);
        let a = plan.stream_seed(0);
        let b = plan.stream_seed(1);
        assert_ne!(a, b);
        assert_ne!(a, plan.seed);
        // Same plan, same index: same stream.
        assert_eq!(a, FaultPlan::new(7).stream_seed(0));
        // Different plan seed: different stream.
        assert_ne!(a, FaultPlan::new(8).stream_seed(0));
    }

    #[test]
    fn loss_process_is_reproducible_and_respects_extremes() {
        let mut never = LossProcess::new(9, 0);
        let mut always = LossProcess::new(9, PPM);
        for _ in 0..100 {
            assert!(!never.corrupts());
            assert!(always.corrupts());
        }
        let draws = |seed| {
            let mut p = LossProcess::new(seed, PPM / 2);
            (0..64).map(|_| p.corrupts()).collect::<Vec<_>>()
        };
        assert_eq!(draws(3), draws(3));
        assert_ne!(draws(3), draws(4));
    }

    #[test]
    fn wire_fate_counts_guarded_down_transitions_only() {
        // A second LinkDown on an already-dead link is a no-op, exactly as
        // apply_fault's up-state guard makes it.
        let plan = FaultPlan::new(1)
            .event(
                Time::from_millis(5),
                FaultKind::LinkDown { link: LinkId(0) },
            )
            .event(
                Time::from_millis(6),
                FaultKind::LinkDown { link: LinkId(0) },
            )
            .event(Time::from_millis(7), FaultKind::LinkUp { link: LinkId(0) })
            .event(
                Time::from_millis(9),
                FaultKind::LinkDown { link: LinkId(0) },
            );
        let fate = WireFate::from_plan(&plan, 1);
        // In flight across the first death only.
        assert!(fate.cut_in_flight(0, Time::from_millis(4), Time::from_millis(5)));
        // Launch exactly at the transition is covered by the serialization
        // cut check, not the flight interval.
        assert!(!fate.cut_in_flight(0, Time::from_millis(5), Time::from_millis(6)));
        // The redundant second down is not a transition.
        assert!(!fate.cut_in_flight(0, Time::from_nanos(5_000_001), Time::from_millis(8)));
        assert!(fate.cut_in_flight(0, Time::from_millis(8), Time::from_millis(10)));
    }

    #[test]
    fn wire_fate_windows_are_half_open_and_seed_stable() {
        let plan = FaultPlan::new(3).loss_window(
            LinkId(0),
            Time::from_millis(10),
            Time::from_millis(20),
            PPM,
        );
        let mut fate = WireFate::from_plan(&plan, 1);
        assert!(!fate.corrupts(0, Time::from_nanos(9_999_999)));
        assert!(fate.corrupts(0, Time::from_millis(10)));
        assert!(fate.corrupts(0, Time::from_nanos(19_999_999)));
        assert!(!fate.corrupts(0, Time::from_millis(20)));
        // Two independent replays of the same plan draw the same stream.
        let draws = |n: u64| {
            let mut f = WireFate::from_plan(
                &FaultPlan::new(3).loss_window(
                    LinkId(0),
                    Time::from_millis(10),
                    Time::from_millis(20),
                    PPM / 2,
                ),
                1,
            );
            (0..n)
                .map(|i| f.corrupts(0, Time::from_nanos(10_000_000 + i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(64), draws(64));
    }

    #[test]
    fn labels_and_targets_render_the_faulted_element() {
        let k = FaultKind::LossStart {
            link: LinkId(4),
            loss_ppm: 100,
        };
        assert_eq!(k.label(), "loss_start");
        assert_eq!(k.target(), "l4");
        let k = FaultKind::HostPause { node: NodeId(9) };
        assert_eq!(k.label(), "host_pause");
        assert_eq!(k.target(), "n9");
    }
}
