//! The reliable sender: window-based transmission with an exact SACK
//! scoreboard, FACK-style loss marking, RTO fallback, RTT estimation, and
//! the bridge between network feedback and the pluggable congestion
//! control.
//!
//! Because the receiver acknowledges every data packet and each ACK names
//! the specific segment it covers (`this_seq`), the sender maintains a
//! *perfect* per-segment scoreboard — functionally Linux-grade SACK without
//! encoding block lists. A segment is marked lost once the highest SACKed
//! sequence is `DUPACK_THRESHOLD` beyond it (the FACK rule), and every
//! marked hole in a window is retransmitted as the window allows, so a
//! burst of losses (e.g. slow-start overshoot into an AQ policer) repairs
//! in roughly one round trip instead of one hole per RTT.

use crate::cc::{AckSignals, CongestionControl};
use crate::flow::{DelaySignal, FlowKind, FlowSpec};
use aq_netsim::node::HostCtx;
use aq_netsim::packet::{Ecn, Packet};
use aq_netsim::time::{Duration, Time};
use std::collections::VecDeque;

/// Reordering tolerance: a hole is declared lost once this many segments
/// beyond it have been SACKed.
const DUPACK_THRESHOLD: u64 = 3;
/// Lower bound on the retransmission timeout (data center scale; Linux
/// deployments in DCs commonly tune this to ~1 ms).
const MIN_RTO: Duration = Duration::from_millis(1);
/// Upper bound on the retransmission timeout.
const MAX_RTO: Duration = Duration::from_millis(200);
/// Cap on the exponential RTO backoff: consecutive timeouts double the
/// timeout up to `2^MAX_RTO_BACKOFF` times the base value (and the result
/// is always clamped to [`MAX_RTO`]). Further timeouts hold the cap
/// instead of widening the shift — a sender sitting through a long
/// blackout must keep probing, not go silent for an unbounded interval.
const MAX_RTO_BACKOFF: u32 = 6;

/// Scoreboard state of one sent, not-yet-cumulatively-acked segment.
/// The three states are mutually exclusive; SACK moves `InFlight` (or
/// `Lost`) to `Sacked`, loss marking moves `InFlight` to `Lost`, and a
/// retransmission moves `Lost` back to `InFlight`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SegState {
    /// Sent, not cum-acked, not SACKed, not marked lost — the pipe.
    InFlight,
    /// SACKed above `cum_ack`.
    Sacked,
    /// Marked lost, awaiting retransmission.
    Lost,
}

/// Per-segment scoreboard cell (see [`SenderFlow::window`]).
#[derive(Clone, Copy, Debug)]
struct SegCell {
    /// Last transmission time (RACK loss marking).
    sent_at: Time,
    state: SegState,
    /// Retransmitted at least once and not yet cumulatively
    /// acknowledged. An ACK covering such a segment is ambiguous — it
    /// may answer any copy — so it yields no RTT sample (Karn's rule).
    retransmitted: bool,
}

/// Sender-side state of one reliable flow.
pub struct SenderFlow {
    /// The flow description.
    pub spec: FlowSpec,
    cc: Box<dyn CongestionControl>,
    total_segments: Option<u64>,
    /// Next fresh sequence to send.
    snd_nxt: u64,
    /// All sequences below this are acknowledged.
    cum_ack: u64,
    /// The per-segment scoreboard for the active window
    /// `[cum_ack, snd_nxt)`, indexed by `seq - cum_ack`. Every ACK
    /// touches the scoreboard several times; a window-relative array
    /// makes each touch an O(1) index instead of an ordered-map descent,
    /// and cumulative progress is a run of `pop_front`s.
    window: VecDeque<SegCell>,
    /// Number of [`SegState::InFlight`] cells in `window`.
    in_flight_count: usize,
    /// Number of [`SegState::Lost`] cells in `window`.
    lost_count: usize,
    /// Highest SACKed sequence (FACK edge), if any.
    highest_sacked: Option<u64>,
    /// Fast-recovery end point: one cc reduction per window of loss.
    recovery_point: Option<u64>,
    /// Entering recovery grants one retransmission regardless of window
    /// space (classic fast retransmit).
    force_retransmit: bool,
    min_rtt: Option<Duration>,
    srtt_ns: f64,
    rttvar_ns: f64,
    rto_backoff: u32,
    /// When the retransmission timer should fire (None = nothing in
    /// flight). The host arms real simulator timers against this.
    pub rto_deadline: Option<Time>,
    /// The deadline the host has actually armed (stale-timer suppression).
    pub armed_rto: Option<Time>,
    /// All segments acknowledged (sender view).
    pub finished: bool,
    /// Cumulative retransmissions (diagnostics).
    pub retransmissions: u64,
    /// Cumulative segments sent, including retransmissions.
    pub segments_sent: u64,
    /// Loss-recovery episodes entered (diagnostics).
    pub recoveries: u64,
    /// RTO events (diagnostics).
    pub timeouts: u64,
}

impl SenderFlow {
    /// Build the sender for a TCP flow spec.
    ///
    /// # Panics
    /// Panics if the spec is UDP.
    pub fn new(spec: FlowSpec) -> SenderFlow {
        let FlowKind::Tcp(algo) = spec.kind else {
            panic!("SenderFlow requires a TCP spec");
        };
        let total_segments = spec.total_segments();
        SenderFlow {
            cc: algo.build(),
            total_segments,
            snd_nxt: 0,
            cum_ack: 0,
            window: VecDeque::new(),
            in_flight_count: 0,
            lost_count: 0,
            highest_sacked: None,
            recovery_point: None,
            force_retransmit: false,
            min_rtt: None,
            srtt_ns: 0.0,
            rttvar_ns: 0.0,
            rto_backoff: 0,
            rto_deadline: None,
            armed_rto: None,
            finished: false,
            retransmissions: 0,
            segments_sent: 0,
            recoveries: 0,
            timeouts: 0,
            spec,
        }
    }

    /// Current congestion window (segments).
    pub fn cwnd(&self) -> f64 {
        self.cc.cwnd()
    }

    /// Smoothed RTT estimate, if any sample has been taken.
    pub fn srtt(&self) -> Option<Duration> {
        (self.srtt_ns > 0.0).then(|| Duration::from_nanos(self.srtt_ns as u64))
    }

    /// Segments currently considered in the network.
    pub fn outstanding(&self) -> u64 {
        self.in_flight_count as u64
    }

    /// The scoreboard cell of `seq`, if it is inside the active window.
    fn cell(&self, seq: u64) -> Option<&SegCell> {
        let i = seq.checked_sub(self.cum_ack)?;
        self.window.get(i as usize)
    }

    fn cell_mut(&mut self, seq: u64) -> Option<&mut SegCell> {
        let i = seq.checked_sub(self.cum_ack)?;
        self.window.get_mut(i as usize)
    }

    /// Lowest sequence currently marked lost, if any. O(window) scan,
    /// but guarded by the counter: in the common loss-free case it costs
    /// one comparison.
    fn first_lost(&self) -> Option<u64> {
        if self.lost_count == 0 {
            return None;
        }
        self.window
            .iter()
            .position(|c| c.state == SegState::Lost)
            .map(|i| self.cum_ack + i as u64)
    }

    /// Record a (re)transmission of `seq` in the scoreboard: the segment
    /// (re)enters the pipe stamped `now`. A fresh send must extend the
    /// window by exactly one cell.
    fn track_send(&mut self, seq: u64, now: Time, retransmit: bool) {
        if retransmit {
            let c = self.cell_mut(seq).expect("retransmit inside the window");
            debug_assert_eq!(c.state, SegState::Lost);
            c.state = SegState::InFlight;
            c.sent_at = now;
            c.retransmitted = true;
            self.lost_count -= 1;
        } else {
            debug_assert_eq!(seq, self.cum_ack + self.window.len() as u64);
            self.window.push_back(SegCell {
                sent_at: now,
                state: SegState::InFlight,
                retransmitted: false,
            });
        }
        self.in_flight_count += 1;
    }

    /// Whether the sender is in fast recovery.
    pub fn in_recovery(&self) -> bool {
        self.recovery_point.is_some()
    }

    /// Kick off transmission (call at the flow's start time).
    pub fn start(&mut self, ctx: &mut HostCtx<'_>) {
        self.pump(ctx);
    }

    fn rto(&self) -> Duration {
        let base = if self.srtt_ns > 0.0 {
            Duration::from_nanos((self.srtt_ns + 4.0 * self.rttvar_ns) as u64)
        } else {
            MIN_RTO
        };
        let backed = base.saturating_mul(1u64 << self.rto_backoff.min(MAX_RTO_BACKOFF));
        backed.clamp(MIN_RTO, MAX_RTO)
    }

    fn build_segment(&self, seq: u64, now: Time) -> Packet {
        let fin = self.total_segments.map(|t| seq + 1 == t).unwrap_or(false);
        let mut p = Packet::data(
            self.spec.flow,
            self.spec.entity,
            self.spec.src,
            self.spec.dst,
            seq,
            self.spec.segment_payload(seq),
            fin,
            now,
        );
        p.aq_ingress = self.spec.aq_ingress;
        p.aq_egress = self.spec.aq_egress;
        if let FlowKind::Tcp(algo) = self.spec.kind {
            if algo.ecn_capable() {
                p.ecn = Ecn::Capable;
            }
        }
        p
    }

    /// Transmit as the window allows: marked-lost holes first, then new
    /// data.
    fn pump(&mut self, ctx: &mut HostCtx<'_>) {
        if self.finished {
            return;
        }
        let wnd = (self.cc.cwnd().floor() as usize).max(1);
        if self.force_retransmit {
            self.force_retransmit = false;
            if let Some(seq) = self.first_lost() {
                let pkt = self.build_segment(seq, ctx.now);
                ctx.send(pkt);
                self.track_send(seq, ctx.now, true);
                self.segments_sent += 1;
                self.retransmissions += 1;
            }
        }
        while self.in_flight_count < wnd {
            if let Some(seq) = self.first_lost() {
                let pkt = self.build_segment(seq, ctx.now);
                ctx.send(pkt);
                self.track_send(seq, ctx.now, true);
                self.segments_sent += 1;
                self.retransmissions += 1;
                continue;
            }
            if let Some(total) = self.total_segments {
                if self.snd_nxt >= total {
                    break;
                }
            }
            let pkt = self.build_segment(self.snd_nxt, ctx.now);
            ctx.send(pkt);
            self.track_send(self.snd_nxt, ctx.now, false);
            self.snd_nxt += 1;
            self.segments_sent += 1;
        }
        // (Re)start the retransmission timer while anything is unresolved.
        let active = self.in_flight_count > 0 || self.lost_count > 0;
        self.rto_deadline = active.then(|| ctx.now + self.rto());
    }

    /// Loss marking, combining two standard rules so retransmissions are
    /// not instantly re-marked:
    ///
    /// * FACK: only segments more than the reordering threshold below the
    ///   highest SACKed sequence are candidates;
    /// * RACK: a candidate is lost only if it was sent at least a
    ///   reordering window *before* the delivered packet that exposes it
    ///   (`delivered_sent_at` = the echoed send timestamp) — a fresh
    ///   retransmission, sent after every copy that can be delivered
    ///   ahead of it, therefore gets a full round trip before it can be
    ///   marked again.
    fn mark_losses(&mut self, now: Time, delivered_sent_at: Time) {
        let Some(hi) = self.highest_sacked else {
            return;
        };
        let Some(edge) = hi.checked_sub(DUPACK_THRESHOLD) else {
            return;
        };
        // RACK's initial reordering window is zero (RFC 8985) — the
        // FACK threshold above already absorbs reordering — so the rule
        // reduces to: lost iff sent no later than the delivered copy.
        let base = self.cum_ack;
        let mut any = false;
        for (i, c) in self.window.iter_mut().enumerate() {
            if base + i as u64 > edge {
                break;
            }
            if c.state == SegState::InFlight && c.sent_at <= delivered_sent_at {
                c.state = SegState::Lost;
                self.in_flight_count -= 1;
                self.lost_count += 1;
                any = true;
            }
        }
        if !any {
            return;
        }
        // One congestion response per window of loss, plus one immediate
        // retransmission to keep the ACK clock alive.
        if self.recovery_point.is_none() {
            self.recovery_point = Some(self.snd_nxt);
            self.recoveries += 1;
            self.force_retransmit = true;
            self.cc.on_loss(now);
        }
    }

    /// Drop scoreboard cells below `cum` (cumulative progress). Must be
    /// called *before* `cum_ack` is advanced to `cum` — the window is
    /// indexed relative to the old base while popping.
    fn purge_below(&mut self, cum: u64) {
        let mut base = self.cum_ack;
        while base < cum {
            let Some(c) = self.window.pop_front() else {
                break;
            };
            match c.state {
                SegState::InFlight => self.in_flight_count -= 1,
                SegState::Lost => self.lost_count -= 1,
                SegState::Sacked => {}
            }
            base += 1;
        }
    }

    /// Handle one ACK.
    #[expect(clippy::too_many_arguments, reason = "one argument per ACK field")]
    pub fn on_ack(
        &mut self,
        ctx: &mut HostCtx<'_>,
        cum_ack: u64,
        _sack_hi: u64,
        this_seq: u64,
        ecn_echo: bool,
        vdelay_echo_ns: u64,
        ts_echo: Time,
        fin_acked: bool,
    ) {
        if self.finished {
            return;
        }
        // The scoreboard is window-relative (cells indexed by
        // `seq - cum_ack` over `[cum_ack, snd_nxt)`), so a cumulative ACK
        // past `snd_nxt` is unrepresentable. A well-formed peer never
        // sends one — it would acknowledge data never transmitted — so a
        // malformed ACK is treated as covering exactly everything sent.
        let cum_ack = cum_ack.min(self.snd_nxt);
        let now = ctx.now;
        // RTT sample from the echoed per-packet timestamp. Karn's rule: a
        // segment that was ever retransmitted yields no sample — the echo
        // cannot be trusted to identify which copy it answers, and a late
        // original arriving after the retransmission would inflate srtt
        // right when the timer most needs to stay honest.
        let rtt = now - ts_echo;
        let karn_ambiguous = self.cell(this_seq).is_some_and(|c| c.retransmitted);
        if rtt > Duration::ZERO && !karn_ambiguous {
            self.min_rtt = Some(self.min_rtt.map_or(rtt, |m| m.min(rtt)));
            if self.srtt_ns <= 0.0 {
                self.srtt_ns = rtt.as_nanos() as f64;
                self.rttvar_ns = rtt.as_nanos() as f64 / 2.0;
            } else {
                let err = (rtt.as_nanos() as f64 - self.srtt_ns).abs();
                self.rttvar_ns = 0.75 * self.rttvar_ns + 0.25 * err;
                self.srtt_ns = 0.875 * self.srtt_ns + 0.125 * rtt.as_nanos() as f64;
            }
        }
        let min_rtt = self.min_rtt.unwrap_or(rtt);
        let queuing_delay = match self.spec.delay_signal {
            DelaySignal::MeasuredRtt => rtt - min_rtt,
            DelaySignal::VirtualDelay => Duration::from_nanos(vdelay_echo_ns),
        };

        // Scoreboard: the specifically-covered segment leaves the pipe.
        if this_seq >= self.cum_ack {
            let prev = self.cell_mut(this_seq).map(|c| {
                let was = c.state;
                c.state = SegState::Sacked;
                was
            });
            match prev {
                Some(SegState::InFlight) => self.in_flight_count -= 1,
                Some(SegState::Lost) => self.lost_count -= 1,
                Some(SegState::Sacked) | None => {}
            }
            self.highest_sacked = Some(self.highest_sacked.map_or(this_seq, |h| h.max(this_seq)));
        }

        if cum_ack > self.cum_ack {
            let newly = cum_ack - self.cum_ack;
            self.purge_below(cum_ack);
            self.cum_ack = cum_ack;
            self.rto_backoff = 0;
            if let Some(rp) = self.recovery_point {
                if cum_ack >= rp {
                    self.recovery_point = None;
                }
            }
            self.cc.on_ack(&AckSignals {
                now,
                newly_acked: newly,
                rtt,
                min_rtt,
                queuing_delay,
                ecn_echo,
                snd_nxt: self.snd_nxt,
                cum_ack,
            });
            if let Some(total) = self.total_segments {
                if cum_ack >= total || fin_acked {
                    self.finished = true;
                    self.rto_deadline = None;
                    return;
                }
            }
        }
        self.mark_losses(now, ts_echo);
        self.pump(ctx);
    }

    /// The retransmission timer fired (already validated by the host
    /// against [`SenderFlow::rto_deadline`]).
    pub fn on_rto(&mut self, ctx: &mut HostCtx<'_>) {
        if self.finished || (self.in_flight_count == 0 && self.lost_count == 0) {
            self.rto_deadline = None;
            return;
        }
        self.timeouts += 1;
        self.rto_backoff = (self.rto_backoff + 1).min(MAX_RTO_BACKOFF);
        // Everything unacknowledged is presumed lost.
        for c in self.window.iter_mut() {
            if c.state == SegState::InFlight {
                c.state = SegState::Lost;
                self.in_flight_count -= 1;
                self.lost_count += 1;
            }
        }
        self.recovery_point = Some(self.snd_nxt);
        self.cc.on_timeout(ctx.now);
        self.pump(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CcAlgo;
    use aq_netsim::ids::{EntityId, FlowId, NodeId};
    use aq_netsim::stats::StatsHub;
    use aq_netsim::time::Time;

    fn spec(bytes: Option<u64>) -> FlowSpec {
        let mut s = FlowSpec::long_tcp(
            FlowId(1),
            EntityId(1),
            NodeId(0),
            NodeId(9),
            CcAlgo::NewReno,
        );
        s.bytes = bytes;
        s
    }

    /// Run `f` with a scratch context, returning the packets it sent.
    fn with_ctx(now: Time, f: impl FnOnce(&mut HostCtx<'_>)) -> Vec<Packet> {
        let mut stats = StatsHub::new();
        let mut ctx = HostCtx::new(now, NodeId(0), &mut stats);
        f(&mut ctx);
        ctx.take_sends()
    }

    fn data_seqs(pkts: &[Packet]) -> Vec<u64> {
        pkts.iter()
            .filter_map(|p| match p.transport {
                aq_netsim::packet::TransportHeader::Data { seq, .. } => Some(seq),
                _ => None,
            })
            .collect()
    }

    /// Shorthand: deliver an ACK covering `this_seq` with cumulative `cum`.
    fn ack(s: &mut SenderFlow, now_us: u64, cum: u64, this_seq: u64) -> Vec<Packet> {
        with_ctx(Time::from_micros(now_us), |ctx| {
            s.on_ack(
                ctx,
                cum,
                this_seq + 1,
                this_seq,
                false,
                0,
                Time::ZERO,
                false,
            )
        })
    }

    #[test]
    fn start_sends_initial_window() {
        let mut s = SenderFlow::new(spec(None));
        let sent = with_ctx(Time::ZERO, |ctx| s.start(ctx));
        assert_eq!(sent.len(), 10); // IW10
        assert_eq!(s.segments_sent, 10);
        assert_eq!(s.outstanding(), 10);
        assert!(s.rto_deadline.is_some());
    }

    #[test]
    fn finite_flow_stops_at_total_and_sets_fin() {
        let mut s = SenderFlow::new(spec(Some(2500))); // 3 segments
        let sent = with_ctx(Time::ZERO, |ctx| s.start(ctx));
        assert_eq!(sent.len(), 3);
        match sent[2].transport {
            aq_netsim::packet::TransportHeader::Data { seq, fin } => {
                assert_eq!(seq, 2);
                assert!(fin);
            }
            _ => panic!("expected data"),
        }
        assert_eq!(sent[2].payload(), 500);
    }

    #[test]
    fn cumulative_ack_advances_and_finishes() {
        let mut s = SenderFlow::new(spec(Some(2500)));
        with_ctx(Time::ZERO, |ctx| s.start(ctx));
        let _ = with_ctx(Time::from_micros(100), |ctx| {
            s.on_ack(ctx, 3, 3, 2, false, 0, Time::ZERO, true);
        });
        assert!(s.finished);
        assert_eq!(s.rto_deadline, None);
    }

    #[test]
    fn fack_marks_and_retransmits_the_hole() {
        let mut s = SenderFlow::new(spec(None));
        with_ctx(Time::ZERO, |ctx| s.start(ctx));
        let w_before = s.cwnd();
        // Segment 0 lost; SACKs of 1 and 2 stay under the threshold — the
        // pipe refills with new data but nothing is retransmitted.
        assert!(!data_seqs(&ack(&mut s, 100, 0, 1)).contains(&0));
        assert!(!data_seqs(&ack(&mut s, 101, 0, 2)).contains(&0));
        assert_eq!(s.recoveries, 0);
        // SACK of 3 pushes the FACK edge to 3: segment 0 is lost.
        let sent = ack(&mut s, 102, 0, 3);
        assert!(
            data_seqs(&sent).contains(&0),
            "hole retransmitted: {:?}",
            data_seqs(&sent)
        );
        assert_eq!(s.recoveries, 1);
        assert!(s.cwnd() < w_before, "loss shrinks the window");
    }

    #[test]
    fn burst_loss_repairs_all_holes_promptly() {
        // Segments 0..10 outstanding; 0..=5 all lost, 6..=9 arrive. All the
        // marked holes must go out as the (halved) window allows — not one
        // per RTT.
        let mut s = SenderFlow::new(spec(None));
        with_ctx(Time::ZERO, |ctx| s.start(ctx));
        let mut retx = Vec::new();
        for (i, seq) in (6..10u64).enumerate() {
            retx.extend(data_seqs(&ack(&mut s, 100 + i as u64, 0, seq)));
        }
        retx.sort_unstable();
        retx.dedup();
        let holes: Vec<u64> = retx.iter().copied().filter(|s| *s <= 5).collect();
        assert!(
            holes.len() >= 4,
            "bulk retransmission expected, got {holes:?}"
        );
        assert_eq!(s.recoveries, 1, "one cc reduction for the whole burst");
    }

    #[test]
    fn rto_collapses_window_and_retransmits_head() {
        let mut s = SenderFlow::new(spec(None));
        with_ctx(Time::ZERO, |ctx| s.start(ctx));
        let sent = with_ctx(Time::from_millis(3), |ctx| s.on_rto(ctx));
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(data_seqs(&sent), vec![0], "head of line retransmits first");
        // Backoff doubled the 1 ms floor: deadline = 3 ms + 2 ms.
        assert_eq!(s.rto_deadline.expect("armed"), Time::from_millis(5));
    }

    #[test]
    fn rtt_estimation_tracks_samples() {
        let mut s = SenderFlow::new(spec(None));
        with_ctx(Time::ZERO, |ctx| s.start(ctx));
        with_ctx(Time::from_micros(50), |ctx| {
            s.on_ack(ctx, 1, 1, 0, false, 0, Time::ZERO, false);
        });
        assert_eq!(s.srtt().expect("sample"), Duration::from_micros(50));
        assert_eq!(s.min_rtt, Some(Duration::from_micros(50)));
    }

    #[test]
    fn sacked_segments_leave_the_pipe_allowing_new_data() {
        let mut s = SenderFlow::new(spec(None));
        with_ctx(Time::ZERO, |ctx| s.start(ctx));
        assert_eq!(s.outstanding(), 10);
        // SACK of 2 (cum still 0, below the loss threshold): pipe drops to
        // 9, one new segment goes out to refill the window.
        let sent = ack(&mut s, 60, 0, 2);
        assert_eq!(data_seqs(&sent), vec![10]);
        assert_eq!(s.outstanding(), 10);
    }

    #[test]
    fn sack_far_ahead_marks_the_skipped_range_lost() {
        let mut s = SenderFlow::new(spec(None));
        with_ctx(Time::ZERO, |ctx| s.start(ctx));
        // SACK of 5 with cum 0 implies 0..=2 are past the FACK edge.
        ack(&mut s, 60, 0, 5);
        assert_eq!(s.recoveries, 1);
        assert!(s.in_recovery());
    }

    #[test]
    fn rto_backoff_is_capped_at_max_backoff() {
        let mut s = SenderFlow::new(spec(None));
        with_ctx(Time::ZERO, |ctx| s.start(ctx));
        // A long blackout: far more timeouts than the cap.
        for i in 0..20u64 {
            with_ctx(Time::from_millis(10 * (i + 1)), |ctx| s.on_rto(ctx));
        }
        assert_eq!(s.timeouts, 20);
        assert_eq!(s.rto_backoff, MAX_RTO_BACKOFF, "backoff holds the cap");
        // No RTT sample yet, so the base is the 1 ms floor: capped backoff
        // gives 2^6 = 64 ms, still under MAX_RTO.
        assert_eq!(s.rto(), Duration::from_millis(64));
    }

    #[test]
    fn multi_rto_blackout_backs_off_exponentially_then_recovers() {
        let mut s = SenderFlow::new(spec(None));
        with_ctx(Time::ZERO, |ctx| s.start(ctx));
        // One clean sample: srtt = 500 us, rttvar = 250 us, base = 1.5 ms.
        with_ctx(Time::from_micros(500), |ctx| {
            s.on_ack(ctx, 1, 1, 0, false, 0, Time::ZERO, false);
        });
        // Blackout: three consecutive timeouts, each doubling the timer.
        let mut intervals = Vec::new();
        for i in 0..3u64 {
            let now = Time::from_millis(5 * (i + 1));
            with_ctx(now, |ctx| s.on_rto(ctx));
            intervals.push(s.rto_deadline.expect("armed") - now);
        }
        assert_eq!(intervals[0], Duration::from_millis(3)); // 1.5 ms * 2
        assert_eq!(intervals[1], Duration::from_millis(6)); // 1.5 ms * 4
        assert_eq!(intervals[2], Duration::from_millis(12)); // 1.5 ms * 8
        assert_eq!(s.cwnd(), 1.0, "timeout collapses the window");
        // The path heals: a cumulative ACK for the retransmitted head
        // resets the backoff and transmission resumes.
        let sent = with_ctx(Time::from_millis(40), |ctx| {
            s.on_ack(ctx, 2, 2, 1, false, 0, Time::ZERO, false);
        });
        assert_eq!(s.rto_backoff, 0, "cumulative progress resets backoff");
        assert!(!data_seqs(&sent).is_empty(), "recovery resumes sending");
    }

    #[test]
    fn karn_suppresses_rtt_samples_from_retransmissions() {
        let mut s = SenderFlow::new(spec(None));
        with_ctx(Time::ZERO, |ctx| s.start(ctx)); // sends 0..10
                                                  // Clean sample: 500 us.
        with_ctx(Time::from_micros(500), |ctx| {
            s.on_ack(ctx, 1, 1, 0, false, 0, Time::ZERO, false);
        });
        let srtt_clean = s.srtt().expect("sample");
        // Blackout: two RTOs; the head of line is retransmitted each time.
        with_ctx(Time::from_millis(2), |ctx| s.on_rto(ctx));
        with_ctx(Time::from_millis(10), |ctx| s.on_rto(ctx));
        // The ACK for the retransmitted head carries an ambiguous echo (it
        // could answer any copy) with a wildly inflated apparent RTT:
        // Karn's rule discards the sample.
        with_ctx(Time::from_millis(40), |ctx| {
            s.on_ack(ctx, 2, 2, 1, false, 0, Time::ZERO, false);
        });
        assert_eq!(
            s.srtt().expect("kept"),
            srtt_clean,
            "ambiguous sample dropped"
        );
        // Drain the recovery queue — every segment here is a
        // retransmission, so srtt still must not move.
        let mut now_us = 41_000u64;
        for seq in 2..10u64 {
            with_ctx(Time::from_micros(now_us), |ctx| {
                s.on_ack(ctx, seq + 1, seq + 1, seq, false, 0, Time::ZERO, false);
            });
            now_us += 100;
        }
        assert_eq!(s.srtt().expect("kept"), srtt_clean);
        // Fresh data (never retransmitted) resumes sampling.
        let fresh = (s.cum_ack..s.snd_nxt)
            .find(|&q| {
                s.cell(q)
                    .is_some_and(|c| c.state == SegState::InFlight && !c.retransmitted)
            })
            .expect("fresh segment in flight");
        with_ctx(Time::from_micros(now_us), |ctx| {
            s.on_ack(
                ctx,
                fresh + 1,
                fresh + 1,
                fresh,
                false,
                0,
                Time::from_micros(now_us - 100),
                false,
            );
        });
        assert_ne!(s.srtt().expect("resumed"), srtt_clean, "sampling resumes");
    }

    #[test]
    fn duplicate_sacks_do_not_inflate() {
        let mut s = SenderFlow::new(spec(None));
        with_ctx(Time::ZERO, |ctx| s.start(ctx));
        ack(&mut s, 60, 0, 2);
        let before = s.segments_sent;
        // The same SACK again: nothing new leaves.
        let sent = ack(&mut s, 61, 0, 2);
        assert!(data_seqs(&sent).is_empty());
        assert_eq!(s.segments_sent, before);
    }
}
