//! TCP BBR (Cardwell et al. 2016), window-based model.
//!
//! BBR estimates the bottleneck bandwidth (windowed-max delivery rate) and
//! the propagation RTT (windowed-min), and holds
//! `cwnd = gain × BtlBw × RTprop`. The paper's §7 argues AQ accommodates
//! BBR because the abstraction exposes exactly the two signals BBR needs —
//! arrival rate (through its own delivery-rate samples, which under an AQ
//! converge to the allocated rate) and delay. This model keeps BBR's
//! state machine (Startup → Drain → steady ProbeBW gain cycling) while
//! driving sends with a congestion window rather than a paced rate, which
//! is the standard simplification for window-clocked simulators.

use super::{clamp_cwnd, AckSignals, CongestionControl};
use aq_netsim::time::{Duration, Time};

/// Startup window gain (2/ln 2).
const STARTUP_GAIN: f64 = 2.885;
/// Drain gain — inverse of startup, empties the queue built during it.
const DRAIN_GAIN: f64 = 1.0 / 2.885;
/// ProbeBW gain cycle (one step per RTT).
const PROBE_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Rounds of <25 % bandwidth growth that end Startup.
const STARTUP_FULL_BW_ROUNDS: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Startup,
    Drain,
    ProbeBw,
}

/// BBR state.
#[derive(Debug, Clone)]
pub struct Bbr {
    cwnd: f64,
    mode: Mode,
    /// Recent delivery-rate samples (segments/sec), one per RTT; the
    /// bandwidth estimate is their max (BBR's 10-round windowed max).
    bw_samples: std::collections::VecDeque<f64>,
    /// Cached max of `bw_samples`.
    btl_bw: f64,
    /// Windowed-min RTT.
    rt_prop: Duration,
    /// Bandwidth plateau detection.
    full_bw: f64,
    full_bw_rounds: u32,
    /// ProbeBW cycle position, advanced once per RTT.
    cycle_index: usize,
    next_cycle_at: Time,
    /// Delivery-rate sampling.
    delivered: u64,
    last_sample_delivered: u64,
    last_sample_at: Time,
}

impl Bbr {
    /// Fresh BBR in Startup.
    pub fn new() -> Bbr {
        Bbr {
            cwnd: 10.0,
            mode: Mode::Startup,
            bw_samples: std::collections::VecDeque::new(),
            btl_bw: 0.0,
            rt_prop: Duration::from_millis(10),
            full_bw: 0.0,
            full_bw_rounds: 0,
            cycle_index: 0,
            next_cycle_at: Time::ZERO,
            delivered: 0,
            last_sample_delivered: 0,
            last_sample_at: Time::ZERO,
        }
    }

    fn bdp_segments(&self) -> f64 {
        // Segment size is normalized out: delivery sampled in segments.
        self.btl_bw * self.rt_prop.as_secs_f64()
    }

    fn gain(&self) -> f64 {
        match self.mode {
            Mode::Startup => STARTUP_GAIN,
            Mode::Drain => DRAIN_GAIN,
            Mode::ProbeBw => PROBE_CYCLE[self.cycle_index],
        }
    }
}

impl Default for Bbr {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Bbr {
    fn on_ack(&mut self, sig: &AckSignals) {
        self.delivered += sig.newly_acked;
        self.rt_prop = self.rt_prop.min(sig.rtt.max(Duration::from_micros(1)));
        // Delivery-rate sample once per ~RTT, in segments/sec.
        let elapsed = sig.now - self.last_sample_at;
        if elapsed >= self.rt_prop && elapsed > Duration::ZERO {
            let delta = (self.delivered - self.last_sample_delivered) as f64;
            let rate = delta / elapsed.as_secs_f64();
            self.last_sample_delivered = self.delivered;
            self.last_sample_at = sig.now;
            // 10-round windowed max (expiring old samples lets the
            // estimate track reductions such as an AQ re-division).
            self.bw_samples.push_back(rate);
            if self.bw_samples.len() > 10 {
                self.bw_samples.pop_front();
            }
            self.btl_bw = self.bw_samples.iter().copied().fold(0.0, f64::max);
            match self.mode {
                Mode::Startup => {
                    if self.btl_bw < self.full_bw * 1.25 {
                        self.full_bw_rounds += 1;
                        if self.full_bw_rounds >= STARTUP_FULL_BW_ROUNDS {
                            self.mode = Mode::Drain;
                        }
                    } else {
                        self.full_bw = self.btl_bw;
                        self.full_bw_rounds = 0;
                    }
                }
                Mode::Drain => {
                    // Queue drained once inflight fits the BDP.
                    if (self.cwnd) <= self.bdp_segments().max(4.0) {
                        self.mode = Mode::ProbeBw;
                        self.next_cycle_at = sig.now + self.rt_prop;
                    }
                }
                Mode::ProbeBw => {
                    if sig.now >= self.next_cycle_at {
                        self.cycle_index = (self.cycle_index + 1) % PROBE_CYCLE.len();
                        self.next_cycle_at = sig.now + self.rt_prop;
                    }
                }
            }
        }
        let target = match self.mode {
            // Startup doubles per RTT (slow-start pace; the 2.89 pacing
            // gain of rate-based BBR corresponds to the same exponential
            // envelope in a window-clocked model).
            Mode::Startup => self.cwnd + sig.newly_acked as f64,
            _ => (self.gain() * self.bdp_segments()).max(4.0),
        };
        // Move toward the target without collapsing mid-flight.
        self.cwnd = clamp_cwnd(if target > self.cwnd {
            self.cwnd + (target - self.cwnd).min(sig.newly_acked as f64)
        } else {
            target.max(self.cwnd - sig.newly_acked as f64)
        });
    }

    fn on_loss(&mut self, _now: Time) {
        // BBR does not treat loss as a primary signal; the model-based
        // window already bounds inflight. (Real BBRv1 behaves the same.)
    }

    fn on_timeout(&mut self, _now: Time) {
        self.cwnd = 4.0;
        self.mode = Mode::Startup;
        self.full_bw = 0.0;
        self.full_bw_rounds = 0;
        self.bw_samples.clear();
        self.btl_bw = 0.0;
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn name(&self) -> &'static str {
        "BBR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Closed loop against a fixed-capacity path: `cap` segments/sec, base
    /// RTT `base_us`, FIFO queueing when inflight exceeds the BDP.
    fn converge(cap: f64, base_us: u64, acks: usize) -> Bbr {
        let mut cc = Bbr::new();
        let mut now = 0u64;
        let mut delivered_credit = 0.0;
        for _ in 0..acks {
            let bdp = cap * base_us as f64 / 1e6;
            let q = (cc.cwnd() - bdp).max(0.0);
            let rtt_us = base_us + (q / cap * 1e6) as u64;
            now += (1e6 / cap) as u64; // one segment served per 1/cap sec
            delivered_credit += 1.0;
            let newly = delivered_credit as u64;
            delivered_credit -= newly as f64;
            cc.on_ack(&AckSignals {
                now: Time::from_micros(now),
                newly_acked: newly,
                rtt: Duration::from_micros(rtt_us),
                min_rtt: Duration::from_micros(base_us),
                queuing_delay: Duration::from_micros(rtt_us - base_us),
                ecn_echo: false,
                snd_nxt: 0,
                cum_ack: 0,
            });
        }
        cc
    }

    #[test]
    fn startup_grows_exponentially_then_exits() {
        let cc = converge(100_000.0, 100, 4_000);
        assert_ne!(cc.mode, Mode::Startup, "plateau must end startup");
        assert!(cc.btl_bw > 50_000.0, "bw {}", cc.btl_bw);
    }

    #[test]
    fn steady_state_window_tracks_the_bdp() {
        // 100k seg/s at 100 us base RTT: BDP = 10 segments.
        let cc = converge(100_000.0, 100, 20_000);
        assert_eq!(cc.mode, Mode::ProbeBw);
        let bdp = 10.0;
        assert!(
            cc.cwnd() >= 0.7 * bdp && cc.cwnd() <= 2.0 * bdp,
            "cwnd {} should track BDP {bdp}",
            cc.cwnd()
        );
    }

    #[test]
    fn loss_is_not_a_primary_signal() {
        let mut cc = converge(100_000.0, 100, 10_000);
        let w = cc.cwnd();
        cc.on_loss(Time::from_millis(100));
        assert_eq!(cc.cwnd(), w, "BBR ignores isolated loss");
    }

    #[test]
    fn timeout_restarts_the_model() {
        let mut cc = converge(100_000.0, 100, 10_000);
        cc.on_timeout(Time::from_millis(100));
        assert_eq!(cc.cwnd(), 4.0);
        assert_eq!(cc.mode, Mode::Startup);
    }

    #[test]
    fn probe_cycle_oscillates_the_window() {
        let mut cc = converge(100_000.0, 100, 20_000);
        assert_eq!(cc.mode, Mode::ProbeBw);
        let mut lo = f64::MAX;
        let mut hi = 0.0f64;
        let mut now = 10_000_000u64;
        for _ in 0..5_000 {
            now += 10;
            cc.on_ack(&AckSignals {
                now: Time::from_micros(now),
                newly_acked: 1,
                rtt: Duration::from_micros(110),
                min_rtt: Duration::from_micros(100),
                queuing_delay: Duration::from_micros(10),
                ecn_echo: false,
                snd_nxt: 0,
                cum_ack: 0,
            });
            lo = lo.min(cc.cwnd());
            hi = hi.max(cc.cwnd());
        }
        assert!(hi / lo > 1.2, "gain cycling should oscillate: {lo}..{hi}");
    }
}
