//! TCP NewReno (RFC 6582): slow start + AIMD congestion avoidance,
//! loss-driven.

use super::{clamp_cwnd, AckSignals, CongestionControl, MAX_CWND};
use aq_netsim::time::Time;

/// NewReno state.
#[derive(Debug, Clone)]
pub struct NewReno {
    cwnd: f64,
    ssthresh: f64,
}

impl NewReno {
    /// Initial window of 10 segments (RFC 6928), unbounded ssthresh.
    pub fn new() -> NewReno {
        NewReno {
            cwnd: 10.0,
            ssthresh: MAX_CWND,
        }
    }

    /// Whether the flow is in slow start.
    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
}

impl Default for NewReno {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for NewReno {
    fn on_ack(&mut self, sig: &AckSignals) {
        for _ in 0..sig.newly_acked {
            if self.in_slow_start() {
                self.cwnd += 1.0;
            } else {
                self.cwnd += 1.0 / self.cwnd;
            }
        }
        self.cwnd = clamp_cwnd(self.cwnd);
    }

    fn on_loss(&mut self, _now: Time) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = clamp_cwnd(self.ssthresh);
    }

    fn on_timeout(&mut self, _now: Time) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn name(&self) -> &'static str {
        "NewReno"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::sig;
    use super::*;

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = NewReno::new();
        let w0 = cc.cwnd();
        // One ACK per outstanding segment: cwnd grows by 1 per ACK.
        for _ in 0..10 {
            cc.on_ack(&sig(100, 40, 40, false));
        }
        assert_eq!(cc.cwnd(), w0 + 10.0);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn congestion_avoidance_grows_one_segment_per_rtt() {
        let mut cc = NewReno::new();
        cc.on_loss(Time::ZERO); // leave slow start; cwnd = 5
        let w = cc.cwnd();
        let n = w.round() as u64;
        for _ in 0..n {
            cc.on_ack(&sig(100, 40, 40, false));
        }
        assert!((cc.cwnd() - (w + 1.0)).abs() < 0.1, "cwnd {}", cc.cwnd());
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn loss_halves_timeout_resets() {
        let mut cc = NewReno::new();
        for _ in 0..30 {
            cc.on_ack(&sig(100, 40, 40, false));
        }
        let w = cc.cwnd();
        cc.on_loss(Time::ZERO);
        assert!((cc.cwnd() - w / 2.0).abs() < 1e-9);
        cc.on_timeout(Time::ZERO);
        assert_eq!(cc.cwnd(), 1.0);
    }
}
