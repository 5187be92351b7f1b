//! TCP-Illinois (Liu, Başar, Srikant 2006): a loss-delay hybrid AIMD.
//! Loss still triggers the decrease, but the additive-increase rate α and
//! the decrease factor β adapt to the average queuing delay — large α /
//! small β when delay is low (far from congestion), small α / large β when
//! delay is high.

use super::{clamp_cwnd, AckSignals, CongestionControl, MAX_CWND};
use aq_netsim::time::{Duration, Time};

const ALPHA_MAX: f64 = 10.0;
const ALPHA_MIN: f64 = 0.3;
const BETA_MIN: f64 = 0.125;
const BETA_MAX: f64 = 0.5;
/// Fraction of the max observed queuing delay below which α = α_max.
const D1: f64 = 0.01;
/// Fractions bounding the β ramp.
const D2: f64 = 0.1;
const D3: f64 = 0.8;

/// TCP-Illinois state.
#[derive(Debug, Clone)]
pub struct Illinois {
    cwnd: f64,
    ssthresh: f64,
    /// Exponentially-averaged queuing delay (seconds).
    avg_qdelay: f64,
    /// Largest queuing delay observed (seconds).
    max_qdelay: f64,
}

impl Illinois {
    /// Initial window of 10 segments.
    pub fn new() -> Illinois {
        Illinois {
            cwnd: 10.0,
            ssthresh: MAX_CWND,
            avg_qdelay: 0.0,
            max_qdelay: 0.0,
        }
    }

    /// Current additive-increase parameter α(dₐ) — the concave-down curve
    /// of the paper: α = κ₁/(κ₂ + dₐ) fitted so α(d₁·d_m) = α_max and
    /// α(d_m) = α_min.
    fn alpha(&self) -> f64 {
        let dm = self.max_qdelay;
        if dm <= 0.0 {
            return ALPHA_MAX;
        }
        let da = self.avg_qdelay;
        if da <= D1 * dm {
            return ALPHA_MAX;
        }
        let k1 = (dm - D1 * dm) * ALPHA_MIN * ALPHA_MAX / (ALPHA_MAX - ALPHA_MIN);
        let k2 = k1 / ALPHA_MAX - D1 * dm;
        (k1 / (k2 + da)).clamp(ALPHA_MIN, ALPHA_MAX)
    }

    /// Current multiplicative-decrease parameter β(dₐ): linear ramp from
    /// β_min below d₂·d_m to β_max above d₃·d_m.
    fn beta(&self) -> f64 {
        let dm = self.max_qdelay;
        if dm <= 0.0 {
            return BETA_MIN;
        }
        let da = self.avg_qdelay;
        if da <= D2 * dm {
            BETA_MIN
        } else if da >= D3 * dm {
            BETA_MAX
        } else {
            BETA_MIN + (BETA_MAX - BETA_MIN) * (da - D2 * dm) / ((D3 - D2) * dm)
        }
    }

    fn observe_delay(&mut self, qd: Duration) {
        let q = qd.as_secs_f64();
        self.max_qdelay = self.max_qdelay.max(q);
        // EWMA with gain 1/8, one sample per ACK.
        self.avg_qdelay = 0.875 * self.avg_qdelay + 0.125 * q;
    }
}

impl Default for Illinois {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Illinois {
    fn on_ack(&mut self, sig: &AckSignals) {
        self.observe_delay(sig.queuing_delay);
        for _ in 0..sig.newly_acked {
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0;
            } else {
                self.cwnd += self.alpha() / self.cwnd;
            }
        }
        self.cwnd = clamp_cwnd(self.cwnd);
    }

    fn on_loss(&mut self, _now: Time) {
        let beta = self.beta();
        self.cwnd = clamp_cwnd(self.cwnd * (1.0 - beta));
        self.ssthresh = self.cwnd;
    }

    fn on_timeout(&mut self, _now: Time) {
        self.ssthresh = clamp_cwnd(self.cwnd / 2.0);
        self.cwnd = 1.0;
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn name(&self) -> &'static str {
        "Illinois"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::sig;
    use super::*;

    #[test]
    fn low_delay_uses_aggressive_alpha() {
        let mut cc = Illinois::new();
        cc.on_loss(Time::ZERO); // exit slow start
                                // Establish a delay history with one congested sample, then
                                // low-delay samples pull the average down.
        cc.on_ack(&sig(0, 1000, 100, false));
        for i in 0..200 {
            cc.on_ack(&sig(i * 100, 101, 100, false));
        }
        assert!(cc.alpha() > 5.0, "alpha {}", cc.alpha());
        assert!((cc.beta() - BETA_MIN).abs() < 1e-9);
    }

    #[test]
    fn high_delay_uses_conservative_alpha_and_larger_beta() {
        let mut cc = Illinois::new();
        cc.on_loss(Time::ZERO);
        for i in 0..200 {
            cc.on_ack(&sig(i * 100, 1100, 100, false)); // 1 ms queuing
        }
        assert!(cc.alpha() < 1.0, "alpha {}", cc.alpha());
        assert!(cc.beta() > 0.4, "beta {}", cc.beta());
    }

    #[test]
    fn loss_decrease_uses_current_beta() {
        let mut cc = Illinois::new();
        cc.on_loss(Time::ZERO);
        for i in 0..100 {
            cc.on_ack(&sig(i * 100, 101, 100, false));
        }
        let w = cc.cwnd();
        let beta = cc.beta();
        cc.on_loss(Time::ZERO);
        assert!((cc.cwnd() - w * (1.0 - beta)).abs() < 1e-9);
    }

    #[test]
    fn alpha_is_max_before_any_delay_history() {
        assert_eq!(Illinois::new().alpha(), ALPHA_MAX);
    }
}
