//! Pluggable congestion control.
//!
//! Each algorithm consumes per-ACK signals ([`AckSignals`]) and maintains a
//! congestion window in segments. The five algorithms the paper evaluates
//! are implemented from their original definitions:
//!
//! | module      | algorithm   | signal            |
//! |-------------|-------------|-------------------|
//! | [`newreno`] | TCP NewReno | loss              |
//! | [`cubic`]   | CUBIC       | loss              |
//! | [`illinois`]| TCP-Illinois| loss + delay      |
//! | [`dctcp`]   | DCTCP       | ECN fraction      |
//! | [`swift`]   | Swift       | (virtual) delay   |
//! | [`bbr`]     | TCP BBR     | delivery rate + RTT (the §7 extension) |
//!
//! UDP is not a congestion control — unreactive senders live in
//! [`crate::udp`].

pub mod bbr;
pub mod cubic;
pub mod dctcp;
pub mod illinois;
pub mod newreno;
pub mod swift;

use aq_netsim::time::{Duration, Time};

/// Signals delivered to the congestion control for one received ACK.
#[derive(Debug, Clone, Copy)]
pub struct AckSignals {
    /// Arrival time of the ACK.
    pub now: Time,
    /// Segments newly acknowledged cumulatively by this ACK.
    pub newly_acked: u64,
    /// RTT sampled from the echoed timestamp.
    pub rtt: Duration,
    /// Lowest RTT seen so far on the flow (propagation + serialization).
    pub min_rtt: Duration,
    /// The *queuing delay* signal: under physical queues this is
    /// `rtt − min_rtt`; when the flow is configured to use AQ virtual
    /// delay, it is the echoed accumulated `A(k)/R` instead (§3.3.2).
    pub queuing_delay: Duration,
    /// The acknowledged segment carried an ECN CE mark.
    pub ecn_echo: bool,
    /// Highest sequence sent so far plus one (for windowed accounting,
    /// e.g. DCTCP's per-RTT α update).
    pub snd_nxt: u64,
    /// Cumulative ack point after applying this ACK.
    pub cum_ack: u64,
}

/// A congestion-control algorithm driving one flow's window.
pub trait CongestionControl: Send {
    /// Process one ACK.
    fn on_ack(&mut self, sig: &AckSignals);

    /// A loss was detected by fast retransmit (at most once per window).
    fn on_loss(&mut self, now: Time);

    /// The retransmission timer expired.
    fn on_timeout(&mut self, now: Time);

    /// Current congestion window in segments (fractional windows allowed;
    /// the sender floors the send allowance).
    fn cwnd(&self) -> f64;

    /// Algorithm name for reports.
    fn name(&self) -> &'static str;
}

/// Lower clamp every algorithm applies to its window.
const MIN_CWND: f64 = 1.0;
/// Upper clamp (segments) — generous enough to fill any simulated pipe.
pub(crate) const MAX_CWND: f64 = 4096.0;

/// Clamp a window into the supported range.
pub(crate) fn clamp_cwnd(w: f64) -> f64 {
    w.clamp(MIN_CWND, MAX_CWND)
}

/// Factory enum used by flow specs to instantiate algorithms without
/// generics at the host layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcAlgo {
    /// TCP NewReno (drop-based).
    NewReno,
    /// CUBIC (drop-based).
    Cubic,
    /// TCP-Illinois (loss-primary, delay-adaptive AIMD).
    Illinois,
    /// DCTCP (ECN-based) with the marking-fraction gain `g = 1/16`.
    Dctcp,
    /// Swift (delay-based) with the given target queuing delay.
    Swift {
        /// Target end-to-end queuing delay.
        target: Duration,
    },
    /// TCP BBR (model-based: max delivery rate × min RTT). The paper's §7
    /// names BBR as accommodated by AQ because the abstraction preserves
    /// both signals it consumes.
    Bbr,
}

impl CcAlgo {
    /// Instantiate the algorithm.
    pub fn build(&self) -> Box<dyn CongestionControl> {
        match *self {
            CcAlgo::NewReno => Box::new(newreno::NewReno::new()),
            CcAlgo::Cubic => Box::new(cubic::Cubic::new()),
            CcAlgo::Illinois => Box::new(illinois::Illinois::new()),
            CcAlgo::Dctcp => Box::new(dctcp::Dctcp::new()),
            CcAlgo::Swift { target } => Box::new(swift::Swift::new(target)),
            CcAlgo::Bbr => Box::new(bbr::Bbr::new()),
        }
    }

    /// Whether flows under this algorithm negotiate ECN.
    pub(crate) fn ecn_capable(&self) -> bool {
        matches!(self, CcAlgo::Dctcp)
    }

    /// Whether this algorithm consumes the delay signal (and should read
    /// AQ virtual delay when the network provides it).
    pub fn delay_based(&self) -> bool {
        matches!(self, CcAlgo::Swift { .. })
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            CcAlgo::NewReno => "NewReno",
            CcAlgo::Cubic => "CUBIC",
            CcAlgo::Illinois => "Illinois",
            CcAlgo::Dctcp => "DCTCP",
            CcAlgo::Swift { .. } => "Swift",
            CcAlgo::Bbr => "BBR",
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// An ACK with the given delay characteristics acking one segment.
    pub fn sig(now_us: u64, rtt_us: u64, min_rtt_us: u64, ecn: bool) -> AckSignals {
        AckSignals {
            now: Time::from_micros(now_us),
            newly_acked: 1,
            rtt: Duration::from_micros(rtt_us),
            min_rtt: Duration::from_micros(min_rtt_us),
            queuing_delay: Duration::from_micros(rtt_us - min_rtt_us),
            ecn_echo: ecn,
            snd_nxt: 0,
            cum_ack: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_algorithm() {
        for algo in [
            CcAlgo::NewReno,
            CcAlgo::Cubic,
            CcAlgo::Illinois,
            CcAlgo::Dctcp,
            CcAlgo::Swift {
                target: Duration::from_micros(50),
            },
            CcAlgo::Bbr,
        ] {
            let cc = algo.build();
            assert!(cc.cwnd() >= MIN_CWND);
            assert_eq!(cc.name(), algo.name());
        }
    }

    #[test]
    fn ecn_capability_only_for_dctcp() {
        assert!(CcAlgo::Dctcp.ecn_capable());
        assert!(!CcAlgo::Cubic.ecn_capable());
        assert!(!CcAlgo::Swift {
            target: Duration::from_micros(50)
        }
        .ecn_capable());
    }

    #[test]
    fn clamping() {
        assert_eq!(clamp_cwnd(0.0), MIN_CWND);
        assert_eq!(clamp_cwnd(1e9), MAX_CWND);
        assert_eq!(clamp_cwnd(10.0), 10.0);
    }
}
