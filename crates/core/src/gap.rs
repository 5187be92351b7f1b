//! The A-Gap measure function (§3.2–§3.3 of the paper).
//!
//! The A-Gap of an entity is the running discrepancy between its arrival
//! process and its allocated rate `R`, floored at zero:
//!
//! ```text
//! A(t+ε) = max{0, A(t) + d(t, t+ε)},   d(t,t+δ) = ∫ r(t) dt − δR
//! ```
//!
//! Theorem 3.2 turns this into the exact per-packet recurrence implemented
//! here (Algorithm 1):
//!
//! ```text
//! A(p_k.time) = max{0, A(p_{k-1}.time) − Δ(k)·R} + p_k.size
//! ```
//!
//! The gap is held in fixed-point **sub-bytes** (2⁻¹⁶ byte) so that the
//! `Δ·R` drain term is computed with integer arithmetic and runs are
//! bit-reproducible. Each drain truncates less than 2⁻¹⁶ byte, always
//! toward a larger gap, and the error accumulates until the gap next
//! empties: after `n` inexact drains the gap reads less than `n·2⁻¹⁶`
//! bytes above the exact one (2 M arrivals that never let the gap empty
//! read at most ⌈2 M / 65 536⌉ = 31 B high). [`crate::spec`] holds the
//! gap to exactly that bound.
//!
//! [`DGap`] implements the *strawman* function `D(t)` from §3.2.1 —
//! integrated difference that may go negative ("surplus") during backlogged
//! periods — used only to reproduce Fig. 3's demonstration of why surplus
//! must be disallowed.

use aq_netsim::time::{Duration, Rate, Time, NS_PER_SEC};

/// Fractional bits of the fixed-point gap representation.
pub(crate) const GAP_FRAC_BITS: u32 = 16;
const SUB: u64 = 1 << GAP_FRAC_BITS;

/// Sub-bytes drained by rate `R` over `delta`: `Δns·bps·2¹⁶ / (8·10⁹)`,
/// truncated. u128 intermediates keep this exact for any realistic span.
fn drained_sub(rate: Rate, delta: Duration) -> u64 {
    let num = delta.as_nanos() as u128 * rate.as_bps() as u128 * SUB as u128;
    let den = 8u128 * NS_PER_SEC as u128;
    u64::try_from(num / den).unwrap_or(u64::MAX)
}

/// The A-Gap accumulator of one AQ (Algorithm 1 state: `aq.gap`,
/// `aq.last_time`, `aq.rate`).
#[derive(Debug, Clone)]
pub struct AGap {
    rate: Rate,
    gap_sub: u64,
    last_time: Time,
}

impl AGap {
    /// A fresh gap at `A(0) = 0` with allocated rate `rate`.
    pub fn new(rate: Rate) -> AGap {
        AGap {
            rate,
            gap_sub: 0,
            last_time: Time::ZERO,
        }
    }

    /// The allocated rate `R`.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Update the allocated rate (weighted-mode re-division, work
    /// conservation). The gap accumulated so far is preserved; draining
    /// from `now` on uses the new rate.
    pub fn set_rate(&mut self, now: Time, rate: Rate) {
        self.drain_to(now);
        self.rate = rate;
    }

    /// Algorithm 1: account the arrival of a packet of `size` bytes at
    /// `now` and return the new gap in whole bytes (rounded up, as a switch
    /// comparing against byte thresholds would).
    ///
    /// Out-of-order clock inputs (`now < last_time`) are treated as
    /// simultaneous arrivals (Δ = 0), matching switch behaviour where the
    /// timestamp is read once per packet.
    pub fn on_packet(&mut self, now: Time, size: u32) -> u64 {
        self.drain_to(now);
        self.gap_sub = self.gap_sub.saturating_add(size as u64 * SUB);
        self.bytes()
    }

    /// Apply the `max{0, gap − Δ·R}` drain up to `now` without an arrival
    /// (lets callers peek `A(t)` between packets).
    pub fn drain_to(&mut self, now: Time) {
        if now <= self.last_time {
            return;
        }
        let drained = drained_sub(self.rate, now - self.last_time);
        self.gap_sub = self.gap_sub.saturating_sub(drained);
        self.last_time = now;
    }

    /// Current gap in whole bytes, rounded up.
    pub fn bytes(&self) -> u64 {
        self.gap_sub.div_ceil(SUB)
    }

    /// Current gap in sub-bytes, for [`crate::spec`]'s checker.
    pub(crate) fn gap_sub(&self) -> u64 {
        self.gap_sub
    }

    /// Undo the byte contribution of a just-dropped packet (Algorithm 2
    /// line 3: `aq.gap = aq.gap − pkt.size` when the packet is dropped and
    /// therefore never enters the network).
    pub fn deduct(&mut self, size: u32) {
        self.gap_sub = self.gap_sub.saturating_sub(size as u64 * SUB);
    }

    /// The *virtual queuing delay* (§3.3.2): the time this AQ needs to
    /// drain its current gap, `A(k)/R`.
    pub fn virtual_delay(&self) -> Duration {
        if self.rate.as_bps() == 0 {
            return Duration::from_nanos(u64::MAX / 4);
        }
        // gap_sub / 2^16 bytes * 8 bits / bps seconds.
        let ns = (self.gap_sub as u128 * 8 * NS_PER_SEC as u128)
            / (SUB as u128 * self.rate.as_bps() as u128);
        Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// Timestamp of the last update.
    pub fn last_time(&self) -> Time {
        self.last_time
    }
}

/// Streaming summary of the A-Gap values carried by an AQ's *forwarded*
/// packets — the per-AQ telemetry behind `StatsHub` AQ summaries.
///
/// Only count, sum and max, so tracking costs nothing next to the gap
/// update itself, and no samples are stored: the summary is exact for max
/// and mean, which is what the run reports need. The sum is 128 bits held
/// as two `u64` words with an explicit carry, so the struct keeps 8-byte
/// alignment (a `u128` field would pad every AQ row to 16).
///
/// ```
/// use aq_core::GapTrack;
///
/// let mut t = GapTrack::default();
/// t.observe(1000);
/// t.observe(3000);
/// assert_eq!(t.samples(), 2);
/// assert_eq!(t.max_bytes(), 3000);
/// assert!((t.mean_bytes() - 2000.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GapTrack {
    samples: u64,
    /// The sum of observed gaps is `sum_hi · 2⁶⁴ + sum_lo`.
    sum_lo: u64,
    sum_hi: u64,
    max_bytes: u64,
}

impl GapTrack {
    /// Record one observed gap value (bytes).
    pub fn observe(&mut self, gap_bytes: u64) {
        self.samples += 1;
        let (lo, carry) = self.sum_lo.overflowing_add(gap_bytes);
        self.sum_lo = lo;
        self.sum_hi += u64::from(carry);
        self.max_bytes = self.max_bytes.max(gap_bytes);
    }

    /// Number of observations.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Largest observed gap in bytes (0 when no observations).
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Sum of the observed gaps in bytes, for [`crate::spec`]'s checker.
    pub(crate) fn sum(&self) -> u128 {
        (u128::from(self.sum_hi) << 64) | u128::from(self.sum_lo)
    }

    /// Mean observed gap in bytes (0.0 when no observations).
    pub fn mean_bytes(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.sum() as f64 / self.samples as f64
    }
}

/// The strawman discrepancy `D(t)` of §3.2.1 (Expression 4–5): the signed
/// integrated difference, which *banks surplus* when the entity underuses
/// its allocation during backlogged periods. Kept only to reproduce
/// Fig. 3(a); real AQs use [`AGap`].
#[derive(Debug, Clone)]
pub struct DGap {
    rate: Rate,
    /// Signed gap in sub-bytes.
    gap_sub: i128,
    last_time: Time,
}

impl DGap {
    /// `D(0) = 0` with allocated rate `rate`.
    pub fn new(rate: Rate) -> DGap {
        DGap {
            rate,
            gap_sub: 0,
            last_time: Time::ZERO,
        }
    }

    /// Packet arrival during a *backlogged* period: `D += size − Δ·R`,
    /// unbounded in both directions (surplus allowed). Returns the new
    /// value in (possibly negative) bytes.
    pub fn on_packet(&mut self, now: Time, size: u32) -> i64 {
        if now > self.last_time {
            self.gap_sub -= drained_sub(self.rate, now - self.last_time) as i128;
            self.last_time = now;
        }
        self.gap_sub += (size as u64 * SUB) as i128;
        self.bytes()
    }

    /// Current signed gap in bytes (toward zero rounding).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "|D| is bounded by the bytes sent or drained in a Fig. 3(a) trace, \
                  far below 2⁶³"
    )]
    pub fn bytes(&self) -> i64 {
        (self.gap_sub / SUB as i128) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const GBPS: u64 = 1_000_000_000;

    /// `GapTrack` against a `u128` reference sum: same sample count, max
    /// and mean bits.
    fn check_gap_track(values: &[u64]) -> Result<(), TestCaseError> {
        let mut t = GapTrack::default();
        values.iter().for_each(|&v| t.observe(v));
        let sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
        let n = values.len() as u64;
        let mean = if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        let max = values.iter().copied().max().unwrap_or(0);
        let got = (t.samples(), t.max_bytes(), t.mean_bytes().to_bits());
        let want = (n, max, mean.to_bits());
        prop_assert_eq!(got, want, "{:?}: got {:?}, want {:?}", values, got, want);
        Ok(())
    }

    #[test]
    fn gap_track_sum_carries_into_the_high_word() {
        let cases: &[&[u64]] = &[
            &[],
            &[0],
            &[1000, 3000],
            &[u64::MAX],
            &[u64::MAX, 1],
            // Four wraps of the low word.
            &[u64::MAX; 5],
            // Five wraps, each landing the low word exactly on zero.
            &[1 << 63; 10],
            &[u64::MAX, u64::MAX - 1, 2, 3, u64::MAX / 2, u64::MAX / 2 + 2],
        ];
        for values in cases {
            check_gap_track(values).unwrap();
        }
    }

    proptest! {
        #[test]
        fn gap_track_matches_a_u128_sum(
            values in prop::collection::vec(
                prop_oneof![0u64..100_000, (u64::MAX - 100_000)..u64::MAX, any::<u64>()],
                0..64,
            )
        ) {
            check_gap_track(&values)?;
        }
    }

    #[test]
    fn strawman_banks_surplus_but_agap_does_not() {
        // An entity idles (within a backlogged period, per the strawman's
        // accounting) and then bursts: D(t) lets the burst ride on banked
        // surplus (stays ≤ 0 longer), A(t) does not.
        let rate = Rate::from_bps(8 * GBPS); // 1 byte/ns
        let mut d = DGap::new(rate);
        let mut a = AGap::new(rate);
        // Underuse: one 100-byte packet, then 10 us of backlogged silence.
        d.on_packet(Time::ZERO, 100);
        a.on_packet(Time::ZERO, 100);
        let t = Time::from_micros(10);
        // Burst of 5000 bytes at t.
        let d_after = d.on_packet(t, 5000);
        let a_after = a.on_packet(t, 5000);
        assert!(d_after < 0, "strawman still in surplus: {d_after}");
        assert_eq!(a_after, 5000, "A-Gap starts from zero, no surplus");
    }

    #[test]
    fn strawman_peaks_escalate_burst_over_burst_but_agap_peaks_do_not() {
        // Fig. 3's closed loop: a CC that over-corrects — it trickles far
        // below R after each burst (the deeper the higher the last peak),
        // then ramps multiplicatively until the measure reads 20 KB over.
        // Returns the arrival rate at which each of 4 bursts is cut.
        #[expect(clippy::cast_possible_truncation, reason = "rates in [1, 100] Gbps")]
        fn peaks(mut measure: impl FnMut(Time, u32) -> i64) -> Vec<f64> {
            let mut t_ns = 0u64;
            let mut send = |bps: f64| {
                t_ns += (1000.0 * 8.0 / bps * 1e9) as u64;
                measure(Time::from_nanos(t_ns), 1000)
            };
            let mut peaks: Vec<f64> = Vec::new();
            for _ in 0..4 {
                for _ in 0..(5.0 * peaks.last().copied().unwrap_or(5e9) / 1e9) as u64 {
                    send(1e9);
                }
                let mut bps = 2e9;
                while send(bps) <= 20_000 {
                    // The sending host cannot exceed its 100 Gbps NIC.
                    bps = (bps * 1.002).min(100e9);
                }
                peaks.push(bps);
            }
            peaks
        }
        let rate = Rate::from_bps(5 * GBPS);
        let (mut d, mut a) = (DGap::new(rate), AGap::new(rate));
        let d_peaks = peaks(|t, b| d.on_packet(t, b));
        let a_peaks = peaks(|t, b| a.on_packet(t, b) as i64);
        // D(t) banks every trickle as surplus, so each burst must climb
        // higher than the last before the measure turns positive; A(t)
        // clamps the surplus and every burst is cut at the same r0.
        assert!(d_peaks[0] > a_peaks[0], "{d_peaks:?} vs {a_peaks:?}");
        assert!(d_peaks.windows(2).all(|w| w[1] >= w[0]) && d_peaks[3] > 1.2 * d_peaks[0]);
        assert!(a_peaks.iter().all(|r| *r == a_peaks[0]), "{a_peaks:?}");
    }
}
