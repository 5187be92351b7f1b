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
//! `Δ·R` drain term is computed with integer arithmetic; each update
//! truncates at most 2⁻¹⁶ byte, so there is no cumulative floating-point
//! drift and runs are bit-reproducible.
//!
//! [`DGap`] implements the *strawman* function `D(t)` from §3.2.1 —
//! integrated difference that may go negative ("surplus") during backlogged
//! periods — used only to reproduce Fig. 3's demonstration of why surplus
//! must be disallowed.

use aq_netsim::time::{Duration, Rate, Time, NS_PER_SEC};

/// Fractional bits of the fixed-point gap representation.
pub const GAP_FRAC_BITS: u32 = 16;
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
        // A(p_k.time) = max{0, ...} + p_k.size: after an arrival the gap
        // holds at least the packet just accounted (unless saturated).
        aq_netsim::invariant!(
            self.gap_sub >= size as u64 * SUB || self.gap_sub == u64::MAX,
            "gap lost the arrival contribution: gap_sub={} size={size}",
            self.gap_sub,
        );
        self.bytes()
    }

    /// Apply the `max{0, gap − Δ·R}` drain up to `now` without an arrival
    /// (lets callers peek `A(t)` between packets).
    pub fn drain_to(&mut self, now: Time) {
        if now <= self.last_time {
            return;
        }
        let before = self.gap_sub;
        let drained = drained_sub(self.rate, now - self.last_time);
        self.gap_sub = self.gap_sub.saturating_sub(drained);
        self.last_time = now;
        // Draining is monotone: no arrival, so the gap must not grow, and
        // the clock must not run backwards past the guard above.
        aq_netsim::invariant!(
            self.gap_sub <= before,
            "drain increased the gap: before={before} after={}",
            self.gap_sub,
        );
        aq_netsim::invariant!(
            self.last_time == now,
            "drain left a stale clock: last_time={:?} now={now:?}",
            self.last_time,
        );
    }

    /// Current gap in whole bytes, rounded up.
    pub fn bytes(&self) -> u64 {
        self.gap_sub.div_ceil(SUB)
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
        // Consistency with the whole-byte view: the delay computed from
        // sub-bytes must bracket `bytes()/R` to within one byte's worth of
        // transmission time (bytes() rounds up, the division truncates).
        aq_netsim::invariant!(
            {
                let byte_ns = 8 * NS_PER_SEC as u128 / self.rate.as_bps() as u128;
                let from_bytes =
                    self.bytes() as u128 * 8 * NS_PER_SEC as u128 / self.rate.as_bps() as u128;
                ns <= from_bytes && from_bytes <= ns + byte_ns + 2
            },
            "virtual delay inconsistent with gap: ns={ns} gap_bytes={} rate_bps={}",
            self.bytes(),
            self.rate.as_bps(),
        );
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
/// Only three words of state (count, sum, max), so tracking costs nothing
/// next to the gap update itself, and no samples are stored: the summary
/// is exact for max and mean, which is what the run reports need.
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
    sum_bytes: u128,
    max_bytes: u64,
}

impl GapTrack {
    /// Record one observed gap value (bytes).
    pub fn observe(&mut self, gap_bytes: u64) {
        self.samples += 1;
        self.sum_bytes += gap_bytes as u128;
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

    /// Mean observed gap in bytes (0.0 when no observations).
    pub fn mean_bytes(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.sum_bytes as f64 / self.samples as f64
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

    /// An *empty* period ending at `now`: `D = max{0, D − Δ·R}`
    /// (Expression 5).
    pub fn on_empty_until(&mut self, now: Time) {
        if now > self.last_time {
            self.gap_sub -= drained_sub(self.rate, now - self.last_time) as i128;
            self.last_time = now;
        }
        self.gap_sub = self.gap_sub.max(0);
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

    const GBPS: u64 = 1_000_000_000;

    #[test]
    fn gap_accumulates_packet_sizes_at_zero_elapsed() {
        let mut g = AGap::new(Rate::from_bps(8 * GBPS)); // 1 byte/ns
        assert_eq!(g.on_packet(Time::ZERO, 1000), 1000);
        assert_eq!(g.on_packet(Time::ZERO, 500), 1500);
    }

    #[test]
    fn gap_drains_at_allocated_rate() {
        // 1 byte per ns.
        let mut g = AGap::new(Rate::from_bps(8 * GBPS));
        g.on_packet(Time::ZERO, 1000);
        // After 400 ns, 400 bytes drained; arrival adds 100.
        assert_eq!(g.on_packet(Time::from_nanos(400), 100), 700);
    }

    #[test]
    fn gap_floors_at_zero_across_idle_gaps() {
        let mut g = AGap::new(Rate::from_bps(8 * GBPS));
        g.on_packet(Time::ZERO, 1000);
        // 10 us idle drains far more than 1000 bytes: floor at 0, then +200.
        assert_eq!(g.on_packet(Time::from_micros(10), 200), 200);
    }

    #[test]
    fn matches_theorem_3_2_recurrence_exactly() {
        // Cross-check the incremental implementation against a direct
        // evaluation of the recurrence with exact rational arithmetic on a
        // fixed packet trace.
        let rate = Rate::from_gbps(5);
        let trace: &[(u64, u32)] = &[
            (0, 1500),
            (100, 1500),
            (2500, 64),
            (2500, 1500),
            (9000, 9000),
            (1_000_000, 40),
        ];
        let mut g = AGap::new(rate);
        let mut reference_sub: u64 = 0; // in sub-bytes
        let mut last = 0u64;
        for &(t_ns, size) in trace {
            let delta = t_ns - last;
            let drain = u64::try_from(
                delta as u128 * rate.as_bps() as u128 * SUB as u128 / (8 * NS_PER_SEC as u128),
            )
            .unwrap();
            reference_sub = reference_sub.saturating_sub(drain) + size as u64 * SUB;
            last = t_ns;
            let got = g.on_packet(Time::from_nanos(t_ns), size);
            assert_eq!(got, reference_sub.div_ceil(SUB));
        }
    }

    #[test]
    fn non_monotonic_clock_treated_as_simultaneous() {
        let mut g = AGap::new(Rate::from_gbps(10));
        g.on_packet(Time::from_nanos(100), 1000);
        let v = g.on_packet(Time::from_nanos(50), 1000);
        assert_eq!(v, 2000);
        assert_eq!(g.last_time(), Time::from_nanos(100));
    }

    #[test]
    fn deduct_reverses_a_dropped_packet() {
        let mut g = AGap::new(Rate::from_gbps(10));
        g.on_packet(Time::ZERO, 1500);
        g.deduct(1500);
        assert_eq!(g.bytes(), 0);
    }

    #[test]
    fn virtual_delay_is_gap_over_rate() {
        // 5 Gbps, gap 625 bytes = 5000 bits -> 1 us to drain.
        let mut g = AGap::new(Rate::from_gbps(5));
        g.on_packet(Time::ZERO, 625);
        assert_eq!(g.virtual_delay(), Duration::from_micros(1));
    }

    #[test]
    fn set_rate_preserves_accumulated_gap() {
        let mut g = AGap::new(Rate::from_gbps(8));
        g.on_packet(Time::ZERO, 8000);
        // 1 us at 8 Gbps drains 1000 bytes; then halve the rate.
        g.set_rate(Time::from_micros(1), Rate::from_gbps(4));
        assert_eq!(g.bytes(), 7000);
        // Next 1 us drains only 500 bytes at the new rate.
        g.drain_to(Time::from_micros(2));
        assert_eq!(g.bytes(), 6500);
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

    #[test]
    fn strawman_empty_period_floors_at_zero() {
        let rate = Rate::from_bps(8 * GBPS);
        let mut d = DGap::new(rate);
        d.on_packet(Time::ZERO, 100);
        d.on_empty_until(Time::from_micros(1));
        assert_eq!(d.bytes(), 0);
    }
}
