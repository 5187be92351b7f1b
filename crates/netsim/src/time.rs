//! Simulation time, durations, and link rates.
//!
//! All simulation time is integer nanoseconds since the start of the run and
//! all rates are integer bits per second. Integer arithmetic (with `u128`
//! intermediates where products can overflow) keeps the event schedule and
//! the A-Gap computation exactly reproducible across runs and platforms —
//! there is no floating-point drift anywhere on the simulation fast path.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Nanoseconds in one second.
pub const NS_PER_SEC: u64 = 1_000_000_000;

/// An instant in simulation time (nanoseconds since simulation start).
///
/// `Time` is ordered and supports `+ Duration` / `- Time`. The simulation
/// starts at [`Time::ZERO`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulation time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);
    /// A time later than any reachable simulation instant.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * NS_PER_SEC)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) seconds. For reporting only.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The empty duration.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * NS_PER_SEC)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration expressed in (fractional) seconds. For reporting only.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NS_PER_SEC as f64
    }

    /// Scale by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, d: Duration) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ns", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A transmission or allocation rate in bits per second.
///
/// Rates convert exactly between byte counts and durations using `u128`
/// intermediates; conversions round *up* for serialization time (a packet is
/// not done until its last bit has left) and *down* for "bytes drained in an
/// interval" (a byte has not drained until it is entirely out).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Rate(pub u64);

impl Rate {
    /// Zero rate — transmits nothing, drains nothing.
    pub const ZERO: Rate = Rate(0);

    /// Construct from bits per second.
    pub const fn from_bps(bps: u64) -> Rate {
        Rate(bps)
    }

    /// Construct from megabits per second.
    pub const fn from_mbps(mbps: u64) -> Rate {
        Rate(mbps * 1_000_000)
    }

    /// Construct from gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Rate {
        Rate(gbps * 1_000_000_000)
    }

    /// Raw bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Time to serialize `bytes` at this rate, rounded up to the next
    /// nanosecond. Returns a very large duration for [`Rate::ZERO`] so a
    /// zero-rate shaper simply never releases.
    pub fn transmit_time(self, bytes: u64) -> Duration {
        if self.0 == 0 {
            return Duration(u64::MAX / 4);
        }
        let bits = bytes as u128 * 8;
        let ns = (bits * NS_PER_SEC as u128).div_ceil(self.0 as u128);
        Duration(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// Whole bytes drained in `d` at this rate, rounded down.
    pub fn bytes_in(self, d: Duration) -> u64 {
        let bits = self.0 as u128 * d.0 as u128 / NS_PER_SEC as u128;
        u64::try_from(bits / 8).unwrap_or(u64::MAX)
    }

    /// Scale this rate by the exact ratio `num/den` (integer arithmetic).
    ///
    /// Used by weighted-mode bandwidth division: `link.scaled(w_i, w_total)`.
    /// A ratio above 1 that would overflow saturates at `u64::MAX` bps.
    pub fn scaled(self, num: u64, den: u64) -> Rate {
        assert!(den > 0, "rate scale denominator must be positive");
        let bps = self.0 as u128 * num as u128 / den as u128;
        Rate(u64::try_from(bps).unwrap_or(u64::MAX))
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gbps", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}Mbps", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Time::from_millis(3) + Duration::from_micros(7);
        assert_eq!(t.as_nanos(), 3_007_000);
        assert_eq!(t - Time::from_millis(3), Duration::from_micros(7));
    }

    #[test]
    fn since_saturates_on_future_instants() {
        assert_eq!(Time::from_secs(1).since(Time::from_secs(2)), Duration::ZERO);
    }

    #[test]
    fn transmit_time_rounds_up() {
        // 1500 bytes at 10 Gbps = 1200 ns exactly.
        assert_eq!(
            Rate::from_gbps(10).transmit_time(1500),
            Duration::from_nanos(1200)
        );
        // 1 byte at 3 bps: 8e9/3 ns = 2666666666.67 -> rounds up.
        assert_eq!(
            Rate::from_bps(3).transmit_time(1),
            Duration::from_nanos(2_666_666_667)
        );
    }

    #[test]
    fn bytes_in_is_inverse_of_transmit_time_for_exact_cases() {
        let r = Rate::from_gbps(25);
        let d = r.transmit_time(9000);
        assert_eq!(r.bytes_in(d), 9000);
    }

    #[test]
    fn zero_rate_never_transmits() {
        let d = Rate::ZERO.transmit_time(1);
        assert!(d > Duration::from_secs(1_000_000));
        assert_eq!(Rate::ZERO.bytes_in(Duration::from_secs(10)), 0);
    }

    #[test]
    fn scaled_divides_exactly() {
        let link = Rate::from_gbps(10);
        assert_eq!(link.scaled(1, 2), Rate::from_gbps(5));
        assert_eq!(link.scaled(2, 3).as_bps(), 6_666_666_666);
    }

    #[test]
    fn scaled_saturates_instead_of_wrapping() {
        assert_eq!(Rate::from_bps(u64::MAX).scaled(3, 2).as_bps(), u64::MAX);
        assert_eq!(Rate::from_bps(u64::MAX).scaled(1, 1).as_bps(), u64::MAX);
    }

    #[test]
    fn display_formats_are_human_readable() {
        assert_eq!(format!("{}", Rate::from_gbps(10)), "10.00Gbps");
        assert_eq!(format!("{}", Duration::from_micros(5)), "5.000us");
    }
}
