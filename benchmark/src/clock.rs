//! The benchmark's one wall-clock source. Every timing metric is host
//! time read here; nothing else in `benchmark/` reads a clock.

use std::sync::OnceLock;
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Host nanoseconds since the first call in this process (`main` makes
/// that call on entry, so the origin is process start for our purposes).
pub fn now_ns() -> u64 {
    let now = Instant::now(); // aq-lint: allow(no-wall-clock)
    let origin = *ORIGIN.get_or_init(|| now);
    u64::try_from(now.duration_since(origin).as_nanos()).expect("process outlived u64 nanoseconds")
}

/// Run `f`, returning its result and how long it took in nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = now_ns();
    let out = f();
    (out, now_ns() - start)
}

/// Nanoseconds as seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Nanoseconds as milliseconds.
pub fn millis(ns: u64) -> f64 {
    ns as f64 / 1e6
}
