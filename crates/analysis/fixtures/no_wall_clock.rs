// Fixture for the `no-wall-clock` rule: nothing but the harness pool
// supervisor (crates/harness/src/pool.rs) may observe host time —
// simulation time is the only clock.

use std::time::{Duration, Instant, SystemTime};

pub fn measure() -> Duration {
    let start = Instant::now(); // expect-lint: no-wall-clock
    let _epoch = SystemTime::now(); // expect-lint: no-wall-clock
    // Mentioning Instant::now in a comment must not fire.
    let banner = "Instant::now in a string must not fire";
    let _ = banner;
    // Using the types without reading the clock is fine.
    let cached: Instant = start;
    // aq-lint: allow(no-wall-clock)
    let sanctioned = Instant::now();
    let also = SystemTime::now(); // aq-lint: allow(no-wall-clock)
    let _ = also;
    sanctioned.duration_since(cached)
}
