//! One planted violation per rule of the workspace lint policy. Each line
//! tagged `expect-lint: <code>` must draw exactly that diagnostic from
//! `cargo clippy`, and no other line may draw any (`tests/lint_policy.rs`).

// The two crate-level opt-ins the sim crates carry, verbatim.
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(clippy::cast_possible_truncation)]

// Hash-ordered collections.
pub type Map = std::collections::HashMap<u32, u32>; // expect-lint: clippy::disallowed_types
pub type Set = std::collections::HashSet<u32>; // expect-lint: clippy::disallowed_types

// Threads, channels and shared mutability.
pub type Handle = std::thread::JoinHandle<()>; // expect-lint: clippy::disallowed_types
pub type Lock = std::sync::RwLock<u8>; // expect-lint: clippy::disallowed_types
pub type Cv = std::sync::Condvar; // expect-lint: clippy::disallowed_types
pub type Tx = std::sync::mpsc::Sender<u8>; // expect-lint: clippy::disallowed_types
pub type SyncTx = std::sync::mpsc::SyncSender<u8>; // expect-lint: clippy::disallowed_types
pub type Rx = std::sync::mpsc::Receiver<u8>; // expect-lint: clippy::disallowed_types
pub type ABool = std::sync::atomic::AtomicBool; // expect-lint: clippy::disallowed_types
pub type AI8 = std::sync::atomic::AtomicI8; // expect-lint: clippy::disallowed_types
pub type AI16 = std::sync::atomic::AtomicI16; // expect-lint: clippy::disallowed_types
pub type AI32 = std::sync::atomic::AtomicI32; // expect-lint: clippy::disallowed_types
pub type AI64 = std::sync::atomic::AtomicI64; // expect-lint: clippy::disallowed_types
pub type AIsize = std::sync::atomic::AtomicIsize; // expect-lint: clippy::disallowed_types
pub type AU8 = std::sync::atomic::AtomicU8; // expect-lint: clippy::disallowed_types
pub type AU16 = std::sync::atomic::AtomicU16; // expect-lint: clippy::disallowed_types
pub type AU32 = std::sync::atomic::AtomicU32; // expect-lint: clippy::disallowed_types
pub type AU64 = std::sync::atomic::AtomicU64; // expect-lint: clippy::disallowed_types
pub type AUsize = std::sync::atomic::AtomicUsize; // expect-lint: clippy::disallowed_types

// Host time, threads and channels.
pub fn host_time_and_threads() {
    let _ = std::time::Instant::now(); // expect-lint: clippy::disallowed_methods
    let _ = std::time::SystemTime::now(); // expect-lint: clippy::disallowed_methods
    let _ = std::thread::spawn(|| {}); // expect-lint: clippy::disallowed_methods
    std::thread::scope(|_| {}); // expect-lint: clippy::disallowed_methods
    let _ = std::sync::mpsc::channel::<u8>(); // expect-lint: clippy::disallowed_methods
    let _ = std::sync::mpsc::sync_channel::<u8>(1); // expect-lint: clippy::disallowed_methods
}

pub fn exact(a: f64, b: f64) -> bool {
    a == b // expect-lint: clippy::float_cmp
}

pub fn narrow(x: u64) -> u32 {
    x as u32 // expect-lint: clippy::cast_possible_truncation
}

#[expect(clippy::cast_possible_truncation, reason = "stale")] // expect-lint: unfulfilled_lint_expectations
pub type Stale = u64;

// Sanctioned sites: each `#[expect]` is fulfilled and draws nothing.
#[expect(clippy::disallowed_methods, reason = "sanctioned")]
pub fn sanctioned_clock() -> std::time::Instant {
    std::time::Instant::now()
}

#[expect(clippy::disallowed_types, reason = "sanctioned")]
pub type SanctionedCounter = std::sync::atomic::AtomicUsize;

#[expect(clippy::float_cmp, reason = "sanctioned")]
pub fn sanctioned_exact(a: f64) -> bool {
    a == 0.5
}

#[expect(clippy::cast_possible_truncation, reason = "sanctioned")]
pub fn sanctioned_narrow(x: u64) -> u8 {
    x as u8
}

#[cfg(test)]
mod tests {
    // `float_cmp` is off under `cfg(test)`: exact-value asserts stay legal.
    #[test]
    fn exact_float_assert() {
        assert_eq!(super::sanctioned_narrow(3) as f64 / 2.0, 1.5);
    }
}
