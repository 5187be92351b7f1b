//! Facade crate re-exporting the full Augmented Queue stack.
//!
//! # Every RNG is seeded — by construction
//!
//! A run is a pure function of `(scenario, seed)` only if no generator
//! can come from anywhere but a seed. The vendored `rand` (see
//! `vendor/README.md`) makes that a compile error rather than a lint:
//! `SeedableRng::{from_seed, seed_from_u64}` are the only constructors
//! it has. This one compiles —
//!
//! ```
//! use rand::{rngs::SmallRng, SeedableRng};
//! let _ = SmallRng::seed_from_u64(1);
//! ```
//!
//! — and each of these, identical but for the constructor, must not: OS
//! entropy (`thread_rng`, `from_entropy`) and the entropy-free but
//! unseeded constructors (`default`, `from_rng`).
//!
//! ```compile_fail,E0425
//! use rand::{rngs::SmallRng, SeedableRng};
//! let _ = rand::thread_rng();
//! ```
//!
//! ```compile_fail,E0599
//! use rand::{rngs::SmallRng, SeedableRng};
//! let _ = SmallRng::from_entropy();
//! ```
//!
//! ```compile_fail,E0599
//! use rand::{rngs::SmallRng, SeedableRng};
//! let _ = SmallRng::default();
//! ```
//!
//! ```compile_fail,E0599
//! use rand::{rngs::SmallRng, SeedableRng};
//! let _ = SmallRng::from_rng(SmallRng::seed_from_u64(1));
//! ```
pub use aq_baselines as baselines;
pub use aq_core as core;
pub use aq_netsim as netsim;
pub use aq_transport as transport;
pub use aq_workloads as workloads;
