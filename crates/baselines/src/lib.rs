//! # aq-baselines — the systems the paper compares AQ against
//!
//! * [`htb`] — HTB-style token-bucket shaping: the *pre-determined rate
//!   limiter* (PRL) baseline, installed on host uplinks;
//! * [`elastic`] — an ElasticSwitch-style *dynamic rate limiter* (DRL)
//!   agent: hose-model guarantee partitioning plus probing rate
//!   allocation on a 15 ms loop.
//!
//! The physical queue (PQ) baseline needs no code here: it is the
//! simulator's native [`aq_netsim::FifoQueue`].

// Determinism policy (DESIGN §5a): float equality is
// representation-fragile.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod elastic;
pub mod htb;

pub use elastic::{ElasticSwitch, VmConfig};
pub use htb::{ClassKey, Classify, HtbShaper, TokenBucket};
