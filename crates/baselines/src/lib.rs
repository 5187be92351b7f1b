//! # aq-baselines — the systems the paper compares AQ against
//!
//! * [`htb`] — HTB-style token-bucket shaping: the *pre-determined rate
//!   limiter* (PRL) baseline, installed on host uplinks;
//! * [`elastic`] — an ElasticSwitch-style *dynamic rate limiter* (DRL)
//!   agent: hose-model guarantee partitioning plus probing rate
//!   allocation on a 15 ms loop;
//! * [`drr`] — Deficit Round Robin per-flow queueing, representing the
//!   fair-queueing family of related work.
//!
//! The physical queue (PQ) baseline needs no code here: it is the
//! simulator's native [`aq_netsim::FifoQueue`].

pub mod drr;
pub mod elastic;
pub mod htb;

pub use drr::DrrQueue;
pub use elastic::{ElasticSwitch, VmConfig};
pub use htb::{ClassKey, Classify, HtbShaper, TokenBucket};
