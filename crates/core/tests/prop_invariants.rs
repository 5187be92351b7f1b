//! One AQ driven through arbitrary interleavings of arrivals, zero-Δ
//! bursts and control writes (rate and limit retargets), held to
//! [`aq_core::spec`] after every op: Theorem 3.2's recurrence and
//! Algorithm 2's verdicts are checked here, not restated.
//!
//! Each op reaches one of the A-Gap's mutators: an arrival runs
//! `on_packet`, a drop runs `deduct`, a retarget runs `set_rate` and so
//! `drain_to`, and every forwarded packet reads `virtual_delay`. The spec
//! checks the gap, the verdict and the packet's feedback. With the
//! `invariants` feature on, the table's own spec shadow and its
//! register-budget check fire on every op as well. CI runs this suite
//! both ways, and 2048 cases of it in release.

mod common;

use aq_core::spec::Lockstep;
use aq_core::{AqConfig, CcPolicy};
use aq_netsim::packet::AqTag;
use aq_netsim::time::{Rate, Time};
use common::{burst, cuts, pkt, QUIET_NS};
use proptest::prelude::*;

/// One step applied to the AQ.
#[derive(Debug, Clone)]
enum Op {
    /// Advance by Δns and process an arrival of the given wire size
    /// (ECN-capable or not).
    Packet(u64, u32, bool),
    /// Advance by Δns, then retarget to the given bps and limit (`None`
    /// keeps the limit).
    Retarget(u64, u64, Option<u64>),
    /// After a quiet spell, a zero-Δ burst landing exactly on the limit
    /// (`true`) or the ECN threshold, split at the given cut points.
    Burst(bool, Vec<u32>),
}

/// AQ 1 at 1 Mbit/s – 400 Gbit/s under any of the three CC policies.
fn aq() -> impl Strategy<Value = AqConfig> {
    let fields = (
        1_000_000u64..400_000_000_000,
        1_000u64..1_000_000,
        0u8..3,
        60u32..1_000_000,
    );
    fields.prop_map(|(bps, limit_bytes, cc, threshold_bytes)| AqConfig {
        id: AqTag(1),
        rate: Rate::from_bps(bps),
        limit_bytes,
        cc: match cc {
            0 => CcPolicy::DropBased,
            1 => CcPolicy::EcnBased { threshold_bytes },
            _ => CcPolicy::DelayBased,
        },
    })
}

/// Op sequences: a quarter retargets, a quarter bursts, the rest arrivals.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    let fields = (
        0u8..4,
        0u64..2_000_000,
        60u32..9000,
        any::<bool>(),
        1_000_000u64..400_000_000_000,
        1_000u64..100_000,
        cuts(),
    );
    let op = fields.prop_map(|(kind, d, size, flag, bps, limit, cuts)| match kind {
        0 => Op::Retarget(d, bps, flag.then_some(limit)),
        1 => Op::Burst(flag, cuts),
        _ => Op::Packet(d, size, flag),
    });
    prop::collection::vec(op, 1..200)
}

/// Deploy `aq` and drive it through `ops`, every op held to the spec.
fn run(aq: AqConfig, ops: Vec<Op>) -> Result<(), String> {
    let (id, cc) = (aq.id, aq.cc);
    let mut pair = Lockstep::default();
    pair.deploy(Time::ZERO, aq)?;
    let mut t = 0u64;
    for op in ops {
        let arrivals = match op {
            Op::Packet(dns, size, ect) => {
                t += dns;
                vec![(size, ect)]
            }
            Op::Retarget(dns, bps, limit) => {
                t += dns;
                pair.retarget(id, Time::from_nanos(t), Rate::from_bps(bps), limit)?;
                vec![]
            }
            Op::Burst(to_limit, cuts) => {
                t += QUIET_NS;
                let target = match (to_limit, cc) {
                    (false, CcPolicy::EcnBased { threshold_bytes }) => u64::from(threshold_bytes),
                    _ => pair.table.get(id).expect("deployed").cfg.limit_bytes,
                };
                burst(target, &cuts)
                    .into_iter()
                    .map(|size| (size, true))
                    .collect()
            }
        };
        for (size, ect) in arrivals {
            pair.process(id, Time::from_nanos(t), &mut pkt(size, ect))?;
        }
    }
    Ok(())
}

proptest! {
    /// No interleaving of arrivals, bursts and retargets moves the AQ off
    /// the spec, under any rate, limit and CC policy: gap, verdict, mark,
    /// virtual delay and counters, including bursts that land exactly on
    /// a threshold.
    #[test]
    fn aq_matches_the_spec_under_any_op_sequence(aq in aq(), ops in ops()) {
        run(aq, ops).map_err(TestCaseError::fail)?;
    }
}
