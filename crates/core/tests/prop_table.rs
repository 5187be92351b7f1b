//! Property-based exercise of the bounded [`AqTable`]: arbitrary
//! interleavings of deploy / process / retarget / remove / wipe, each
//! applied to the table and to [`aq_core::spec`] through [`Lockstep`],
//! with the whole table checked against the spec after *every* op:
//!
//! * ids are stable — an id the spec says is deployed resolves, an id it
//!   says is not does not, and iteration is by id, regardless of how
//!   `swap_remove` shuffled the dense rows underneath;
//! * every verdict, the `ecn` and `vdelay_ns` written on the packet, and
//!   the whole row (config, gap, counters, gap track, fault-recovery
//!   bookkeeping, idle clock) follow the spec under the same arrivals,
//!   retargets, replaces and wipes, across limit drops, bursts that land
//!   exactly on the limit or the ECN threshold, and all three CC policies;
//! * occupancy, its high-water mark and the rejection and eviction
//!   counts equal the spec's, which never exceeds the register budget;
//! * eviction is deterministic — the spec picks the exact victim
//!   (smallest `(last_arrival, id)`) for every `EvictIdle` overflow, so
//!   any tie-break or ordering drift in the implementation fails the
//!   property.
//!
//! With the `invariants` feature on, the table's own spec shadow and its
//! internal budget check also fire on every op; CI runs the suite both
//! ways.
//!
//! [`AqTable`]: aq_core::table::AqTable
//! [`Lockstep`]: aq_core::spec::Lockstep

mod common;

use aq_core::config::{AqConfig, CcPolicy};
use aq_core::spec::Lockstep;
use aq_core::table::OverflowPolicy;
use aq_netsim::packet::AqTag;
use aq_netsim::time::{Rate, Time};
use common::{burst, cuts, pkt, QUIET_NS};
use proptest::prelude::*;

const PACKED_AQ_BYTES: u64 = aq_core::PACKED_AQ_BYTES as u64;
/// The ids ops draw from.
const IDS: std::ops::Range<u32> = 1..7;
/// Every AQ's ECN threshold (the ECN-based ids' `cc`).
const THRESHOLD_BYTES: u32 = 1500;

/// One step applied to the table.
#[derive(Debug, Clone)]
enum Op {
    /// `try_deploy` the given id at the current time.
    Deploy(u32),
    /// Advance by Δns, then process one packet of the given wire size
    /// (ECN-capable or not) tagged with the id.
    Process(u32, u64, u32, bool),
    /// Advance by Δns, then retarget the id to the given Mbps and limit
    /// (`None` keeps the limit).
    Retarget(u32, u64, u64, Option<u64>),
    /// Remove the id.
    Remove(u32),
    /// Advance by Δns, then fault-wipe the whole table.
    Wipe(u64),
    /// After a quiet spell, a zero-Δ burst on the id landing exactly on
    /// its limit (`true`) or the ECN threshold.
    Burst(u32, bool, Vec<u32>),
}

/// Six ops in twelve are arrivals, spread over six ids (two per CC policy)
/// of which at most four fit the budget. Δns averages 1 µs (125 B drained
/// at 1 Gbit/s) and packets 1.5 KB against [`cfg`]'s 4 KB limit, so an
/// id's arrivals and drain roughly balance: gaps build, cross the ECN
/// threshold and the limit, and drain again within a few ops.
fn op_strategy() -> impl Strategy<Value = Op> {
    let fields = (
        (0u32..12, IDS),
        (0u64..2_000, 160u32..3060, any::<bool>()),
        (100u64..10_000, 2_000u64..8_000),
        cuts(),
    );
    fields.prop_map(
        |((kind, id), (d, size, flag), (mbps, limit), cuts)| match kind {
            0 | 1 => Op::Deploy(id),
            2 => Op::Retarget(id, d, mbps, flag.then_some(limit)),
            3 => Op::Remove(id),
            4 => Op::Wipe(d),
            5 => Op::Burst(id, flag, cuts),
            _ => Op::Process(id, d, size, flag),
        },
    )
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(op_strategy(), 1..160)
}

fn cfg(id: u32) -> AqConfig {
    AqConfig {
        id: AqTag(id),
        rate: Rate::from_gbps(1),
        limit_bytes: 4000,
        cc: match id % 3 {
            0 => CcPolicy::EcnBased {
                threshold_bytes: THRESHOLD_BYTES,
            },
            1 => CcPolicy::DropBased,
            _ => CcPolicy::DelayBased,
        },
    }
}

fn run(ops: Vec<Op>, rows: u64, policy: OverflowPolicy) -> Result<(), String> {
    let mut pair = Lockstep::default();
    pair.set_budget(Some(rows * PACKED_AQ_BYTES), policy);
    let mut t = 0u64;
    for op in ops {
        match op {
            Op::Deploy(id) => {
                pair.deploy(Time::from_nanos(t), cfg(id))?;
            }
            Op::Process(id, d, size, ect) => {
                t += d;
                pair.process(AqTag(id), Time::from_nanos(t), &mut pkt(size, ect))?;
            }
            Op::Retarget(id, d, mbps, limit) => {
                t += d;
                pair.retarget(AqTag(id), Time::from_nanos(t), Rate::from_mbps(mbps), limit)?;
            }
            Op::Remove(id) => {
                pair.remove(AqTag(id))?;
            }
            Op::Wipe(d) => {
                t += d;
                pair.wipe(Time::from_nanos(t))?;
            }
            Op::Burst(id, to_limit, cuts) => {
                t += QUIET_NS;
                let threshold = u64::from(THRESHOLD_BYTES);
                let limit = pair
                    .table
                    .get(AqTag(id))
                    .map_or(threshold, |inst| inst.cfg.limit_bytes);
                for size in burst(if to_limit { limit } else { threshold }, &cuts) {
                    pair.process(AqTag(id), Time::from_nanos(t), &mut pkt(size, true))?;
                }
            }
        }
        pair.spec.check_table(&pair.table)?;
    }
    Ok(())
}

proptest! {
    /// `RejectNew`: no interleaving grows the table past its budget,
    /// resolves a removed id, or moves a row off the spec.
    #[test]
    fn bounded_table_reject_new_matches_the_spec(
        ops in ops_strategy(),
        rows in 1u64..5,
    ) {
        run(ops, rows, OverflowPolicy::RejectNew).map_err(TestCaseError::fail)?;
    }

    /// `EvictIdle`: same guarantees, plus every eviction picks exactly the
    /// longest-idle row (smallest id on ties) — deterministically.
    #[test]
    fn bounded_table_evict_idle_matches_the_spec(
        ops in ops_strategy(),
        rows in 1u64..5,
    ) {
        run(ops, rows, OverflowPolicy::EvictIdle).map_err(TestCaseError::fail)?;
    }
}
