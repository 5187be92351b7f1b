//! Property-based exercise of the bounded [`AqTable`]: arbitrary
//! interleavings of deploy / process / update / remove / wipe against a
//! shadow model.
//!
//! The shadow model is a plain `BTreeMap<id, (AqInstance, last_arrival)>`
//! driven by [`process_packet`] — the one implementation of Algorithm 2 —
//! plus the budget arithmetic, so every table-level guarantee is restated
//! externally and checked after *every* op:
//!
//! * ids are stable — an id the model says is deployed resolves, an id it
//!   says is not does not, regardless of how `swap_remove` shuffled the
//!   dense rows underneath;
//! * the stored row *is* the instance — every verdict, the `ecn` and
//!   `vdelay_ns` written on the packet, and the whole row (config, gap,
//!   counters, gap track, fault-recovery bookkeeping) equal what the
//!   standalone instance produces under the same arrivals, rate updates,
//!   replaces and wipes, across limit drops and all three CC policies;
//! * occupancy never exceeds the register budget, and the peak
//!   high-water mark is monotone and ≥ occupancy;
//! * eviction is deterministic — the model predicts the exact victim
//!   (smallest `(last_arrival, id)`) for every `EvictIdle` overflow, so
//!   any tie-break or ordering drift in the implementation fails the
//!   property.
//!
//! With the `invariants` feature on, the table's internal budget check
//! also fires on every deploy; CI runs the suite both ways.

use std::collections::BTreeMap;

use aq_core::config::{AqConfig, AqInstance, CcPolicy};
use aq_core::feedback::process_packet;
use aq_core::table::{AqTable, DeployOutcome, OverflowPolicy};
use aq_netsim::ids::{EntityId, FlowId, NodeId};
use aq_netsim::packet::{AqTag, Ecn, Packet};
use aq_netsim::time::{Rate, Time};
use proptest::prelude::*;

const PACKED_AQ_BYTES: u64 = aq_core::PACKED_AQ_BYTES as u64;
/// The ids ops draw from.
const IDS: std::ops::Range<u32> = 1..7;

/// One step applied to the table.
#[derive(Debug, Clone)]
enum Op {
    /// `try_deploy` the given id at the current time.
    Deploy(u32),
    /// Advance by Δns, then process one packet of the given payload size
    /// (ECN-capable or not) tagged with the id.
    Process(u32, u64, u32, bool),
    /// Advance by Δns, then `set_rate` the id to the given Mbps.
    Update(u32, u64, u64),
    /// Remove the id.
    Remove(u32),
    /// Advance by Δns, then fault-wipe the whole table.
    Wipe(u64),
}

/// Six ops in eleven are arrivals, spread over six ids (two per CC policy)
/// of which at most four fit the budget. Δns averages 1 µs (125 B drained
/// at 1 Gbit/s) and payloads 1.5 KB against [`cfg`]'s 4 KB limit, so an
/// id's arrivals and drain roughly balance: gaps build, cross the ECN
/// threshold and the limit, and drain again within a few ops.
fn op_strategy() -> impl Strategy<Value = Op> {
    let fields = (
        0u32..11,
        IDS,
        0u64..2_000,
        100u32..3000,
        any::<bool>(),
        100u64..10_000,
    );
    fields.prop_map(|(kind, id, d, size, ect, mbps)| match kind {
        0 | 1 => Op::Deploy(id),
        2 => Op::Update(id, d, mbps),
        3 => Op::Remove(id),
        4 => Op::Wipe(d),
        _ => Op::Process(id, d, size, ect),
    })
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
                threshold_bytes: 1500,
            },
            1 => CcPolicy::DropBased,
            _ => CcPolicy::DelayBased,
        },
    }
}

fn pkt(size: u32, ect: bool) -> Packet {
    let mut p = Packet::data(
        FlowId(1),
        EntityId(1),
        NodeId(0),
        NodeId(1),
        0,
        size,
        false,
        Time::ZERO,
    );
    if ect {
        p.ecn = Ecn::Capable;
    }
    p
}

/// Everything an [`AqInstance`] holds, as one comparable value.
fn image(i: &AqInstance) -> impl PartialEq + std::fmt::Debug {
    (
        i.cfg.clone(),
        (i.gap.bytes(), i.gap.rate(), i.gap.last_time()),
        (i.drops, i.marks, i.arrived_bytes),
        (
            i.gap_track.samples(),
            i.gap_track.max_bytes(),
            i.gap_track.mean_bytes().to_bits(),
        ),
        i.recovery.clone(),
        (i.wipes(), i.reconverge_ns()),
    )
}

/// Shadow model: id → (instance, last-arrival ns) for every deployed row.
type Model = BTreeMap<u32, (AqInstance, u64)>;

/// Check the table against the shadow model after an op.
fn check(
    table: &AqTable,
    model: &Model,
    budget: u64,
    peak_before: u64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(table.len(), model.len(), "row count diverged from model");
    let occupied = table.register_memory_bytes() as u64;
    prop_assert_eq!(occupied, model.len() as u64 * PACKED_AQ_BYTES);
    prop_assert!(
        occupied <= budget,
        "occupancy {occupied} B exceeds budget {budget} B"
    );
    let peak = table.peak_register_memory_bytes();
    prop_assert!(peak >= occupied, "peak {peak} below occupancy {occupied}");
    prop_assert!(peak >= peak_before, "peak moved backwards");
    for id in IDS {
        match model.get(&id) {
            Some((inst, last)) => {
                let row = table.get(AqTag(id)).ok_or_else(|| {
                    TestCaseError::fail(format!("model has id {id}, table does not"))
                })?;
                prop_assert_eq!(
                    image(row),
                    image(inst),
                    "row diverged from the standalone instance for id {}",
                    id
                );
                prop_assert_eq!(
                    table.last_arrival_of(AqTag(id)),
                    Some(Time::from_nanos(*last)),
                    "idle clock diverged for id {}",
                    id
                );
            }
            None => prop_assert!(
                table.get(AqTag(id)).is_none(),
                "table still resolves removed id {id}"
            ),
        }
    }
    // Iteration is by id, ascending, whatever the dense layout did.
    let order: Vec<u32> = table.iter().map(|i| i.cfg.id.0).collect();
    let expect: Vec<u32> = model.keys().copied().collect();
    prop_assert_eq!(order, expect, "iteration order is not by id");
    Ok(())
}

fn run(ops: Vec<Op>, rows: u64, policy: OverflowPolicy) -> Result<(), TestCaseError> {
    let budget = rows * PACKED_AQ_BYTES;
    let mut table = AqTable::new();
    table.set_budget(Some(budget), policy);
    let mut model = Model::new();
    let mut t = 0u64;
    for op in ops {
        let peak_before = table.peak_register_memory_bytes();
        match op {
            Op::Deploy(id) => {
                let outcome = table.try_deploy(Time::from_nanos(t), cfg(id));
                let fresh = (AqInstance::new(cfg(id)), t);
                if model.contains_key(&id) {
                    prop_assert_eq!(outcome, DeployOutcome::Replaced);
                    model.insert(id, fresh);
                } else if (model.len() as u64) < rows {
                    prop_assert_eq!(outcome, DeployOutcome::Deployed);
                    model.insert(id, fresh);
                } else if policy == OverflowPolicy::RejectNew {
                    prop_assert_eq!(outcome, DeployOutcome::Rejected);
                } else {
                    // EvictIdle at a full table: the victim is exactly the
                    // smallest (last_arrival, id) pair — no other row may
                    // be chosen.
                    let (_, victim) = model
                        .iter()
                        .map(|(&id, &(_, last))| (last, id))
                        .min()
                        .expect("full table has rows");
                    match outcome {
                        DeployOutcome::Evicted(gone) => {
                            prop_assert_eq!(gone.id, AqTag(victim), "wrong eviction victim")
                        }
                        other => prop_assert!(false, "expected eviction, got {other:?}"),
                    }
                    model.remove(&victim);
                    model.insert(id, fresh);
                }
            }
            Op::Process(id, d, size, ect) => {
                t += d;
                let now = Time::from_nanos(t);
                let mut via_table = pkt(size, ect);
                let mut via_inst = via_table.clone();
                let verdict = table.process(AqTag(id), now, &mut via_table);
                let expect = model.get_mut(&id).map(|(inst, last)| {
                    *last = t;
                    let verdict = process_packet(inst, now, &mut via_inst);
                    inst.note_recovery(now);
                    verdict
                });
                prop_assert_eq!(verdict, expect, "verdict diverged for id {}", id);
                prop_assert_eq!(
                    (via_table.ecn, via_table.vdelay_ns),
                    (via_inst.ecn, via_inst.vdelay_ns),
                    "packet feedback diverged for id {}",
                    id
                );
            }
            Op::Update(id, d, mbps) => {
                t += d;
                let (now, rate) = (Time::from_nanos(t), Rate::from_mbps(mbps));
                let hit = table.update(AqTag(id), |inst| inst.set_rate(now, rate));
                let expect = model.get_mut(&id).map(|(inst, _)| inst.set_rate(now, rate));
                prop_assert_eq!(hit, expect);
            }
            Op::Remove(id) => {
                let out = table.remove(AqTag(id));
                let expect = model.remove(&id);
                prop_assert_eq!(out.is_some(), expect.is_some());
                if let (Some(out), Some((inst, _))) = (out, expect) {
                    prop_assert_eq!(
                        image(&out),
                        image(&inst),
                        "removed row is not the row that was stored"
                    );
                }
            }
            Op::Wipe(d) => {
                t += d;
                // A fault wipe clears dynamic state but keeps configs and
                // idle clocks — eviction order must survive a reboot.
                table.wipe(Time::from_nanos(t));
                for (inst, _) in model.values_mut() {
                    *inst = inst.wiped(Time::from_nanos(t));
                }
            }
        }
        check(&table, &model, budget, peak_before)?;
    }
    Ok(())
}

proptest! {
    /// `RejectNew`: no interleaving grows the table past its budget,
    /// resolves a removed id, or perturbs surviving rows on removal.
    #[test]
    fn bounded_table_reject_new_matches_model(
        ops in ops_strategy(),
        rows in 1u64..5,
    ) {
        run(ops, rows, OverflowPolicy::RejectNew)?;
    }

    /// `EvictIdle`: same guarantees, plus every eviction picks exactly the
    /// longest-idle row (smallest id on ties) — deterministically.
    #[test]
    fn bounded_table_evict_idle_matches_model(
        ops in ops_strategy(),
        rows in 1u64..5,
    ) {
        run(ops, rows, OverflowPolicy::EvictIdle)?;
    }
}
