//! The AQ control plane (§4.1).
//!
//! Tenants submit [`AqRequest`]s carrying the three kinds of information the
//! paper describes — rate-related (absolute or weighted bandwidth demand),
//! CC-related (the feedback policy), and position-related (ingress or
//! egress). The [`AqController`], run by the cloud operator, admits or
//! declines requests against one contended link's capacity, allocates
//! unique AQ ids, derives concrete rates for weighted entities, applies an
//! AQ-limit policy (§6), and emits the [`AqConfig`]s to deploy on the
//! switch data plane.

use crate::config::{AqConfig, CcPolicy, Position};
use crate::pipeline::AqPipeline;
use aq_netsim::packet::AqTag;
use aq_netsim::time::{Rate, Time};
use std::collections::BTreeMap;

/// Rate-related information in a request (§4.1 "two modes for bandwidth
/// allocation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandwidthDemand {
    /// Absolute mode: a hard reservation the controller admission-checks.
    Absolute(Rate),
    /// Weighted mode: share the (non-reserved) capacity proportionally.
    Weighted(u64),
}

/// A tenant's request for one AQ.
#[derive(Debug, Clone)]
pub struct AqRequest {
    /// Rate-related information.
    pub demand: BandwidthDemand,
    /// CC-related information (how Algorithm 2 generates feedback).
    pub cc: CcPolicy,
    /// Position-related information (ingress or egress pipeline).
    pub position: Position,
    /// Explicit AQ limit override; `None` applies the controller's
    /// [`LimitPolicy`].
    pub limit_override: Option<u64>,
}

/// How the controller sets AQ limits when a request does not override them
/// (the two policies discussed in §6 "AQ limit configurations").
#[derive(Debug, Clone, Copy)]
pub enum LimitPolicy {
    /// Every AQ gets the physical queue's limit. Entities configure their
    /// CC exactly as they would against the PQ; the sum of AQ limits may
    /// exceed the PQ limit.
    MatchPhysicalQueue {
        /// The PQ limit in bytes.
        pq_limit_bytes: u64,
    },
    /// Divide the PQ limit proportionally to allocated bandwidth, with a
    /// floor so low-rate entities are not starved by excess drops.
    ProportionalShare {
        /// The PQ limit in bytes.
        pq_limit_bytes: u64,
        /// Minimum AQ limit in bytes regardless of share.
        min_bytes: u64,
    },
}

/// Why a request was declined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantError {
    /// Absolute mode asked for more than the remaining unreserved capacity.
    InsufficientBandwidth {
        /// Bits per second still unreserved.
        available_bps: u64,
    },
    /// A weight of zero cannot share bandwidth.
    ZeroWeight,
}

/// A granted request: the tenant tags this id into its packets.
#[derive(Debug, Clone, Copy)]
pub struct Grant {
    /// The unique AQ id.
    pub id: AqTag,
    /// The concrete rate currently derived for the AQ (weighted-mode rates
    /// change as entities join/leave; read back with
    /// [`AqController::rate_of`]).
    pub rate: Rate,
}

#[derive(Debug, Clone)]
struct Entry {
    demand: BandwidthDemand,
    cc: CcPolicy,
    position: Position,
    limit_override: Option<u64>,
    rate: Rate,
}

/// The per-link AQ controller.
#[derive(Debug)]
pub struct AqController {
    capacity: Rate,
    limit_policy: LimitPolicy,
    next_id: u32,
    entries: BTreeMap<AqTag, Entry>,
}

impl AqController {
    /// A controller managing one link of `capacity`, with the given limit
    /// policy for requests that do not override their limit.
    pub fn new(capacity: Rate, limit_policy: LimitPolicy) -> AqController {
        AqController {
            capacity,
            limit_policy,
            next_id: 1, // id 0 is the reserved "no AQ" tag
            entries: BTreeMap::new(),
        }
    }

    /// Managed link capacity.
    pub fn capacity(&self) -> Rate {
        self.capacity
    }

    /// Absolute reservations at one pipeline position. Ingress- and
    /// egress-position AQs meter different directions of the link, so each
    /// position has its own admission pool.
    fn reserved_bps(&self, position: Position) -> u64 {
        self.entries
            .values()
            .filter(|e| e.position == position)
            .filter_map(|e| match e.demand {
                BandwidthDemand::Absolute(r) => Some(r.as_bps()),
                BandwidthDemand::Weighted(_) => None,
            })
            .sum()
    }

    fn total_weight(&self, position: Position) -> u64 {
        self.entries
            .values()
            .filter(|e| e.position == position)
            .filter_map(|e| match e.demand {
                BandwidthDemand::Weighted(w) => Some(w),
                BandwidthDemand::Absolute(_) => None,
            })
            .sum()
    }

    /// Recompute weighted-mode rates after membership changes.
    fn redivide(&mut self) {
        for position in [Position::Ingress, Position::Egress] {
            let spare = self
                .capacity
                .as_bps()
                .saturating_sub(self.reserved_bps(position));
            let total_w = self.total_weight(position);
            for e in self.entries.values_mut().filter(|e| e.position == position) {
                e.rate = match e.demand {
                    BandwidthDemand::Absolute(r) => r,
                    BandwidthDemand::Weighted(w) => {
                        if total_w == 0 {
                            Rate::ZERO
                        } else {
                            #[expect(
                                clippy::cast_possible_truncation,
                                reason = "w ≤ total_w, which sums these entries' weights, \
                                          so the share is ≤ spare"
                            )]
                            let bps = (spare as u128 * w as u128 / total_w as u128) as u64;
                            Rate::from_bps(bps)
                        }
                    }
                };
            }
        }
    }

    /// Process a request: admit or decline (§4.1 "AQ grants").
    pub fn request(&mut self, req: AqRequest) -> Result<Grant, GrantError> {
        match req.demand {
            BandwidthDemand::Absolute(r) => {
                let available = self
                    .capacity
                    .as_bps()
                    .saturating_sub(self.reserved_bps(req.position));
                if r.as_bps() > available {
                    return Err(GrantError::InsufficientBandwidth {
                        available_bps: available,
                    });
                }
            }
            BandwidthDemand::Weighted(0) => return Err(GrantError::ZeroWeight),
            BandwidthDemand::Weighted(_) => {}
        }
        let id = AqTag(self.next_id);
        self.next_id += 1;
        self.entries.insert(
            id,
            Entry {
                demand: req.demand,
                cc: req.cc,
                position: req.position,
                limit_override: req.limit_override,
                rate: Rate::ZERO,
            },
        );
        self.redivide();
        Ok(Grant {
            id,
            rate: self.entries[&id].rate,
        })
    }

    /// Release a granted AQ; weighted entities re-divide the freed share.
    pub fn release(&mut self, id: AqTag) -> bool {
        let removed = self.entries.remove(&id).is_some();
        if removed {
            self.redivide();
        }
        removed
    }

    /// Current derived rate of a granted AQ.
    pub fn rate_of(&self, id: AqTag) -> Option<Rate> {
        self.entries.get(&id).map(|e| e.rate)
    }

    /// Number of granted AQs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no AQs are granted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn limit_for(&self, e: &Entry) -> u64 {
        if let Some(l) = e.limit_override {
            return l;
        }
        match self.limit_policy {
            LimitPolicy::MatchPhysicalQueue { pq_limit_bytes } => pq_limit_bytes,
            LimitPolicy::ProportionalShare {
                pq_limit_bytes,
                min_bytes,
            } => {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "`request` admits no rate above capacity, so the share is \
                              ≤ pq_limit_bytes"
                )]
                let share = (pq_limit_bytes as u128 * e.rate.as_bps() as u128
                    / self.capacity.as_bps().max(1) as u128) as u64;
                share.max(min_bytes)
            }
        }
    }

    /// The concrete deployment: every granted AQ's position and config
    /// (§4.1 "AQ deployments").
    pub fn configs(&self) -> Vec<(Position, AqConfig)> {
        self.entries
            .iter()
            .map(|(id, e)| {
                (
                    e.position,
                    AqConfig {
                        id: *id,
                        rate: e.rate,
                        limit_bytes: self.limit_for(e),
                        cc: e.cc,
                    },
                )
            })
            .collect()
    }

    /// Deploy every granted AQ into a pipeline (fresh instances — use at
    /// setup time). Deploys a register budget rejects park in the
    /// pipeline's degrade state; see [`AqPipeline`] module docs.
    pub fn deploy_all(&self, pipeline: &mut AqPipeline) {
        for (pos, cfg) in self.configs() {
            let _ = match pos {
                Position::Ingress => pipeline.deploy_ingress(cfg),
                Position::Egress => pipeline.deploy_egress(cfg),
            };
        }
    }

    /// Push rate changes (weighted re-division) into already-deployed
    /// instances without resetting their gaps.
    pub fn sync_rates(&self, pipeline: &mut AqPipeline, now: Time) {
        for (pos, cfg) in self.configs() {
            let table = match pos {
                Position::Ingress => &mut pipeline.ingress_table,
                Position::Egress => &mut pipeline.egress_table,
            };
            let _ = table.update(cfg.id, |inst| {
                if inst.cfg.rate != cfg.rate {
                    inst.set_rate(now, cfg.rate);
                }
                inst.cfg.limit_bytes = cfg.limit_bytes;
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> AqController {
        AqController::new(
            Rate::from_gbps(10),
            LimitPolicy::MatchPhysicalQueue {
                pq_limit_bytes: 200_000,
            },
        )
    }

    fn weighted(w: u64) -> AqRequest {
        AqRequest {
            demand: BandwidthDemand::Weighted(w),
            cc: CcPolicy::DropBased,
            position: Position::Ingress,
            limit_override: None,
        }
    }

    fn absolute(gbps: u64) -> AqRequest {
        AqRequest {
            demand: BandwidthDemand::Absolute(Rate::from_gbps(gbps)),
            cc: CcPolicy::DropBased,
            position: Position::Ingress,
            limit_override: None,
        }
    }

    #[test]
    fn absolute_mode_admission_control() {
        let mut c = controller();
        let g = c.request(absolute(6)).unwrap();
        assert_eq!(g.rate, Rate::from_gbps(6));
        match c.request(absolute(5)) {
            Err(GrantError::InsufficientBandwidth { available_bps }) => {
                assert_eq!(available_bps, 4_000_000_000);
            }
            other => panic!("expected decline, got {other:?}"),
        }
        // Release frees the reservation.
        assert!(c.release(g.id));
        assert!(c.request(absolute(5)).is_ok());
    }

    #[test]
    fn weighted_mode_divides_spare_capacity() {
        let mut c = controller();
        let a = c.request(weighted(1)).unwrap();
        assert_eq!(c.rate_of(a.id), Some(Rate::from_gbps(10)));
        let b = c.request(weighted(1)).unwrap();
        assert_eq!(c.rate_of(a.id), Some(Rate::from_gbps(5)));
        assert_eq!(c.rate_of(b.id), Some(Rate::from_gbps(5)));
        let d = c.request(weighted(2)).unwrap();
        assert_eq!(c.rate_of(d.id), Some(Rate::from_gbps(5)));
        assert_eq!(c.rate_of(a.id), Some(Rate::from_bps(2_500_000_000)));
    }

    #[test]
    fn weighted_shares_only_what_absolute_left() {
        let mut c = controller();
        c.request(absolute(6)).unwrap();
        let w = c.request(weighted(1)).unwrap();
        assert_eq!(c.rate_of(w.id), Some(Rate::from_gbps(4)));
    }

    #[test]
    fn zero_weight_is_rejected() {
        assert!(matches!(
            controller().request(weighted(0)),
            Err(GrantError::ZeroWeight)
        ));
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut c = controller();
        let a = c.request(weighted(1)).unwrap();
        let b = c.request(weighted(1)).unwrap();
        assert!(a.id.is_some() && b.id.is_some());
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn match_pq_limit_policy() {
        let mut c = controller();
        c.request(weighted(1)).unwrap();
        let cfgs = c.configs();
        assert_eq!(cfgs[0].1.limit_bytes, 200_000);
    }

    #[test]
    fn proportional_limit_policy_with_floor() {
        let mut c = AqController::new(
            Rate::from_gbps(10),
            LimitPolicy::ProportionalShare {
                pq_limit_bytes: 200_000,
                min_bytes: 30_000,
            },
        );
        c.request(absolute(5)).unwrap(); // half the link -> 100 KB
        c.request(absolute(1)).unwrap(); // tenth -> 20 KB, floored to 30 KB
        let limits: Vec<u64> = c.configs().iter().map(|(_, cfg)| cfg.limit_bytes).collect();
        assert_eq!(limits, vec![100_000, 30_000]);
    }

    #[test]
    fn deploy_and_sync_rates_into_pipeline() {
        let mut c = controller();
        let a = c.request(weighted(1)).unwrap();
        let mut pipe = AqPipeline::new();
        c.deploy_all(&mut pipe);
        assert_eq!(
            pipe.ingress_table.get(a.id).unwrap().cfg.rate,
            Rate::from_gbps(10)
        );
        // A second entity joins: re-division halves the first one's rate.
        c.request(weighted(1)).unwrap();
        c.sync_rates(&mut pipe, Time::from_millis(1));
        assert_eq!(
            pipe.ingress_table.get(a.id).unwrap().cfg.rate,
            Rate::from_gbps(5)
        );
    }

    #[test]
    fn egress_position_deploys_to_egress_table() {
        let mut c = controller();
        let g = c
            .request(AqRequest {
                demand: BandwidthDemand::Absolute(Rate::from_gbps(2)),
                cc: CcPolicy::DelayBased,
                position: Position::Egress,
                limit_override: Some(50_000),
            })
            .unwrap();
        let mut pipe = AqPipeline::new();
        c.deploy_all(&mut pipe);
        assert!(pipe.ingress_table.get(g.id).is_none());
        let inst = pipe.egress_table.get(g.id).unwrap();
        assert_eq!(inst.cfg.limit_bytes, 50_000);
    }
}
