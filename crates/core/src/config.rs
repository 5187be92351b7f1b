//! AQ configuration — the fields of Table 1 and their 15-byte packed
//! data-plane representation.
//!
//! The paper's implementation stores each deployed AQ in 15 bytes of
//! register memory: 4 bytes of AQ id ("to support millions of entities"),
//! 3 bytes of rate ("to support a wide range of bandwidth allocations"),
//! and the remaining fields (limit, gap, last_time, CC fields) in the other
//! 8 bytes. [`PackedAq`] reproduces that layout so Fig. 12's memory-scaling
//! numbers are regenerated from the real encoding, including its
//! quantization: rate in Mbps, limit in KB, gap in bytes (24-bit), and a
//! truncated microsecond timestamp.

use crate::gap::{AGap, GapTrack};
use aq_netsim::packet::AqTag;
use aq_netsim::time::{Rate, Time};

/// Congestion-control policy attached to an AQ (the "CC fields" of
/// Table 1). Selects which feedback Algorithm 2 generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcPolicy {
    /// Drop-based CC (CUBIC, NewReno, Illinois): no extra action — the
    /// AQ-limit drop *is* the feedback.
    DropBased,
    /// ECN-based CC (DCTCP, DCQCN): mark CE when the post-arrival gap
    /// exceeds the virtual marking threshold (bytes).
    EcnBased {
        /// Virtual ECN threshold in bytes (the A-Gap analogue of DCTCP's K).
        threshold_bytes: u32,
    },
    /// Delay-based CC (Swift, TIMELY): piggyback the virtual queuing delay
    /// `A(k)/R` onto the packet.
    DelayBased,
}

/// Where the AQ is matched in the switch (the request's position profile).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Position {
    /// Ingress pipeline: controls traffic *sent by* the entity toward any
    /// egress port (outbound bandwidth).
    Ingress,
    /// Egress pipeline: controls traffic *received by* the entity from any
    /// ingress port (inbound bandwidth).
    Egress,
}

/// Full configuration of one deployed AQ (Table 1, "AQ configuration").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AqConfig {
    /// Unique id generated by the controller; tagged into packet headers.
    pub id: AqTag,
    /// Allocated rate `R`.
    pub rate: Rate,
    /// Maximum A-Gap (`aq.limit`, bytes): packets arriving beyond it drop.
    pub limit_bytes: u64,
    /// Feedback policy.
    pub cc: CcPolicy,
}

/// A deployed AQ: configuration plus live Algorithm-1 state and counters.
#[derive(Debug, Clone)]
pub struct AqInstance {
    /// Static configuration.
    pub cfg: AqConfig,
    /// The streaming A-Gap (holds `aq.gap`, `aq.last_time`, `aq.rate`).
    pub gap: AGap,
    /// Packets dropped by the AQ limit.
    pub drops: u64,
    /// Packets ECN-marked by this AQ.
    pub marks: u64,
    /// Bytes that arrived at this AQ (demand measurement for
    /// work-conservation reallocation).
    pub arrived_bytes: u64,
    /// Streaming max/mean summary of the gap carried by forwarded packets
    /// (telemetry; exported into `StatsHub` AQ summaries).
    pub gap_track: GapTrack,
    /// Times this AQ's dynamic state has been wiped by a fault (switch
    /// reboot); carried across re-instantiations.
    pub wipes: u64,
    /// When the most recent wipe happened.
    pub wiped_at: Option<Time>,
    /// Re-convergence target after the latest wipe: the pre-wipe mean gap
    /// (capped at the limit). The rebuilt gap reaching this level means
    /// the AQ is enforcing at its pre-fault operating point again.
    pub recover_target_bytes: u64,
    /// When the rebuilt gap first reached the recovery target.
    pub recovered_at: Option<Time>,
}

impl AqInstance {
    /// Instantiate the data-plane state for a configuration.
    pub fn new(cfg: AqConfig) -> AqInstance {
        let gap = AGap::new(cfg.rate);
        AqInstance {
            cfg,
            gap,
            drops: 0,
            marks: 0,
            arrived_bytes: 0,
            gap_track: GapTrack::default(),
            wipes: 0,
            wiped_at: None,
            recover_target_bytes: 0,
            recovered_at: None,
        }
    }

    /// The post-reboot image of this AQ at time `now`: the configuration
    /// is retained (the controller re-pushes its Table-1 entries when the
    /// switch comes back), but all dynamic Algorithm-1 state and counters
    /// are lost and must be rebuilt from subsequent arrivals. Recovery
    /// bookkeeping is armed: the instance counts as re-converged once it
    /// has processed a pre-wipe mean gap's worth of post-wipe arrivals
    /// (capped at the limit) — enough traffic to have reconstituted an
    /// operating-point-sized gap had enforcement required one. The gap
    /// level itself is *not* the criterion: the A-Gap is an integrator,
    /// so at a post-wipe equilibrium (arrival rate ≈ allocated rate) it
    /// can hold any level indefinitely, and waiting for it to climb back
    /// to the historical mean would hinge on transient overshoot that may
    /// never come. Arrived bytes are monotone, so this proxy is
    /// deterministic, integer-exact, and guaranteed to trigger under
    /// continued traffic.
    pub fn wiped(&self, now: Time) -> AqInstance {
        let mean = self.gap_track.mean_bytes();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a mean of u64 gap samples fits u64; `as` drops only the fraction, \
                      and the limit caps it"
        )]
        let target = (mean as u64).min(self.cfg.limit_bytes);
        let mut fresh = AqInstance::new(self.cfg.clone());
        fresh.wipes = self.wipes + 1;
        fresh.wiped_at = Some(now);
        fresh.recover_target_bytes = target;
        fresh
    }

    /// Check (after an arrival at `now`) whether a wiped instance has
    /// re-converged; first crossing wins.
    pub fn note_recovery(&mut self, now: Time) {
        if self.wiped_at.is_some()
            && self.recovered_at.is_none()
            && self.arrived_bytes >= self.recover_target_bytes
        {
            self.recovered_at = Some(now);
        }
    }

    /// Nanoseconds from the latest wipe to re-convergence: 0 when never
    /// wiped, `u64::MAX` while a wiped instance has not yet re-converged.
    pub fn reconverge_ns(&self) -> u64 {
        match (self.wiped_at, self.recovered_at) {
            (Some(w), Some(r)) => (r - w).as_nanos(),
            (Some(_), None) => u64::MAX,
            (None, _) => 0,
        }
    }

    /// Retarget the allocated rate (weighted re-division / work
    /// conservation) at time `now`.
    pub fn set_rate(&mut self, now: Time, rate: Rate) {
        self.cfg.rate = rate;
        self.gap.set_rate(now, rate);
    }
}

/// The 15-byte packed register layout (Fig. 12's memory model).
///
/// | field     | bytes | encoding                               |
/// |-----------|-------|----------------------------------------|
/// | id        | 4     | u32                                    |
/// | rate      | 3     | Mbps, saturating at 2²⁴−1 (≈16.7 Tbps) |
/// | limit     | 2     | KB, saturating at 65 535 KB            |
/// | gap       | 3     | bytes, saturating at 2²⁴−1             |
/// | last_time | 2     | µs, truncated to 16 bits (wrapping)    |
/// | cc        | 1     | policy tag + coarse ECN threshold code |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedAq(pub [u8; 15]);

/// Bytes of switch register memory one AQ occupies.
pub const PACKED_AQ_BYTES: usize = 15;

impl PackedAq {
    /// Encode a configuration + current state into the register layout.
    pub fn encode(inst: &AqInstance) -> PackedAq {
        let mut b = [0u8; 15];
        b[0..4].copy_from_slice(&inst.cfg.id.0.to_be_bytes());
        let mbps = (inst.cfg.rate.as_bps() / 1_000_000).min(0xFF_FFFF) as u32;
        b[4..7].copy_from_slice(&mbps.to_be_bytes()[1..4]);
        let limit_kb = (inst.cfg.limit_bytes / 1000).min(0xFFFF) as u16;
        b[7..9].copy_from_slice(&limit_kb.to_be_bytes());
        let gap = inst.gap.bytes().min(0xFF_FFFF) as u32;
        b[9..12].copy_from_slice(&gap.to_be_bytes()[1..4]);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the register holds 16 bits of µs and wraps every 65.536 ms by design; \
                      pinned by `tests::last_time_is_16_bits_of_us`"
        )]
        let us16 = (inst.gap.last_time().as_nanos() / 1000) as u16;
        b[12..14].copy_from_slice(&us16.to_be_bytes());
        b[14] = match inst.cfg.cc {
            CcPolicy::DropBased => 0,
            // Threshold coded in 6 bits of 25 KB granularity.
            CcPolicy::EcnBased { threshold_bytes } => {
                0x40 | ((threshold_bytes / 25_000).min(0x3F) as u8)
            }
            CcPolicy::DelayBased => 0x80,
        };
        PackedAq(b)
    }

    /// Decode the static fields (id, rate, limit, cc). Dynamic fields (gap,
    /// last_time) are returned as raw quantized values.
    pub fn decode(&self) -> (AqConfig, u32, u16) {
        let b = &self.0;
        let id = AqTag(u32::from_be_bytes([b[0], b[1], b[2], b[3]]));
        let mbps = u32::from_be_bytes([0, b[4], b[5], b[6]]) as u64;
        let limit_kb = u16::from_be_bytes([b[7], b[8]]) as u64;
        let gap = u32::from_be_bytes([0, b[9], b[10], b[11]]);
        let us16 = u16::from_be_bytes([b[12], b[13]]);
        let cc = match b[14] >> 6 {
            0 => CcPolicy::DropBased,
            1 => CcPolicy::EcnBased {
                threshold_bytes: (b[14] & 0x3F) as u32 * 25_000,
            },
            _ => CcPolicy::DelayBased,
        };
        (
            AqConfig {
                id,
                rate: Rate::from_mbps(mbps),
                limit_bytes: limit_kb * 1000,
                cc,
            },
            gap,
            us16,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_netsim::time::Time;

    fn cfg(id: u32, gbps: u64) -> AqConfig {
        AqConfig {
            id: AqTag(id),
            rate: Rate::from_gbps(gbps),
            limit_bytes: 150_000,
            cc: CcPolicy::EcnBased {
                threshold_bytes: 75_000,
            },
        }
    }

    #[test]
    fn packed_is_exactly_15_bytes() {
        assert_eq!(std::mem::size_of::<PackedAq>(), PACKED_AQ_BYTES);
    }

    #[test]
    fn encode_decode_roundtrips_static_fields() {
        let mut inst = AqInstance::new(cfg(123_456, 25));
        inst.gap.on_packet(Time::from_micros(3), 5000);
        let p = PackedAq::encode(&inst);
        let (decoded, gap, us) = p.decode();
        assert_eq!(decoded.id, AqTag(123_456));
        assert_eq!(decoded.rate, Rate::from_gbps(25));
        assert_eq!(decoded.limit_bytes, 150_000);
        assert_eq!(
            decoded.cc,
            CcPolicy::EcnBased {
                threshold_bytes: 75_000
            }
        );
        assert_eq!(gap, 5000);
        assert_eq!(us, 3);
    }

    #[test]
    fn rate_quantizes_to_mbps_and_saturates() {
        let inst = AqInstance::new(AqConfig {
            id: AqTag(1),
            rate: Rate::from_bps(1_234_567_890),
            limit_bytes: 1 << 40,
            cc: CcPolicy::DropBased,
        });
        let (decoded, _, _) = PackedAq::encode(&inst).decode();
        assert_eq!(decoded.rate, Rate::from_mbps(1234));
        assert_eq!(decoded.limit_bytes, 65_535_000); // saturated at 2^16-1 KB
    }

    #[test]
    fn delay_policy_roundtrips() {
        let inst = AqInstance::new(AqConfig {
            id: AqTag(9),
            rate: Rate::from_gbps(1),
            limit_bytes: 10_000,
            cc: CcPolicy::DelayBased,
        });
        let (decoded, _, _) = PackedAq::encode(&inst).decode();
        assert_eq!(decoded.cc, CcPolicy::DelayBased);
    }

    // The four quantisation errors `encode` documents, pinned at today's
    // values.

    #[test]
    fn last_time_is_16_bits_of_us() {
        // 66 ms = 66 000 µs ≡ 464 (mod 65 536): the register cannot tell
        // an AQ last updated at 66 ms from one updated at 0.464 ms.
        let mut late = AqInstance::new(cfg(1, 10));
        late.gap.on_packet(Time::from_millis(66), 1500);
        let mut early = AqInstance::new(cfg(1, 10));
        early.gap.on_packet(Time::from_micros(464), 1500);
        let (_, _, us_late) = PackedAq::encode(&late).decode();
        let (_, _, us_early) = PackedAq::encode(&early).decode();
        assert_eq!((us_late, us_early), (464, 464));
    }

    #[test]
    fn gap_saturates_at_24_bits() {
        let mut inst = AqInstance::new(cfg(1, 10));
        inst.gap.on_packet(Time::ZERO, 20_000_000);
        assert_eq!(inst.gap.bytes(), 20_000_000);
        let (_, gap, _) = PackedAq::encode(&inst).decode();
        assert_eq!(gap, 0xFF_FFFF);
    }

    #[test]
    fn limit_is_floored_to_kb() {
        let mut c = cfg(1, 10);
        c.limit_bytes = 150_999;
        let (decoded, _, _) = PackedAq::encode(&AqInstance::new(c)).decode();
        assert_eq!(decoded.limit_bytes, 150_000);
    }

    #[test]
    fn ecn_threshold_is_coded_in_25_kb_steps() {
        let held = |threshold_bytes: u32| {
            let mut c = cfg(1, 10);
            c.cc = CcPolicy::EcnBased { threshold_bytes };
            match PackedAq::encode(&AqInstance::new(c)).decode().0.cc {
                CcPolicy::EcnBased { threshold_bytes } => threshold_bytes,
                other => panic!("ECN policy decoded as {other:?}"),
            }
        };
        // aq-bench's virtual ECN K (30 KB) and the star fabric's 65 KB.
        assert_eq!(held(30_000), 25_000);
        assert_eq!(held(65_000), 50_000);
        // Six bits: 63 steps is the largest threshold the register holds.
        assert_eq!(held(1_575_000), 63 * 25_000);
        assert_eq!(held(10_000_000), 63 * 25_000);
    }

    #[test]
    fn set_rate_updates_both_config_and_gap() {
        let mut inst = AqInstance::new(cfg(1, 10));
        inst.set_rate(Time::from_micros(1), Rate::from_gbps(2));
        assert_eq!(inst.cfg.rate, Rate::from_gbps(2));
        assert_eq!(inst.gap.rate(), Rate::from_gbps(2));
    }
}
