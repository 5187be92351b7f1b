//! Work-conserving bandwidth reallocation (§6 Discussions, second
//! mechanism).
//!
//! Strict AQ guarantees are intentionally non-work-conserving: a VM's
//! inbound guarantee must hold for *any* traffic pattern, so spare
//! bandwidth is not handed out. For scenarios that want conservation, the
//! paper sketches a controller that periodically measures per-AQ arrival
//! rates and recomputes allocations in the spirit of EyeQ/Seawall. This
//! module implements that as a simulator [`Agent`]: every `interval` it
//! reads each managed AQ's demand (bytes arrived since the last tick),
//! gives every AQ at least `min(demand, guarantee)`, and water-fills the
//! remaining capacity across still-hungry AQs, never dropping an AQ below
//! its guarantee when it has demand for it.

use crate::pipeline::AqPipeline;
use aq_netsim::ids::NodeId;
use aq_netsim::packet::AqTag;
use aq_netsim::sim::{Agent, AgentCtx, Network};
use aq_netsim::stats::StatsHub;
use aq_netsim::time::{Duration, Rate};
use std::collections::BTreeMap;

/// Where to find the managed pipeline and what each AQ is guaranteed.
pub struct ReallocatorConfig {
    /// The switch carrying the AQ pipeline.
    pub switch: NodeId,
    /// Index of the [`AqPipeline`] among the switch's pipelines.
    pub pipeline_index: usize,
    /// Capacity being shared.
    pub capacity: Rate,
    /// Guaranteed (minimum) rate per managed ingress-position AQ.
    pub guarantees: BTreeMap<AqTag, Rate>,
    /// Measurement / reallocation period (EyeQ and ElasticSwitch use
    /// millisecond-scale intervals).
    pub interval: Duration,
}

/// The reallocation agent.
pub struct WorkConservingReallocator {
    cfg: ReallocatorConfig,
    last_arrived: BTreeMap<AqTag, u64>,
    /// Number of reallocation rounds executed (diagnostics).
    pub rounds: u64,
}

impl WorkConservingReallocator {
    /// Build the agent.
    pub fn new(cfg: ReallocatorConfig) -> WorkConservingReallocator {
        WorkConservingReallocator {
            cfg,
            last_arrived: BTreeMap::new(),
            rounds: 0,
        }
    }

    fn reallocate(&mut self, net: &mut Network, ctx: &AgentCtx) {
        let now = ctx.now;
        let interval = self.cfg.interval;
        let Some(pipe) = net.pipeline_mut::<AqPipeline>(self.cfg.switch, self.cfg.pipeline_index)
        else {
            return;
        };
        // Measure demand: bytes arrived during the last interval, as a rate.
        let mut demand: BTreeMap<AqTag, Rate> = BTreeMap::new();
        for (id, _) in self.cfg.guarantees.iter() {
            let Some(inst) = pipe.ingress_table.get(*id) else {
                continue;
            };
            let prev = self.last_arrived.get(id).copied().unwrap_or(0);
            let delta = inst.arrived_bytes.saturating_sub(prev);
            self.last_arrived.insert(*id, inst.arrived_bytes);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "bytes that arrived within one interval, as a rate: bounded by the \
                          links feeding the AQ, far below 2⁶⁴ bps"
            )]
            let bps = (delta as u128 * 8 * aq_netsim::time::NS_PER_SEC as u128
                / interval.as_nanos().max(1) as u128) as u64;
            // Headroom: let an AQ that filled its current allocation probe
            // upward by 10% so conservation can discover released capacity.
            demand.insert(*id, Rate::from_bps(bps + bps / 10));
        }
        // Phase 1: everyone gets min(demand, guarantee).
        let mut alloc: BTreeMap<AqTag, u64> = BTreeMap::new();
        let mut spare = self.cfg.capacity.as_bps();
        for (id, g) in self.cfg.guarantees.iter() {
            let d = demand.get(id).copied().unwrap_or(Rate::ZERO);
            let base = d.as_bps().min(g.as_bps());
            alloc.insert(*id, base);
            spare = spare.saturating_sub(base);
        }
        // Phase 2: water-fill spare capacity across AQs whose demand
        // exceeds their current allocation.
        loop {
            let hungry: Vec<AqTag> = alloc
                .iter()
                .filter(|(id, a)| demand.get(id).map(|d| d.as_bps()).unwrap_or(0) > **a)
                .map(|(id, _)| *id)
                .collect();
            if hungry.is_empty() || spare == 0 {
                break;
            }
            let share = spare / hungry.len() as u64;
            if share == 0 {
                break;
            }
            let mut consumed = 0;
            for id in hungry {
                let a = alloc.get_mut(&id).expect("allocated above");
                let want = demand[&id].as_bps().saturating_sub(*a);
                let take = want.min(share);
                *a += take;
                consumed += take;
            }
            if consumed == 0 {
                break;
            }
            spare -= consumed;
        }
        // Apply, preserving accumulated gaps. The equality guard is not
        // just an optimization: `set_rate` drains the gap to `now`, and an
        // extra drain step truncates fixed-point sub-bytes differently
        // than one combined drain would, perturbing byte-exact baselines.
        for (id, bps) in alloc {
            let r = Rate::from_bps(bps);
            let _ = pipe.ingress_table.update(id, |inst| {
                if inst.cfg.rate != r {
                    inst.set_rate(now, r);
                }
            });
        }
        self.rounds += 1;
    }
}

impl Agent for WorkConservingReallocator {
    fn on_start(&mut self, _net: &mut Network, _stats: &mut StatsHub, ctx: &mut AgentCtx) {
        ctx.arm_timer_in(self.cfg.interval, 0);
    }

    fn on_timer(
        &mut self,
        net: &mut Network,
        _stats: &mut StatsHub,
        ctx: &mut AgentCtx,
        _token: u64,
    ) {
        self.reallocate(net, ctx);
        ctx.arm_timer_in(self.cfg.interval, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AqConfig, CcPolicy};
    use aq_netsim::time::Time;

    fn pipe_with(rates: &[(u32, u64)]) -> AqPipeline {
        let mut p = AqPipeline::new();
        for (id, gbps) in rates {
            p.deploy_ingress(AqConfig {
                id: AqTag(*id),
                rate: Rate::from_gbps(*gbps),
                limit_bytes: 1_000_000,
                cc: CcPolicy::DropBased,
            });
        }
        p
    }

    /// Drive `reallocate` directly against a pipeline embedded in a tiny
    /// network.
    fn run_round(
        guarantees: &[(u32, u64)],
        arrived: &[(u32, u64)],
        capacity_gbps: u64,
    ) -> BTreeMap<u32, u64> {
        use aq_netsim::queue::FifoConfig;
        use aq_netsim::topology::NetBuilder;
        let mut b = NetBuilder::new();
        let h1 = b.add_host();
        let sw = b.add_switch();
        b.connect_symmetric(
            h1,
            sw,
            Rate::from_gbps(capacity_gbps),
            aq_netsim::time::Duration::from_micros(1),
            FifoConfig::default(),
        );
        let mut net = b.build();
        let mut pipe = pipe_with(guarantees);
        for (id, bytes) in arrived {
            pipe.ingress_table
                .update(AqTag(*id), |inst| inst.arrived_bytes = *bytes)
                .expect("deployed");
        }
        net.add_pipeline(sw, Box::new(pipe));
        let cfg = ReallocatorConfig {
            switch: sw,
            pipeline_index: 0,
            capacity: Rate::from_gbps(capacity_gbps),
            guarantees: guarantees
                .iter()
                .map(|(id, g)| (AqTag(*id), Rate::from_gbps(*g)))
                .collect(),
            interval: Duration::from_millis(1),
        };
        let mut agent = WorkConservingReallocator::new(cfg);
        let mut stats = StatsHub::new();
        let mut ctx = AgentCtx::new(aq_netsim::ids::AgentId(0), Time::from_millis(1));
        agent.on_timer(&mut net, &mut stats, &mut ctx, 0);
        let pipe = net
            .pipeline_mut::<AqPipeline>(sw, 0)
            .expect("pipeline present");
        pipe.ingress_table
            .iter()
            .map(|i| (i.cfg.id.0, i.cfg.rate.as_bps()))
            .collect()
    }

    #[test]
    fn idle_entity_releases_bandwidth_to_hungry_one() {
        // Two AQs each guaranteed 5 Gbps on a 10 Gbps link. AQ 1 is idle,
        // AQ 2 sent 1.25 MB in 1 ms (= 10 Gbps demand): it should receive
        // nearly the whole link.
        let rates = run_round(&[(1, 5), (2, 5)], &[(1, 0), (2, 1_250_000)], 10);
        assert_eq!(rates[&1], 0);
        assert!(
            rates[&2] >= 9_900_000_000,
            "hungry AQ got only {} bps",
            rates[&2]
        );
    }

    #[test]
    fn both_hungry_split_at_guarantees() {
        // Both demand the full link: each ends at its 5 Gbps guarantee.
        let rates = run_round(&[(1, 5), (2, 5)], &[(1, 1_250_000), (2, 1_250_000)], 10);
        let a = rates[&1] as f64;
        let b = rates[&2] as f64;
        assert!((a - b).abs() / a.max(b) < 0.01, "{a} vs {b}");
        assert!((4.9e9..=5.6e9).contains(&a), "{a}");
    }

    #[test]
    fn low_demand_entity_keeps_what_it_uses() {
        // AQ 1 demands ~2 Gbps (0.25 MB/ms), AQ 2 is greedy.
        let rates = run_round(&[(1, 5), (2, 5)], &[(1, 250_000), (2, 1_250_000)], 10);
        // AQ 1 gets its demand (with probe headroom), AQ 2 the rest.
        assert!(rates[&1] >= 2_000_000_000 && rates[&1] <= 2_500_000_000);
        assert!(rates[&2] >= 7_000_000_000);
    }
}
