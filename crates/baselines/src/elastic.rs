//! ElasticSwitch-style *dynamic rate limiting* (DRL) — the paper's second
//! rate-limiting baseline (Popa et al., SIGCOMM 2013).
//!
//! ElasticSwitch gives each VM hose-model guarantees (`B_out`, `B_in`) and
//! runs two layers every adjustment interval (15 ms in the paper's
//! evaluation):
//!
//! * **Guarantee partitioning (GP)**: each VM pair `(s, d)` is guaranteed
//!   `min(B_out(s)/|active dsts of s|, B_in(d)/|active srcs of d|)`;
//! * **Rate allocation (RA)**: pair limits probe above the guarantee for
//!   work conservation — multiplicative increase while demand is unmet and
//!   no congestion is observed on the pair's path, decrease toward the
//!   guarantee on congestion.
//!
//! The agent measures demand from each sender's [`HtbShaper`] (classified
//! by destination) and observes congestion as taildrop deltas on the ports
//! a pair traverses. Faithfulness notes: real ElasticSwitch infers
//! congestion from endpoint feedback rather than switch counters, and its
//! increase law is adaptive; both simplifications preserve what the AQ
//! paper leans on — allocation lags demand by the adjustment interval, so
//! bursty workloads under-utilize and inbound guarantees are held only
//! approximately.

use crate::htb::{ClassKey, HtbShaper};
use aq_netsim::ids::{NodeId, PortId};
use aq_netsim::sim::{Agent, AgentCtx, Network};
use aq_netsim::stats::StatsHub;
use aq_netsim::time::{Duration, Rate, NS_PER_SEC};
use std::collections::BTreeMap;

/// One managed VM.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// The VM's host node.
    pub host: NodeId,
    /// The VM's uplink port, whose discipline must be an [`HtbShaper`]
    /// with [`crate::htb::Classify::ByDst`].
    pub uplink: PortId,
    /// Hose-model outbound guarantee.
    pub out_guarantee: Rate,
    /// Hose-model inbound guarantee.
    pub in_guarantee: Rate,
}

#[derive(Debug, Clone, Copy, Default)]
struct PairState {
    rate_bps: u64,
    last_released: u64,
}

/// The DRL control agent.
pub struct ElasticSwitch {
    vms: Vec<VmConfig>,
    interval: Duration,
    pairs: BTreeMap<(NodeId, NodeId), PairState>,
    last_port_drops: Vec<u64>,
    /// When set, pair rates never exceed the hose-model caps
    /// `min(B_out(s)/|D_s|, B_in(d)/|S_d|)` — the VM-traffic-profile
    /// deployment (Table 3), where the profile is "no more, no less".
    /// When clear, RA probes above guarantees for work conservation
    /// (the Fig. 6/7 deployment).
    cap_to_hose: bool,
}

/// Multiplicative probe-up factor per interval while demand is unmet.
const PROBE_UP: f64 = 1.3;
/// Additive probe floor so a silent pair can restart (bits/s).
const PROBE_FLOOR: u64 = 50_000_000;
/// Decrease factor toward the guarantee on observed congestion.
const DECREASE: f64 = 0.7;
/// A pair is "hungry" when demand exceeds this fraction of its limit.
const HUNGRY: f64 = 0.9;

impl ElasticSwitch {
    /// Build the agent for the given VMs with the classic 15 ms interval.
    pub fn new(vms: Vec<VmConfig>) -> ElasticSwitch {
        ElasticSwitch {
            vms,
            interval: Duration::from_millis(15),
            pairs: BTreeMap::new(),
            last_port_drops: Vec::new(),
            cap_to_hose: false,
        }
    }

    /// Hose-capped variant for VM traffic profiles (Table 3).
    pub fn with_hose_cap(vms: Vec<VmConfig>) -> ElasticSwitch {
        let mut e = ElasticSwitch::new(vms);
        e.cap_to_hose = true;
        e
    }

    /// Current limit of a managed pair, if any.
    #[cfg(test)]
    fn pair_rate(&self, src: NodeId, dst: NodeId) -> Option<Rate> {
        self.pairs
            .get(&(src, dst))
            .map(|p| Rate::from_bps(p.rate_bps))
    }

    fn in_guarantee(&self, host: NodeId) -> Option<Rate> {
        self.vms
            .iter()
            .find(|v| v.host == host)
            .map(|v| v.in_guarantee)
    }

    /// Ports traversed from `src` to `dst` under current routing. With
    /// ECMP the pair's flows may spread over several paths; the congestion
    /// probe walks one representative path per pair (hashed from the
    /// endpoints), which matches ElasticSwitch's endpoint-level visibility.
    fn path_ports(net: &Network, src: NodeId, dst: NodeId) -> Vec<PortId> {
        let rep = aq_netsim::ids::FlowId(src.0.wrapping_mul(31).wrapping_add(dst.0));
        let mut ports = Vec::new();
        let mut at = src;
        while at != dst {
            let Some(port) = net.route(at, dst, rep) else {
                break;
            };
            ports.push(port);
            at = net.links[net.ports[port.index()].link.index()].to_node;
        }
        ports
    }

    fn adjust(&mut self, net: &mut Network, stats: &StatsHub, ctx: &AgentCtx) {
        let now = ctx.now;
        let dt_ns = self.interval.as_nanos().max(1);
        // Congestion: ports whose drop counters advanced this interval.
        let mut congested = vec![false; net.ports.len()];
        self.last_port_drops.resize(net.ports.len(), 0);
        for (i, last) in self.last_port_drops.iter_mut().enumerate() {
            let drops = stats.port(PortId::from(i)).map_or(0, |ps| ps.queue_drops());
            if drops > *last {
                congested[i] = true;
                *last = drops;
            }
        }
        // Pass 1: measure per-pair demand from every sender's shaper.
        let mut demand_bps: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
        for vm in &self.vms {
            let host = vm.host;
            let Some(shaper) = net.discipline_mut::<HtbShaper>(vm.uplink) else {
                continue;
            };
            for key in shaper.class_keys() {
                let ClassKey::Dst(dst) = key else { continue };
                let released = shaper.class_released(key);
                let backlog = shaper.class_backlog(key);
                let pair = self.pairs.entry((host, dst)).or_default();
                let delta = released.saturating_sub(pair.last_released);
                pair.last_released = released;
                let bps =
                    ((delta + backlog) as u128 * 8 * NS_PER_SEC as u128 / dt_ns as u128) as u64;
                demand_bps.insert((host, dst), bps);
            }
        }
        // Active sets for guarantee partitioning.
        let mut active_dsts: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut active_srcs: BTreeMap<NodeId, u64> = BTreeMap::new();
        for ((s, d), bps) in &demand_bps {
            if *bps > 0 {
                *active_dsts.entry(*s).or_default() += 1;
                *active_srcs.entry(*d).or_default() += 1;
            }
        }
        // Pass 2: GP + RA per pair, then apply to the shaper class.
        for vm in &self.vms {
            let s = vm.host;
            let keys: Vec<(NodeId, u64)> = demand_bps
                .iter()
                .filter(|((src, _), _)| *src == s)
                .map(|((_, d), bps)| (*d, *bps))
                .collect();
            for (d, demand) in keys {
                let n_dsts = active_dsts.get(&s).copied().unwrap_or(0).max(1);
                let n_srcs = active_srcs.get(&d).copied().unwrap_or(0).max(1);
                let g_out = vm.out_guarantee.as_bps() / n_dsts;
                let g_in = self
                    .in_guarantee(d)
                    .map(|r| r.as_bps() / n_srcs)
                    .unwrap_or(u64::MAX);
                let g = g_out.min(g_in);
                let pair = self.pairs.entry((s, d)).or_default();
                if pair.rate_bps == 0 {
                    pair.rate_bps = g.max(PROBE_FLOOR);
                }
                let path_congested = Self::path_ports(net, s, d)
                    .iter()
                    .any(|p| congested[p.index()]);
                pair.rate_bps = if path_congested {
                    ((pair.rate_bps as f64 * DECREASE) as u64).max(g)
                } else if demand as f64 >= pair.rate_bps as f64 * HUNGRY {
                    ((pair.rate_bps as f64 * PROBE_UP) as u64 + PROBE_FLOOR).max(g)
                } else {
                    // Track demand down, keeping probing headroom and never
                    // dropping below the guarantee.
                    ((demand as f64 * 1.2) as u64 + PROBE_FLOOR).max(g)
                };
                if self.cap_to_hose {
                    pair.rate_bps = pair.rate_bps.min(g.max(1));
                }
                let rate = Rate::from_bps(pair.rate_bps);
                if let Some(shaper) = net.discipline_mut::<HtbShaper>(vm.uplink) {
                    shaper.set_class_rate(now, ClassKey::Dst(d), rate);
                }
            }
        }
    }
}

impl Agent for ElasticSwitch {
    fn on_start(&mut self, _net: &mut Network, _stats: &mut StatsHub, ctx: &mut AgentCtx) {
        ctx.arm_timer_in(self.interval, 0);
    }

    fn on_timer(
        &mut self,
        net: &mut Network,
        stats: &mut StatsHub,
        ctx: &mut AgentCtx,
        _token: u64,
    ) {
        self.adjust(net, stats, ctx);
        ctx.arm_timer_in(self.interval, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::htb::Classify;
    use aq_netsim::queue::FifoConfig;
    use aq_netsim::time::Time;
    use aq_netsim::topology::NetBuilder;

    /// Star of 3 VM hosts with ByDst shapers on their uplinks.
    fn star_with_shapers(rate: Rate) -> (Network, Vec<VmConfig>) {
        let mut b = NetBuilder::new();
        let sw = b.add_switch();
        let mut vms = Vec::new();
        for _ in 0..3 {
            let h = b.add_host();
            let up = b.half_link(
                h,
                sw,
                rate,
                Duration::from_micros(5),
                Box::new(HtbShaper::new(
                    Classify::ByDst,
                    Rate::from_gbps(5),
                    30_000,
                    40_000_000,
                )),
            );
            b.half_link(
                sw,
                h,
                rate,
                Duration::from_micros(5),
                Box::new(aq_netsim::queue::FifoQueue::new(FifoConfig::default())),
            );
            vms.push(VmConfig {
                host: h,
                uplink: up,
                out_guarantee: Rate::from_gbps(5),
                in_guarantee: Rate::from_gbps(5),
            });
        }
        (b.build(), vms)
    }

    fn fake_demand(net: &mut Network, vm: &VmConfig, dst: NodeId, backlog_pkts: u32) {
        use aq_netsim::ids::{EntityId, FlowId};
        use aq_netsim::packet::Packet;
        use aq_netsim::queue::QueueDiscipline;
        let shaper = net.discipline_mut::<HtbShaper>(vm.uplink).expect("shaper");
        for _ in 0..backlog_pkts {
            let p = Packet::data(
                FlowId(1),
                EntityId(1),
                vm.host,
                dst,
                0,
                1000,
                false,
                Time::ZERO,
            );
            let _ = shaper.enqueue(Time::ZERO, p);
        }
    }

    #[test]
    fn guarantee_partitioning_splits_inbound_across_senders() {
        let (mut net, vms) = star_with_shapers(Rate::from_gbps(25));
        // VMs 1 and 2 both demand toward VM 0.
        let dst = vms[0].host;
        fake_demand(&mut net, &vms[1], dst, 100);
        fake_demand(&mut net, &vms[2], dst, 100);
        let mut agent = ElasticSwitch::new(vms.clone());
        let mut stats = StatsHub::new();
        let mut ctx = AgentCtx::new(aq_netsim::ids::AgentId(0), Time::from_millis(15));
        agent.on_timer(&mut net, &mut stats, &mut ctx, 0);
        // Each sender's guarantee toward VM 0 is min(5, 5/2) = 2.5 Gbps;
        // probing may push above it but the pair state starts at g.
        let r1 = agent.pair_rate(vms[1].host, dst).expect("managed");
        let r2 = agent.pair_rate(vms[2].host, dst).expect("managed");
        assert!(r1.as_bps() >= 2_500_000_000, "r1 {r1}");
        assert!(r2.as_bps() >= 2_500_000_000, "r2 {r2}");
        // Applied to the shapers too.
        let s1 = net
            .discipline_mut::<HtbShaper>(vms[1].uplink)
            .expect("shaper")
            .class_rate(ClassKey::Dst(dst))
            .expect("class");
        assert_eq!(s1, r1);
    }

    #[test]
    fn probing_ramps_rate_while_hungry() {
        let (mut net, vms) = star_with_shapers(Rate::from_gbps(25));
        let dst = vms[0].host;
        let mut agent = ElasticSwitch::new(vms.clone());
        let mut stats = StatsHub::new();
        let mut last = 0;
        for round in 1..=5u64 {
            // Keep a heavy backlog (≈11 Gbps of unmet demand per interval)
            // so the pair always looks hungry.
            fake_demand(&mut net, &vms[1], dst, 20_000);
            let mut ctx = AgentCtx::new(aq_netsim::ids::AgentId(0), Time::from_millis(15 * round));
            agent.on_timer(&mut net, &mut stats, &mut ctx, 0);
            let r = agent.pair_rate(vms[1].host, dst).expect("managed").as_bps();
            assert!(r >= last, "rate should ramp: {r} vs {last}");
            last = r;
        }
        assert!(last > 5_000_000_000, "probing exceeded guarantee: {last}");
    }
}
