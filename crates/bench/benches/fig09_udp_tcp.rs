//! Figure 9 — UDP vs TCP entities joining a shared bottleneck over time.
//!
//! Five single-VM entities join a 10 Gbps dumbbell core one after another
//! (every 100 ms): four TCP (CUBIC) entities and one UDP entity blasting
//! at line rate (joining third). Under PQ, the UDP entity grabs the whole
//! link the moment it arrives and the TCP entities starve. Under AQ with
//! equal weights granted at join time (the controller re-divides the link
//! across the n active entities), every entity — UDP included — holds
//! ~1/n of the link.

use aq_bench::report;
use aq_bench::report::RunReport;
use aq_core::{
    AqController, AqPipeline, AqRequest, BandwidthDemand, CcPolicy, LimitPolicy, Position,
};
use aq_netsim::ids::{EntityId, NodeId};
use aq_netsim::packet::AqTag;
use aq_netsim::queue::FifoConfig;
use aq_netsim::sim::Simulator;
use aq_netsim::time::{Duration, Rate, Time};
use aq_netsim::topology::dumbbell;
use aq_transport::{CcAlgo, DelaySignal, FlowKind};
use aq_workloads::{add_flows, ensure_transport_hosts, goodput_gbps, long_flows};

const N: usize = 5;
const UDP_INDEX: usize = 2; // third joiner is the UDP entity
const JOIN_GAP_MS: u64 = 100;
const END_MS: u64 = 700;

fn run(use_aq: bool, rep: &mut RunReport) -> Vec<Vec<f64>> {
    let d = dumbbell(
        N,
        Rate::from_gbps(10),
        Duration::from_micros(10),
        FifoConfig {
            limit_bytes: 200_000,
            ecn_threshold_bytes: None,
        },
    );
    let sw = d.sw_left;
    let mut net = d.net;
    let mut ctl = AqController::new(
        Rate::from_gbps(10),
        LimitPolicy::MatchPhysicalQueue {
            pq_limit_bytes: 200_000,
        },
    );
    if use_aq {
        net.add_pipeline(sw, Box::new(AqPipeline::new()));
    }
    ensure_transport_hosts(&mut net);
    // Install all flows up front with their (future) tags; entity k joins
    // at k * JOIN_GAP_MS.
    for k in 0..N {
        let entity = EntityId(k as u32 + 1);
        let tag = if use_aq {
            AqTag(k as u32 + 1)
        } else {
            AqTag::NONE
        };
        let pairs: Vec<(NodeId, NodeId)> = vec![(d.left[k], d.right[k])];
        let kind = if k == UDP_INDEX {
            FlowKind::Udp {
                rate: Rate::from_gbps(10),
            }
        } else {
            FlowKind::Tcp(CcAlgo::Cubic)
        };
        let mut flows = long_flows(
            entity,
            &pairs,
            if k == UDP_INDEX { 1 } else { 4 },
            kind,
            tag,
            AqTag::NONE,
            DelaySignal::MeasuredRtt,
            (k as u32 + 1) * 100,
        );
        for f in &mut flows {
            f.start = f.start + Duration::from_millis(k as u64 * JOIN_GAP_MS);
        }
        add_flows(&mut net, flows);
    }
    let mut sim = Simulator::new(net);
    // Drive the control plane at join times: request a weighted AQ for
    // the joining entity and re-divide the active set.
    let mut series = vec![Vec::new(); N];
    let mut joined = 0usize;
    for window in 0..(END_MS / JOIN_GAP_MS) {
        let t0 = Time::from_millis(window * JOIN_GAP_MS);
        if use_aq && joined < N && window as usize == joined {
            let grant = ctl
                .request(AqRequest {
                    demand: BandwidthDemand::Weighted(1),
                    cc: CcPolicy::DropBased,
                    position: Position::Ingress,
                    limit_override: None,
                })
                .expect("weighted grant");
            assert_eq!(grant.id, AqTag(joined as u32 + 1), "deterministic ids");
            let pipe = sim
                .net
                .pipeline_mut::<AqPipeline>(sw, 0)
                .expect("pipeline deployed");
            // Deploy the newcomer, then retarget everyone's re-divided
            // rates without resetting their gaps.
            for (pos, cfg) in ctl.configs() {
                if cfg.id == grant.id {
                    let _ = match pos {
                        Position::Ingress => pipe.deploy_ingress(cfg),
                        Position::Egress => pipe.deploy_egress(cfg),
                    };
                }
            }
            ctl.sync_rates(pipe, t0);
            joined += 1;
        }
        let t1 = Time::from_millis((window + 1) * JOIN_GAP_MS);
        sim.run_until(t1);
        for (k, s) in series.iter_mut().enumerate() {
            s.push(goodput_gbps(&sim.stats, EntityId(k as u32 + 1), t0, t1));
        }
    }
    rep.capture(if use_aq { "aq" } else { "pq" }, &mut sim);
    series
}

fn print_series(label: &str, series: &[Vec<f64>]) {
    println!("\n{label}: per-entity throughput (Gbps) in each 100 ms window");
    let widths = [12, 7, 7, 7, 7, 7, 7, 7];
    report::header(
        &[
            "entity", "0.1s", "0.2s", "0.3s", "0.4s", "0.5s", "0.6s", "0.7s",
        ],
        &widths,
    );
    for (k, s) in series.iter().enumerate() {
        let name = if k == UDP_INDEX {
            format!("e{} (UDP)", k + 1)
        } else {
            format!("e{} (TCP)", k + 1)
        };
        let mut cells = vec![name];
        cells.extend(s.iter().map(|g| format!("{g:.1}")));
        report::row(&cells, &widths);
    }
}

fn main() {
    report::banner(
        "Figure 9",
        "UDP and TCP entities joining a 10 Gbps link every 100 ms (UDP joins third)",
    );
    let mut rep = RunReport::new("fig09_udp_tcp");
    print_series("(a) PQ", &run(false, &mut rep));
    print_series("(b) AQ", &run(true, &mut rep));
    rep.write().expect("write run report");
    report::paper_row(
        "Fig. 9",
        "PQ: UDP grabs ~all bandwidth once it joins; AQ: every active entity holds ~1/n",
    );
    report::note("with 5 active entities under AQ each holds ~2 Gbps at >95% saturation");
}
