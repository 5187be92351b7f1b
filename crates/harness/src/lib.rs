//! `aq-harness` — parallel multi-seed sweep orchestrator with a
//! deterministic regression gate.
//!
//! The sim crates answer "what does one seeded run do"; this crate
//! answers "what do *ensembles* of runs say, and did they change". It
//! declares sweeps as (scenario × approach × parameter grid × seed set)
//! over the named scenarios in [`aq_workloads::registry`], fans the runs
//! over a fixed-size OS-thread pool (`--jobs N`), and merges results into
//! key-ordered maps so the emitted `sweep.json`/`sweep.csv` are
//! byte-identical regardless of scheduling. Per-config seed ensembles
//! collapse to min/mean/max + a normal-approximation 95% CI.
//!
//! The `aq-sweep` binary exposes this as a CLI:
//!
//! * `aq-sweep list` — scenarios, their parameters, and named sweeps;
//! * `aq-sweep run` — execute a sweep, write artifacts, check trends;
//! * `aq-sweep diff` — compare two sweep directories under per-metric
//!   relative tolerances (the CI regression gate);
//! * `aq-sweep check` — re-evaluate trend rules on an existing sweep;
//! * `aq-sweep soak` — seed-rotated chaos soak over the smoke/extended
//!   grids, every run report gated by the invariant oracle.
//!
//! Parallelism lives *only* here: every individual `Simulator` run stays
//! single-threaded and deterministic, and the root `clippy.toml` bans
//! threads everywhere but the sweep pool and the sharded engine's one
//! `thread::scope`.

pub mod agg;
pub mod diff;
pub mod drill;
pub mod oracle;
pub mod pool;
pub mod sweep;
pub mod trends;

use aq_bench::Approach;
use aq_workloads::registry::Params;
use sweep::{SweepAxis, SweepSpec};

/// The committed-baseline smoke sweep: 7 scenarios × 2 approaches ×
/// small grids × 3 seeds. Small enough for CI, wide enough to exercise
/// fairness, UDP/TCP sharing, and completion trends plus both
/// fault-injection scenarios (link flaps and AQ state loss) and the
/// shared-buffer layer (admission-policy and AQM axes) end to end.
pub fn smoke_spec() -> SweepSpec {
    let p = |s: &str| Params::parse(s).expect("static smoke grid parses");
    SweepSpec {
        name: "smoke".to_string(),
        axes: vec![
            SweepAxis {
                scenario: "fairness_flows".to_string(),
                approaches: vec![Approach::Pq, Approach::Aq],
                grid: vec![p("b_flows=1,horizon_ms=20"), p("b_flows=4,horizon_ms=20")],
                seeds: vec![1, 2, 3],
            },
            SweepAxis {
                scenario: "udp_tcp_share".to_string(),
                approaches: vec![Approach::Pq, Approach::Aq],
                grid: vec![p("horizon_ms=20")],
                seeds: vec![1, 2, 3],
            },
            SweepAxis {
                scenario: "completion_vms".to_string(),
                approaches: vec![Approach::Pq, Approach::Aq],
                grid: vec![p("vms=1"), p("vms=2")],
                seeds: vec![1, 2, 3],
            },
            SweepAxis {
                scenario: "linkflap_dumbbell".to_string(),
                approaches: vec![Approach::Pq, Approach::Aq],
                grid: vec![p("horizon_ms=30")],
                seeds: vec![1, 2, 3],
            },
            SweepAxis {
                scenario: "aq_state_loss".to_string(),
                approaches: vec![Approach::Pq, Approach::Aq],
                grid: vec![p("horizon_ms=25")],
                seeds: vec![1, 2, 3],
            },
            SweepAxis {
                scenario: "incast_sharedbuf".to_string(),
                approaches: vec![Approach::Pq, Approach::Aq],
                grid: vec![
                    p("admission=0,horizon_ms=20"),
                    p("admission=1,horizon_ms=20"),
                    p("admission=2,horizon_ms=20"),
                ],
                seeds: vec![1, 2, 3],
            },
            SweepAxis {
                scenario: "websearch_aqm_zoo".to_string(),
                approaches: vec![Approach::Pq, Approach::Aq],
                grid: vec![
                    p("aqm=0,horizon_ms=20"),
                    p("aqm=1,horizon_ms=20"),
                    p("aqm=2,horizon_ms=20"),
                ],
                seeds: vec![1, 2, 3],
            },
            SweepAxis {
                scenario: "tenant_churn".to_string(),
                approaches: vec![Approach::Pq, Approach::Aq],
                grid: vec![p("policy=0"), p("policy=1")],
                seeds: vec![1, 2, 3],
            },
        ],
    }
}

/// The committed-baseline extended sweep: the mixed-CC dumbbell and the
/// inter-pod fat tree, 2 grid points each × 2 approaches × 3 seeds.
/// Nightly CI diffs this against `baselines/expected/extended`.
pub fn extended_spec() -> SweepSpec {
    let p = |s: &str| Params::parse(s).expect("static extended grid parses");
    SweepSpec {
        name: "extended".to_string(),
        axes: vec![
            SweepAxis {
                scenario: "cc_mix".to_string(),
                approaches: vec![Approach::Pq, Approach::Aq],
                grid: vec![p("pair=0"), p("pair=1")],
                seeds: vec![1, 2, 3],
            },
            SweepAxis {
                scenario: "interpod_fattree".to_string(),
                approaches: vec![Approach::Pq, Approach::Aq],
                grid: vec![p("b_flows=2"), p("b_flows=4")],
                seeds: vec![1, 2, 3],
            },
        ],
    }
}

/// The paper's evaluation: every simulated figure and table of §5 (plus
/// Fig. 1 and the two §6 ablations) as one or two axes, at the entity
/// counts, flow counts, CC rows, VM counts, horizons and seeds the paper
/// reports. EXPERIMENTS.md maps each artifact to its axis, its trend
/// rules and the rows of `sweep.csv` that are its table;
/// `baselines/expected/paper` holds the committed aggregate.
pub fn paper_spec() -> SweepSpec {
    use Approach::{Aq, Pq};
    let axis = |scenario: &str, approaches: &[Approach], grid: &[&str], seeds: &[u64]| SweepAxis {
        scenario: scenario.to_string(),
        approaches: approaches.to_vec(),
        grid: (grid.iter())
            .map(|g| Params::parse(g).expect("static paper grid parses"))
            .collect(),
        seeds: seeds.to_vec(),
    };
    let all = &Approach::ALL;
    SweepSpec {
        name: "paper".to_string(),
        axes: vec![
            axis(
                "fig01_cc_interference",
                &[Pq],
                &["pair=0", "pair=1", "pair=2", "pair=3", "pair=4"],
                &[1],
            ),
            axis("fig01_same_class", &[Pq], &[], &[1]),
            axis(
                "table2_cc_sharing",
                &[Pq, Aq],
                &[
                    "row=0", "row=1", "row=2", "row=3", "row=4", "row=5", "row=6", "row=7",
                ],
                &[1],
            ),
            axis("table2_same_cc", &[Pq, Aq], &[], &[1]),
            axis("fig06_one_vm", all, &[], &[1, 2, 3]),
            axis(
                "fig06_completion_vs_vms",
                all,
                &["vms=2", "vms=4", "vms=8"],
                &[1, 2, 3],
            ),
            axis(
                "fig07_entity_fairness",
                all,
                &["b_vms=1", "b_vms=2", "b_vms=4", "b_vms=8"],
                &[2, 3, 4],
            ),
            axis("fig08_equal_flows", &[Pq, Aq], &[], &[1]),
            axis("fig08_equal_flows", &[Aq], &["b_weight=2"], &[1]),
            axis(
                "fig08_flow_count_isolation",
                &[Pq, Aq],
                &["b_flows=4", "b_flows=16", "b_flows=64"],
                &[1],
            ),
            axis(
                "fig08_flow_count_isolation",
                &[Aq],
                &[
                    "b_flows=4,b_weight=2",
                    "b_flows=16,b_weight=2",
                    "b_flows=64,b_weight=2",
                ],
                &[1],
            ),
            axis("fig09_udp_tcp", &[Pq, Aq], &[], &[1]),
            axis(
                "fig10_cc_fairness",
                all,
                &["pair=0", "pair=1", "pair=2"],
                &[1],
            ),
            axis("table3_vm_profile", all, &[], &[1]),
            axis(
                "table4_cc_behavior",
                &[Pq, Aq],
                &["cc=0", "cc=1", "cc=2"],
                &[1],
            ),
            axis(
                "ablation_limit_policy",
                &[Aq],
                &["policy=0", "policy=1"],
                &[1],
            ),
            axis("ablation_limit_nofloor", &[Aq], &[], &[1]),
            axis(
                "ablation_work_conservation",
                &[Aq],
                &["mode=0", "mode=1"],
                &[1],
            ),
            axis("ablation_wc_strict", &[Aq], &[], &[1]),
        ],
    }
}

/// The nightly wide sweep: every registered scenario × all four
/// approaches × 5 seeds at default grids. Trend-checked only (no
/// committed baseline — the grid is too wide to keep bytes for).
pub fn nightly_spec() -> SweepSpec {
    let axes = aq_workloads::registry::registry()
        .iter()
        .map(|def| SweepAxis {
            scenario: def.name.to_string(),
            approaches: Approach::ALL.to_vec(),
            grid: vec![],
            seeds: vec![1, 2, 3, 4, 5],
        })
        .collect();
    SweepSpec {
        name: "nightly".to_string(),
        axes,
    }
}

/// One seed-rotation round of the chaos soak: the smoke and extended
/// grids (which between them cover fault injection, shared buffers, AQM
/// variants, and the budget-pressured tenant-churn scenario) at a single
/// seed derived from the round index. `aq-sweep soak` runs consecutive
/// rounds and evaluates the invariant oracle (see [`oracle`]) against
/// every run report each round produces, so long soaks replay
/// byte-identically from the same base seed.
pub fn soak_round_spec(base_seed: u64, round: u64) -> SweepSpec {
    let seed = base_seed.wrapping_add(round.wrapping_mul(1000));
    let mut axes = smoke_spec().axes;
    axes.extend(extended_spec().axes);
    for axis in &mut axes {
        axis.seeds = vec![seed];
    }
    SweepSpec {
        name: format!("soak-round{round}"),
        axes,
    }
}

/// Named sweep specs addressable from the CLI (`--spec <name>`).
pub fn named_specs() -> Vec<SweepSpec> {
    vec![smoke_spec(), extended_spec(), paper_spec(), nightly_spec()]
}

/// Look up a named spec.
pub fn find_spec(name: &str) -> Option<SweepSpec> {
    named_specs().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_spec_expands_to_the_documented_size() {
        let points = sweep::expand(&smoke_spec()).expect("smoke expands");
        // 2-point grids for fairness/completion, 1-point grids for
        // UDP/TCP sharing and the two fault scenarios, 3-point grids for
        // the shared-buffer admission and AQM axes, a 2-point overflow-
        // policy grid for tenant churn, 2 approaches x 3 seeds each.
        assert_eq!(points.len(), 90);
        for scenario in [
            "linkflap_dumbbell",
            "aq_state_loss",
            "incast_sharedbuf",
            "websearch_aqm_zoo",
            "tenant_churn",
        ] {
            assert!(
                points.iter().any(|p| p.key.scenario == scenario),
                "smoke must cover fault scenario `{scenario}`"
            );
        }
    }

    #[test]
    fn extended_spec_expands_to_the_documented_size() {
        let points = sweep::expand(&extended_spec()).expect("extended expands");
        // (2 grid x 2 approaches x 3 seeds) per scenario, 2 scenarios.
        assert_eq!(points.len(), 24);
    }

    #[test]
    fn paper_spec_expands_to_the_documented_size() {
        let points = sweep::expand(&paper_spec()).expect("paper expands");
        // Fig. 1: 5 + 1 (PQ). Table 2: (8 + 1) x 2. Figs. 6, 7: (1 + 3) and
        // 4 points x 4 approaches x 3 seeds. Fig. 8: (1 + 3) x 2 at 1:1 +
        // (1 + 3) (AQ) at 1:2. Fig. 9: 2. Fig. 10: 3 x 4. Table 3: 4.
        // Table 4: 3 x 2. Ablations (AQ): 2 + 1 and 2 + 1.
        assert_eq!(points.len(), 6 + 18 + 48 + 48 + 12 + 2 + 12 + 4 + 6 + 3 + 3);
        // Every scenario the smoke/extended grids do not run is a paper
        // artifact and must be on an axis here.
        let legacy: Vec<String> = (smoke_spec().axes.into_iter())
            .chain(extended_spec().axes)
            .map(|a| a.scenario)
            .collect();
        for def in aq_workloads::registry::registry() {
            let on_paper = points.iter().any(|p| p.key.scenario == def.name);
            assert_ne!(
                on_paper,
                legacy.iter().any(|s| s == def.name),
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn nightly_spec_covers_every_scenario_and_approach() {
        let points = sweep::expand(&nightly_spec()).expect("nightly expands");
        // 27 scenarios x 4 approaches x 5 seeds at the default grid point.
        assert_eq!(points.len(), 540);
    }

    #[test]
    fn soak_rounds_rotate_seeds_deterministically() {
        let r0 = soak_round_spec(42, 0);
        let r1 = soak_round_spec(42, 1);
        assert_eq!(r0.axes.len(), r1.axes.len());
        for axis in &r0.axes {
            assert_eq!(axis.seeds, vec![42]);
        }
        for axis in &r1.axes {
            assert_eq!(axis.seeds, vec![1042]);
        }
        // Same (seed, round) → identical expansion: the soak replays.
        let a = sweep::expand(&soak_round_spec(7, 3)).expect("expands");
        let b = sweep::expand(&soak_round_spec(7, 3)).expect("expands");
        let ka: Vec<_> = a.iter().map(|p| p.key.clone()).collect();
        let kb: Vec<_> = b.iter().map(|p| p.key.clone()).collect();
        assert_eq!(ka, kb);
        assert!(ka.iter().any(|k| k.scenario == "tenant_churn"));
    }

    #[test]
    fn named_specs_are_findable() {
        assert!(find_spec("smoke").is_some());
        assert!(find_spec("extended").is_some());
        assert!(find_spec("paper").is_some());
        assert!(find_spec("nightly").is_some());
        assert!(find_spec("nope").is_none());
    }
}
