//! Poisson flow arrivals.
//!
//! Flows in the web-search workload arrive as a Poisson process whose rate
//! is chosen to hit a target offered load on a reference link:
//! `λ = load · capacity / (8 · mean_flow_size)` arrivals per second.

use aq_netsim::time::{Duration, Rate, NS_PER_SEC};
use rand::Rng;

/// A Poisson arrival-time generator.
#[derive(Debug, Clone)]
pub(crate) struct PoissonArrivals {
    /// Mean arrivals per second.
    lambda: f64,
}

impl PoissonArrivals {
    /// Arrivals at `lambda` per second.
    pub(crate) fn new(lambda: f64) -> PoissonArrivals {
        assert!(lambda > 0.0, "arrival rate must be positive");
        PoissonArrivals { lambda }
    }

    /// The rate that offers `load` (0–1] of `capacity` given the workload's
    /// mean flow size.
    pub(crate) fn for_load(load: f64, capacity: Rate, mean_flow_bytes: f64) -> PoissonArrivals {
        assert!(load > 0.0, "load must be positive");
        assert!(mean_flow_bytes > 0.0, "mean flow size must be positive");
        PoissonArrivals::new(load * capacity.as_bps() as f64 / (8.0 * mean_flow_bytes))
    }

    /// Draw one exponential inter-arrival gap.
    pub(crate) fn next_gap<R: Rng>(&self, rng: &mut R) -> Duration {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let secs = -u.ln() / self.lambda;
        Duration::from_nanos((secs * NS_PER_SEC as f64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn arrival_count_matches_lambda() {
        let p = PoissonArrivals::new(10_000.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let (mut t, mut n) = (Duration::ZERO, 0u32);
        loop {
            t += p.next_gap(&mut rng);
            if t >= Duration::from_secs(1) {
                break;
            }
            n += 1;
        }
        // Poisson(10 000): standard deviation = 100, allow ±5σ.
        assert!((9_500..=10_500).contains(&n), "count {n}");
    }

    #[test]
    fn gaps_are_exponential_with_mean_one_over_lambda() {
        let p = PoissonArrivals::new(5_000.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let gaps: Vec<u64> = (0..50_000)
            .map(|_| p.next_gap(&mut rng).as_nanos())
            .collect();
        // Mean 200 µs; an exponential gap exceeds its mean with
        // probability e⁻¹ ≈ 0.368.
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!((mean / 200_000.0 - 1.0).abs() < 0.03, "mean {mean} ns");
        let above = gaps.iter().filter(|g| **g as f64 > mean).count() as f64;
        let share = above / gaps.len() as f64;
        assert!((share - (-1.0f64).exp()).abs() < 0.01, "share {share}");
    }

    #[test]
    fn for_load_derives_the_right_rate() {
        // 10 Gbps at load 0.5 with 625 KB mean flows: 10e9*0.5/(8*625e3)
        // = 1000 flows/s.
        let p = PoissonArrivals::for_load(0.5, Rate::from_gbps(10), 625_000.0);
        assert!((p.lambda - 1000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_is_rejected() {
        PoissonArrivals::new(0.0);
    }
}
