//! Seedable random distributions used by the delay models.
//!
//! Latency noise on real paths is right-skewed: most samples sit near
//! the propagation floor with a heavy tail of congested ones. We use
//! log-normal jitter for the body and bounded Pareto spikes for
//! bufferbloat episodes — the combination the bufferbloat literature the
//! paper cites (Jiang et al., IMC '12) describes for 3G/4G access.
//!
//! Everything draws from a caller-owned [`SimRng`], so one seed fixes the
//! entire simulation.

use shears_geo::rng::{mix64, Rng};

/// The simulator's random source: a small, fast, seedable PRNG
/// ([`shears_geo::rng::Rng`], xoshiro256++).
#[derive(Debug)]
pub struct SimRng {
    rng: Rng,
    base_seed: u64,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::seed_from_u64(seed),
            base_seed: seed,
        }
    }

    /// Derives an independent child RNG; used to give every probe its
    /// own stream so that adding a probe never perturbs another's samples.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.rng.next_u64())
    }

    /// Derives a child RNG keyed by `(stream, index)` without consuming
    /// state from `self` — the SplitMix64 finalizer mixes the key into
    /// the parent seed. Lets the campaign give probe *i*, round *j* a
    /// reproducible stream regardless of execution order.
    pub fn fork_keyed(&self, stream: u64, index: u64) -> SimRng {
        // SplitMix64 finalisation over a combination of the parent's next
        // output (peeked via a clone) would consume state; instead mix the
        // key with golden-ratio increments.
        let key = stream
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(index.wrapping_mul(0xBF58476D1CE4E5B9))
            .wrapping_add(self.base_seed);
        SimRng::new(mix64(key))
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.uniform()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.rng.uniform() < p
    }

    /// Standard normal via Box–Muller (single value; the pair's second
    /// half is discarded to keep the call stateless).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.rng.range(f64::MIN_POSITIVE, 1.0);
        let u2 = self.rng.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normal sample parameterised by its **median** and the sigma of
    /// the underlying normal. `median` must be positive.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0 && sigma >= 0.0);
        median * (sigma * self.standard_normal()).exp()
    }

    /// Bounded Pareto sample on `[min, max]` with tail index `alpha`.
    /// Used for bufferbloat episodes: rare, large, heavy-tailed.
    pub fn bounded_pareto(&mut self, min: f64, max: f64, alpha: f64) -> f64 {
        debug_assert!(min > 0.0 && max > min && alpha > 0.0);
        let u = self.rng.range(f64::MIN_POSITIVE, 1.0);
        let (l, h) = (min.powf(alpha), max.powf(alpha));
        let x = (-(u * h - u * l - h) / (h * l)).powf(-1.0 / alpha);
        x.clamp(min, max)
    }

    /// Exponential sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = self.rng.range(f64::MIN_POSITIVE, 1.0);
        -mean * u.ln()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.below(n)
    }

    /// Raw `u64` draw (for deriving seeds).
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_draws_match_the_published_small_rng() {
        // rand 0.8.5's `SmallRng::seed_from_u64(0x10DE)`.
        let mut rng = SimRng::new(0x10DE);
        assert_eq!(rng.next_u64(), 0x511f_c7ff_b550_1a93);
        assert_eq!(rng.next_u64(), 0x3d43_1bdc_8fa6_2b55);
        assert_eq!(rng.next_u64(), 0x4cee_2077_5a1e_7331);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forked_streams_are_independent_of_sibling_usage() {
        let mut parent1 = SimRng::new(1);
        let mut parent2 = SimRng::new(1);
        let mut c1 = parent1.fork();
        // parent2 forks twice; its first fork must equal parent1's first.
        let mut c2 = parent2.fork();
        let _ = parent2.fork();
        for _ in 0..10 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn keyed_fork_is_order_independent() {
        let parent = SimRng::new(99);
        let mut a = parent.fork_keyed(3, 14);
        let mut b = parent.fork_keyed(3, 14);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = parent.fork_keyed(3, 15);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn lognormal_median_is_respected() {
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let mut v: Vec<f64> = (0..n).map(|_| rng.lognormal(10.0, 0.5)).collect();
        v.sort_by(f64::total_cmp);
        let median = v[n / 2];
        assert!((median - 10.0).abs() < 0.3, "median {median}");
        assert!(v.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let mut rng = SimRng::new(11);
        for _ in 0..10_000 {
            let x = rng.bounded_pareto(50.0, 2000.0, 1.2);
            assert!((50.0..=2000.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn bounded_pareto_is_right_skewed() {
        let mut rng = SimRng::new(13);
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| rng.bounded_pareto(50.0, 2000.0, 1.2))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[n / 2];
        assert!(mean > median, "mean {mean} median {median}");
        // Most mass near the minimum.
        let near_min = samples.iter().filter(|&&x| x < 200.0).count();
        assert!(near_min > n / 2);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(17);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(23);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SimRng::new(29);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
