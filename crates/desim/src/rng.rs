//! Seeded random-number helpers and the distributions the workload and
//! performance models rely on.
//!
//! Everything is built on `rand::rngs::StdRng` seeded explicitly so that every
//! experiment in the benchmark harness is reproducible from a single `u64`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic RNG wrapper with the distribution helpers used throughout
/// the simulator.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Create a new RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derive a child RNG whose stream is independent of the parent's future
    /// output. Used so sub-components (arrival process, length sampler, ...)
    /// do not perturb one another when one of them draws more numbers.
    pub fn derive(&mut self, label: u64) -> SimRng {
        let a: u64 = self.inner.gen();
        SimRng::seed_from_u64(a ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform value in `[0, 1)`.
    pub fn uniform01(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform value in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.uniform01()
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Returns `lo` when `hi < lo`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        if hi <= lo {
            return lo;
        }
        self.inner.gen_range(lo..=hi)
    }

    /// Exponential variate with the given mean (`mean <= 0` returns 0).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = 1.0 - self.uniform01(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Standard normal variate via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.uniform01()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform01();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal variate with the given mean and standard deviation.
    pub(crate) fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev.max(0.0) * self.standard_normal()
    }

    /// Log-normal variate parameterised by the underlying normal's `mu`/`sigma`.
    pub(crate) fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Log-normal variate parameterised by its own mean and coefficient of
    /// variation — convenient for "mean prompt length 220 tokens, cv 0.8"
    /// style workload definitions.
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let cv = cv.max(1e-6);
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        self.lognormal(mu, sigma2.sqrt())
    }

    /// Zipf-distributed index in `[0, n)` with exponent `s` — models skewed
    /// model-popularity and document-access patterns.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        if n <= 1 {
            return 0;
        }
        // Inverse-CDF over the (small) support; n here is at most a few
        // thousand in practice so the linear scan is fine.
        let norm: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let target = self.uniform01() * norm;
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            if acc >= target {
                return k - 1;
            }
        }
        n - 1
    }

    /// Sample an index according to the given non-negative weights.
    /// Returns 0 if all weights are zero or the slice is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 || weights.is_empty() {
            return 0;
        }
        let target = self.uniform01() * total;
        let mut acc = 0.0;
        for (i, w) in weights.iter().enumerate() {
            acc += w.max(0.0);
            if acc >= target {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.uniform01().to_bits(), b.uniform01().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.uniform01() == b.uniform01()).count();
        assert!(same < 4);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from_u64(7);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean was {mean}");
    }

    #[test]
    fn lognormal_mean_cv_matches_requested_mean() {
        let mut rng = SimRng::seed_from_u64(11);
        let n = 40_000;
        let mean: f64 = (0..n)
            .map(|_| rng.lognormal_mean_cv(200.0, 0.8))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 200.0).abs() / 200.0 < 0.05, "mean was {mean}");
    }

    #[test]
    fn zipf_favours_small_indices() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[rng.zipf(10, 1.1)] += 1;
        }
        assert!(counts[0] > counts[5]);
        assert!(counts[0] > counts[9] * 3);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::seed_from_u64(9);
        let weights = [0.0, 5.0, 0.0, 1.0];
        let mut counts = [0usize; 4];
        for _ in 0..12_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[2], 0);
        assert!(counts[1] > counts[3] * 3);
    }

    #[test]
    fn weighted_index_degenerate_cases() {
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(rng.weighted_index(&[]), 0);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), 0);
    }

    #[test]
    fn derive_produces_independent_streams() {
        let mut parent = SimRng::seed_from_u64(100);
        let mut c1 = parent.derive(1);
        let mut c2 = parent.derive(2);
        let equal = (0..32).filter(|_| c1.uniform01() == c2.uniform01()).count();
        assert!(equal < 4);
    }
}
