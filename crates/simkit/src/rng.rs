//! Seeded, label-splittable random streams.
//!
//! Every stochastic element of a simulation (noise models, random-offset
//! workloads, shuffles) draws from a [`SimRng`]. A `SimRng` is created
//! from a `u64` seed and can be *split* by string label into independent
//! substreams: `rng.split("node-3").split("reader-7")`. Splitting is pure
//! (it does not consume state from the parent), so adding a new consumer
//! never perturbs the draws of existing consumers — essential for
//! comparing experiment variants under identical noise.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a 64-bit hash, used to derive child seeds from labels.
fn fnv1a(seed: u64, label: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    // Final avalanche (splitmix64 finalizer).
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic random stream.
#[derive(Clone, Debug)]
pub struct SimRng {
    seed: u64,
    inner: StdRng,
}

impl SimRng {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `label`.
    /// Pure: does not advance this stream's state.
    pub fn split(&self, label: &str) -> SimRng {
        SimRng::new(fnv1a(self.seed, label))
    }

    /// Derives an independent child stream identified by an index.
    pub fn split_idx(&self, label: &str, idx: u64) -> SimRng {
        SimRng::new(fnv1a(self.seed, label).wrapping_add(idx.wrapping_mul(0x2545_f491_4f6c_dd1d)))
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform `u64` in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is undefined");
        self.inner.random_range(0..n)
    }

    /// Standard normal draw (Box–Muller; two uniforms per call).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.uniform().max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Lognormal multiplicative jitter with multiplicative std `sigma`
    /// (e.g. `sigma = 0.05` gives ±5 %-ish noise), mean-corrected so the
    /// expected value of the factor is 1.0.
    pub fn jitter_factor(&mut self, sigma: f64) -> f64 {
        if sigma <= 0.0 {
            return 1.0;
        }
        let s = sigma.min(1.0);
        // lognormal with mu = -s^2/2 has mean 1.
        (self.normal_with(-0.5 * s * s, s)).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        let n = items.len();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn split_is_pure_and_stable() {
        let root = SimRng::new(7);
        let mut c1 = root.split("alpha");
        let _ = root.split("beta"); // does not disturb alpha
        let mut c2 = SimRng::new(7).split("alpha");
        for _ in 0..50 {
            assert_eq!(c1.uniform(), c2.uniform());
        }
    }

    #[test]
    fn split_labels_independent() {
        let root = SimRng::new(7);
        assert_ne!(root.split("a").seed(), root.split("b").seed());
        assert_ne!(root.split_idx("n", 0).seed(), root.split_idx("n", 1).seed());
    }

    #[test]
    fn below_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn normal_moments_plausible() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn jitter_factor_centers_on_one() {
        let mut r = SimRng::new(13);
        let n = 20_000;
        let mean = (0..n).map(|_| r.jitter_factor(0.05)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean = {mean}");
        assert_eq!(r.jitter_factor(0.0), 1.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>()); // overwhelmingly likely
    }
}
