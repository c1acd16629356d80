//! Deterministic randomness and skewed key selection.
//!
//! All stochastic behaviour in the benchmark (data generation, workload key
//! picks, payment approval, message-delay jitter in failure injection) flows
//! from [`SplitMix64`], a tiny, fast, well-distributed PRNG that is trivially
//! reproducible from a seed. The workload uses [`Zipfian`] to model the
//! skewed product popularity typical of marketplaces, using the standard
//! rejection-inversion-free method from Gray et al. (used by YCSB).

use serde::{Deserialize, Serialize};

/// SplitMix64 PRNG (Steele et al.). Passes BigCrush; one multiply-xor-shift
/// round per output. Deterministic across platforms.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire's multiply-shift rejection-free approximation is fine here;
        // we use 128-bit multiply which has negligible bias for our bounds.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_bounded(hi - lo + 1)
    }

    /// Derives an independent child generator (for per-worker streams).
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_bounded(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniform element reference.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.next_bounded(items.len() as u64) as usize]
    }
}

/// Zipfian generator over ranks `0..n` with skew `theta` (YCSB-style).
///
/// Rank 0 is the most popular item. The generator is deterministic given the
/// driving [`SplitMix64`]. `theta = 0.99` matches YCSB's default hot-key
/// skew; `theta = 0` degenerates to uniform.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipfian {
    /// Builds a generator over `n` ranks with skew `theta` in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipfian needs at least one rank");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        if theta == 0.0 {
            // Uniform special case; fields unused except n.
            return Self {
                n,
                theta,
                alpha: 0.0,
                zetan: 0.0,
                eta: 0.0,
                zeta2: 0.0,
            };
        }
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum; n is bounded by catalogue size (<= millions), and the
        // generator is constructed once per run.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Samples a rank in `[0, n)`; rank 0 is hottest.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        if self.theta == 0.0 {
            return rng.next_bounded(self.n);
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    #[allow(dead_code)]
    fn debug_consts(&self) -> (f64, f64) {
        (self.zetan, self.zeta2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn bounded_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(rng.next_bounded(13) < 13);
        }
        for _ in 0..10_000 {
            let v = rng.range_inclusive(5, 9);
            assert!((5..=9).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = SplitMix64::new(3);
        let mut sum = 0.0;
        const N: usize = 100_000;
        for _ in 0..N {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle should change order (w.h.p.)");
    }

    #[test]
    fn zipfian_skews_towards_low_ranks() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = SplitMix64::new(5);
        let mut counts = vec![0u32; 1000];
        const N: usize = 200_000;
        for _ in 0..N {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 must dominate and the top-10 must hold a large share.
        assert!(counts[0] as f64 / N as f64 > 0.05);
        let top10: u32 = counts[..10].iter().sum();
        assert!(top10 as f64 / N as f64 > 0.3, "top10 share too small");
        // Tail ranks should still occur.
        assert!(counts[500..].iter().any(|&c| c > 0));
    }

    #[test]
    fn zipfian_theta_zero_is_uniform() {
        let z = Zipfian::new(100, 0.0);
        let mut rng = SplitMix64::new(9);
        let mut counts = vec![0u32; 100];
        const N: usize = 100_000;
        for _ in 0..N {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let expect = N as f64 / 100.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < expect * 0.25,
                "rank {i} count {c} deviates from uniform {expect}"
            );
        }
    }

    #[test]
    fn zipfian_samples_stay_in_range() {
        for n in [1u64, 2, 3, 10, 1000] {
            let z = Zipfian::new(n, 0.9);
            let mut rng = SplitMix64::new(n);
            for _ in 0..1000 {
                assert!(z.sample(&mut rng) < n);
            }
        }
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SplitMix64::new(100);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let overlap = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(overlap, 0);
    }
}
