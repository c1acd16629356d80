//! Property tests for the foundation crate: histogram correctness
//! against a naive model, zipfian bounds and money arithmetic.

use om_common::rng::{SplitMix64, Zipfian};
use om_common::stats::Histogram;
use om_common::Money;
use proptest::prelude::*;

proptest! {
    /// Histogram quantiles stay within the log-bucket resolution bound
    /// (interpolated: within one sub-bucket, ~1/16 ≈ 6.3% relative error,
    /// either side of the exact order statistic), and the top rank — any q
    /// whose rank is the last sample — is the observed max exactly.
    #[test]
    fn prop_histogram_quantile_error_bound(
        mut values in proptest::collection::vec(1u64..1_000_000, 1..500),
        q in 0.0f64..=1.0,
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1] as f64;
        let approx = h.quantile(q) as f64;
        if rank == values.len() {
            // Top rank reports the recorded max exactly — no extrapolation.
            prop_assert_eq!(approx, *values.last().unwrap() as f64);
        } else {
            prop_assert!(
                approx <= exact * (1.0 + 1.0 / 16.0) + 1.0,
                "approx {approx} more than a bucket above exact {exact}"
            );
            prop_assert!(
                approx >= exact * (1.0 - 1.0 / 16.0) - 1.0,
                "approx {approx} more than a bucket below exact {exact}"
            );
        }
    }

    /// Histogram count/mean/min/max agree with the naive model exactly.
    #[test]
    fn prop_histogram_moments(values in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), *values.iter().min().unwrap());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        let mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-6);
    }

    /// Merging histograms is associative with recording.
    #[test]
    fn prop_histogram_merge(a in proptest::collection::vec(0u64..100_000, 0..100),
                            b in proptest::collection::vec(0u64..100_000, 0..100)) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hc = Histogram::new();
        for &v in &a { ha.record(v); hc.record(v); }
        for &v in &b { hb.record(v); hc.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hc.count());
        for q in [0.25, 0.5, 0.75, 0.99] {
            prop_assert_eq!(ha.quantile(q), hc.quantile(q));
        }
    }

    /// Zipfian samples are always in range, for any skew and size.
    #[test]
    fn prop_zipf_in_range(n in 1u64..10_000, theta in 0.0f64..0.999, seed in any::<u64>()) {
        let z = Zipfian::new(n, theta);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Money arithmetic matches i64 cents arithmetic.
    #[test]
    fn prop_money_is_exact(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000, q in 0u32..1000) {
        prop_assert_eq!((Money::from_cents(a) + Money::from_cents(b)).cents(), a + b);
        prop_assert_eq!((Money::from_cents(a) - Money::from_cents(b)).cents(), a - b);
        prop_assert_eq!((Money::from_cents(a) * q).cents(), a * q as i64);
        let sum: Money = vec![Money::from_cents(a), Money::from_cents(b)].into_iter().sum();
        prop_assert_eq!(sum.cents(), a + b);
    }

    /// Partition assignment is total over ids and uniform-ish for dense
    /// ranges (no partition starves).
    #[test]
    fn prop_partitioning_covers(n in 2usize..16) {
        use om_common::ids::ProductId;
        let mut seen = vec![false; n];
        for raw in 0..(n as u64 * 64) {
            seen[ProductId(raw).partition(n)] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "some partition never hit: {seen:?}");
    }
}
