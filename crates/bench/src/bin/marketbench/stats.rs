//! Exact order statistics over raw samples kept by the benchmark.

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: u64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: the smallest rank whose share of the samples is ≥ p %.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Exact nearest-rank percentile of `samples` (sorted in place). Refused
/// when fewer than `min_beyond` samples lie beyond the rank — a tail
/// read off a handful of samples is noise, not a percentile.
pub fn percentile(samples: &mut [u64], p: f64, min_beyond: usize) -> Result<Percentile, String> {
    if samples.is_empty() {
        return Err(format!("p{p} of zero samples"));
    }
    samples.sort_unstable();
    let rank = nearest_rank(samples.len(), p);
    let beyond = samples.len() - rank;
    if beyond < min_beyond {
        return Err(format!(
            "p{p} of {} samples has {beyond} beyond it, fewer than {min_beyond}",
            samples.len()
        ));
    }
    Ok(Percentile {
        value: samples[rank - 1],
        samples: samples.len(),
        beyond,
    })
}

/// Median of a small set of measurements (mean of the middle pair when
/// the count is even). Zero for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Which way a measurement is better.
#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// The best of the same measurement taken in each cell of a run.
///
/// On the shared reference host the same cell measures up to a third
/// slower from one few-second window to the next (neighbours on the same
/// hardware), and nothing makes it faster than the code allows. So the
/// best cell is the one least disturbed, and it repeats from run to run
/// where the median over cells does not. NaN (a refused percentile)
/// never wins; an empty set reads NaN.
pub fn best(values: &[f64], better: Better) -> f64 {
    let finite = values.iter().copied().filter(|v| v.is_finite());
    match better {
        Better::Lower => finite.fold(f64::NAN, f64::min),
        Better::Higher => finite.fold(f64::NAN, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        // The textbook case: 5 samples, p30 → rank ceil(1.5) = 2.
        assert_eq!(nearest_rank(5, 30.0), 2);
        assert_eq!(nearest_rank(5, 40.0), 2);
        assert_eq!(nearest_rank(5, 50.0), 3);
        assert_eq!(nearest_rank(5, 100.0), 5);
        assert_eq!(nearest_rank(100, 99.0), 99);
        assert_eq!(nearest_rank(101, 99.0), 100);
        assert_eq!(nearest_rank(1, 50.0), 1);
        assert_eq!(nearest_rank(1000, 0.01), 1);
    }

    #[test]
    fn percentile_picks_the_ranked_sample_and_counts_the_tail() {
        let mut s: Vec<u64> = (1..=1000).rev().collect();
        let p99 = percentile(&mut s, 99.0, 10).unwrap();
        assert_eq!(
            p99,
            Percentile {
                value: 990,
                samples: 1000,
                beyond: 10
            }
        );
        assert_eq!(percentile(&mut s, 50.0, 10).unwrap().value, 500);
        let mut few = vec![15, 20, 35, 40, 50];
        assert_eq!(percentile(&mut few, 30.0, 0).unwrap().value, 20);
        assert_eq!(percentile(&mut few, 100.0, 0).unwrap().value, 50);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let mut s: Vec<u64> = (1..=999).collect();
        let err = percentile(&mut s, 99.0, 10).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(percentile(&mut [], 50.0, 0).is_err());
    }

    #[test]
    fn best_picks_by_direction_and_skips_nan() {
        let v = [3.0, f64::NAN, 1.5, 2.0];
        assert_eq!(best(&v, Better::Lower), 1.5);
        assert_eq!(best(&v, Better::Higher), 3.0);
        assert!(best(&[], Better::Lower).is_nan());
        assert!(best(&[f64::NAN], Better::Higher).is_nan());
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
