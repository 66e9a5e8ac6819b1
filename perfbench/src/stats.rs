//! Order statistics behind every printed figure.
//!
//! A percentile is printed only when at least [`MIN_BEYOND`] samples
//! lie beyond it, so a p90 needs 100 samples and a median 20. Values
//! are nearest-rank order statistics: each printed percentile is one
//! measured sample, with all its digits.

/// Samples that must lie beyond a printed percentile.
pub const MIN_BEYOND: usize = 10;

/// A quantile as an exact fraction `num / den`, so the rank arithmetic
/// never rounds (`0.9 * n` in floating point can land on either side
/// of an integer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantile {
    /// Numerator.
    pub num: usize,
    /// Denominator; must exceed `num`.
    pub den: usize,
}

/// The median.
pub const P50: Quantile = Quantile { num: 1, den: 2 };
/// The 90th percentile, the highest the benchmark prints.
pub const P90: Quantile = Quantile { num: 9, den: 10 };

impl Quantile {
    /// One-based nearest rank of this quantile among `n` samples:
    /// `ceil(n * num / den)`, at least 1.
    pub fn rank(self, n: usize) -> usize {
        (n * self.num).div_ceil(self.den).max(1)
    }

    /// Samples strictly beyond the nearest rank among `n` samples.
    pub fn beyond(self, n: usize) -> usize {
        n.saturating_sub(self.rank(n))
    }

    /// Smallest sample count that leaves [`MIN_BEYOND`] samples beyond
    /// this quantile.
    pub fn min_samples(self) -> usize {
        (1..)
            .find(|&n| self.beyond(n) >= MIN_BEYOND)
            .expect("den > num")
    }
}

/// A guarded percentile: the value and the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The nearest-rank sample.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// Why a percentile could not be printed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples available.
    pub have: usize,
    /// Samples needed.
    pub need: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} samples, need {} to leave {MIN_BEYOND} beyond the percentile",
            self.have, self.need
        )
    }
}

/// The guarded nearest-rank `q`-quantile of `samples`.
pub fn percentile(samples: &[f64], q: Quantile) -> Result<Pct, TooFewSamples> {
    let need = q.min_samples();
    if samples.len() < need {
        return Err(TooFewSamples {
            have: samples.len(),
            need,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Pct {
        value: sorted[q.rank(sorted.len()) - 1],
        n: sorted.len(),
    })
}

/// The unguarded nearest-rank median, for the few figures that rest on
/// a handful of repetitions by design (the set-up time is the median of
/// a few whole set-ups). `None` when empty.
pub fn small_median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[P50.rank(sorted.len()) - 1])
}

/// Arithmetic mean, `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_at_round_counts() {
        assert_eq!(P90.rank(100), 90);
        assert_eq!(P90.rank(101), 91);
        assert_eq!(P50.rank(20), 10);
        assert_eq!(P50.rank(21), 11);
        assert_eq!(P50.rank(1), 1);
    }

    #[test]
    fn guard_needs_ten_samples_beyond() {
        assert_eq!(P50.min_samples(), 20);
        assert_eq!(P90.min_samples(), 100);
        assert_eq!(P90.beyond(99), 9);
        assert_eq!(P90.beyond(100), 10);
    }

    #[test]
    fn percentile_refuses_short_sample_sets() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, P90),
            Err(TooFewSamples {
                have: 99,
                need: 100
            })
        );
        assert!(percentile(&xs[..19], P50).is_err());
        assert!(percentile(&xs[..20], P50).is_ok());
    }

    #[test]
    fn percentile_is_a_measured_sample() {
        // Reverse order: the function must sort.
        let xs: Vec<f64> = (1..=100).rev().map(|v| f64::from(v) + 0.25).collect();
        assert_eq!(
            percentile(&xs, P90).unwrap(),
            Pct {
                value: 90.25,
                n: 100
            }
        );
        assert_eq!(
            percentile(&xs, P50).unwrap(),
            Pct {
                value: 50.25,
                n: 100
            }
        );
    }

    #[test]
    fn small_median_and_mean() {
        assert_eq!(small_median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(small_median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
