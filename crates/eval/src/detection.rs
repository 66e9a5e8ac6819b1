//! Outlier-detection scoring: how well does a method's estimated outlier
//! tensor `O_t` localize the *injected* outliers?
//!
//! The paper evaluates imputation/forecasting error only; detection
//! quality is implicit (good imputation under corruption requires finding
//! the outliers). This module makes it explicit: precision and recall of
//! the non-zero entries of `O_t` against the corruptor's ground-truth
//! labels ([`sofia_datagen::corrupt::Corruptor::corrupt_labeled`]).

use sofia_tensor::DenseTensor;

/// Aggregated detection counts over a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectionCounts {
    /// Injected outliers that were flagged.
    pub true_positives: usize,
    /// Flags on clean entries.
    pub false_positives: usize,
    /// Injected outliers that were missed.
    pub false_negatives: usize,
}

impl DetectionCounts {
    /// Precision `TP / (TP + FP)` (NaN when nothing was flagged).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            return f64::NAN;
        }
        self.true_positives as f64 / denom as f64
    }

    /// Recall `TP / (TP + FN)` (NaN when nothing was injected).
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            return f64::NAN;
        }
        self.true_positives as f64 / denom as f64
    }

    /// Accumulates another step's counts.
    pub fn add(&mut self, other: DetectionCounts) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
    }
}

/// Scores one step: entries of `outliers` with `|o| > threshold` are the
/// flags; `injected` are the ground-truth (observed) outlier offsets.
pub fn score_step(outliers: &DenseTensor, injected: &[usize], threshold: f64) -> DetectionCounts {
    let mut counts = DetectionCounts::default();
    let mut injected_sorted = injected.to_vec();
    injected_sorted.sort_unstable();
    for off in 0..outliers.len() {
        let flagged = outliers.get_flat(off).abs() > threshold;
        let is_injected = injected_sorted.binary_search(&off).is_ok();
        match (flagged, is_injected) {
            (true, true) => counts.true_positives += 1,
            (true, false) => counts.false_positives += 1,
            (false, true) => counts.false_negatives += 1,
            (false, false) => {}
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_tensor::Shape;

    fn outliers(vals: &[f64]) -> DenseTensor {
        DenseTensor::from_vec(Shape::new(&[vals.len()]), vals.to_vec())
    }

    #[test]
    fn perfect_detection() {
        let o = outliers(&[0.0, 5.0, 0.0, -4.0]);
        let c = score_step(&o, &[1, 3], 1.0);
        assert_eq!(c.true_positives, 2);
        assert_eq!(c.false_positives, 0);
        assert_eq!(c.false_negatives, 0);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
    }

    #[test]
    fn misses_and_false_alarms() {
        let o = outliers(&[3.0, 0.0, 0.0, 0.0]);
        let c = score_step(&o, &[1], 1.0);
        assert_eq!(c.true_positives, 0);
        assert_eq!(c.false_positives, 1);
        assert_eq!(c.false_negatives, 1);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
    }

    #[test]
    fn threshold_gates_flags() {
        let o = outliers(&[0.5, 2.0]);
        let tight = score_step(&o, &[0, 1], 1.0);
        assert_eq!(tight.true_positives, 1);
        assert_eq!(tight.false_negatives, 1);
        let loose = score_step(&o, &[0, 1], 0.1);
        assert_eq!(loose.true_positives, 2);
    }

    #[test]
    fn counts_accumulate() {
        let mut total = DetectionCounts::default();
        total.add(DetectionCounts {
            true_positives: 3,
            false_positives: 1,
            false_negatives: 2,
        });
        total.add(DetectionCounts {
            true_positives: 1,
            false_positives: 0,
            false_negatives: 0,
        });
        assert_eq!(total.true_positives, 4);
        assert!((total.precision() - 0.8).abs() < 1e-12);
        assert!((total.recall() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cases_are_nan() {
        let c = DetectionCounts::default();
        assert!(c.precision().is_nan());
        assert!(c.recall().is_nan());
    }
}
