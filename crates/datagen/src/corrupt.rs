//! The `(X, Y, Z)` corruption protocol of §VI-A.
//!
//! "A Y% of randomly selected entries are corrupted by outliers and X% of
//! randomly selected entries are ignored and treated as missings. The
//! magnitude of each outlier is `−Z·max(X)` or `Z·max(X)` with equal
//! probability, where `max(X)` is the maximum entry value of the entire
//! ground truth tensor."

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sofia_tensor::{DenseTensor, Mask, ObservedTensor};

/// An `(X, Y, Z)` corruption setting: missing fraction, outlier fraction,
/// and outlier magnitude multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionConfig {
    /// Fraction of entries hidden (the paper's `X%`, as a fraction).
    pub missing: f64,
    /// Fraction of entries replaced by outliers (the paper's `Y%`).
    pub outlier: f64,
    /// Outlier magnitude multiplier `Z` (relative to `max(X)`).
    pub magnitude: f64,
}

impl CorruptionConfig {
    /// Builds a setting from the paper's percent notation, e.g.
    /// `CorruptionConfig::from_percents(70, 20, 5.0)` for `(70, 20, 5)`.
    pub fn from_percents(missing_pct: u32, outlier_pct: u32, magnitude: f64) -> Self {
        assert!(missing_pct <= 100 && outlier_pct <= 100);
        assert!(magnitude >= 0.0);
        Self {
            missing: missing_pct as f64 / 100.0,
            outlier: outlier_pct as f64 / 100.0,
            magnitude,
        }
    }

    /// The paper's four standard settings, mildest → harshest:
    /// (20,10,2), (30,15,3), (50,20,4), (70,20,5).
    pub fn paper_settings() -> [CorruptionConfig; 4] {
        [
            Self::from_percents(20, 10, 2.0),
            Self::from_percents(30, 15, 3.0),
            Self::from_percents(50, 20, 4.0),
            Self::from_percents(70, 20, 5.0),
        ]
    }

    /// Compact label like "(70,20,5)" used in figures.
    pub fn label(&self) -> String {
        format!(
            "({},{},{})",
            (self.missing * 100.0).round() as u32,
            (self.outlier * 100.0).round() as u32,
            self.magnitude
        )
    }
}

/// Applies a [`CorruptionConfig`] to clean slices, deterministically per
/// `(seed, t)`.
#[derive(Debug, Clone)]
pub struct Corruptor {
    config: CorruptionConfig,
    /// `max(X)` of the ground-truth stream, fixed up front per §VI-A.
    max_abs: f64,
    seed: u64,
}

impl Corruptor {
    /// Creates a corruptor; `max_abs` is the ground-truth tensor's maximum
    /// absolute entry (the paper's `max(X)`).
    pub fn new(config: CorruptionConfig, max_abs: f64, seed: u64) -> Self {
        assert!(max_abs.is_finite() && max_abs >= 0.0);
        Self {
            config,
            max_abs,
            seed,
        }
    }

    /// Corrupts the clean slice for time `t`: injects outliers, then hides
    /// entries. Returns the observed (masked, corrupted) slice.
    pub fn corrupt(&self, clean: &DenseTensor, t: usize) -> ObservedTensor {
        self.corrupt_labeled(clean, t).0
    }

    /// [`Corruptor::corrupt`] plus ground-truth labels: the flat offsets of
    /// the injected outliers that remain *observed* after masking (hidden
    /// outliers are unknowable to any method, so they are excluded from
    /// detection scoring).
    pub fn corrupt_labeled(&self, clean: &DenseTensor, t: usize) -> (ObservedTensor, Vec<usize>) {
        let mut rng =
            SmallRng::seed_from_u64(self.seed ^ (t as u64).wrapping_mul(0xd129_0d3b_3f2d_a37b));
        let mut values = clean.clone();
        let mut injected = Vec::new();
        if self.config.outlier > 0.0 && self.config.magnitude > 0.0 {
            let mag = self.config.magnitude * self.max_abs;
            for off in 0..values.len() {
                if rng.gen::<f64>() < self.config.outlier {
                    let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                    values.set_flat(off, sign * mag);
                    injected.push(off);
                }
            }
        }
        let mask = Mask::random(clean.shape().clone(), self.config.missing, &mut rng);
        let observed_outliers = injected
            .into_iter()
            .filter(|&off| mask.is_observed_flat(off))
            .collect();
        (ObservedTensor::new(values, mask), observed_outliers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_tensor::Shape;

    fn clean() -> DenseTensor {
        DenseTensor::from_fn(Shape::new(&[20, 20]), |idx| {
            ((idx[0] + idx[1]) % 5) as f64 - 2.0
        })
    }

    #[test]
    fn paper_settings_ordered_mild_to_harsh() {
        let settings = CorruptionConfig::paper_settings();
        for w in settings.windows(2) {
            assert!(w[0].missing <= w[1].missing);
            assert!(w[0].magnitude <= w[1].magnitude);
        }
        assert_eq!(settings[3].label(), "(70,20,5)");
    }

    #[test]
    fn outliers_have_exact_magnitude() {
        let cfg = CorruptionConfig::from_percents(0, 30, 4.0);
        let c = Corruptor::new(cfg, 2.0, 7);
        let slice = c.corrupt(&clean(), 0);
        let mut n_outliers = 0;
        for off in 0..slice.values().len() {
            let v = slice.values().get_flat(off);
            if v.abs() > 2.0 + 1e-12 {
                assert!((v.abs() - 8.0).abs() < 1e-12, "outlier magnitude {v}");
                n_outliers += 1;
            }
        }
        // ~30% of 400 entries.
        assert!((60..=180).contains(&n_outliers), "{n_outliers} outliers");
    }

    #[test]
    fn missing_fraction_close_to_requested() {
        let cfg = CorruptionConfig::from_percents(70, 0, 0.0);
        let c = Corruptor::new(cfg, 2.0, 3);
        let slice = c.corrupt(&clean(), 5);
        let frac = slice.mask().observed_fraction();
        assert!((frac - 0.3).abs() < 0.08, "observed fraction {frac}");
    }

    #[test]
    fn deterministic_per_t() {
        let cfg = CorruptionConfig::from_percents(50, 20, 5.0);
        let c = Corruptor::new(cfg, 2.0, 11);
        let a = c.corrupt(&clean(), 9);
        let b = c.corrupt(&clean(), 9);
        assert_eq!(a, b);
        let other = c.corrupt(&clean(), 10);
        assert_ne!(a, other);
    }

    #[test]
    fn zero_corruption_is_identity() {
        let cfg = CorruptionConfig::from_percents(0, 0, 0.0);
        let c = Corruptor::new(cfg, 2.0, 1);
        let x = clean();
        let slice = c.corrupt(&x, 0);
        assert_eq!(slice.values().data(), x.data());
        assert_eq!(slice.count_observed(), x.len());
    }

    #[test]
    fn labeled_corruption_matches_unlabeled() {
        let cfg = CorruptionConfig::from_percents(40, 20, 4.0);
        let c = Corruptor::new(cfg, 2.0, 9);
        let x = clean();
        let plain = c.corrupt(&x, 3);
        let (labeled, outliers) = c.corrupt_labeled(&x, 3);
        assert_eq!(plain, labeled);
        // Every labelled offset is observed and carries the outlier value.
        for &off in &outliers {
            assert!(labeled.mask().is_observed_flat(off));
            assert!((labeled.values().get_flat(off).abs() - 8.0).abs() < 1e-12);
        }
        // Count is plausible: ~20% injected, ~60% of those observed.
        let expected = (x.len() as f64 * 0.2 * 0.6) as usize;
        assert!(
            outliers.len() > expected / 2 && outliers.len() < expected * 2,
            "{} labelled outliers vs ~{expected} expected",
            outliers.len()
        );
    }

    #[test]
    fn labels_empty_without_outliers() {
        let cfg = CorruptionConfig::from_percents(50, 0, 0.0);
        let c = Corruptor::new(cfg, 2.0, 9);
        let (_, outliers) = c.corrupt_labeled(&clean(), 0);
        assert!(outliers.is_empty());
    }

    #[test]
    fn both_outlier_signs_occur() {
        let cfg = CorruptionConfig::from_percents(0, 50, 3.0);
        let c = Corruptor::new(cfg, 2.0, 5);
        let slice = c.corrupt(&clean(), 0);
        let pos = slice.values().data().iter().filter(|&&v| v > 5.0).count();
        let neg = slice.values().data().iter().filter(|&&v| v < -5.0).count();
        assert!(pos > 10 && neg > 10, "pos {pos} neg {neg}");
    }
}
