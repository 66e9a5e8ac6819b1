//! Vanilla ALS for incomplete tensors (Zhou et al. 2008; the CP-WOPT-style
//! batch completion of Acar et al. 2011).
//!
//! This is the non-smooth, non-robust batch factorizer used (a) as the
//! Figure 2 initialization baseline, and (b) as the CP step inside
//! [`crate::cphw`]. It is simply SOFIA_ALS with `λ₁ = λ₂ = 0` and no
//! outlier handling.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sofia_core::als::{reconstruct, sofia_als, AlsOptions, AlsStats};
use sofia_tensor::random::random_factors;
use sofia_tensor::{DenseTensor, Matrix, ObservedTensor};

/// Result of a batch vanilla-ALS fit.
#[derive(Debug, Clone)]
pub struct VanillaAls {
    /// Factor matrices, the last one temporal.
    pub factors: Vec<Matrix>,
    /// The completed tensor `X̂`.
    pub completed: DenseTensor,
    /// ALS run statistics.
    pub stats: AlsStats,
}

impl VanillaAls {
    /// Fits a rank-`rank` CP model to an incomplete tensor by plain ALS.
    pub fn fit(data: &ObservedTensor, rank: usize, max_iters: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut factors = random_factors(data.shape().dims(), rank, &mut rng);
        for f in &mut factors {
            f.scale(0.1);
        }
        Self::fit_from(data, factors, max_iters)
    }

    /// Fits from caller-supplied starting factors.
    fn fit_from(data: &ObservedTensor, mut factors: Vec<Matrix>, max_iters: usize) -> Self {
        let opts = AlsOptions::vanilla(1e-6, max_iters);
        let stats = sofia_als(data, data.values(), &mut factors, &opts);
        let completed = reconstruct(&factors);
        Self {
            factors,
            completed,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use sofia_tensor::{kruskal, Mask, Shape};

    fn low_rank(dims: &[usize], rank: usize, seed: u64) -> DenseTensor {
        let mut rng = SmallRng::seed_from_u64(seed);
        let factors = random_factors(dims, rank, &mut rng);
        let refs: Vec<&Matrix> = factors.iter().collect();
        kruskal::kruskal(&refs)
    }

    #[test]
    fn fits_complete_low_rank_tensor() {
        let truth = low_rank(&[5, 4, 7], 2, 1);
        let data = ObservedTensor::fully_observed(truth.clone());
        let fit = VanillaAls::fit(&data, 2, 300, 9);
        let rel = (&fit.completed - &truth).frobenius_norm() / truth.frobenius_norm();
        assert!(rel < 1e-2, "rel {rel}");
    }

    #[test]
    fn completes_missing_entries() {
        let truth = low_rank(&[6, 5, 8], 2, 2);
        let mut rng = SmallRng::seed_from_u64(7);
        let mask = Mask::random(truth.shape().clone(), 0.3, &mut rng);
        let data = ObservedTensor::new(truth.clone(), mask);
        let fit = VanillaAls::fit(&data, 2, 300, 11);
        let rel = (&fit.completed - &truth).frobenius_norm() / truth.frobenius_norm();
        assert!(rel < 0.05, "rel {rel}");
    }

    #[test]
    fn vulnerable_to_outliers_unlike_sofia() {
        // The Fig. 2 claim in miniature: with large sparse outliers,
        // vanilla ALS produces a much worse fit than the outlier-removing
        // initialization of SOFIA.
        let truth = low_rank(&[6, 5, 9], 2, 3);
        let truth = truth.map(|v| v * 0.5); // z-score-ish scale
        let max = truth.max_abs();
        let mut rng = SmallRng::seed_from_u64(13);
        let mut corrupted = truth.clone();
        for off in 0..corrupted.len() {
            if rng.gen::<f64>() < 0.15 {
                let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                corrupted.set_flat(off, sign * 6.0 * max);
            }
        }
        let data = ObservedTensor::new(corrupted, Mask::all_observed(truth.shape().clone()));

        let vanilla = VanillaAls::fit(&data, 2, 200, 21);
        let rel_vanilla = (&vanilla.completed - &truth).frobenius_norm() / truth.frobenius_norm();

        let config = sofia_core::SofiaConfig::new(2, 3)
            .with_lambdas(0.01, 0.01, 10.0 * max / 4.5)
            .with_als_limits(1e-6, 1, 300);
        let robust = sofia_core::init::initialize(&data, &config, 21);
        let rel_robust = (&robust.completed - &truth).frobenius_norm() / truth.frobenius_norm();

        assert!(
            rel_robust < rel_vanilla * 0.5,
            "robust {rel_robust} should beat vanilla {rel_vanilla}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let truth = low_rank(&[4, 4, 4], 2, 5);
        let data = ObservedTensor::fully_observed(truth);
        let a = VanillaAls::fit(&data, 2, 50, 3);
        let b = VanillaAls::fit(&data, 2, 50, 3);
        assert_eq!(a.completed.data(), b.completed.data());
    }

    #[test]
    fn reports_stats() {
        let truth = low_rank(&[4, 4, 4], 1, 6);
        let data = ObservedTensor::fully_observed(truth);
        let fit = VanillaAls::fit(&data, 1, 100, 2);
        assert!(fit.stats.iterations >= 1);
        assert!(fit.stats.fitness > 0.9);
        let _ = DenseTensor::zeros(Shape::new(&[1])); // silence unused import in some cfgs
    }
}
