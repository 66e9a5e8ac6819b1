//! OnlineSGD (Mardani, Mateos & Giannakis, "Subspace learning and
//! imputation for streaming big data matrices and tensors", TSP 2015).
//!
//! At each step the new slice is projected onto the current subspace by
//! least squares (the temporal weight solve), then the non-temporal
//! factors take one stochastic-gradient step against the slice residual.
//! No outlier handling, no temporal-pattern model — the method that SOFIA's
//! imputation experiments show is fast but fragile under corruption.

use crate::common::{damped_sgd_step, reconstruct_slice, solve_temporal_weights, warm_start};
use sofia_core::traits::{StepOutput, StreamingFactorizer};
use sofia_tensor::{Matrix, ObservedTensor};

/// Streaming CP factorization/completion by projected-LS + SGD.
#[derive(Debug, Clone)]
pub struct OnlineSgd {
    factors: Vec<Matrix>,
    mu: f64,
}

impl OnlineSgd {
    /// Creates a model from explicit starting factors.
    pub fn new(factors: Vec<Matrix>, mu: f64) -> Self {
        assert!(!factors.is_empty());
        assert!(mu > 0.0, "step size must be positive");
        Self { factors, mu }
    }

    /// Warm-starts the subspace by batch ALS on a start-up window, as the
    /// evaluation protocol grants every method (paper §VI-A).
    pub fn init(startup: &[ObservedTensor], rank: usize, mu: f64, seed: u64) -> Self {
        let (factors, _) = warm_start(startup, rank, 100, seed);
        Self::new(factors, mu)
    }

    /// Current non-temporal factors.
    pub fn factors(&self) -> &[Matrix] {
        &self.factors
    }
}

impl StreamingFactorizer for OnlineSgd {
    fn name(&self) -> &'static str {
        "OnlineSGD"
    }

    fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
        // 1. Project the slice onto the subspace.
        let w = solve_temporal_weights(&self.factors, slice);
        // 2. SGD step on the factors at fixed w.
        damped_sgd_step(&mut self.factors, slice, &w, self.mu);
        // 3. Complete with the updated factors.
        let completed = reconstruct_slice(&self.factors, &w);
        StepOutput {
            completed,
            outliers: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sofia_tensor::random::random_factors;
    use sofia_tensor::Mask;

    fn stream(truth: &[Matrix], t: usize) -> (Vec<f64>, sofia_tensor::DenseTensor) {
        let w = vec![
            2.0 + (t as f64 * 0.35).sin(),
            -1.0 + 0.5 * (t as f64 * 0.2).cos(),
        ];
        let slice = reconstruct_slice(truth, &w);
        (w, slice)
    }

    #[test]
    fn tracks_clean_stream() {
        let mut rng = SmallRng::seed_from_u64(1);
        let truth = random_factors(&[5, 6], 2, &mut rng);
        let startup: Vec<ObservedTensor> = (0..12)
            .map(|t| ObservedTensor::fully_observed(stream(&truth, t).1))
            .collect();
        let mut model = OnlineSgd::init(&startup, 2, 0.1, 3);
        let mut total = 0.0;
        for t in 12..36 {
            let (_, slice) = stream(&truth, t);
            let out = model.step(&ObservedTensor::fully_observed(slice.clone()));
            total += (&out.completed - &slice).frobenius_norm() / slice.frobenius_norm();
        }
        let avg = total / 24.0;
        assert!(avg < 0.05, "clean-stream avg NRE {avg}");
    }

    #[test]
    fn imputes_under_moderate_missingness() {
        let mut rng = SmallRng::seed_from_u64(2);
        let truth = random_factors(&[6, 6], 2, &mut rng);
        let startup: Vec<ObservedTensor> = (0..12)
            .map(|t| ObservedTensor::fully_observed(stream(&truth, t).1))
            .collect();
        let mut model = OnlineSgd::init(&startup, 2, 0.1, 5);
        let mut total = 0.0;
        for t in 12..30 {
            let (_, slice) = stream(&truth, t);
            let mask = Mask::random(slice.shape().clone(), 0.2, &mut rng);
            let out = model.step(&ObservedTensor::new(slice.clone(), mask));
            total += (&out.completed - &slice).frobenius_norm() / slice.frobenius_norm();
        }
        let avg = total / 18.0;
        assert!(avg < 0.15, "missing-data avg NRE {avg}");
    }

    #[test]
    fn degrades_under_outliers_relative_to_clean() {
        // The Table I claim: OnlineSGD is NOT robust to outliers.
        let mut rng = SmallRng::seed_from_u64(3);
        let truth = random_factors(&[5, 5], 2, &mut rng);
        let startup: Vec<ObservedTensor> = (0..12)
            .map(|t| ObservedTensor::fully_observed(stream(&truth, t).1))
            .collect();

        let run = |corrupt: bool, seed: u64| -> f64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut model = OnlineSgd::init(&startup, 2, 0.1, 7);
            let mut total = 0.0;
            for t in 12..40 {
                let (_, clean) = stream(&truth, t);
                let mut vals = clean.clone();
                if corrupt {
                    for off in 0..vals.len() {
                        if rng.gen::<f64>() < 0.15 {
                            vals.set_flat(off, 25.0);
                        }
                    }
                }
                let out = model.step(&ObservedTensor::fully_observed(vals));
                total += (&out.completed - &clean).frobenius_norm() / clean.frobenius_norm();
            }
            total / 28.0
        };
        let clean_err = run(false, 11);
        let dirty_err = run(true, 11);
        assert!(
            dirty_err > clean_err * 5.0,
            "outliers should hurt OnlineSGD: clean {clean_err}, dirty {dirty_err}"
        );
    }

    #[test]
    fn name_and_no_outlier_output() {
        let factors = vec![Matrix::identity(2), Matrix::identity(2)];
        let mut model = OnlineSgd::new(factors, 0.1);
        assert_eq!(model.name(), "OnlineSGD");
        let slice = ObservedTensor::fully_observed(sofia_tensor::DenseTensor::zeros(
            sofia_tensor::Shape::new(&[2, 2]),
        ));
        let out = model.step(&slice);
        assert!(out.outliers.is_none());
    }
}
