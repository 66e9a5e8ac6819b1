//! SMF-style seasonal matrix factorization (Hooi, Shin, Liu & Faloutsos,
//! "SMF: Drift-aware matrix factorization with seasonal patterns",
//! SDM 2019).
//!
//! SMF factorizes a fully observed matrix stream: each incoming slice is
//! vectorized into `y_t ∈ R^D`, modelled as `y_t ≈ Vᵀ z_t` with latent
//! coefficients `z_t ∈ R^R` that follow a seasonal-plus-drift process.
//! Forecasts reuse the same phase's coefficient from the previous season
//! plus an EWMA drift. SMF exploits seasonality but has no outlier
//! handling and — as Table I notes — is not applicable to tensors with
//! missing entries (the paper evaluates it fully observed; this
//! implementation projects with whatever entries are present but is only
//! benchmarked fully observed).

use crate::common::{reconstruct_slice, solve_temporal_weights, warm_start};
use sofia_core::traits::{StepOutput, StreamingFactorizer};
use sofia_tensor::{DenseTensor, Matrix, ObservedTensor};
use std::collections::VecDeque;

/// Seasonal matrix factorization over a vectorized slice stream.
#[derive(Debug, Clone)]
pub struct Smf {
    factors: Vec<Matrix>,
    /// Ring of the last `m` latent coefficient vectors.
    seasonal: VecDeque<Vec<f64>>,
    /// EWMA of the season-over-season drift `(z_t − z_{t−m})/m`.
    drift: Vec<f64>,
    /// Drift smoothing parameter.
    drift_alpha: f64,
    /// SGD step for the basis update.
    mu: f64,
}

impl Smf {
    /// Warm-starts basis and seasonal coefficients from a start-up window
    /// (which must span at least one full season).
    pub fn init(
        startup: &[ObservedTensor],
        rank: usize,
        period: usize,
        mu: f64,
        seed: u64,
    ) -> Self {
        assert!(
            startup.len() >= period,
            "need at least one full season of start-up slices"
        );
        let (factors, temporal) = warm_start(startup, rank, 100, seed);
        let rows = temporal.rows();
        let seasonal: VecDeque<Vec<f64>> = (rows - period..rows)
            .map(|i| temporal.row(i).to_vec())
            .collect();
        // Initial drift from first vs last season if available.
        let drift = if rows >= 2 * period {
            (0..rank)
                .map(|k| {
                    (temporal.get(rows - 1, k) - temporal.get(rows - 1 - period, k)) / period as f64
                })
                .collect()
        } else {
            vec![0.0; rank]
        };
        Self {
            factors,
            seasonal,
            drift,
            drift_alpha: 0.2,
            mu,
        }
    }

    /// Seasonal period `m`.
    pub fn period(&self) -> usize {
        self.seasonal.len()
    }

    /// Forecast of the latent coefficients `h` steps ahead.
    fn forecast_z(&self, h: usize) -> Vec<f64> {
        let m = self.period();
        let rank = self.drift.len();
        // Coefficient of the same phase in the last season...
        let base = &self.seasonal[(h - 1) % m];
        // ...advanced by the drift estimate.
        let steps = h as f64;
        (0..rank).map(|k| base[k] + self.drift[k] * steps).collect()
    }
}

impl StreamingFactorizer for Smf {
    fn name(&self) -> &'static str {
        "SMF"
    }

    fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
        let m = self.period();
        // Project to latent coefficients.
        let z = solve_temporal_weights(&self.factors, slice);
        // Drift EWMA against the same phase one season back.
        let z_season = self.seasonal.front().expect("season ring non-empty");
        for k in 0..z.len() {
            let inst = (z[k] - z_season[k]) / m as f64;
            self.drift[k] = self.drift_alpha * inst + (1.0 - self.drift_alpha) * self.drift[k];
        }
        // Basis SGD step.
        crate::common::damped_sgd_step(&mut self.factors, slice, &z, self.mu);
        // Advance the season ring.
        self.seasonal.pop_front();
        self.seasonal.push_back(z.clone());

        let completed = reconstruct_slice(&self.factors, &z);
        StepOutput {
            completed,
            outliers: None,
        }
    }

    fn forecast(&self, h: usize) -> Option<DenseTensor> {
        let z = self.forecast_z(h);
        Some(reconstruct_slice(&self.factors, &z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sofia_tensor::random::random_factors;

    fn seasonal_slice(truth: &[Matrix], t: usize, m: usize) -> DenseTensor {
        let phase = 2.0 * std::f64::consts::PI * (t % m) as f64 / m as f64;
        let w = vec![2.0 + phase.sin(), -1.0 + 0.7 * phase.cos()];
        reconstruct_slice(truth, &w)
    }

    #[test]
    fn forecasts_seasonal_stream() {
        let m = 8;
        let mut rng = SmallRng::seed_from_u64(31);
        let truth = random_factors(&[5, 5], 2, &mut rng);
        let startup: Vec<ObservedTensor> = (0..2 * m)
            .map(|t| ObservedTensor::fully_observed(seasonal_slice(&truth, t, m)))
            .collect();
        let mut model = Smf::init(&startup, 2, m, 0.1, 3);
        for t in 2 * m..5 * m {
            model.step(&ObservedTensor::fully_observed(seasonal_slice(
                &truth, t, m,
            )));
        }
        let t_end = 5 * m;
        let mut total = 0.0;
        for h in 1..=m {
            let fc = model.forecast(h).unwrap();
            let truth_slice = seasonal_slice(&truth, t_end + h - 1, m);
            total += (&fc - &truth_slice).frobenius_norm() / truth_slice.frobenius_norm();
        }
        let avg = total / m as f64;
        assert!(avg < 0.2, "seasonal forecast avg error {avg}");
    }

    #[test]
    fn tracks_stream_completions() {
        let m = 6;
        let mut rng = SmallRng::seed_from_u64(32);
        let truth = random_factors(&[4, 6], 2, &mut rng);
        let startup: Vec<ObservedTensor> = (0..2 * m)
            .map(|t| ObservedTensor::fully_observed(seasonal_slice(&truth, t, m)))
            .collect();
        let mut model = Smf::init(&startup, 2, m, 0.1, 5);
        let mut total = 0.0;
        for t in 2 * m..4 * m {
            let slice = seasonal_slice(&truth, t, m);
            let out = model.step(&ObservedTensor::fully_observed(slice.clone()));
            total += (&out.completed - &slice).frobenius_norm() / slice.frobenius_norm();
        }
        let avg = total / (2 * m) as f64;
        assert!(avg < 0.05, "tracking avg NRE {avg}");
    }

    #[test]
    fn forecast_hurt_by_outliers() {
        // Table I: SMF is not outlier-robust — corrupting the stream
        // degrades its forecasts much more than SOFIA's.
        let m = 6;
        let mut rng = SmallRng::seed_from_u64(33);
        let truth = random_factors(&[5, 5], 2, &mut rng);
        let startup: Vec<ObservedTensor> = (0..2 * m)
            .map(|t| ObservedTensor::fully_observed(seasonal_slice(&truth, t, m)))
            .collect();
        let run = |corrupt: bool| -> f64 {
            let mut rng = SmallRng::seed_from_u64(99);
            let mut model = Smf::init(&startup, 2, m, 0.1, 5);
            for t in 2 * m..6 * m {
                let mut vals = seasonal_slice(&truth, t, m);
                if corrupt {
                    for off in 0..vals.len() {
                        if rng.gen::<f64>() < 0.2 {
                            vals.set_flat(off, 30.0);
                        }
                    }
                }
                model.step(&ObservedTensor::fully_observed(vals));
            }
            let t_end = 6 * m;
            (1..=m)
                .map(|h| {
                    let fc = model.forecast(h).unwrap();
                    let truth_slice = seasonal_slice(&truth, t_end + h - 1, m);
                    (&fc - &truth_slice).frobenius_norm() / truth_slice.frobenius_norm()
                })
                .sum::<f64>()
                / m as f64
        };
        let clean = run(false);
        let dirty = run(true);
        assert!(
            dirty > 3.0 * clean,
            "outliers should wreck SMF forecasts: clean {clean}, dirty {dirty}"
        );
    }

    #[test]
    #[should_panic(expected = "full season")]
    fn init_requires_one_season() {
        let slices = vec![ObservedTensor::fully_observed(DenseTensor::zeros(
            sofia_tensor::Shape::new(&[2, 2]),
        ))];
        Smf::init(&slices, 1, 4, 0.1, 1);
    }
}
