//! CPHW (Dunlavy, Kolda & Acar, "Temporal link prediction using matrix and
//! tensor factorizations", TKDD 2011).
//!
//! A *batch* forecasting pipeline: CP-factorize the entire observed history
//! (vanilla ALS), fit an additive Holt-Winters model to each column of the
//! temporal factor, and forecast future slices by extrapolating the
//! temporal vector (the paper's Eq. (28) applied with batch factors).
//! Being batch, it must be re-run from scratch as the stream grows, and it
//! has no outlier handling — the two weaknesses the SOFIA comparison
//! (Fig. 6) exercises.

use crate::vanilla_als::VanillaAls;
use sofia_core::hw::HwBank;
use sofia_tensor::{kruskal, DenseTensor, Matrix, ObservedTensor};
use sofia_timeseries::init::TooShort;

/// A fitted CPHW model.
#[derive(Debug, Clone)]
pub struct CpHw {
    /// Non-temporal factor matrices.
    factors: Vec<Matrix>,
    /// Per-component Holt-Winters models fitted on the temporal factor.
    hw: HwBank,
}

impl CpHw {
    /// Fits CPHW on a fully collected history of slices.
    ///
    /// `als_iters` caps the batch ALS sweeps; `period` is the seasonal
    /// period handed to Holt-Winters.
    pub fn fit(
        history: &[ObservedTensor],
        rank: usize,
        period: usize,
        als_iters: usize,
        seed: u64,
    ) -> Result<Self, TooShort> {
        assert!(!history.is_empty(), "history must be non-empty");
        let slices: Vec<&ObservedTensor> = history.iter().collect();
        let batch = ObservedTensor::stack(&slices);
        let fit = VanillaAls::fit(&batch, rank, als_iters, seed);
        let mut factors = fit.factors;
        let temporal = factors.pop().expect("at least two modes");
        let hw = HwBank::fit(&temporal, period)?;
        Ok(Self { factors, hw })
    }

    /// Forecasts the slice `h` steps past the end of the fitted history.
    pub fn forecast(&self, h: usize) -> DenseTensor {
        let u = self.hw.forecast(h);
        let refs: Vec<&Matrix> = self.factors.iter().collect();
        kruskal::kruskal_slice(&refs, &u)
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
        let w = vec![3.0 + 1.2 * phase.sin(), -1.5 + 0.8 * phase.cos()];
        let refs: Vec<&Matrix> = truth.iter().collect();
        kruskal::kruskal_slice(&refs, &w)
    }

    #[test]
    fn forecasts_clean_seasonal_history() {
        let m = 8;
        let mut rng = SmallRng::seed_from_u64(41);
        let truth = random_factors(&[5, 4], 2, &mut rng);
        let history: Vec<ObservedTensor> = (0..4 * m)
            .map(|t| ObservedTensor::fully_observed(seasonal_slice(&truth, t, m)))
            .collect();
        let model = CpHw::fit(&history, 2, m, 300, 7).unwrap();
        let t_end = 4 * m;
        let mut total = 0.0;
        for h in 1..=m {
            let fc = model.forecast(h);
            let truth_slice = seasonal_slice(&truth, t_end + h - 1, m);
            total += (&fc - &truth_slice).frobenius_norm() / truth_slice.frobenius_norm();
        }
        let avg = total / m as f64;
        assert!(avg < 0.15, "forecast avg error {avg}");
    }

    #[test]
    fn forecast_hurt_by_outliers() {
        let m = 6;
        let mut rng = SmallRng::seed_from_u64(42);
        let truth = random_factors(&[5, 5], 2, &mut rng);
        let clean: Vec<ObservedTensor> = (0..4 * m)
            .map(|t| ObservedTensor::fully_observed(seasonal_slice(&truth, t, m)))
            .collect();
        let mut rng2 = SmallRng::seed_from_u64(43);
        let dirty: Vec<ObservedTensor> = (0..4 * m)
            .map(|t| {
                let mut vals = seasonal_slice(&truth, t, m);
                for off in 0..vals.len() {
                    if rng2.gen::<f64>() < 0.2 {
                        vals.set_flat(off, 40.0);
                    }
                }
                ObservedTensor::fully_observed(vals)
            })
            .collect();
        let err = |hist: &[ObservedTensor]| -> f64 {
            let model = CpHw::fit(hist, 2, m, 200, 7).unwrap();
            (1..=m)
                .map(|h| {
                    let fc = model.forecast(h);
                    let ts = seasonal_slice(&truth, 4 * m + h - 1, m);
                    (&fc - &ts).frobenius_norm() / ts.frobenius_norm()
                })
                .sum::<f64>()
                / m as f64
        };
        let clean_err = err(&clean);
        let dirty_err = err(&dirty);
        assert!(
            dirty_err > 3.0 * clean_err,
            "outliers should wreck CPHW: clean {clean_err}, dirty {dirty_err}"
        );
    }

    #[test]
    fn works_with_missing_history() {
        // CPHW's CP step handles missing entries (CP-WOPT-style), even
        // though the original pipeline assumed complete data.
        let m = 6;
        let mut rng = SmallRng::seed_from_u64(44);
        let truth = random_factors(&[5, 5], 2, &mut rng);
        let history: Vec<ObservedTensor> = (0..4 * m)
            .map(|t| {
                let vals = seasonal_slice(&truth, t, m);
                let mask = sofia_tensor::Mask::random(vals.shape().clone(), 0.2, &mut rng);
                ObservedTensor::new(vals, mask)
            })
            .collect();
        let model = CpHw::fit(&history, 2, m, 300, 3).unwrap();
        let fc = model.forecast(1);
        let truth_slice = seasonal_slice(&truth, 4 * m, m);
        let rel = (&fc - &truth_slice).frobenius_norm() / truth_slice.frobenius_norm();
        assert!(rel < 0.3, "missing-history forecast rel {rel}");
    }

    #[test]
    fn short_history_errors() {
        let slices = vec![ObservedTensor::fully_observed(DenseTensor::zeros(
            sofia_tensor::Shape::new(&[2, 2]),
        ))];
        assert!(CpHw::fit(&slices, 1, 4, 10, 1).is_err());
    }
}
