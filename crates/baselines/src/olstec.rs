//! OLSTEC (Kasai, "Online low-rank tensor subspace tracking from incomplete
//! data by CP decomposition using recursive least squares", ICASSP 2016).
//!
//! Like OnlineSGD, each slice is first projected onto the current subspace;
//! the non-temporal factor rows are then updated by *recursive least
//! squares* with an exponential forgetting factor, which adapts faster than
//! SGD when the subspace drifts. Per observed entry `(i, j)` of a 3-way
//! stream, row `a_i` regresses `y_ij` on the feature `h = b_j ⊛ w_t`
//! (and symmetrically for `b_j`), with per-row inverse-covariance state.

use crate::common::{reconstruct_slice, solve_temporal_weights, warm_start};
use sofia_core::traits::{StepOutput, StreamingFactorizer};
use sofia_tensor::linalg::solve_spd_ridge;
use sofia_tensor::{Matrix, ObservedTensor};

/// Per-mode RLS state: one `R×R` covariance and one `R` cross-moment per
/// row, stored flat.
#[derive(Debug, Clone)]
struct ModeRls {
    rank: usize,
    /// `rows × R × R` covariance accumulators.
    cov: Vec<f64>,
    /// `rows × R` cross-moments.
    cross: Vec<f64>,
}

impl ModeRls {
    fn new(rows: usize, rank: usize, ridge: f64) -> Self {
        // Initialize covariances to ridge·I so early solves are stable.
        let mut cov = vec![0.0; rows * rank * rank];
        for i in 0..rows {
            for k in 0..rank {
                cov[i * rank * rank + k * rank + k] = ridge;
            }
        }
        Self {
            rank,
            cov,
            cross: vec![0.0; rows * rank],
        }
    }

    fn forget(&mut self, lambda: f64) {
        for v in &mut self.cov {
            *v *= lambda;
        }
        for v in &mut self.cross {
            *v *= lambda;
        }
    }

    #[inline]
    fn accumulate(&mut self, row: usize, h: &[f64], y: f64) {
        let r = self.rank;
        let cov = &mut self.cov[row * r * r..(row + 1) * r * r];
        let cross = &mut self.cross[row * r..(row + 1) * r];
        for a in 0..r {
            cross[a] += y * h[a];
            for b in 0..r {
                cov[a * r + b] += h[a] * h[b];
            }
        }
    }

    fn solve_row(&self, row: usize) -> Option<Vec<f64>> {
        let r = self.rank;
        let mut m = Matrix::zeros(r, r);
        for a in 0..r {
            for b in 0..r {
                m.set(a, b, self.cov[row * r * r + a * r + b]);
            }
        }
        let c = &self.cross[row * r..(row + 1) * r];
        solve_spd_ridge(&m, c, 1e-10).ok()
    }
}

/// Streaming CP factorization/completion by recursive least squares.
#[derive(Debug, Clone)]
pub struct Olstec {
    factors: Vec<Matrix>,
    rls: Vec<ModeRls>,
    /// Forgetting factor `λ_f ∈ (0, 1]` (1 = infinite memory).
    forgetting: f64,
    steps: usize,
}

impl Olstec {
    /// Creates a model from explicit starting factors.
    pub fn new(factors: Vec<Matrix>, forgetting: f64) -> Self {
        assert!(!factors.is_empty());
        assert!(
            (0.0..=1.0).contains(&forgetting) && forgetting > 0.0,
            "forgetting factor must be in (0, 1]"
        );
        let rank = factors[0].cols();
        let rls = factors
            .iter()
            .map(|f| ModeRls::new(f.rows(), rank, 1e-2))
            .collect();
        Self {
            factors,
            rls,
            forgetting,
            steps: 0,
        }
    }

    /// Warm-starts the subspace by batch ALS on a start-up window.
    pub fn init(startup: &[ObservedTensor], rank: usize, forgetting: f64, seed: u64) -> Self {
        let (factors, _) = warm_start(startup, rank, 100, seed);
        Self::new(factors, forgetting)
    }
}

impl StreamingFactorizer for Olstec {
    fn name(&self) -> &'static str {
        "OLSTEC"
    }

    fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
        let rank = self.factors[0].cols();
        let shape = slice.shape().clone();
        let n_modes = self.factors.len();

        // 1. Project the slice onto the current subspace.
        let w = solve_temporal_weights(&self.factors, slice);

        // 2. RLS accumulation with forgetting.
        for rls in &mut self.rls {
            rls.forget(self.forgetting);
        }
        let mut idx = vec![0usize; shape.order()];
        let mut h = vec![0.0f64; rank];
        for &off in slice.mask().observed_offsets() {
            shape.unravel_into(off, &mut idx);
            let y = slice.values().get_flat(off);
            for n in 0..n_modes {
                // Feature for mode n's row: w ⊛ Π_{l≠n} u⁽ˡ⁾.
                for k in 0..rank {
                    let mut p = w[k];
                    for (l, f) in self.factors.iter().enumerate() {
                        if l != n {
                            p *= f.row(idx[l])[k];
                        }
                    }
                    h[k] = p;
                }
                self.rls[n].accumulate(idx[n], &h, y);
            }
        }

        // 3. Row solves from the accumulated moments.
        for n in 0..n_modes {
            for i in 0..self.factors[n].rows() {
                if let Some(x) = self.rls[n].solve_row(i) {
                    self.factors[n].row_mut(i).copy_from_slice(&x);
                }
            }
        }

        // 4. Re-project and complete.
        let w = solve_temporal_weights(&self.factors, slice);
        let completed = reconstruct_slice(&self.factors, &w);
        self.steps += 1;
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

    fn slice_at(truth: &[Matrix], t: usize) -> sofia_tensor::DenseTensor {
        let w = vec![
            1.5 + (t as f64 * 0.4).sin(),
            -0.8 + 0.6 * (t as f64 * 0.25).cos(),
        ];
        reconstruct_slice(truth, &w)
    }

    #[test]
    fn tracks_clean_stream() {
        let mut rng = SmallRng::seed_from_u64(4);
        let truth = random_factors(&[5, 6], 2, &mut rng);
        let startup: Vec<ObservedTensor> = (0..12)
            .map(|t| ObservedTensor::fully_observed(slice_at(&truth, t)))
            .collect();
        let mut model = Olstec::init(&startup, 2, 0.95, 3);
        let mut total = 0.0;
        for t in 12..36 {
            let slice = slice_at(&truth, t);
            let out = model.step(&ObservedTensor::fully_observed(slice.clone()));
            total += (&out.completed - &slice).frobenius_norm() / slice.frobenius_norm();
        }
        let avg = total / 24.0;
        assert!(avg < 0.05, "clean-stream avg NRE {avg}");
    }

    #[test]
    fn adapts_to_subspace_change() {
        // After an abrupt subspace switch, the forgetting factor lets RLS
        // re-converge; the error at the end is far below the error just
        // after the switch (the OLSTEC-vs-OnlineSGD selling point).
        let mut rng = SmallRng::seed_from_u64(5);
        let truth_a = random_factors(&[5, 5], 2, &mut rng);
        let truth_b = random_factors(&[5, 5], 2, &mut rng);
        let startup: Vec<ObservedTensor> = (0..12)
            .map(|t| ObservedTensor::fully_observed(slice_at(&truth_a, t)))
            .collect();
        let mut model = Olstec::init(&startup, 2, 0.7, 9);
        let mut first_after_switch = None;
        let mut last = 0.0;
        for t in 12..60 {
            let truth = if t < 20 { &truth_a } else { &truth_b };
            let slice = slice_at(truth, t);
            let out = model.step(&ObservedTensor::fully_observed(slice.clone()));
            let rel = (&out.completed - &slice).frobenius_norm() / slice.frobenius_norm();
            if t == 20 {
                first_after_switch = Some(rel);
            }
            last = rel;
        }
        let switch_err = first_after_switch.unwrap();
        assert!(
            last < switch_err * 0.5 || last < 0.05,
            "should recover after switch: at-switch {switch_err}, final {last}"
        );
    }

    #[test]
    fn handles_missing_entries() {
        let mut rng = SmallRng::seed_from_u64(6);
        let truth = random_factors(&[6, 6], 2, &mut rng);
        let startup: Vec<ObservedTensor> = (0..12)
            .map(|t| ObservedTensor::fully_observed(slice_at(&truth, t)))
            .collect();
        let mut model = Olstec::init(&startup, 2, 0.95, 1);
        let mut total = 0.0;
        for t in 12..30 {
            let slice = slice_at(&truth, t);
            let mask = Mask::random(slice.shape().clone(), 0.3, &mut rng);
            let out = model.step(&ObservedTensor::new(slice.clone(), mask));
            total += (&out.completed - &slice).frobenius_norm() / slice.frobenius_norm();
        }
        let avg = total / 18.0;
        assert!(avg < 0.2, "missing-data avg NRE {avg}");
    }

    #[test]
    fn not_robust_to_outliers() {
        let mut rng = SmallRng::seed_from_u64(8);
        let truth = random_factors(&[5, 5], 2, &mut rng);
        let startup: Vec<ObservedTensor> = (0..12)
            .map(|t| ObservedTensor::fully_observed(slice_at(&truth, t)))
            .collect();
        let mut model = Olstec::init(&startup, 2, 0.9, 2);
        let mut clean_err = 0.0;
        let mut dirty_err = 0.0;
        for t in 12..40 {
            let clean = slice_at(&truth, t);
            let mut vals = clean.clone();
            for off in 0..vals.len() {
                if rng.gen::<f64>() < 0.15 {
                    vals.set_flat(off, 20.0);
                }
            }
            let out = model.step(&ObservedTensor::fully_observed(vals));
            dirty_err += (&out.completed - &clean).frobenius_norm() / clean.frobenius_norm();
            clean_err += 0.02; // nominal clean-tracking level
        }
        assert!(
            dirty_err > clean_err * 3.0,
            "outliers should hurt OLSTEC: {dirty_err} vs nominal {clean_err}"
        );
    }

    #[test]
    #[should_panic(expected = "forgetting factor")]
    fn rejects_bad_forgetting() {
        Olstec::new(vec![Matrix::identity(2), Matrix::identity(2)], 1.5);
    }
}
