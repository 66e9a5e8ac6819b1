//! Dynamic (streaming) updates of SOFIA — Algorithm 3.
//!
//! At each time step `t` the state receives a partially observed subtensor
//! `Y_t` and performs, touching only observed entries:
//!
//! 1. one-step Holt-Winters forecast of the temporal vector (Eq. (19)) and
//!    of the subtensor (Eq. (20));
//! 2. outlier estimation by tensor-extended Huber pre-cleaning (Eq. (21));
//! 3. error-scale tensor update by the element-wise biweight recursion
//!    (Eq. (22)) — *after* outlier rejection, the paper's key deviation
//!    from Gelper et al.;
//! 4. gradient-descent updates of the non-temporal factors (Eq. (24)) and
//!    of the temporal vector (Eq. (25));
//! 5. vector Holt-Winters smoothing updates (Eq. (26));
//! 6. reconstruction `X̂_t` (Eq. (27)) for imputation.
//!
//! Total per-step cost is `O(|Ω_t|·N·R)` plus the `O(Π Iₙ · R)`
//! reconstruction requested for imputation output (Lemma 2 counts only the
//! model update, which is what `update_only` exposes for the scalability
//! experiments and for serving). The reconstruction and the forecast of
//! Eq. (28) both run through [`kruskal::kruskal_slice`], whose entries have
//! the bits of the point evaluator [`kruskal::kruskal_at_with_vec`].
//!
//! The update also returns what it found at the observed entries alone:
//! the outliers as a sparse list, and the residual of the one-step
//! forecast ŷ (Eq. (20)) it compared every observation with — a serving
//! layer's drift signal, with no forecast evaluated beyond the ones the
//! update needs ([`ForecastResidual`]).

use crate::config::SofiaConfig;
use crate::hw::HwBank;
use sofia_tensor::{kruskal, DenseTensor, Matrix, ObservedTensor, Shape};
use sofia_timeseries::robust::{biweight_rho, huber_psi, DEFAULT_CK, DEFAULT_K};
use std::collections::VecDeque;

/// Output of one dynamic step.
#[derive(Debug, Clone)]
pub struct DynStepOutput {
    /// Completed reconstruction `X̂_t` (Eq. (27)).
    pub completed: DenseTensor,
    /// Estimated outlier subtensor `O_t` (zero at unobserved entries).
    pub outliers: DenseTensor,
    /// The updated temporal vector `u⁽ᴺ⁾_t`.
    pub temporal: Vec<f64>,
}

/// The residual of the one-step forecast ŷ (Eq. (20)) against a slice,
/// summed over the slice's observed entries in ascending offset order.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForecastResidual {
    /// `Σ_Ω (y − ŷ)²`.
    pub sq_error: f64,
    /// `Σ_Ω y²`.
    pub sq_observed: f64,
    /// `|Ω_t|`, the number of observed entries summed.
    pub observed: usize,
}

impl ForecastResidual {
    /// The relative residual `‖y − ŷ‖_Ω / ‖y‖_Ω` — the raw `‖y − ŷ‖_Ω`
    /// when every observed value is zero, and `None` for a slice with no
    /// observed entry.
    pub fn relative(&self) -> Option<f64> {
        if self.observed == 0 {
            return None;
        }
        Some(if self.sq_observed > 0.0 {
            (self.sq_error / self.sq_observed).sqrt()
        } else {
            self.sq_error.sqrt()
        })
    }
}

/// What one model update ([`DynamicState::update_only`]) found.
#[derive(Debug, Clone)]
pub struct UpdateOutput {
    /// The updated temporal vector `u⁽ᴺ⁾_t`.
    pub temporal: Vec<f64>,
    /// The outlier subtensor `O_t` as `(flat offset, value)` for every
    /// observed entry whose value is nonzero, ascending by offset;
    /// `O_t` is +0.0 everywhere else.
    pub outliers: Vec<(usize, f64)>,
    /// The pre-update forecast's residual against the slice.
    pub residual: ForecastResidual,
}

/// The dense outlier subtensor of an [`UpdateOutput::outliers`] list.
fn outlier_tensor(shape: &Shape, outliers: &[(usize, f64)]) -> DenseTensor {
    let mut t = DenseTensor::zeros(shape.clone());
    for &(off, o) in outliers {
        t.set_flat(off, o);
    }
    t
}

/// The evolving state of SOFIA's dynamic phase.
#[derive(Debug, Clone)]
pub struct DynamicState {
    config: SofiaConfig,
    /// Non-temporal factor matrices `{U⁽ⁿ⁾_t}`.
    factors: Vec<Matrix>,
    /// Ring of the last `m` temporal vectors, front = `u_{t−m}`.
    history: VecDeque<Vec<f64>>,
    /// Per-component Holt-Winters models.
    hw: HwBank,
    /// Error-scale tensor `Σ̂_t` over the slice shape (Eq. (22)).
    sigma: DenseTensor,
    /// Slice shape (non-temporal dims).
    slice_shape: Shape,
    /// Number of dynamic steps processed so far.
    steps: usize,
}

impl DynamicState {
    /// Builds the dynamic state from initialization outputs: non-temporal
    /// factors, the last `m` temporal vectors, and the fitted HW bank.
    /// The error-scale tensor starts at `λ₃/100` everywhere (Algorithm 3,
    /// line 1).
    pub fn new(
        config: SofiaConfig,
        mut factors: Vec<Matrix>,
        mut recent_temporal: Vec<Vec<f64>>,
        mut hw: HwBank,
    ) -> Self {
        assert!(!factors.is_empty(), "need at least one non-temporal factor");
        assert_eq!(
            recent_temporal.len(),
            config.period,
            "need exactly m recent temporal vectors"
        );
        for u in &recent_temporal {
            assert_eq!(u.len(), config.rank, "temporal vector rank mismatch");
        }
        assert_eq!(hw.rank(), config.rank, "HW bank rank mismatch");
        assert_eq!(hw.period(), config.period, "HW bank period mismatch");

        // Establish the unit-norm convention of Eq. (11) at construction:
        // push each component's non-temporal column norms into the temporal
        // history and the (linear) Holt-Winters state. The reconstruction
        // ⟦{U⁽ⁿ⁾}; u⟧ is unchanged; the streaming updates then maintain the
        // convention per step.
        for k in 0..config.rank {
            let mut scale = 1.0;
            for f in factors.iter_mut() {
                let norm = f.col_norm(k);
                if norm > 0.0 {
                    f.scale_col(k, 1.0 / norm);
                    scale *= norm;
                }
            }
            if (scale - 1.0).abs() > 1e-15 {
                for u in &mut recent_temporal {
                    u[k] *= scale;
                }
                hw.scale_component(k, scale);
            }
        }

        let dims: Vec<usize> = factors.iter().map(|f| f.rows()).collect();
        let slice_shape = Shape::new(&dims);
        let sigma = DenseTensor::full(slice_shape.clone(), config.lambda3 / 100.0);
        Self {
            config,
            factors,
            history: recent_temporal.into(),
            hw,
            sigma,
            slice_shape,
            steps: 0,
        }
    }

    /// Restores a state verbatim from checkpointed parts — unlike
    /// [`DynamicState::new`], **no renormalization** is applied, so a
    /// restored model is bit-identical to the one that was saved (the
    /// saved state already satisfies the unit-norm convention up to the
    /// float dust the per-step renormalization leaves behind).
    pub fn restore(
        config: SofiaConfig,
        factors: Vec<Matrix>,
        recent_temporal: Vec<Vec<f64>>,
        hw: HwBank,
        sigma: DenseTensor,
        steps: usize,
    ) -> Self {
        assert!(!factors.is_empty(), "need at least one non-temporal factor");
        assert_eq!(
            recent_temporal.len(),
            config.period,
            "need exactly m recent temporal vectors"
        );
        for u in &recent_temporal {
            assert_eq!(u.len(), config.rank, "temporal vector rank mismatch");
        }
        assert_eq!(hw.rank(), config.rank, "HW bank rank mismatch");
        assert_eq!(hw.period(), config.period, "HW bank period mismatch");
        let dims: Vec<usize> = factors.iter().map(|f| f.rows()).collect();
        let slice_shape = Shape::new(&dims);
        assert_eq!(sigma.shape(), &slice_shape, "sigma shape mismatch");
        Self {
            config,
            factors,
            history: recent_temporal.into(),
            hw,
            sigma,
            slice_shape,
            steps,
        }
    }

    /// The non-temporal factor matrices.
    pub fn factors(&self) -> &[Matrix] {
        &self.factors
    }

    /// The Holt-Winters bank.
    pub fn hw(&self) -> &HwBank {
        &self.hw
    }

    /// The error-scale tensor `Σ̂_t`.
    pub fn sigma(&self) -> &DenseTensor {
        &self.sigma
    }

    /// Shape of the streaming slices.
    pub fn slice_shape(&self) -> &Shape {
        &self.slice_shape
    }

    /// Number of dynamic steps processed.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The sliding window of the last `m` temporal vectors, oldest first
    /// (`u_{t−m}, …, u_{t−1}`) — exposed for checkpointing.
    pub fn temporal_history(&self) -> Vec<Vec<f64>> {
        self.history.iter().cloned().collect()
    }

    /// Processes one streaming subtensor (Algorithm 3 body) and returns the
    /// completed reconstruction plus diagnostics.
    pub fn step(&mut self, slice: &ObservedTensor) -> DynStepOutput {
        let update = self.update_only(slice);
        // Step 5 (Eq. 27): dense reconstruction for imputation.
        let refs: Vec<&Matrix> = self.factors.iter().collect();
        let completed = kruskal::kruskal_slice(&refs, &update.temporal);
        DynStepOutput {
            completed,
            outliers: outlier_tensor(&self.slice_shape, &update.outliers),
            temporal: update.temporal,
        }
    }

    /// The model-update portion of Algorithm 3 **without** materializing
    /// any dense tensor — exactly the `O(|Ω_t|·N·R)` work counted by
    /// Lemma 2. Returns the new temporal vector, the outliers it found as
    /// a list, and the residual of the one-step forecast ŷ it compared
    /// each observed entry with ([`UpdateOutput`]).
    pub fn update_only(&mut self, slice: &ObservedTensor) -> UpdateOutput {
        assert_eq!(
            slice.shape(),
            &self.slice_shape,
            "slice shape changed mid-stream"
        );
        let rank = self.config.rank;
        let n_modes = self.factors.len();
        let shape = self.slice_shape.clone();
        let lambda1 = self.config.lambda1;
        let lambda2 = self.config.lambda2;
        let mu = self.config.mu;
        let phi = self.config.phi;

        // Step 1 (Eqs. 19-20): forecast temporal vector; subtensor forecast
        // is evaluated lazily per observed entry below.
        let u_hat = self.hw.forecast_one();

        // Steps 2-4 fused over observed entries, which also sum the
        // forecast's residual.
        let mut outliers = Vec::new();
        let mut residual = ForecastResidual {
            observed: slice.count_observed(),
            ..ForecastResidual::default()
        };
        // Gradient accumulators: ΔU⁽ⁿ⁾ per non-temporal mode and Δu for the
        // temporal vector, plus diagonal curvature accumulators used to damp
        // the steps (see the stability note below).
        let mut grads: Vec<Matrix> = self
            .factors
            .iter()
            .map(|f| Matrix::zeros(f.rows(), rank))
            .collect();
        let mut curvs: Vec<Matrix> = self
            .factors
            .iter()
            .map(|f| Matrix::zeros(f.rows(), rank))
            .collect();
        let mut u_grad = vec![0.0f64; rank];
        let mut u_curv = vec![0.0f64; rank];

        let mut idx = vec![0usize; shape.order()];
        let mut rows: Vec<&[f64]> = Vec::with_capacity(n_modes);
        let mut prod = vec![0.0f64; rank];
        for &off in slice.mask().observed_offsets() {
            shape.unravel_into(off, &mut idx);
            rows.clear();
            for (l, f) in self.factors.iter().enumerate() {
                rows.push(f.row(idx[l]));
            }
            // prod[k] = Π_l U⁽ˡ⁾[i_l, k]  (all non-temporal modes)
            for k in 0..rank {
                let mut p = 1.0;
                for row in &rows {
                    p *= row[k];
                }
                prod[k] = p;
            }
            // ŷ = Σ_k prod[k]·û_k  (Eq. 20 at this entry)
            let mut y_hat = 0.0;
            for k in 0..rank {
                y_hat += prod[k] * u_hat[k];
            }
            let y = slice.values().get_flat(off);
            let err = y - y_hat;
            residual.sq_error += err * err;
            residual.sq_observed += y * y;

            // Step 2 (Eq. 21): Huber pre-cleaning → outlier estimate.
            // Inside the Huber band Ψ(e/σ)·σ = e exactly, so o = 0; compute
            // the branch directly to avoid floating-point dust.
            let sig = self.sigma.get_flat(off);
            let o = if err.abs() < DEFAULT_K * sig {
                0.0
            } else {
                err - huber_psi(err / sig, DEFAULT_K) * sig
            };
            if o != 0.0 {
                outliers.push((off, o));
            }

            // Step 3 (Eq. 22): per-entry biweight scale update (after the
            // outlier was rejected).
            let rho = biweight_rho(err / sig, DEFAULT_K, DEFAULT_CK);
            let new_var = phi * rho * sig * sig + (1.0 - phi) * sig * sig;
            self.sigma
                .set_flat(off, new_var.sqrt().max(f64::MIN_POSITIVE));

            // Residual for the gradient: r = y − o − ŷ (the cleaned error).
            let r = err - o;

            // Step 4a (Eq. 24): ΔU⁽ⁿ⁾[iₙ,k] += r · û_k · Π_{l≠n} rows.
            // Step 4b (Eq. 25): Δu[k]      += r · Π_l rows = r · prod[k].
            for k in 0..rank {
                u_grad[k] += r * prod[k];
                u_curv[k] += prod[k] * prod[k];
            }
            for n in 0..n_modes {
                let g = grads[n].row_mut(idx[n]);
                let h = curvs[n].row_mut(idx[n]);
                let row_n = rows[n];
                for k in 0..rank {
                    let lo = if row_n[k] != 0.0 {
                        // Π_{l≠n} = prod / row_n (guarded against 0).
                        prod[k] / row_n[k]
                    } else {
                        // Recompute the leave-one-out product explicitly.
                        let mut p = 1.0;
                        for (l, row) in rows.iter().enumerate() {
                            if l != n {
                                p *= row[k];
                            }
                        }
                        p
                    };
                    let coeff = u_hat[k] * lo;
                    g[k] += r * coeff;
                    h[k] += coeff * coeff;
                }
            }
        }

        // Apply the factor gradient steps (Eq. 24): U_t = U_{t−1} + 2µ·ΔU.
        //
        // Stability note: the raw step of Eq. (24) has per-coordinate
        // feedback gain 1 − 2µ·h where h = Σ_obs (û_k · Π_{l≠n} u_l)² is
        // the diagonal of the least-squares Hessian. When the temporal
        // factor carries the data scale (û ≫ 1, the usual case after the
        // unit-norm constraint pushes all magnitude into mode N), h ≫ 1 and
        // the raw recursion diverges. We therefore damp each coordinate by
        // max(1, h): in the well-scaled regime (h ≤ 1) this is *exactly*
        // Eq. (24); otherwise it is a µ-fraction diagonal Gauss-Newton step
        // with the same O(|Ω_t|·N·R) cost. See DESIGN.md (substitutions).
        for n in 0..n_modes {
            let f = &mut self.factors[n];
            for i in 0..f.rows() {
                let g = grads[n].row(i);
                let h = curvs[n].row(i);
                let frow = f.row_mut(i);
                for k in 0..rank {
                    frow[k] += 2.0 * mu * g[k] / h[k].max(1.0);
                }
            }
        }

        // Temporal vector update (Eq. 25), using u_{t−1} and u_{t−m}, with
        // the same max(1, h) damping (h = Σ_obs prod² + λ₁ + λ₂ is the
        // exact diagonal curvature of f_t in u).
        let u_prev = self.history.back().expect("history non-empty").clone();
        let u_season = self.history.front().expect("history non-empty").clone();
        let mut u_t = vec![0.0f64; rank];
        for k in 0..rank {
            let grad = u_grad[k] + lambda1 * u_prev[k] + lambda2 * u_season[k]
                - (lambda1 + lambda2) * u_hat[k];
            let curv = (u_curv[k] + lambda1 + lambda2).max(1.0);
            u_t[k] = u_hat[k] + 2.0 * mu * grad / curv;
        }

        // Re-impose the unit-norm constraint of Eq. (11) (`‖ũ⁽ⁿ⁾ᵣ‖₂ = 1`
        // for non-temporal modes): the gradient steps de-normalize the
        // factors slightly each step, and without this the scale
        // indeterminacy (A → cA, u → u/c) lets factor norms drift over
        // long streams, silently re-scaling the temporal series under the
        // Holt-Winters models until forecasts diverge. Pushing the norms
        // into u_t leaves X̂_t unchanged.
        for k in 0..rank {
            let mut scale = 1.0;
            for f in self.factors.iter_mut() {
                let norm = f.col_norm(k);
                if norm > 0.0 {
                    f.scale_col(k, 1.0 / norm);
                    scale *= norm;
                }
            }
            u_t[k] *= scale;
        }

        // Step 5 of Algorithm 3 (Eq. 26): HW smoothing with the realized u_t.
        self.hw.update(&u_t);

        // Slide the temporal history window.
        self.history.pop_front();
        self.history.push_back(u_t.clone());
        self.steps += 1;

        UpdateOutput {
            temporal: u_t,
            outliers,
            residual,
        }
    }

    /// Forecasts the subtensor `h` steps ahead of the last processed one
    /// (Eq. (28)): HW-forecast the temporal vector, then reconstruct with
    /// the most recent non-temporal factors.
    pub fn forecast_slice(&self, h: usize) -> DenseTensor {
        let u = self.hw.forecast(h);
        let refs: Vec<&Matrix> = self.factors.iter().collect();
        kruskal::kruskal_slice(&refs, &u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_tensor::Mask;
    use sofia_timeseries::holt_winters::{HoltWinters, HwParams, HwState};

    /// Rank-1 toy: X_t[i,j] = a_i·b_j·s(t) with period-4 seasonal s.
    struct Toy {
        a: Vec<f64>,
        b: Vec<f64>,
        pattern: Vec<f64>,
    }

    impl Toy {
        fn new() -> Self {
            Self {
                a: vec![1.0, 2.0, 3.0],
                b: vec![0.5, 1.5],
                pattern: vec![4.0, 6.0, 5.0, 3.0],
            }
        }

        fn s(&self, t: usize) -> f64 {
            self.pattern[t % 4]
        }

        fn slice(&self, t: usize) -> DenseTensor {
            DenseTensor::from_fn(Shape::new(&[3, 2]), |idx| {
                self.a[idx[0]] * self.b[idx[1]] * self.s(t)
            })
        }

        /// A DynamicState seeded with the exact ground-truth model.
        fn exact_state(&self, config: SofiaConfig) -> DynamicState {
            let factors = vec![
                Matrix::from_fn(3, 1, |i, _| self.a[i]),
                Matrix::from_fn(2, 1, |i, _| self.b[i]),
            ];
            // Temporal history = pattern values for t = -4..0 (phases 0..4).
            let history: Vec<Vec<f64>> = (0..4).map(|t| vec![self.s(t)]).collect();
            // HW model matching the pure-seasonal series exactly: level =
            // mean, zero trend, seasonal = deviations, next phase 0.
            let mean = self.pattern.iter().sum::<f64>() / 4.0;
            let seasonal: Vec<f64> = self.pattern.iter().map(|v| v - mean).collect();
            let hw = HwBank::from_models(vec![HoltWinters::new(
                HwParams::new(0.2, 0.05, 0.1),
                HwState::new(mean, 0.0, seasonal, 0),
            )]);
            DynamicState::new(config, factors, history, hw)
        }
    }

    fn toy_config() -> SofiaConfig {
        SofiaConfig::new(1, 4).with_lambdas(1e-3, 1e-3, 10.0)
    }

    #[test]
    fn exact_model_tracks_clean_stream_with_zero_error() {
        let toy = Toy::new();
        let mut st = toy.exact_state(toy_config());
        for t in 4..20 {
            let truth = toy.slice(t);
            let out = st.step(&ObservedTensor::fully_observed(truth.clone()));
            let rel = (&out.completed - &truth).frobenius_norm() / truth.frobenius_norm();
            assert!(rel < 5e-4, "t={t} rel={rel}");
            assert_eq!(out.outliers.max_abs(), 0.0, "no outliers expected");
        }
    }

    #[test]
    fn outlier_entry_is_flagged_and_rejected() {
        let toy = Toy::new();
        let mut st = toy.exact_state(toy_config());
        // Warm up to tighten sigma.
        for t in 4..12 {
            st.step(&ObservedTensor::fully_observed(toy.slice(t)));
        }
        // Inject a massive spike at (0,0).
        let mut corrupted = toy.slice(12);
        let clean_value = corrupted.get(&[0, 0]);
        corrupted.set(&[0, 0], 1000.0);
        let out = st.step(&ObservedTensor::fully_observed(corrupted));
        // The spike is attributed almost entirely to O_t …
        assert!(out.outliers.get(&[0, 0]) > 900.0);
        // … and the completed value stays near the clean one.
        assert!(
            (out.completed.get(&[0, 0]) - clean_value).abs() < 1.0,
            "completed {} vs clean {}",
            out.completed.get(&[0, 0]),
            clean_value
        );
    }

    #[test]
    fn missing_entries_are_imputed() {
        let toy = Toy::new();
        let mut st = toy.exact_state(toy_config());
        for t in 4..10 {
            st.step(&ObservedTensor::fully_observed(toy.slice(t)));
        }
        // Observe only half the entries.
        let truth = toy.slice(10);
        let mask = Mask::from_vec(
            truth.shape().clone(),
            vec![true, false, false, true, true, false],
        );
        let out = st.step(&ObservedTensor::new(truth.clone(), mask));
        let rel = (&out.completed - &truth).frobenius_norm() / truth.frobenius_norm();
        assert!(rel < 1e-3, "imputation rel {rel}");
    }

    #[test]
    fn forecast_slice_matches_future_truth_for_exact_model() {
        let toy = Toy::new();
        let mut st = toy.exact_state(toy_config());
        for t in 4..16 {
            st.step(&ObservedTensor::fully_observed(toy.slice(t)));
        }
        for h in 1..=4 {
            let fc = st.forecast_slice(h);
            let truth = toy.slice(16 + h - 1);
            let rel = (&fc - &truth).frobenius_norm() / truth.frobenius_norm();
            assert!(rel < 1e-3, "h={h} rel={rel}");
        }
    }

    #[test]
    fn sigma_initialized_at_lambda3_over_100() {
        let toy = Toy::new();
        let st = toy.exact_state(toy_config());
        assert!((st.sigma().get(&[0, 0]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn update_only_and_step_agree() {
        let toy = Toy::new();
        let mut s1 = toy.exact_state(toy_config());
        let mut s2 = toy.exact_state(toy_config());
        // Warm up on clean slices, then spike two entries and hide one so
        // the lists are not empty and skip an unobserved entry.
        for t in 4..12 {
            let slice = ObservedTensor::fully_observed(toy.slice(t));
            s1.step(&slice);
            s2.update_only(&slice);
        }
        let mut corrupted = toy.slice(12);
        corrupted.set(&[0, 0], 1000.0);
        corrupted.set(&[2, 1], -500.0);
        corrupted.set(&[1, 1], 1e6);
        let mask = Mask::from_vec(
            corrupted.shape().clone(),
            vec![true, true, true, false, true, true],
        );
        let slice = ObservedTensor::new(corrupted, mask);
        let out = s1.step(&slice);
        let update = s2.update_only(&slice);
        assert_eq!(out.temporal, update.temporal);
        assert!(update.outliers.len() >= 2, "{:?}", update.outliers);
        assert!(update.outliers.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(update
            .outliers
            .iter()
            .all(|&(off, o)| o != 0.0 && slice.mask().is_observed_flat(off)));
        // The list densifies to `step`'s tensor bit for bit.
        let mut dense = DenseTensor::zeros(slice.shape().clone());
        for &(off, o) in &update.outliers {
            dense.set_flat(off, o);
        }
        let bits = |t: &DenseTensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.outliers), bits(&dense));
        assert_eq!(s1.sigma().data(), s2.sigma().data());
    }

    #[test]
    fn forecast_residual_is_relative_over_observed_entries() {
        let r = |sq_error, sq_observed, observed| ForecastResidual {
            sq_error,
            sq_observed,
            observed,
        };
        assert_eq!(r(1.0, 4.0, 3).relative(), Some(0.5));
        // All observed values zero: the raw residual norm.
        assert_eq!(r(9.0, 0.0, 2).relative(), Some(3.0));
        // Nothing observed: no residual.
        assert_eq!(r(0.0, 0.0, 0).relative(), None);
    }

    #[test]
    fn steps_counter_advances() {
        let toy = Toy::new();
        let mut st = toy.exact_state(toy_config());
        assert_eq!(st.steps(), 0);
        st.step(&ObservedTensor::fully_observed(toy.slice(4)));
        st.step(&ObservedTensor::fully_observed(toy.slice(5)));
        assert_eq!(st.steps(), 2);
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn wrong_slice_shape_panics() {
        let toy = Toy::new();
        let mut st = toy.exact_state(toy_config());
        let wrong = ObservedTensor::fully_observed(DenseTensor::zeros(Shape::new(&[2, 2])));
        st.step(&wrong);
    }
}
