//! Holt-Winters modelling of the temporal factor matrix (paper §V-B).
//!
//! Each column `ũ⁽ᴺ⁾ᵣ` of the temporal factor matrix is a seasonal time
//! series of length `t_i`; SOFIA fits an independent additive Holt-Winters
//! model to each, giving the vector-valued smoothing recursions of
//! Eq. (26): `diag(α), diag(β), diag(γ)` acting componentwise.

use sofia_tensor::Matrix;
use sofia_timeseries::fit::fit_holt_winters;
use sofia_timeseries::holt_winters::HoltWinters;
use sofia_timeseries::init::TooShort;

/// A bank of `R` independent Holt-Winters models, one per CP component of
/// the temporal factor.
#[derive(Debug, Clone)]
pub struct HwBank {
    models: Vec<HoltWinters>,
}

impl HwBank {
    /// Fits one Holt-Winters model per column of the temporal factor matrix
    /// `temporal` (length `t_i × R`), optimizing each `(αᵣ, βᵣ, γᵣ)` by SSE.
    pub fn fit(temporal: &Matrix, period: usize) -> Result<Self, TooShort> {
        let mut models = Vec::with_capacity(temporal.cols());
        for r in 0..temporal.cols() {
            let series = temporal.col(r);
            let fitted = fit_holt_winters(&series, period)?;
            models.push(fitted.model);
        }
        Ok(Self { models })
    }

    /// Builds a bank directly from pre-fitted models (used in tests).
    pub fn from_models(models: Vec<HoltWinters>) -> Self {
        assert!(!models.is_empty(), "need at least one model");
        let m = models[0].period();
        assert!(
            models.iter().all(|h| h.period() == m),
            "all models must share the seasonal period"
        );
        Self { models }
    }

    /// Number of components `R`.
    pub fn rank(&self) -> usize {
        self.models.len()
    }

    /// Seasonal period `m`.
    pub fn period(&self) -> usize {
        self.models[0].period()
    }

    /// Component models.
    pub fn models(&self) -> &[HoltWinters] {
        &self.models
    }

    /// Vector one-step-ahead forecast
    /// `û⁽ᴺ⁾_{t|t−1} = l_{t−1} + b_{t−1} + s_{t−m}` (Eq. (19)).
    pub fn forecast_one(&self) -> Vec<f64> {
        self.models.iter().map(|h| h.forecast_one()).collect()
    }

    /// Vector h-step-ahead forecast (Eq. (6) applied per component).
    pub fn forecast(&self, h: usize) -> Vec<f64> {
        self.models
            .iter()
            .map(|h_model| h_model.forecast(h))
            .collect()
    }

    /// Vector smoothing update (Eq. (26)) with the realized temporal vector
    /// `u⁽ᴺ⁾_t`. Returns the per-component one-step-ahead errors.
    pub fn update(&mut self, u: &[f64]) -> Vec<f64> {
        assert_eq!(
            u.len(),
            self.models.len(),
            "temporal vector length mismatch"
        );
        self.models
            .iter_mut()
            .zip(u)
            .map(|(h, &y)| h.update(y))
            .collect()
    }

    /// Rescales component `k`'s state by `s` (level, trend, and seasonal
    /// components all scale linearly with the series). Used to re-express
    /// the bank when the factor scale convention changes — the additive HW
    /// recursions are linear in `(y, l, b, s)` jointly, so a model scaled
    /// by `s` behaves identically on a series scaled by `s`.
    pub fn scale_component(&mut self, k: usize, s: f64) {
        let model = &mut self.models[k];
        let params = *model.params();
        let st = model.state();
        let seasonal: Vec<f64> = st.seasonal.iter().map(|v| v * s).collect();
        let new_state = sofia_timeseries::holt_winters::HwState::new(
            st.level * s,
            st.trend * s,
            seasonal,
            st.phase,
        );
        *model = HoltWinters::new(params, new_state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_timeseries::holt_winters::{HwParams, HwState};

    fn seasonal_matrix(len: usize, m: usize) -> Matrix {
        // Two columns: sinusoid + trend, and a square-ish wave.
        Matrix::from_fn(len, 2, |i, j| {
            let phase = 2.0 * std::f64::consts::PI * (i % m) as f64 / m as f64;
            if j == 0 {
                3.0 * phase.sin() + 0.05 * i as f64
            } else if (i % m) < m / 2 {
                2.0
            } else {
                -2.0
            }
        })
    }

    #[test]
    fn fit_bank_and_forecast_tracks_pattern() {
        let m = 12;
        let temporal = seasonal_matrix(3 * m, m);
        let bank = HwBank::fit(&temporal, m).unwrap();
        assert_eq!(bank.rank(), 2);
        assert_eq!(bank.period(), m);
        // Forecast the next step and compare to the pattern's continuation.
        let f = bank.forecast_one();
        let t = 3 * m;
        let phase = 2.0 * std::f64::consts::PI * (t % m) as f64 / m as f64;
        let truth0 = 3.0 * phase.sin() + 0.05 * t as f64;
        let truth1 = 2.0;
        assert!((f[0] - truth0).abs() < 0.5, "col0: {} vs {}", f[0], truth0);
        assert!((f[1] - truth1).abs() < 0.5, "col1: {} vs {}", f[1], truth1);
    }

    #[test]
    fn update_advances_all_components() {
        let models = vec![
            HoltWinters::new(
                HwParams::new(0.5, 0.1, 0.1),
                HwState::new(1.0, 0.0, vec![0.0; 3], 0),
            ),
            HoltWinters::new(
                HwParams::new(0.3, 0.2, 0.1),
                HwState::new(-1.0, 0.0, vec![0.0; 3], 0),
            ),
        ];
        let mut bank = HwBank::from_models(models);
        let errs = bank.update(&[2.0, 0.0]);
        assert_eq!(errs.len(), 2);
        assert!((errs[0] - 1.0).abs() < 1e-12);
        assert!((errs[1] - 1.0).abs() < 1e-12);
        assert!(bank.models()[0].state().level > 1.0);
        assert!(bank.models()[1].state().level > -1.0);
    }

    #[test]
    fn forecast_h_matches_component_models() {
        let m = 4;
        let temporal = seasonal_matrix(3 * m, m);
        let bank = HwBank::fit(&temporal, m).unwrap();
        for h in 1..=6 {
            let v = bank.forecast(h);
            for (r, model) in bank.models().iter().enumerate() {
                assert_eq!(v[r], model.forecast(h));
            }
        }
    }

    #[test]
    fn fit_too_short_errors() {
        let temporal = Matrix::zeros(3, 2);
        assert!(HwBank::fit(&temporal, 4).is_err());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn update_wrong_len_panics() {
        let models = vec![HoltWinters::new(
            HwParams::default(),
            HwState::new(0.0, 0.0, vec![0.0; 2], 0),
        )];
        let mut bank = HwBank::from_models(models);
        bank.update(&[1.0, 2.0]);
    }
}
