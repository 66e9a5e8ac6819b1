//! Additive Holt-Winters model (paper §III-C, Eqs. (5) and (6)).

/// Smoothing parameters `(α, β, γ)` of the additive Holt-Winters model,
/// each constrained to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwParams {
    /// Level smoothing parameter `α`.
    pub alpha: f64,
    /// Trend smoothing parameter `β`.
    pub beta: f64,
    /// Seasonal smoothing parameter `γ`.
    pub gamma: f64,
}

impl HwParams {
    /// Creates parameters, validating the `[0,1]` box constraints.
    pub fn new(alpha: f64, beta: f64, gamma: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha out of [0,1]: {alpha}");
        assert!((0.0..=1.0).contains(&beta), "beta out of [0,1]: {beta}");
        assert!((0.0..=1.0).contains(&gamma), "gamma out of [0,1]: {gamma}");
        Self { alpha, beta, gamma }
    }

    /// Clamps arbitrary values into the `[0,1]` box (used by the
    /// optimizer's projection step).
    pub fn clamped(alpha: f64, beta: f64, gamma: f64) -> Self {
        Self {
            alpha: alpha.clamp(0.0, 1.0),
            beta: beta.clamp(0.0, 1.0),
            gamma: gamma.clamp(0.0, 1.0),
        }
    }
}

impl Default for HwParams {
    /// Mild defaults commonly used as optimization starting points.
    fn default() -> Self {
        Self {
            alpha: 0.3,
            beta: 0.1,
            gamma: 0.1,
        }
    }
}

/// The state of a Holt-Winters model after observing some prefix of a
/// series: current level `l_t`, trend `b_t`, and the last `m` seasonal
/// components `s_{t-m+1}, …, s_t`.
#[derive(Debug, Clone, PartialEq)]
pub struct HwState {
    /// Current level `l_t`.
    pub level: f64,
    /// Current trend `b_t`.
    pub trend: f64,
    /// Ring buffer of the last `m` seasonal components; `seasonal[phase]`
    /// holds the most recent seasonal estimate for that phase of the cycle.
    pub seasonal: Vec<f64>,
    /// Phase of the *next* observation within the seasonal cycle.
    pub phase: usize,
}

impl HwState {
    /// Creates a state from initial components. `seasonal[p]` must hold the
    /// seasonal component for phase `p`, with `phase` pointing at the phase
    /// of the next observation.
    pub fn new(level: f64, trend: f64, seasonal: Vec<f64>, phase: usize) -> Self {
        assert!(!seasonal.is_empty(), "seasonal period must be positive");
        assert!(phase < seasonal.len(), "phase out of range");
        Self {
            level,
            trend,
            seasonal,
            phase,
        }
    }

    /// Seasonal period `m`.
    pub fn period(&self) -> usize {
        self.seasonal.len()
    }
}

/// Additive Holt-Winters model: parameters plus evolving state.
///
/// Observations are fed one at a time with [`HoltWinters::update`]; the
/// smoothing recursions (5a)-(5c) are applied with the *previous-season*
/// seasonal component, matching the paper exactly:
///
/// ```text
/// l_t = α (y_t − s_{t−m}) + (1 − α)(l_{t−1} + b_{t−1})
/// b_t = β (l_t − l_{t−1}) + (1 − β) b_{t−1}
/// s_t = γ (y_t − l_{t−1} − b_{t−1}) + (1 − γ) s_{t−m}
/// ```
///
/// ```
/// use sofia_timeseries::holt_winters::{HoltWinters, HwParams, HwState};
///
/// // Exact level/trend state: forecasts extrapolate linearly.
/// let state = HwState::new(10.0, 2.0, vec![0.0; 4], 0);
/// let mut hw = HoltWinters::new(HwParams::new(0.3, 0.1, 0.1), state);
/// assert_eq!(hw.forecast(3), 16.0);
/// let err = hw.update(12.0); // observation matches the forecast
/// assert!(err.abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HoltWinters {
    params: HwParams,
    state: HwState,
}

impl HoltWinters {
    /// Builds a model from parameters and an initial state.
    pub fn new(params: HwParams, state: HwState) -> Self {
        Self { params, state }
    }

    /// The smoothing parameters.
    pub fn params(&self) -> &HwParams {
        &self.params
    }

    /// The current state.
    pub fn state(&self) -> &HwState {
        &self.state
    }

    /// Seasonal period `m`.
    pub fn period(&self) -> usize {
        self.state.period()
    }

    /// One-step-ahead forecast `ŷ_{t+1|t} = l_t + b_t + s_{t+1−m}`
    /// (Eq. (6) with `h = 1`).
    pub fn forecast_one(&self) -> f64 {
        self.state.level + self.state.trend + self.state.seasonal[self.state.phase]
    }

    /// h-step-ahead forecast (Eq. (6)):
    /// `ŷ_{t+h|t} = l_t + h·b_t + s_{t+h−m(⌊(h−1)/m⌋+1)}`.
    ///
    /// # Panics
    /// Panics if `h == 0`.
    pub fn forecast(&self, h: usize) -> f64 {
        assert!(h >= 1, "forecast horizon must be at least 1");
        let m = self.period();
        let seasonal = self.state.seasonal[(self.state.phase + h - 1) % m];
        self.state.level + h as f64 * self.state.trend + seasonal
    }

    /// Observes `y_t` and applies the smoothing recursions (5a)-(5c).
    /// Returns the one-step-ahead forecast error `e_t = y_t − ŷ_{t|t−1}`.
    pub fn update(&mut self, y: f64) -> f64 {
        let HwParams { alpha, beta, gamma } = self.params;
        let m = self.period();
        let prev_level = self.state.level;
        let prev_trend = self.state.trend;
        let s_prev = self.state.seasonal[self.state.phase]; // s_{t-m} for this phase
        let error = y - (prev_level + prev_trend + s_prev);

        let level = alpha * (y - s_prev) + (1.0 - alpha) * (prev_level + prev_trend);
        let trend = beta * (level - prev_level) + (1.0 - beta) * prev_trend;
        let seasonal = gamma * (y - prev_level - prev_trend) + (1.0 - gamma) * s_prev;

        self.state.level = level;
        self.state.trend = trend;
        self.state.seasonal[self.state.phase] = seasonal;
        self.state.phase = (self.state.phase + 1) % m;
        error
    }

    /// Runs the recursions over a whole series, returning the one-step-ahead
    /// errors `e_t` for each observation.
    pub fn run(&mut self, series: &[f64]) -> Vec<f64> {
        series.iter().map(|&y| self.update(y)).collect()
    }

    /// Sum of squared one-step-ahead errors over a series, without
    /// mutating `self` (the SSE objective of §III-C used for fitting).
    pub fn sse(&self, series: &[f64]) -> f64 {
        let mut model = self.clone();
        series
            .iter()
            .map(|&y| {
                let e = model.update(y);
                e * e
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_state(m: usize) -> HwState {
        HwState::new(0.0, 0.0, vec![0.0; m], 0)
    }

    #[test]
    fn params_validation() {
        let p = HwParams::new(0.5, 0.0, 1.0);
        assert_eq!(p.alpha, 0.5);
        let c = HwParams::clamped(-3.0, 0.5, 7.0);
        assert_eq!(c.alpha, 0.0);
        assert_eq!(c.gamma, 1.0);
    }

    #[test]
    #[should_panic(expected = "alpha out of")]
    fn params_reject_out_of_box() {
        HwParams::new(1.5, 0.0, 0.0);
    }

    #[test]
    fn update_matches_hand_computed_recursion() {
        // One observation, traced by hand.
        // l0=10, b0=1, s=[2,-2] (phase 0), α=0.5, β=0.4, γ=0.3, y=14.
        let params = HwParams::new(0.5, 0.4, 0.3);
        let state = HwState::new(10.0, 1.0, vec![2.0, -2.0], 0);
        let mut hw = HoltWinters::new(params, state);
        // forecast = 10 + 1 + 2 = 13; e = 1.
        assert!((hw.forecast_one() - 13.0).abs() < 1e-12);
        let e = hw.update(14.0);
        assert!((e - 1.0).abs() < 1e-12);
        // l1 = 0.5*(14-2) + 0.5*(11) = 6 + 5.5 = 11.5
        assert!((hw.state().level - 11.5).abs() < 1e-12);
        // b1 = 0.4*(11.5-10) + 0.6*1 = 0.6 + 0.6 = 1.2
        assert!((hw.state().trend - 1.2).abs() < 1e-12);
        // s(phase0) = 0.3*(14-10-1) + 0.7*2 = 0.9 + 1.4 = 2.3
        assert!((hw.state().seasonal[0] - 2.3).abs() < 1e-12);
        assert_eq!(hw.state().phase, 1);
    }

    #[test]
    fn perfect_linear_trend_gives_zero_error() {
        // y_t = 5 + 2t with zero seasonality: exact state ⇒ zero errors
        // regardless of parameters.
        let params = HwParams::new(0.4, 0.2, 0.1);
        let state = HwState::new(5.0, 2.0, vec![0.0; 3], 0);
        let mut hw = HoltWinters::new(params, state);
        for t in 1..=20 {
            let y = 5.0 + 2.0 * t as f64;
            let e = hw.update(y);
            assert!(e.abs() < 1e-9, "t={t}, e={e}");
        }
    }

    #[test]
    fn perfect_seasonal_series_gives_zero_error() {
        // y_t = s_{t mod m} with exact initial state.
        let season = [3.0, -1.0, -2.0, 0.0];
        let params = HwParams::new(0.3, 0.1, 0.2);
        let state = HwState::new(0.0, 0.0, season.to_vec(), 0);
        let mut hw = HoltWinters::new(params, state);
        for t in 0..24 {
            let e = hw.update(season[t % 4]);
            assert!(e.abs() < 1e-9);
        }
    }

    #[test]
    fn forecast_h_steps_linear_plus_season() {
        let season = vec![1.0, -1.0];
        let state = HwState::new(10.0, 0.5, season, 0);
        let hw = HoltWinters::new(HwParams::default(), state);
        // h=1: 10 + 0.5 + s[0] = 11.5 ; h=2: 10 + 1 + s[1] = 10.0
        assert!((hw.forecast(1) - 11.5).abs() < 1e-12);
        assert!((hw.forecast(2) - 10.0).abs() < 1e-12);
        // h=3 wraps to phase 0: 10 + 1.5 + 1 = 12.5
        assert!((hw.forecast(3) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn forecast_one_equals_forecast_h1() {
        let state = HwState::new(3.0, -0.2, vec![0.5, 0.1, -0.6], 2);
        let hw = HoltWinters::new(HwParams::default(), state);
        assert_eq!(hw.forecast_one(), hw.forecast(1));
    }

    #[test]
    fn sse_does_not_mutate() {
        let hw = HoltWinters::new(HwParams::default(), flat_state(4));
        let series: Vec<f64> = (0..12).map(|t| t as f64).collect();
        let before = hw.clone();
        let _ = hw.sse(&series);
        assert_eq!(hw, before);
    }

    #[test]
    fn run_returns_per_step_errors() {
        let mut hw = HoltWinters::new(HwParams::default(), flat_state(2));
        let errs = hw.run(&[1.0, 2.0, 3.0]);
        assert_eq!(errs.len(), 3);
        assert!((errs[0] - 1.0).abs() < 1e-12); // forecast was 0
    }

    #[test]
    fn hw_with_zero_gamma_equals_double_smoothing() {
        // HW with γ=0 and zero seasonal state degenerates to Holt's
        // linear-trend method (double exponential smoothing):
        //   l_t = α·y_t + (1−α)(l_{t−1} + b_{t−1})
        //   b_t = β(l_t − l_{t−1}) + (1−β)·b_{t−1}
        //   ŷ_{t+h|t} = l_t + h·b_t
        let (alpha, beta) = (0.35, 0.15);
        let series: Vec<f64> = (0..20).map(|t| (t as f64).sqrt() * 4.0 + 1.0).collect();
        let mut hw = HoltWinters::new(
            HwParams::new(alpha, beta, 0.0),
            HwState::new(1.0, 0.5, vec![0.0; 5], 0),
        );
        let (mut level, mut trend) = (1.0, 0.5);
        for &y in &series {
            let e_holt = y - (level + trend);
            let prev_level = level;
            level = alpha * y + (1.0 - alpha) * (level + trend);
            trend = beta * (level - prev_level) + (1.0 - beta) * trend;
            assert!((hw.update(y) - e_holt).abs() < 1e-12);
        }
        assert!((hw.forecast(2) - (level + 2.0 * trend)).abs() < 1e-9);
    }

    #[test]
    fn alpha_one_tracks_level_exactly() {
        // With α=1, β=0, γ=0 and zero season/trend: level = y each step.
        let params = HwParams::new(1.0, 0.0, 0.0);
        let mut hw = HoltWinters::new(params, flat_state(3));
        hw.update(7.0);
        assert!((hw.state().level - 7.0).abs() < 1e-12);
        hw.update(-2.0);
        assert!((hw.state().level - (-2.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn forecast_zero_horizon_panics() {
        let hw = HoltWinters::new(HwParams::default(), flat_state(2));
        hw.forecast(0);
    }
}
