//! Fitting Holt-Winters smoothing parameters by SSE minimization.
//!
//! The paper fits `(α, β, γ)` with L-BFGS-B (§V-B). This module substitutes
//! a bounded Nelder-Mead simplex search over the box `[0,1]³` — the
//! objective is a smooth 3-variable SSE, where derivative-free simplex
//! search reliably reaches the same optima at this dimensionality (see
//! DESIGN.md). The optimizer is generic over dimension so baselines reuse
//! it for their own small parameter searches.

use crate::holt_winters::{HoltWinters, HwParams};
use crate::init::{initial_state, TooShort};

/// A Holt-Winters model fitted to a series, together with diagnostics.
#[derive(Debug, Clone)]
pub struct FittedHoltWinters {
    /// The fitted model, with state advanced through the whole series
    /// (ready to forecast past its end).
    pub model: HoltWinters,
    /// The optimized smoothing parameters.
    pub params: HwParams,
    /// Sum of squared one-step-ahead errors at the optimum.
    pub sse: f64,
}

/// Minimizes `f` over the box `[lo_i, hi_i]^n` by Nelder-Mead with
/// projection onto the box. Returns `(argmin, min)`.
///
/// Deterministic: the initial simplex is built from `x0` by coordinate
/// steps of `step`.
fn nelder_mead_box(
    f: &mut dyn FnMut(&[f64]) -> f64,
    x0: &[f64],
    lo: &[f64],
    hi: &[f64],
    step: f64,
    max_iter: usize,
    tol: f64,
) -> (Vec<f64>, f64) {
    let n = x0.len();
    assert_eq!(lo.len(), n);
    assert_eq!(hi.len(), n);
    let clamp = |x: &mut Vec<f64>| {
        for i in 0..n {
            x[i] = x[i].clamp(lo[i], hi[i]);
        }
    };

    // Initial simplex: x0 plus coordinate perturbations.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    let mut base = x0.to_vec();
    clamp(&mut base);
    simplex.push(base.clone());
    for i in 0..n {
        let mut v = base.clone();
        // Step inward if stepping outward would leave the box.
        if v[i] + step <= hi[i] {
            v[i] += step;
        } else {
            v[i] -= step;
        }
        clamp(&mut v);
        simplex.push(v);
    }
    let mut values: Vec<f64> = simplex.iter().map(|v| f(v)).collect();

    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    for _ in 0..max_iter {
        // Order simplex by value.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).unwrap());
        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        if (values[worst] - values[best]).abs() <= tol * (1.0 + values[best].abs()) {
            break;
        }

        // Centroid of all but the worst point.
        let mut centroid = vec![0.0; n];
        for &i in order.iter().take(n) {
            for d in 0..n {
                centroid[d] += simplex[i][d] / n as f64;
            }
        }

        // Reflection.
        let mut reflected: Vec<f64> = (0..n)
            .map(|d| centroid[d] + ALPHA * (centroid[d] - simplex[worst][d]))
            .collect();
        clamp(&mut reflected);
        let fr = f(&reflected);

        if fr < values[best] {
            // Expansion.
            let mut expanded: Vec<f64> = (0..n)
                .map(|d| centroid[d] + GAMMA * (reflected[d] - centroid[d]))
                .collect();
            clamp(&mut expanded);
            let fe = f(&expanded);
            if fe < fr {
                simplex[worst] = expanded;
                values[worst] = fe;
            } else {
                simplex[worst] = reflected;
                values[worst] = fr;
            }
        } else if fr < values[second_worst] {
            simplex[worst] = reflected;
            values[worst] = fr;
        } else {
            // Contraction (toward the better of worst/reflected).
            let (toward, f_toward) = if fr < values[worst] {
                (reflected.clone(), fr)
            } else {
                (simplex[worst].clone(), values[worst])
            };
            let mut contracted: Vec<f64> = (0..n)
                .map(|d| centroid[d] + RHO * (toward[d] - centroid[d]))
                .collect();
            clamp(&mut contracted);
            let fc = f(&contracted);
            if fc < f_toward {
                simplex[worst] = contracted;
                values[worst] = fc;
            } else {
                // Shrink everything toward the best point.
                let best_point = simplex[best].clone();
                for i in 0..=n {
                    if i == best {
                        continue;
                    }
                    for d in 0..n {
                        simplex[i][d] = best_point[d] + SIGMA * (simplex[i][d] - best_point[d]);
                    }
                    clamp(&mut simplex[i]);
                    values[i] = f(&simplex[i]);
                }
            }
        }
    }

    let mut best_idx = 0;
    for i in 1..=n {
        if values[i] < values[best_idx] {
            best_idx = i;
        }
    }
    (simplex[best_idx].clone(), values[best_idx])
}

/// Fits the additive Holt-Winters model to `series` with period `m`:
/// initializes components from the data ([`initial_state`]), optimizes
/// `(α, β, γ)` over `[0,1]³` by SSE, and returns the fitted model with its
/// state advanced through the entire series (paper §V-B).
pub fn fit_holt_winters(series: &[f64], m: usize) -> Result<FittedHoltWinters, TooShort> {
    let init = initial_state(series, m)?;

    let mut objective = |p: &[f64]| -> f64 {
        let params = HwParams::clamped(p[0], p[1], p[2]);
        let model = HoltWinters::new(params, init.clone());
        model.sse(series)
    };

    // Multi-start to dodge shallow local minima; starts cover the corners
    // of behaviour (fast/slow level tracking).
    let starts: [[f64; 3]; 3] = [[0.3, 0.1, 0.1], [0.7, 0.05, 0.3], [0.1, 0.01, 0.05]];
    let lo = [0.0; 3];
    let hi = [1.0; 3];
    let mut best: Option<(Vec<f64>, f64)> = None;
    for s in &starts {
        let (x, v) = nelder_mead_box(&mut objective, s, &lo, &hi, 0.15, 200, 1e-10);
        if best.as_ref().is_none_or(|(_, bv)| v < *bv) {
            best = Some((x, v));
        }
    }
    let (x, sse) = best.expect("at least one start");
    let params = HwParams::clamped(x[0], x[1], x[2]);

    let mut model = HoltWinters::new(params, init);
    model.run(series);
    Ok(FittedHoltWinters { model, params, sse })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_minimizes_quadratic() {
        let mut f = |x: &[f64]| (x[0] - 0.3).powi(2) + (x[1] - 0.7).powi(2);
        let (x, v) = nelder_mead_box(
            &mut f,
            &[0.5, 0.5],
            &[0.0, 0.0],
            &[1.0, 1.0],
            0.2,
            300,
            1e-14,
        );
        assert!((x[0] - 0.3).abs() < 1e-4, "x0 {}", x[0]);
        assert!((x[1] - 0.7).abs() < 1e-4, "x1 {}", x[1]);
        assert!(v < 1e-7);
    }

    #[test]
    fn nelder_mead_respects_box() {
        // Unconstrained minimum at (2, 2) is outside the box: solution must
        // sit on the boundary (1, 1).
        let mut f = |x: &[f64]| (x[0] - 2.0).powi(2) + (x[1] - 2.0).powi(2);
        let (x, _) = nelder_mead_box(
            &mut f,
            &[0.5, 0.5],
            &[0.0, 0.0],
            &[1.0, 1.0],
            0.2,
            300,
            1e-14,
        );
        assert!(x[0] <= 1.0 + 1e-12 && x[1] <= 1.0 + 1e-12);
        assert!((x[0] - 1.0).abs() < 1e-3);
        assert!((x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn nelder_mead_1d() {
        let mut f = |x: &[f64]| (x[0] - 0.25).powi(2);
        let (x, _) = nelder_mead_box(&mut f, &[0.9], &[0.0], &[1.0], 0.1, 200, 1e-14);
        assert!((x[0] - 0.25).abs() < 1e-4);
    }

    #[test]
    fn fit_recovers_seasonal_trend_series() {
        let pattern = [3.0, -1.0, -2.0, 0.0];
        let series: Vec<f64> = (0..48)
            .map(|t| 10.0 + 0.2 * t as f64 + pattern[t % 4])
            .collect();
        let fitted = fit_holt_winters(&series, 4).unwrap();
        // Forecast the next 8 points; compare against ground truth.
        for h in 1..=8 {
            let t = 48 + h - 1;
            let truth = 10.0 + 0.2 * t as f64 + pattern[t % 4];
            let fc = fitted.model.forecast(h);
            assert!(
                (fc - truth).abs() < 0.5,
                "h={h}: forecast {fc} vs truth {truth}"
            );
        }
    }

    #[test]
    fn fit_sse_not_worse_than_default_params() {
        let pattern = [1.0, 0.0, -1.0];
        let series: Vec<f64> = (0..30)
            .map(|t| 5.0 + pattern[t % 3] + 0.1 * ((t * 7 % 5) as f64 - 2.0))
            .collect();
        let fitted = fit_holt_winters(&series, 3).unwrap();
        let default_model =
            HoltWinters::new(HwParams::default(), initial_state(&series, 3).unwrap());
        assert!(fitted.sse <= default_model.sse(&series) + 1e-9);
    }

    #[test]
    fn fit_too_short_errors() {
        assert!(fit_holt_winters(&[1.0, 2.0], 4).is_err());
    }

    #[test]
    fn fit_is_deterministic() {
        let series: Vec<f64> = (0..24)
            .map(|t| (t as f64 * 0.7).sin() * 3.0 + t as f64 * 0.1)
            .collect();
        let a = fit_holt_winters(&series, 6).unwrap();
        let b = fit_holt_winters(&series, 6).unwrap();
        assert_eq!(a.params, b.params);
        assert_eq!(a.sse, b.sse);
    }
}
