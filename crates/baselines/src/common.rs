//! Shared kernels for the baseline streaming factorizers.

use sofia_tensor::linalg::solve_spd_ridge;
use sofia_tensor::{kruskal, DenseTensor, Matrix, ObservedTensor};

/// Solves the temporal weight vector `w` of the current slice by least
/// squares over observed entries:
/// `w = argmin ‖Ω ⊛ (Y − ⟦U⁽¹⁾,…,U⁽ᴺ⁻¹⁾; w⟧)‖²_F`.
///
/// This is the "project the new slice onto the current subspace" step
/// shared by OnlineSGD, OLSTEC, and SMF.
pub fn solve_temporal_weights(factors: &[Matrix], slice: &ObservedTensor) -> Vec<f64> {
    let rank = factors[0].cols();
    let shape = slice.shape();
    let mut b = Matrix::zeros(rank, rank);
    let mut c = vec![0.0f64; rank];
    let mut idx = vec![0usize; shape.order()];
    let mut h = vec![0.0f64; rank];
    for &off in slice.mask().observed_offsets() {
        shape.unravel_into(off, &mut idx);
        for k in 0..rank {
            let mut p = 1.0;
            for (l, f) in factors.iter().enumerate() {
                p *= f.row(idx[l])[k];
            }
            h[k] = p;
        }
        let y = slice.values().get_flat(off);
        for a in 0..rank {
            c[a] += y * h[a];
            for bb in 0..rank {
                let v = b.get(a, bb) + h[a] * h[bb];
                b.set(a, bb, v);
            }
        }
    }
    solve_spd_ridge(&b, &c, 1e-8).unwrap_or_else(|_| vec![0.0; rank])
}

/// One damped SGD step on the non-temporal factors against the residual of
/// the current slice (shared by OnlineSGD and SMF): for each mode `n`,
/// `U⁽ⁿ⁾ ← U⁽ⁿ⁾ + 2µ·G/max(1, H)` where `G` is the gradient of the masked
/// squared error at fixed `w` and `H` its diagonal curvature.
pub fn damped_sgd_step(factors: &mut [Matrix], slice: &ObservedTensor, w: &[f64], mu: f64) {
    let rank = w.len();
    let n_modes = factors.len();
    let shape = slice.shape().clone();
    let mut grads: Vec<Matrix> = factors
        .iter()
        .map(|f| Matrix::zeros(f.rows(), rank))
        .collect();
    let mut curvs: Vec<Matrix> = factors
        .iter()
        .map(|f| Matrix::zeros(f.rows(), rank))
        .collect();
    let mut idx = vec![0usize; shape.order()];
    let mut rows: Vec<&[f64]> = Vec::with_capacity(n_modes);
    let mut prod = vec![0.0f64; rank];
    for &off in slice.mask().observed_offsets() {
        shape.unravel_into(off, &mut idx);
        rows.clear();
        for (l, f) in factors.iter().enumerate() {
            rows.push(f.row(idx[l]));
        }
        let mut pred = 0.0;
        for k in 0..rank {
            let mut p = 1.0;
            for row in &rows {
                p *= row[k];
            }
            prod[k] = p;
            pred += p * w[k];
        }
        let r = slice.values().get_flat(off) - pred;
        for n in 0..n_modes {
            let g = grads[n].row_mut(idx[n]);
            let h = curvs[n].row_mut(idx[n]);
            let row_n = rows[n];
            for k in 0..rank {
                let lo = if row_n[k] != 0.0 {
                    prod[k] / row_n[k]
                } else {
                    let mut p = 1.0;
                    for (l, row) in rows.iter().enumerate() {
                        if l != n {
                            p *= row[k];
                        }
                    }
                    p
                };
                let coeff = w[k] * lo;
                g[k] += r * coeff;
                h[k] += coeff * coeff;
            }
        }
    }
    for n in 0..n_modes {
        let f = &mut factors[n];
        for i in 0..f.rows() {
            let g = grads[n].row(i);
            let h = curvs[n].row(i);
            let frow = f.row_mut(i);
            for k in 0..rank {
                frow[k] += 2.0 * mu * g[k] / h[k].max(1.0);
            }
        }
    }
}

/// Dense reconstruction `⟦{U⁽ⁿ⁾}; w⟧` of a slice.
pub fn reconstruct_slice(factors: &[Matrix], w: &[f64]) -> DenseTensor {
    let refs: Vec<&Matrix> = factors.iter().collect();
    kruskal::kruskal_slice(&refs, w)
}

/// Warm-starts non-temporal factors by batch vanilla ALS over a start-up
/// window, returning `(factors, per-slice temporal rows)`. All streaming
/// baselines are given the same start-up data SOFIA gets, per the paper's
/// protocol.
pub fn warm_start(
    startup: &[ObservedTensor],
    rank: usize,
    iters: usize,
    seed: u64,
) -> (Vec<Matrix>, Matrix) {
    use sofia_core::als::{sofia_als, AlsOptions};
    use sofia_tensor::random::random_factors;
    let slices: Vec<&ObservedTensor> = startup.iter().collect();
    let batch = ObservedTensor::stack(&slices);
    let opts = AlsOptions::vanilla(1e-6, iters);
    // Multi-start: plain ALS occasionally lands in a swamp (a poor local
    // minimum); restart from a few seeds and keep the best fitness.
    let mut best: Option<(f64, Vec<Matrix>)> = None;
    for attempt in 0..3u64 {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(
            seed.wrapping_add(attempt.wrapping_mul(0x9e37_79b9)),
        );
        let mut factors = random_factors(batch.shape().dims(), rank, &mut rng);
        for f in &mut factors {
            f.scale(0.1);
        }
        let stats = sofia_als(&batch, batch.values(), &mut factors, &opts);
        let better = best
            .as_ref()
            .map(|(f, _)| stats.fitness > *f)
            .unwrap_or(true);
        if better {
            let good_enough = stats.fitness > 0.99;
            best = Some((stats.fitness, factors));
            if good_enough {
                break;
            }
        }
    }
    let (_, mut factors) = best.expect("at least one attempt");
    let temporal = factors.pop().expect("at least 2 modes");
    (factors, temporal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sofia_tensor::random::random_factors;
    use sofia_tensor::{Mask, ObservedTensor};

    #[test]
    fn temporal_weights_recover_exact_rank1() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[0.5], &[2.0]]);
        let truth_w = [3.0];
        let slice = reconstruct_slice(&[a.clone(), b.clone()], &truth_w);
        let w = solve_temporal_weights(&[a, b], &ObservedTensor::fully_observed(slice));
        assert!((w[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn temporal_weights_work_with_missing() {
        let mut rng = SmallRng::seed_from_u64(3);
        let factors = random_factors(&[5, 6], 3, &mut rng);
        let w_true = vec![1.5, -2.0, 0.7];
        let slice = reconstruct_slice(&factors, &w_true);
        let mask = Mask::random(slice.shape().clone(), 0.4, &mut rng);
        let obs = ObservedTensor::new(slice, mask);
        let w = solve_temporal_weights(&factors, &obs);
        for (a, b) in w.iter().zip(&w_true) {
            assert!((a - b).abs() < 1e-8, "{w:?} vs {w_true:?}");
        }
    }

    #[test]
    fn sgd_step_reduces_residual() {
        let mut rng = SmallRng::seed_from_u64(5);
        let truth = random_factors(&[4, 5], 2, &mut rng);
        let w = vec![1.0, -0.5];
        let slice = ObservedTensor::fully_observed(reconstruct_slice(&truth, &w));
        // Perturbed factors.
        let mut factors = truth.clone();
        for f in &mut factors {
            for v in f.data_mut() {
                *v += 0.1;
            }
        }
        let err_before = (&reconstruct_slice(&factors, &w) - slice.values()).frobenius_norm();
        damped_sgd_step(&mut factors, &slice, &w, 0.2);
        let err_after = (&reconstruct_slice(&factors, &w) - slice.values()).frobenius_norm();
        assert!(err_after < err_before, "{err_after} !< {err_before}");
    }

    #[test]
    fn warm_start_fits_startup_window() {
        let mut rng = SmallRng::seed_from_u64(9);
        let truth = random_factors(&[4, 4], 2, &mut rng);
        let slices: Vec<ObservedTensor> = (0..10)
            .map(|t| {
                let w = vec![(t as f64 * 0.7).sin() + 2.0, (t as f64 * 0.3).cos()];
                ObservedTensor::fully_observed(reconstruct_slice(&truth, &w))
            })
            .collect();
        let (factors, temporal) = warm_start(&slices, 2, 200, 1);
        assert_eq!(factors.len(), 2);
        assert_eq!(temporal.rows(), 10);
        // Reconstruction of slice 0 from learned factors + temporal row.
        let rec = reconstruct_slice(&factors, temporal.row(0));
        let rel =
            (&rec - slices[0].values()).frobenius_norm() / slices[0].values().frobenius_norm();
        assert!(rel < 0.05, "warm start rel {rel}");
    }
}
