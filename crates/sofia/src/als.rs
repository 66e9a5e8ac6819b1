//! SOFIA_ALS — the batch update of Algorithm 2.
//!
//! Alternating least squares over the factor matrices of the smoothness-
//! regularized objective (10). Non-temporal factors are updated row by row
//! via Theorem 1 (`u = B⁻¹c` over observed entries); the temporal factor is
//! updated row by row via Theorem 2 / Eq. (17), whose five boundary cases
//! are realized here as "add `λ` to the diagonal and `λ·u_neighbor` to the
//! right-hand side for every *existing* ±1 (temporal) and ±m (seasonal)
//! neighbor" — exactly the case analysis of Eq. (18).
//!
//! Setting `λ₁ = λ₂ = 0` recovers the vanilla ALS of Zhou et al. used as
//! the Figure 2 baseline.

use sofia_tensor::linalg::solve_spd_ridge;
use sofia_tensor::{kruskal, DenseTensor, Matrix, ObservedTensor};

/// Options controlling a SOFIA_ALS run.
#[derive(Debug, Clone, PartialEq)]
pub struct AlsOptions {
    /// Temporal smoothness weight `λ₁`.
    pub lambda1: f64,
    /// Seasonal smoothness weight `λ₂`.
    pub lambda2: f64,
    /// Seasonal period `m`.
    pub period: usize,
    /// Convergence tolerance on the fitness change (Algorithm 2, line 15).
    pub tol: f64,
    /// Maximum number of ALS sweeps.
    pub max_iters: usize,
}

impl AlsOptions {
    /// Options for plain (vanilla) ALS: no smoothness.
    pub fn vanilla(tol: f64, max_iters: usize) -> Self {
        Self {
            lambda1: 0.0,
            lambda2: 0.0,
            period: 1,
            tol,
            max_iters,
        }
    }
}

/// Statistics of a SOFIA_ALS run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlsStats {
    /// Number of ALS sweeps performed.
    pub iterations: usize,
    /// Final fitness `1 − ‖Ω ⊛ (Y* − X̂)‖_F / ‖Ω ⊛ Y*‖_F`.
    pub fitness: f64,
}

/// Per-row normal systems `B⁽ⁿ⁾_{iₙ}, c⁽ⁿ⁾_{iₙ}` for one mode
/// (Eqs. (14), (15)), stored flat.
struct RowSystems {
    rank: usize,
    /// `rows × R × R`, row-major per row.
    b: Vec<f64>,
    /// `rows × R`.
    c: Vec<f64>,
    /// Number of observed entries contributing to each row.
    counts: Vec<usize>,
}

impl RowSystems {
    fn new(rows: usize, rank: usize) -> Self {
        Self {
            rank,
            b: vec![0.0; rows * rank * rank],
            c: vec![0.0; rows * rank],
            counts: vec![0; rows],
        }
    }

    #[inline]
    fn accumulate(&mut self, row: usize, h: &[f64], y: f64) {
        let r = self.rank;
        let b = &mut self.b[row * r * r..(row + 1) * r * r];
        let c = &mut self.c[row * r..(row + 1) * r];
        for a in 0..r {
            let ha = h[a];
            c[a] += y * ha;
            if ha == 0.0 {
                continue;
            }
            for bb in a..r {
                b[a * r + bb] += ha * h[bb];
            }
        }
        self.counts[row] += 1;
    }

    /// Returns `(B, c, count)` for a row, with `B`'s upper triangle
    /// mirrored into a full symmetric matrix.
    fn row_system(&self, row: usize) -> (Matrix, Vec<f64>, usize) {
        let r = self.rank;
        let mut full = Matrix::zeros(r, r);
        let b = &self.b[row * r * r..(row + 1) * r * r];
        for a in 0..r {
            for bb in a..r {
                let v = b[a * r + bb];
                full.set(a, bb, v);
                full.set(bb, a, v);
            }
        }
        let c = self.c[row * r..(row + 1) * r].to_vec();
        (full, c, self.counts[row])
    }
}

/// Accumulates the per-row normal systems of mode `mode` over all observed
/// entries of `data`, with `values[off]` used as the regressand
/// (`y* = y − o` in Theorem 1).
fn accumulate_mode(
    data: &ObservedTensor,
    values: &DenseTensor,
    factors: &[Matrix],
    mode: usize,
) -> RowSystems {
    let shape = data.shape();
    let order = shape.order();
    let rank = factors[0].cols();
    let mut sys = RowSystems::new(shape.dim(mode), rank);
    let mut idx = vec![0usize; order];
    let mut h = vec![0.0f64; rank];
    for &off in data.mask().observed_offsets() {
        shape.unravel_into(off, &mut idx);
        // h = ⊛_{l≠mode} u⁽ˡ⁾_{iₗ}
        h.iter_mut().for_each(|v| *v = 1.0);
        for (l, factor) in factors.iter().enumerate() {
            if l == mode {
                continue;
            }
            let row = factor.row(idx[l]);
            for k in 0..rank {
                h[k] *= row[k];
            }
        }
        sys.accumulate(idx[mode], &h, values.get_flat(off));
    }
    sys
}

/// Fitness `1 − ‖Ω ⊛ (Y* − X̂)‖_F / ‖Ω ⊛ Y*‖_F` evaluated lazily at
/// observed entries only (Algorithm 2, line 14).
fn masked_fitness(data: &ObservedTensor, values: &DenseTensor, factors: &[Matrix]) -> f64 {
    let shape = data.shape();
    let refs: Vec<&Matrix> = factors.iter().collect();
    let mut idx = vec![0usize; shape.order()];
    let mut num = 0.0;
    let mut den = 0.0;
    for &off in data.mask().observed_offsets() {
        shape.unravel_into(off, &mut idx);
        let pred = kruskal::kruskal_at(&refs, &idx);
        let y = values.get_flat(off);
        num += (y - pred) * (y - pred);
        den += y * y;
    }
    if den == 0.0 {
        return 1.0;
    }
    1.0 - (num / den).sqrt()
}

/// Runs SOFIA_ALS (Algorithm 2) on the outlier-removed tensor
/// `values = Y − O`, restricted to `data`'s observed entries, updating
/// `factors` in place. The last factor is the temporal one.
///
/// Returns run statistics. The caller obtains the completed tensor via
/// [`reconstruct`].
pub fn sofia_als(
    data: &ObservedTensor,
    values: &DenseTensor,
    factors: &mut [Matrix],
    opts: &AlsOptions,
) -> AlsStats {
    let order = data.shape().order();
    assert_eq!(factors.len(), order, "one factor per mode required");
    assert!(order >= 2, "need at least 2 modes");
    for (n, f) in factors.iter().enumerate() {
        assert_eq!(
            f.rows(),
            data.shape().dim(n),
            "factor {n} row count mismatch"
        );
    }
    let rank = factors[0].cols();
    let temporal = order - 1;

    let mut prev_fitness = f64::NEG_INFINITY;
    let mut iterations = 0;
    for _ in 0..opts.max_iters {
        iterations += 1;

        // --- Non-temporal modes: Theorem 1 row updates + renormalization.
        for n in 0..temporal {
            let sys = accumulate_mode(data, values, factors, n);
            for i in 0..factors[n].rows() {
                let (b, c, count) = sys.row_system(i);
                if count == 0 {
                    continue; // no information: keep the previous row
                }
                if let Ok(x) = solve_spd_ridge(&b, &c, 1e-10) {
                    factors[n].row_mut(i).copy_from_slice(&x);
                }
            }
            // Lines 7-9: push column norms into the temporal factor.
            for r in 0..rank {
                let norm = factors[n].col_norm(r);
                if norm > 0.0 {
                    factors[temporal].scale_col(r, norm);
                    factors[n].scale_col(r, 1.0 / norm);
                }
            }
        }

        // --- Temporal mode: Theorem 2 / Eq. (17) row updates.
        let sys = accumulate_mode(data, values, factors, temporal);
        let rows = factors[temporal].rows();
        let m = opts.period;
        for i in 0..rows {
            let (mut b, mut c, _count) = sys.row_system(i);
            let mut diag = 0.0;
            // ±1 temporal neighbors (λ₁ terms of Eq. (18) K).
            for j in [i.checked_sub(1), (i + 1 < rows).then_some(i + 1)]
                .into_iter()
                .flatten()
            {
                diag += opts.lambda1;
                let neighbor = factors[temporal].row(j);
                for k in 0..rank {
                    c[k] += opts.lambda1 * neighbor[k];
                }
            }
            // ±m seasonal neighbors (λ₂ terms of Eq. (18) H).
            if m >= 1 {
                for j in [i.checked_sub(m), (i + m < rows).then_some(i + m)]
                    .into_iter()
                    .flatten()
                {
                    diag += opts.lambda2;
                    let neighbor = factors[temporal].row(j);
                    for k in 0..rank {
                        c[k] += opts.lambda2 * neighbor[k];
                    }
                }
            }
            for k in 0..rank {
                let v = b.get(k, k) + diag;
                b.set(k, k, v);
            }
            if let Ok(x) = solve_spd_ridge(&b, &c, 1e-10) {
                factors[temporal].row_mut(i).copy_from_slice(&x);
            }
        }

        // --- Convergence check on fitness change (line 15).
        let fitness = masked_fitness(data, values, factors);
        if (fitness - prev_fitness).abs() < opts.tol {
            prev_fitness = fitness;
            break;
        }
        prev_fitness = fitness;
    }

    AlsStats {
        iterations,
        fitness: prev_fitness,
    }
}

/// Materializes `X̂ = ⟦U⁽¹⁾, …, U⁽ᴺ⁾⟧`.
pub fn reconstruct(factors: &[Matrix]) -> DenseTensor {
    let refs: Vec<&Matrix> = factors.iter().collect();
    kruskal::kruskal(&refs)
}

/// Masked residual objective `‖Ω ⊛ (Y* − X̂)‖²_F` (the data term of
/// Eq. (10)) — used by tests to verify monotone behaviour of ALS.
pub fn masked_residual_sq(data: &ObservedTensor, values: &DenseTensor, factors: &[Matrix]) -> f64 {
    let shape = data.shape();
    let refs: Vec<&Matrix> = factors.iter().collect();
    let mut idx = vec![0usize; shape.order()];
    let mut acc = 0.0;
    for &off in data.mask().observed_offsets() {
        shape.unravel_into(off, &mut idx);
        let pred = kruskal::kruskal_at(&refs, &idx);
        let y = values.get_flat(off);
        acc += (y - pred) * (y - pred);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sofia_tensor::random::random_factors;
    use sofia_tensor::Mask;

    /// Builds a rank-`r` ground-truth tensor plus random starting factors.
    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let truth_factors = random_factors(dims, r, &mut rng);
        let refs: Vec<&Matrix> = truth_factors.iter().collect();
        let truth = kruskal::kruskal(&refs);
        let start = random_factors(dims, r, &mut rng);
        (truth, start)
    }

    #[test]
    fn vanilla_als_fits_fully_observed_low_rank() {
        let (truth, mut factors) = setup(&[6, 5, 8], 2, 1);
        let data = ObservedTensor::fully_observed(truth.clone());
        let opts = AlsOptions::vanilla(1e-9, 200);
        let stats = sofia_als(&data, data.values(), &mut factors, &opts);
        assert!(stats.fitness > 0.999, "fitness {}", stats.fitness);
        let xhat = reconstruct(&factors);
        let rel = (&xhat - &truth).frobenius_norm() / truth.frobenius_norm();
        assert!(rel < 1e-2, "relative error {rel}");
    }

    #[test]
    fn als_objective_is_monotone_nonincreasing() {
        let (truth, mut factors) = setup(&[5, 4, 6], 2, 7);
        let data = ObservedTensor::fully_observed(truth);
        let opts = AlsOptions::vanilla(0.0, 1); // one sweep at a time
        let mut prev = masked_residual_sq(&data, data.values(), &factors);
        for _ in 0..10 {
            sofia_als(&data, data.values(), &mut factors, &opts);
            let cur = masked_residual_sq(&data, data.values(), &factors);
            assert!(
                cur <= prev + 1e-9 * (1.0 + prev),
                "objective rose: {prev} -> {cur}"
            );
            prev = cur;
        }
    }

    #[test]
    fn als_completes_missing_entries() {
        let (truth, mut factors) = setup(&[6, 6, 10], 2, 3);
        let mut rng = SmallRng::seed_from_u64(99);
        let mask = Mask::random(truth.shape().clone(), 0.3, &mut rng);
        let data = ObservedTensor::new(truth.clone(), mask);
        let opts = AlsOptions::vanilla(1e-10, 300);
        sofia_als(&data, data.values(), &mut factors, &opts);
        let xhat = reconstruct(&factors);
        // Error on the *missing* entries must be small too.
        let mut err = 0.0;
        let mut norm = 0.0;
        for off in 0..truth.len() {
            if !data.mask().is_observed_flat(off) {
                let d = xhat.get_flat(off) - truth.get_flat(off);
                err += d * d;
                norm += truth.get_flat(off) * truth.get_flat(off);
            }
        }
        let rel = (err / norm).sqrt();
        assert!(rel < 0.05, "completion error {rel}");
    }

    #[test]
    fn smoothness_pulls_unobserved_temporal_rows_to_neighbors() {
        // A temporal row with NO observed entries: with temporal smoothness
        // it is interpolated from its neighbors; without smoothness it has
        // no information at all and stays wherever initialization left it.
        let dims = [4, 4, 9];
        let (truth, factors0) = setup(&dims, 1, 11);
        // Mask out time step 4 entirely.
        let mut observed = vec![true; truth.len()];
        let shape = truth.shape().clone();
        for idx in shape.indices() {
            if idx[2] == 4 {
                observed[shape.offset(&idx)] = false;
            }
        }
        let data = ObservedTensor::new(truth.clone(), Mask::from_vec(shape, observed));

        let hidden_err = |factors: &[Matrix]| -> f64 {
            let xhat = reconstruct(factors);
            (0..4)
                .flat_map(|i| (0..4).map(move |j| (i, j)))
                .map(|(i, j)| {
                    // Compare against the neighbor interpolation of truth,
                    // the best any method can do for a fully hidden slice.
                    let avg = 0.5 * (truth.get(&[i, j, 3]) + truth.get(&[i, j, 5]));
                    (xhat.get(&[i, j, 4]) - avg).abs()
                })
                .sum()
        };

        let mut smooth = factors0.clone();
        let opts_smooth = AlsOptions {
            lambda1: 0.05,
            lambda2: 0.0,
            period: 3,
            tol: 1e-12,
            max_iters: 500,
        };
        sofia_als(&data, data.values(), &mut smooth, &opts_smooth);

        let mut plain = factors0.clone();
        let opts_plain = AlsOptions::vanilla(1e-12, 500);
        sofia_als(&data, data.values(), &mut plain, &opts_plain);

        let err_smooth = hidden_err(&smooth);
        let err_plain = hidden_err(&plain);
        assert!(
            err_smooth < err_plain * 0.5,
            "smoothness should beat plain ALS on a hidden slice: \
             smooth={err_smooth} plain={err_plain}"
        );
    }

    #[test]
    fn seasonal_smoothness_uses_period_neighbors() {
        // Rank-1, strongly periodic temporal factor; hide one full period
        // position and check that λ₂ recovers it from the same phase in
        // other seasons.
        let m = 4;
        let len = 12;
        let a = Matrix::from_fn(3, 1, |i, _| 1.0 + i as f64);
        let b = Matrix::from_fn(3, 1, |i, _| 2.0 - i as f64 * 0.5);
        let pattern = [5.0, -3.0, 1.0, 2.0];
        let w = Matrix::from_fn(len, 1, |i, _| pattern[i % m]);
        let truth = kruskal::kruskal(&[&a, &b, &w]);
        let shape = truth.shape().clone();
        let mut observed = vec![true; truth.len()];
        for idx in shape.indices() {
            if idx[2] == 5 {
                observed[shape.offset(&idx)] = false;
            }
        }
        let data = ObservedTensor::new(truth.clone(), Mask::from_vec(shape, observed));
        let mut rng = SmallRng::seed_from_u64(5);
        let mut factors = random_factors(&[3, 3, len], 1, &mut rng);
        let opts = AlsOptions {
            lambda1: 0.0,
            lambda2: 0.5,
            period: m,
            tol: 1e-10,
            max_iters: 300,
        };
        sofia_als(&data, data.values(), &mut factors, &opts);
        let xhat = reconstruct(&factors);
        // Entry at hidden t=5 should match the periodic truth well.
        let rel =
            (xhat.get(&[1, 1, 5]) - truth.get(&[1, 1, 5])).abs() / truth.get(&[1, 1, 5]).abs();
        assert!(rel < 0.2, "seasonal completion rel err {rel}");
    }

    #[test]
    fn non_temporal_columns_are_unit_norm_after_run() {
        let (truth, mut factors) = setup(&[5, 7, 6], 3, 21);
        let data = ObservedTensor::fully_observed(truth);
        let opts = AlsOptions::vanilla(1e-8, 50);
        sofia_als(&data, data.values(), &mut factors, &opts);
        for n in 0..2 {
            for r in 0..3 {
                let norm = factors[n].col_norm(r);
                assert!((norm - 1.0).abs() < 1e-9, "mode {n} column {r} norm {norm}");
            }
        }
    }

    #[test]
    fn fitness_reaches_one_on_exact_fit() {
        let (truth, _) = setup(&[4, 4, 4], 2, 31);
        let data = ObservedTensor::fully_observed(truth.clone());
        // Feed the true factors: fitness must be ≈ 1.
        let mut rng = SmallRng::seed_from_u64(31);
        let truth_factors = random_factors(&[4, 4, 4], 2, &mut rng);
        let fit = masked_fitness(&data, data.values(), &truth_factors);
        assert!(fit > 1.0 - 1e-9, "fitness {fit}");
    }

    #[test]
    fn empty_rows_keep_previous_values() {
        // Mode-0 row 2 never observed: its factor row must stay unchanged.
        let dims = [3, 4, 5];
        let (truth, mut factors) = setup(&dims, 2, 41);
        let shape = truth.shape().clone();
        let mut observed = vec![true; truth.len()];
        for idx in shape.indices() {
            if idx[0] == 2 {
                observed[shape.offset(&idx)] = false;
            }
        }
        let data = ObservedTensor::new(truth, Mask::from_vec(shape, observed));
        let before = factors[0].row(2).to_vec();
        let opts = AlsOptions::vanilla(1e-8, 1);
        sofia_als(&data, data.values(), &mut factors, &opts);
        // Row was renormalized along with its column, but its direction
        // within the column scaling is preserved: check proportionality.
        let after = factors[0].row(2);
        for k in 0..2 {
            let col_norm_change = factors[0].col_norm(k); // = 1 after normalize
            assert!(col_norm_change > 0.0);
            // direction: after[k] should equal before[k] / original col norm
            // — we only check sign stability here.
            if before[k] != 0.0 {
                assert_eq!(after[k].signum(), before[k].signum());
            }
        }
    }
}
