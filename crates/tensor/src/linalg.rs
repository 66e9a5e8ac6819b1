//! Small dense linear algebra: LU and Cholesky solves.
//!
//! The row-wise ALS updates of the paper (Theorems 1 and 2) require solving
//! `R × R` symmetric positive (semi-)definite systems `B u = c` with
//! `R ≤ 20`. These kernels are deliberately simple, allocation-light, and
//! numerically safeguarded with an optional ridge term — matching how the
//! reference Matlab implementation relies on `\` with well-conditioned
//! regularized systems.

use crate::matrix::Matrix;

/// Error type for linear solves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix was singular (or numerically so) at the given pivot.
    Singular { pivot: usize },
    /// The matrix was not positive definite at the given pivot (Cholesky).
    NotPositiveDefinite { pivot: usize },
    /// Dimension mismatch between operands.
    DimensionMismatch,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite at pivot {pivot}")
            }
            LinalgError::DimensionMismatch => write!(f, "dimension mismatch"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Solves `A x = b` by LU decomposition with partial pivoting.
///
/// `A` must be square. Runs in `O(n³)`.
pub fn solve_lu(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(LinalgError::DimensionMismatch);
    }
    let mut lu = a.data().to_vec();
    let mut x = b.to_vec();
    let mut perm: Vec<usize> = (0..n).collect();

    for k in 0..n {
        // Partial pivot: find the largest |entry| in column k at/below row k.
        let mut p = k;
        let mut max = lu[perm[k] * n + k].abs();
        for i in (k + 1)..n {
            let v = lu[perm[i] * n + k].abs();
            if v > max {
                max = v;
                p = i;
            }
        }
        if max < 1e-300 {
            return Err(LinalgError::Singular { pivot: k });
        }
        perm.swap(k, p);
        let pk = perm[k];
        let pivot = lu[pk * n + k];
        for i in (k + 1)..n {
            let pi = perm[i];
            let factor = lu[pi * n + k] / pivot;
            lu[pi * n + k] = factor;
            for j in (k + 1)..n {
                lu[pi * n + j] -= factor * lu[pk * n + j];
            }
        }
    }

    // Forward substitution with the permuted right-hand side: Ly = Pb.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = x[perm[i]];
        for j in 0..i {
            s -= lu[perm[i] * n + j] * y[j];
        }
        y[i] = s;
    }
    // Back substitution: Ux = y.
    for i in (0..n).rev() {
        let mut s = y[i];
        for j in (i + 1)..n {
            s -= lu[perm[i] * n + j] * x[j];
        }
        x[i] = s / lu[perm[i] * n + i];
    }
    Ok(x)
}

/// Solves the symmetric positive definite system `A x = b` by Cholesky
/// decomposition. Falls back on an error if `A` is not positive definite.
pub fn solve_cholesky(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(LinalgError::DimensionMismatch);
    }
    // Lower-triangular factor L with A = L Lᵀ, stored dense.
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut s = a.get(i, j);
            for k in 0..j {
                s -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if s <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i });
                }
                l[i * n + i] = s.sqrt();
            } else {
                l[i * n + j] = s / l[j * n + j];
            }
        }
    }
    // Forward: L y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[i * n + k] * y[k];
        }
        y[i] = s / l[i * n + i];
    }
    // Back: Lᵀ x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for k in (i + 1)..n {
            s -= l[k * n + i] * x[k];
        }
        x[i] = s / l[i * n + i];
    }
    Ok(x)
}

/// Solves `(A + ridge·I) x = b` for a symmetric PSD `A`, trying Cholesky
/// first and escalating the ridge until the factorization succeeds.
///
/// This is the solver used by the ALS row updates: the per-row normal
/// matrix `B⁽ⁿ⁾` of Theorem 1 is PSD but can be rank-deficient when a row
/// has few observed entries, and the paper's formulation already adds
/// `(λ₁ + λ₂)·I`-style terms for the temporal mode.
pub fn solve_spd_ridge(a: &Matrix, b: &[f64], ridge: f64) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(LinalgError::DimensionMismatch);
    }
    let mut lambda = ridge.max(0.0);
    // Escalate the ridge geometrically; the loop virtually always exits on
    // the first or second try.
    for _ in 0..12 {
        let mut reg = a.clone();
        if lambda > 0.0 {
            for i in 0..n {
                let v = reg.get(i, i) + lambda;
                reg.set(i, i, v);
            }
        }
        match solve_cholesky(&reg, b) {
            Ok(x) => return Ok(x),
            Err(_) => {
                lambda = if lambda == 0.0 { 1e-12 } else { lambda * 100.0 };
            }
        }
    }
    Err(LinalgError::NotPositiveDefinite { pivot: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        (0..a.rows())
            .map(|i| {
                let ax: f64 = a.row(i).iter().zip(x).map(|(&p, &q)| p * q).sum();
                (ax - b[i]) * (ax - b[i])
            })
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn lu_solves_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = vec![3.0, 5.0];
        let x = solve_lu(&a, &b).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn lu_random_systems_small_residual() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..20 {
            let n = rng.gen_range(1..12);
            let a = Matrix::from_fn(n, n, |i, j| {
                rng.gen_range(-1.0..1.0) + if i == j { 3.0 } else { 0.0 }
            });
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let x = solve_lu(&a, &b).unwrap();
            assert!(residual(&a, &x, &b) < 1e-9);
        }
    }

    #[test]
    fn lu_needs_pivoting() {
        // Zero on the initial pivot position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let b = vec![2.0, 3.0];
        let x = solve_lu(&a, &b).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            solve_lu(&a, &[1.0, 2.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn cholesky_matches_lu_on_spd() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..20 {
            let n = rng.gen_range(1..10);
            let g = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
            // A = GᵀG + I is SPD.
            let mut a = g.gram();
            for i in 0..n {
                a.set(i, i, a.get(i, i) + 1.0);
            }
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let x1 = solve_cholesky(&a, &b).unwrap();
            let x2 = solve_lu(&a, &b).unwrap();
            for (p, q) in x1.iter().zip(&x2) {
                assert!((p - q).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            solve_cholesky(&a, &[1.0, 1.0]),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn spd_ridge_recovers_from_semidefinite() {
        // Rank-1 PSD matrix; plain Cholesky fails, ridge succeeds.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let x = solve_spd_ridge(&a, &[2.0, 2.0], 1e-8).unwrap();
        // Solution of the regularized system is close to the min-norm one.
        assert!((x[0] - 1.0).abs() < 1e-4);
        assert!((x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn dimension_mismatch_reported() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(
            solve_lu(&a, &[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch)
        );
        assert_eq!(
            solve_cholesky(&a, &[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch)
        );
    }
}
