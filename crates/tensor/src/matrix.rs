//! Dense row-major matrices — used for CP factor matrices `U⁽ⁿ⁾ ∈ R^{Iₙ×R}`.

use rand::Rng;
use std::fmt;

/// A dense row-major matrix of `f64`.
///
/// Factor matrices in CP factorization are tall-and-skinny (`Iₙ × R` with
/// `R ≤ 20` in the paper's experiments), so row access (`u⁽ⁿ⁾_{iₙ}` in the
/// paper's notation) is the hot path and is zero-copy.
///
/// ```
/// use sofia_tensor::Matrix;
///
/// let mut u = Matrix::from_rows(&[&[3.0, 0.0], &[4.0, 1.0]]);
/// assert_eq!(u.row(1), &[4.0, 1.0]);
/// assert_eq!(u.col_norm(0), 5.0);
/// u.scale_col(0, 0.2);
/// assert!((u.col_norm(0) - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dims must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        assert!(rows > 0 && cols > 0, "matrix dims must be positive");
        Self { rows, cols, data }
    }

    /// Builds from row slices.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "need at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds by evaluating `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Matrix with i.i.d. entries uniform in `[lo, hi)`.
    pub fn random_uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut impl Rng) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major data slice.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a slice (the paper's row vector `uᵢ`).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` (the paper's column vector `ũⱼ`).
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Overwrites column `j`.
    pub fn set_col(&mut self, j: usize, col: &[f64]) {
        assert_eq!(col.len(), self.rows, "column length mismatch");
        for (i, &v) in col.iter().enumerate() {
            self.set(i, j, v);
        }
    }

    /// Euclidean norm of column `j`: `‖ũⱼ‖₂`.
    pub fn col_norm(&self, j: usize) -> f64 {
        (0..self.rows)
            .map(|i| {
                let v = self.get(i, j);
                v * v
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Scales column `j` by `alpha`.
    pub fn scale_col(&mut self, j: usize, alpha: f64) {
        for i in 0..self.rows {
            self.data[i * self.cols + j] *= alpha;
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Matrix product `self * rhs`: the reference that the Gram and
    /// unfolding tests check against.
    #[cfg(test)]
    pub(crate) fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Gram matrix `selfᵀ · self` (`R × R`), a building block of ALS normal
    /// equations.
    pub fn gram(&self) -> Matrix {
        let r = self.cols;
        let mut out = Matrix::zeros(r, r);
        for i in 0..self.rows {
            let row = self.row(i);
            for a in 0..r {
                let ra = row[a];
                if ra == 0.0 {
                    continue;
                }
                for b in a..r {
                    let v = ra * row[b];
                    out.data[a * r + b] += v;
                }
            }
        }
        // Mirror the upper triangle.
        for a in 0..r {
            for b in 0..a {
                out.data[a * r + b] = out.data[b * r + a];
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&v| v * v).sum::<f64>().sqrt()
    }

    /// `‖self - other‖_F`.
    pub fn diff_norm(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Scales all entries by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix({}×{})", self.rows, self.cols)?;
        if self.rows <= 8 && self.cols <= 8 {
            for i in 0..self.rows {
                writeln!(f, "  {:?}", self.row(i))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let att = a.transpose().transpose();
        assert_eq!(att, a);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let mut rng = SmallRng::seed_from_u64(11);
        let a = Matrix::random_uniform(7, 3, -1.0, 1.0, &mut rng);
        let g1 = a.gram();
        let g2 = a.transpose().matmul(&a);
        assert!(g1.diff_norm(&g2) < 1e-12);
    }

    #[test]
    fn col_and_set_col_roundtrip() {
        let mut a = Matrix::zeros(3, 2);
        a.set_col(1, &[1.0, 2.0, 3.0]);
        assert_eq!(a.col(1), vec![1.0, 2.0, 3.0]);
        assert_eq!(a.col(0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn scale_multiplies_every_entry() {
        let mut a = Matrix::identity(2);
        a.scale(2.0);
        assert_eq!(a.data(), &[2.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn frobenius_and_diff_norm() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        let b = Matrix::from_rows(&[&[0.0, 0.0]]);
        assert!((a.diff_norm(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn matmul_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    #[test]
    fn random_uniform_in_range() {
        let mut rng = SmallRng::seed_from_u64(5);
        let a = Matrix::random_uniform(10, 10, -0.5, 0.5, &mut rng);
        assert!(a.data().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }
}
