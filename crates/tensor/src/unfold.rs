//! Mode-n matricization (unfolding) and its inverse (paper §III-A).
//!
//! Uses the Kolda & Bader column ordering: in the mode-n unfolding
//! `X_(n) ∈ R^{Iₙ × Π_{k≠n} I_k}`, tensor entry `(i₁, …, i_N)` maps to row
//! `iₙ` and column `Σ_{k≠n} i_k · J_k` where `J_k = Π_{l<k, l≠n} I_l`
//! (mode 1 varies fastest among the retained modes). With this ordering the
//! Kruskal identity `X_(n) = U⁽ⁿ⁾ (U⁽ᴺ⁾ ⊙ ⋯ ⊙ U⁽ⁿ⁺¹⁾ ⊙ U⁽ⁿ⁻¹⁾ ⊙ ⋯ ⊙ U⁽¹⁾)ᵀ`
//! holds, which the tests verify.

use crate::dense::DenseTensor;
use crate::matrix::Matrix;
use crate::shape::Shape;

/// Column strides for the mode-n unfolding: `J_k` for every mode `k ≠ n`
/// (and 0 at position `n` for convenience).
fn unfold_strides(shape: &Shape, n: usize) -> Vec<usize> {
    let mut strides = vec![0usize; shape.order()];
    let mut acc = 1usize;
    for k in 0..shape.order() {
        if k == n {
            continue;
        }
        strides[k] = acc;
        acc *= shape.dim(k);
    }
    strides
}

/// Mode-n unfolding `X_(n)` of a dense tensor.
pub fn unfold(x: &DenseTensor, n: usize) -> Matrix {
    let shape = x.shape();
    assert!(n < shape.order(), "mode out of range");
    let rows = shape.dim(n);
    let cols = shape.len() / rows;
    let strides = unfold_strides(shape, n);
    let mut out = Matrix::zeros(rows, cols);
    let mut idx = vec![0usize; shape.order()];
    for off in 0..shape.len() {
        shape.unravel_into(off, &mut idx);
        let col: usize = idx
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != n)
            .map(|(k, &i)| i * strides[k])
            .sum();
        out.set(idx[n], col, x.get_flat(off));
    }
    out
}

/// Inverse of [`unfold`]: folds a mode-n unfolding back into a tensor of
/// the given shape.
pub fn fold(m: &Matrix, n: usize, shape: &Shape) -> DenseTensor {
    assert!(n < shape.order(), "mode out of range");
    assert_eq!(m.rows(), shape.dim(n), "fold row count mismatch");
    assert_eq!(
        m.rows() * m.cols(),
        shape.len(),
        "fold element count mismatch"
    );
    let strides = unfold_strides(shape, n);
    let mut out = DenseTensor::zeros(shape.clone());
    let mut idx = vec![0usize; shape.order()];
    for off in 0..shape.len() {
        shape.unravel_into(off, &mut idx);
        let col: usize = idx
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != n)
            .map(|(k, &i)| i * strides[k])
            .sum();
        out.set_flat(off, m.get(idx[n], col));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::{khatri_rao_seq, kruskal};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn random_tensor(dims: &[usize], seed: u64) -> DenseTensor {
        let mut rng = SmallRng::seed_from_u64(seed);
        let shape = Shape::new(dims);
        DenseTensor::from_fn(shape, |_| {
            use rand::Rng;
            rng.gen_range(-1.0..1.0)
        })
    }

    #[test]
    fn unfold_fold_roundtrip_all_modes() {
        let x = random_tensor(&[3, 4, 5], 1);
        for n in 0..3 {
            let m = unfold(&x, n);
            assert_eq!(m.rows(), x.shape().dim(n));
            let back = fold(&m, n, x.shape());
            assert!((&back - &x).frobenius_norm() < 1e-14);
        }
    }

    #[test]
    fn unfold_preserves_norm() {
        let x = random_tensor(&[2, 6, 3], 2);
        for n in 0..3 {
            let m = unfold(&x, n);
            assert!((m.frobenius_norm() - x.frobenius_norm()).abs() < 1e-12);
        }
    }

    #[test]
    fn kolda_identity_mode_unfoldings() {
        // X_(n) = U(n) · (U(N) ⊙ … ⊙ U(n+1) ⊙ U(n-1) ⊙ … ⊙ U(1))ᵀ
        let mut rng = SmallRng::seed_from_u64(3);
        let u1 = Matrix::random_uniform(3, 2, -1.0, 1.0, &mut rng);
        let u2 = Matrix::random_uniform(4, 2, -1.0, 1.0, &mut rng);
        let u3 = Matrix::random_uniform(5, 2, -1.0, 1.0, &mut rng);
        let factors = [&u1, &u2, &u3];
        let x = kruskal(&factors);
        for n in 0..3 {
            // Reversed-order KR of all factors except n.
            let others: Vec<&Matrix> = (0..3)
                .rev()
                .filter(|&k| k != n)
                .map(|k| factors[k])
                .collect();
            let kr = khatri_rao_seq(&others);
            let expected = factors[n].matmul(&kr.transpose());
            let actual = unfold(&x, n);
            assert!(
                actual.diff_norm(&expected) < 1e-10,
                "Kolda identity failed for mode {n}"
            );
        }
    }

    #[test]
    fn unfold_known_small_case() {
        // 2x2x2 tensor, entries = flat offset values for easy tracing.
        let shape = Shape::new(&[2, 2, 2]);
        let x = DenseTensor::from_fn(shape, |idx| (idx[0] * 4 + idx[1] * 2 + idx[2]) as f64);
        let m0 = unfold(&x, 0);
        // Row i0, column i1 + 2*i2?? No: retained modes (1,2), J_1 = 1? With
        // mode-1 fastest: col = i1 * 1 + i2 * I1_retained... strides: for
        // k=1 stride 1, for k=2 stride dim(1)=2. col = i1 + 2*i2.
        assert_eq!(m0.get(0, 0), x.get(&[0, 0, 0]));
        assert_eq!(m0.get(1, 1), x.get(&[1, 1, 0]));
        assert_eq!(m0.get(1, 2), x.get(&[1, 0, 1]));
        assert_eq!(m0.get(0, 3), x.get(&[0, 1, 1]));
    }

    #[test]
    #[should_panic(expected = "mode out of range")]
    fn unfold_bad_mode_panics() {
        let x = random_tensor(&[2, 2], 4);
        unfold(&x, 5);
    }
}
