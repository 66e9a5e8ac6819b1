//! Kruskal operator, Khatri-Rao and Hadamard products (paper §III-A/B).
//!
//! Conventions follow Kolda & Bader ("Tensor Decompositions and
//! Applications", SIAM Review 2009), which the paper adopts: the mode-n
//! unfolding of a Kruskal tensor satisfies
//!
//! ```text
//! X_(n) = U⁽ⁿ⁾ · ( U⁽ᴺ⁾ ⊙ ⋯ ⊙ U⁽ⁿ⁺¹⁾ ⊙ U⁽ⁿ⁻¹⁾ ⊙ ⋯ ⊙ U⁽¹⁾ )ᵀ
//! ```
//!
//! which is property-tested against [`crate::unfold`].

use crate::dense::DenseTensor;
use crate::matrix::Matrix;
use crate::shape::Shape;

/// Khatri-Rao (column-wise Kronecker) product `A ⊙ B` (Eq. (1)).
///
/// For `A ∈ R^{I×R}` and `B ∈ R^{J×R}`, the result is `(I·J) × R` with
/// row `i·J + j` equal to the element-wise product of `A`'s row `i` and
/// `B`'s row `j`.
pub fn khatri_rao(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "Khatri-Rao rank mismatch");
    let r = a.cols();
    let mut out = Matrix::zeros(a.rows() * b.rows(), r);
    for i in 0..a.rows() {
        let arow = a.row(i);
        for j in 0..b.rows() {
            let brow = b.row(j);
            let orow = out.row_mut(i * b.rows() + j);
            for k in 0..r {
                orow[k] = arow[k] * brow[k];
            }
        }
    }
    out
}

/// Sequential Khatri-Rao product `M₁ ⊙ M₂ ⊙ ⋯ ⊙ Mₖ` folding left to right.
///
/// # Panics
/// Panics if `mats` is empty or ranks mismatch.
pub fn khatri_rao_seq(mats: &[&Matrix]) -> Matrix {
    assert!(!mats.is_empty(), "need at least one matrix");
    let mut acc = mats[0].clone();
    for m in &mats[1..] {
        acc = khatri_rao(&acc, m);
    }
    acc
}

/// Hadamard (element-wise) product of two equally sized matrices.
pub fn hadamard(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "Hadamard shape mismatch");
    assert_eq!(a.cols(), b.cols(), "Hadamard shape mismatch");
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| x * y)
        .collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// Hadamard product of the Gram matrices of every factor except mode `skip`:
/// `⊛_{l≠skip} (U⁽ˡ⁾ᵀ U⁽ˡ⁾)`. This is the normal matrix of the classic
/// fully-observed ALS update and is used by baseline factorizers.
pub fn gram_hadamard_excluding(factors: &[&Matrix], skip: usize) -> Matrix {
    assert!(!factors.is_empty());
    let r = factors[0].cols();
    let mut acc = Matrix::from_vec(r, r, vec![1.0; r * r]);
    for (n, f) in factors.iter().enumerate() {
        if n == skip {
            continue;
        }
        acc = hadamard(&acc, &f.gram());
    }
    acc
}

/// Evaluates a single entry of the Kruskal tensor
/// `⟦U⁽¹⁾, …, U⁽ᴺ⁾⟧` at multi-index `index`:
/// `Σ_r Π_n U⁽ⁿ⁾[iₙ, r]`.
#[inline]
pub fn kruskal_at(factors: &[&Matrix], index: &[usize]) -> f64 {
    debug_assert_eq!(factors.len(), index.len());
    let r = factors[0].cols();
    let mut sum = 0.0;
    for k in 0..r {
        let mut prod = 1.0;
        for (f, &i) in factors.iter().zip(index) {
            prod *= f.row(i)[k];
        }
        sum += prod;
    }
    sum
}

/// Evaluates a single entry of the Kruskal tensor built from `(N-1)`
/// non-temporal factors and one temporal row vector `w`
/// (`⟦{U⁽ⁿ⁾}, u⁽ᴺ⁾_t⟧` in the paper's streaming notation, Eq. (20)).
#[inline]
pub fn kruskal_at_with_vec(factors: &[&Matrix], index: &[usize], w: &[f64]) -> f64 {
    debug_assert_eq!(factors.len(), index.len());
    let r = w.len();
    let mut sum = 0.0;
    for k in 0..r {
        let mut prod = w[k];
        for (f, &i) in factors.iter().zip(index) {
            prod *= f.row(i)[k];
        }
        sum += prod;
    }
    sum
}

/// Materializes the full Kruskal tensor `⟦U⁽¹⁾, …, U⁽ᴺ⁾⟧`: [`kruskal_slice`]
/// with unit weights. Each product then starts at `1.0` and multiplies
/// the factors in mode order, as [`kruskal_at`] does, so every entry is
/// bit-identical to `kruskal_at` at its index.
///
/// # Panics
/// Panics if `factors` is empty or the factors do not share one rank.
pub fn kruskal(factors: &[&Matrix]) -> DenseTensor {
    assert!(!factors.is_empty(), "need at least one factor");
    kruskal_slice(factors, &vec![1.0; factors[0].cols()])
}

/// Materializes the `(N-1)`-way slice `⟦{U⁽ⁿ⁾}ₙ, w⟧` given non-temporal
/// factors and a temporal row vector — the predicted subtensor `Ŷ_{t|t-1}`
/// of Eq. (20).
///
/// Every entry is bit-identical to [`kruskal_at_with_vec`] at its index,
/// because the kernel performs the same float operations in the same
/// order. With `u_k = U⁽ᴺ⁾[i_N, k]` and the leading-mode product
/// `p_k = ((w_k·U⁽¹⁾[i₁,k])·U⁽²⁾[i₂,k])·…` taken left to right, entry
/// `(i₁, …, i_N)` is `((0 + p₀·u₀) + p₁·u₁) + …` over `k = 0..R` in
/// order. The kernel keeps one prefix-product row per leading mode,
/// advances the leading indices as an odometer and recomputes only the
/// levels at and below the index that moved. It transposes the last
/// factor once, so each `k` adds `p_k · Uᵀ[k, :]` into a whole output row.
/// Independent sums run only across neighbouring outputs, never within
/// one entry's `k`-sum, and no multiply-add is fused, so vectorizing the
/// row loop changes no bit. (Rust leaves the sign and payload of a NaN
/// result unspecified; a NaN entry is NaN in both.)
///
/// # Panics
/// Panics if `factors` is empty or a factor's rank differs from `w.len()`.
pub fn kruskal_slice(factors: &[&Matrix], w: &[f64]) -> DenseTensor {
    let (last, lead) = factors.split_last().expect("need at least one factor");
    let r = w.len();
    for f in factors {
        assert_eq!(f.cols(), r, "factor rank does not match w.len()");
    }
    let dims: Vec<usize> = factors.iter().map(|f| f.rows()).collect();
    let shape = Shape::new(&dims);
    let last_t = last.transpose();
    // Level l holds w ⊛ U⁽¹⁾[i₁,:] ⊛ ⋯ over the first l leading modes;
    // the deepest level is the current output row's p.
    let mut prefix = vec![0.0; (lead.len() + 1) * r];
    prefix[..r].copy_from_slice(w);
    let mut idx = vec![0usize; lead.len()];
    let mut data = vec![0.0; shape.len()];
    // Shallowest leading mode whose index moved since the last row.
    let mut moved = 0;
    for out in data.chunks_exact_mut(last.rows()) {
        for (l, f) in lead.iter().enumerate().skip(moved) {
            let (above, below) = prefix.split_at_mut((l + 1) * r);
            let row = f.row(idx[l]);
            for ((p, &q), &u) in below[..r].iter_mut().zip(&above[l * r..]).zip(row) {
                *p = q * u;
            }
        }
        let p = &prefix[lead.len() * r..];
        for (k, &pk) in p.iter().enumerate() {
            for (o, &u) in out.iter_mut().zip(last_t.row(k)) {
                *o += pk * u;
            }
        }
        moved = lead.len();
        while moved > 0 {
            moved -= 1;
            idx[moved] += 1;
            if idx[moved] < lead[moved].rows() {
                break;
            }
            idx[moved] = 0;
        }
    }
    DenseTensor::from_vec(shape, data)
}

/// Squared Frobenius norm of a Kruskal tensor computed in factored form:
/// `‖⟦U⁽¹⁾,…,U⁽ᴺ⁾⟧‖²_F = 1ᵀ (⊛ₙ U⁽ⁿ⁾ᵀU⁽ⁿ⁾) 1` — cheap even for huge
/// virtual tensors.
pub fn kruskal_norm_sq(factors: &[&Matrix]) -> f64 {
    assert!(!factors.is_empty());
    let r = factors[0].cols();
    let mut acc = Matrix::from_vec(r, r, vec![1.0; r * r]);
    for f in factors {
        acc = hadamard(&acc, &f.gram());
    }
    acc.data().iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn khatri_rao_matches_definition() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 10.0]]);
        let kr = khatri_rao(&a, &b);
        assert_eq!(kr.rows(), 6);
        assert_eq!(kr.cols(), 2);
        // Row (i=1, j=2) => index 1*3+2 = 5: [3*9, 4*10].
        assert_eq!(kr.row(5), &[27.0, 40.0]);
        // Row (i=0, j=0): [1*5, 2*6].
        assert_eq!(kr.row(0), &[5.0, 12.0]);
    }

    #[test]
    fn kruskal_rank1_outer_product() {
        let u = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let v = Matrix::from_rows(&[&[3.0], &[4.0], &[5.0]]);
        let x = kruskal(&[&u, &v]);
        assert_eq!(x.shape().dims(), &[2, 3]);
        assert_eq!(x.get(&[1, 2]), 10.0);
        assert_eq!(x.get(&[0, 0]), 3.0);
    }

    #[test]
    fn kruskal_at_matches_materialized() {
        let mut rng = SmallRng::seed_from_u64(23);
        let u = Matrix::random_uniform(3, 2, -1.0, 1.0, &mut rng);
        let v = Matrix::random_uniform(4, 2, -1.0, 1.0, &mut rng);
        let w = Matrix::random_uniform(5, 2, -1.0, 1.0, &mut rng);
        let x = kruskal(&[&u, &v, &w]);
        for idx in x.shape().indices() {
            let direct = kruskal_at(&[&u, &v, &w], &idx);
            assert!((direct - x.get(&idx)).abs() < 1e-12);
        }
    }

    #[test]
    fn kruskal_slice_matches_full_tensor_slice() {
        let mut rng = SmallRng::seed_from_u64(31);
        let u = Matrix::random_uniform(3, 2, -1.0, 1.0, &mut rng);
        let v = Matrix::random_uniform(4, 2, -1.0, 1.0, &mut rng);
        let temporal = Matrix::random_uniform(6, 2, -1.0, 1.0, &mut rng);
        let full = kruskal(&[&u, &v, &temporal]);
        for t in 0..6 {
            let slice = kruskal_slice(&[&u, &v], temporal.row(t));
            for i in 0..3 {
                for j in 0..4 {
                    assert!((slice.get(&[i, j]) - full.get(&[i, j, t])).abs() < 1e-12);
                }
            }
        }
    }

    /// Draws a value that stresses bit-identity — a signed zero, the
    /// smallest subnormal, a magnitude whose products overflow or
    /// underflow, an infinity or NaN — or else a uniform one.
    fn stress_value(rng: &mut SmallRng) -> f64 {
        const POOL: [f64; 10] = [
            0.0,
            -0.0,
            5e-324,
            1e300,
            -1e300,
            1e-300,
            -1e-300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        if rng.gen_bool(0.15) {
            POOL[rng.gen_range(0..POOL.len())]
        } else {
            rng.gen_range(-2.0..2.0)
        }
    }

    /// Random factors of every order in `orders`, every rank 1–8 and
    /// mode lengths 1–9, drawn from [`stress_value`].
    fn stress_cases(seed: u64, orders: std::ops::RangeInclusive<usize>) -> Vec<Vec<Matrix>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cases = Vec::new();
        for order in orders {
            for rank in 1..=8 {
                for _ in 0..6 {
                    let factors = (0..order)
                        .map(|_| {
                            let rows = rng.gen_range(1..=9);
                            Matrix::from_fn(rows, rank, |_, _| stress_value(&mut rng))
                        })
                        .collect();
                    cases.push(factors);
                }
            }
        }
        cases
    }

    /// Compares bits; a NaN entry only has to be NaN in both, since Rust
    /// leaves a NaN result's sign and payload unspecified.
    fn assert_same_bits(got: f64, want: f64, idx: &[usize]) {
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "entry {idx:?}: kernel {got:e} ({:#x}) vs point evaluator {want:e} ({:#x})",
            got.to_bits(),
            want.to_bits()
        );
    }

    #[test]
    fn kruskal_slice_is_bit_identical_to_kruskal_at_with_vec() {
        let mut rng = SmallRng::seed_from_u64(41);
        let (mut finite, mut total) = (0usize, 0usize);
        for factors in stress_cases(17, 1..=3) {
            let refs: Vec<&Matrix> = factors.iter().collect();
            let w: Vec<f64> = (0..refs[0].cols())
                .map(|_| stress_value(&mut rng))
                .collect();
            let slice = kruskal_slice(&refs, &w);
            for idx in slice.shape().indices() {
                let got = slice.get(&idx);
                assert_same_bits(got, kruskal_at_with_vec(&refs, &idx, &w), &idx);
                finite += got.is_finite() as usize;
                total += 1;
            }
        }
        // The pool must leave both kinds of entry in the sweep.
        assert!(
            finite > total / 4 && finite < total,
            "{finite} of {total} finite"
        );
    }

    #[test]
    fn kruskal_is_bit_identical_to_kruskal_at() {
        let (mut finite, mut total) = (0usize, 0usize);
        for factors in stress_cases(29, 1..=4) {
            let refs: Vec<&Matrix> = factors.iter().collect();
            let full = kruskal(&refs);
            for idx in full.shape().indices() {
                let got = full.get(&idx);
                assert_same_bits(got, kruskal_at(&refs, &idx), &idx);
                finite += got.is_finite() as usize;
                total += 1;
            }
        }
        assert!(
            finite > total / 4 && finite < total,
            "{finite} of {total} finite"
        );
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn kruskal_slice_rejects_a_short_w() {
        let u = Matrix::zeros(3, 2);
        let v = Matrix::zeros(4, 2);
        kruskal_slice(&[&u, &v], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn kruskal_slice_rejects_a_long_w() {
        let u = Matrix::zeros(3, 2);
        let v = Matrix::zeros(4, 2);
        kruskal_slice(&[&u, &v], &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn gram_hadamard_excluding_matches_manual() {
        let mut rng = SmallRng::seed_from_u64(5);
        let u = Matrix::random_uniform(3, 2, -1.0, 1.0, &mut rng);
        let v = Matrix::random_uniform(4, 2, -1.0, 1.0, &mut rng);
        let w = Matrix::random_uniform(5, 2, -1.0, 1.0, &mut rng);
        let g = gram_hadamard_excluding(&[&u, &v, &w], 1);
        let manual = hadamard(&u.gram(), &w.gram());
        assert!(g.diff_norm(&manual) < 1e-12);
    }

    #[test]
    fn kruskal_norm_sq_matches_dense() {
        let mut rng = SmallRng::seed_from_u64(77);
        let u = Matrix::random_uniform(3, 3, -1.0, 1.0, &mut rng);
        let v = Matrix::random_uniform(4, 3, -1.0, 1.0, &mut rng);
        let w = Matrix::random_uniform(2, 3, -1.0, 1.0, &mut rng);
        let dense = kruskal(&[&u, &v, &w]);
        let nf = dense.frobenius_norm();
        let factored = kruskal_norm_sq(&[&u, &v, &w]);
        assert!((factored - nf * nf).abs() < 1e-9);
    }

    #[test]
    fn khatri_rao_seq_associates() {
        let mut rng = SmallRng::seed_from_u64(13);
        let a = Matrix::random_uniform(2, 2, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(3, 2, -1.0, 1.0, &mut rng);
        let c = Matrix::random_uniform(2, 2, -1.0, 1.0, &mut rng);
        let left = khatri_rao(&khatri_rao(&a, &b), &c);
        let seq = khatri_rao_seq(&[&a, &b, &c]);
        assert!(left.diff_norm(&seq) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn khatri_rao_rank_mismatch_panics() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        khatri_rao(&a, &b);
    }
}
