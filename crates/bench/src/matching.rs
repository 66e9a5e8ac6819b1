//! Factor matching for Figure 2: CP factors are identifiable only up to
//! column permutation, sign, and scale, so recovered temporal factors are
//! aligned to the ground truth before the normalized residual error is
//! computed.

use sofia_tensor::Matrix;

/// Greedily matches columns of `estimate` to columns of `truth` by maximum
//  absolute cosine similarity, then rescales each matched column by the
/// least-squares coefficient. Returns the aligned matrix (same shape as
/// `truth`).
fn align_columns(estimate: &Matrix, truth: &Matrix) -> Matrix {
    assert_eq!(estimate.rows(), truth.rows(), "row count mismatch");
    assert_eq!(estimate.cols(), truth.cols(), "rank mismatch");
    let r = truth.cols();
    let mut used = vec![false; r];
    let mut aligned = Matrix::zeros(truth.rows(), r);
    for j in 0..r {
        let t_col = truth.col(j);
        let t_norm: f64 = t_col.iter().map(|v| v * v).sum::<f64>().sqrt();
        // Pick the unused estimate column with highest |cosine|.
        let mut best: Option<(usize, f64)> = None;
        for k in 0..r {
            if used[k] {
                continue;
            }
            let e_col = estimate.col(k);
            let e_norm: f64 = e_col.iter().map(|v| v * v).sum::<f64>().sqrt();
            if e_norm == 0.0 || t_norm == 0.0 {
                continue;
            }
            let dot: f64 = e_col.iter().zip(&t_col).map(|(a, b)| a * b).sum();
            let cos = (dot / (e_norm * t_norm)).abs();
            if best.map(|(_, c)| cos > c).unwrap_or(true) {
                best = Some((k, cos));
            }
        }
        if let Some((k, _)) = best {
            used[k] = true;
            let e_col = estimate.col(k);
            // LS rescale: β = ⟨e, t⟩ / ⟨e, e⟩.
            let ee: f64 = e_col.iter().map(|v| v * v).sum();
            let et: f64 = e_col.iter().zip(&t_col).map(|(a, b)| a * b).sum();
            let beta = if ee > 0.0 { et / ee } else { 0.0 };
            let scaled: Vec<f64> = e_col.iter().map(|v| v * beta).collect();
            aligned.set_col(j, &scaled);
        }
    }
    aligned
}

/// Normalized residual error between an estimate and the truth after
/// permutation/sign/scale alignment: `‖aligned − truth‖_F / ‖truth‖_F`.
pub fn aligned_nre(estimate: &Matrix, truth: &Matrix) -> f64 {
    let aligned = align_columns(estimate, truth);
    aligned.diff_norm(truth) / truth.frobenius_norm()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sofia_tensor::random::gaussian_factor;

    #[test]
    fn identical_matrix_has_zero_nre() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = gaussian_factor(20, 3, &mut rng);
        assert!(aligned_nre(&m, &m) < 1e-12);
    }

    #[test]
    fn permutation_and_sign_are_recovered() {
        let mut rng = SmallRng::seed_from_u64(2);
        let truth = gaussian_factor(30, 3, &mut rng);
        // estimate = truth with columns permuted (0,1,2)→(2,0,1), signs
        // flipped and scaled.
        let mut est = Matrix::zeros(30, 3);
        let scales = [-2.0, 0.5, 3.0];
        let perm = [2usize, 0, 1];
        for j in 0..3 {
            let col: Vec<f64> = truth.col(j).iter().map(|v| v * scales[j]).collect();
            est.set_col(perm[j], &col);
        }
        assert!(aligned_nre(&est, &truth) < 1e-12);
    }

    #[test]
    fn garbage_has_large_nre() {
        let mut rng = SmallRng::seed_from_u64(3);
        let truth = gaussian_factor(50, 3, &mut rng);
        let garbage = gaussian_factor(50, 3, &mut rng);
        assert!(aligned_nre(&garbage, &truth) > 0.5);
    }

    #[test]
    fn partial_recovery_scores_in_between() {
        let mut rng = SmallRng::seed_from_u64(4);
        let truth = gaussian_factor(40, 2, &mut rng);
        // One column exact, one noisy.
        let mut est = truth.clone();
        let noisy: Vec<f64> = truth
            .col(1)
            .iter()
            .map(|v| v + 0.5 * sofia_tensor::random::sample_standard_normal(&mut rng))
            .collect();
        est.set_col(1, &noisy);
        let nre = aligned_nre(&est, &truth);
        assert!(nre > 0.05 && nre < 0.8, "nre {nre}");
    }
}
