//! Norms and error measures on tensors.

use crate::dense::DenseTensor;

/// Relative Frobenius difference `‖a - b‖_F / ‖b‖_F`.
///
/// This is the paper's Normalized Residual Error (NRE) when `a = X̂_t` and
/// `b = X_t` (§VI-A). Returns `‖a‖_F` when `b` is exactly zero, so the
/// measure stays finite.
pub fn relative_error(a: &DenseTensor, b: &DenseTensor) -> f64 {
    let denom = b.frobenius_norm();
    let num = (a - b).frobenius_norm();
    if denom == 0.0 {
        num
    } else {
        num / denom
    }
}

/// L1 norm `‖X‖₁ = Σ |xᵢ|` — the sparsity penalty applied to the outlier
/// tensor `O` in Eq. (10).
pub fn l1_norm(x: &DenseTensor) -> f64 {
    x.data().iter().map(|v| v.abs()).sum()
}

/// Number of non-zero entries (used to check outlier-tensor sparsity).
pub fn nnz(x: &DenseTensor) -> usize {
    x.data().iter().filter(|&&v| v != 0.0).count()
}

/// Scalar soft-thresholding `sign(x)·max(|x|-λ, 0)`.
#[inline]
pub fn soft_threshold_scalar(x: f64, lambda: f64) -> f64 {
    let mag = x.abs() - lambda;
    if mag > 0.0 {
        x.signum() * mag
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn relative_error_zero_for_identical() {
        let a = DenseTensor::full(Shape::new(&[2, 2]), 3.0);
        assert_eq!(relative_error(&a, &a), 0.0);
    }

    #[test]
    fn relative_error_known_value() {
        let a = DenseTensor::full(Shape::new(&[4]), 2.0);
        let b = DenseTensor::full(Shape::new(&[4]), 1.0);
        // ||a-b|| = 2, ||b|| = 2 → 1.0
        assert!((relative_error(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relative_error_zero_denominator() {
        let a = DenseTensor::full(Shape::new(&[4]), 1.0);
        let b = DenseTensor::zeros(Shape::new(&[4]));
        assert!((relative_error(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn l1_and_nnz() {
        let x = DenseTensor::from_vec(Shape::new(&[4]), vec![0.0, -2.0, 3.0, 0.0]);
        assert_eq!(l1_norm(&x), 5.0);
        assert_eq!(nnz(&x), 2);
    }

    #[test]
    fn soft_threshold_shrinks_and_zeroes() {
        let y = [-3.0, -0.5, 0.0, 0.5, 3.0].map(|x| soft_threshold_scalar(x, 1.0));
        assert_eq!(y, [-2.0, 0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn soft_threshold_scalar_properties() {
        // |S(x,λ)| ≤ |x| and sign preserved.
        for &x in &[-5.0, -1.0, -0.1, 0.0, 0.1, 1.0, 5.0] {
            let s = soft_threshold_scalar(x, 0.7);
            assert!(s.abs() <= x.abs());
            if s != 0.0 {
                assert_eq!(s.signum(), x.signum());
            }
        }
    }
}
