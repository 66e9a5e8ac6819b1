//! Robust statistics for outlier-resistant forecasting (paper §III-D).
//!
//! Implements the Huber Ψ-function and the biweight ρ-function (Eq. (9)),
//! which SOFIA's update applies to every observed entry: Ψ cleans it
//! (Eq. (21)) and ρ drives its error-scale recursion (Eq. (22)).

/// Default clipping constant `k = 2` used in both Huber Ψ and biweight ρ
/// (paper §III-D).
pub const DEFAULT_K: f64 = 2.0;

/// Default biweight normalization `c_k = 2.52` for `k = 2` (paper §III-D),
/// chosen so that `E[ρ(e/σ)·σ²] = σ²` for Gaussian errors.
pub const DEFAULT_CK: f64 = 2.52;

/// Huber Ψ-function: identity inside `[-k, k]`, clipped to `±k` outside.
///
/// ```text
/// Ψ(x) = x            if |x| < k
///      = sign(x)·k    otherwise
/// ```
#[inline]
pub fn huber_psi(x: f64, k: f64) -> f64 {
    if x.abs() < k {
        x
    } else {
        x.signum() * k
    }
}

/// Biweight ρ-function (Eq. (9)):
///
/// ```text
/// ρ(x) = c_k (1 − (1 − (x/k)²)³)   if |x| ≤ k
///      = c_k                        otherwise
/// ```
#[inline]
pub fn biweight_rho(x: f64, k: f64, ck: f64) -> f64 {
    if x.abs() <= k {
        let u = 1.0 - (x / k) * (x / k);
        ck * (1.0 - u * u * u)
    } else {
        ck
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huber_identity_inside_clip_outside() {
        assert_eq!(huber_psi(1.5, 2.0), 1.5);
        assert_eq!(huber_psi(-1.5, 2.0), -1.5);
        assert_eq!(huber_psi(5.0, 2.0), 2.0);
        assert_eq!(huber_psi(-5.0, 2.0), -2.0);
        assert_eq!(huber_psi(0.0, 2.0), 0.0);
    }

    #[test]
    fn huber_is_odd_and_bounded() {
        for i in -50..=50 {
            let x = i as f64 / 5.0;
            let k = 2.0;
            assert_eq!(huber_psi(-x, k), -huber_psi(x, k));
            assert!(huber_psi(x, k).abs() <= k);
        }
    }

    #[test]
    fn biweight_zero_at_zero_saturates_at_ck() {
        assert_eq!(biweight_rho(0.0, 2.0, 2.52), 0.0);
        assert_eq!(biweight_rho(2.0, 2.0, 2.52), 2.52);
        assert_eq!(biweight_rho(100.0, 2.0, 2.52), 2.52);
        assert_eq!(biweight_rho(-100.0, 2.0, 2.52), 2.52);
    }

    #[test]
    fn biweight_monotone_on_positive_axis() {
        let mut prev = -1.0;
        for i in 0..=40 {
            let x = i as f64 / 10.0;
            let v = biweight_rho(x, 2.0, 2.52);
            assert!(v >= prev - 1e-12, "not monotone at {x}");
            prev = v;
        }
    }
}
