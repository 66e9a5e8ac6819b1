//! Random tensor and factor generation helpers shared across the workspace.

use crate::dense::DenseTensor;
use crate::matrix::Matrix;
use crate::shape::Shape;
use rand::Rng;

/// Standard normal sample via Box-Muller (avoids pulling in
/// `rand_distr`; two uniforms → one normal).
#[inline]
pub fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
    // Guard against log(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Tensor with i.i.d. `N(0, sigma²)` entries.
pub fn gaussian_tensor(shape: Shape, sigma: f64, rng: &mut impl Rng) -> DenseTensor {
    DenseTensor::from_fn(shape, |_| sigma * sample_standard_normal(rng))
}

/// Factor matrix with i.i.d. `N(0, 1)` entries — the "randomly initialize
/// {U⁽ⁿ⁾}" step of Algorithm 1 (line 4).
pub fn gaussian_factor(rows: usize, rank: usize, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, rank, |_, _| sample_standard_normal(rng))
}

/// A full set of random factor matrices for the given tensor dimensions.
pub fn random_factors(dims: &[usize], rank: usize, rng: &mut impl Rng) -> Vec<Matrix> {
    dims.iter()
        .map(|&d| gaussian_factor(d, rank, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = SmallRng::seed_from_u64(100);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gaussian_tensor_scales_with_sigma() {
        let mut rng = SmallRng::seed_from_u64(101);
        let t = gaussian_tensor(Shape::new(&[100, 100]), 3.0, &mut rng);
        let n = t.len() as f64;
        let var = t.data().iter().map(|v| v * v).sum::<f64>() / n;
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn random_factors_match_dims() {
        let mut rng = SmallRng::seed_from_u64(103);
        let f = random_factors(&[3, 7, 11], 4, &mut rng);
        assert_eq!(f.len(), 3);
        assert_eq!(f[0].rows(), 3);
        assert_eq!(f[1].rows(), 7);
        assert_eq!(f[2].rows(), 11);
        assert!(f.iter().all(|m| m.cols() == 4));
    }

    #[test]
    fn deterministic_under_seed() {
        let mut r1 = SmallRng::seed_from_u64(42);
        let mut r2 = SmallRng::seed_from_u64(42);
        let a = gaussian_tensor(Shape::new(&[4, 4]), 1.0, &mut r1);
        let b = gaussian_tensor(Shape::new(&[4, 4]), 1.0, &mut r2);
        assert_eq!(a.data(), b.data());
    }
}
