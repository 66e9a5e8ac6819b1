//! Dense row-major N-way tensors of `f64`.

use crate::shape::Shape;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A dense N-way tensor stored in row-major order.
///
/// This is the workhorse value type of the workspace: streaming subtensors
/// `Y_t`, outlier tensors `O_t`, error-scale tensors `Σ̂_t`, and
/// reconstructions `X̂_t` are all `DenseTensor`s.
///
/// ```
/// use sofia_tensor::{DenseTensor, Shape};
///
/// let mut x = DenseTensor::zeros(Shape::new(&[2, 3]));
/// x.set(&[1, 2], 4.0);
/// assert_eq!(x.get(&[1, 2]), 4.0);
/// assert_eq!(x.frobenius_norm(), 4.0);
/// let doubled = &x + &x;
/// assert_eq!(doubled.get(&[1, 2]), 8.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct DenseTensor {
    shape: Shape,
    data: Vec<f64>,
}

impl DenseTensor {
    /// All-zero tensor of the given shape.
    pub fn zeros(shape: Shape) -> Self {
        let len = shape.len();
        Self {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Tensor with every entry set to `value`.
    pub fn full(shape: Shape, value: f64) -> Self {
        let len = shape.len();
        Self {
            shape,
            data: vec![value; len],
        }
    }

    /// Builds a tensor from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {} ({} entries)",
            data.len(),
            shape,
            shape.len()
        );
        Self { shape, data }
    }

    /// Builds a tensor by evaluating `f` at every multi-index.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        let mut idx = vec![0usize; shape.order()];
        for off in 0..shape.len() {
            shape.unravel_into(off, &mut idx);
            data.push(f(&idx));
        }
        Self { shape, data }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero entries (never true for valid shapes).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
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

    /// Entry at a multi-index.
    #[inline]
    pub fn get(&self, index: &[usize]) -> f64 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the entry at a multi-index.
    #[inline]
    pub fn set(&mut self, index: &[usize], value: f64) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Entry at a flat row-major offset.
    #[inline]
    pub fn get_flat(&self, offset: usize) -> f64 {
        self.data[offset]
    }

    /// Sets the entry at a flat row-major offset.
    #[inline]
    pub fn set_flat(&mut self, offset: usize, value: f64) {
        self.data[offset] = value;
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new tensor with `f` applied to every entry.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Frobenius norm `‖X‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry value.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).fold(0.0f64, f64::max)
    }

    /// Stacks `(N-1)`-way slices into an N-way tensor whose **last** mode
    /// indexes the slices. This is how streaming subtensors
    /// `Y_1, …, Y_t` are concatenated into the batch tensor
    /// `Y_init` of Algorithm 1.
    ///
    /// # Panics
    /// Panics if `slices` is empty or shapes disagree.
    pub fn stack(slices: &[&DenseTensor]) -> DenseTensor {
        assert!(!slices.is_empty(), "cannot stack zero slices");
        let base = slices[0].shape().clone();
        for s in slices {
            assert_eq!(s.shape(), &base, "all stacked slices must share a shape");
        }
        let out_shape = base.with_appended_mode(slices.len());
        let mut out = DenseTensor::zeros(out_shape);
        // Row-major with time appended as the last mode means entries of a
        // slice are strided by the number of slices.
        let t_count = slices.len();
        for (t, s) in slices.iter().enumerate() {
            for (off, &v) in s.data().iter().enumerate() {
                out.data[off * t_count + t] = v;
            }
        }
        out
    }

    /// Extracts the `(N-1)`-way slice at position `t` of the **last** mode.
    /// Inverse of [`DenseTensor::stack`].
    pub fn slice_last_mode(&self, t: usize) -> DenseTensor {
        let n = self.shape.order();
        assert!(n >= 2, "need at least 2 modes to slice");
        let t_count = self.shape.dim(n - 1);
        assert!(t < t_count, "slice index out of bounds");
        let out_shape = self.shape.without_mode(n - 1);
        let mut data = Vec::with_capacity(out_shape.len());
        for off in 0..out_shape.len() {
            data.push(self.data[off * t_count + t]);
        }
        DenseTensor::from_vec(out_shape, data)
    }

    fn assert_same_shape(&self, other: &Self) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
    }
}

impl fmt::Debug for DenseTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DenseTensor({}, ", self.shape)?;
        if self.len() <= 16 {
            write!(f, "{:?})", self.data)
        } else {
            write!(f, "[{} entries])", self.len())
        }
    }
}

impl Add<&DenseTensor> for &DenseTensor {
    type Output = DenseTensor;
    fn add(self, rhs: &DenseTensor) -> DenseTensor {
        self.assert_same_shape(rhs);
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a + b)
            .collect();
        DenseTensor {
            shape: self.shape.clone(),
            data,
        }
    }
}

impl Sub<&DenseTensor> for &DenseTensor {
    type Output = DenseTensor;
    fn sub(self, rhs: &DenseTensor) -> DenseTensor {
        self.assert_same_shape(rhs);
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a - b)
            .collect();
        DenseTensor {
            shape: self.shape.clone(),
            data,
        }
    }
}

impl AddAssign<&DenseTensor> for DenseTensor {
    fn add_assign(&mut self, rhs: &DenseTensor) {
        self.assert_same_shape(rhs);
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&DenseTensor> for DenseTensor {
    fn sub_assign(&mut self, rhs: &DenseTensor) {
        self.assert_same_shape(rhs);
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &DenseTensor {
    type Output = DenseTensor;
    fn mul(self, rhs: f64) -> DenseTensor {
        self.map(|v| v * rhs)
    }
}

impl Neg for &DenseTensor {
    type Output = DenseTensor;
    fn neg(self) -> DenseTensor {
        self.map(|v| -v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t123() -> DenseTensor {
        DenseTensor::from_vec(Shape::new(&[2, 3]), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn zeros_and_full() {
        let z = DenseTensor::zeros(Shape::new(&[2, 2]));
        assert_eq!(z.data(), &[0.0; 4]);
        let f = DenseTensor::full(Shape::new(&[2, 2]), 3.0);
        assert_eq!(f.data(), &[3.0; 4]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = DenseTensor::zeros(Shape::new(&[2, 3, 4]));
        t.set(&[1, 2, 3], 9.5);
        assert_eq!(t.get(&[1, 2, 3]), 9.5);
        assert_eq!(t.get(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn from_fn_matches_indices() {
        let t = DenseTensor::from_fn(Shape::new(&[3, 4]), |idx| (idx[0] * 10 + idx[1]) as f64);
        assert_eq!(t.get(&[2, 3]), 23.0);
        assert_eq!(t.get(&[0, 1]), 1.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = t123();
        let b = t123();
        let sum = &a + &b;
        assert_eq!(sum.get(&[1, 2]), 12.0);
        let diff = &sum - &a;
        assert_eq!(diff.data(), a.data());
        let scaled = &a * 2.0;
        assert_eq!(scaled.get(&[0, 1]), 4.0);
        let neg = -&a;
        assert_eq!(neg.get(&[0, 0]), -1.0);
    }

    #[test]
    fn frobenius_norm_known_value() {
        let a = t123();
        let expected = (1.0f64 + 4.0 + 9.0 + 16.0 + 25.0 + 36.0).sqrt();
        assert!((a.frobenius_norm() - expected).abs() < 1e-12);
    }

    #[test]
    fn max_abs_ignores_sign() {
        let t = DenseTensor::from_vec(Shape::new(&[4]), vec![-7.0, 2.0, 5.0, -1.0]);
        assert_eq!(t.max_abs(), 7.0);
    }

    #[test]
    fn stack_and_slice_roundtrip() {
        let s0 = t123();
        let s1 = s0.map(|v| v + 100.0);
        let stacked = DenseTensor::stack(&[&s0, &s1]);
        assert_eq!(stacked.shape().dims(), &[2, 3, 2]);
        assert_eq!(stacked.get(&[1, 2, 0]), 6.0);
        assert_eq!(stacked.get(&[1, 2, 1]), 106.0);
        let back0 = stacked.slice_last_mode(0);
        let back1 = stacked.slice_last_mode(1);
        assert_eq!(back0.data(), s0.data());
        assert_eq!(back1.data(), s1.data());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let a = t123();
        let b = DenseTensor::zeros(Shape::new(&[3, 2]));
        let _ = &a + &b;
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_mismatch_panics() {
        DenseTensor::from_vec(Shape::new(&[2, 2]), vec![1.0]);
    }

    #[test]
    fn map_does_not_mutate_original() {
        let a = t123();
        let b = a.map(|v| v * 3.0);
        assert_eq!(a.get(&[0, 0]), 1.0);
        assert_eq!(b.get(&[0, 0]), 3.0);
    }
}
