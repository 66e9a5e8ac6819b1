//! A tensor paired with its observation mask — the `(Y, Ω)` pairs that all
//! streaming algorithms consume.

use crate::dense::DenseTensor;
use crate::mask::Mask;
use crate::shape::Shape;

/// A (possibly partially observed) tensor: values `Y` plus indicator `Ω`.
///
/// Values at unobserved positions are meaningless and must be ignored; the
/// constructors zero them out to make accidental use visible in tests.
#[derive(Clone, Debug, PartialEq)]
pub struct ObservedTensor {
    values: DenseTensor,
    mask: Mask,
}

impl ObservedTensor {
    /// Pairs values with a mask. Unobserved positions are zeroed.
    ///
    /// # Panics
    /// Panics if shapes disagree.
    pub fn new(values: DenseTensor, mask: Mask) -> Self {
        assert_eq!(values.shape(), mask.shape(), "values/mask shape mismatch");
        let values = mask.apply(&values);
        Self { values, mask }
    }

    /// Fully observed tensor.
    pub fn fully_observed(values: DenseTensor) -> Self {
        let mask = Mask::all_observed(values.shape().clone());
        Self { values, mask }
    }

    /// The observed values (zero at unobserved positions).
    #[inline]
    pub fn values(&self) -> &DenseTensor {
        &self.values
    }

    /// The observation mask.
    #[inline]
    pub fn mask(&self) -> &Mask {
        &self.mask
    }

    /// Shape of the tensor.
    #[inline]
    pub fn shape(&self) -> &Shape {
        self.values.shape()
    }

    /// Number of observed entries `|Ω|`.
    #[inline]
    pub fn count_observed(&self) -> usize {
        self.mask.count_observed()
    }

    /// Iterates over `(flat_offset, value)` for observed entries.
    pub fn observed_entries(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.mask
            .observed_offsets()
            .iter()
            .map(move |&off| (off, self.values.get_flat(off)))
    }

    /// Stacks `(N-1)`-way observed slices into an N-way observed tensor
    /// with time as the trailing mode (Algorithm 1's `Y_init`, `Ω_init`).
    pub fn stack(slices: &[&ObservedTensor]) -> ObservedTensor {
        let vals: Vec<&DenseTensor> = slices.iter().map(|s| s.values()).collect();
        let masks: Vec<&Mask> = slices.iter().map(|s| s.mask()).collect();
        ObservedTensor {
            values: DenseTensor::stack(&vals),
            mask: Mask::stack(&masks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_zeroes_unobserved() {
        let s = Shape::new(&[2, 2]);
        let v = DenseTensor::from_vec(s.clone(), vec![1.0, 2.0, 3.0, 4.0]);
        let m = Mask::from_vec(s, vec![true, false, true, false]);
        let obs = ObservedTensor::new(v, m);
        assert_eq!(obs.values().data(), &[1.0, 0.0, 3.0, 0.0]);
        assert_eq!(obs.count_observed(), 2);
    }

    #[test]
    fn observed_entries_iterates_pairs() {
        let s = Shape::new(&[2, 2]);
        let v = DenseTensor::from_vec(s.clone(), vec![1.0, 2.0, 3.0, 4.0]);
        let m = Mask::from_vec(s, vec![false, true, false, true]);
        let obs = ObservedTensor::new(v, m);
        let entries: Vec<(usize, f64)> = obs.observed_entries().collect();
        assert_eq!(entries, vec![(1, 2.0), (3, 4.0)]);
    }

    #[test]
    fn stack_slice_roundtrip() {
        let s = Shape::new(&[2, 2]);
        let a = ObservedTensor::new(
            DenseTensor::from_vec(s.clone(), vec![1.0, 2.0, 3.0, 4.0]),
            Mask::from_vec(s.clone(), vec![true, true, false, false]),
        );
        let b = ObservedTensor::new(
            DenseTensor::from_vec(s.clone(), vec![5.0, 6.0, 7.0, 8.0]),
            Mask::from_vec(s, vec![false, true, true, true]),
        );
        let stacked = ObservedTensor::stack(&[&a, &b]);
        assert_eq!(stacked.shape().dims(), &[2, 2, 2]);
        assert_eq!(stacked.count_observed(), 5);
        assert_eq!(stacked.mask().observed_offsets(), &[0, 2, 3, 5, 7]);
        assert_eq!(stacked.values().slice_last_mode(0), *a.values());
        assert_eq!(stacked.values().slice_last_mode(1), *b.values());
    }

    #[test]
    fn fully_observed_has_all_entries() {
        let s = Shape::new(&[3]);
        let obs = ObservedTensor::fully_observed(DenseTensor::from_vec(s, vec![1.0, 2.0, 3.0]));
        assert_eq!(obs.count_observed(), 3);
    }
}
