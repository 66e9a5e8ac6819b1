//! Tensor shapes, row-major strides, and multi-index iteration.

use std::fmt;

/// The shape of an N-way tensor: the length of each mode.
///
/// Row-major (C-order) layout is used throughout the workspace: the last
/// mode varies fastest. For a shape `[I1, …, IN]` the flat offset of the
/// multi-index `(i1, …, iN)` is `Σ_n i_n · stride_n` with
/// `stride_N = 1` and `stride_n = stride_{n+1} · I_{n+1}`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
    strides: Vec<usize>,
}

impl Shape {
    /// Creates a shape from mode lengths.
    ///
    /// # Panics
    /// Panics if `dims` is empty or any mode length is zero.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "tensor must have at least one mode");
        assert!(
            dims.iter().all(|&d| d > 0),
            "all mode lengths must be positive, got {dims:?}"
        );
        let mut strides = vec![1usize; dims.len()];
        for n in (0..dims.len() - 1).rev() {
            strides[n] = strides[n + 1] * dims[n + 1];
        }
        Self {
            dims: dims.to_vec(),
            strides,
        }
    }

    /// The number of modes (the order `N` of the tensor).
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode lengths.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Length of mode `n`.
    #[inline]
    pub fn dim(&self, n: usize) -> usize {
        self.dims[n]
    }

    /// Total number of entries `Π_n I_n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when the tensor has no entries. Since all mode lengths are
    /// positive this is always false, but the method keeps clippy and
    /// callers that expect the `len`/`is_empty` pair happy.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat row-major offset of a multi-index.
    ///
    /// # Panics
    /// Panics (debug builds) if the index rank or any coordinate is out of
    /// bounds.
    #[inline]
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.dims.len(), "index rank mismatch");
        let mut off = 0;
        for (n, &i) in index.iter().enumerate() {
            debug_assert!(
                i < self.dims[n],
                "index {i} out of bounds for mode {n} (len {})",
                self.dims[n]
            );
            off += i * self.strides[n];
        }
        off
    }

    /// Inverse of [`Shape::offset`]: the multi-index of a flat offset, the
    /// reference that [`Shape::unravel_into`] is tested against.
    #[cfg(test)]
    fn unravel(&self, mut offset: usize) -> Vec<usize> {
        debug_assert!(offset < self.len(), "offset out of bounds");
        let mut idx = vec![0usize; self.dims.len()];
        for n in 0..self.dims.len() {
            idx[n] = offset / self.strides[n];
            offset %= self.strides[n];
        }
        idx
    }

    /// Writes the multi-index of `offset` into `out` (must have length
    /// `order()`). Avoids an allocation in hot loops.
    #[inline]
    pub fn unravel_into(&self, mut offset: usize, out: &mut [usize]) {
        debug_assert_eq!(out.len(), self.dims.len());
        for n in 0..self.dims.len() {
            out[n] = offset / self.strides[n];
            offset %= self.strides[n];
        }
    }

    /// Iterates over all multi-indices in row-major order.
    pub fn indices(&self) -> IndexIter<'_> {
        IndexIter {
            shape: self,
            next: Some(vec![0; self.dims.len()]),
        }
    }

    /// Shape of the tensor with mode `drop` removed (used when slicing the
    /// temporal mode off a streaming tensor).
    pub fn without_mode(&self, drop: usize) -> Shape {
        assert!(drop < self.dims.len());
        assert!(self.dims.len() > 1, "cannot drop the only mode");
        let dims: Vec<usize> = self
            .dims
            .iter()
            .enumerate()
            .filter(|&(n, _)| n != drop)
            .map(|(_, &d)| d)
            .collect();
        Shape::new(&dims)
    }

    /// Shape of the tensor with an extra mode of length `len` appended
    /// (used when stacking subtensors along a new temporal mode).
    pub fn with_appended_mode(&self, len: usize) -> Shape {
        let mut dims = self.dims.clone();
        dims.push(len);
        Shape::new(&dims)
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let strs: Vec<String> = self.dims.iter().map(|d| d.to_string()).collect();
        write!(f, "{}", strs.join("×"))
    }
}

/// Row-major iterator over all multi-indices of a [`Shape`].
pub struct IndexIter<'a> {
    shape: &'a Shape,
    next: Option<Vec<usize>>,
}

impl Iterator for IndexIter<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.take()?;
        let mut succ = current.clone();
        // Increment like an odometer, last mode fastest.
        let mut n = self.shape.order();
        loop {
            if n == 0 {
                // Overflow: iteration finished.
                self.next = None;
                break;
            }
            n -= 1;
            succ[n] += 1;
            if succ[n] < self.shape.dim(n) {
                self.next = Some(succ);
                break;
            }
            succ[n] = 0;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        let unit_steps = [[1, 0, 0], [0, 1, 0], [0, 0, 1]].map(|idx| s.offset(&idx));
        assert_eq!(unit_steps, [12, 4, 1]);
        assert_eq!(s.len(), 24);
        assert_eq!(s.order(), 3);
    }

    #[test]
    fn offset_and_unravel_roundtrip() {
        let s = Shape::new(&[3, 4, 5]);
        for off in 0..s.len() {
            let idx = s.unravel(off);
            assert_eq!(s.offset(&idx), off);
        }
    }

    #[test]
    fn unravel_into_matches_unravel() {
        let s = Shape::new(&[3, 5, 2]);
        let mut buf = vec![0usize; 3];
        for off in 0..s.len() {
            s.unravel_into(off, &mut buf);
            assert_eq!(buf, s.unravel(off));
        }
    }

    #[test]
    fn indices_cover_all_offsets_in_order() {
        let s = Shape::new(&[2, 2, 3]);
        let all: Vec<Vec<usize>> = s.indices().collect();
        assert_eq!(all.len(), s.len());
        for (off, idx) in all.iter().enumerate() {
            assert_eq!(s.offset(idx), off);
        }
    }

    #[test]
    fn single_mode_shape() {
        let s = Shape::new(&[7]);
        assert_eq!(s.offset(&[4]), 4);
        assert_eq!(s.unravel(4), vec![4]);
    }

    #[test]
    fn without_mode_drops_correct_dim() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.without_mode(0).dims(), &[3, 4]);
        assert_eq!(s.without_mode(1).dims(), &[2, 4]);
        assert_eq!(s.without_mode(2).dims(), &[2, 3]);
    }

    #[test]
    fn with_appended_mode_extends() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.with_appended_mode(9).dims(), &[2, 3, 9]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        Shape::new(&[2, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one mode")]
    fn empty_shape_rejected() {
        Shape::new(&[]);
    }

    #[test]
    fn display_formats_dims() {
        let s = Shape::new(&[3, 4]);
        assert_eq!(format!("{s}"), "3×4");
    }
}
