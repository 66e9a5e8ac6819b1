//! # sofia-tensor
//!
//! Dense N-way tensor algebra substrate for the SOFIA reproduction.
//!
//! The crate provides exactly the tensor machinery the paper relies on
//! (Section III of Lee & Shin, ICDE 2021):
//!
//! * [`Shape`] — shapes, row-major strides, and multi-index iteration;
//! * [`DenseTensor`] — a dense row-major N-way tensor of `f64`;
//! * [`Mask`] — binary observation indicators (the tensor `Ω` of Eq. (3));
//! * [`Matrix`] — a small dense row-major matrix used for factor matrices;
//! * [`kruskal`] — the Kruskal operator `⟦U⁽¹⁾,…,U⁽ᴺ⁾⟧` and Khatri-Rao
//!   products (Eq. (1)-(2));
//! * [`unfold`] — mode-n matricization and its inverse;
//! * [`linalg`] — Cholesky / LU solves and related small-matrix kernels
//!   needed by the row-wise ALS updates (Theorems 1 and 2).
//!
//! Everything is implemented from scratch on `Vec<f64>`; no external
//! linear-algebra crates are used. All kernels iterate over observed
//! entries only where a mask is involved, which is what gives SOFIA its
//! `O(|Ω_t|·N·R)` per-step complexity (Lemma 2 of the paper).
//!
//! ## Quick example
//!
//! ```
//! use sofia_tensor::{DenseTensor, Matrix, kruskal};
//!
//! // A rank-1 3-way tensor built from three factor vectors.
//! let u = Matrix::from_rows(&[&[1.0], &[2.0]]);           // 2 x 1
//! let v = Matrix::from_rows(&[&[3.0], &[4.0], &[5.0]]);   // 3 x 1
//! let w = Matrix::from_rows(&[&[1.0], &[-1.0]]);          // 2 x 1
//! let x = kruskal::kruskal(&[&u, &v, &w]);
//! assert_eq!(x.shape().dims(), &[2, 3, 2]);
//! assert_eq!(x.get(&[1, 2, 0]), 2.0 * 5.0 * 1.0);
//! ```

// Numeric kernels index several parallel arrays at once; plain index
// loops are the clearest form for them.
#![allow(clippy::needless_range_loop)]

pub mod dense;
pub mod kruskal;
pub mod linalg;
pub mod mask;
pub mod matrix;
pub mod norms;
pub mod observed;
pub mod random;
pub mod shape;
pub mod unfold;

pub use dense::DenseTensor;
pub use mask::Mask;
pub use matrix::Matrix;
pub use observed::ObservedTensor;
pub use shape::Shape;
