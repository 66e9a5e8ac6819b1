//! # sofia-core
//!
//! SOFIA: **S**easonality-aware **O**utlier-robust **F**actorization of
//! **I**ncomplete stre**A**ming tensors (Lee & Shin, ICDE 2021).
//!
//! SOFIA factorizes a stream of partially observed, outlier-contaminated
//! subtensors `Y_1, Y_2, …` online, imputing missing entries and
//! forecasting future subtensors. It couples three mutually reinforcing
//! components:
//!
//! 1. **Smooth CP factorization** — CP factorization with temporal and
//!    seasonal smoothness penalties on the temporal factor matrix
//!    (Eq. (10)/(11); [`als`], [`init`]);
//! 2. **Outlier removal** — Huber pre-cleaning of observations against
//!    one-step-ahead forecasts with a per-entry error-scale tensor
//!    (Eqs. (21)-(22); [`dynamic`]);
//! 3. **Temporal-pattern modelling** — an additive Holt-Winters model per
//!    CP component of the temporal factor (Eq. (26); [`hw`]).
//!
//! The top-level façade is [`model::Sofia`]; the generic streaming
//! interface implemented by SOFIA and every baseline is
//! [`traits::StreamingFactorizer`].
//!
//! ## Quick example
//!
//! ```
//! use sofia_core::config::SofiaConfig;
//! use sofia_core::model::Sofia;
//! use sofia_tensor::{DenseTensor, ObservedTensor, Shape};
//!
//! // A tiny rank-1 seasonal stream: X_t[i,j] = a_i * b_j * s(t).
//! let m = 6; // seasonal period
//! let slice = |t: usize| {
//!     let s = 1.5 + (2.0 * std::f64::consts::PI * t as f64 / m as f64).sin();
//!     ObservedTensor::fully_observed(DenseTensor::from_fn(
//!         Shape::new(&[3, 4]),
//!         |idx| (idx[0] + 1) as f64 * (idx[1] + 1) as f64 * s,
//!     ))
//! };
//! let config = SofiaConfig::new(2, m);
//! let init: Vec<_> = (0..3 * m).map(slice).collect();
//! let mut sofia = Sofia::init(&config, &init, 42).unwrap();
//! // Stream a few more slices and reconstruct them.
//! for t in 3 * m..3 * m + 4 {
//!     let out = sofia.step(&slice(t));
//!     assert_eq!(out.completed.shape().dims(), &[3, 4]);
//! }
//! ```

// Numeric kernels index several parallel arrays at once; plain index
// loops are the clearest form for them.
#![allow(clippy::needless_range_loop)]

pub mod als;
pub mod checkpoint;
pub mod config;
pub mod dynamic;
pub mod hw;
pub mod init;
pub mod model;
pub mod snapshot;
pub mod traits;

pub use config::SofiaConfig;
pub use model::Sofia;
pub use snapshot::{RestoreModel, SnapshotModel};
pub use traits::{StepOutput, StreamingFactorizer};
