//! # sofia-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! SOFIA paper (the README's "Reproducing the paper's figures" section
//! lists them; `docs/DESIGN.md` lists where the reproduction departs from
//! the paper). Each `src/bin/figN.rs` / `tableN.rs` binary prints the
//! rows/series the paper reports and writes CSV files under `results/`.
//!
//! This library crate holds the shared machinery:
//!
//! * [`args`] — minimal CLI parsing (`--scale`, `--out`, `--full`, …);
//! * [`suite`] — construction of SOFIA and the baseline methods with the
//!   paper's per-dataset hyper-parameters;
//! * [`experiments`] — the imputation experiment engine shared by
//!   Figs. 1, 3, 4, and 5;
//! * [`matching`] — factor-matching (permutation/sign/scale alignment)
//!   used to score recovered temporal factors in Fig. 2.

// Numeric kernels index several parallel arrays at once; plain index
// loops are the clearest form for them.
#![allow(clippy::needless_range_loop)]

pub mod args;
pub mod experiments;
pub mod matching;
pub mod suite;
