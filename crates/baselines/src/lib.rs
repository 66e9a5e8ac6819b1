//! # sofia-baselines
//!
//! The competitor methods SOFIA is evaluated against (Table I of the
//! paper), implemented on the same substrates:
//!
//! | Module | Method | Reference | Role in the paper |
//! |---|---|---|---|
//! | [`vanilla_als`] | ALS for incomplete tensors | Zhou et al. 2008 / CP-WOPT-style | Fig. 2 initialization baseline; CP step of CPHW |
//! | [`online_sgd`] | OnlineSGD | Mardani et al. 2015 | imputation competitor |
//! | [`olstec`] | OLSTEC (recursive least squares) | Kasai 2016 | imputation competitor |
//! | [`mast`] | MAST (sliding-window streaming completion) | Song et al. 2017 | imputation competitor |
//! | [`or_mstc`] | OR-MSTC (robust slab-outlier completion) | Najafi et al. 2019 | imputation competitor |
//! | [`smf`] | SMF (seasonal matrix factorization) | Hooi et al. 2019 | forecasting competitor |
//! | [`cphw`] | CPHW (batch CP + Holt-Winters) | Dunlavy et al. 2011 | forecasting competitor |
//!
//! BRST (Zhang & Hawkins 2018) is deliberately absent: the paper reports it
//! degenerates (estimates rank 0) on every evaluated stream and omits its
//! results; see DESIGN.md.
//!
//! MAST and OR-MSTC are faithful-in-spirit simplifications (the evaluation
//! only grows the time mode); DESIGN.md documents the substitutions.
//!
//! All methods implement [`sofia_core::traits::StreamingFactorizer`], so the
//! evaluation harness in `sofia-eval` drives them interchangeably. None of
//! them has a checkpoint format: the serving stack checkpoints SOFIA only.

// Numeric kernels index several parallel arrays at once; plain index
// loops are the clearest form for them.
#![allow(clippy::needless_range_loop)]

pub mod brst;
pub mod common;
pub mod cphw;
pub mod mast;
pub mod olstec;
pub mod online_sgd;
pub mod or_mstc;
pub mod smf;
pub mod vanilla_als;

pub use brst::Brst;
pub use cphw::CpHw;
pub use mast::Mast;
pub use olstec::Olstec;
pub use online_sgd::OnlineSgd;
pub use or_mstc::OrMstc;
pub use smf::Smf;
pub use vanilla_als::VanillaAls;

// Compile-time audit for the serving layer (`sofia-fleet`): every
// baseline must be movable onto a shard worker thread as
// `Box<dyn StreamingFactorizer + Send>`.
const _: fn() = || {
    fn assert_send_factorizer<T: Send + sofia_core::traits::StreamingFactorizer>() {}
    fn assert_send<T: Send>() {}
    assert_send_factorizer::<Brst>();
    assert_send_factorizer::<Mast>();
    assert_send_factorizer::<Olstec>();
    assert_send_factorizer::<OnlineSgd>();
    assert_send_factorizer::<OrMstc>();
    assert_send_factorizer::<Smf>();
    // CPHW and vanilla ALS are batch methods (no streaming interface) but
    // must still be movable across threads by experiment harnesses.
    assert_send::<CpHw>();
    assert_send::<VanillaAls>();
};
