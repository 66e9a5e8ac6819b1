//! Property tests for universal model snapshots: for **every**
//! snapshot-capable model in the workspace, `save → restore → step-N`
//! must be bit-exact against an uninterrupted run — not just for SOFIA.
//!
//! Covered: the served models (SOFIA, SMF, OnlineSGD) via the
//! `sofia_core::snapshot::{SnapshotModel, RestoreModel}` capability
//! traits, round-tripped through the tagged v2 checkpoint envelope
//! exactly as the fleet's durability layer does it.

use proptest::prelude::*;
use sofia::baselines::common::reconstruct_slice;
use sofia::baselines::{OnlineSgd, Smf};
use sofia::core::config::SofiaConfig;
use sofia::core::snapshot::{self, RestoreModel, SnapshotModel};
use sofia::core::traits::StreamingFactorizer;
use sofia::core::Sofia;
use sofia::datagen::seasonal::SeasonalStream;
use sofia::datagen::stream::TensorStream;
use sofia::tensor::random::random_factors;
use sofia::tensor::{Matrix, ObservedTensor};

/// Round-trips a served model through the v2 envelope (the exact path
/// the fleet's durability layer takes) and returns the restored model.
fn through_envelope<M: SnapshotModel + RestoreModel>(model: &M, steps: u64) -> M {
    let text = snapshot::wrap(model.snapshot_kind(), steps, &model.snapshot());
    let env = snapshot::parse(&text).expect("envelope parses");
    assert_eq!(env.kind, M::KIND);
    assert_eq!(env.steps, steps);
    M::restore(&env.payload).expect("payload restores")
}

/// Asserts two factorizers produce byte-identical outputs over `slices`.
fn assert_steps_bit_exact<M: StreamingFactorizer>(a: &mut M, b: &mut M, slices: &[ObservedTensor]) {
    for (t, slice) in slices.iter().enumerate() {
        let oa = a.step(slice);
        let ob = b.step(slice);
        assert_eq!(
            oa.completed.data(),
            ob.completed.data(),
            "completed diverged at step {t}"
        );
        match (&oa.outliers, &ob.outliers) {
            (None, None) => {}
            (Some(x), Some(y)) => assert_eq!(x.data(), y.data(), "outliers diverged at step {t}"),
            _ => panic!("outlier capability diverged at step {t}"),
        }
    }
}

proptest! {
    // The factorizer round-trips run warm-start ALS per case; keep the
    // case count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn online_sgd_roundtrip(seed in 0u64..1000, warm in 1usize..8) {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
        let truth = random_factors(&[4, 3], 2, &mut rng);
        let slice = |t: usize| {
            let w = vec![1.5 + (t as f64 * 0.4).sin(), -0.5 + (t as f64 * 0.3).cos()];
            ObservedTensor::fully_observed(reconstruct_slice(&truth, &w))
        };
        let startup: Vec<ObservedTensor> = (0..8).map(slice).collect();
        let mut model = OnlineSgd::init(&startup, 2, 0.1, seed);
        for t in 8..8 + warm {
            model.step(&slice(t));
        }
        let mut restored = through_envelope(&model, warm as u64);
        let future: Vec<ObservedTensor> = (8 + warm..16 + warm).map(slice).collect();
        assert_steps_bit_exact(&mut model, &mut restored, &future);
    }

    #[test]
    fn smf_roundtrip(seed in 0u64..1000, period in 3usize..6) {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
        let truth = random_factors(&[4, 3], 2, &mut rng);
        let slice = |t: usize| {
            let phase = 2.0 * std::f64::consts::PI * (t % period) as f64 / period as f64;
            let w = vec![2.0 + phase.sin(), -1.0 + 0.6 * phase.cos()];
            ObservedTensor::fully_observed(reconstruct_slice(&truth, &w))
        };
        let startup: Vec<ObservedTensor> = (0..2 * period).map(slice).collect();
        let mut model = Smf::init(&startup, 2, period, 0.1, seed);
        for t in 2 * period..3 * period {
            model.step(&slice(t));
        }
        let mut restored = through_envelope(&model, period as u64);
        let future: Vec<ObservedTensor> = (3 * period..5 * period).map(slice).collect();
        assert_steps_bit_exact(&mut model, &mut restored, &future);
        for h in 1..=period {
            let (a, b) = (model.forecast(h), restored.forecast(h));
            prop_assert_eq!(a.unwrap().data(), b.unwrap().data());
        }
    }
}

proptest! {
    // SOFIA initialization (ALS) dominates; a handful of cases over small
    // dims still exercises the full state surface (factors, history, HW
    // bank, sigma, steps).
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sofia_roundtrip(seed in 0u64..100, warm in 1usize..5) {
        let period = 4;
        let stream = SeasonalStream::paper_fig2(&[3, 3], 2, period, 900 + seed);
        let config = SofiaConfig::new(2, period)
            .with_lambdas(0.01, 0.01, 10.0)
            .with_als_limits(1e-3, 1, 30);
        let t0 = 3 * period;
        let startup: Vec<ObservedTensor> = (0..t0)
            .map(|t| ObservedTensor::fully_observed(stream.clean_slice(t)))
            .collect();
        let mut model = Sofia::init(&config, &startup, seed).expect("init");
        for t in t0..t0 + warm {
            StreamingFactorizer::step(&mut model, &ObservedTensor::fully_observed(stream.clean_slice(t)));
        }
        let mut restored = through_envelope(&model, warm as u64);
        let future: Vec<ObservedTensor> = (t0 + warm..t0 + warm + 2 * period)
            .map(|t| ObservedTensor::fully_observed(stream.clean_slice(t)))
            .collect();
        assert_steps_bit_exact(&mut model, &mut restored, &future);
        for h in 1..=period {
            prop_assert_eq!(
                model.forecast_slice(h).data(),
                restored.forecast_slice(h).data()
            );
        }
    }
}

/// Non-property sanity check: the three served kinds dispatch to three
/// distinct tags, so envelopes can never restore through the wrong impl.
#[test]
fn served_kind_tags_are_distinct() {
    let tags = [
        <Sofia as RestoreModel>::KIND,
        <Smf as RestoreModel>::KIND,
        <OnlineSgd as RestoreModel>::KIND,
    ];
    assert_eq!(tags, ["sofia", "smf", "online-sgd"]);
    let model = OnlineSgd::new(vec![Matrix::identity(2), Matrix::identity(2)], 0.1);
    assert_eq!(model.snapshot_kind(), <OnlineSgd as RestoreModel>::KIND);
}
