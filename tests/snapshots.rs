//! The bytes a SOFIA stream checkpoints, and the round trip through
//! them: `save → wrap → parse → load → step-N` must be bit-exact against
//! an uninterrupted run, exactly as the fleet's durability layer does it,
//! and the envelope a served SOFIA stream writes is pinned byte for byte.

use proptest::prelude::*;
use sofia::core::checkpoint;
use sofia::core::config::SofiaConfig;
use sofia::core::dynamic::DynamicState;
use sofia::core::hw::HwBank;
use sofia::core::snapshot::{self, SOFIA_KIND};
use sofia::core::traits::StreamingFactorizer;
use sofia::core::Sofia;
use sofia::datagen::seasonal::SeasonalStream;
use sofia::datagen::stream::TensorStream;
use sofia::fleet::durability::restore_handle;
use sofia::fleet::ModelHandle;
use sofia::tensor::{kruskal, Mask, Matrix, ObservedTensor};
use sofia::timeseries::holt_winters::{HoltWinters, HwParams, HwState};

/// Round-trips a SOFIA model through the v2 envelope (the exact path
/// the fleet's durability layer takes) and returns the restored model.
fn through_envelope(model: &Sofia, steps: u64) -> Sofia {
    let text = snapshot::wrap(SOFIA_KIND, steps, &checkpoint::save(model));
    let env = snapshot::parse(&text).expect("envelope parses");
    assert_eq!(env.kind, SOFIA_KIND);
    assert_eq!(env.steps, steps);
    checkpoint::load(&env.payload).expect("payload restores")
}

/// Asserts two models produce byte-identical outputs over `slices`.
fn assert_steps_bit_exact(a: &mut Sofia, b: &mut Sofia, slices: &[ObservedTensor]) {
    for (t, slice) in slices.iter().enumerate() {
        let oa = StreamingFactorizer::step(a, slice);
        let ob = StreamingFactorizer::step(b, slice);
        assert_eq!(
            oa.completed.data(),
            ob.completed.data(),
            "completed diverged at step {t}"
        );
        match (&oa.outliers, &ob.outliers) {
            (Some(x), Some(y)) => assert_eq!(x.data(), y.data(), "outliers diverged at step {t}"),
            _ => panic!("SOFIA reports outliers at every step {t}"),
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

/// FNV-1a over the bytes of a text.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A SOFIA model built through `Sofia::from_dynamic` from plain
/// arithmetic on small constants (no random factors, no libm), as in
/// `crates/sofia/tests/golden.rs`, then stepped over partially observed
/// seasonal slices with one gross outlier, so every state block
/// (factors, history, Holt-Winters bank, sigma, steps) has moved.
fn arithmetic_sofia(steps: usize) -> Sofia {
    let m = 4;
    let config = SofiaConfig::new(2, m).with_lambdas(0.01, 0.01, 50.0);
    let a = Matrix::from_fn(3, 2, |i, k| 0.75 + 0.25 * ((i + k) % 3) as f64);
    let b = Matrix::from_fn(4, 2, |j, k| 1.5 - 0.25 * ((3 * j + k) % 4) as f64);
    let season = |t: usize| vec![[3.0, 5.0, 4.0, 2.0][t % m], 1.0 + 0.25 * (t % m) as f64];
    let hw = HwBank::from_models(vec![
        HoltWinters::new(
            HwParams::new(0.3, 0.1, 0.2),
            HwState::new(3.5, 0.0, vec![-0.5, 1.5, 0.5, -1.5], 0),
        ),
        HoltWinters::new(
            HwParams::new(0.25, 0.05, 0.15),
            HwState::new(1.375, 0.03125, vec![-0.375, -0.125, 0.125, 0.375], 0),
        ),
    ]);
    let recent = (0..m).map(season).collect();
    let dynamic = DynamicState::new(config.clone(), vec![a.clone(), b.clone()], recent, hw);
    let mut model = Sofia::from_dynamic(&config, dynamic).expect("restorable state");
    for t in m..m + steps {
        let mut values = kruskal::kruskal_slice(&[&a, &b], &season(t));
        if t == m + 2 {
            values.set(&[1, 2], 60.0);
        }
        let shape = values.shape().clone();
        let observed = shape
            .indices()
            .map(|idx| (idx[0] + idx[1] + t) % 3 != 0)
            .collect();
        let slice = ObservedTensor::new(values, Mask::from_vec(shape, observed));
        StreamingFactorizer::step(&mut model, &slice);
    }
    model
}

/// The bytes a SOFIA stream checkpoints, registers and exports: the v2
/// envelope header, then exactly the v1 text of `checkpoint::save`,
/// pinned by digest so a change to either layer shows up here.
#[test]
fn sofia_envelope_bytes_are_pinned() {
    let model = arithmetic_sofia(6);
    let text = ModelHandle::sofia(model.clone())
        .checkpoint_text()
        .expect("a SOFIA stream is durable");
    let payload = checkpoint::save(&model);
    assert_eq!(
        text,
        format!("sofia-checkpoint v2\nmodel sofia\nsteps 6\n{payload}")
    );
    assert_eq!((text.len(), fnv1a(&text)), (1286, 0x0848_ee72_d9e4_96db));
    let restored = restore_handle("pinned", &text).expect("the envelope restores");
    assert_eq!(restored.checkpoint_text().as_deref(), Some(text.as_str()));
}
