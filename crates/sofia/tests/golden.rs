//! Golden-bit pins for the two paths every SOFIA model runs: SOFIA_ALS
//! (Algorithm 2) from fixed start factors, and the streaming update
//! (Algorithm 3) of a `Sofia` rebuilt through `Sofia::from_dynamic`.
//!
//! Each test folds the IEEE 754 bit patterns of its outputs into
//! digests and compares them with constants recorded from a known-good
//! build. A refactor of these paths must reproduce every output bit for
//! bit; "close" fails. Every input is plain arithmetic on small
//! constants (no random factors, no `sin`/`cos`), so the digests do not
//! depend on the host's libm.

use sofia_core::als::{reconstruct, sofia_als, AlsOptions};
use sofia_core::dynamic::DynamicState;
use sofia_core::hw::HwBank;
use sofia_core::{Sofia, SofiaConfig};
use sofia_tensor::{kruskal, DenseTensor, Mask, Matrix, ObservedTensor};
use sofia_timeseries::holt_winters::{HoltWinters, HwParams, HwState};

/// FNV-1a-style fold of the values' bit patterns, in order.
fn digest<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

fn factors_digest(factors: &[Matrix]) -> u64 {
    digest(factors.iter().flat_map(|f| f.data()))
}

/// A partially observed slice of `values`: entry `off` is observed
/// unless `hidden(off)`.
fn masked(values: DenseTensor, hidden: impl Fn(&[usize]) -> bool) -> ObservedTensor {
    let shape = values.shape().clone();
    let observed = shape.indices().map(|idx| !hidden(&idx)).collect();
    ObservedTensor::new(values, Mask::from_vec(shape, observed))
}

#[test]
fn sofia_als_from_fixed_start_factors_is_bit_stable() {
    let period = 4;
    let a = Matrix::from_fn(4, 2, |i, k| 1.0 + 0.5 * ((i + 2 * k) % 3) as f64);
    let b = Matrix::from_fn(3, 2, |i, k| 2.0 - 0.25 * ((2 * i + k) % 4) as f64);
    let w = Matrix::from_fn(8, 2, |t, k| {
        [3.0, 5.0, 4.0, 2.0][(t + k) % period] + 0.125 * t as f64
    });
    let truth = kruskal::kruskal(&[&a, &b, &w]);
    // A quarter of the entries missing, all of time step 6 (the
    // smoothness terms alone place it), and all of mode-0 row 3 (its
    // factor row keeps its start value).
    let data = masked(truth, |idx| {
        (idx[0] + 2 * idx[1] + 3 * idx[2]) % 4 == 0 || idx[2] == 6 || idx[0] == 3
    });
    let mut factors = vec![
        Matrix::from_fn(4, 2, |i, k| 0.5 + 0.125 * ((3 * i + k) % 5) as f64),
        Matrix::from_fn(3, 2, |i, k| 1.0 - 0.25 * ((i + 3 * k) % 3) as f64),
        Matrix::from_fn(8, 2, |t, k| 1.0 + 0.0625 * ((5 * t + 3 * k) % 7) as f64),
    ];
    let opts = AlsOptions {
        lambda1: 0.1,
        lambda2: 0.05,
        period,
        tol: 0.0,
        max_iters: 6,
    };
    let stats = sofia_als(&data, data.values(), &mut factors, &opts);
    assert_eq!(stats.iterations, 6);
    let got = [
        ("fitness", stats.fitness.to_bits()),
        ("factors", factors_digest(&factors)),
        ("completed", digest(reconstruct(&factors).data())),
    ];
    assert_eq!(
        got,
        [
            ("fitness", 0x3fee_ccd4_b059_d55e),
            ("factors", 0xa7ee_20ca_cd3c_46a0),
            ("completed", 0xc023_b7ab_e403_b93a),
        ]
    );
}

#[test]
fn sofia_stream_from_dynamic_state_is_bit_stable() {
    let m = 4;
    let config = SofiaConfig::new(2, m).with_lambdas(0.01, 0.01, 50.0);
    let a = Matrix::from_fn(3, 2, |i, k| 0.75 + 0.25 * ((i + k) % 3) as f64);
    let b = Matrix::from_fn(4, 2, |j, k| 1.5 - 0.25 * ((3 * j + k) % 4) as f64);
    let season = |t: usize| vec![[3.0, 5.0, 4.0, 2.0][t % m], 1.0 + 0.25 * (t % m) as f64];
    let recent: Vec<Vec<f64>> = (0..m).map(season).collect();
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
    let dynamic = DynamicState::new(config.clone(), vec![a.clone(), b.clone()], recent, hw);
    let mut sofia = Sofia::from_dynamic(&config, dynamic).expect("restorable state");

    let mut completed = Vec::new();
    let mut outliers = Vec::new();
    for t in m..4 * m {
        let mut values = kruskal::kruskal_slice(&[&a, &b], &season(t));
        if t == 7 {
            // One gross outlier at an observed entry.
            values.set(&[1, 2], 60.0);
        }
        let slice = masked(values, |idx| (idx[0] + idx[1] + t) % 3 == 0);
        let out = sofia.step(&slice);
        if t == 7 {
            assert_ne!(out.outliers.get(&[1, 2]), 0.0, "the outlier is caught");
        }
        completed.extend_from_slice(out.completed.data());
        outliers.extend_from_slice(out.outliers.data());
    }
    let forecasts: Vec<f64> = (1..=m)
        .flat_map(|h| sofia.forecast_slice(h).data().to_vec())
        .collect();
    let got = [
        ("factors", factors_digest(sofia.factors())),
        ("completed", digest(&completed)),
        ("outliers", digest(&outliers)),
        ("forecasts", digest(&forecasts)),
    ];
    assert_eq!(
        got,
        [
            ("factors", 0x8ea4_3500_c0fb_83cf),
            ("completed", 0x7284_c1db_0409_b20f),
            ("outliers", 0xee66_9c07_d647_eeff),
            ("forecasts", 0x7e90_a018_56a2_2fb1),
        ]
    );
}
