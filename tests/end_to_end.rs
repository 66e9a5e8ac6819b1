//! Cross-crate integration tests: the full SOFIA pipeline (datagen →
//! corruption → init → streaming → forecasting → metrics) on realistic
//! workloads, plus the paper's headline qualitative claims in miniature.

use sofia::core::model::Sofia;
use sofia::datagen::corrupt::{CorruptionConfig, Corruptor};
use sofia::datagen::datasets::Dataset;
use sofia::datagen::seasonal::SeasonalStream;
use sofia::datagen::stream::TensorStream;
use sofia::eval::metrics::afe;
use sofia::eval::runner::{evaluate_forecasts, run_stream, startup_window, StreamConfig};
use sofia::{SofiaConfig, StreamingFactorizer};

fn quick_config(rank: usize, m: usize) -> SofiaConfig {
    SofiaConfig::new(rank, m)
        .with_lambdas(0.01, 0.01, 10.0)
        .with_als_limits(1e-4, 1, 150)
}

#[test]
fn sofia_full_pipeline_on_dataset_proxy() {
    let dataset = Dataset::NycTaxi;
    let stream = dataset.scaled_stream(0.08, 3);
    let m = stream.period();
    let setting = CorruptionConfig::from_percents(30, 15, 3.0);
    let corruptor = Corruptor::new(setting, stream.max_abs_over_season(), 3);

    let startup = startup_window(&stream, &corruptor, 3 * m);
    let config = quick_config(dataset.paper_rank(), m);
    let mut sofia = Sofia::init(&config, &startup, 7).expect("init");

    let summary = run_stream(
        &mut sofia,
        &stream,
        &corruptor,
        StreamConfig {
            start: 3 * m,
            end: 3 * m + 4 * m,
        },
    );
    assert_eq!(summary.method, "SOFIA");
    assert_eq!(summary.steps.len(), 4 * m);
    assert!(
        summary.rae() < 0.6,
        "RAE on corrupted NYC proxy: {}",
        summary.rae()
    );

    // Forecasting still works after streaming.
    let fc = evaluate_forecasts(&sofia, &stream, 7 * m, m).expect("forecasts");
    assert!(fc.afe() < 0.8, "AFE {}", fc.afe());
}

#[test]
fn sofia_beats_itself_without_robustness_under_outliers() {
    // Ablation: the same model run with the Huber gate effectively
    // disabled (huge λ₃ ⇒ huge σ̂ seed ⇒ nothing is ever clipped) must be
    // worse on an outlier-ridden stream.
    let m = 12;
    let stream = SeasonalStream::paper_fig2(&[10, 10], 2, m, 5);
    let setting = CorruptionConfig::from_percents(10, 15, 5.0);
    let corruptor = Corruptor::new(setting, stream.max_abs_over_season(), 11);
    let startup = startup_window(&stream, &corruptor, 3 * m);

    let run = |lambda3: f64| -> f64 {
        // λ₃ affects both init thresholding and the σ̂ seed (λ₃/100).
        let config = SofiaConfig::new(2, m)
            .with_lambdas(0.01, 0.01, lambda3)
            .with_als_limits(1e-4, 1, 150);
        let mut model = Sofia::init(&config, &startup, 9).expect("init");
        let summary = run_stream(
            &mut model,
            &stream,
            &corruptor,
            StreamConfig {
                start: 3 * m,
                end: 3 * m + 3 * m,
            },
        );
        summary.rae()
    };

    let robust = run(10.0);
    let gate_disabled = run(1e6);
    assert!(
        robust < gate_disabled,
        "robust {robust} should beat gate-disabled {gate_disabled}"
    );
}

#[test]
fn imputation_error_grows_with_corruption_severity() {
    // Fig. 3/4 monotonicity claim: harsher settings give higher RAE.
    let dataset = Dataset::NycTaxi;
    let stream = dataset.scaled_stream(0.08, 13);
    let m = stream.period();
    let config = quick_config(dataset.paper_rank(), m);

    let rae_at = |setting: CorruptionConfig| -> f64 {
        let corruptor = Corruptor::new(setting, stream.max_abs_over_season(), 5);
        let startup = startup_window(&stream, &corruptor, 3 * m);
        let mut model = Sofia::init(&config, &startup, 3).expect("init");
        run_stream(
            &mut model,
            &stream,
            &corruptor,
            StreamConfig {
                start: 3 * m,
                end: 3 * m + 3 * m,
            },
        )
        .rae()
    };

    let mild = rae_at(CorruptionConfig::from_percents(10, 5, 2.0));
    let harsh = rae_at(CorruptionConfig::from_percents(70, 20, 5.0));
    assert!(
        mild < harsh,
        "mild setting ({mild}) should beat harsh ({harsh})"
    );
}

#[test]
fn forecasting_robust_to_missingness_on_stable_season() {
    // Fig. 6's Network-Traffic observation: with a strong stable seasonal
    // pattern, SOFIA's AFE changes little as missingness grows.
    let dataset = Dataset::NetworkTraffic;
    let stream = dataset.scaled_stream(0.25, 19);
    let m = stream.period();
    let config = quick_config(dataset.paper_rank(), m);
    let t_hist = 4 * m;
    let t_f = m / 2;

    let afe_at = |missing: u32| -> f64 {
        let setting = CorruptionConfig::from_percents(missing, 20, 5.0);
        let corruptor = Corruptor::new(setting, stream.max_abs_over_season(), 23);
        let startup = startup_window(&stream, &corruptor, 3 * m);
        let mut model = Sofia::init(&config, &startup, 5).expect("init");
        for t in 3 * m..t_hist {
            model.update_only(&corruptor.corrupt(&stream.clean_slice(t), t));
        }
        let pairs: Vec<_> = (1..=t_f)
            .map(|h| (model.forecast_slice(h), stream.clean_slice(t_hist + h - 1)))
            .collect();
        afe(&pairs)
    };

    let afe0 = afe_at(0);
    let afe50 = afe_at(50);
    // The absolute AFE on this proxy sits at 0.53–0.68 across RNG seeds
    // (the headline claim this test pins is the *ratio* below, not the
    // absolute level); 0.7 bounds the sane range without knife-edging on
    // the vendored RNG's particular stream.
    assert!(afe0 < 0.7, "AFE at 0% missing: {afe0}");
    // Within a factor ~2.5 despite half the data vanishing.
    assert!(
        afe50 < afe0.max(0.08) * 2.5 + 0.1,
        "AFE at 50% missing ({afe50}) should stay close to 0% ({afe0})"
    );
}

#[test]
fn streaming_factorizer_trait_is_object_safe_across_crates() {
    let m = 8;
    let stream = SeasonalStream::paper_fig2(&[6, 6], 2, m, 21);
    let corruptor = Corruptor::new(
        CorruptionConfig::from_percents(20, 10, 2.0),
        stream.max_abs_over_season(),
        1,
    );
    let startup = startup_window(&stream, &corruptor, 3 * m);
    let config = quick_config(2, m);

    let mut methods: Vec<Box<dyn StreamingFactorizer>> = vec![
        Box::new(Sofia::init(&config, &startup, 1).expect("init")),
        Box::new(sofia::baselines::OnlineSgd::init(&startup, 2, 0.1, 1)),
        Box::new(sofia::baselines::Olstec::init(&startup, 2, 0.9, 1)),
        Box::new(sofia::baselines::Mast::init(&startup, 2, 4, 0.9, 1, 1)),
        Box::new(sofia::baselines::OrMstc::init(
            &startup, 2, 4, 0.9, 1, 1.0, 1,
        )),
        Box::new(sofia::baselines::Smf::init(&startup, 2, m, 0.1, 1)),
    ];
    let slice = corruptor.corrupt(&stream.clean_slice(3 * m), 3 * m);
    for method in &mut methods {
        let out = method.step(&slice);
        assert_eq!(out.completed.shape(), stream.slice_shape());
    }
}

#[test]
fn sofia_outlier_tensor_localizes_injected_outliers() {
    // Detection quality made explicit: the non-zero entries of O_t should
    // have high recall on the corruptor's ground-truth injections.
    use sofia::eval::detection::{score_step, DetectionCounts};
    let m = 12;
    let stream = SeasonalStream::paper_fig2(&[10, 10], 2, m, 17);
    let setting = CorruptionConfig::from_percents(20, 10, 5.0);
    let corruptor = Corruptor::new(setting, stream.max_abs_over_season(), 29);
    let startup = startup_window(&stream, &corruptor, 3 * m);
    let config = quick_config(2, m);
    let mut model = Sofia::init(&config, &startup, 5).expect("init");

    let mut totals = DetectionCounts::default();
    for t in 3 * m..6 * m {
        let (slice, injected) = corruptor.corrupt_labeled(&stream.clean_slice(t), t);
        let out = StreamingFactorizer::step(&mut model, &slice);
        let o = out.outliers.expect("SOFIA reports outliers");
        // Threshold well below the injected magnitude but above noise.
        totals.add(score_step(&o, &injected, 1.0));
    }
    assert!(
        totals.recall() > 0.9,
        "outlier recall {} (counts {totals:?})",
        totals.recall()
    );
    assert!(
        totals.precision() > 0.5,
        "outlier precision {} (counts {totals:?})",
        totals.precision()
    );
}

/// The drift residual SOFIA's update sums from its own one-step forecast
/// ŷ (Eq. (20)) is the dense formula a serving layer would compute: the
/// pre-step `forecast_slice(1)` against the slice at Ω. Pinned at each
/// benchmark workload's shape and corruption (265×265 at R=5 with 90%
/// missing, 12×10 and 24×20 at R=4), over 100 steps each. The update's
/// ŷ associates its product differently from the kernel, so the two may
/// differ in their last bits, never by more than 1e-14 relative.
#[test]
fn fused_forecast_residual_matches_the_dense_formula() {
    use sofia::core::dynamic::DynamicState;
    use sofia::core::hw::HwBank;

    const STEPS: usize = 100;
    let workloads = [
        (
            Dataset::NycTaxi.stream(2021),
            5,
            CorruptionConfig::from_percents(90, 10, 5.0),
        ),
        (
            SeasonalStream::paper_fig2(&[12, 10], 4, 8, 2021),
            4,
            CorruptionConfig::from_percents(20, 10, 2.0),
        ),
        (
            SeasonalStream::paper_fig2(&[24, 20], 4, 8, 2021),
            4,
            CorruptionConfig::from_percents(30, 15, 3.0),
        ),
    ];
    for (stream, rank, corruption) in workloads {
        let m = stream.period();
        let config = SofiaConfig::new(rank, m).with_lambdas(0.01, 0.01, 10.0);
        // Start from the ground truth: the residual then measures the
        // corruption and whatever the stream teaches the model.
        let temporal = stream.temporal_matrix(3 * m);
        let recent = (2 * m..3 * m).map(|t| temporal.row(t).to_vec()).collect();
        let hw = HwBank::fit(&temporal, m).expect("three seasons");
        let dynamic = DynamicState::new(config.clone(), stream.factors().to_vec(), recent, hw);
        let mut sofia = Sofia::from_dynamic(&config, dynamic).expect("model");
        let corruptor = Corruptor::new(corruption, stream.max_abs_over_season(), 7);
        for t in 3 * m..3 * m + STEPS {
            let slice = corruptor.corrupt(&stream.clean_slice(t), t);
            let forecast = sofia.forecast_slice(1);
            let (mut num, mut den) = (0.0, 0.0);
            for (off, y) in slice.observed_entries() {
                let d = forecast.get_flat(off) - y;
                num += d * d;
                den += y * y;
            }
            let dense = (num / den).sqrt();
            let residual = sofia.update_only(&slice).residual;
            assert_eq!(residual.observed, slice.count_observed());
            assert_eq!(residual.sq_observed.to_bits(), den.to_bits());
            let fused = residual.relative().expect("observed entries");
            assert!(
                (fused - dense).abs() <= 1e-14 * dense,
                "{:?} t={t}: fused {fused} vs dense {dense}",
                slice.shape()
            );
        }
    }
}
