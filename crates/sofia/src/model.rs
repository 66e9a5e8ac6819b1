//! The `Sofia` façade: initialization → Holt-Winters fitting → streaming.
//!
//! Ties together the three phases of §V: Algorithm 1 on the start-up
//! window, per-component Holt-Winters fitting on the temporal factor, and
//! Algorithm 3 for every subsequent subtensor.

use crate::config::SofiaConfig;
use crate::dynamic::{DynStepOutput, DynamicState, UpdateOutput};
use crate::hw::HwBank;
use crate::init::{initialize_with_factors, InitResult};
use crate::traits::{StepOutput, StreamingFactorizer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sofia_tensor::random::random_factors;
use sofia_tensor::{DenseTensor, Matrix, ObservedTensor};

/// Errors arising when constructing a [`Sofia`] model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SofiaError {
    /// Fewer start-up slices than the configured `init_seasons · m`.
    TooFewSlices {
        /// Number of slices required.
        needed: usize,
        /// Number of slices given.
        got: usize,
    },
    /// Start-up slices do not all share one shape.
    InconsistentShapes,
}

impl std::fmt::Display for SofiaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SofiaError::TooFewSlices { needed, got } => write!(
                f,
                "need at least {needed} start-up slices (init_seasons × m), got {got}"
            ),
            SofiaError::InconsistentShapes => {
                write!(f, "start-up slices have inconsistent shapes")
            }
        }
    }
}

impl std::error::Error for SofiaError {}

/// SOFIA: seasonality-aware outlier-robust factorization of incomplete
/// streaming tensors.
///
/// Construct with [`Sofia::init`] on a start-up window (by convention 3
/// seasons of slices), then feed slices with [`Sofia::step`] and forecast
/// with [`Sofia::forecast_slice`].
#[derive(Debug, Clone)]
pub struct Sofia {
    config: SofiaConfig,
    dynamic: DynamicState,
}

impl Sofia {
    /// Runs the full initialization pipeline on `startup` slices:
    /// Algorithm 1 (robust smooth factorization), then Holt-Winters fitting
    /// on the temporal factor columns (§V-B). `seed` controls the random
    /// factor initialization.
    pub fn init(
        config: &SofiaConfig,
        startup: &[ObservedTensor],
        seed: u64,
    ) -> Result<Self, SofiaError> {
        let needed = config.startup_len().max(2 * config.period);
        if startup.len() < needed {
            return Err(SofiaError::TooFewSlices {
                needed,
                got: startup.len(),
            });
        }
        let shape = startup[0].shape().clone();
        if startup.iter().any(|s| s.shape() != &shape) {
            return Err(SofiaError::InconsistentShapes);
        }

        let slices: Vec<&ObservedTensor> = startup.iter().collect();
        let batch = ObservedTensor::stack(&slices);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut factors = random_factors(batch.shape().dims(), config.rank, &mut rng);
        let init_result = initialize_with_factors(&batch, config, &mut factors);
        Self::from_init_result(config, init_result)
    }

    /// Builds the streaming model from a completed Algorithm 1 result.
    fn from_init_result(config: &SofiaConfig, init_result: InitResult) -> Result<Self, SofiaError> {
        let mut factors = init_result.factors;
        let temporal = factors.pop().expect("at least two factors");
        let ti = temporal.rows();
        let m = config.period;
        debug_assert!(ti >= 2 * m, "checked by Sofia::init");

        // Fit one HW model per temporal component (§V-B). `ti ≥ 2m` is
        // enforced above, so fitting cannot fail on length.
        let hw = HwBank::fit(&temporal, m).expect("temporal factor long enough");

        // The last m temporal vectors seed the history window.
        let recent: Vec<Vec<f64>> = (ti - m..ti).map(|i| temporal.row(i).to_vec()).collect();

        let dynamic = DynamicState::new(config.clone(), factors, recent, hw);
        Ok(Self {
            config: config.clone(),
            dynamic,
        })
    }

    /// Rebuilds a model directly from a restored [`DynamicState`]
    /// (checkpoint loading; see [`crate::checkpoint`]).
    pub fn from_dynamic(config: &SofiaConfig, dynamic: DynamicState) -> Result<Self, SofiaError> {
        Ok(Self {
            config: config.clone(),
            dynamic,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SofiaConfig {
        &self.config
    }

    /// The streaming state (factors, HW bank, error scales).
    pub fn dynamic(&self) -> &DynamicState {
        &self.dynamic
    }

    /// Current non-temporal factor matrices.
    pub fn factors(&self) -> &[Matrix] {
        self.dynamic.factors()
    }

    /// Processes one streaming subtensor (Algorithm 3).
    pub fn step(&mut self, slice: &ObservedTensor) -> DynStepOutput {
        self.dynamic.step(slice)
    }

    /// The model update alone, without any dense tensor: `u_t`, the
    /// outliers as a list and the one-step forecast's residual (for
    /// scalability measurements and serving; see
    /// [`DynamicState::update_only`]).
    pub fn update_only(&mut self, slice: &ObservedTensor) -> UpdateOutput {
        self.dynamic.update_only(slice)
    }

    /// Forecasts the subtensor `h` steps past the last processed one
    /// (Eq. (28)).
    pub fn forecast_slice(&self, h: usize) -> DenseTensor {
        self.dynamic.forecast_slice(h)
    }

    /// The Holt-Winters forecast `û_{t+h|t}` of the temporal vector: the
    /// weights `w` of [`Sofia::forecast_slice`]'s Kruskal form
    /// `⟦{U⁽ⁿ⁾}; w⟧` over [`Sofia::factors`] (Eq. (28)).
    pub fn forecast_weights(&self, h: usize) -> Vec<f64> {
        self.dynamic.hw().forecast(h)
    }
}

impl StreamingFactorizer for Sofia {
    fn name(&self) -> &'static str {
        "SOFIA"
    }

    fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
        let out = Sofia::step(self, slice);
        StepOutput {
            completed: out.completed,
            outliers: Some(out.outliers),
        }
    }

    fn forecast(&self, h: usize) -> Option<DenseTensor> {
        Some(self.forecast_slice(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use sofia_tensor::{kruskal, Mask, Shape};

    /// Generates a rank-2 seasonal stream with optional corruption.
    struct StreamGen {
        a: Matrix,
        b: Matrix,
        m: usize,
    }

    impl StreamGen {
        fn new(m: usize) -> Self {
            Self {
                a: Matrix::from_fn(4, 2, |i, j| 0.8 + ((i + 2 * j) % 3) as f64 * 0.4),
                b: Matrix::from_fn(5, 2, |i, j| 1.2 - ((2 * i + j) % 4) as f64 * 0.3),
                m,
            }
        }

        fn temporal(&self, t: usize) -> Vec<f64> {
            let phase = 2.0 * std::f64::consts::PI * (t % self.m) as f64 / self.m as f64;
            vec![2.5 + 1.5 * phase.sin(), -1.0 + 0.8 * phase.cos()]
        }

        fn clean(&self, t: usize) -> DenseTensor {
            kruskal::kruskal_slice(&[&self.a, &self.b], &self.temporal(t))
        }

        fn corrupted(
            &self,
            t: usize,
            missing: f64,
            outlier_frac: f64,
            mag: f64,
            rng: &mut SmallRng,
        ) -> ObservedTensor {
            let clean = self.clean(t);
            let max = 10.0;
            let mut vals = clean.clone();
            for off in 0..vals.len() {
                if rng.gen::<f64>() < outlier_frac {
                    let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                    vals.set_flat(off, sign * mag * max);
                }
            }
            let mask = Mask::random(clean.shape().clone(), missing, rng);
            ObservedTensor::new(vals, mask)
        }
    }

    fn test_config(m: usize) -> SofiaConfig {
        SofiaConfig::new(2, m)
            .with_lambdas(0.01, 0.01, 10.0)
            .with_als_limits(1e-5, 40, 300)
    }

    #[test]
    fn init_rejects_short_startup() {
        let config = test_config(6);
        let gen = StreamGen::new(6);
        let slices: Vec<ObservedTensor> = (0..5)
            .map(|t| ObservedTensor::fully_observed(gen.clean(t)))
            .collect();
        let err = Sofia::init(&config, &slices, 1).unwrap_err();
        assert!(matches!(
            err,
            SofiaError::TooFewSlices { needed: 18, got: 5 }
        ));
    }

    #[test]
    fn init_rejects_inconsistent_shapes() {
        let config = SofiaConfig {
            init_seasons: 2,
            ..test_config(2)
        };
        let gen = StreamGen::new(2);
        let mut slices: Vec<ObservedTensor> = (0..4)
            .map(|t| ObservedTensor::fully_observed(gen.clean(t)))
            .collect();
        slices[2] = ObservedTensor::fully_observed(DenseTensor::zeros(Shape::new(&[2, 2])));
        assert_eq!(
            Sofia::init(&config, &slices, 1).unwrap_err(),
            SofiaError::InconsistentShapes
        );
    }

    #[test]
    fn clean_stream_end_to_end_low_error() {
        let m = 6;
        let config = test_config(m);
        let gen = StreamGen::new(m);
        let startup: Vec<ObservedTensor> = (0..3 * m)
            .map(|t| ObservedTensor::fully_observed(gen.clean(t)))
            .collect();
        let mut sofia = Sofia::init(&config, &startup, 7).unwrap();
        let mut total_rel = 0.0;
        let steps = 2 * m;
        for t in 3 * m..3 * m + steps {
            let truth = gen.clean(t);
            let out = sofia.step(&ObservedTensor::fully_observed(truth.clone()));
            total_rel += (&out.completed - &truth).frobenius_norm() / truth.frobenius_norm();
        }
        let avg = total_rel / steps as f64;
        assert!(avg < 0.1, "clean-stream average NRE {avg}");
    }

    #[test]
    fn corrupted_stream_still_tracks_truth() {
        let m = 6;
        let config = test_config(m);
        let gen = StreamGen::new(m);
        let mut rng = SmallRng::seed_from_u64(13);
        // (30% missing, 10% outliers of magnitude 5·max) — a mid-harsh
        // setting from §VI.
        let startup: Vec<ObservedTensor> = (0..3 * m)
            .map(|t| gen.corrupted(t, 0.3, 0.1, 5.0, &mut rng))
            .collect();
        let mut sofia = Sofia::init(&config, &startup, 3).unwrap();
        let steps = 3 * m;
        let mut total_rel = 0.0;
        for t in 3 * m..3 * m + steps {
            let truth = gen.clean(t);
            let slice = gen.corrupted(t, 0.3, 0.1, 5.0, &mut rng);
            let out = sofia.step(&slice);
            total_rel += (&out.completed - &truth).frobenius_norm() / truth.frobenius_norm();
        }
        let avg = total_rel / steps as f64;
        assert!(avg < 0.6, "corrupted-stream average NRE {avg}");
    }

    #[test]
    fn forecasting_after_stream() {
        let m = 6;
        let config = test_config(m);
        let gen = StreamGen::new(m);
        let startup: Vec<ObservedTensor> = (0..3 * m)
            .map(|t| ObservedTensor::fully_observed(gen.clean(t)))
            .collect();
        let mut sofia = Sofia::init(&config, &startup, 5).unwrap();
        let t_end = 6 * m;
        for t in 3 * m..t_end {
            sofia.step(&ObservedTensor::fully_observed(gen.clean(t)));
        }
        let mut total_rel = 0.0;
        let horizon = m;
        for h in 1..=horizon {
            let fc = sofia.forecast_slice(h);
            let truth = gen.clean(t_end + h - 1);
            total_rel += (&fc - &truth).frobenius_norm() / truth.frobenius_norm();
        }
        let avg = total_rel / horizon as f64;
        assert!(avg < 0.25, "average forecasting error {avg}");
    }

    #[test]
    fn trait_object_usable() {
        let m = 4;
        let config = SofiaConfig {
            init_seasons: 2,
            ..test_config(m)
        };
        let gen = StreamGen::new(m);
        let startup: Vec<ObservedTensor> = (0..2 * m)
            .map(|t| ObservedTensor::fully_observed(gen.clean(t)))
            .collect();
        let sofia = Sofia::init(&config, &startup, 5).unwrap();
        let mut boxed: Box<dyn StreamingFactorizer> = Box::new(sofia);
        assert_eq!(boxed.name(), "SOFIA");
        let out = boxed.step(&ObservedTensor::fully_observed(gen.clean(2 * m)));
        assert!(out.outliers.is_some());
        assert!(boxed.forecast(1).is_some());
    }

    #[test]
    fn deterministic_under_seed() {
        let m = 4;
        let config = SofiaConfig {
            init_seasons: 2,
            ..test_config(m)
        };
        let gen = StreamGen::new(m);
        let startup: Vec<ObservedTensor> = (0..2 * m)
            .map(|t| ObservedTensor::fully_observed(gen.clean(t)))
            .collect();
        let mut s1 = Sofia::init(&config, &startup, 11).unwrap();
        let mut s2 = Sofia::init(&config, &startup, 11).unwrap();
        let slice = ObservedTensor::fully_observed(gen.clean(2 * m));
        let o1 = s1.step(&slice);
        let o2 = s2.step(&slice);
        assert_eq!(o1.completed.data(), o2.completed.data());
    }
}
