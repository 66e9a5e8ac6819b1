//! The model slot held by a shard: a SOFIA model, which the serving
//! layer checkpoints, or a transient [`StreamingFactorizer`], which it
//! only steps and queries.
//!
//! SOFIA is the one durable model kind. A SOFIA handle serializes its
//! model with [`checkpoint::save`] inside the v2 envelope
//! ([`sofia_core::snapshot`]) and is restored by
//! [`crate::durability::restore_handle`]; a transient handle (a test
//! double, say) has no checkpoint and is never evicted.
//!
//! The handle also owns the **applied-steps counter**: every step the
//! shard applies increments it, it is seeded from the envelope on
//! restore, and it is what checkpoint cadence, eviction bookkeeping, and
//! `StreamStats::steps` report.
//!
//! A shard steps a SOFIA model with the update alone
//! (`Sofia::update_only`), which builds no dense tensor, and keeps what
//! the paper's Eq. (27) needs to rebuild the slice: `u_t` and the outlier
//! list the update found (`LastStep`). The same update reports its
//! one-step forecast's residual, the stream's drift. Its `Latest` and
//! `Forecast` answers are the model's factors plus R weights
//! ([`Answer`]).

use crate::protocol::{Answer, KruskalSlice, QueryResponse, SparseOutliers};
use sofia_core::checkpoint;
use sofia_core::snapshot::{self, SOFIA_KIND};
use sofia_core::traits::{StepOutput, StreamingFactorizer};
use sofia_core::Sofia;
use sofia_tensor::{DenseTensor, Mask, ObservedTensor};

/// What a handle serves.
enum Served {
    /// Checkpointed, restored on recovery, eligible for idle eviction.
    Sofia(Box<Sofia>),
    /// Stepped and queried, but never checkpointed or evicted.
    Transient(Box<dyn StreamingFactorizer + Send>),
}

/// What a shard keeps of a stream's latest step, to answer `Latest` and
/// `OutlierMask` with.
pub(crate) enum LastStep {
    /// A transient model's output, as it returned it.
    Dense(StepOutput),
    /// A SOFIA step: the temporal vector `u_t` and the outliers `O_t`.
    /// The completed slice is `⟦U⁽¹⁾, …; u_t⟧` over the model's current
    /// factors, which only the next step changes — and that step
    /// replaces this value.
    Sofia {
        temporal: Vec<f64>,
        outliers: SparseOutliers,
    },
}

impl LastStep {
    /// The entries flagged as outliers (`None` for a model without
    /// outlier estimates).
    pub(crate) fn outlier_mask(&self) -> Option<Mask> {
        match self {
            LastStep::Dense(out) => out.outliers.as_ref().map(|o| SparseOutliers::of(o).mask()),
            LastStep::Sofia { outliers, .. } => Some(outliers.mask()),
        }
    }
}

/// A model instance owned by a shard worker, plus its applied-steps
/// counter.
pub struct ModelHandle {
    served: Served,
    steps: u64,
}

impl ModelHandle {
    /// Serves a model **without** durability: it is stepped and queried
    /// normally but skipped by checkpointing and never evicted (evicting
    /// it would lose its state).
    pub fn serve<M: StreamingFactorizer + Send + 'static>(model: M) -> Self {
        ModelHandle {
            served: Served::Transient(Box::new(model)),
            steps: 0,
        }
    }

    /// Serves a SOFIA model: it is checkpointed by the durability
    /// policy, restored by [`crate::Fleet::recover`], and eligible for
    /// idle eviction. The steps counter is seeded from the model's own
    /// state, so a model restored via `sofia-cli resume` keeps its
    /// history.
    pub fn sofia(model: Sofia) -> Self {
        let steps = model.dynamic().steps() as u64;
        ModelHandle {
            served: Served::Sofia(Box::new(model)),
            steps,
        }
    }

    /// Overrides the applied-steps counter (restore paths seed it from
    /// the checkpoint envelope).
    pub(crate) fn with_steps(mut self, steps: u64) -> Self {
        self.steps = steps;
        self
    }

    fn factorizer(&self) -> &dyn StreamingFactorizer {
        match &self.served {
            Served::Sofia(model) => model.as_ref(),
            Served::Transient(model) => model.as_ref(),
        }
    }

    /// Method name, as reported by the underlying model.
    pub fn name(&self) -> &'static str {
        self.factorizer().name()
    }

    /// Applies one streaming step and advances the applied-steps counter
    /// (the counter only moves on a completed step: if the model panics
    /// the increment never happens, matching the quarantine semantics).
    ///
    /// A SOFIA model runs the update alone (`Sofia::update_only`): no
    /// dense tensor is built, the outliers stay the list the update
    /// found, and the second value is the relative residual of the
    /// model's one-step forecast against the slice over its observed
    /// entries (`None` when nothing is observed). A transient model
    /// reports no residual.
    pub(crate) fn step(&mut self, slice: &ObservedTensor) -> (LastStep, Option<f64>) {
        let stepped = match &mut self.served {
            Served::Sofia(model) => {
                let update = model.update_only(slice);
                let last = LastStep::Sofia {
                    temporal: update.temporal,
                    outliers: SparseOutliers::new(slice.shape().clone(), update.outliers),
                };
                (last, update.residual.relative())
            }
            Served::Transient(model) => (LastStep::Dense(model.step(slice)), None),
        };
        self.steps += 1;
        stepped
    }

    /// Answers `Latest` from the stream's last step (`None` before its
    /// first): a SOFIA step as a copy of the current factors weighted by
    /// `u_t`, plus its outlier list.
    pub(crate) fn latest(&self, last: Option<&LastStep>) -> Answer {
        match (last, &self.served) {
            (None, _) => Answer::dense(QueryResponse::Latest(None)),
            (Some(LastStep::Dense(out)), _) => {
                Answer::dense(QueryResponse::Latest(Some(out.clone())))
            }
            (Some(LastStep::Sofia { temporal, outliers }), Served::Sofia(model)) => Answer::latest(
                KruskalSlice::new(model.factors().to_vec(), temporal.clone()),
                outliers.clone(),
            ),
            (Some(LastStep::Sofia { .. }), Served::Transient(_)) => {
                unreachable!("only a SOFIA model takes a SOFIA step")
            }
        }
    }

    /// Forecasts `h` steps ahead, if the model supports forecasting.
    pub fn forecast(&self, h: usize) -> Option<DenseTensor> {
        self.factorizer().forecast(h)
    }

    /// Answers `Forecast { horizon: h }` behind a panic guard: a SOFIA
    /// model's forecast as a copy of its factors weighted by the
    /// Holt-Winters forecast `û_{t+h|t}` (Eq. (28)), any other model's
    /// dense forecast. A model assert (a horizon the concrete model
    /// rejects, arithmetic on exotic state) fails this one call —
    /// `Err(())` — instead of unwinding through the shard worker.
    /// Forecasting takes `&self`, so the model's state is untouched by
    /// the unwind and the stream keeps serving.
    pub(crate) fn forecast_answer(&self, h: usize) -> Result<Answer, ()> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &self.served {
            Served::Sofia(model) => Answer::forecast(KruskalSlice::new(
                model.factors().to_vec(),
                model.forecast_weights(h),
            )),
            Served::Transient(model) => Answer::dense(QueryResponse::Forecast(model.forecast(h))),
        }))
        .map_err(|_| ())
    }

    /// Whether the model is checkpointed (SOFIA) rather than transient.
    pub(crate) fn is_durable(&self) -> bool {
        matches!(self.served, Served::Sofia(_))
    }

    /// Serializes a SOFIA model as a tagged v2 checkpoint envelope, or
    /// `None` for a transient model.
    pub fn checkpoint_text(&self) -> Option<String> {
        match &self.served {
            Served::Sofia(model) => Some(snapshot::wrap(
                SOFIA_KIND,
                self.steps,
                &checkpoint::save(model),
            )),
            Served::Transient(_) => None,
        }
    }

    /// Streaming steps applied so far: the handle counts the steps the
    /// shard completed on top of whatever the checkpoint envelope (or
    /// SOFIA's own state) seeded.
    pub fn model_steps(&self) -> u64 {
        self.steps
    }
}

impl std::fmt::Debug for ModelHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.is_durable() {
            SOFIA_KIND
        } else {
            "transient"
        };
        write!(
            f,
            "ModelHandle({}, {kind}, {} steps)",
            self.name(),
            self.steps
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sofia_core::SofiaConfig;
    use sofia_datagen::seasonal::SeasonalStream;
    use sofia_datagen::stream::TensorStream;
    use sofia_tensor::Shape;

    /// Seasonal period of [`sofia_slice`]'s streams.
    const PERIOD: usize = 4;

    /// Length of [`small_sofia`]'s start-up window.
    pub(crate) const STARTUP: usize = 3 * PERIOD;

    /// Slice `t` of a small synthetic seasonal stream (3×3, rank 2);
    /// `seed` picks the stream.
    pub(crate) fn sofia_slice(seed: u64, t: usize) -> ObservedTensor {
        let stream = SeasonalStream::paper_fig2(&[3, 3], 2, PERIOD, seed);
        ObservedTensor::fully_observed(stream.clean_slice(t))
    }

    /// A small SOFIA model warm-started on slices `0..STARTUP` of stream
    /// `seed`; stream it from [`STARTUP`] on.
    pub(crate) fn small_sofia(seed: u64) -> Sofia {
        let startup: Vec<ObservedTensor> = (0..STARTUP).map(|t| sofia_slice(seed, t)).collect();
        let config = SofiaConfig::new(2, PERIOD).with_als_limits(1e-4, 2, 50);
        Sofia::init(&config, &startup, seed).expect("init")
    }

    /// Minimal non-SOFIA model for engine tests: echoes the observed
    /// values as the completion.
    #[derive(Debug, Clone, Default)]
    pub struct Echo;

    impl StreamingFactorizer for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
            StepOutput {
                completed: slice.values().clone(),
                outliers: None,
            }
        }
    }

    // The whole point of the handle: it must be movable into shard
    // worker threads.
    const _: fn() = || {
        fn assert_send<T: Send>() {}
        assert_send::<ModelHandle>();
    };

    #[test]
    fn transient_handle_serves_and_counts_but_does_not_checkpoint() {
        let mut h = ModelHandle::serve(Echo);
        assert_eq!(h.name(), "echo");
        let slice = ObservedTensor::fully_observed(DenseTensor::full(Shape::new(&[2, 2]), 3.0));
        match h.step(&slice) {
            (LastStep::Dense(out), None) => {
                assert_eq!(out.completed.data(), slice.values().data())
            }
            (LastStep::Dense(_), Some(_)) => panic!("a transient model reports no drift"),
            (LastStep::Sofia { .. }, _) => panic!("a transient model keeps its own output"),
        }
        assert!(h.forecast(1).is_none());
        assert!(h.checkpoint_text().is_none());
        assert!(!h.is_durable());
        // The counter moves for transient models too.
        assert_eq!(h.model_steps(), 1);
        h.step(&slice);
        assert_eq!(h.model_steps(), 2);
    }

    #[test]
    fn restored_steps_seed_the_counter() {
        let h = ModelHandle::sofia(small_sofia(1)).with_steps(41);
        assert!(h.is_durable());
        assert_eq!(h.model_steps(), 41);
        let mut h = h;
        h.step(&sofia_slice(1, STARTUP));
        assert_eq!(h.model_steps(), 42);
        let text = h.checkpoint_text().expect("SOFIA is durable");
        assert!(text.starts_with("sofia-checkpoint v2\nmodel sofia\nsteps 42\n"));
    }
}
