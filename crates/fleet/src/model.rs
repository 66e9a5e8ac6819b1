//! The model slot held by a shard: any [`StreamingFactorizer`] behind
//! **one uniform handle**, with an optional snapshot capability.
//!
//! Earlier revisions kept a two-variant enum (`Sofia` vs `Dyn`) so the
//! durability layer could reach the one concrete type it knew how to
//! serialize. With the v2 checkpoint envelope
//! ([`sofia_core::snapshot`]) durability is a *capability*, not a type:
//! the handle carries the model as a trait object plus an optional
//! [`SnapshotModel`] view, and one code path serves SOFIA, durable
//! baselines, and transient mocks alike.
//!
//! The handle also owns the **generic applied-steps counter**: every
//! [`ModelHandle::step`] increments it, it is seeded from the envelope on
//! restore, and it is what checkpoint cadence, eviction bookkeeping, and
//! `StreamStats::steps` report — uniformly across model kinds (SOFIA's
//! internal counter used to be the only source, leaving baselines stuck
//! at 0).

use sofia_core::snapshot::{self, SnapshotModel};
use sofia_core::traits::{StepOutput, StreamingFactorizer};
use sofia_core::Sofia;
use sofia_tensor::{DenseTensor, ObservedTensor};

/// Internal unification of "served model" and "maybe snapshot-capable".
///
/// Rust has no way to ask a `Box<dyn StreamingFactorizer>` whether its
/// concrete type *also* implements [`SnapshotModel`], so the capability
/// is captured at construction time by wrapping the concrete type in one
/// of two adapters below.
trait Served: Send {
    fn factorizer(&self) -> &dyn StreamingFactorizer;
    fn factorizer_mut(&mut self) -> &mut dyn StreamingFactorizer;
    fn snapshot_view(&self) -> Option<&dyn SnapshotModel>;
}

/// A served model without snapshot support.
struct Transient<M>(M);

impl<M: StreamingFactorizer + Send> Served for Transient<M> {
    fn factorizer(&self) -> &dyn StreamingFactorizer {
        &self.0
    }
    fn factorizer_mut(&mut self) -> &mut dyn StreamingFactorizer {
        &mut self.0
    }
    fn snapshot_view(&self) -> Option<&dyn SnapshotModel> {
        None
    }
}

/// A served model whose state survives crashes and eviction.
struct Durable<M>(M);

impl<M: StreamingFactorizer + SnapshotModel + Send> Served for Durable<M> {
    fn factorizer(&self) -> &dyn StreamingFactorizer {
        &self.0
    }
    fn factorizer_mut(&mut self) -> &mut dyn StreamingFactorizer {
        &mut self.0
    }
    fn snapshot_view(&self) -> Option<&dyn SnapshotModel> {
        Some(&self.0)
    }
}

/// A model instance owned by a shard worker: any
/// [`StreamingFactorizer`], plus an optional snapshot capability and the
/// generic applied-steps counter.
pub struct ModelHandle {
    served: Box<dyn Served>,
    steps: u64,
}

impl ModelHandle {
    /// Serves a model **without** durability: it is stepped and queried
    /// normally but skipped by checkpointing and never evicted (evicting
    /// it would lose its state).
    pub fn serve<M: StreamingFactorizer + Send + 'static>(model: M) -> Self {
        ModelHandle {
            served: Box::new(Transient(model)),
            steps: 0,
        }
    }

    /// Serves a snapshot-capable model: it is checkpointed by the
    /// durability policy, restored by [`crate::Fleet::recover`], and
    /// eligible for idle eviction.
    pub fn durable<M: StreamingFactorizer + SnapshotModel + Send + 'static>(model: M) -> Self {
        ModelHandle {
            served: Box::new(Durable(model)),
            steps: 0,
        }
    }

    /// Wraps a SOFIA model (durable; the steps counter is seeded from the
    /// model's own state so a model restored via `sofia-cli resume` keeps
    /// its history).
    pub fn sofia(model: Sofia) -> Self {
        let steps = model.dynamic().steps() as u64;
        ModelHandle::durable(model).with_steps(steps)
    }

    /// Overrides the applied-steps counter (restore paths seed it from
    /// the checkpoint envelope).
    pub(crate) fn with_steps(mut self, steps: u64) -> Self {
        self.steps = steps;
        self
    }

    /// Method name, as reported by the underlying model.
    pub fn name(&self) -> &'static str {
        self.served.factorizer().name()
    }

    /// Applies one streaming step and advances the applied-steps counter
    /// (the counter only moves on a completed step: if the model panics
    /// the increment never happens, matching the quarantine semantics).
    pub fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
        let out = self.served.factorizer_mut().step(slice);
        self.steps += 1;
        out
    }

    /// Forecasts `h` steps ahead, if the model supports forecasting.
    pub fn forecast(&self, h: usize) -> Option<DenseTensor> {
        self.served.factorizer().forecast(h)
    }

    /// [`ModelHandle::forecast`] behind a panic guard: a model assert
    /// (a horizon the concrete model rejects, arithmetic on exotic
    /// state) fails this one call — `Err(())` — instead of unwinding
    /// through the shard worker. Forecasting takes `&self`, so the
    /// model's state is untouched by the unwind and the stream keeps
    /// serving.
    pub(crate) fn forecast_guarded(&self, h: usize) -> Result<Option<DenseTensor>, ()> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.forecast(h))).map_err(|_| ())
    }

    /// The model's snapshot kind tag, or `None` for transient models.
    pub fn snapshot_kind(&self) -> Option<&'static str> {
        self.served.snapshot_view().map(|s| s.snapshot_kind())
    }

    /// Serializes the model as a tagged v2 checkpoint envelope, or `None`
    /// if the model has no snapshot capability.
    pub fn checkpoint_text(&self) -> Option<String> {
        let view = self.served.snapshot_view()?;
        Some(snapshot::wrap(
            view.snapshot_kind(),
            self.steps,
            &view.snapshot(),
        ))
    }

    /// Streaming steps applied so far — uniform across model kinds: the
    /// handle counts completed [`ModelHandle::step`] calls on top of
    /// whatever the checkpoint envelope (or SOFIA's own state) seeded.
    pub fn model_steps(&self) -> u64 {
        self.steps
    }
}

impl std::fmt::Debug for ModelHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ModelHandle({}, {}, {} steps)",
            self.name(),
            self.snapshot_kind().unwrap_or("transient"),
            self.steps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_core::snapshot::Envelope;
    use sofia_tensor::Shape;

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

    /// Echo with a (trivial) snapshot capability, for envelope tests.
    #[derive(Debug, Clone, Default)]
    struct DurableEcho;

    impl StreamingFactorizer for DurableEcho {
        fn name(&self) -> &'static str {
            "durable-echo"
        }
        fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
            StepOutput {
                completed: slice.values().clone(),
                outliers: None,
            }
        }
    }

    impl SnapshotModel for DurableEcho {
        fn snapshot_kind(&self) -> &'static str {
            "durable-echo"
        }
        fn snapshot(&self) -> String {
            "durable-echo-state\n".into()
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
        let out = h.step(&slice);
        assert_eq!(out.completed.data(), slice.values().data());
        assert!(h.forecast(1).is_none());
        assert!(h.checkpoint_text().is_none());
        assert_eq!(h.snapshot_kind(), None);
        // The generic counter moves even for transient models (this used
        // to be stuck at 0 for everything but SOFIA).
        assert_eq!(h.model_steps(), 1);
        h.step(&slice);
        assert_eq!(h.model_steps(), 2);
    }

    #[test]
    fn durable_handle_wraps_the_v2_envelope() {
        let mut h = ModelHandle::durable(DurableEcho);
        let slice = ObservedTensor::fully_observed(DenseTensor::full(Shape::new(&[2, 2]), 1.0));
        h.step(&slice);
        h.step(&slice);
        assert_eq!(h.snapshot_kind(), Some("durable-echo"));
        let text = h.checkpoint_text().expect("durable");
        let env = snapshot::parse(&text).expect("envelope");
        assert_eq!(
            env,
            Envelope {
                kind: "durable-echo".into(),
                steps: 2,
                payload: "durable-echo-state\n".into(),
            }
        );
    }

    #[test]
    fn restored_steps_seed_the_counter() {
        let h = ModelHandle::durable(DurableEcho).with_steps(41);
        assert_eq!(h.model_steps(), 41);
        let mut h = h;
        let slice = ObservedTensor::fully_observed(DenseTensor::full(Shape::new(&[1]), 0.0));
        h.step(&slice);
        assert_eq!(h.model_steps(), 42);
    }
}
