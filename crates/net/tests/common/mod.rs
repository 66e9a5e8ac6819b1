//! Helpers shared by the event-loop test binaries (`evented`, `soak`).

use sofia_core::traits::{StepOutput, StreamingFactorizer};
use sofia_fleet::{Fleet, FleetConfig, ModelHandle, QueryResponse};
use sofia_tensor::{DenseTensor, ObservedTensor, Shape};

/// Cheapest possible served model: these tests measure the I/O layer,
/// not model work.
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
    fn forecast(&self, h: usize) -> Option<DenseTensor> {
        Some(DenseTensor::full(Shape::new(&[1]), h as f64))
    }
}

pub fn serving_fleet(streams: usize) -> (Fleet, Vec<String>) {
    let fleet = Fleet::new(FleetConfig {
        shards: 2,
        queue_capacity: 1024,
        checkpoint: None,
        evict_idle_after: None,
    })
    .expect("fleet");
    let ids: Vec<String> = (0..streams).map(|i| format!("stream-{i:03}")).collect();
    for id in &ids {
        fleet
            .register(id, ModelHandle::serve(Echo))
            .expect("register");
    }
    (fleet, ids)
}

pub fn expect_forecast_value(resp: QueryResponse) -> f64 {
    let QueryResponse::Forecast(Some(f)) = resp else {
        panic!("echo forecasts");
    };
    f.get(&[0])
}
