//! The paper's evaluation metrics (§VI-A).
//!
//! * **NRE** (Normalized Residual Error): `‖X̂_t − X_t‖_F / ‖X_t‖_F` per
//!   step;
//! * **RAE** (Running Average Error): the mean NRE over the stream;
//! * **AFE** (Average Forecasting Error): mean normalized error of
//!   h-step-ahead forecasts over the forecast horizon;
//! * **ART** (Average Running Time): mean per-step processing time,
//!   excluding initialization.

use sofia_tensor::norms::relative_error;
use sofia_tensor::DenseTensor;
use std::time::Duration;

/// Per-step record produced by the streaming runner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Stream time index `t`.
    pub t: usize,
    /// Normalized residual error at `t`.
    pub nre: f64,
    /// Wall time spent processing the subtensor at `t`.
    pub elapsed: Duration,
}

/// Aggregate over a full stream run.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Method name.
    pub method: String,
    /// Per-step records (excluding initialization).
    pub steps: Vec<StepRecord>,
}

impl StreamSummary {
    /// Running average error: `(1/T)·Σ_t NRE_t`.
    pub fn rae(&self) -> f64 {
        if self.steps.is_empty() {
            return f64::NAN;
        }
        self.steps.iter().map(|s| s.nre).sum::<f64>() / self.steps.len() as f64
    }

    /// Average running time per subtensor, in seconds.
    pub fn art_seconds(&self) -> f64 {
        if self.steps.is_empty() {
            return f64::NAN;
        }
        self.steps
            .iter()
            .map(|s| s.elapsed.as_secs_f64())
            .sum::<f64>()
            / self.steps.len() as f64
    }
}

/// Average forecasting error over a horizon of `(forecast, truth)` pairs:
/// `(1/t_f)·Σ_h ‖Ŷ_{t+h|t} − X_{t+h}‖_F / ‖X_{t+h}‖_F`.
pub fn afe(pairs: &[(DenseTensor, DenseTensor)]) -> f64 {
    if pairs.is_empty() {
        return f64::NAN;
    }
    pairs
        .iter()
        .map(|(fc, truth)| relative_error(fc, truth))
        .sum::<f64>()
        / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_tensor::Shape;

    fn summary(nres: &[f64]) -> StreamSummary {
        StreamSummary {
            method: "test".into(),
            steps: nres
                .iter()
                .enumerate()
                .map(|(t, &nre)| StepRecord {
                    t,
                    nre,
                    elapsed: Duration::from_millis(10),
                })
                .collect(),
        }
    }

    #[test]
    fn rae_is_mean_nre() {
        let s = summary(&[0.1, 0.2, 0.3]);
        assert!((s.rae() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn art_is_mean_time() {
        let s = summary(&[0.1, 0.2]);
        assert!((s.art_seconds() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_nan() {
        let s = summary(&[]);
        assert!(s.rae().is_nan());
        assert!(s.art_seconds().is_nan());
    }

    #[test]
    fn afe_averages_pairs() {
        let truth = DenseTensor::full(Shape::new(&[4]), 1.0);
        let perfect = truth.clone();
        let off = DenseTensor::full(Shape::new(&[4]), 2.0);
        let pairs = vec![(perfect, truth.clone()), (off, truth)];
        assert!((afe(&pairs) - 0.5).abs() < 1e-12);
    }
}
