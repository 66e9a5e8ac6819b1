//! Summary statistics over error series: the recovery time that the drift
//! experiment reports.

use crate::metrics::StreamSummary;

/// Number of steps after `from_t` until the NRE first drops below
/// `threshold` (recovery time after a disturbance); `None` if it never
/// does within the run.
pub fn recovery_time(summary: &StreamSummary, from_t: usize, threshold: f64) -> Option<usize> {
    summary
        .steps
        .iter()
        .filter(|s| s.t >= from_t)
        .find(|s| s.nre < threshold)
        .map(|s| s.t - from_t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::StepRecord;
    use std::time::Duration;

    fn summary(nres: &[f64]) -> StreamSummary {
        StreamSummary {
            method: "x".into(),
            steps: nres
                .iter()
                .enumerate()
                .map(|(t, &nre)| StepRecord {
                    t,
                    nre,
                    elapsed: Duration::ZERO,
                })
                .collect(),
        }
    }

    #[test]
    fn recovery_time_found_and_not_found() {
        let s = summary(&[0.9, 0.8, 0.7, 0.05, 0.04]);
        assert_eq!(recovery_time(&s, 1, 0.1), Some(2));
        assert_eq!(recovery_time(&s, 0, 0.01), None);
    }
}
