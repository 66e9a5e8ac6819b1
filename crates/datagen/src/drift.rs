//! Regime-switching streams: concept drift workloads.
//!
//! The related work (§II) positions OLSTEC as giving "smaller imputation
//! errors than OnlineSGD when subspaces change dramatically". This module
//! provides a stream whose generating factors *switch* at scripted times,
//! so that drift adaptation can be measured: error right after a switch,
//! recovery time, and steady-state error between switches (see the
//! `drift` experiment binary and `sofia-eval::stats::recovery_time`).

use crate::seasonal::SeasonalStream;
use crate::stream::TensorStream;
use sofia_tensor::{DenseTensor, Shape};

/// A stream that switches between regimes (each its own
/// [`SeasonalStream`]) at fixed change points.
#[derive(Debug, Clone)]
pub struct RegimeSwitchStream {
    regimes: Vec<SeasonalStream>,
    /// Ascending change points; regime `i` is active on
    /// `[change_points[i-1], change_points[i])` (with sentinels 0 and ∞).
    change_points: Vec<usize>,
}

impl RegimeSwitchStream {
    /// Builds from regimes and the times at which the stream switches to
    /// the *next* regime. `change_points.len()` must equal
    /// `regimes.len() - 1` and be strictly ascending; all regimes must
    /// share slice shape and period.
    pub fn new(regimes: Vec<SeasonalStream>, change_points: Vec<usize>) -> Self {
        assert!(!regimes.is_empty(), "need at least one regime");
        assert_eq!(
            change_points.len(),
            regimes.len() - 1,
            "need one change point per regime transition"
        );
        assert!(
            change_points.windows(2).all(|w| w[0] < w[1]),
            "change points must be strictly ascending"
        );
        let shape = regimes[0].slice_shape().clone();
        let period = regimes[0].period();
        for r in &regimes {
            assert_eq!(r.slice_shape(), &shape, "regime shape mismatch");
            assert_eq!(r.period(), period, "regime period mismatch");
        }
        Self {
            regimes,
            change_points,
        }
    }

    /// Index of the regime active at time `t`.
    fn regime_at(&self, t: usize) -> usize {
        self.change_points.iter().filter(|&&cp| t >= cp).count()
    }
}

impl TensorStream for RegimeSwitchStream {
    fn slice_shape(&self) -> &Shape {
        self.regimes[0].slice_shape()
    }

    fn period(&self) -> usize {
        self.regimes[0].period()
    }

    fn clean_slice(&self, t: usize) -> DenseTensor {
        self.regimes[self.regime_at(t)].clean_slice(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regime(seed: u64) -> SeasonalStream {
        SeasonalStream::paper_fig2(&[4, 4], 2, 6, seed)
    }

    #[test]
    fn regime_schedule() {
        let s = RegimeSwitchStream::new(vec![regime(1), regime(2), regime(3)], vec![10, 20]);
        assert_eq!(s.regime_at(0), 0);
        assert_eq!(s.regime_at(9), 0);
        assert_eq!(s.regime_at(10), 1);
        assert_eq!(s.regime_at(19), 1);
        assert_eq!(s.regime_at(20), 2);
        assert_eq!(s.regime_at(1000), 2);
    }

    #[test]
    fn slices_change_at_switch() {
        let s = RegimeSwitchStream::new(vec![regime(1), regime(2)], vec![5]);
        let before = s.clean_slice(4);
        let after = s.clean_slice(5);
        // Different generating factors → different slices.
        assert!((&before - &after).frobenius_norm() > 1e-6);
        // Within a regime, same generator as the underlying stream.
        assert_eq!(s.clean_slice(3).data(), regime(1).clean_slice(3).data());
        assert_eq!(s.clean_slice(7).data(), regime(2).clean_slice(7).data());
    }

    #[test]
    fn single_regime_never_switches() {
        let s = RegimeSwitchStream::new(vec![regime(9)], vec![]);
        assert_eq!(s.regime_at(12345), 0);
    }

    #[test]
    #[should_panic(expected = "change point")]
    fn wrong_change_point_count_rejected() {
        RegimeSwitchStream::new(vec![regime(1), regime(2)], vec![]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_regimes_rejected() {
        let a = SeasonalStream::paper_fig2(&[4, 4], 2, 6, 1);
        let b = SeasonalStream::paper_fig2(&[3, 3], 2, 6, 2);
        RegimeSwitchStream::new(vec![a, b], vec![5]);
    }
}
