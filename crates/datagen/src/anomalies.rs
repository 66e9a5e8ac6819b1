//! Structured anomaly injection with ground-truth labels.
//!
//! The `(X, Y, Z)` protocol of [`crate::corrupt`] scatters i.i.d. point
//! outliers. Real incidents are structured: a stuck sensor corrupts one
//! cell for a while, a flooded router corrupts a whole slab, an event
//! corrupts everything briefly. This module injects such patterns *and
//! returns labels*, so detection quality (precision/recall on SOFIA's
//! `O_t`) can be evaluated — the anomaly-detection application the paper's
//! related-work section points at (Fanaee-T & Gama 2016).

use sofia_tensor::{DenseTensor, Shape};

/// One labelled anomaly event.
#[derive(Debug, Clone, PartialEq)]
pub enum Anomaly {
    /// A single cell is offset by `delta` during `[start, end)`.
    Point {
        /// Cell index within the slice.
        index: Vec<usize>,
        /// Time window start (inclusive).
        start: usize,
        /// Time window end (exclusive).
        end: usize,
        /// Additive offset.
        delta: f64,
    },
    /// An entire mode-0 slab is offset by `delta` during `[start, end)`.
    Slab {
        /// Mode-0 index of the slab.
        slab: usize,
        /// Time window start (inclusive).
        start: usize,
        /// Time window end (exclusive).
        end: usize,
        /// Additive offset.
        delta: f64,
    },
    /// Every cell is scaled by `factor` during `[start, end)` (a global
    /// burst, e.g. a city-wide event).
    Burst {
        /// Time window start (inclusive).
        start: usize,
        /// Time window end (exclusive).
        end: usize,
        /// Multiplicative factor.
        factor: f64,
    },
}

impl Anomaly {
    /// Whether the anomaly is active at stream time `t`.
    fn active_at(&self, t: usize) -> bool {
        let (start, end) = match self {
            Anomaly::Point { start, end, .. }
            | Anomaly::Slab { start, end, .. }
            | Anomaly::Burst { start, end, .. } => (*start, *end),
        };
        (start..end).contains(&t)
    }

    /// Applies the anomaly to a slice in place (if active at `t`).
    pub fn apply(&self, slice: &mut DenseTensor, t: usize) {
        if !self.active_at(t) {
            return;
        }
        match self {
            Anomaly::Point { index, delta, .. } => {
                let v = slice.get(index);
                slice.set(index, v + delta);
            }
            Anomaly::Slab { slab, delta, .. } => {
                let shape = slice.shape().clone();
                for idx in shape.indices() {
                    if idx[0] == *slab {
                        let v = slice.get(&idx);
                        slice.set(&idx, v + delta);
                    }
                }
            }
            Anomaly::Burst { factor, .. } => {
                slice.map_inplace(|v| v * factor);
            }
        }
    }

    /// The set of affected cell indices for a slice shape (used to score
    /// detections).
    fn affected_cells(&self, shape: &Shape) -> Vec<Vec<usize>> {
        match self {
            Anomaly::Point { index, .. } => vec![index.clone()],
            Anomaly::Slab { slab, .. } => shape.indices().filter(|idx| idx[0] == *slab).collect(),
            Anomaly::Burst { .. } => shape.indices().collect(),
        }
    }
}

/// A script of anomalies layered over a clean stream.
#[derive(Debug, Clone, Default)]
pub struct AnomalyScript {
    anomalies: Vec<Anomaly>,
}

impl AnomalyScript {
    /// Empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an anomaly (builder style).
    pub fn with(mut self, anomaly: Anomaly) -> Self {
        self.anomalies.push(anomaly);
        self
    }

    /// Applies all active anomalies to a slice at time `t`, returning the
    /// corrupted copy.
    pub fn apply(&self, clean: &DenseTensor, t: usize) -> DenseTensor {
        let mut slice = clean.clone();
        for a in &self.anomalies {
            a.apply(&mut slice, t);
        }
        slice
    }

    /// Ground-truth anomalous cells at time `t`.
    fn labels_at(&self, shape: &Shape, t: usize) -> Vec<Vec<usize>> {
        let mut cells = Vec::new();
        for a in &self.anomalies {
            if a.active_at(t) {
                cells.extend(a.affected_cells(shape));
            }
        }
        cells.sort();
        cells.dedup();
        cells
    }

    /// Scores a detector's flagged cells against the labels at `t`:
    /// returns `(true_positives, false_positives, false_negatives)`.
    pub fn score_detection(
        &self,
        shape: &Shape,
        t: usize,
        flagged: &[Vec<usize>],
    ) -> (usize, usize, usize) {
        let labels = self.labels_at(shape, t);
        let tp = flagged.iter().filter(|c| labels.contains(c)).count();
        let fp = flagged.len() - tp;
        let fn_ = labels.len() - tp;
        (tp, fp, fn_)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DenseTensor {
        DenseTensor::full(Shape::new(&[3, 2]), 1.0)
    }

    #[test]
    fn point_anomaly_applies_in_window_only() {
        let a = Anomaly::Point {
            index: vec![1, 0],
            start: 5,
            end: 7,
            delta: 10.0,
        };
        let mut s = base();
        a.apply(&mut s, 4);
        assert_eq!(s.get(&[1, 0]), 1.0);
        a.apply(&mut s, 5);
        assert_eq!(s.get(&[1, 0]), 11.0);
        assert!(!a.active_at(7));
    }

    #[test]
    fn slab_anomaly_hits_whole_fiber() {
        let a = Anomaly::Slab {
            slab: 2,
            start: 0,
            end: 1,
            delta: -3.0,
        };
        let mut s = base();
        a.apply(&mut s, 0);
        assert_eq!(s.get(&[2, 0]), -2.0);
        assert_eq!(s.get(&[2, 1]), -2.0);
        assert_eq!(s.get(&[0, 0]), 1.0);
        assert_eq!(a.affected_cells(s.shape()).len(), 2);
    }

    #[test]
    fn burst_scales_everything() {
        let a = Anomaly::Burst {
            start: 3,
            end: 4,
            factor: 2.5,
        };
        let mut s = base();
        a.apply(&mut s, 3);
        assert!(s.data().iter().all(|&v| (v - 2.5).abs() < 1e-12));
        assert_eq!(a.affected_cells(s.shape()).len(), 6);
    }

    #[test]
    fn script_layers_and_labels() {
        let script = AnomalyScript::new()
            .with(Anomaly::Point {
                index: vec![0, 0],
                start: 1,
                end: 3,
                delta: 5.0,
            })
            .with(Anomaly::Slab {
                slab: 1,
                start: 2,
                end: 3,
                delta: 1.0,
            });
        let shape = Shape::new(&[3, 2]);
        assert_eq!(script.labels_at(&shape, 0).len(), 0);
        assert_eq!(script.labels_at(&shape, 1).len(), 1);
        // t=2: point + slab (2 cells) = 3 labels.
        assert_eq!(script.labels_at(&shape, 2).len(), 3);
        let out = script.apply(&base(), 2);
        assert_eq!(out.get(&[0, 0]), 6.0);
        assert_eq!(out.get(&[1, 1]), 2.0);
    }

    #[test]
    fn detection_scoring() {
        let script = AnomalyScript::new().with(Anomaly::Point {
            index: vec![0, 1],
            start: 0,
            end: 1,
            delta: 9.0,
        });
        let shape = Shape::new(&[3, 2]);
        // Detector flags the right cell plus one false alarm.
        let flagged = vec![vec![0, 1], vec![2, 0]];
        let (tp, fp, fn_) = script.score_detection(&shape, 0, &flagged);
        assert_eq!((tp, fp, fn_), (1, 1, 0));
        // At t=1 the anomaly is gone: both flags are false alarms.
        let (tp, fp, fn_) = script.score_detection(&shape, 1, &flagged);
        assert_eq!((tp, fp, fn_), (0, 2, 0));
    }

    #[test]
    fn overlapping_labels_deduplicated() {
        let script = AnomalyScript::new()
            .with(Anomaly::Point {
                index: vec![1, 0],
                start: 0,
                end: 1,
                delta: 1.0,
            })
            .with(Anomaly::Slab {
                slab: 1,
                start: 0,
                end: 1,
                delta: 1.0,
            });
        let shape = Shape::new(&[3, 2]);
        // Slab covers the point cell: 2 unique labels, not 3.
        assert_eq!(script.labels_at(&shape, 0).len(), 2);
    }
}
