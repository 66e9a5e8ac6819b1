//! The pair of summaries the fleet carries per observed metric.

use crate::{StatsSummary, TDigest};
use sofia_core::snapshot::wire::WireError;

/// One observed metric's complete summary: a [`TDigest`] for quantiles
/// and a [`StatsSummary`] for exact moment partials, fed by the same
/// observations.
///
/// This is what `StreamStats`/`ShardStats` carry for ingest latency and
/// forecast error: the digest answers p50/p99/p99.9 (approximate,
/// within the digest's documented rank bound), the moments answer
/// count/min/max/mean/stddev (exact). Both halves merge — see the crate
/// docs for the bit-exact commutativity and fold-order guarantees.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricSummary {
    digest: TDigest,
    moments: StatsSummary,
}

/// Number of wire lines one [`MetricSummary`] occupies
/// (two moment lines + four digest lines).
pub const METRIC_WIRE_LINES: usize = 6;

impl MetricSummary {
    /// The empty summary (identity element of [`MetricSummary::merge`]).
    pub fn new() -> Self {
        MetricSummary::default()
    }

    /// Folds one observation into both halves; non-finite values are
    /// ignored.
    pub fn observe(&mut self, x: f64) {
        self.digest.observe(x);
        self.moments.observe(x);
    }

    /// Absorbs another summary (both halves). Commutative bit-exactly;
    /// fix the fold order for bit-reproducible rollups of ≥ 3 parts.
    pub fn merge(&mut self, other: &MetricSummary) {
        self.digest.merge(&other.digest);
        self.moments.merge(&other.moments);
    }

    /// The exact-moments half.
    pub fn moments(&self) -> &StatsSummary {
        &self.moments
    }

    /// Number of (finite) observations, from the exact half.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// Whether no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.moments.count() == 0 && self.digest.is_empty()
    }

    /// Exact smallest observation, `None` while empty.
    pub fn min(&self) -> Option<f64> {
        self.moments.min()
    }

    /// Exact largest observation, `None` while empty.
    pub fn max(&self) -> Option<f64> {
        self.moments.max()
    }

    /// Exact mean, `None` while empty.
    pub fn mean(&self) -> Option<f64> {
        self.moments.mean()
    }

    /// Estimated `q`-quantile, `None` while empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.digest.quantile(q)
    }

    /// Estimated median.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Estimated 99.9th percentile.
    pub fn p999(&self) -> Option<f64> {
        self.quantile(0.999)
    }

    /// Appends the six-line wire form: the [`StatsSummary`] block
    /// followed by the [`TDigest`] block (see their `from_lines` docs
    /// for the grammar). Bit-exact: emit → parse → emit is the
    /// identity.
    pub fn push_wire(&self, out: &mut String) {
        self.moments.push_wire(out);
        self.digest.push_wire(out);
    }

    /// Parses the six-line wire form. Total: malformed counts, labels,
    /// or structurally invalid digests are typed errors, never panics.
    pub fn from_lines(lines: [&str; METRIC_WIRE_LINES]) -> Result<Self, WireError> {
        Ok(MetricSummary {
            moments: StatsSummary::from_lines([lines[0], lines[1]])?,
            digest: TDigest::from_lines([lines[2], lines[3], lines[4], lines[5]])?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric_of(values: impl IntoIterator<Item = f64>) -> MetricSummary {
        let mut m = MetricSummary::new();
        for v in values {
            m.observe(v);
        }
        m
    }

    #[test]
    fn both_halves_observe_together() {
        let m = metric_of((1..=1000).map(|i| i as f64));
        assert_eq!(m.count(), 1000);
        assert_eq!(m.min(), Some(1.0));
        assert_eq!(m.max(), Some(1000.0));
        assert_eq!(m.mean(), Some(500.5));
        let p99 = m.p99().unwrap();
        assert!((p99 - 990.0).abs() <= 12.0, "p99={p99}");
        assert!(m.p50().is_some() && m.p999().is_some());
    }

    #[test]
    fn empty_metric_answers_none() {
        let m = MetricSummary::new();
        assert!(m.is_empty());
        assert_eq!(m.p99(), None);
        assert_eq!(m.mean(), None);
    }

    #[test]
    fn merge_is_commutative() {
        let a = metric_of((0..400).map(|i| (i as f64) * 0.5));
        let b = metric_of((0..100).map(|i| 1000.0 + i as f64));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 500);
        assert_eq!(ab.max(), Some(1099.0));
    }

    #[test]
    fn wire_round_trips_bit_exactly() {
        let m = metric_of([3.25, -0.0, 17.5, 1e-300]);
        let mut text = String::new();
        m.push_wire(&mut text);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), METRIC_WIRE_LINES);
        let back = MetricSummary::from_lines(lines[..].try_into().expect("six lines")).unwrap();
        let mut again = String::new();
        back.push_wire(&mut again);
        assert_eq!(again, text);
        assert_eq!(back.moments(), m.moments());
    }

    #[test]
    fn wire_rejects_swapped_blocks() {
        let m = metric_of([1.0]);
        let mut text = String::new();
        // Digest block first is malformed for this parser.
        m.digest.push_wire(&mut text);
        m.moments().push_wire(&mut text);
        let lines: Vec<&str> = text.lines().collect();
        assert!(MetricSummary::from_lines(lines[..6].try_into().unwrap()).is_err());
    }
}
