//! The exact half of the observability pair: mergeable moment partials.

use crate::{parse_f64s_exact, total_max, total_min};
use sofia_core::snapshot::wire::{self, WireError};

/// Exact mergeable moment partials of a sample set: count, min, max,
/// sum, and sum of squares.
///
/// This is the `stats_agg`-style summary: because every field is a
/// *partial* (not a derived statistic), [`StatsSummary::merge`] simply
/// adds the partials — a rollup over shards, nodes, or time windows is
/// exactly the summary that observing the union would have produced,
/// with no step-weighting bias. Mean and variance are derived on read.
///
/// **Exactness.** `n`, `min`, and `max` are exact under any merge order.
/// `sum`/`sum_sq` merges add the partials with IEEE 754 `+`, which is
/// commutative bit-exactly (`merge(a, b) == merge(b, a)`) but not
/// associative — a bit-reproducible fold over three or more summaries
/// must fix its fold order (the fleet folds shards in index order).
///
/// Non-finite observations are ignored (see the crate docs); `sum_sq`
/// may still legitimately overflow to `+∞` for huge inputs, and the
/// empty summary stores `min = +∞` / `max = −∞` sentinels (hidden
/// behind the `Option` accessors). The wire form round-trips every
/// f64 bit pattern verbatim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSummary {
    n: u64,
    min: f64,
    max: f64,
    sum: f64,
    sum_sq: f64,
}

impl Default for StatsSummary {
    fn default() -> Self {
        StatsSummary::new()
    }
}

impl StatsSummary {
    /// The empty summary (identity element of [`StatsSummary::merge`]).
    pub fn new() -> Self {
        StatsSummary {
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    /// Folds in one observation; non-finite values are ignored.
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        self.min = total_min(self.min, x);
        self.max = total_max(self.max, x);
        self.sum += x;
        self.sum_sq += x * x;
    }

    /// Adds another summary's partials into this one. Commutative
    /// bit-exactly; see the type docs for the fold-order caveat.
    pub fn merge(&mut self, other: &StatsSummary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        self.n += other.n;
        self.min = total_min(self.min, other.min);
        self.max = total_max(self.max, other.max);
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    /// Number of (finite) observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Smallest observation, `None` while empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation, `None` while empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum partial (0 while empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sum-of-squares partial (0 while empty).
    pub fn sum_sq(&self) -> f64 {
        self.sum_sq
    }

    /// Arithmetic mean, `None` while empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }

    /// Appends the two-line wire form (see [`StatsSummary::from_lines`]).
    pub fn push_wire(&self, out: &mut String) {
        out.push_str("moments ");
        out.push_str(&self.n.to_string());
        out.push('\n');
        wire::push_f64s(out, "mstate", [self.min, self.max, self.sum, self.sum_sq]);
    }

    /// Parses the two-line wire form:
    ///
    /// ```text
    /// moments <n>
    /// mstate <min> <max> <sum> <sum-sq>
    /// ```
    ///
    /// with `n` in the dialect's one integer spelling
    /// ([`wire::parse_int`]) and the four floats as 16-hex-digit IEEE
    /// 754 bit patterns. Every bit pattern (NaN, ±∞, subnormals, the
    /// empty-summary sentinels) round-trips verbatim; a wrong field
    /// count, a respelled count or a non-hex token is a typed error,
    /// never a panic.
    pub fn from_lines(lines: [&str; 2]) -> Result<Self, WireError> {
        let n = lines[0]
            .strip_prefix("moments ")
            .ok_or_else(|| WireError::new(format!("expected `moments <n>`, got `{}`", lines[0])))?;
        let n = wire::parse_int(n, "moments count")?;
        let state = parse_f64s_exact(lines[1], "mstate", 4)?;
        Ok(StatsSummary {
            n,
            min: state[0],
            max: state[1],
            sum: state[2],
            sum_sq: state[3],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_of(values: &[f64]) -> StatsSummary {
        let mut s = StatsSummary::new();
        for &v in values {
            s.observe(v);
        }
        s
    }

    #[test]
    fn empty_summary_hides_sentinels() {
        let s = StatsSummary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn partials_and_derived_stats() {
        let s = summary_of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.mean(), Some(5.0));
    }

    #[test]
    fn non_finite_observations_ignored() {
        let mut s = summary_of(&[1.0]);
        s.observe(f64::NAN);
        s.observe(f64::INFINITY);
        s.observe(f64::NEG_INFINITY);
        assert_eq!(s.count(), 1);
        assert_eq!(s.sum(), 1.0);
    }

    #[test]
    fn merge_adds_partials_exactly() {
        let a = summary_of(&[1.5, -2.25, 8.0]);
        let b = summary_of(&[0.5, 100.0]);
        let mut ab = a;
        ab.merge(&b);
        assert_eq!(ab.count(), 5);
        assert_eq!(ab.sum().to_bits(), (a.sum() + b.sum()).to_bits());
        assert_eq!(ab.sum_sq().to_bits(), (a.sum_sq() + b.sum_sq()).to_bits());
        assert_eq!(ab.min(), Some(-2.25));
        assert_eq!(ab.max(), Some(100.0));

        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative bit-exactly");
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = summary_of(&[3.0, 4.0]);
        let mut left = StatsSummary::new();
        left.merge(&a);
        assert_eq!(left, a);
        let mut right = a;
        right.merge(&StatsSummary::new());
        assert_eq!(right, a);
    }

    #[test]
    fn wire_round_trips_bit_exactly() {
        let s = summary_of(&[1.5, -0.0, 1e-310, 3.0e300]);
        let mut text = String::new();
        s.push_wire(&mut text);
        let lines: Vec<&str> = text.lines().collect();
        let back = StatsSummary::from_lines([lines[0], lines[1]]).unwrap();
        assert_eq!(back, s);
        let mut again = String::new();
        back.push_wire(&mut again);
        assert_eq!(again, text);
    }

    #[test]
    fn wire_rejects_malformed_never_panics() {
        for (a, b) in [
            ("moments x", "mstate 0 0 0 0"),
            ("moments 1 2", "mstate 0 0 0 0"),
            ("m 1", "mstate 0 0 0 0"),
            ("moments 1", "mstate 0 0 0"),
            ("moments 1", "mstate 0 0 0 0 0"),
            ("moments 1", "mstate zz 0 0 0"),
            ("moments 1", "wrong 0 0 0 0"),
            ("moments +3", "mstate 0 0 0 0"),
            ("moments 03", "mstate 0 0 0 0"),
            ("moments  3", "mstate 0 0 0 0"),
            ("", ""),
        ] {
            assert!(StatsSummary::from_lines([a, b]).is_err(), "{a:?}/{b:?}");
        }
    }
}
