//! Mergeable observability summaries for the SOFIA serving stack.
//!
//! A fleet that serves streams across shard threads, processes, and
//! cluster nodes cannot answer "what is my p99.9 ingest latency?" or
//! "which streams are drifting?" from per-shard EWMAs — averages of
//! averages are biased and tails are invisible. This crate provides the
//! two summaries the stack records instead, both **mergeable** (combine
//! per-stream → per-shard → per-node → cluster-wide without bias) and
//! both with a **bit-exact hex-float wire form** built on
//! [`sofia_core::snapshot::wire`] so they survive the socket unchanged:
//!
//! * [`StatsSummary`] — exact moment partials (`n`, `min`, `max`, `sum`,
//!   `sum of squares`). Merging adds the partials, so a rollup over any
//!   grouping is exactly the summary of the union; mean/variance fall
//!   out of the partials.
//! * [`TDigest`] — a deterministic merging t-digest (Dunning's k₁ scale)
//!   for quantiles, most accurate at the distribution's edges where
//!   p99/p99.9 live.
//! * [`MetricSummary`] — the pair the fleet actually carries per metric:
//!   one digest plus one moment summary fed by the same observations.
//!
//! ## Determinism and merge algebra
//!
//! `merge` on every type is **commutative bit-exactly**: `merge(a, b)`
//! and `merge(b, a)` produce identical bits (IEEE 754 addition is
//! commutative, min/max use the total order, and the digest canonicalizes
//! by sorting centroids). Folds of three or more summaries are
//! deterministic for a *fixed fold order* — float addition is not
//! associative, so callers that need bit-reproducible rollups (the fleet
//! and cluster stats paths do) must fold in a stable order: the fleet
//! folds shards in shard-index order, the cluster folds endpoints in
//! route-slot order.
//!
//! Non-finite observations (NaN, ±∞) are **ignored** by `observe` on
//! every type — a poisoned latency probe must not destroy a summary.
//! Wire *parsers* are nevertheless total over hostile bit patterns:
//! moment lines round-trip any f64 bits (legitimately including ±∞
//! sentinels and overflowed sums), and digest lines reject structurally
//! invalid payloads (non-finite means/weights, descending means) with a
//! typed error instead of panicking.

pub mod metric;
pub mod moments;
pub mod tdigest;

pub use metric::{MetricSummary, METRIC_WIRE_LINES};
pub use moments::StatsSummary;
pub use tdigest::TDigest;

use sofia_core::snapshot::wire::{self, WireError};

/// Largest centroid count a wire parser accepts before allocating
/// (second line of defence behind the transport's frame-size bound).
pub const MAX_WIRE_CENTROIDS: usize = 1 << 20;

/// Minimum of two floats under the IEEE 754 total order (deterministic
/// for `-0.0` vs `0.0` and total over NaNs, unlike `f64::min`).
pub(crate) fn total_min(a: f64, b: f64) -> f64 {
    if b.total_cmp(&a) == std::cmp::Ordering::Less {
        b
    } else {
        a
    }
}

/// Maximum of two floats under the IEEE 754 total order.
pub(crate) fn total_max(a: f64, b: f64) -> f64 {
    if b.total_cmp(&a) == std::cmp::Ordering::Greater {
        b
    } else {
        a
    }
}

/// Parses a `label v1 v2 …` hex-float line and checks the value count.
pub(crate) fn parse_f64s_exact(
    line: &str,
    label: &str,
    expect: usize,
) -> Result<Vec<f64>, WireError> {
    let values = wire::parse_f64s(line, label)?;
    if values.len() != expect {
        return Err(WireError::new(format!(
            "`{label}` carries {} floats, expected {expect}",
            values.len()
        )));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_min_max_are_deterministic_on_signed_zero() {
        assert_eq!(total_min(0.0, -0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(total_min(-0.0, 0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(total_max(0.0, -0.0).to_bits(), (0.0f64).to_bits());
        assert_eq!(total_max(-0.0, 0.0).to_bits(), (0.0f64).to_bits());
    }

    #[test]
    fn exact_line_parsers_reject_wrong_counts() {
        assert!(parse_f64s_exact("v 3ff0000000000000", "v", 2).is_err());
        assert_eq!(
            parse_f64s_exact("v 3ff0000000000000", "v", 1).unwrap(),
            [1.0]
        );
    }
}
