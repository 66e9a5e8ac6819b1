//! The approximate half of the observability pair: a deterministic
//! merging t-digest for tail quantiles.

use crate::{parse_f64s_exact, total_max, total_min, MAX_WIRE_CENTROIDS};
use sofia_core::snapshot::wire::{self, WireError};

/// Compression parameter δ of every digest in the stack.
///
/// Fixed crate-wide (rather than carried per digest) because two digests
/// can only merge deterministically when they agree on the scale
/// function; ~δ·1.6 centroids are retained, so memory per digest is a
/// few KiB.
pub const COMPRESSION: f64 = 100.0;

/// Unmerged observations buffered before a compaction pass; a larger
/// buffer amortizes sorting, a smaller one bounds the extra memory.
const BUFFER_CAP: usize = 128;

/// One weighted centroid: `weight` observations averaging `mean`.
/// Weights are integer-valued f64s (every observation has weight 1), so
/// weight sums stay exact below 2⁵³.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Centroid {
    mean: f64,
    weight: f64,
}

/// A mergeable quantile sketch (Dunning's merging t-digest, k₁ scale).
///
/// The digest keeps at most ~1.6·δ weighted centroids whose sizes follow
/// the k₁ scale function `k(q) = δ/2π · asin(2q−1)`: centroids near the
/// median are large, centroids near the edges shrink to single
/// observations — which is exactly where p99/p99.9 questions live.
///
/// **Accuracy bound.** One k-unit of the scale function spans
/// `Δq = (2π/δ)·√(q(1−q))` of the population — ≈ 3.1% of ranks at the
/// median for δ = 100, ≈ 0.6% at p99, shrinking to single observations
/// at the extremes. Centroid weights respect the k-limit, and the
/// quantile estimate interpolates between the two centroids bracketing
/// the target rank, so its rank error is a small constant multiple of
/// one k-unit *at the probed quantile* (adversarial distributions —
/// values spanning hundreds of orders of magnitude around the target —
/// can use most of that bracket). Tests in this crate pin a
/// `3·Δq(q)·n + 3` rank tolerance at every probed quantile: tightest at
/// the tails, which is exactly where p99/p99.9 questions live.
///
/// **Determinism.** Compaction sorts centroids by `(mean, weight)` under
/// the IEEE total order and folds left-to-right, so equal inputs produce
/// equal bits and [`TDigest::merge`] is commutative bit-exactly;
/// `merge(a, b)` generally differs from the digest of the concatenated
/// samples only within the accuracy bound above. Non-finite observations
/// are ignored (crate policy).
#[derive(Debug, Clone, PartialEq)]
pub struct TDigest {
    /// Compacted centroids, means non-descending.
    centroids: Vec<Centroid>,
    /// Observations not yet compacted into `centroids`.
    buffer: Vec<f64>,
    min: f64,
    max: f64,
}

impl Default for TDigest {
    fn default() -> Self {
        TDigest::new()
    }
}

/// The k₁ scale function `k(q) = δ/2π · asin(2q−1)`.
fn k_scale(q: f64) -> f64 {
    COMPRESSION / (2.0 * std::f64::consts::PI) * (2.0 * q.clamp(0.0, 1.0) - 1.0).asin()
}

impl TDigest {
    /// The empty digest (identity element of [`TDigest::merge`]).
    pub fn new() -> Self {
        TDigest {
            centroids: Vec::new(),
            buffer: Vec::new(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds in one observation; non-finite values are ignored.
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.min = total_min(self.min, x);
        self.max = total_max(self.max, x);
        self.buffer.push(x);
        if self.buffer.len() >= BUFFER_CAP {
            self.compact();
        }
    }

    /// Whether the digest holds no observations.
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty() && self.buffer.is_empty()
    }

    /// Absorbs another digest. Commutative bit-exactly (see type docs);
    /// folds over three or more digests must fix their fold order to be
    /// bit-reproducible.
    pub fn merge(&mut self, other: &TDigest) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            // Copy verbatim: re-compressing here would merge further
            // than the incremental build did, breaking both the
            // identity law and bit-exact commutativity.
            *self = other.clone();
            return;
        }
        self.min = total_min(self.min, other.min);
        self.max = total_max(self.max, other.max);
        let mut all = std::mem::take(&mut self.centroids);
        all.extend(self.buffer.drain(..).map(|x| Centroid {
            mean: x,
            weight: 1.0,
        }));
        all.extend(other.centroids.iter().copied());
        all.extend(other.buffer.iter().map(|&x| Centroid {
            mean: x,
            weight: 1.0,
        }));
        self.centroids = compress(all);
    }

    /// Folds the buffered observations into the centroid list.
    fn compact(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut all = std::mem::take(&mut self.centroids);
        all.extend(self.buffer.drain(..).map(|x| Centroid {
            mean: x,
            weight: 1.0,
        }));
        self.centroids = compress(all);
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`), `None`
    /// while empty. Interpolates linearly between centroid midpoints,
    /// anchored at the exact min/max at the edges.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let view = if self.buffer.is_empty() {
            None
        } else {
            let mut flushed = self.clone();
            flushed.compact();
            Some(flushed)
        };
        let cents = &view.as_ref().unwrap_or(self).centroids;
        let total: f64 = cents.iter().map(|c| c.weight).sum();
        if total <= 0.0 || total.is_nan() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let target = q * total;

        // Cumulative midpoint of each centroid: half its weight sits on
        // either side of its mean.
        let mut before = 0.0;
        let first_mid = cents[0].weight / 2.0;
        if target <= first_mid {
            // Between the exact minimum and the first centroid's mean.
            let t = if first_mid > 0.0 {
                target / first_mid
            } else {
                1.0
            };
            return Some(self.min + t * (cents[0].mean - self.min));
        }
        for i in 0..cents.len() - 1 {
            let mid_i = before + cents[i].weight / 2.0;
            let mid_next = before + cents[i].weight + cents[i + 1].weight / 2.0;
            if target <= mid_next {
                let span = mid_next - mid_i;
                let t = if span > 0.0 {
                    (target - mid_i) / span
                } else {
                    1.0
                };
                return Some(cents[i].mean + t * (cents[i + 1].mean - cents[i].mean));
            }
            before += cents[i].weight;
        }
        // Between the last centroid's mean and the exact maximum.
        let last = cents[cents.len() - 1];
        let last_mid = before + last.weight / 2.0;
        let span = total - last_mid;
        let t = if span > 0.0 {
            ((target - last_mid) / span).clamp(0.0, 1.0)
        } else {
            1.0
        };
        Some(last.mean + t * (self.max - last.mean))
    }

    /// Appends the four-line wire form (see [`TDigest::from_lines`]).
    /// Buffered observations are compacted into the emitted centroids,
    /// so emit → parse → emit is byte-identical.
    pub fn push_wire(&self, out: &mut String) {
        let view = if self.buffer.is_empty() {
            None
        } else {
            let mut flushed = self.clone();
            flushed.compact();
            Some(flushed)
        };
        let cents = &view.as_ref().unwrap_or(self).centroids;
        out.push_str("tdigest ");
        out.push_str(&cents.len().to_string());
        out.push('\n');
        wire::push_f64s(out, "tmeans", cents.iter().map(|c| c.mean));
        wire::push_f64s(out, "tweights", cents.iter().map(|c| c.weight));
        wire::push_f64s(out, "trange", [self.min, self.max]);
    }

    /// Parses the four-line wire form:
    ///
    /// ```text
    /// tdigest <k>
    /// tmeans <k hex floats, non-descending>
    /// tweights <k hex floats, finite and positive>
    /// trange <min> <max>
    /// ```
    ///
    /// Total over hostile input: `k` is bounded by
    /// [`MAX_WIRE_CENTROIDS`] before any allocation, counts must match,
    /// means must be finite and non-descending, weights finite and
    /// positive — violations are typed errors, never panics. The
    /// `trange` bits round-trip verbatim (the empty digest legitimately
    /// carries ±∞ sentinels there).
    pub fn from_lines(lines: [&str; 4]) -> Result<Self, WireError> {
        let k = lines[0]
            .strip_prefix("tdigest ")
            .ok_or_else(|| WireError::new(format!("expected `tdigest <k>`, got `{}`", lines[0])))?;
        let k: usize = wire::parse_int(k, "centroid count")?;
        if k > MAX_WIRE_CENTROIDS {
            return Err(WireError::new(format!(
                "digest claims {k} centroids (max {MAX_WIRE_CENTROIDS})"
            )));
        }
        let means = parse_f64s_exact(lines[1], "tmeans", k)?;
        let weights = parse_f64s_exact(lines[2], "tweights", k)?;
        let range = parse_f64s_exact(lines[3], "trange", 2)?;
        for pair in means.windows(2) {
            if pair[1].total_cmp(&pair[0]) == std::cmp::Ordering::Less {
                return Err(WireError::new("digest means must be non-descending"));
            }
        }
        if means.iter().any(|m| !m.is_finite()) {
            return Err(WireError::new("digest means must be finite"));
        }
        if weights.iter().any(|w| !w.is_finite() || *w <= 0.0) {
            return Err(WireError::new("digest weights must be finite and positive"));
        }
        Ok(TDigest {
            centroids: means
                .into_iter()
                .zip(weights)
                .map(|(mean, weight)| Centroid { mean, weight })
                .collect(),
            buffer: Vec::new(),
            min: range[0],
            max: range[1],
        })
    }
}

/// Sorts centroids canonically and folds adjacent ones while the k₁
/// scale allows, left-to-right. Deterministic: the sort key includes the
/// weight, so any permutation of the same multiset compresses to the
/// same bits.
fn compress(mut cents: Vec<Centroid>) -> Vec<Centroid> {
    if cents.is_empty() {
        return cents;
    }
    cents.sort_by(|a, b| {
        a.mean
            .total_cmp(&b.mean)
            .then_with(|| a.weight.total_cmp(&b.weight))
    });
    let total: f64 = cents.iter().map(|c| c.weight).sum();
    let mut out: Vec<Centroid> = Vec::with_capacity(cents.len());
    let mut cur = cents[0];
    // Weight fully emitted before `cur`; k-limit for the growing `cur`.
    let mut done = 0.0;
    let mut k_floor = k_scale(0.0);
    for &c in &cents[1..] {
        let q_if_merged = (done + cur.weight + c.weight) / total;
        if k_scale(q_if_merged) - k_floor <= 1.0 {
            // Merge c into cur (weighted mean; weights are exact ints).
            let w = cur.weight + c.weight;
            cur.mean += (c.mean - cur.mean) * (c.weight / w);
            cur.weight = w;
        } else {
            done += cur.weight;
            k_floor = k_scale(done / total);
            out.push(cur);
            cur = c;
        }
    }
    out.push(cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(values: impl IntoIterator<Item = f64>) -> TDigest {
        let mut d = TDigest::new();
        for v in values {
            d.observe(v);
        }
        d
    }

    /// Rank interval of `value` in the sorted samples: `[strictly
    /// below, at or below]` — an interval because duplicated sample
    /// values occupy a whole range of ranks.
    /// Observations absorbed: the centroid weights plus the buffer.
    fn count(d: &TDigest) -> u64 {
        let w: f64 = d.centroids.iter().map(|c| c.weight).sum();
        (w + d.buffer.len() as f64) as u64
    }

    fn rank_interval(sorted: &[f64], value: f64) -> (f64, f64) {
        let lo = sorted.partition_point(|&s| s < value);
        let hi = sorted.partition_point(|&s| s <= value);
        (lo as f64, hi as f64)
    }

    /// Asserts every probed quantile is within the documented rank
    /// tolerance of the true sample quantile.
    fn assert_rank_accurate(d: &TDigest, samples: &[f64], label: &str) {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        for q in [0.0f64, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            // Documented bound: 3 k-units of rank at the probed q.
            let tol =
                3.0 * (2.0 * std::f64::consts::PI / COMPRESSION) * (q * (1.0 - q)).sqrt() * n + 3.0;
            let est = d.quantile(q).expect("non-empty");
            let (lo, hi) = rank_interval(&sorted, est);
            let target = q * n;
            assert!(
                lo - tol <= target && target <= hi + tol,
                "{label}: q={q} est={est} ranks=[{lo}, {hi}] target={target} n={n}"
            );
        }
    }

    #[test]
    fn empty_digest_answers_none() {
        let d = TDigest::new();
        assert_eq!(d.quantile(0.5), None);
        assert_eq!(count(&d), 0);
        assert!(d.is_empty());
    }

    #[test]
    fn single_observation_is_every_quantile() {
        let d = digest_of([7.5]);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(d.quantile(q), Some(7.5));
        }
        assert_eq!(count(&d), 1);
    }

    #[test]
    fn small_sets_are_near_exact() {
        let d = digest_of((1..=100).map(|i| i as f64));
        assert_eq!(d.quantile(0.0), Some(1.0));
        assert_eq!(d.quantile(1.0), Some(100.0));
        let p50 = d.quantile(0.5).unwrap();
        assert!((p50 - 50.5).abs() <= 2.0, "p50={p50}");
        let p99 = d.quantile(0.99).unwrap();
        assert!((p99 - 99.0).abs() <= 1.5, "p99={p99}");
    }

    #[test]
    fn large_uniform_sample_within_rank_bound() {
        // Deterministic LCG samples in [0, 1).
        let mut state = 0x2545f4914f6cdd1du64;
        let samples: Vec<f64> = (0..20_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let d = digest_of(samples.iter().copied());
        assert_rank_accurate(&d, &samples, "uniform-20k");
        assert_eq!(count(&d), 20_000);
    }

    #[test]
    fn non_finite_observations_ignored() {
        let mut d = digest_of([1.0, 2.0]);
        d.observe(f64::NAN);
        d.observe(f64::INFINITY);
        assert_eq!(count(&d), 2);
        assert_eq!(d.max, 2.0);
    }

    #[test]
    fn merge_is_commutative_bit_exactly() {
        let a = digest_of((0..500).map(|i| (i as f64).sin() * 100.0));
        let b = digest_of((0..300).map(|i| (i as f64) * 0.25 - 40.0));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_agrees_with_concatenated_samples() {
        let left: Vec<f64> = (0..4000).map(|i| (i as f64 * 0.7).cos() * 50.0).collect();
        let right: Vec<f64> = (0..6000).map(|i| 10.0 + (i % 97) as f64).collect();
        let mut merged = digest_of(left.iter().copied());
        merged.merge(&digest_of(right.iter().copied()));
        let all: Vec<f64> = left.iter().chain(&right).copied().collect();
        assert_rank_accurate(&merged, &all, "merged");
        assert_rank_accurate(&digest_of(all.iter().copied()), &all, "concat");
        assert_eq!(count(&merged), 10_000);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = digest_of((0..200).map(|i| i as f64));
        let mut left = TDigest::new();
        left.merge(&a);
        let mut right = a.clone();
        right.merge(&TDigest::new());
        assert_eq!(left, a, "merging into the empty digest copies verbatim");
        assert_eq!(right, a, "merging the empty digest is a no-op");
    }

    #[test]
    fn compression_keeps_centroid_count_bounded() {
        let d = digest_of((0..50_000).map(|i| (i as f64).sqrt()));
        let mut flushed = d.clone();
        flushed.compact();
        assert!(
            flushed.centroids.len() <= (2.0 * COMPRESSION) as usize,
            "{} centroids",
            flushed.centroids.len()
        );
    }

    #[test]
    fn wire_round_trips_bit_exactly() {
        let d = digest_of([1.5, -0.0, 1e-310, 42.0, 1e300, -7.25]);
        let mut text = String::new();
        d.push_wire(&mut text);
        let lines: Vec<&str> = text.lines().collect();
        let back = TDigest::from_lines([lines[0], lines[1], lines[2], lines[3]]).unwrap();
        let mut again = String::new();
        back.push_wire(&mut again);
        assert_eq!(again, text, "emit -> parse -> emit is the identity");
        assert_eq!(back.min, d.min);
        assert_eq!(back.max, d.max);
    }

    #[test]
    fn empty_wire_round_trips() {
        let d = TDigest::new();
        let mut text = String::new();
        d.push_wire(&mut text);
        let lines: Vec<&str> = text.lines().collect();
        let back = TDigest::from_lines([lines[0], lines[1], lines[2], lines[3]]).unwrap();
        assert!(back.is_empty());
        assert_eq!(back, d);
    }

    #[test]
    fn wire_rejects_malformed_never_panics() {
        let ok = [
            "tdigest 1",
            "tmeans 3ff0000000000000",
            "tweights 3ff0000000000000",
            "trange 3ff0000000000000 3ff0000000000000",
        ];
        assert!(TDigest::from_lines(ok).is_ok());
        let nan = format!("tmeans {:016x}", f64::NAN.to_bits());
        let neg = format!("tweights {:016x}", (-1.0f64).to_bits());
        let inf = format!("tweights {:016x}", f64::INFINITY.to_bits());
        let cases: Vec<[String; 4]> = vec![
            // claimed count mismatch
            ["tdigest 2".into(), ok[1].into(), ok[2].into(), ok[3].into()],
            // oversized claim rejected before allocation
            [
                format!("tdigest {}", MAX_WIRE_CENTROIDS + 1),
                ok[1].into(),
                ok[2].into(),
                ok[3].into(),
            ],
            // NaN mean
            ["tdigest 1".into(), nan, ok[2].into(), ok[3].into()],
            // non-positive / non-finite weights
            ["tdigest 1".into(), ok[1].into(), neg, ok[3].into()],
            ["tdigest 1".into(), ok[1].into(), inf, ok[3].into()],
            [
                "tdigest 1".into(),
                ok[1].into(),
                "tweights 0".into(),
                ok[3].into(),
            ],
            // descending means
            [
                "tdigest 2".into(),
                "tmeans 4000000000000000 3ff0000000000000".into(),
                "tweights 3ff0000000000000 3ff0000000000000".into(),
                ok[3].into(),
            ],
            // wrong labels / garbage
            ["digest 1".into(), ok[1].into(), ok[2].into(), ok[3].into()],
            // one spelling per count
            [
                "tdigest +1".into(),
                ok[1].into(),
                ok[2].into(),
                ok[3].into(),
            ],
            [
                "tdigest 01".into(),
                ok[1].into(),
                ok[2].into(),
                ok[3].into(),
            ],
            ["tdigest x".into(), ok[1].into(), ok[2].into(), ok[3].into()],
            [
                "tdigest 1".into(),
                "tmeans zz".into(),
                ok[2].into(),
                ok[3].into(),
            ],
            [
                "tdigest 1".into(),
                ok[1].into(),
                ok[2].into(),
                "trange 0".into(),
            ],
        ];
        for case in &cases {
            let as_refs = [
                case[0].as_str(),
                case[1].as_str(),
                case[2].as_str(),
                case[3].as_str(),
            ];
            assert!(TDigest::from_lines(as_refs).is_err(), "{case:?}");
        }
    }
}
