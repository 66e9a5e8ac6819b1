//! Per-stream and fleet-wide serving statistics.
//!
//! Latency and forecast-error observations land in mergeable
//! [`MetricSummary`] sketches (see `sofia-sketch`): sketches from
//! different shards — or different processes — merge into exactly the
//! summary a single observer would have built, so p99/p99.9 questions
//! have one answer at every aggregation level.
//! The sketches live in memory only: they cover the current process
//! lifetime and reset on evict/restore and restart.

use crate::protocol::QueryKind;
use sofia_sketch::MetricSummary;

/// The observed metrics the fleet keeps sketches for (a
/// [`crate::Query::Quantile`] names one of these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Per-step ingest latency, in microseconds (wall time of one
    /// `model.step` on the shard worker).
    IngestLatency,
    /// One-step-ahead forecast error: the relative residual
    /// `‖pred − obs‖_Ω / ‖obs‖_Ω` over the slice's *observed* entries,
    /// where `pred` is the model's `forecast(1)` taken just before the
    /// step (the raw residual norm when the observed entries are all
    /// zero). Recorded only for models that forecast.
    ForecastError,
}

impl MetricKind {
    /// Every metric, in wire order.
    pub const ALL: [MetricKind; 2] = [MetricKind::IngestLatency, MetricKind::ForecastError];

    /// Stable wire/display name.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::IngestLatency => "ingest-latency",
            MetricKind::ForecastError => "forecast-error",
        }
    }

    /// Parses a wire/display name back to the metric.
    pub fn from_name(name: &str) -> Option<MetricKind> {
        MetricKind::ALL.into_iter().find(|m| m.name() == name)
    }
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-kind counts of queries a shard has answered (including queries
/// that failed — each request is counted exactly once, so the sums add
/// up to the requests issued).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCounters {
    /// `Query::Latest` requests served.
    pub latest: u64,
    /// `Query::Forecast` requests served.
    pub forecast: u64,
    /// `Query::OutlierMask` requests served.
    pub outlier_mask: u64,
    /// `Query::StreamStats` requests served.
    pub stream_stats: u64,
    /// `Query::Quantile` requests served.
    pub quantile: u64,
}

impl QueryCounters {
    /// Counts one request of the given kind.
    pub(crate) fn record(&mut self, kind: QueryKind) {
        *self.slot(kind) += 1;
    }

    fn slot(&mut self, kind: QueryKind) -> &mut u64 {
        match kind {
            QueryKind::Latest => &mut self.latest,
            QueryKind::Forecast => &mut self.forecast,
            QueryKind::OutlierMask => &mut self.outlier_mask,
            QueryKind::StreamStats => &mut self.stream_stats,
            QueryKind::Quantile => &mut self.quantile,
        }
    }

    /// Count for one kind.
    pub fn get(&self, kind: QueryKind) -> u64 {
        match kind {
            QueryKind::Latest => self.latest,
            QueryKind::Forecast => self.forecast,
            QueryKind::OutlierMask => self.outlier_mask,
            QueryKind::StreamStats => self.stream_stats,
            QueryKind::Quantile => self.quantile,
        }
    }

    /// Requests served across all kinds.
    pub fn total(&self) -> u64 {
        QueryKind::ALL.iter().map(|&k| self.get(k)).sum()
    }

    /// Field-wise sum (used to aggregate shards into fleet totals).
    pub fn merged(&self, other: &QueryCounters) -> QueryCounters {
        QueryCounters {
            latest: self.latest + other.latest,
            forecast: self.forecast + other.forecast,
            outlier_mask: self.outlier_mask + other.outlier_mask,
            stream_stats: self.stream_stats + other.stream_stats,
            quantile: self.quantile + other.quantile,
        }
    }
}

/// A snapshot of one stream's serving state.
#[derive(Debug, Clone)]
pub struct StreamStats {
    /// Stream id.
    pub stream: String,
    /// Model name serving the stream (as reported by the model itself,
    /// e.g. `SOFIA`, `SMF`, `OnlineSGD`). Owned, not `&'static`, so the
    /// struct round-trips through the wire form
    /// ([`crate::protocol::wire::parse_stream_stats`]).
    pub model: String,
    /// Shard that owns the stream.
    pub shard: usize,
    /// Streaming steps applied since registration (or recovery/restore;
    /// the handle's counter is seeded from the checkpoint envelope).
    pub steps: u64,
    /// Slices currently queued on the owning shard (shard-wide: the queue
    /// is per shard, not per stream).
    pub queue_depth: usize,
    /// Steps applied since the last durable checkpoint (0 right after one;
    /// `u64::MAX` sentinel is never used — non-checkpointable models just
    /// keep counting).
    pub steps_since_checkpoint: u64,
    /// Mergeable summary of this stream's per-step ingest latency in
    /// microseconds: t-digest quantiles (p50/p99/p999) plus exact
    /// moments. In-memory only — resets on evict/restore and restart.
    pub ingest_latency: MetricSummary,
    /// Mergeable summary of this stream's one-step-ahead forecast error
    /// (see [`MetricKind::ForecastError`]); empty for models that do not
    /// forecast. In-memory only, like `ingest_latency`.
    pub forecast_error: MetricSummary,
}

/// A snapshot of one shard's serving state.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Streams resident in memory on this shard.
    pub streams: usize,
    /// Streams currently evicted (checkpointed and unloaded; still
    /// registered, restored lazily on the next ingest/query).
    pub evicted: usize,
    /// Total steps applied across the shard's streams.
    pub steps: u64,
    /// Slices currently queued.
    pub queue_depth: usize,
    /// Wakeups of the worker loop (each drains the whole queue).
    pub batches: u64,
    /// Largest number of commands drained in one wakeup.
    pub max_batch: usize,
    /// Slices dropped because their stream had been quarantined (a
    /// `StreamKey` can outlive its stream) or an evicted stream failed to
    /// restore; nonzero means a producer is feeding a dead stream or the
    /// checkpoint directory is unhealthy.
    pub dropped: u64,
    /// Idle streams checkpointed and unloaded since the shard started.
    pub evictions: u64,
    /// Evicted streams brought back by a later ingest/query.
    pub restores: u64,
    /// Per-kind counts of queries answered since the shard started.
    pub queries: QueryCounters,
    /// Query-queue drains that answered at least one query. One
    /// [`crate::Fleet::query_batch`] costs exactly one of these per
    /// involved shard, however many streams it touches.
    pub query_batches: u64,
    /// Queries currently waiting in the shard's (unbounded) query queue;
    /// a persistently high gauge means queries arrive faster than the
    /// worker drains them between ingest batches.
    pub query_queue_depth: usize,
    /// Mergeable shard-level summary of per-step ingest latency (µs),
    /// fed by the same observations as every resident stream's own
    /// summary. This is the canonical per-shard partial: fleet- and
    /// cluster-level rollups merge these, in shard-index order, and the
    /// moment halves come out bit-exact. In-memory only.
    pub ingest_latency: MetricSummary,
    /// Mergeable shard-level summary of one-step-ahead forecast error
    /// (see [`MetricKind::ForecastError`]). In-memory only.
    pub forecast_error: MetricSummary,
    /// Which endpoint served this shard's stats, when the snapshot was
    /// merged across processes by `sofia-net`'s cluster client (shard
    /// indices are renumbered into one flat namespace there, so the
    /// index alone no longer identifies the node). `None` for
    /// single-process [`crate::Fleet::fleet_stats`] snapshots; not part
    /// of the wire form.
    pub endpoint: Option<String>,
}

/// A snapshot of the whole fleet.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Per-shard snapshots, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl FleetStats {
    /// Total resident streams across shards (evicted streams excluded;
    /// see [`FleetStats::evicted`]).
    pub fn streams(&self) -> usize {
        self.shards.iter().map(|s| s.streams).sum()
    }

    /// Total currently evicted streams across shards.
    pub fn evicted(&self) -> usize {
        self.shards.iter().map(|s| s.evicted).sum()
    }

    /// Total evictions since start across shards.
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.evictions).sum()
    }

    /// Total lazy restores since start across shards.
    pub fn restores(&self) -> u64 {
        self.shards.iter().map(|s| s.restores).sum()
    }

    /// Total steps across shards.
    pub fn steps(&self) -> u64 {
        self.shards.iter().map(|s| s.steps).sum()
    }

    /// Total queued slices across shards.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue_depth).sum()
    }

    /// Total slices dropped against quarantined streams.
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped).sum()
    }

    /// Per-kind query counts summed across shards.
    pub fn queries(&self) -> QueryCounters {
        self.shards
            .iter()
            .fold(QueryCounters::default(), |acc, s| acc.merged(&s.queries))
    }

    /// Total query-queue round-trips across shards.
    pub fn query_batches(&self) -> u64 {
        self.shards.iter().map(|s| s.query_batches).sum()
    }

    /// Total queries currently queued across shards.
    pub fn query_queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.query_queue_depth).sum()
    }

    /// Fleet-wide ingest-latency summary: the shard summaries merged in
    /// shard-index order. The fixed fold order makes the moment halves
    /// bit-reproducible (and bit-identical to what `sofia-net`'s
    /// cluster client computes from per-node wire replies, which fold
    /// the same renumbered shard sequence).
    pub fn ingest_latency(&self) -> MetricSummary {
        let mut acc = MetricSummary::new();
        for s in &self.shards {
            acc.merge(&s.ingest_latency);
        }
        acc
    }

    /// Fleet-wide forecast-error summary, folded like
    /// [`FleetStats::ingest_latency`].
    pub fn forecast_error(&self) -> MetricSummary {
        let mut acc = MetricSummary::new();
        for s in &self.shards {
            acc.merge(&s.forecast_error);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard snapshot with the given counters and a latency summary
    /// built from `latencies`, like the worker does.
    fn shard_stats(shard: usize, latencies: &[f64]) -> ShardStats {
        let mut ingest_latency = MetricSummary::new();
        for &l in latencies {
            ingest_latency.observe(l);
        }
        ShardStats {
            shard,
            streams: 0,
            evicted: 0,
            steps: latencies.len() as u64,
            queue_depth: 0,
            batches: 0,
            max_batch: 0,
            dropped: 0,
            evictions: 0,
            restores: 0,
            queries: QueryCounters::default(),
            query_batches: 0,
            query_queue_depth: 0,
            ingest_latency,
            forecast_error: MetricSummary::new(),
            endpoint: None,
        }
    }

    #[test]
    fn fleet_stats_aggregates() {
        let mut a = shard_stats(0, &[100.0; 30]);
        a.streams = 2;
        a.evicted = 1;
        a.queue_depth = 1;
        a.batches = 10;
        a.max_batch = 4;
        a.evictions = 3;
        a.restores = 2;
        a.queries = QueryCounters {
            latest: 4,
            forecast: 2,
            outlier_mask: 0,
            stream_stats: 1,
            quantile: 2,
        };
        a.query_batches = 3;
        a.query_queue_depth = 2;
        let mut b = shard_stats(1, &[200.0; 10]);
        b.streams = 1;
        b.batches = 5;
        b.max_batch = 2;
        b.dropped = 1;
        b.queries = QueryCounters {
            latest: 1,
            forecast: 0,
            outlier_mask: 3,
            stream_stats: 0,
            quantile: 0,
        };
        b.query_batches = 2;
        let stats = FleetStats { shards: vec![a, b] };
        assert_eq!(stats.streams(), 3);
        assert_eq!(stats.evicted(), 1);
        assert_eq!(stats.steps(), 40);
        assert_eq!(stats.queue_depth(), 1);
        assert_eq!(stats.dropped(), 1);
        assert_eq!(stats.evictions(), 3);
        assert_eq!(stats.restores(), 2);
        assert_eq!(
            stats.queries(),
            QueryCounters {
                latest: 5,
                forecast: 2,
                outlier_mask: 3,
                stream_stats: 1,
                quantile: 2,
            }
        );
        assert_eq!(stats.queries().total(), 13);
        assert_eq!(stats.query_batches(), 5);
        assert_eq!(stats.query_queue_depth(), 2);
    }

    #[test]
    fn fleet_latency_rollup_is_exact_and_order_fixed() {
        let stats = FleetStats {
            shards: vec![
                shard_stats(0, &[100.0, 300.0, 50.0]),
                shard_stats(1, &[200.0]),
                shard_stats(2, &[]),
            ],
        };
        let merged = stats.ingest_latency();
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.min(), Some(50.0));
        assert_eq!(merged.max(), Some(300.0));
        // The moment partials are the fold of the shard partials in
        // index order — bit-exact.
        let manual = (stats.shards[0].ingest_latency.moments().sum()
            + stats.shards[1].ingest_latency.moments().sum())
        .to_bits();
        assert_eq!(merged.moments().sum().to_bits(), manual);
        // Two identical rollups produce identical bits (digest included).
        assert_eq!(stats.ingest_latency(), stats.ingest_latency());
        assert!(stats.forecast_error().is_empty());
    }

    #[test]
    fn metric_kind_names_round_trip() {
        for m in MetricKind::ALL {
            assert_eq!(MetricKind::from_name(m.name()), Some(m), "{m}");
        }
        assert_eq!(MetricKind::from_name("latency"), None);
    }

    #[test]
    fn query_counters_record_and_sum() {
        let mut c = QueryCounters::default();
        assert_eq!(c.total(), 0);
        c.record(QueryKind::Forecast);
        c.record(QueryKind::Forecast);
        c.record(QueryKind::Latest);
        for kind in QueryKind::ALL {
            let expect = match kind {
                QueryKind::Forecast => 2,
                QueryKind::Latest => 1,
                _ => 0,
            };
            assert_eq!(c.get(kind), expect, "{kind}");
        }
        assert_eq!(c.total(), 3);
        let merged = c.merged(&c);
        assert_eq!(merged.forecast, 4);
        assert_eq!(merged.total(), 6);
    }

    #[test]
    fn fleet_stats_latency_none_when_no_steps() {
        let stats = FleetStats { shards: vec![] };
        assert!(stats.ingest_latency().is_empty());
    }
}
