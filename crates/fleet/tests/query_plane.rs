//! Integration tests of the typed query plane: batched multi-stream
//! queries costing one queue round-trip per involved shard (the
//! acceptance requirement, pinned via per-shard query counters),
//! concurrent `query_batch` callers racing a live ingest thread, and a
//! SOFIA stream's factored answers rebuilt to its replica's bits.

use sofia_core::traits::{StepOutput, StreamingFactorizer};
use sofia_core::{Sofia, SofiaConfig};
use sofia_datagen::corrupt::{CorruptionConfig, Corruptor};
use sofia_datagen::seasonal::SeasonalStream;
use sofia_datagen::stream::TensorStream;
use sofia_fleet::{
    Fleet, FleetConfig, MetricKind, ModelHandle, Query, QueryKind, QueryResponse, StreamKey,
};
use sofia_tensor::{DenseTensor, ObservedTensor, Shape};
use std::collections::HashSet;

/// Cheap deterministic model: completion reports the number of steps
/// taken; forecasts report it too.
#[derive(Debug, Clone, Default)]
struct Counter {
    steps: u64,
}

impl StreamingFactorizer for Counter {
    fn name(&self) -> &'static str {
        "counter"
    }
    fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
        self.steps += 1;
        let mut completed = slice.values().clone();
        for v in completed.data_mut() {
            *v = self.steps as f64;
        }
        StepOutput {
            completed,
            outliers: None,
        }
    }
    fn forecast(&self, _h: usize) -> Option<DenseTensor> {
        Some(DenseTensor::full(Shape::new(&[1]), self.steps as f64))
    }
}

fn slice(v: f64) -> ObservedTensor {
    ObservedTensor::fully_observed(DenseTensor::full(Shape::new(&[2, 2]), v))
}

fn fleet_with_streams(shards: usize, streams: usize) -> (Fleet, Vec<StreamKey>) {
    let fleet = Fleet::new(FleetConfig {
        shards,
        queue_capacity: 64,
        checkpoint: None,
        evict_idle_after: None,
    })
    .expect("fleet");
    let keys = (0..streams)
        .map(|i| {
            fleet
                .register(
                    &format!("stream-{i:02}"),
                    ModelHandle::serve(Counter::default()),
                )
                .expect("register")
        })
        .collect();
    (fleet, keys)
}

/// The acceptance requirement: `query_batch` over M streams living on S
/// shards performs exactly one queue round-trip per involved shard,
/// while M single queries perform M.
#[test]
fn query_batch_costs_one_round_trip_per_involved_shard() {
    const SHARDS: usize = 3;
    const STREAMS: usize = 12;
    let (fleet, keys) = fleet_with_streams(SHARDS, STREAMS);
    for key in &keys {
        fleet.try_ingest(key, slice(1.0)).expect("ingest");
    }
    fleet.flush().expect("flush");

    let involved: HashSet<usize> = keys.iter().map(|k| k.shard()).collect();
    assert!(
        involved.len() > 1,
        "12 streams should spread over several of {SHARDS} shards"
    );

    // One batched call over every stream…
    let before = fleet.fleet_stats().expect("stats");
    let requests: Vec<(&str, Query)> = keys.iter().map(|k| (k.id(), Query::StreamStats)).collect();
    let responses = fleet.query_batch(&requests).expect("batch");
    assert_eq!(responses.len(), STREAMS);
    for (i, resp) in responses.iter().enumerate() {
        let QueryResponse::StreamStats(stats) = resp.as_ref().expect("all streams answer") else {
            panic!("mismatched response variant");
        };
        assert_eq!(stats.stream, keys[i].id(), "responses align with requests");
        assert_eq!(stats.steps, 1);
    }
    let after = fleet.fleet_stats().expect("stats");
    // …costs exactly one queue round-trip per involved shard…
    assert_eq!(
        after.query_batches() - before.query_batches(),
        involved.len() as u64,
        "one round-trip per involved shard"
    );
    // …and every request is counted under its kind.
    assert_eq!(
        after.queries().stream_stats - before.queries().stream_stats,
        STREAMS as u64
    );

    // The same M requests as sequential single queries cost up to M
    // round-trips (a worker still inside its drain loop may pick up the
    // next query opportunistically, so the count can dip slightly below
    // M — but never down to the batched cost).
    let before = after;
    for key in &keys {
        let resp = fleet
            .query(key.id(), Query::StreamStats)
            .expect("query")
            .wait()
            .expect("wait");
        assert!(matches!(resp, QueryResponse::StreamStats(_)));
    }
    let after = fleet.fleet_stats().expect("stats");
    let single_trips = after.query_batches() - before.query_batches();
    assert!(
        single_trips > involved.len() as u64 && single_trips <= STREAMS as u64,
        "M sequential queries cost ~M round-trips, got {single_trips}"
    );

    // A batch touching a single shard costs a single round-trip.
    let solo = &keys[0];
    let before = after;
    let responses = fleet
        .query_batch(&[
            (solo.id(), Query::Latest),
            (solo.id(), Query::Forecast { horizon: 2 }),
            (solo.id(), Query::OutlierMask),
        ])
        .expect("batch");
    assert!(responses.iter().all(|r| r.is_ok()));
    let after = fleet.fleet_stats().expect("stats");
    assert_eq!(after.query_batches() - before.query_batches(), 1);
    assert_eq!(after.queries().latest - before.queries().latest, 1);
    assert_eq!(after.queries().forecast - before.queries().forecast, 1);
    assert_eq!(
        after.queries().outlier_mask - before.queries().outlier_mask,
        1
    );

    fleet.shutdown().expect("shutdown");
}

/// Concurrent queries under ingest load: several threads hammer
/// `query_batch` across every stream while the ingest thread keeps
/// feeding slices. Nothing may panic (no stale-key drops are possible —
/// no model is ever quarantined here), every response must be answered,
/// and the per-kind query counters must add up exactly across shards.
#[test]
fn concurrent_query_batches_under_ingest_load() {
    const SHARDS: usize = 3;
    const STREAMS: usize = 9;
    const INGEST_STEPS: usize = 120;
    const QUERY_THREADS: usize = 3;
    const ROUNDS: usize = 40;

    let (fleet, keys) = fleet_with_streams(SHARDS, STREAMS);
    let ids: Vec<String> = keys.iter().map(|k| k.id().to_string()).collect();

    std::thread::scope(|scope| {
        // Query threads: each round issues one batch over every stream,
        // cycling the query kind per round.
        for thread in 0..QUERY_THREADS {
            let fleet = &fleet;
            let ids = &ids;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let query = match QueryKind::ALL[round % QueryKind::ALL.len()] {
                        QueryKind::Latest => Query::Latest,
                        QueryKind::Forecast => Query::Forecast {
                            horizon: 1 + round % 3,
                        },
                        QueryKind::OutlierMask => Query::OutlierMask,
                        QueryKind::StreamStats => Query::StreamStats,
                        QueryKind::Quantile => Query::Quantile {
                            metric: MetricKind::IngestLatency,
                            q: 0.99,
                        },
                    };
                    let requests: Vec<(&str, Query)> =
                        ids.iter().map(|id| (id.as_str(), query.clone())).collect();
                    let responses = fleet.query_batch(&requests).expect("engine is up");
                    assert_eq!(responses.len(), STREAMS);
                    for (i, resp) in responses.into_iter().enumerate() {
                        let resp = resp.unwrap_or_else(|e| {
                            panic!("thread {thread} round {round} stream {i}: {e}")
                        });
                        assert_eq!(resp.kind(), query.kind(), "responses align");
                    }
                }
            });
        }
        // The ingest thread runs concurrently with every query round.
        for t in 0..INGEST_STEPS {
            for key in &keys {
                fleet.ingest_blocking(key, slice(t as f64)).expect("ingest");
            }
        }
    });

    fleet.flush().expect("flush");
    let stats = fleet.fleet_stats().expect("stats");
    assert_eq!(stats.steps(), (STREAMS * INGEST_STEPS) as u64);
    assert_eq!(stats.dropped(), 0, "no stale-key drops under load");

    // Counter bookkeeping is exact under concurrency: every issued
    // request is counted once, under its kind, across shards.
    let per_kind = (QUERY_THREADS * (ROUNDS / QueryKind::ALL.len()) * STREAMS) as u64;
    let counters = stats.queries();
    for kind in QueryKind::ALL {
        assert_eq!(counters.get(kind), per_kind, "{kind} requests answered");
    }
    assert_eq!(counters.total(), (QUERY_THREADS * ROUNDS * STREAMS) as u64);
    assert_eq!(stats.query_queue_depth(), 0, "gauge settles at zero");

    fleet.shutdown().expect("shutdown");
}

fn bits(t: &DenseTensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A SOFIA stream's shard steps without the dense reconstruction, keeps
/// `u_t` and a sparse outlier list, and answers `Latest` and `Forecast`
/// in Kruskal form. Everything a caller gets back is still what a
/// replica `Sofia` computes with its dense `step` and `forecast_slice`,
/// bit for bit, on partially observed slices with injected outliers.
#[test]
fn sofia_answers_rebuild_to_the_replicas_bits() {
    const PERIOD: usize = 4;
    const STEPS: usize = 10;
    let stream = SeasonalStream::paper_fig2(&[6, 5], 2, PERIOD, 77);
    let t0 = 3 * PERIOD;
    let startup: Vec<ObservedTensor> = (0..t0)
        .map(|t| ObservedTensor::fully_observed(stream.clean_slice(t)))
        .collect();
    let config = SofiaConfig::new(2, PERIOD)
        .with_lambdas(0.01, 0.01, 10.0)
        .with_als_limits(1e-4, 2, 50);
    let mut replica = Sofia::init(&config, &startup, 5).expect("init");
    let fleet = Fleet::new(FleetConfig::with_shards(2)).expect("fleet");
    let key = fleet
        .register("sofia", ModelHandle::sofia(replica.clone()))
        .expect("register");
    let ask = |query: Query| {
        fleet
            .query("sofia", query)
            .and_then(|ticket| ticket.wait())
            .expect("query")
    };
    assert!(ask(Query::Latest).expect_latest().is_none());
    let max_abs = (0..t0 + STEPS)
        .map(|t| stream.clean_slice(t).max_abs())
        .fold(0.0, f64::max);
    let corruptor = Corruptor::new(CorruptionConfig::from_percents(50, 10, 5.0), max_abs, 9);
    let mut flagged = 0;
    for t in t0..t0 + STEPS {
        let slice = corruptor.corrupt(&stream.clean_slice(t), t);
        fleet.ingest_blocking(&key, slice.clone()).expect("ingest");
        fleet.flush().expect("flush");
        let want = replica.step(&slice);
        let latest = ask(Query::Latest).expect_latest().expect("stepped");
        assert_eq!(bits(&latest.completed), bits(&want.completed), "t={t}");
        let outliers = latest.outliers.expect("SOFIA reports outliers");
        assert_eq!(bits(&outliers), bits(&want.outliers), "t={t}");
        let mask = ask(Query::OutlierMask)
            .expect_outlier_mask()
            .expect("stepped");
        let want_mask: Vec<bool> = want.outliers.data().iter().map(|&v| v != 0.0).collect();
        let got_mask: Vec<bool> = (0..want_mask.len())
            .map(|i| mask.is_observed_flat(i))
            .collect();
        assert_eq!(got_mask, want_mask, "t={t}");
        flagged += want_mask.iter().filter(|&&f| f).count();
        for horizon in 1..=3 {
            let forecast = ask(Query::Forecast { horizon })
                .expect_forecast()
                .expect("SOFIA forecasts");
            assert_eq!(
                bits(&forecast),
                bits(&replica.forecast_slice(horizon)),
                "t={t} h={horizon}"
            );
        }
    }
    assert!(flagged > 0, "some step flagged an outlier");
    fleet.shutdown().expect("shutdown");
}
