//! Walkthrough of the `sofia-fleet` serving engine: register a fleet of
//! SOFIA streams, ingest slices with backpressure-aware calls, query the
//! serving state, checkpoint, crash, recover bit-exactly, and watch an
//! idle stream get evicted and lazily restored.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fleet_serving
//! ```
//!
//! The assertions double as the CI crash-recovery smoke test: a nonzero
//! exit here means durability regressed.

use sofia::core::model::Sofia;
use sofia::core::SofiaConfig;
use sofia::datagen::seasonal::SeasonalStream;
use sofia::datagen::stream::TensorStream;
use sofia::fleet::{
    CheckpointPolicy, Fleet, FleetConfig, IngestError, ModelHandle, Query, QueryResponse,
};
use sofia::tensor::{DenseTensor, ObservedTensor};

const STREAMS: usize = 5;

/// Settles a single forecast query (see step 4 for the batched form).
fn forecast(fleet: &Fleet, id: &str, h: usize) -> Option<DenseTensor> {
    fleet
        .query(id, Query::Forecast { horizon: h })
        .expect("query")
        .wait()
        .expect("forecast")
        .expect_forecast()
}

fn main() {
    let period = 6;
    let rank = 2;
    let config = SofiaConfig::new(rank, period)
        .with_lambdas(0.01, 0.01, 10.0)
        .with_als_limits(1e-4, 2, 60);
    let startup_len = config.startup_len().max(2 * period);
    let ckpt_dir = std::env::temp_dir().join("sofia-fleet-example");
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    // --- 1. Start an engine: 2 shards, bounded queues, durability on.
    let fleet = Fleet::new(FleetConfig {
        shards: 2,
        queue_capacity: 32,
        checkpoint: Some(CheckpointPolicy::new(&ckpt_dir, 4)),
        evict_idle_after: None,
    })
    .expect("start engine");

    // --- 2. Register five synthetic sensor streams, one SOFIA model
    // each, checkpointed as tagged v2 envelopes.
    let streams: Vec<SeasonalStream> = (0..STREAMS)
        .map(|i| SeasonalStream::paper_fig2(&[6, 5], rank, period, 40 + i as u64))
        .collect();
    let keys: Vec<_> = streams
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let startup: Vec<ObservedTensor> = (0..startup_len)
                .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
                .collect();
            let handle =
                ModelHandle::sofia(Sofia::init(&config, &startup, i as u64).expect("init"));
            let id = format!("sensor-net-{i}");
            println!("registering `{id}`");
            fleet.register(&id, handle).expect("register")
        })
        .collect();

    // --- 3. Ingest two seasons per stream. `try_ingest` never blocks; a
    // full queue hands the slice back for retry.
    for t in startup_len..startup_len + 2 * period {
        for (i, key) in keys.iter().enumerate() {
            let mut slice = ObservedTensor::fully_observed(streams[i].clean_slice(t));
            loop {
                match fleet.try_ingest(key, slice) {
                    Ok(()) => break,
                    Err(IngestError::Backpressure(returned)) => {
                        slice = *returned;
                        std::thread::yield_now();
                    }
                    Err(e) => panic!("ingest failed: {e}"),
                }
            }
        }
    }
    fleet.flush().expect("flush");

    // --- 4. Query the serving state through the typed query plane:
    // stats + forecast for every stream in ONE `query_batch` call — the
    // requests are grouped by shard and each shard answers its whole
    // group in a single queue round-trip.
    let requests: Vec<(&str, Query)> = keys
        .iter()
        .flat_map(|key| {
            [
                (key.id(), Query::StreamStats),
                (
                    key.id(),
                    Query::Forecast {
                        horizon: period / 2,
                    },
                ),
            ]
        })
        .collect();
    let responses = fleet.query_batch(&requests).expect("batch");
    for (key, pair) in keys.iter().zip(responses.chunks(2)) {
        let (Ok(QueryResponse::StreamStats(stats)), Ok(QueryResponse::Forecast(fc))) =
            (&pair[0], &pair[1])
        else {
            panic!("responses align with requests, in order");
        };
        println!(
            "{} ({}): shard {}, {} steps, latency p50 {} / p99 {}, forecast(h={}) |x| = {:.3}",
            key.id(),
            stats.model,
            stats.shard,
            stats.steps,
            stats
                .ingest_latency
                .p50()
                .map(|l| format!("{l:.1}us"))
                .unwrap_or_else(|| "-".into()),
            stats
                .ingest_latency
                .p99()
                .map(|l| format!("{l:.1}us"))
                .unwrap_or_else(|| "-".into()),
            period / 2,
            fc.as_ref().expect("SOFIA forecasts").frobenius_norm(),
        );
    }
    let round_trips = fleet.fleet_stats().expect("stats").query_batches();
    println!(
        "({} streams x 2 queries took {round_trips} shard round-trips)",
        STREAMS
    );

    // Single queries return a `QueryTicket` immediately; holding several
    // pipelines them (both are in flight before either is settled).
    let t_latest = fleet.query("sensor-net-0", Query::Latest).expect("query");
    let t_mask = fleet
        .query("sensor-net-0", Query::OutlierMask)
        .expect("query");
    let _mask = t_mask.wait().expect("mask").expect_outlier_mask();
    let latest = t_latest
        .wait()
        .expect("latest")
        .expect_latest()
        .expect("stream has stepped");
    println!(
        "sensor-net-0 latest completed slice |x| = {:.3} (outliers: {})",
        latest.completed.frobenius_norm(),
        latest.outliers.is_some(),
    );

    // --- 5. Crash without a graceful shutdown: only the periodic
    // checkpoints survive.
    let reference_forecast = forecast(&fleet, "sensor-net-1", 1).expect("forecast");
    fleet.abort();
    println!("\ncrashed; recovering from {}", ckpt_dir.display());

    // --- 6. Recover every stream and replay the tail the crash lost. The recovered engine also enables
    // the stream lifecycle: idle streams are evicted after 6 idle shard
    // steps and restored on demand.
    let (recovered, n) = Fleet::recover(FleetConfig {
        shards: 1,
        queue_capacity: 32,
        checkpoint: Some(CheckpointPolicy::new(&ckpt_dir, 4)),
        evict_idle_after: Some(6),
    })
    .expect("recover");
    println!("recovered {n} streams");
    assert_eq!(n, STREAMS, "every stream must recover");
    for (i, s) in streams.iter().enumerate() {
        let id = format!("sensor-net-{i}");
        let done = recovered
            .query(&id, Query::StreamStats)
            .expect("query")
            .wait()
            .expect("stats")
            .expect_stream_stats()
            .steps as usize;
        let key = recovered.key(&id).expect("registered");
        for t in startup_len + done..startup_len + 2 * period {
            let slice = ObservedTensor::fully_observed(s.clean_slice(t));
            while let Err(IngestError::Backpressure(_)) = recovered.try_ingest(&key, slice.clone())
            {
                std::thread::yield_now();
            }
        }
    }
    recovered.flush().expect("flush");

    // Bit-exact restoration: the recovered fleet forecasts exactly what
    // the pre-crash fleet would have.
    let replayed_forecast = forecast(&recovered, "sensor-net-1", 1).expect("forecast");
    assert_eq!(
        reference_forecast.data(),
        replayed_forecast.data(),
        "recovery must be bit-exact"
    );
    println!("post-recovery forecast is bit-exact against the pre-crash engine");

    // --- 7. Stream lifecycle: keep only sensor-net-0 hot; the idle
    // streams get checkpointed and unloaded, then a query lazily
    // restores one without changing its answers.
    let key0 = recovered.key("sensor-net-0").expect("registered");
    for t in startup_len + 2 * period..startup_len + 2 * period + 12 {
        let slice = ObservedTensor::fully_observed(streams[0].clean_slice(t));
        while let Err(IngestError::Backpressure(_)) = recovered.try_ingest(&key0, slice.clone()) {
            std::thread::yield_now();
        }
    }
    recovered.flush().expect("flush");
    let stats = recovered.fleet_stats().expect("stats");
    println!(
        "lifecycle: {} evictions, {} resident / {} evicted streams",
        stats.evictions(),
        stats.streams(),
        stats.evicted(),
    );
    assert!(stats.evictions() >= 1, "idle streams should have evicted");

    // The evicted stream answers through a transparent lazy restore, and
    // its state survived the round-trip bit-exactly.
    let after_evict_forecast =
        forecast(&recovered, "sensor-net-1", 1).expect("query restores evicted stream");
    assert_eq!(
        reference_forecast.data(),
        after_evict_forecast.data(),
        "evict/restore must preserve state bit-exactly"
    );
    let stats = recovered.fleet_stats().expect("stats");
    println!(
        "sensor-net-1 restored on query ({} lazy restores); forecast unchanged",
        stats.restores()
    );
    assert!(stats.restores() >= 1);

    let written = recovered.shutdown().expect("shutdown");
    println!("graceful shutdown wrote {written} final checkpoints");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}
