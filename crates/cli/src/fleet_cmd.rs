//! The `fleet` subcommand: serve many synthetic SOFIA streams through
//! the sharded engine and report throughput, latency, stream lifecycle,
//! and crash recovery.

use crate::commands::CmdResult;
use crate::net_cmd::engine_config;
use sofia_core::model::Sofia;
use sofia_core::SofiaConfig;
use sofia_datagen::seasonal::SeasonalStream;
use sofia_datagen::stream::TensorStream;
use sofia_fleet::{Fleet, MetricKind, ModelHandle, Query, StreamKey};
use sofia_tensor::ObservedTensor;
use std::path::PathBuf;
use std::time::Instant;

/// Renders an optional microsecond figure (`123.4us`, `-` when the
/// summary is empty). Shared by every command that prints latency
/// quantiles.
pub(crate) fn fmt_us(v: Option<f64>) -> String {
    v.map(|l| format!("{l:.1}us")).unwrap_or_else(|| "-".into())
}

/// Renders an optional dimensionless quantile (forecast drift is a
/// relative residual norm), `-` when the summary is empty.
pub(crate) fn fmt_q(v: Option<f64>) -> String {
    v.map(|q| format!("{q:.4}")).unwrap_or_else(|| "-".into())
}

/// Parameters of one `fleet` invocation.
pub struct FleetOpts {
    /// Number of concurrent synthetic streams.
    pub streams: usize,
    /// Shard (worker-thread) count.
    pub shards: usize,
    /// Slices streamed per stream after warm-up.
    pub steps: usize,
    /// CP rank of the synthetic streams and the models.
    pub rank: usize,
    /// Seasonal period of the synthetic streams.
    pub period: usize,
    /// Non-temporal slice dimensions.
    pub dims: Vec<usize>,
    /// Per-shard ingest queue bound.
    pub queue: usize,
    /// Base RNG seed (stream `i` uses `seed + i`).
    pub seed: u64,
    /// Optional durability directory; enables periodic checkpointing and
    /// the post-run crash-recovery report.
    pub checkpoint_dir: Option<PathBuf>,
    /// Periodic checkpoint interval in steps per stream.
    pub checkpoint_every: u64,
    /// Evict streams idle for this many shard steps (requires
    /// `--checkpoint-dir`).
    pub evict_idle: Option<u64>,
}

impl Default for FleetOpts {
    fn default() -> Self {
        FleetOpts {
            streams: 100,
            shards: 4,
            steps: 40,
            rank: 4,
            period: 8,
            dims: vec![12, 10],
            queue: 256,
            seed: 2021,
            checkpoint_dir: None,
            checkpoint_every: 25,
            evict_idle: None,
        }
    }
}

/// Shared option validation (`fleet` and `serve` accept the same
/// workload shape; `serve` simply never reads `steps` — its clients
/// drive ingest over the wire).
pub(crate) fn validate(opts: &FleetOpts) -> CmdResult {
    if opts.streams == 0 || opts.steps == 0 {
        return Err("need at least one stream and one step".into());
    }
    if opts.shards == 0
        || opts.queue == 0
        || opts.checkpoint_every == 0
        || opts.evict_idle == Some(0)
    {
        return Err("shards, queue, checkpoint-every, and evict-idle must be positive".into());
    }
    if opts.rank == 0 || opts.period < 2 || opts.dims.contains(&0) {
        return Err("rank and dims must be positive; period must be at least 2".into());
    }
    if opts.evict_idle.is_some() && opts.checkpoint_dir.is_none() {
        return Err(
            "--evict-idle requires --checkpoint-dir (evicted streams restore from it)".into(),
        );
    }
    Ok(())
}

/// Warm-starts one SOFIA model per stream, fanned out over the
/// available cores. Returns the models, their synthetic source streams,
/// and the startup-window length (slice `t` of stream `i` is
/// `streams[i].clean_slice(startup_len + t)`).
pub(crate) fn warm_start(opts: &FleetOpts) -> (Vec<ModelHandle>, Vec<SeasonalStream>, usize) {
    let model_config = SofiaConfig::new(opts.rank, opts.period)
        .with_lambdas(0.01, 0.01, 10.0)
        .with_als_limits(1e-3, 1, 40);
    let startup_len = model_config.startup_len().max(2 * opts.period);

    // Synthetic workload: one seasonal CP stream per served stream.
    let streams: Vec<SeasonalStream> = (0..opts.streams)
        .map(|i| {
            SeasonalStream::paper_fig2(&opts.dims, opts.rank, opts.period, opts.seed + i as u64)
        })
        .collect();

    let init_start = Instant::now();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(opts.streams);
    let chunk = opts.streams.div_ceil(workers);
    let models: Vec<ModelHandle> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .chunks(chunk)
            .enumerate()
            .map(|(c, part)| {
                let model_config = model_config.clone();
                scope.spawn(move || {
                    part.iter()
                        .enumerate()
                        .map(|(j, s)| {
                            let i = c * chunk + j;
                            let startup: Vec<ObservedTensor> = (0..startup_len)
                                .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
                                .collect();
                            ModelHandle::sofia(
                                Sofia::init(&model_config, &startup, opts.seed + i as u64)
                                    .expect("synthetic startup window is well-formed"),
                            )
                        })
                        .collect::<Vec<ModelHandle>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("init worker"))
            .collect()
    });
    println!(
        "init: built {} models in {:.2}s ({} startup slices each, {} init threads)",
        models.len(),
        init_start.elapsed().as_secs_f64(),
        startup_len,
        workers
    );
    (models, streams, startup_len)
}

/// Entry point of `sofia-cli fleet`.
pub fn fleet(opts: &FleetOpts) -> CmdResult {
    validate(opts)?;
    println!(
        "fleet: {} streams x {} slices of {:?} (rank {}, period {}), queue bound {}",
        opts.streams, opts.steps, opts.dims, opts.rank, opts.period, opts.queue
    );
    let (models, streams, startup_len) = warm_start(opts);

    // --- Pre-materialize the streamed slices so the serving measurement
    // isn't dominated by workload generation on the ingest thread.
    let slices: Vec<Vec<ObservedTensor>> = streams
        .iter()
        .map(|s| {
            (startup_len..startup_len + opts.steps)
                .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
                .collect()
        })
        .collect();

    let fleet = Fleet::new(engine_config(opts))?;
    let keys: Vec<StreamKey> = models
        .into_iter()
        .enumerate()
        .map(|(i, m)| fleet.register(&format!("stream-{i:04}"), m))
        .collect::<Result<_, _>>()?;

    // Ingest slice-major (t over all streams) — the arrival order of a
    // tick-synchronized deployment — with yield-and-retry on
    // backpressure.
    let start = Instant::now();
    let mut retries = 0u64;
    for t in 0..opts.steps {
        for (key, stream_slices) in keys.iter().zip(slices.iter()) {
            retries += fleet.ingest_blocking(key, stream_slices[t].clone())?;
        }
    }
    fleet.flush()?;
    let wall_secs = start.elapsed().as_secs_f64();

    let stats = fleet.fleet_stats()?;
    // Exact moments and mergeable quantiles from the latency sketch.
    let latency = stats.ingest_latency();
    let max_batch = stats.shards.iter().map(|s| s.max_batch).max().unwrap_or(0);

    // Exercise the typed query plane once on a sample stream: all three
    // requests travel to the owning shard in one batched round-trip
    // (the third is the sketch-backed drift quantile).
    let sample = "stream-0000";
    let mut responses = fleet
        .query_batch(&[
            (
                sample,
                Query::Forecast {
                    horizon: opts.period / 2,
                },
            ),
            (sample, Query::StreamStats),
            (
                sample,
                Query::Quantile {
                    metric: MetricKind::ForecastError,
                    q: 0.99,
                },
            ),
        ])?
        .into_iter();
    let forecast = responses
        .next()
        .expect("aligned")?
        .expect_forecast()
        .expect("SOFIA forecasts");
    let sample_stats = responses.next().expect("aligned")?.expect_stream_stats();
    let drift_p99 = match responses.next().expect("aligned")? {
        sofia_fleet::QueryResponse::Quantile(v) => v,
        other => return Err(format!("expected a quantile response, got {other:?}").into()),
    };
    println!(
        "[{} shard(s)] {sample} ({}): {} steps on shard {}, \
         forecast(h={}) |x| = {:.3}, latency p50 {} / p99 {}, drift p99 {}",
        opts.shards,
        sample_stats.model,
        sample_stats.steps,
        sample_stats.shard,
        opts.period / 2,
        forecast.frobenius_norm(),
        fmt_us(sample_stats.ingest_latency.p50()),
        fmt_us(sample_stats.ingest_latency.p99()),
        fmt_q(drift_p99),
    );
    let checkpoints = fleet.shutdown()?;

    println!(
        "\n{:>6}  {:>8}  {:>10}  {:>12}  {:>11}  {:>12}  {:>9}  {:>11}",
        "shards",
        "wall(s)",
        "slices/s",
        "mean-lat(us)",
        "p99-lat(us)",
        "backpressure",
        "max-batch",
        "checkpoints"
    );
    println!(
        "{:>6}  {:>8.3}  {:>10.0}  {:>12}  {:>11}  {:>12}  {:>9}  {:>11}",
        opts.shards,
        wall_secs,
        stats.steps() as f64 / wall_secs,
        latency
            .mean()
            .map(|l| format!("{l:.1}"))
            .unwrap_or_else(|| "-".into()),
        latency
            .p99()
            .map(|l| format!("{l:.1}"))
            .unwrap_or_else(|| "-".into()),
        retries,
        max_batch,
        checkpoints
    );
    if opts.evict_idle.is_some() {
        println!(
            "lifecycle [{} shard(s)]: {} evictions, {} lazy restores",
            opts.shards,
            stats.evictions(),
            stats.restores()
        );
    }

    // --- Crash-recovery report: restore the run's checkpoint directory
    // into a fresh engine.
    if opts.checkpoint_dir.is_some() {
        recovery_report(opts)?;
    }
    Ok(())
}

/// Recovers the run's checkpoints into a fresh engine and reports how
/// many streams, and how many steps of state, came back.
fn recovery_report(opts: &FleetOpts) -> CmdResult {
    let (recovered, n) = Fleet::recover(engine_config(opts))?;
    let mut steps_total = 0u64;
    // One batched stats sweep over every recovered stream: a single
    // queue round-trip per shard instead of one per stream.
    let ids = recovered.stream_ids();
    let requests: Vec<(&str, Query)> = ids
        .iter()
        .map(|id| (id.as_str(), Query::StreamStats))
        .collect();
    for response in recovered.query_batch(&requests)? {
        steps_total += response?.expect_stream_stats().steps;
    }
    println!(
        "\nrecovery: {n} of {} streams restored from checkpoints, \
         {steps_total} total steps of state",
        opts.streams
    );
    if n != opts.streams {
        return Err(format!("recovery restored {n} of {} streams", opts.streams).into());
    }
    recovered.shutdown()?;
    Ok(())
}
