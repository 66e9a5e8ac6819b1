//! The `fleet` subcommand: serve many synthetic streams through the
//! sharded engine and report throughput, latency, shard scaling, stream
//! lifecycle, and mixed-kind crash recovery.

use crate::commands::CmdResult;
use sofia_baselines::{OnlineSgd, Smf};
use sofia_core::model::Sofia;
use sofia_core::SofiaConfig;
use sofia_datagen::seasonal::SeasonalStream;
use sofia_datagen::stream::TensorStream;
use sofia_fleet::{
    CheckpointPolicy, Fleet, FleetConfig, MetricKind, ModelHandle, Query, StreamKey,
};
use sofia_tensor::ObservedTensor;
use std::collections::BTreeMap;
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
    /// Shard (worker-thread) count for the main run.
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
    /// Evict snapshot-capable streams idle for this many shard steps
    /// (requires `--checkpoint-dir`).
    pub evict_idle: Option<u64>,
    /// Baseline model kinds (`smf`, `online-sgd`) cycled in among the
    /// SOFIA streams: stream `i` serves kind `[sofia, ..mix][i % (1+n)]`.
    /// Empty = all SOFIA.
    pub mix: Vec<String>,
    /// Additional shard counts to benchmark on the same workload (e.g.
    /// `[1]` to demonstrate 1-shard vs `shards`-shard scaling).
    pub compare_shards: Vec<usize>,
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
            mix: Vec::new(),
            compare_shards: Vec::new(),
        }
    }
}

/// One warm-started serving model; concrete so comparison runs can clone
/// identical initial states into each engine.
pub(crate) enum MixModel {
    // Boxed: a warm-started SOFIA is far larger than the baselines and
    // these live in a Vec.
    Sofia(Box<Sofia>),
    Smf(Smf),
    OnlineSgd(OnlineSgd),
}

impl MixModel {
    pub(crate) fn handle(&self) -> ModelHandle {
        match self {
            MixModel::Sofia(m) => ModelHandle::sofia((**m).clone()),
            MixModel::Smf(m) => ModelHandle::durable(m.clone()),
            MixModel::OnlineSgd(m) => ModelHandle::durable(m.clone()),
        }
    }
}

struct RunOutcome {
    shards: usize,
    wall_secs: f64,
    slices: u64,
    backpressure_retries: u64,
    mean_latency_us: Option<f64>,
    p99_latency_us: Option<f64>,
    max_batch: usize,
    checkpoints: usize,
    evictions: u64,
    restores: u64,
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
        || opts.compare_shards.contains(&0)
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
    for kind in &opts.mix {
        if !matches!(kind.as_str(), "sofia" | "smf" | "online-sgd") {
            return Err(format!("unknown --mix kind `{kind}` (use smf, online-sgd)").into());
        }
    }
    Ok(())
}

/// Warm-starts one model per stream (kinds cycled from the mix, SOFIA
/// leading so `stream-0000` always forecasts), fanned out over the
/// available cores. Returns the models, their synthetic source streams,
/// and the startup-window length (slice `t` of stream `i` is
/// `streams[i].clean_slice(startup_len + t)`).
pub(crate) fn warm_start(opts: &FleetOpts) -> (Vec<MixModel>, Vec<SeasonalStream>, usize) {
    // Stream i serves cycle[i % cycle.len()].
    let cycle: Vec<&str> = std::iter::once("sofia")
        .chain(opts.mix.iter().map(String::as_str))
        .collect();
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
    let models: Vec<MixModel> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .chunks(chunk)
            .enumerate()
            .map(|(c, part)| {
                let model_config = model_config.clone();
                let cycle = &cycle;
                scope.spawn(move || {
                    part.iter()
                        .enumerate()
                        .map(|(j, s)| {
                            let i = c * chunk + j;
                            let startup: Vec<ObservedTensor> = (0..startup_len)
                                .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
                                .collect();
                            let seed = opts.seed + i as u64;
                            match cycle[i % cycle.len()] {
                                "smf" => MixModel::Smf(Smf::init(
                                    &startup,
                                    opts.rank,
                                    opts.period,
                                    0.1,
                                    seed,
                                )),
                                "online-sgd" => MixModel::OnlineSgd(OnlineSgd::init(
                                    &startup, opts.rank, 0.1, seed,
                                )),
                                _ => MixModel::Sofia(Box::new(
                                    Sofia::init(&model_config, &startup, seed)
                                        .expect("synthetic startup window is well-formed"),
                                )),
                            }
                        })
                        .collect::<Vec<MixModel>>()
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
        "fleet: {} streams x {} slices of {:?} (rank {}, period {}), queue bound {}, mix {:?}",
        opts.streams, opts.steps, opts.dims, opts.rank, opts.period, opts.queue, opts.mix
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

    // --- Run once per requested shard count on identical initial models.
    let mut shard_counts = opts.compare_shards.clone();
    shard_counts.push(opts.shards);
    shard_counts.sort_unstable();
    shard_counts.dedup();

    let mut outcomes = Vec::new();
    for &shards in &shard_counts {
        outcomes.push(run_once(opts, shards, &models, &slices)?);
    }

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
    for o in &outcomes {
        println!(
            "{:>6}  {:>8.3}  {:>10.0}  {:>12}  {:>11}  {:>12}  {:>9}  {:>11}",
            o.shards,
            o.wall_secs,
            o.slices as f64 / o.wall_secs,
            o.mean_latency_us
                .map(|l| format!("{l:.1}"))
                .unwrap_or_else(|| "-".into()),
            o.p99_latency_us
                .map(|l| format!("{l:.1}"))
                .unwrap_or_else(|| "-".into()),
            o.backpressure_retries,
            o.max_batch,
            o.checkpoints
        );
    }
    if opts.evict_idle.is_some() {
        for o in &outcomes {
            println!(
                "lifecycle [{} shard(s)]: {} evictions, {} lazy restores",
                o.shards, o.evictions, o.restores
            );
        }
    }
    if outcomes.len() > 1 {
        let slowest = outcomes
            .iter()
            .max_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs))
            .expect("nonempty");
        let fastest = outcomes
            .iter()
            .min_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs))
            .expect("nonempty");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!(
            "\nscaling: {} shards vs {} shards -> {:.2}x wall-clock speedup \
             ({cores} cores available; shards cannot beat ~{cores}x)",
            fastest.shards,
            slowest.shards,
            slowest.wall_secs / fastest.wall_secs
        );
    }

    // --- Crash-recovery report: restore the main run's checkpoint
    // directory into a fresh engine and break the recovered streams down
    // by model kind (the v2 envelope dispatch at work).
    if opts.checkpoint_dir.is_some() {
        recovery_report(opts)?;
    }
    Ok(())
}

fn fleet_config(opts: &FleetOpts, shards: usize) -> FleetConfig {
    let checkpoint = opts.checkpoint_dir.as_ref().map(|dir| {
        // Each shard count gets its own subdirectory so comparison runs
        // never mix durable state.
        CheckpointPolicy::new(dir.join(format!("shards-{shards}")), opts.checkpoint_every)
    });
    FleetConfig {
        shards,
        queue_capacity: opts.queue,
        checkpoint,
        evict_idle_after: opts.evict_idle,
    }
}

fn run_once(
    opts: &FleetOpts,
    shards: usize,
    models: &[MixModel],
    slices: &[Vec<ObservedTensor>],
) -> Result<RunOutcome, Box<dyn std::error::Error>> {
    let fleet = Fleet::new(fleet_config(opts, shards))?;

    let keys: Vec<StreamKey> = models
        .iter()
        .enumerate()
        .map(|(i, m)| fleet.register(&format!("stream-{i:04}"), m.handle()))
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
    let slices_done = stats.steps();
    // Exact moments and mergeable quantiles from the latency sketch.
    let latency = stats.ingest_latency();
    let mean_latency_us = latency.mean();
    let p99_latency_us = latency.p99();
    let max_batch = stats.shards.iter().map(|s| s.max_batch).max().unwrap_or(0);
    let evictions = stats.evictions();
    let restores = stats.restores();

    // Exercise the typed query plane once per run on a sample stream:
    // all three requests travel to the owning shard in one batched
    // round-trip (the third is the sketch-backed drift quantile).
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
        "[{shards} shard(s)] {sample} ({}): {} steps on shard {}, \
         forecast(h={}) |x| = {:.3}, latency p50 {} / p99 {}, drift p99 {}",
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
    Ok(RunOutcome {
        shards,
        wall_secs,
        slices: slices_done,
        backpressure_retries: retries,
        mean_latency_us,
        p99_latency_us,
        max_batch,
        checkpoints,
        evictions,
        restores,
    })
}

/// Recovers the main run's checkpoints into a fresh engine and reports
/// the restored streams per model kind.
fn recovery_report(opts: &FleetOpts) -> CmdResult {
    let (recovered, n) = Fleet::recover(fleet_config(opts, opts.shards))?;
    let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
    let mut steps_total = 0u64;
    // One batched stats sweep over every recovered stream: a single
    // queue round-trip per shard instead of one per stream.
    let ids = recovered.stream_ids();
    let requests: Vec<(&str, Query)> = ids
        .iter()
        .map(|id| (id.as_str(), Query::StreamStats))
        .collect();
    for response in recovered.query_batch(&requests)? {
        let stats = response?.expect_stream_stats();
        *by_kind.entry(stats.model).or_default() += 1;
        steps_total += stats.steps;
    }
    let breakdown = by_kind
        .iter()
        .map(|(kind, count)| format!("{count} {kind}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "\nrecovery: {n} of {} streams restored from checkpoints ({breakdown}), \
         {steps_total} total steps of state",
        opts.streams
    );
    if n != opts.streams {
        return Err(format!(
            "recovery restored {n} of {} streams — non-durable kinds should not \
             exist in this fleet",
            opts.streams
        )
        .into());
    }
    recovered.shutdown()?;
    Ok(())
}
