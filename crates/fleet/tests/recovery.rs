//! Crash-recovery and lifecycle integration tests: fleets are killed
//! mid-stream and restored from their periodic checkpoints (or evicted
//! and lazily restored); every restored stream's subsequent
//! `StepOutput`s must be **bit-exact** against an uninterrupted run (the
//! checkpoint envelope guarantees byte-identical state, and shard
//! workers apply each stream's slices in order). Covered here:
//!
//! * crash recovery through the tagged v2 envelope, and a graceful
//!   shutdown that loses nothing;
//! * bare pre-envelope **v1** SOFIA files still loading;
//! * idle-stream **eviction** and lazy restore with correct queries.

// The comparison loops index control/streamed tables by (stream, step)
// on purpose; iterator rewrites would obscure the alignment being tested.
#![allow(clippy::needless_range_loop)]

use sofia_core::config::SofiaConfig;
use sofia_core::traits::{StepOutput, StreamingFactorizer};
use sofia_core::Sofia;
use sofia_datagen::seasonal::SeasonalStream;
use sofia_datagen::stream::TensorStream;
use sofia_fleet::{CheckpointPolicy, Fleet, FleetConfig, ModelHandle, Query, StreamStats};
use sofia_tensor::{DenseTensor, ObservedTensor};
use std::path::PathBuf;

/// Typed-plane shorthands: these tests assert recovery semantics, not
/// response matching, so unwrap the response variant once here.
fn latest(fleet: &Fleet, id: &str) -> Option<StepOutput> {
    fleet
        .query(id, Query::Latest)
        .expect("query")
        .wait()
        .expect("latest")
        .expect_latest()
}

fn forecast(fleet: &Fleet, id: &str, h: usize) -> Option<DenseTensor> {
    fleet
        .query(id, Query::Forecast { horizon: h })
        .expect("query")
        .wait()
        .expect("forecast")
        .expect_forecast()
}

fn stream_stats(fleet: &Fleet, id: &str) -> StreamStats {
    fleet
        .query(id, Query::StreamStats)
        .expect("query")
        .wait()
        .expect("stats")
        .expect_stream_stats()
}

const PERIOD: usize = 4;
const STREAMS: usize = 4;
/// Streaming steps ingested before the crash.
const PRE_CRASH: usize = 5;
/// Streaming steps replayed/continued after recovery.
const TOTAL: usize = 9;
/// Periodic checkpoint interval — deliberately *not* dividing PRE_CRASH,
/// so the crash loses the steps after the last checkpoint boundary and
/// recovery must replay them.
const EVERY: u64 = 2;

fn stream(i: usize) -> SeasonalStream {
    SeasonalStream::paper_fig2(&[4, 3], 2, PERIOD, 100 + i as u64)
}

fn config() -> SofiaConfig {
    SofiaConfig::new(2, PERIOD)
        .with_lambdas(0.01, 0.01, 10.0)
        .with_als_limits(1e-4, 2, 50)
}

/// Startup window plus the streamed slices of one synthetic stream.
fn slices(i: usize) -> (Vec<ObservedTensor>, Vec<ObservedTensor>) {
    let s = stream(i);
    let t0 = 3 * PERIOD;
    let startup = (0..t0)
        .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
        .collect();
    let streamed = (t0..t0 + TOTAL)
        .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
        .collect();
    (startup, streamed)
}

fn init_model(i: usize, startup: &[ObservedTensor]) -> Sofia {
    Sofia::init(&config(), startup, 7 + i as u64).expect("init")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sofia-fleet-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn crash_recovery_is_bit_exact() {
    let dir = tempdir("bit-exact");
    let fleet_config = || FleetConfig {
        shards: 2,
        queue_capacity: 64,
        checkpoint: Some(CheckpointPolicy::new(&dir, EVERY)),
        evict_idle_after: None,
    };

    // --- Uninterrupted control run: one Sofia per stream, stepped
    // serially over every slice; outputs recorded per (stream, step).
    let mut control_outputs: Vec<Vec<StepOutput>> = Vec::new();
    let mut streamed_slices: Vec<Vec<ObservedTensor>> = Vec::new();
    for i in 0..STREAMS {
        let (startup, streamed) = slices(i);
        let mut model = init_model(i, &startup);
        let outputs = streamed
            .iter()
            .map(|s| StreamingFactorizer::step(&mut model, s))
            .collect();
        control_outputs.push(outputs);
        streamed_slices.push(streamed);
    }

    // --- Fleet run up to the crash.
    let fleet = Fleet::new(fleet_config()).expect("fleet");
    let keys: Vec<_> = (0..STREAMS)
        .map(|i| {
            let (startup, _) = slices(i);
            fleet
                .register(
                    &format!("stream-{i}"),
                    ModelHandle::sofia(init_model(i, &startup)),
                )
                .expect("register")
        })
        .collect();
    for t in 0..PRE_CRASH {
        for (i, key) in keys.iter().enumerate() {
            fleet
                .try_ingest(key, streamed_slices[i][t].clone())
                .expect("ingest");
        }
    }
    fleet.flush().expect("flush");

    // Pre-crash sanity: the fleet's live outputs already match control.
    for i in 0..STREAMS {
        let last = latest(&fleet, &format!("stream-{i}")).expect("stepped");
        let expect = &control_outputs[i][PRE_CRASH - 1];
        assert_eq!(last.completed.data(), expect.completed.data());
    }

    // --- Crash: no drain, no final checkpoints. Only the periodic
    // checkpoints (latest at step 4 = floor(5/2)·2) survive on disk.
    fleet.abort();

    // --- Recovery.
    let (recovered, n) = Fleet::recover(fleet_config()).expect("recover");
    assert_eq!(n, STREAMS, "every stream restored");
    let mut resume_at = Vec::new();
    for i in 0..STREAMS {
        let id = format!("stream-{i}");
        let stats = stream_stats(&recovered, &id);
        // The crash happened EVERY-aligned checkpoints ago: state resumes
        // at the last boundary, not at the crash point…
        assert_eq!(
            stats.steps,
            (PRE_CRASH as u64 / EVERY) * EVERY,
            "restored step counter of {id}"
        );
        // …and the latest completed slice is not part of a checkpoint.
        assert!(latest(&recovered, &id).is_none());
        resume_at.push(stats.steps as usize);
    }

    // --- Replay the lost tail and continue past the crash point; every
    // output must be byte-identical to the uninterrupted run.
    for i in 0..STREAMS {
        let id = format!("stream-{i}");
        let key = recovered.key(&id).expect("registered");
        for t in resume_at[i]..TOTAL {
            recovered
                .try_ingest(&key, streamed_slices[i][t].clone())
                .expect("ingest");
            recovered.flush().expect("flush");
            let out = latest(&recovered, &id).expect("stepped");
            let expect = &control_outputs[i][t];
            assert_eq!(
                out.completed.data(),
                expect.completed.data(),
                "stream {i} step {t}: completed diverged after recovery"
            );
            let (got_o, want_o) = (&out.outliers, &expect.outliers);
            assert_eq!(got_o.is_some(), want_o.is_some());
            if let (Some(g), Some(w)) = (got_o, want_o) {
                assert_eq!(g.data(), w.data(), "stream {i} step {t}: outliers");
            }
        }
        // Forecasts from the recovered model match the control model too.
        let control_fc = {
            let (startup, _) = slices(i);
            let mut model = init_model(i, &startup);
            for s in &streamed_slices[i] {
                StreamingFactorizer::step(&mut model, s);
            }
            model.forecast_slice(3)
        };
        let fc = forecast(&recovered, &id, 3).expect("SOFIA forecasts");
        assert_eq!(fc.data(), control_fc.data(), "stream {i} forecast");
    }

    recovered.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_loses_nothing() {
    let dir = tempdir("graceful");
    let fleet_config = || FleetConfig {
        shards: 2,
        queue_capacity: 64,
        // Huge interval: only the shutdown checkpoint makes state durable.
        checkpoint: Some(CheckpointPolicy::new(&dir, 1_000_000)),
        evict_idle_after: None,
    };

    let fleet = Fleet::new(fleet_config()).expect("fleet");
    let (startup, streamed) = slices(0);
    let key = fleet
        .register("solo", ModelHandle::sofia(init_model(0, &startup)))
        .expect("register");
    for s in streamed.iter().take(PRE_CRASH) {
        fleet.try_ingest(&key, s.clone()).expect("ingest");
    }
    fleet.flush().expect("flush");
    assert_eq!(fleet.shutdown().expect("shutdown"), 1);

    let (recovered, n) = Fleet::recover(fleet_config()).expect("recover");
    assert_eq!(n, 1);
    // Graceful shutdown checkpoints the *post-drain* state: nothing to
    // replay.
    assert_eq!(stream_stats(&recovered, "solo").steps, PRE_CRASH as u64);

    // Continuing from the shutdown checkpoint matches an uninterrupted
    // control run exactly.
    let key = recovered.key("solo").expect("registered");
    for s in streamed.iter().skip(PRE_CRASH) {
        recovered.try_ingest(&key, s.clone()).expect("ingest");
    }
    recovered.flush().expect("flush");
    let last = latest(&recovered, "solo").expect("stepped");
    let mut control = init_model(0, &startup);
    let mut want = None;
    for s in &streamed {
        want = Some(StreamingFactorizer::step(&mut control, s));
    }
    assert_eq!(
        last.completed.data(),
        want.unwrap().completed.data(),
        "post-shutdown continuation diverged"
    );

    recovered.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoints written before the envelope existed (bare v1 SOFIA text)
/// must keep loading bit-exactly, and a later save upgrades them to v2.
#[test]
fn bare_v1_sofia_checkpoint_still_loads() {
    let dir = tempdir("v1-compat");
    std::fs::create_dir_all(&dir).unwrap();
    let (startup, streamed) = slices(0);
    let mut control = init_model(0, &startup);
    for s in streamed.iter().take(3) {
        StreamingFactorizer::step(&mut control, s);
    }
    // Write exactly what the pre-envelope engine wrote: bare v1 text.
    let v1_text = sofia_core::checkpoint::save(&control);
    assert!(v1_text.starts_with("sofia-checkpoint v1\n"));
    sofia_fleet::durability::write_checkpoint(&dir, "legacy/stream", &v1_text).unwrap();

    let fleet_config = || FleetConfig {
        shards: 1,
        queue_capacity: 16,
        checkpoint: Some(CheckpointPolicy::new(&dir, 1_000_000)),
        evict_idle_after: None,
    };
    let (recovered, n) = Fleet::recover(fleet_config()).expect("recover");
    assert_eq!(n, 1);
    let stats = stream_stats(&recovered, "legacy/stream");
    assert_eq!(stats.model, "SOFIA");
    assert_eq!(stats.steps, 3, "v1 steps trailer seeds the counter");

    // Continue past the v1 state: bit-exact against the control model.
    let key = recovered.key("legacy/stream").expect("registered");
    for s in streamed.iter().skip(3) {
        recovered.try_ingest(&key, s.clone()).expect("ingest");
        recovered.flush().expect("flush");
        let out = latest(&recovered, "legacy/stream").expect("stepped");
        let expect = StreamingFactorizer::step(&mut control, s);
        assert_eq!(out.completed.data(), expect.completed.data());
    }

    // Graceful shutdown rewrites the stream as a v2 envelope…
    assert_eq!(recovered.shutdown().expect("shutdown"), 1);
    let path = sofia_fleet::durability::checkpoint_path(&dir, "legacy/stream");
    let upgraded = std::fs::read_to_string(path).unwrap();
    assert!(upgraded.starts_with("sofia-checkpoint v2\nmodel sofia\n"));
    // …which recovers just as well.
    let (again, n) = Fleet::recover(fleet_config()).expect("recover v2");
    assert_eq!(n, 1);
    assert_eq!(stream_stats(&again, "legacy/stream").steps, TOTAL as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The lifecycle acceptance scenario: an idle SOFIA stream is
/// checkpointed and unloaded (LRU by last-ingest step), then lazily
/// restored by the next query/ingest with bit-exact state.
#[test]
fn idle_stream_evicts_and_lazily_restores() {
    let dir = tempdir("evict");
    let fleet = Fleet::new(FleetConfig {
        shards: 1,
        queue_capacity: 64,
        // Huge periodic interval: any checkpoint on disk comes from the
        // eviction path itself.
        checkpoint: Some(CheckpointPolicy::new(&dir, 1_000_000)),
        evict_idle_after: Some(4),
    })
    .expect("fleet");

    // Two SOFIA streams on the one shard; the control instance starts
    // identical to the soon-idle one.
    let (idle_startup, idle_slices) = slices(0);
    let (busy_startup, busy_slices) = slices(1);
    let mut control = init_model(0, &idle_startup);
    let idle = fleet
        .register("idle", ModelHandle::sofia(control.clone()))
        .unwrap();
    let busy = fleet
        .register("busy", ModelHandle::sofia(init_model(1, &busy_startup)))
        .unwrap();

    // Step the soon-idle stream twice, mirrored on the control model.
    for s in &idle_slices[..2] {
        fleet.try_ingest(&idle, s.clone()).unwrap();
    }
    fleet.flush().unwrap();
    let mut control_last = None;
    for s in &idle_slices[..2] {
        control_last = Some(StreamingFactorizer::step(&mut control, s));
    }
    // Pre-eviction parity: the served stream already matches control.
    let live = latest(&fleet, "idle").expect("stepped");
    assert_eq!(
        live.completed.data(),
        control_last.expect("stepped").completed.data(),
        "pre-eviction output should match control"
    );
    let stats = fleet.fleet_stats().unwrap();
    assert_eq!(stats.evictions(), 0, "not idle yet");
    assert_eq!(stats.streams(), 2);
    let before = stream_stats(&fleet, "idle");
    assert_eq!(before.ingest_latency.count(), 2);
    assert_eq!(before.forecast_error.count(), 2);

    // Drive only the busy stream: the shard's step clock advances past
    // the idle threshold and the sweep evicts `idle`.
    for s in &busy_slices[..6] {
        fleet.try_ingest(&busy, s.clone()).unwrap();
    }
    fleet.flush().unwrap();
    let stats = fleet.fleet_stats().unwrap();
    assert_eq!(stats.evictions(), 1, "idle stream evicted");
    assert_eq!(stats.evicted(), 1);
    assert_eq!(stats.streams(), 1, "only busy resident");
    assert_eq!(stats.restores(), 0);
    // The registry still knows the stream — it is unloaded, not gone.
    assert_eq!(fleet.streams(), 2);
    assert!(sofia_fleet::durability::checkpoint_path(&dir, "idle").exists());

    // A query lazily restores it: stats come back with the pre-eviction
    // step counter, and `latest` resets exactly like crash recovery.
    let stats = stream_stats(&fleet, "idle");
    assert_eq!(stats.steps, 2);
    assert_eq!(stats.model, "SOFIA");
    // The stream's summaries came back with it.
    assert_eq!(
        stats.ingest_latency.count(),
        before.ingest_latency.count(),
        "ingest-latency history survives eviction"
    );
    assert_eq!(
        stats.forecast_error.count(),
        before.forecast_error.count(),
        "forecast-error history survives eviction"
    );
    let fstats = fleet.fleet_stats().unwrap();
    assert_eq!(fstats.restores(), 1, "query triggered the lazy restore");
    assert_eq!(fstats.evicted(), 0);
    assert_eq!(fstats.streams(), 2);
    assert!(latest(&fleet, "idle").is_none());

    // Post-restore serving is bit-exact against the uninterrupted
    // control model (last output aside, state round-tripped exactly).
    fleet.try_ingest(&idle, idle_slices[2].clone()).unwrap();
    fleet.flush().unwrap();
    let out = latest(&fleet, "idle").expect("stepped");
    let expect = StreamingFactorizer::step(&mut control, &idle_slices[2]);
    assert_eq!(
        out.completed.data(),
        expect.completed.data(),
        "restored stream diverged from control"
    );
    let fc = forecast(&fleet, "idle", 3).expect("SOFIA forecasts");
    assert_eq!(
        fc.data(),
        control.forecast_slice(3).data(),
        "restored stream's forecast diverged from control"
    );
    assert_eq!(stream_stats(&fleet, "idle").steps, 3);

    fleet.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
