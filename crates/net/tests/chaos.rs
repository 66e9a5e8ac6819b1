//! Fault-injection harness for slot migration: kill the **source node**
//! at every step boundary of the flush → snapshot → register → flip →
//! deregister protocol ([`ClusterClient::migrate_slot_observed`] exposes
//! exactly those boundaries) and prove the cluster's autonomy claims
//! hold through each crash:
//!
//! * **No stream is ever lost.** After recovering the killed node on a
//!   fresh socket, re-pointing the map, and publishing it, a *fresh*
//!   [`ClusterClient`] bootstrapped from a surviving member reaches
//!   every stream at its full step count.
//! * **Every stream is served by exactly one node.** Epoch-carrying
//!   direct probes get an answer from the owner and a typed
//!   `stale-epoch` everywhere else — including from a recovered node
//!   that resurrected a checkpoint copy of a stream whose slot flipped
//!   away while it was down (the fenced-garbage case: the copy exists,
//!   the fence makes it unreachable).
//! * **Forecasts are bit-exact** against an unperturbed single-process
//!   control fleet that never migrated, never crashed, and never
//!   touched a socket.
//!
//! A kill before the flip must roll the migration back (typed error,
//! map untouched, epoch unchanged); a kill after the flip must roll it
//! forward (the sweep returns Ok, the slot serves from the target) —
//! and the slot must still be able to move back onto the recovered
//! node, whose resurrected copies of its streams are stale by then.

use sofia_core::config::SofiaConfig;
use sofia_core::Sofia;
use sofia_datagen::seasonal::SeasonalStream;
use sofia_datagen::stream::TensorStream;
use sofia_fleet::{
    CheckpointPolicy, Fleet, FleetConfig, FleetError, ModelHandle, Query, QueryResponse,
};
use sofia_net::{Client, ClientError, ClusterClient, MigrationStep, Server, ShardMap};
use sofia_tensor::ObservedTensor;
use std::path::PathBuf;

const PERIOD: usize = 4;
const RANK: usize = 2;
/// A multiple of EVERY: at the moment of every kill the checkpoint
/// boundary equals the live step count, so recovery replays nothing and
/// bit-exactness needs no tail replay.
const STEPS: usize = 6;
const EVERY: u64 = 2;
/// Slices each stream takes after the post-flip recovery, so the copies
/// the recovered source resurrected lag the live streams.
const LATE: usize = 2;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sofia-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> SofiaConfig {
    SofiaConfig::new(RANK, PERIOD)
        .with_lambdas(0.01, 0.01, 10.0)
        .with_als_limits(1e-4, 2, 50)
}

fn slices(i: usize) -> (Vec<ObservedTensor>, Vec<ObservedTensor>) {
    let s = SeasonalStream::paper_fig2(&[4, 3], RANK, PERIOD, 900 + i as u64);
    let t0 = 3 * PERIOD;
    let startup = (0..t0)
        .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
        .collect();
    let streamed = (t0..t0 + STEPS + LATE)
        .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
        .collect();
    (startup, streamed)
}

/// Stream `i`'s SOFIA model, deterministic so the cluster and the
/// control fleet start identical.
fn handle(i: usize, startup: &[ObservedTensor]) -> ModelHandle {
    ModelHandle::sofia(Sofia::init(&config(), startup, 70 + i as u64).expect("init"))
}

fn node_config(dir: &PathBuf) -> FleetConfig {
    FleetConfig {
        shards: 2,
        queue_capacity: 64,
        checkpoint: Some(CheckpointPolicy::new(dir, EVERY)),
        evict_idle_after: None,
    }
}

fn forecast_bits(resp: QueryResponse) -> Vec<u64> {
    resp.expect_forecast()
        .expect("these models forecast")
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Every stream answers through `router` at `steps` steps, with
/// forecasts bit-exact against the control fleet.
fn assert_matches_control(
    router: &mut ClusterClient,
    control: &Fleet,
    ids: &[String],
    steps: usize,
    what: &str,
) {
    for (i, id) in ids.iter().enumerate() {
        let stats = router
            .query(id, Query::StreamStats)
            .unwrap_or_else(|e| panic!("{what}: {id} unreachable: {e:?}"))
            .expect_stream_stats();
        assert_eq!(stats.steps as usize, steps, "{what}: {id} lost steps");
        let routed = forecast_bits(
            router
                .query(id, Query::Forecast { horizon: 3 })
                .expect("routed forecast"),
        );
        let local = forecast_bits(
            control
                .query(id, Query::Forecast { horizon: 3 })
                .expect("query")
                .wait()
                .expect("control forecast"),
        );
        assert_eq!(routed, local, "{what}: {id} (stream {i}) diverged");
    }
}

#[derive(Clone, Copy, Debug)]
enum KillPoint {
    Flush,
    Snapshot,
    Register,
    Flip,
}

impl KillPoint {
    fn tag(self) -> &'static str {
        match self {
            KillPoint::Flush => "flush",
            KillPoint::Snapshot => "snapshot",
            KillPoint::Register => "register",
            KillPoint::Flip => "flip",
        }
    }

    fn fires_at(self, step: &MigrationStep<'_>) -> bool {
        matches!(
            (self, step),
            (KillPoint::Flush, MigrationStep::Flushed)
                | (KillPoint::Snapshot, MigrationStep::Snapshotted(_))
                | (KillPoint::Register, MigrationStep::Registered(_))
                | (KillPoint::Flip, MigrationStep::Flipped { .. })
        )
    }
}

/// One full chaos scenario: build a 2-node cluster and an identical
/// control fleet, kill the migration's source node at `kill`, recover
/// it, and assert reachability, single-ownership, and bit-exactness.
fn source_killed_at(kill: KillPoint) {
    let dir_a = tempdir(&format!("{}-a", kill.tag()));
    let dir_b = tempdir(&format!("{}-b", kill.tag()));

    let server_a = Server::bind(
        "127.0.0.1:0",
        Fleet::new(node_config(&dir_a)).expect("fleet a"),
    )
    .expect("a");
    let server_b = Server::bind(
        "127.0.0.1:0",
        Fleet::new(node_config(&dir_b)).expect("fleet b"),
    )
    .expect("b");
    let ep_a = server_a.local_addr().to_string();
    let ep_b = server_b.local_addr().to_string();
    // Four route slots round-robined: 0,2 → A, 1,3 → B. Slot 0 is the
    // one the scenario migrates.
    let mut cluster =
        ClusterClient::from_map(ShardMap::round_robin(&[ep_a.clone(), ep_b.clone()], 2));

    // Two streams hashed onto the migrating slot, one on a B-owned slot,
    // one on A's *other* slot (stays put through every scenario).
    let (mut slot0, mut slot1, mut slot2) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0.. {
        let id = format!("chaos-{k}");
        match cluster.map().shard_of(&id) {
            0 if slot0.len() < 2 => slot0.push(id),
            1 if slot1.is_empty() => slot1.push(id),
            2 if slot2.is_empty() => slot2.push(id),
            _ => {}
        }
        if slot0.len() == 2 && !slot1.is_empty() && !slot2.is_empty() {
            break;
        }
    }
    let ids = [
        slot0[0].clone(),
        slot0[1].clone(),
        slot1[0].clone(),
        slot2[0].clone(),
    ];

    // Identical traffic into the cluster and the single-process control.
    let control = Fleet::new(FleetConfig {
        shards: 2,
        queue_capacity: 64,
        checkpoint: None,
        evict_idle_after: None,
    })
    .expect("control");
    let mut late = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let (startup, mut streamed) = slices(i);
        late.push(streamed.split_off(STEPS));
        cluster
            .register(id, &handle(i, &startup))
            .expect("register");
        control.register(id, handle(i, &startup)).expect("control");
        cluster
            .ingest_blocking(id, streamed.clone())
            .expect("ingest");
        for slice in streamed {
            control.try_ingest_id(id, slice).expect("control ingest");
        }
    }
    cluster.flush().expect("cluster flush");
    control.flush().expect("control flush");

    // --- Migrate slot 0 from A to B; the observation hook aborts the
    // source — no drain, no final checkpoints — at the boundary under
    // test.
    let mut armed = Some(server_a);
    let result = cluster.migrate_slot_observed(0, &ep_b, |step| {
        if kill.fires_at(&step) {
            if let Some(server) = armed.take() {
                server.abort();
            }
        }
    });
    assert!(armed.is_none(), "{kill:?}: the kill point never fired");
    match kill {
        KillPoint::Flip => {
            // Post-flip the coordinator rolls forward: the sweep
            // reports success, the slot serves from the target, and the
            // source's stale copies are left for the fence.
            assert_eq!(result.expect("post-flip kill rolls forward"), 2);
            assert_eq!(cluster.map().epoch(), 1, "exactly one bump at the flip");
            assert_eq!(cluster.map().endpoint_of(&ids[0]), ep_b);
        }
        _ => {
            // Pre-flip the migration aborts: typed error, map and epoch
            // untouched, no half-moved slot.
            result.expect_err("pre-flip kill must abort the sweep");
            assert_eq!(cluster.map().epoch(), 0, "no epoch bump without a flip");
            assert_eq!(cluster.map().endpoint_of(&ids[0]), ep_a);
        }
    }

    // --- Recover the killed node from its checkpoint directory on a
    // fresh socket, re-point the map, and publish the new ownership.
    let (recovered, _) = Fleet::recover(node_config(&dir_a)).expect("recover a");
    let server_a2 = Server::bind("127.0.0.1:0", recovered).expect("rebind a");
    let ep_a2 = server_a2.local_addr().to_string();
    cluster.repoint(&ep_a, &ep_a2);
    let epoch = cluster.publish_map();
    assert!(epoch >= 1, "published map must carry a fencing epoch");

    // --- A fresh router bootstrapped from a surviving member sees the
    // published map and reaches every stream at its full step count,
    // bit-exact against the control fleet.
    let mut fresh = ClusterClient::connect(ep_b.as_str()).expect("fresh router");
    assert_eq!(
        fresh.map().epoch(),
        epoch,
        "member handshake serves the epoch"
    );
    assert_matches_control(&mut fresh, &control, &ids, STEPS, &format!("{kill:?}"));

    // --- Exactly one node serves each stream. Direct probes adopt the
    // probed node's (epoch-carrying) map from the handshake, so the
    // non-owner answers with a typed stale-epoch — even when it holds a
    // resurrected checkpoint copy (a post-flip kill leaves slot 0's
    // files on A; recovery resurrects them; the fence strands them).
    for id in &ids {
        let owner = fresh.map().endpoint_of(id).to_string();
        for ep in [&ep_a2, &ep_b] {
            let mut direct = Client::connect(ep).expect("direct probe");
            let res = direct.query(id, Query::StreamStats);
            if **ep == owner {
                let stats = res
                    .unwrap_or_else(|e| panic!("{kill:?}: owner {ep} refused {id}: {e:?}"))
                    .expect_stream_stats();
                assert_eq!(stats.steps as usize, STEPS);
            } else {
                assert!(
                    matches!(res, Err(ClientError::Fleet(FleetError::StaleEpoch { .. }))),
                    "{kill:?}: non-owner {ep} must fence {id}, got {res:?}"
                );
            }
        }
    }

    // --- Post-flip, the recovered source holds fenced copies of slot
    // 0's streams. Let the live streams move on, then move the slot
    // back onto that node: its stale copies are replaced by the live
    // checkpoints, not mistaken for an obstacle.
    if let KillPoint::Flip = kill {
        for (i, id) in ids.iter().enumerate() {
            cluster
                .ingest_blocking(id, late[i].clone())
                .expect("late ingest");
            for slice in &late[i] {
                control
                    .try_ingest_id(id, slice.clone())
                    .expect("control ingest");
            }
        }
        cluster.flush().expect("cluster flush");
        control.flush().expect("control flush");
        assert_eq!(
            cluster
                .migrate_slot(0, &ep_a2)
                .expect("slot 0 moves back onto its stale copies"),
            2
        );
        assert_eq!(cluster.map().endpoint_of(&ids[0]), ep_a2);
        assert_matches_control(&mut cluster, &control, &ids, STEPS + LATE, "move back");
    }

    server_a2.shutdown().expect("drain a2");
    server_b.shutdown().expect("drain b");
    control.shutdown().expect("control shutdown");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn source_killed_after_flush_rolls_back_and_recovers() {
    source_killed_at(KillPoint::Flush);
}

#[test]
fn source_killed_after_snapshot_rolls_back_and_recovers() {
    source_killed_at(KillPoint::Snapshot);
}

#[test]
fn source_killed_after_register_rolls_back_and_recovers() {
    source_killed_at(KillPoint::Register);
}

#[test]
fn source_killed_after_flip_rolls_forward_and_recovers() {
    source_killed_at(KillPoint::Flip);
}
