//! Cluster integration tests: two real `Server` processes' worth of
//! state (independent fleets, independent checkpoint directories,
//! independent sockets — everything separate except the test's address
//! space) routed by one [`ClusterClient`], and the engine's strongest
//! guarantee re-proven at cluster scope:
//!
//! * a stream registered on node A is **unreachable** on node B (a
//!   direct client gets a typed `UnknownStream`, the router finds it);
//! * [`ClusterClient::migrate_slot`] moves the stream's route slot to
//!   node B by shipping its checkpoint envelope through the wire
//!   `snapshot` → `register` path, after which node A no longer holds
//!   the stream and node B serves it at its full pre-migration step
//!   count;
//! * node A then **crash-aborts** and restarts from its checkpoint
//!   directory: the migrated stream does *not* resurrect there (its
//!   checkpoint file left with it), the surviving streams replay their
//!   lost tail, and every forecast served through the router is
//!   **bit-exact** against a single-process fleet that never migrated,
//!   never crashed, and never touched a socket.
//!
//! The same scenario across OS processes (spawned `serve` binaries) is
//! driven by `sofia-cli cluster`, which CI runs as a smoke test.

use sofia_core::config::SofiaConfig;
use sofia_core::Sofia;
use sofia_datagen::seasonal::SeasonalStream;
use sofia_datagen::stream::TensorStream;
use sofia_fleet::{
    CheckpointPolicy, Fleet, FleetConfig, FleetError, MetricKind, ModelHandle, Query, QueryResponse,
};
use sofia_net::{Client, ClientError, ClusterClient, Server, ServerConfig, ShardMap};
use sofia_tensor::ObservedTensor;
use std::path::PathBuf;

const PERIOD: usize = 4;
const RANK: usize = 2;
const PRE_CRASH: usize = 5;
const TOTAL: usize = 9;
/// Not dividing PRE_CRASH, so node A's crash loses a tail that recovery
/// must replay (checkpoint boundary: floor(5/2)*2 = 4).
const EVERY: u64 = 2;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sofia-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> SofiaConfig {
    SofiaConfig::new(RANK, PERIOD)
        .with_lambdas(0.01, 0.01, 10.0)
        .with_als_limits(1e-4, 2, 50)
}

fn slices(i: usize) -> (Vec<ObservedTensor>, Vec<ObservedTensor>) {
    let s = SeasonalStream::paper_fig2(&[4, 3], RANK, PERIOD, 500 + i as u64);
    let t0 = 3 * PERIOD;
    let startup = (0..t0)
        .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
        .collect();
    let streamed = (t0..t0 + TOTAL)
        .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
        .collect();
    (startup, streamed)
}

/// Stream `i`'s SOFIA model, deterministic so the cluster and the
/// in-process control fleet start identical.
fn handle(i: usize, startup: &[ObservedTensor]) -> ModelHandle {
    ModelHandle::sofia(Sofia::init(&config(), startup, 40 + i as u64).expect("init"))
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

fn expect_unknown(result: Result<QueryResponse, ClientError>, what: &str) {
    match result {
        Err(ClientError::Fleet(FleetError::UnknownStream(_))) => {}
        other => panic!("{what}: expected UnknownStream, got {other:?}"),
    }
}

/// The acceptance scenario: register on A → unreachable on B → migrate
/// its slot to B → crash A → recover A → bit-exact vs an unmigrated,
/// uncrashed single-process fleet.
#[test]
fn migrate_then_crash_then_recover_is_bit_exact_vs_single_process_fleet() {
    let dir_a = tempdir("node-a");
    let dir_b = tempdir("node-b");

    // --- Two independent nodes (own fleet, own checkpoint dir, own
    // socket), and the ownership table a deployment spec expands to:
    // four route slots round-robined over both endpoints.
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
    let mut cluster =
        ClusterClient::from_map(ShardMap::round_robin(&[ep_a.clone(), ep_b.clone()], 2));

    // Pick one stream id per route slot (the route is the stable FNV
    // hash, so ownership is a property of the id): slots 0,2 are A's,
    // 1,3 are B's, and every slot move below carries exactly one stream.
    let mut per_slot: Vec<Option<String>> = vec![None; cluster.map().shards()];
    for k in 0.. {
        let id = format!("stream-{k}");
        per_slot[cluster.map().shard_of(&id)].get_or_insert(id);
        if per_slot.iter().all(Option::is_some) {
            break;
        }
    }
    // Fixed registration order: [A, B, A, B].
    let ids: [String; 4] = std::array::from_fn(|slot| per_slot[slot].clone().expect("filled"));
    let ids_a = [ids[0].clone(), ids[2].clone()];
    let ids_b = [ids[1].clone(), ids[3].clone()];

    // --- Single-process control fleet: same ids, same models, same
    // slices; never migrated, never crashed, never serialized.
    let control = Fleet::new(FleetConfig {
        shards: 2,
        queue_capacity: 64,
        checkpoint: None,
        evict_idle_after: None,
    })
    .expect("control");
    let mut streamed_slices = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let (startup, streamed) = slices(i);
        cluster
            .register(id, &handle(i, &startup))
            .expect("register through the router");
        control.register(id, handle(i, &startup)).expect("control");
        streamed_slices.push(streamed);
    }
    for (i, id) in ids.iter().enumerate() {
        for slice in &streamed_slices[i] {
            control
                .try_ingest_id(id, slice.clone())
                .expect("control ingest");
        }
    }
    control.flush().expect("control flush");

    // --- The sharding claim: a stream registered on node A exists on
    // node A only. A client talking to node B directly gets the typed
    // UnknownStream; the router finds it because the map routes it.
    {
        let mut direct_b = Client::connect(server_b.local_addr()).expect("direct b");
        expect_unknown(
            direct_b.query(&ids_a[0], Query::StreamStats),
            "A-owned stream on node B",
        );
    }
    let stats = cluster
        .query(&ids_a[0], Query::StreamStats)
        .expect("routed")
        .expect_stream_stats();
    assert_eq!(stats.model, "SOFIA");

    // --- Pre-crash traffic through the router; cluster flush is the
    // read-your-writes barrier across every node.
    for (i, id) in ids.iter().enumerate() {
        cluster
            .ingest_blocking(id, streamed_slices[i][..PRE_CRASH].to_vec())
            .expect("routed ingest");
    }
    cluster.flush().expect("cluster flush");

    // Merged stats: both nodes' shards, re-numbered uniquely, counters
    // summing over the whole cluster, every entry tagged with the
    // endpoint it came from (the attribution the re-numbering would
    // otherwise lose).
    let merged = cluster.stats().expect("merged stats");
    assert_eq!(merged.shards.len(), 4, "2 shards x 2 nodes");
    let mut shard_ids: Vec<usize> = merged.shards.iter().map(|s| s.shard).collect();
    shard_ids.sort_unstable();
    assert_eq!(shard_ids, vec![0, 1, 2, 3], "unique merged shard ids");
    assert_eq!(merged.streams(), 4);
    assert_eq!(merged.steps(), (4 * PRE_CRASH) as u64);
    assert_eq!(merged.shards[0].endpoint.as_deref(), Some(ep_a.as_str()));
    assert_eq!(merged.shards[3].endpoint.as_deref(), Some(ep_b.as_str()));
    // The sketch partials crossed the wire: every applied step is in the
    // merged latency sketch, and its extremes are real measurements.
    let latency = merged.ingest_latency();
    assert_eq!(latency.count(), (4 * PRE_CRASH) as u64);
    assert!(latency.min().expect("non-empty") > 0.0);

    // Batched queries group by owning endpoint and stay aligned with
    // the request vector, per-item failures included.
    let batch = cluster
        .query_batch(&[
            (&ids[0], Query::StreamStats),
            (&ids[1], Query::StreamStats),
            ("ghost", Query::Latest),
            (&ids[3], Query::Forecast { horizon: 2 }),
        ])
        .expect("cluster batch");
    assert_eq!(batch.len(), 4);
    assert_eq!(
        batch[0]
            .as_ref()
            .expect("stats")
            .clone()
            .expect_stream_stats()
            .steps,
        PRE_CRASH as u64
    );
    assert_eq!(
        batch[1]
            .as_ref()
            .expect("stats")
            .clone()
            .expect_stream_stats()
            .steps,
        PRE_CRASH as u64
    );
    assert!(matches!(batch[2], Err(FleetError::UnknownStream(_))));
    assert!(matches!(batch[3], Ok(QueryResponse::Forecast(Some(_)))));

    // --- Migration: ship the SOFIA stream's slot from A to B over the
    // wire. The snapshot is taken from the *live* model (5 steps), not
    // the last periodic checkpoint (4) — nothing is lost to checkpoint
    // lag.
    let mig = ids_a[0].clone();
    let mig_slot = cluster.map().shard_of(&mig);
    assert_eq!(
        cluster.migrate_slot(mig_slot, &ep_b).expect("migrate"),
        1,
        "the slot carries exactly one stream"
    );
    assert_eq!(cluster.endpoint_of(&mig), ep_b, "slot owner flipped");
    assert_eq!(cluster.map().epoch(), 1, "one epoch bump per flip");
    // No durability window: the target persisted the arrived envelope
    // before the coordinator deleted the source's file, so a crash of
    // EITHER node right now cannot lose the stream.
    assert!(
        sofia_fleet::durability::checkpoint_path(&dir_b, &mig).exists(),
        "target persisted the migrated stream on arrival"
    );
    assert!(
        !sofia_fleet::durability::checkpoint_path(&dir_a, &mig).exists(),
        "source's checkpoint left with the stream"
    );
    {
        // The old node's fence would refuse the stream even if a copy
        // were left; its listing proves the copy itself is gone.
        let mut direct_a = Client::connect(server_a.local_addr()).expect("direct a");
        assert_eq!(
            direct_a.stream_ids().expect("list a"),
            vec![ids_a[1].clone()],
            "the migrated stream left its old node"
        );
        let mut direct_b = Client::connect(server_b.local_addr()).expect("direct b");
        let stats = direct_b
            .query(&mig, Query::StreamStats)
            .expect("served by b")
            .expect_stream_stats();
        assert_eq!(stats.steps, PRE_CRASH as u64, "live steps survived");
        assert_eq!(stats.model, "SOFIA");
    }
    // A memory-only target cannot accept a migration: the coordinator
    // would delete the source's durable copy on the word of a node that
    // persisted nothing. The attempt rolls back — typed error, map
    // unchanged, source still serving.
    let transient = Server::bind(
        "127.0.0.1:0",
        Fleet::new(FleetConfig::with_shards(1)).expect("transient fleet"),
    )
    .expect("bind transient");
    let ep_t = transient.local_addr().to_string();
    match cluster.migrate_slot(cluster.map().shard_of(&ids_b[0]), &ep_t) {
        Err(ClientError::Protocol(msg)) => {
            assert!(msg.contains("did not persist"), "{msg}")
        }
        other => panic!("expected a durability abort, got {other:?}"),
    }
    assert_eq!(cluster.endpoint_of(&ids_b[0]), ep_b, "map unchanged");
    assert_eq!(
        cluster
            .query(&ids_b[0], Query::StreamStats)
            .expect("source still serves after the aborted migration")
            .expect_stream_stats()
            .steps,
        PRE_CRASH as u64
    );
    transient.shutdown().expect("transient down");

    // Migrating a slot to its current owner, or a slot the map does not
    // have, is a typed error.
    assert!(matches!(
        cluster.migrate_slot(mig_slot, &ep_b),
        Err(ClientError::Protocol(_))
    ));
    match cluster.migrate_slot(cluster.map().shards(), &ep_b) {
        Err(ClientError::Protocol(msg)) => assert!(msg.contains("out of range"), "{msg}"),
        other => panic!("expected a typed failure, got {other:?}"),
    }

    // --- Crash node A (no drain, no final checkpoints), restart it
    // from its checkpoint directory on a fresh socket.
    server_a.abort();
    let (recovered, n) = Fleet::recover(node_config(&dir_a)).expect("recover a");
    assert_eq!(
        n, 1,
        "exactly the surviving A stream recovers — the migrated \
         stream's checkpoint left with it"
    );
    assert_eq!(recovered.stream_ids(), vec![ids_a[1].clone()]);
    let server_a2 = Server::bind("127.0.0.1:0", recovered).expect("rebind a");
    let ep_a2 = server_a2.local_addr().to_string();
    // The router follows the restarted node to its new address; the
    // migrated stream's slot keeps pointing at B.
    let changed = cluster.repoint(&ep_a, &ep_a2);
    assert_eq!(changed, 1, "node A owns one route slot after the move");
    assert_eq!(cluster.endpoint_of(&mig), ep_b);

    // --- Replay and continue: the surviving A stream resumes at the
    // checkpoint boundary (the crash lost its tail); everything on B —
    // the migrated stream included — kept its full step count.
    let boundary = ((PRE_CRASH as u64 / EVERY) * EVERY) as usize;
    for (i, id) in ids.iter().enumerate() {
        let steps = cluster
            .query(id, Query::StreamStats)
            .expect("stats")
            .expect_stream_stats()
            .steps as usize;
        let resume = if *id == ids_a[1] { boundary } else { PRE_CRASH };
        assert_eq!(steps, resume, "{id} resumed at the right step");
        cluster
            .ingest_blocking(id, streamed_slices[i][resume..].to_vec())
            .expect("replay + continue");
    }
    cluster.flush().expect("final flush");

    // --- The decisive assertion: after register-over-wire, migration,
    // a crash, and a recovery, every forecast and latest slice served
    // through the router is bit-identical to the single-process fleet.
    for (i, id) in ids.iter().enumerate() {
        let routed = forecast_bits(
            cluster
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
        assert_eq!(routed, local, "{id}: cluster vs single-process forecast");
        let routed_latest = cluster
            .query(id, Query::Latest)
            .expect("latest")
            .expect_latest()
            .expect("stepped");
        let control_latest = control
            .query(id, Query::Latest)
            .expect("query")
            .wait()
            .expect("latest")
            .expect_latest()
            .expect("stepped");
        assert_eq!(
            routed_latest.completed.data(),
            control_latest.completed.data(),
            "{id}: latest diverged (stream {i})"
        );
    }

    // Moving the slot back home keeps the forecast bit-exact across the
    // round trip (`latest` resets, as after any restore — which is why
    // this runs after the latest comparisons above).
    let home_before = forecast_bits(
        cluster
            .query(&mig, Query::Forecast { horizon: 3 })
            .expect("pre-move forecast"),
    );
    cluster
        .migrate_slot(mig_slot, &ep_a2)
        .expect("migrate home");
    assert_eq!(cluster.endpoint_of(&mig), ep_a2);
    let home_after = forecast_bits(
        cluster
            .query(&mig, Query::Forecast { horizon: 3 })
            .expect("post-move forecast"),
    );
    assert_eq!(home_before, home_after, "round-trip migration diverged");

    // --- Graceful cluster-wide shutdown: every node acknowledges,
    // drains, and writes final checkpoints.
    assert_eq!(cluster.shutdown_all().expect("shutdown frames"), 2);
    assert!(server_a2.shutdown_requested());
    assert!(server_b.shutdown_requested());
    server_a2.shutdown().expect("drain a");
    server_b.shutdown().expect("drain b");
    control.shutdown().expect("control shutdown");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// A cluster member advertises the full spec map in its handshake, so a
/// router can bootstrap from any one seed address.
#[test]
fn cluster_client_bootstraps_from_a_member_handshake() {
    // A spec must name the server before it binds (deployments use
    // fixed ports; ephemeral binds cannot be in a pre-agreed map), so
    // reserve a free port, drop the probe, and re-bind it. Another
    // process can grab the port in that window — retry the whole
    // reserve-and-bind rather than flake.
    let (server, ep_self, spec) = (0..10)
        .find_map(|_| {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").ok()?;
            let ep = probe.local_addr().ok()?.to_string();
            drop(probe);
            let spec = ShardMap::round_robin(&[ep.clone(), "127.0.0.1:1".into()], 1);
            let fleet = Fleet::new(FleetConfig::with_shards(2)).expect("fleet");
            Server::bind_with(
                &ep,
                fleet,
                ServerConfig {
                    cluster: Some(spec.clone()),
                    ..ServerConfig::default()
                },
            )
            .ok()
            .map(|server| (server, ep, spec))
        })
        .expect("a reserved port stays free within 10 attempts");

    let mut cluster = ClusterClient::connect(&ep_self).expect("bootstrap from seed");
    assert_eq!(cluster.map(), &spec, "handshake carried the full spec");

    // A stream hashed onto the seed's slot is servable immediately over
    // the reused seed connection (the other endpoint is never dialed).
    let own = (0..)
        .map(|k| format!("s-{k}"))
        .find(|id| cluster.map().endpoint_of(id) == ep_self)
        .expect("some id routes to the seed");
    let (startup, _) = slices(0);
    cluster
        .register(&own, &handle(1, &startup))
        .expect("register through the bootstrapped router");
    let stats = cluster
        .query(&own, Query::StreamStats)
        .expect("routed query")
        .expect_stream_stats();
    assert_eq!(stats.model, "SOFIA");

    // A cluster map that never routes to the node is refused at the
    // API boundary — advertising it would strand every stream this
    // node owns behind wrong addresses.
    let stranded = Server::bind_with(
        "127.0.0.1:0",
        Fleet::new(FleetConfig::with_shards(1)).expect("fleet"),
        ServerConfig {
            cluster: Some(ShardMap::round_robin(&["10.255.0.1:1".into()], 1)),
            ..ServerConfig::default()
        },
    );
    assert!(stranded.is_err(), "self-less cluster map must be refused");

    server.shutdown().expect("shutdown");
}

/// The observability acceptance requirement: a cluster of two single-shard
/// nodes and a single-process two-shard fleet serve the same streams,
/// the same slices, in the same order — and the cluster-merged
/// forecast-error **moment partials are bit-exact** against the single
/// process. The topology makes the partitions line up: the route slot is
/// `hash % 2` and the control fleet's shard is `hash % 2`, so merged
/// shard *i* holds exactly the control's shard-*i* streams and each
/// worker accumulates the same residuals in the same order.
///
/// Wall-clock latency cannot be compared across runs, but its *count* is
/// exact; the deterministic drift metric is compared to the bit.
#[test]
fn cluster_merged_drift_sketches_are_bit_exact_vs_single_process_fleet() {
    let server_a = Server::bind(
        "127.0.0.1:0",
        Fleet::new(FleetConfig::with_shards(1)).expect("fleet a"),
    )
    .expect("a");
    let server_b = Server::bind(
        "127.0.0.1:0",
        Fleet::new(FleetConfig::with_shards(1)).expect("fleet b"),
    )
    .expect("b");
    let ep_a = server_a.local_addr().to_string();
    let ep_b = server_b.local_addr().to_string();
    let mut cluster =
        ClusterClient::from_map(ShardMap::round_robin(&[ep_a.clone(), ep_b.clone()], 1));
    let control = Fleet::new(FleetConfig::with_shards(2)).expect("control");

    // Two streams per node, registered and fed in one fixed global
    // order on both sides.
    let (mut ids_a, mut ids_b) = (Vec::new(), Vec::new());
    for k in 0.. {
        let id = format!("drift-{k}");
        if cluster.map().endpoint_of(&id) == ep_a && ids_a.len() < 2 {
            ids_a.push(id);
        } else if cluster.map().endpoint_of(&id) == ep_b && ids_b.len() < 2 {
            ids_b.push(id);
        }
        if ids_a.len() == 2 && ids_b.len() == 2 {
            break;
        }
    }
    let ids = [
        ids_a[0].clone(),
        ids_b[0].clone(),
        ids_a[1].clone(),
        ids_b[1].clone(),
    ];
    let mut streamed_slices = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let (startup, streamed) = slices(i);
        cluster.register(id, &handle(i, &startup)).expect("routed");
        control.register(id, handle(i, &startup)).expect("control");
        streamed_slices.push(streamed);
    }
    for (i, id) in ids.iter().enumerate() {
        cluster
            .ingest_blocking(id, streamed_slices[i].clone())
            .expect("routed ingest");
        for slice in &streamed_slices[i] {
            control
                .try_ingest_id(id, slice.clone())
                .expect("control ingest");
        }
        control.flush().expect("order barrier");
    }
    cluster.flush().expect("cluster flush");

    let merged = cluster.stats().expect("merged stats");
    let local = control.fleet_stats().expect("control stats");
    assert_eq!(merged.shards.len(), 2);
    assert_eq!(merged.steps(), local.steps());

    // Fleet-wide drift rollup: the two moment partials folded in the
    // same shard order must agree to the bit — sums, extremes, counts.
    let over_wire = merged.forecast_error();
    let in_process = local.forecast_error();
    assert!(over_wire.count() > 0, "the models forecast, drift recorded");
    assert_eq!(over_wire.count(), in_process.count());
    assert_eq!(
        over_wire.moments().sum().to_bits(),
        in_process.moments().sum().to_bits(),
        "merged drift sum must be bit-exact across the wire"
    );
    assert_eq!(
        over_wire.moments().sum_sq().to_bits(),
        in_process.moments().sum_sq().to_bits()
    );
    assert_eq!(
        over_wire.min().map(f64::to_bits),
        in_process.min().map(f64::to_bits)
    );
    assert_eq!(
        over_wire.max().map(f64::to_bits),
        in_process.max().map(f64::to_bits)
    );
    // Latency is wall-clock — only its bookkeeping is comparable.
    assert_eq!(
        merged.ingest_latency().count(),
        local.ingest_latency().count()
    );

    // Per-stream: the full drift summary (digest included) emits a
    // byte-identical wire form on both sides, and the typed quantile
    // query answers with the same bits the in-process fleet computes.
    for id in &ids {
        let routed = cluster
            .query(id, Query::StreamStats)
            .expect("routed stats")
            .expect_stream_stats();
        let direct = control
            .query(id, Query::StreamStats)
            .expect("query")
            .wait()
            .expect("control stats")
            .expect_stream_stats();
        let wire_form = |m: &sofia_sketch::MetricSummary| {
            let mut s = String::new();
            m.push_wire(&mut s);
            s
        };
        assert_eq!(
            wire_form(&routed.forecast_error),
            wire_form(&direct.forecast_error),
            "{id}: per-stream drift summary diverged across the wire"
        );
        for q in [0.5, 0.99, 0.999] {
            let over_wire = cluster
                .query(
                    id,
                    Query::Quantile {
                        metric: MetricKind::ForecastError,
                        q,
                    },
                )
                .expect("routed quantile")
                .expect_quantile();
            let in_process = control
                .query(
                    id,
                    Query::Quantile {
                        metric: MetricKind::ForecastError,
                        q,
                    },
                )
                .expect("query")
                .wait()
                .expect("control quantile")
                .expect_quantile();
            assert_eq!(
                over_wire.map(f64::to_bits),
                in_process.map(f64::to_bits),
                "{id}: p{q} drift quantile diverged across the wire"
            );
        }
    }

    server_a.shutdown().expect("a down");
    server_b.shutdown().expect("b down");
    control.shutdown().expect("control down");
}

/// The node-health rollup keeps the PR 6 partializable-aggregate
/// contract at cluster scope: [`ClusterClient::metrics`] fetches one
/// [`sofia_net::NetStats`] per endpoint in map order, and
/// [`ClusterMetrics::merged`] folding those reports is **bit-exact**
/// (settle-latency moment partials compared by `to_bits`) against
/// folding the same two reports through their wire forms by endpoint
/// order — serialization is never where determinism goes to die.
#[test]
fn cluster_metrics_rollup_is_bit_exact_vs_folding_wire_forms() {
    use sofia_fleet::protocol::wire::LineCursor;
    use sofia_net::{parse_net_stats, push_net_stats, NetStats};

    let plain = || FleetConfig {
        shards: 2,
        queue_capacity: 64,
        checkpoint: None,
        evict_idle_after: None,
    };
    let server_a = Server::bind("127.0.0.1:0", Fleet::new(plain()).expect("fleet a")).expect("a");
    let server_b = Server::bind("127.0.0.1:0", Fleet::new(plain()).expect("fleet b")).expect("b");
    let ep_a = server_a.local_addr().to_string();
    let ep_b = server_b.local_addr().to_string();
    let mut cluster =
        ClusterClient::from_map(ShardMap::round_robin(&[ep_a.clone(), ep_b.clone()], 2));

    // Traffic on both nodes (flush broadcasts), so both reports carry
    // real settle-latency observations, not just empty summaries.
    for _ in 0..5 {
        cluster.flush().expect("cluster flush");
    }

    let report = cluster.metrics().expect("cluster metrics");
    assert_eq!(report.nodes.len(), 2);
    assert_eq!(
        report.nodes[0].endpoint.as_deref(),
        Some(ep_a.as_str()),
        "reports arrive in map order"
    );
    assert_eq!(report.nodes[1].endpoint.as_deref(), Some(ep_b.as_str()));
    for node in &report.nodes {
        assert!(node.accepted >= 1, "the router connected to every node");
        assert!(
            !node.settle_latency.is_empty(),
            "{:?} served requests",
            node.endpoint
        );
    }

    let merged = report.merged();
    assert!(merged.endpoint.is_none(), "a rollup has no single endpoint");
    assert_eq!(
        merged.accepted,
        report.nodes.iter().map(|n| n.accepted).sum::<u64>()
    );
    assert_eq!(
        merged.settle_latency.count(),
        report
            .nodes
            .iter()
            .map(|n| n.settle_latency.count())
            .sum::<u64>()
    );

    // The acceptance bit: fold the SAME per-node reports through their
    // wire forms, in the same endpoint order, and every settle-latency
    // moment partial matches `merged` to the bit.
    let mut folded = NetStats::default();
    for node in &report.nodes {
        let mut wire = String::new();
        push_net_stats(&mut wire, node);
        let mut cur = LineCursor::new(&wire);
        let parsed = parse_net_stats(&mut cur).expect("parse node report");
        cur.finish().expect("report fully consumed");
        folded.merge(&parsed);
    }
    let (m, f) = (
        merged.settle_latency.moments(),
        folded.settle_latency.moments(),
    );
    assert_eq!(m.count(), f.count());
    assert_eq!(m.sum().to_bits(), f.sum().to_bits());
    assert_eq!(m.sum_sq().to_bits(), f.sum_sq().to_bits());
    assert_eq!(m.min().map(f64::to_bits), f.min().map(f64::to_bits));
    assert_eq!(m.max().map(f64::to_bits), f.max().map(f64::to_bits));
    // The exact counters fold identically too, ring included.
    assert_eq!(merged.accepted, folded.accepted);
    assert_eq!(merged.frames_decoded, folded.frames_decoded);
    assert_eq!(merged.write_buffer_highwater, folded.write_buffer_highwater);
    assert_eq!(merged.slow_threshold_us, folded.slow_threshold_us);
    assert_eq!(merged.slow, folded.slow);

    server_a.shutdown().expect("a down");
    server_b.shutdown().expect("b down");
}

/// The stale-client acceptance scenario over real sockets: a router
/// bootstrapped at epoch *n* keeps working after the coordinator moves
/// a slot (epoch *n+1*) behind its back — the old owner answers with a
/// typed `stale-epoch` reject carrying the current map, the client
/// adopts it and retries once, the answer is bit-exact, and the
/// client's map epoch is observed to advance. No operator, no restart.
#[test]
fn stale_client_is_fenced_then_rerouted_transparently() {
    let dir_a = tempdir("stale-a");
    let dir_b = tempdir("stale-b");
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
    let mut coordinator =
        ClusterClient::from_map(ShardMap::round_robin(&[ep_a.clone(), ep_b.clone()], 2));

    // One stream hashed onto slot 0 (A-owned), fed and flushed.
    let id = (0..)
        .map(|k| format!("fence-{k}"))
        .find(|id| coordinator.map().shard_of(id) == 0)
        .expect("some id hashes to slot 0");
    let (startup, streamed) = slices(0);
    coordinator
        .register(&id, &handle(0, &startup))
        .expect("register");
    coordinator
        .ingest_blocking(&id, streamed)
        .expect("pre-move traffic");
    coordinator.flush().expect("barrier");

    // First move (A → B) so a freshly bootstrapped client holds a map
    // that is epoch-carrying but about to go stale.
    assert!(coordinator.migrate_slot(0, &ep_b).expect("first move") >= 1);
    assert_eq!(coordinator.map().epoch(), 1);
    let mut stale = ClusterClient::connect(ep_a.as_str()).expect("bootstrap at epoch 1");
    assert_eq!(stale.map().epoch(), 1, "member handshake carried the epoch");
    let before = forecast_bits(
        stale
            .query(&id, Query::Forecast { horizon: 3 })
            .expect("serves while current"),
    );
    let old_map = stale.map().clone();

    // Second move (B → A, epoch 2) that `stale` never hears about.
    coordinator.migrate_slot(0, &ep_a).expect("second move");
    assert_eq!(coordinator.map().epoch(), 2);
    let reference = forecast_bits(
        coordinator
            .query(&id, Query::Forecast { horizon: 3 })
            .expect("authoritative answer"),
    );

    // The raw wire contract first: a connection stamping the old epoch
    // gets the typed reject, and the reject's payload IS the current
    // map — the hand-off that makes the retry possible.
    {
        let mut old = Client::connect(server_b.local_addr()).expect("direct b");
        old.adopt_map(old_map);
        match old.query(&id, Query::StreamStats) {
            Err(ClientError::Fleet(FleetError::StaleEpoch { epoch })) => {
                assert_eq!(epoch, 2, "reject names the server's epoch")
            }
            other => panic!("expected the typed stale-epoch, got {other:?}"),
        }
        let pushed = old
            .take_stale_map()
            .expect("reject carries the current map");
        assert_eq!(pushed.epoch(), 2);
        assert_eq!(pushed.endpoint_of(&id), ep_a);
    }

    // The router recovers on its own: fenced at B, one transparent
    // retry at A, bit-exact answer, map epoch advanced.
    let after = forecast_bits(
        stale
            .query(&id, Query::Forecast { horizon: 3 })
            .expect("transparent reroute"),
    );
    assert_eq!(after, reference, "rerouted answer vs authoritative");
    assert_eq!(after, before, "the round trip preserved the model bits");
    assert_eq!(stale.map().epoch(), 2, "the client's map advanced");
    assert_eq!(stale.map().endpoint_of(&id), ep_a);

    server_a.shutdown().expect("a down");
    server_b.shutdown().expect("b down");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
