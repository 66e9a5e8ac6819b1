//! Cluster tour: two `sofia-net` servers in one process (each its own
//! fleet — separate registries, separate checkpoint state), a
//! [`ClusterClient`] routing between them over a multi-endpoint
//! [`ShardMap`], and a live **slot migration**.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example cluster_migration
//! ```
//!
//! What it shows, in order: round-robin slot ownership, a stream
//! existing on exactly one node (a direct client to the other node gets
//! a typed `UnknownStream`), cluster-wide flush and merged stats, and a
//! migration of the stream's route slot — checkpoint shipped
//! through the wire `snapshot` → `register` path, slot owner flipped and
//! published, old copy unloaded — with the forecast asserted bit-exact
//! across the move. The same choreography
//! across real OS processes is `sofia-cli cluster`; the crash/recovery
//! variant is `crates/net/tests/cluster.rs`.

use sofia::core::{Sofia, SofiaConfig};
use sofia::datagen::seasonal::SeasonalStream;
use sofia::datagen::stream::TensorStream;
use sofia::fleet::{CheckpointPolicy, Fleet, FleetConfig, FleetError, ModelHandle, Query};
use sofia::net::client::ClientError;
use sofia::net::{Client, ClusterClient, Server, ShardMap};
use sofia::tensor::ObservedTensor;
use std::path::PathBuf;

fn main() {
    // --- 1. Two independent nodes, each with its own checkpoint
    // directory — migration requires a durable target (the coordinator
    // deletes the source's checkpoint once the target has persisted the
    // stream). In production these are separate processes on separate
    // machines (`sofia-cli serve --cluster …`); loopback keeps the tour
    // self-contained.
    let dir = |tag: &str| -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "sofia-cluster-example-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    };
    let (dir_a, dir_b) = (dir("a"), dir("b"));
    let node = |dir: &PathBuf| {
        Fleet::new(FleetConfig {
            shards: 2,
            checkpoint: Some(CheckpointPolicy::new(dir, 4)),
            ..FleetConfig::default()
        })
        .expect("fleet")
    };
    let node_a = Server::bind("127.0.0.1:0", node(&dir_a)).expect("bind a");
    let node_b = Server::bind("127.0.0.1:0", node(&dir_b)).expect("bind b");
    let ep_a = node_a.local_addr().to_string();
    let ep_b = node_b.local_addr().to_string();

    // --- 2. The ownership table: four route slots (stable FNV stream
    // hash) round-robined over both endpoints, shared by every router.
    let map = ShardMap::round_robin(&[ep_a.clone(), ep_b.clone()], 2);
    let mut router = ClusterClient::from_map(map);
    println!(
        "cluster map: {} slots over [{ep_a}, {ep_b}]",
        router.map().shards()
    );

    // --- 3. Register a stream; it lands on whichever node its id
    // hashes to, and *only* there.
    let period = 4;
    let source = SeasonalStream::paper_fig2(&[6, 5], 2, period, 77);
    let startup: Vec<ObservedTensor> = (0..3 * period)
        .map(|t| ObservedTensor::fully_observed(source.clean_slice(t)))
        .collect();
    let config = SofiaConfig::new(2, period)
        .with_lambdas(0.01, 0.01, 10.0)
        .with_als_limits(1e-3, 1, 40);
    let model = Sofia::init(&config, &startup, 77).expect("init");
    let stream = "demo-stream";
    let owner = router.endpoint_of(stream).to_string();
    let other = if owner == ep_a {
        ep_b.clone()
    } else {
        ep_a.clone()
    };
    router
        .register(stream, &ModelHandle::sofia(model))
        .expect("register through the router");
    println!("`{stream}` registered on its owner {owner}");

    let mut direct = Client::connect(&other).expect("direct connect");
    match direct.query(stream, Query::StreamStats) {
        Err(ClientError::Fleet(FleetError::UnknownStream(_))) => {
            println!("`{stream}` is (correctly) unknown on {other} — sharding is real");
        }
        unexpected => panic!("expected UnknownStream on {other}, got {unexpected:?}"),
    }

    // --- 4. Traffic through the router; flush is the cluster-wide
    // read-your-writes barrier (every node flushed).
    let slices: Vec<ObservedTensor> = (3 * period..3 * period + 8)
        .map(|t| ObservedTensor::fully_observed(source.clean_slice(t)))
        .collect();
    router
        .ingest_blocking(stream, slices)
        .expect("routed ingest");
    router.flush().expect("cluster flush");
    let before = router
        .query(stream, Query::Forecast { horizon: 4 })
        .expect("forecast")
        .expect_forecast()
        .expect("SOFIA forecasts");

    // --- 5. Migrate the stream's route slot (it is the slot's only
    // stream): flush → snapshot (checkpoint over the wire) →
    // register on the target → flip the slot's owner, bump and publish
    // the epoch → deregister the old copy. Single-writer coordination,
    // no consensus.
    let slot = router.map().shard_of(stream);
    router.migrate_slot(slot, &other).expect("migrate");
    println!(
        "migrated slot {slot} with `{stream}` {owner} -> {other} (checkpoint over the wire, epoch {})",
        router.map().epoch()
    );

    let after = router
        .query(stream, Query::Forecast { horizon: 4 })
        .expect("forecast after migration")
        .expect_forecast()
        .expect("still forecasts");
    assert_eq!(
        before.data(),
        after.data(),
        "migration must not change a single bit of the model's answers"
    );
    println!("post-migration forecast is bit-exact against the pre-migration one");

    // The old owner's fence would refuse the stream even if a copy were
    // left; its listing proves the copy itself is gone.
    let held = Client::connect(&owner)
        .and_then(|mut direct_old| direct_old.stream_ids())
        .expect("list the old owner's streams");
    assert!(
        !held.iter().any(|id| id == stream),
        "old owner must have let go"
    );
    println!("old owner {owner} no longer holds `{stream}`");

    // --- 6. Merged stats: one view over every node, shard ids
    // re-numbered to stay unique.
    let merged = router.stats().expect("merged stats");
    println!(
        "merged stats: {} stream(s), {} shards across 2 nodes, {} steps",
        merged.streams(),
        merged.shards.len(),
        merged.steps()
    );

    // --- 7. Cluster-wide graceful shutdown.
    let stopped = router.shutdown_all().expect("shutdown frames");
    node_a.shutdown().expect("drain a");
    node_b.shutdown().expect("drain b");
    println!("{stopped} nodes drained gracefully");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
