//! The `cluster` subcommand: launch N `serve` **processes** from one
//! spec, then prove multi-process sharding end to end — a stream
//! registered on its owning node is unreachable on any other node, a
//! slot migration ships its checkpoint envelope over the wire and flips
//! the slot's owner, and the whole cluster shuts down cleanly.
//!
//! ```text
//! sofia-cli cluster [--nodes 2] [--base-port 7421] [--shards 2]
//!                   [--checkpoint-dir DIR] [--rebalance]
//! ```
//!
//! With `--rebalance` the smoke grows a fault-and-recovery chapter: one
//! node is SIGKILLed and restarted with `--recover`, a deliberately
//! skewed stream population makes another node hot, and
//! [`ClusterClient::rebalance`] is asserted to move at least one route
//! slot off it — after which **every** stream must still answer through
//! the router.
//!
//! Each node is a real OS process (`sofia-cli serve --empty true
//! --cluster <all endpoints>`) with its own fleet, its own checkpoint
//! directory (`<dir>/node-<i>`), and the full spec map in its
//! handshake; this command is the single-writer coordinator driving
//! them through a [`ClusterClient`]. Exits nonzero if any step — or the
//! bit-exactness of the migrated forecast — fails, so CI can run it as
//! the cluster smoke test.

use crate::commands::CmdResult;
use sofia_core::{Sofia, SofiaConfig};
use sofia_datagen::seasonal::SeasonalStream;
use sofia_datagen::stream::TensorStream;
use sofia_fleet::{FleetError, ModelHandle, Query};
use sofia_net::{Client, ClientError, ClusterClient};
use sofia_tensor::ObservedTensor;
use std::error::Error;
use std::path::PathBuf;
use std::process::Child;
use std::time::{Duration, Instant};

/// Parameters of one `cluster` invocation.
pub struct ClusterOpts {
    /// Number of `serve` processes to launch.
    pub nodes: usize,
    /// Node `i` binds `127.0.0.1:(base_port + i)`.
    pub base_port: u16,
    /// Route slots per node in the spec map (also each node's internal
    /// shard count).
    pub shards: usize,
    /// Base checkpoint directory (`node-<i>` per node); a temp
    /// directory when omitted.
    pub checkpoint_dir: Option<PathBuf>,
    /// Run the kill → restart → skew → rebalance chapter too.
    pub rebalance: bool,
}

impl Default for ClusterOpts {
    fn default() -> Self {
        ClusterOpts {
            nodes: 2,
            base_port: 7421,
            shards: 2,
            checkpoint_dir: None,
            rebalance: false,
        }
    }
}

/// Kills every `serve` process still in `children` when dropped, so no
/// error path leaves orphan nodes holding their ports. Reaped children
/// are popped out as they exit cleanly; an empty guard drops as a
/// no-op.
struct NodeGuard {
    children: Vec<(String, Child)>,
}

impl NodeGuard {
    /// Waits for every node to exit and checks the exit codes (the
    /// graceful path after a cluster-wide shutdown frame). A node that
    /// exits nonzero aborts the join — the guard's drop then kills the
    /// not-yet-reaped remainder instead of orphaning it.
    fn join(mut self) -> CmdResult {
        while let Some((endpoint, mut child)) = self.children.pop() {
            let status = child.wait()?;
            if !status.success() {
                return Err(format!("node {endpoint} exited with {status}").into());
            }
            println!("cluster: node {endpoint} exited cleanly");
        }
        Ok(())
    }
}

impl Drop for NodeGuard {
    fn drop(&mut self) {
        for (endpoint, child) in &mut self.children {
            eprintln!("cluster: killing node {endpoint}");
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Polls an endpoint until its handshake answers (the child binds and
/// warms asynchronously). A child that already exited — e.g. its port
/// was taken — fails fast with the real exit status instead of
/// spinning out the timeout on connection errors.
fn await_node(endpoint: &str, child: &mut Child, timeout: Duration) -> CmdResult {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait()? {
            return Err(format!("node {endpoint} exited early with {status}").into());
        }
        match Client::connect_as(endpoint, "cluster-probe") {
            Ok(_) => return Ok(()),
            Err(_) if start.elapsed() < timeout => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(format!("node {endpoint} never came up: {e}").into()),
        }
    }
}

/// One forecast through the router, as raw bit patterns — both sides
/// of the pre/post-migration comparison must use the identical
/// extraction for "bit-exact" to mean anything.
fn forecast_bits(router: &mut ClusterClient, stream: &str) -> Result<Vec<u64>, Box<dyn Error>> {
    Ok(router
        .query(stream, Query::Forecast { horizon: 4 })?
        .expect_forecast()
        .ok_or("SOFIA forecasts")?
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect())
}

/// Seasonal period of a demo stream.
const DEMO_PERIOD: usize = 4;
/// Start-up window of a demo stream: three seasons.
const DEMO_STARTUP: usize = 3 * DEMO_PERIOD;

/// A deterministic demo stream: its synthetic source (6×5 slices, rank
/// 2) and a SOFIA model warm-started on its first [`DEMO_STARTUP`]
/// slices.
fn sofia_stream(seed: u64) -> Result<(SeasonalStream, ModelHandle), Box<dyn Error>> {
    let source = SeasonalStream::paper_fig2(&[6, 5], 2, DEMO_PERIOD, seed);
    let startup: Vec<ObservedTensor> = (0..DEMO_STARTUP)
        .map(|t| ObservedTensor::fully_observed(source.clean_slice(t)))
        .collect();
    let config = SofiaConfig::new(2, DEMO_PERIOD)
        .with_lambdas(0.01, 0.01, 10.0)
        .with_als_limits(1e-3, 1, 40);
    let model = Sofia::init(&config, &startup, seed)?;
    Ok((source, ModelHandle::sofia(model)))
}

/// Entry point of `sofia-cli cluster`.
pub fn cluster(opts: &ClusterOpts) -> CmdResult {
    if opts.nodes < 2 {
        return Err("a cluster needs at least 2 nodes (use `serve` for one)".into());
    }
    if opts.shards == 0 {
        return Err("shards must be positive".into());
    }
    // The ports are base_port..base_port+nodes; reject a spec that
    // walks off either end of the port space (port 0 would make node 0
    // bind an ephemeral port the spec map doesn't name).
    if opts.base_port == 0 {
        return Err("--base-port must be positive (port 0 binds an ephemeral port)".into());
    }
    if opts.base_port as u64 + opts.nodes as u64 - 1 > u16::MAX as u64 {
        return Err(format!(
            "--base-port {} with --nodes {} exceeds port {}",
            opts.base_port,
            opts.nodes,
            u16::MAX
        )
        .into());
    }
    let endpoints: Vec<String> = (0..opts.nodes)
        .map(|i| format!("127.0.0.1:{}", opts.base_port as u64 + i as u64))
        .collect();
    let base_dir = opts.checkpoint_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("sofia-cluster-cli-{}", std::process::id()))
    });

    // --- Launch: one real `serve` process per node, each told the full
    // spec so every handshake advertises the same ownership map.
    let exe = std::env::current_exe()?;
    let spec = endpoints.join(",");
    let mut guard = NodeGuard {
        children: Vec::new(),
    };
    for (i, endpoint) in endpoints.iter().enumerate() {
        let dir = base_dir.join(format!("node-{i}"));
        let child = std::process::Command::new(&exe)
            .args([
                "serve",
                "--bind",
                endpoint,
                "--empty",
                "true",
                "--shards",
                &opts.shards.to_string(),
                "--cluster",
                &spec,
                "--checkpoint-dir",
                dir.to_str().ok_or("unrepresentable checkpoint path")?,
                "--checkpoint-every",
                "2",
            ])
            .spawn()?;
        guard.children.push((endpoint.clone(), child));
    }
    for (endpoint, child) in &mut guard.children {
        let endpoint = endpoint.clone();
        await_node(&endpoint, child, Duration::from_secs(30))?;
    }
    println!(
        "cluster: {} nodes up on {spec} ({} route slots)",
        opts.nodes,
        opts.nodes * opts.shards
    );

    // --- Bootstrap the router from one seed member's handshake.
    let mut router = ClusterClient::connect_as(endpoints[0].clone(), "sofia-cli-cluster")?;
    if router.map().distinct_endpoints().len() != opts.nodes {
        return Err("seed handshake did not advertise the full cluster map".into());
    }

    // --- A deterministic demo stream on whichever node its id hashes to.
    let stream_id = "cluster-demo";
    let owner = router.endpoint_of(stream_id).to_string();
    let other = endpoints
        .iter()
        .find(|ep| **ep != owner)
        .expect("at least 2 nodes")
        .clone();
    let (source, model) = sofia_stream(2021)?;
    router.register(stream_id, &model)?;
    println!("cluster: registered `{stream_id}` on its owner {owner}");

    // --- Sharding is real: the stream exists on exactly one process.
    let mut direct = Client::connect_as(&other, "cluster-direct-probe")?;
    match direct.query(stream_id, Query::StreamStats) {
        Err(ClientError::Fleet(FleetError::UnknownStream(_))) => {
            println!("cluster: `{stream_id}` is (correctly) unknown on {other}");
        }
        other_result => {
            return Err(
                format!("`{stream_id}` should be unknown on {other}, got {other_result:?}").into(),
            )
        }
    }

    // --- Traffic, then a forecast to compare across the migration.
    let slices: Vec<ObservedTensor> = (DEMO_STARTUP..DEMO_STARTUP + 8)
        .map(|t| ObservedTensor::fully_observed(source.clean_slice(t)))
        .collect();
    let ingested = slices.len();
    router.ingest_blocking(stream_id, slices)?;
    router.flush()?;
    let before = forecast_bits(&mut router, stream_id)?;

    // --- Migrate the stream's route slot (the demo stream is its only
    // stream so far): envelope over the wire, slot owner flipped and
    // published, old copy unloaded (and its checkpoint file deleted on
    // the old owner).
    let slot = router.map().shard_of(stream_id);
    router.migrate_slot(slot, &other)?;
    println!("cluster: migrated `{stream_id}` {owner} -> {other}");
    let after = forecast_bits(&mut router, stream_id)?;
    if before != after {
        return Err("post-migration forecast diverged from pre-migration bits".into());
    }
    println!(
        "cluster: post-migration forecast is bit-exact ({} floats)",
        after.len()
    );
    // The old owner's fence would refuse the stream even if a copy were
    // left; its listing proves the copy itself is gone.
    let held = Client::connect_as(&owner, "cluster-direct-probe")?.stream_ids()?;
    if held.iter().any(|id| id == stream_id) {
        return Err(format!("`{stream_id}` should be gone from {owner}, still listed").into());
    }
    println!("cluster: old owner {owner} no longer holds `{stream_id}`");
    let steps = router
        .query(stream_id, Query::StreamStats)?
        .expect_stream_stats()
        .steps;
    if steps != ingested as u64 {
        return Err(format!("migrated stream reports {steps} steps, expected {ingested}").into());
    }

    let merged = router.stats()?;
    println!(
        "cluster: merged stats — {} resident streams over {} shards on {} nodes, {} steps",
        merged.streams(),
        merged.shards.len(),
        opts.nodes,
        merged.steps()
    );

    // --- Optional autonomy chapter: kill a node, recover it, skew the
    // load, and prove the rebalancer moves slots while every stream
    // keeps answering.
    if opts.rebalance {
        rebalance_phase(
            &mut router,
            &endpoints,
            &mut guard,
            &base_dir,
            opts,
            stream_id,
        )?;
    }

    // --- Cluster-wide graceful shutdown, then reap the processes.
    let stopped = router.shutdown_all()?;
    println!("cluster: {stopped} nodes acknowledged shutdown");
    guard.join()?;
    if opts.checkpoint_dir.is_none() {
        let _ = std::fs::remove_dir_all(&base_dir);
    }
    println!("cluster: register -> shard-miss -> migrate -> bit-exact forecast -> clean shutdown all proven");
    Ok(())
}

/// The `--rebalance` chapter: SIGKILL one node and restart it with
/// `--recover`, register a deliberately skewed population on the first
/// node, then assert [`ClusterClient::rebalance`] moves at least one
/// route slot off it and that **every** stream still answers through
/// the router afterwards.
fn rebalance_phase(
    router: &mut ClusterClient,
    endpoints: &[String],
    guard: &mut NodeGuard,
    base_dir: &std::path::Path,
    opts: &ClusterOpts,
    demo_stream: &str,
) -> CmdResult {
    // --- Kill the last node hard (no drain, no final checkpoints) and
    // bring it back from its checkpoint directory — the restart path a
    // real deployment takes after a crash.
    let victim = endpoints.last().expect("at least 2 nodes").clone();
    let pos = guard
        .children
        .iter()
        .position(|(ep, _)| *ep == victim)
        .ok_or("victim process not found")?;
    let (_, mut child) = guard.children.remove(pos);
    child.kill()?;
    child.wait()?;
    println!("cluster: killed node {victim} (SIGKILL)");
    let node_idx = endpoints.len() - 1;
    let dir = base_dir.join(format!("node-{node_idx}"));
    let exe = std::env::current_exe()?;
    let spec = endpoints.join(",");
    let child = std::process::Command::new(&exe)
        .args([
            "serve",
            "--bind",
            &victim,
            "--recover",
            "true",
            "--shards",
            &opts.shards.to_string(),
            "--cluster",
            &spec,
            "--checkpoint-dir",
            dir.to_str().ok_or("unrepresentable checkpoint path")?,
            "--checkpoint-every",
            "2",
        ])
        .spawn()?;
    guard.children.push((victim.clone(), child));
    {
        let (ep, child) = guard.children.last_mut().expect("just pushed");
        let ep = ep.clone();
        await_node(&ep, child, Duration::from_secs(30))?;
    }
    router.disconnect(&victim);
    println!("cluster: node {victim} restarted with --recover");

    // --- Skew: a population of streams whose ids all hash to slots the
    // first node owns, fed enough traffic to make it the hot node.
    let hot = endpoints[0].clone();
    let mut hot_streams: Vec<String> = Vec::new();
    for i in 0.. {
        if hot_streams.len() == 6 {
            break;
        }
        if i == 10_000 {
            return Err("could not find 6 stream ids hashing to the first node".into());
        }
        let id = format!("hot-{i:03}");
        if router.endpoint_of(&id) == hot {
            hot_streams.push(id);
        }
    }
    for (i, stream) in hot_streams.iter().enumerate() {
        let (source, model) = sofia_stream(3000 + i as u64)?;
        router.register(stream, &model)?;
        let slices: Vec<ObservedTensor> = (DEMO_STARTUP..DEMO_STARTUP + 16)
            .map(|t| ObservedTensor::fully_observed(source.clean_slice(t)))
            .collect();
        router.ingest_blocking(stream, slices)?;
    }
    router.flush()?;
    println!(
        "cluster: skewed the load — {} streams ({} steps each) on {hot}",
        hot_streams.len(),
        16
    );

    // --- Rebalance and prove it moved something.
    let report = router.rebalance()?;
    for (ep, load) in &report.endpoint_load {
        let p99 = report
            .settle_p99_us
            .iter()
            .find(|(e, _)| e == ep)
            .and_then(|(_, p)| *p)
            .map(|v| format!("{v:.0}"))
            .unwrap_or_else(|| "-".to_string());
        println!("cluster:   load {ep}: {load:.0} (settle p99 {p99} us)");
    }
    for m in &report.moves {
        println!(
            "cluster:   moved slot {} ({} streams, load {:.0}) {} -> {}",
            m.slot, m.streams, m.load, m.from, m.to
        );
    }
    println!(
        "cluster: rebalance skew {:.2} -> {:.2} in {} moves (epoch {})",
        report.skew_before,
        report.skew_after,
        report.moves.len(),
        router.map().epoch()
    );
    if report.moves.is_empty() {
        return Err("rebalance moved no slots off the hot node".into());
    }

    // --- Every stream — migrated demo, skew population — still
    // answers through the router.
    let mut all: Vec<&str> = vec![demo_stream];
    all.extend(hot_streams.iter().map(String::as_str));
    for stream in all {
        let steps = router
            .query(stream, Query::StreamStats)?
            .expect_stream_stats()
            .steps;
        if steps == 0 {
            return Err(format!("stream `{stream}` answered with zero steps").into());
        }
    }
    println!(
        "cluster: all {} streams answer after kill + recover + rebalance",
        1 + hot_streams.len()
    );
    Ok(())
}
