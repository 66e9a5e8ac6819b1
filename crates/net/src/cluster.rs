//! Multi-process sharding: a cluster router over a multi-endpoint
//! [`ShardMap`].
//!
//! A cluster is N independent `sofia-net` servers (each wrapping its own
//! [`sofia_fleet::Fleet`] with its own checkpoint directory) plus one
//! ownership table: the [`ShardMap`] assigns every route slot — keyed by
//! the same stable FNV stream hash the engine uses — to one endpoint,
//! and a stream lives on its slot's owner. [`ClusterClient`] is the
//! router: it holds the map and one lazy [`Client`] connection per
//! endpoint, sends `query` / `query_batch` / `ingest` / `register` /
//! `snapshot` / `deregister` to the owning server, broadcasts `flush`,
//! and merges `stats` across endpoints.
//!
//! ## Migration
//!
//! [`ClusterClient::migrate_slot`] moves a whole route slot — every
//! stream the slot's hash routes to its owner — between processes, built
//! from the wire verbs `flush`, `snapshot`, `register`, and
//! `deregister`:
//!
//! 1. `flush` the source (read-your-writes: the snapshots must include
//!    every slice acknowledged so far);
//! 2. `snapshot` each stream — its checkpoint envelope, bit-exact;
//! 3. `register` each envelope on the target — the same restore path
//!    crash recovery uses, so the model resumes bit-exactly, and the
//!    target *persists* the arrival before acknowledging (when it runs
//!    a checkpoint policy), so step 5 never deletes a stream's only
//!    durable copy;
//! 4. flip the slot's owner ([`ShardMap::set_slot_owner`]), bump the
//!    epoch **exactly once**, and push the new map at every member
//!    (`remap`), so servers learn the ownership change;
//! 5. `deregister` the old copies — unloaded *and* their checkpoint
//!    files deleted, so a restart of the source cannot resurrect them.
//!
//! A failure before the flip rolls back (target copies deregistered,
//! map untouched); a failure after the flip rolls *forward* — the map
//! already names the new owner, and any stale copy left on a dead
//! source is fenced the moment that source learns the current epoch.
//! Moving one stream means moving its slot; the slots-per-node count
//! of [`ShardMap::round_robin`] sets the granularity.
//!
//! ## Rebalancing
//!
//! [`ClusterClient::rebalance`] drives slot migrations from load: it
//! merges per-endpoint ingest counters, queue depths, and settle-latency
//! p99s, then moves the hottest slots off the hottest node until every
//! node is within a configurable skew of the mean.
//!
//! ## A minimal single-writer coordinator — fenced, not consensual
//!
//! The `ClusterClient` performing a migration is the coordinator, and
//! the correctness argument is still single-writer: exactly one
//! coordinator changes ownership at a time (while a stream is being
//! moved, no other client may ingest into it — slices raced between
//! the snapshot and the flip land on the source and are lost to the
//! target). What the autonomy revision adds is **fencing**, which makes
//! the single-writer assumption *checkable at the servers* instead of
//! purely contractual:
//!
//! * every routed request carries the sender's map epoch, and a server
//!   holding a different epoch refuses with a typed `stale-epoch` reply
//!   that carries its own map — one reject doubles as a map hand-off;
//! * the router retries exactly once, transparently: a server that fell
//!   behind is brought up to date (`remap`) and re-asked; a server that
//!   is ahead hands the newer map over, the router adopts it, re-routes,
//!   and re-asks ([`ClusterClient`] does this inside every routed call);
//! * the epoch is the one ownership fence: a fenced `query` or `ingest`
//!   for a stream the node does not own under its own map is refused
//!   even at a matching epoch. Epoch-free requests are never fenced and
//!   a fenced `batch` is checked at its head only, so only producers
//!   whose map carries an epoch are protected, and a partitioned node
//!   that never heard about a flip keeps serving.
//!
//! Membership changes keep the same philosophy: a crashed node is
//! restarted and re-attached with [`ClusterClient::repoint`] +
//! [`ClusterClient::publish_map`] by whoever operates the cluster.
//! Ownership is consistent because exactly one writer changes it — the
//! epochs are how everyone else finds out, promptly and safely.

use crate::client::{Client, ClientError, IngestReport};
use crate::stats::NetStats;
use crate::wire::ShardMap;
use sofia_fleet::{FleetError, FleetStats, ModelHandle, Query, QueryResponse};
use sofia_tensor::ObservedTensor;
use std::collections::HashMap;

/// One boundary of a slot migration, reported to
/// [`ClusterClient::migrate_slot_observed`] as the sweep crosses it —
/// the hook a fault-injection harness uses to kill a node at a precise
/// point in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationStep<'a> {
    /// The source flushed: every acknowledged slice is now visible to
    /// the snapshots about to be taken.
    Flushed,
    /// One stream's checkpoint envelope was read from the source.
    Snapshotted(&'a str),
    /// One stream's envelope was registered (and persisted) on the
    /// target; the source still owns routing.
    Registered(&'a str),
    /// The map flipped: the slot's owner is the target, the epoch
    /// bumped to `epoch`, and the new map was pushed at the members.
    Flipped {
        /// The epoch the flip established.
        epoch: u64,
    },
    /// One stream's stale copy was deregistered from the source.
    Deregistered(&'a str),
}

/// A node is overloaded when its load exceeds this multiple of the mean
/// endpoint load; [`ClusterClient::rebalance`] stops once no node is.
const REBALANCE_SKEW: f64 = 1.25;

/// Upper bound on slot migrations per [`ClusterClient::rebalance`] call
/// (each sweeps every stream of one slot).
const REBALANCE_MAX_MOVES: usize = 4;

/// One slot migration performed by [`ClusterClient::rebalance`].
#[derive(Debug, Clone)]
pub struct SlotMove {
    /// The route slot that moved.
    pub slot: usize,
    /// The endpoint it moved off.
    pub from: String,
    /// The endpoint it moved to.
    pub to: String,
    /// Streams swept.
    pub streams: usize,
    /// The slot's estimated load (total steps of its streams) at the
    /// time of the move.
    pub load: f64,
}

/// What [`ClusterClient::rebalance`] saw and did.
#[derive(Debug, Clone)]
pub struct RebalanceReport {
    /// Per-endpoint load (steps + queue depth summed over the node's
    /// shards) *before* any move, in map order.
    pub endpoint_load: Vec<(String, f64)>,
    /// Per-endpoint settle-latency p99 (µs) before any move, in map
    /// order; `None` for a node that has settled nothing yet.
    pub settle_p99_us: Vec<(String, Option<f64>)>,
    /// The migrations performed, in order.
    pub moves: Vec<SlotMove>,
    /// max/mean endpoint load before the first move.
    pub skew_before: f64,
    /// Estimated max/mean endpoint load after the last move (load
    /// model: a slot's stream-step total travels with the slot).
    pub skew_after: f64,
}

/// A routing client over many `sofia-net` servers sharing one
/// [`ShardMap`].
///
/// Mirrors the single-server [`Client`] surface (`query`, `query_batch`,
/// `ingest`, `flush`, `stats`, `register`, …) so code written against
/// one server drives a cluster unchanged — the map decides which socket
/// each stream's requests travel.
pub struct ClusterClient {
    map: ShardMap,
    /// One lazy connection per endpoint, keyed by the map's endpoint
    /// string (connected on first use, kept for the client's lifetime).
    conns: HashMap<String, Client>,
    name: String,
}

impl ClusterClient {
    /// Bootstraps from one **seed** member: connects, takes the
    /// handshake's [`ShardMap`] (a cluster member advertises the full
    /// table — [`crate::ServerConfig::cluster`]), and routes through it.
    /// The seed connection is kept when the seed address appears in the
    /// map.
    pub fn connect(seed: impl Into<String>) -> Result<ClusterClient, ClientError> {
        ClusterClient::connect_as(seed, "sofia-cluster-client")
    }

    /// [`ClusterClient::connect`] with an explicit client name.
    pub fn connect_as(seed: impl Into<String>, name: &str) -> Result<ClusterClient, ClientError> {
        let seed = seed.into();
        let client = Client::connect_as(&seed, name)?;
        let map = client.shard_map().clone();
        let mut cluster = ClusterClient::with_map(map, name);
        // Reuse the seed connection when the map names the seed by the
        // address we dialed; otherwise it is dropped and the map's own
        // endpoint names are dialed lazily.
        if cluster.map.distinct_endpoints().contains(&seed.as_str()) {
            cluster.conns.insert(seed, client);
        }
        Ok(cluster)
    }

    /// A router over an explicit ownership table (no seed handshake —
    /// connections open lazily as streams route to each endpoint).
    pub fn from_map(map: ShardMap) -> ClusterClient {
        ClusterClient::with_map(map, "sofia-cluster-client")
    }

    fn with_map(map: ShardMap, name: &str) -> ClusterClient {
        ClusterClient {
            map,
            conns: HashMap::new(),
            name: name.to_string(),
        }
    }

    /// The routing table this client is using.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The endpoint currently owning a stream (its hashed slot's
    /// owner).
    pub fn endpoint_of(&self, stream: &str) -> &str {
        self.map.endpoint_of(stream)
    }

    /// The connection to `endpoint`, dialing it on first use. A fresh
    /// connection adopts the **router's** map (not its handshake map):
    /// the router's routing decisions and the epoch its requests carry
    /// must agree, and the router's map is the authoritative one.
    fn client_for(&mut self, endpoint: &str) -> Result<&mut Client, ClientError> {
        if !self.conns.contains_key(endpoint) {
            let mut client = Client::connect_as(endpoint, &self.name)?;
            client.adopt_map(self.map.clone());
            self.conns.insert(endpoint.to_string(), client);
        }
        Ok(self.conns.get_mut(endpoint).expect("just inserted"))
    }

    /// The connection owning `stream`.
    fn owner(&mut self, stream: &str) -> Result<&mut Client, ClientError> {
        let ep = self.map.endpoint_of(stream).to_string();
        self.client_for(&ep)
    }

    /// Re-installs the router's map into every cached connection so the
    /// epoch their requests stamp tracks every map change. Call after
    /// any mutation of `self.map`.
    fn sync_conns(&mut self) {
        for conn in self.conns.values_mut() {
            conn.adopt_map(self.map.clone());
        }
    }

    /// Settles a `stale-epoch` reject from `endpoint` so the operation
    /// can be retried: a server that fell **behind** is brought up to
    /// date by pushing the router's map at it; a server that is
    /// **ahead** (or holds a different view at the same epoch — a flip
    /// this router missed) hands its map over in the reject payload,
    /// and the router adopts it. Either way the two ends agree
    /// afterwards.
    fn reconcile(&mut self, endpoint: &str) -> Result<(), ClientError> {
        let server_map = self
            .conns
            .get_mut(endpoint)
            .and_then(Client::take_stale_map);
        let Some(server_map) = server_map else {
            return Err(ClientError::Protocol(format!(
                "`{endpoint}` rejected with stale-epoch but its reply carried no map"
            )));
        };
        if server_map.epoch() < self.map.epoch() {
            let map = self.map.clone();
            self.client_for(endpoint)?.remap(&map)?;
        } else {
            self.map = server_map;
            self.sync_conns();
        }
        Ok(())
    }

    /// Runs one stream-routed operation with the transparent
    /// stale-epoch retry: route, send, and on a `stale-epoch` reject
    /// reconcile maps with the rejecting server ([`Self::reconcile`]),
    /// re-route, and retry **exactly once**. Any other error — including
    /// a second stale-epoch, which under one coordinator cannot happen —
    /// surfaces unchanged.
    fn fenced<T>(
        &mut self,
        stream: &str,
        mut op: impl FnMut(&mut Client, &str) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let ep = self.map.endpoint_of(stream).to_string();
        match op(self.client_for(&ep)?, stream) {
            Err(ClientError::Fleet(FleetError::StaleEpoch { .. })) => {
                self.reconcile(&ep)?;
                let ep = self.map.endpoint_of(stream).to_string();
                op(self.client_for(&ep)?, stream)
            }
            other => other,
        }
    }

    /// [`Self::fenced`] pinned to one endpoint — for coordination verbs
    /// (`snapshot` on a migration source, `deregister` of a stale copy)
    /// that must reach a *specific* server regardless of routing. The
    /// retry re-asks the same endpoint after reconciling.
    fn fenced_at<T>(
        &mut self,
        endpoint: &str,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        match op(self.client_for(endpoint)?) {
            Err(ClientError::Fleet(FleetError::StaleEpoch { .. })) => {
                self.reconcile(endpoint)?;
                op(self.client_for(endpoint)?)
            }
            other => other,
        }
    }

    /// One typed query, routed to the stream's owner (with the
    /// transparent stale-epoch retry — see the module docs).
    pub fn query(&mut self, stream: &str, query: Query) -> Result<QueryResponse, ClientError> {
        self.fenced(stream, |client, s| client.query(s, query.clone()))
    }

    /// Many queries over many streams: requests are grouped by owning
    /// endpoint, each group travels as **one** `batch` frame (one shard
    /// round-trip per involved shard on that server), and the reply
    /// vector aligns with `requests` exactly like
    /// [`sofia_fleet::Fleet::query_batch`] — per-item failures stay
    /// item-level.
    pub fn query_batch(
        &mut self,
        requests: &[(&str, Query)],
    ) -> Result<Vec<Result<QueryResponse, sofia_fleet::FleetError>>, ClientError> {
        match self.query_batch_once(requests) {
            Ok(out) => Ok(out),
            // A batch is fenced at its head: one group answering
            // `stale-epoch` rejects whole. Reconcile with the rejecting
            // server, re-group under the agreed map, retry once.
            Err((ep, ClientError::Fleet(FleetError::StaleEpoch { .. }))) => {
                self.reconcile(&ep)?;
                self.query_batch_once(requests).map_err(|(_, e)| e)
            }
            Err((_, e)) => Err(e),
        }
    }

    /// One routing+send pass of [`Self::query_batch`]; an error is
    /// tagged with the endpoint it came from so the retry can
    /// reconcile with the right server.
    fn query_batch_once(
        &mut self,
        requests: &[(&str, Query)],
    ) -> Result<Vec<Result<QueryResponse, sofia_fleet::FleetError>>, (String, ClientError)> {
        // Group request indices by endpoint, preserving request order
        // within each group (and a deterministic endpoint order).
        let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
        for (i, (stream, _)) in requests.iter().enumerate() {
            let ep = self.map.endpoint_of(stream).to_string();
            match groups.iter_mut().find(|(e, _)| *e == ep) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((ep, vec![i])),
            }
        }
        let mut out: Vec<Option<Result<QueryResponse, sofia_fleet::FleetError>>> =
            (0..requests.len()).map(|_| None).collect();
        for (ep, idxs) in groups {
            let sub: Vec<(&str, Query)> = idxs
                .iter()
                .map(|&i| (requests[i].0, requests[i].1.clone()))
                .collect();
            let answers = self
                .client_for(&ep)
                .and_then(|client| client.query_batch(&sub))
                .map_err(|e| (ep.clone(), e))?;
            for (&i, answer) in idxs.iter().zip(answers) {
                out[i] = Some(answer);
            }
        }
        Ok(out
            .into_iter()
            .map(|slot| slot.expect("every request slot is answered"))
            .collect())
    }

    /// Registers a stream on its owning endpoint by shipping the
    /// model's checkpoint envelope (see [`Client::register`]); returns
    /// whether the owner persisted it on arrival.
    pub fn register(&mut self, stream: &str, model: &ModelHandle) -> Result<bool, ClientError> {
        self.fenced(stream, |client, s| client.register(s, model))
    }

    /// [`ClusterClient::register`] from raw envelope text.
    pub fn register_envelope(&mut self, stream: &str, envelope: &str) -> Result<bool, ClientError> {
        self.fenced(stream, |client, s| client.register_envelope(s, envelope))
    }

    /// Batched, seq-tagged ingest routed to the stream's owner; the
    /// backpressure hand-back semantics are [`Client::ingest`]'s.
    ///
    /// On a `stale-epoch` reject the slices are retried (once) against
    /// the reconciled owner. A reject precedes any application — the
    /// server fences before touching its fleet — so the retry cannot
    /// double-apply, *provided* no other coordinator migrates the
    /// stream mid-call (the single-writer contract; see module docs).
    /// While the map sits at epoch 0 no fencing is possible and the
    /// hot path stays clone-free.
    pub fn ingest(
        &mut self,
        stream: &str,
        slices: Vec<ObservedTensor>,
    ) -> Result<IngestReport, ClientError> {
        if self.map.epoch() == 0 {
            return self.owner(stream)?.ingest(stream, slices);
        }
        let retry = slices.clone();
        let ep = self.map.endpoint_of(stream).to_string();
        match self
            .client_for(&ep)
            .and_then(|client| client.ingest(stream, slices))
        {
            Err(ClientError::Fleet(FleetError::StaleEpoch { .. })) => {
                self.reconcile(&ep)?;
                let ep = self.map.endpoint_of(stream).to_string();
                self.client_for(&ep)?.ingest(stream, retry)
            }
            other => other,
        }
    }

    /// Blocking ingest (retries the rejected tail in order) routed to
    /// the stream's owner; returns the retry round-trips taken.
    pub fn ingest_blocking(
        &mut self,
        stream: &str,
        slices: Vec<ObservedTensor>,
    ) -> Result<u64, ClientError> {
        let mut report = self.ingest(stream, slices)?;
        let mut retries = 0;
        while !report.rejected.is_empty() {
            retries += 1;
            std::thread::yield_now();
            let tail: Vec<ObservedTensor> = report.rejected.into_iter().map(|(_, s)| s).collect();
            report = self.ingest(stream, tail)?;
        }
        Ok(retries)
    }

    /// The map's endpoints, owned — broadcast operations iterate these
    /// while `client_for` borrows `self` mutably.
    fn broadcast_endpoints(&self) -> Vec<String> {
        self.map
            .distinct_endpoints()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// Cluster-wide read-your-writes barrier: flushes **every** endpoint
    /// in the map, so anything ingested anywhere before this returns is
    /// visible to every later query anywhere.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        for ep in self.broadcast_endpoints() {
            self.client_for(&ep)?.flush()?;
        }
        Ok(())
    }

    /// Merged statistics across every endpoint in the map. Shard
    /// indices are re-numbered to stay unique in the merged view (each
    /// endpoint's shards keep their relative order), so the aggregate
    /// counters ([`FleetStats::steps`] etc.) sum over the whole cluster.
    /// Each re-numbered entry is tagged with the endpoint it came from
    /// ([`sofia_fleet::ShardStats::endpoint`]), so the merged view keeps
    /// the shard → process attribution the re-numbering would otherwise
    /// lose.
    ///
    /// The per-shard sketch partials ride along untouched, so the
    /// cluster-wide rollups ([`FleetStats::ingest_latency`],
    /// [`FleetStats::forecast_error`]) *merge* the members' summaries —
    /// the moment half is bit-exact against a single process serving the
    /// same streams, and quantiles stay within the t-digest's documented
    /// bound. No step-count weighting, no averaging of averages.
    pub fn stats(&mut self) -> Result<FleetStats, ClientError> {
        let mut shards = Vec::new();
        for ep in self.broadcast_endpoints() {
            let stats = self.client_for(&ep)?.stats()?;
            let base = shards.len();
            for mut shard in stats.shards {
                shard.shard += base;
                shard.endpoint = Some(ep.clone());
                shards.push(shard);
            }
        }
        Ok(FleetStats { shards })
    }

    /// Node-health reports from every endpoint in the map, in
    /// first-appearance (map) order — the fixed fold order that makes
    /// [`ClusterMetrics::merged`] bit-reproducible across calls and
    /// across independent clients reading the same nodes.
    pub fn metrics(&mut self) -> Result<ClusterMetrics, ClientError> {
        let mut nodes = Vec::new();
        for ep in self.broadcast_endpoints() {
            let mut stats = self.client_for(&ep)?.metrics()?;
            stats.endpoint = Some(ep);
            nodes.push(stats);
        }
        Ok(ClusterMetrics { nodes })
    }

    /// Reads a stream's checkpoint envelope from its owner (see
    /// [`Client::snapshot`]).
    pub fn snapshot(&mut self, stream: &str) -> Result<String, ClientError> {
        self.fenced(stream, |client, s| client.snapshot(s))
    }

    /// Removes a stream from its owner (model unloaded, checkpoint
    /// file deleted).
    pub fn deregister(&mut self, stream: &str) -> Result<(), ClientError> {
        self.fenced(stream, |client, s| client.deregister(s))
    }

    /// Bumps the map's epoch and pushes the result at every member
    /// (`remap`), returning the new epoch. **Best-effort** by design: a
    /// member that is down or unreachable simply misses the push — its
    /// fence answers `stale-epoch` on the next request it sees, and the
    /// transparent retry hands it the map then. Callers that changed
    /// the map (flip, repoint) call this exactly once per change.
    pub fn publish_map(&mut self) -> u64 {
        let epoch = self.map.bump_epoch();
        self.sync_conns();
        let map = self.map.clone();
        for ep in self.broadcast_endpoints() {
            let _ = self.client_for(&ep).and_then(|client| client.remap(&map));
        }
        epoch
    }

    /// Moves a whole route slot to another endpoint: every stream the
    /// slot's hash routes to its current owner is swept through
    /// flush → snapshot → register, then the slot's owner flips and the
    /// epoch bumps **exactly once**, then the source copies are
    /// deregistered. Returns the number of streams moved. The target
    /// may be any reachable `sofia-net` server, in the map or not.
    ///
    /// The target must **persist** the arrived streams (run a
    /// checkpoint policy): the final step deletes the source's
    /// checkpoint files, so a memory-only target would leave them one
    /// crash away from total loss. A non-durable target rolls the
    /// registrations back and fails the move with the source untouched.
    ///
    /// Failure semantics follow the flip: before it, everything rolls
    /// **back** (target copies deregistered, map untouched, source
    /// still serving); after it, everything rolls **forward** — the map
    /// already names the new owner, the new owner already holds every
    /// stream durably, and a stale copy left on an unreachable source
    /// is fenced the moment that source learns the current epoch.
    pub fn migrate_slot(&mut self, slot: usize, to: &str) -> Result<usize, ClientError> {
        self.migrate_slot_observed(slot, to, |_| {})
    }

    /// [`Self::migrate_slot`] reporting each protocol boundary to
    /// `observe` as it is crossed — the hook the fault-injection
    /// harness uses to kill a node at a precise step.
    pub fn migrate_slot_observed(
        &mut self,
        slot: usize,
        to: &str,
        mut observe: impl FnMut(MigrationStep<'_>),
    ) -> Result<usize, ClientError> {
        let slots = self.map.endpoints().len();
        if slot >= slots {
            return Err(ClientError::Protocol(format!(
                "slot {slot} out of range (map has {slots} slots)"
            )));
        }
        let from = self.map.endpoints()[slot].clone();
        if from == to {
            return Err(ClientError::Protocol(format!(
                "slot {slot} is already owned by `{to}`"
            )));
        }
        // Enumerate the slot's population on the source, grouped by the
        // *router's* map: the server's own map need not share its slot
        // count (a plainly-bound member holds a single-node map until a
        // `remap` reaches it).
        let mut streams = self.fenced_at(&from, Client::stream_ids)?;
        streams.retain(|s| self.map.shard_of(s) == slot);
        // Flush once: every acknowledged slice is in the snapshots.
        self.fenced_at(&from, Client::flush)?;
        observe(MigrationStep::Flushed);
        // Copy phase: the source still owns routing, so readers are
        // served throughout.
        let mut registered: Vec<&str> = Vec::with_capacity(streams.len());
        for stream in &streams {
            let result = self
                .fenced_at(&from, |source| source.snapshot(stream))
                .inspect(|_| observe(MigrationStep::Snapshotted(stream)))
                .and_then(|envelope| self.register_on(to, stream, &envelope));
            let failure = match result {
                Ok(true) => {
                    observe(MigrationStep::Registered(stream));
                    registered.push(stream);
                    continue;
                }
                // Deleting the source's (possibly only) durable copy on
                // the word of a target that persisted nothing would let
                // a target crash destroy the stream everywhere.
                Ok(false) => {
                    registered.push(stream);
                    ClientError::Protocol(format!(
                        "target `{to}` did not persist `{stream}` (no checkpoint \
                         policy); migration aborted, the source still serves \
                         every stream"
                    ))
                }
                Err(e) => e,
            };
            // Best-effort: the copies hold no routing either way.
            for copy in &registered {
                let _ = self.fenced_at(to, |target| target.deregister(copy));
            }
            return Err(failure);
        }
        // The flip: one ownership change, one epoch bump, one push.
        self.map.set_slot_owner(slot, to);
        let epoch = self.publish_map();
        observe(MigrationStep::Flipped { epoch });
        // Cleanup phase: unload the stale source copies; each one's
        // checkpoint file goes with it, so a source restart cannot
        // resurrect the stream. A copy a failed cleanup leaves behind is
        // fenced garbage, not an unreachable stream, so it does not fail
        // the move.
        for stream in &streams {
            if self
                .fenced_at(&from, |source| source.deregister(stream))
                .is_ok()
            {
                observe(MigrationStep::Deregistered(stream));
            }
        }
        Ok(streams.len())
    }

    /// Registers a migrating stream's envelope on the target; returns
    /// whether the target persisted it. A copy the target already holds
    /// is stale by construction while the router's map still routes
    /// the stream elsewhere — e.g. one a crashed node resurrected from
    /// its checkpoints after its slot flipped away — so it is
    /// deregistered and the envelope registered once more.
    fn register_on(&mut self, to: &str, stream: &str, envelope: &str) -> Result<bool, ClientError> {
        let register = |target: &mut Client| target.register_envelope(stream, envelope);
        match self.fenced_at(to, register) {
            Err(ClientError::Fleet(FleetError::DuplicateStream(_)))
                if self.map.endpoint_of(stream) != to =>
            {
                self.fenced_at(to, |target| target.deregister(stream))?;
                self.fenced_at(to, register)
            }
            other => other,
        }
    }

    /// Load-aware slot rebalancing: measures per-endpoint load (steps +
    /// queue depth summed over each node's shards, with settle-latency
    /// p99s recorded alongside), then repeatedly migrates the hottest
    /// *movable* slot off the hottest node onto the coldest one until
    /// no node exceeds 1.25 × the mean load (or four moves are
    /// spent). A slot is movable when shifting its load strictly
    /// shrinks the hot–cold gap — the guard that keeps one giant slot
    /// from ping-ponging between nodes forever.
    ///
    /// Slot load is estimated as the total steps of the slot's streams
    /// (read via per-stream [`Query::StreamStats`]); steps travel with
    /// a migrated stream (checkpoint envelopes carry the counter), so
    /// the estimate stays meaningful across moves.
    pub fn rebalance(&mut self) -> Result<RebalanceReport, ClientError> {
        let skew_of = |load: &[(String, f64)]| -> f64 {
            let total: f64 = load.iter().map(|(_, l)| l).sum();
            let mean = total / load.len() as f64;
            let max = load.iter().map(|(_, l)| *l).fold(0.0, f64::max);
            if mean > 0.0 {
                max / mean
            } else {
                1.0
            }
        };
        // Measure: per-endpoint load in map order, p99s alongside.
        let stats = self.stats()?;
        let mut load: Vec<(String, f64)> = self
            .broadcast_endpoints()
            .into_iter()
            .map(|ep| (ep, 0.0))
            .collect();
        for shard in &stats.shards {
            let Some(ep) = &shard.endpoint else { continue };
            if let Some(entry) = load.iter_mut().find(|(e, _)| e == ep) {
                entry.1 += shard.steps as f64 + shard.queue_depth as f64;
            }
        }
        let settle_p99_us: Vec<(String, Option<f64>)> = self
            .metrics()?
            .nodes
            .iter()
            .map(|node| {
                (
                    node.endpoint.clone().unwrap_or_default(),
                    node.settle_latency.p99(),
                )
            })
            .collect();
        let endpoint_load = load.clone();
        let skew_before = skew_of(&load);
        let mut moves = Vec::new();
        while moves.len() < REBALANCE_MAX_MOVES && load.len() > 1 {
            let total: f64 = load.iter().map(|(_, l)| l).sum();
            if total <= 0.0 {
                break;
            }
            let mean = total / load.len() as f64;
            let hot_i = (0..load.len())
                .max_by(|&a, &b| load[a].1.total_cmp(&load[b].1))
                .expect("non-empty");
            let cold_i = (0..load.len())
                .min_by(|&a, &b| load[a].1.total_cmp(&load[b].1))
                .expect("non-empty");
            if load[hot_i].1 <= REBALANCE_SKEW * mean {
                break;
            }
            let hot = load[hot_i].0.clone();
            let cold = load[cold_i].0.clone();
            // The hottest slot on the hot node whose departure strictly
            // shrinks the hot–cold gap.
            let headroom = load[hot_i].1 - load[cold_i].1;
            let owners = self.map.endpoints().to_vec();
            // One enumeration per round, grouped by the *router's* slot
            // hash (the server's own map may lag behind this one).
            let hot_streams = self.fenced_at(&hot, Client::stream_ids)?;
            let mut by_slot: Vec<Vec<String>> = vec![Vec::new(); owners.len()];
            for stream in hot_streams {
                let slot = self.map.shard_of(&stream);
                by_slot[slot].push(stream);
            }
            let mut best: Option<(usize, f64, usize)> = None;
            for (slot, owner) in owners.iter().enumerate() {
                if owner != &hot {
                    continue;
                }
                let streams = &by_slot[slot];
                if streams.is_empty() {
                    continue;
                }
                let requests: Vec<(&str, Query)> = streams
                    .iter()
                    .map(|s| (s.as_str(), Query::StreamStats))
                    .collect();
                let slot_load: f64 = self
                    .query_batch(&requests)?
                    .into_iter()
                    .filter_map(Result::ok)
                    .map(|resp| match resp {
                        QueryResponse::StreamStats(st) => st.steps as f64,
                        _ => 0.0,
                    })
                    .sum();
                if slot_load <= 0.0 || slot_load >= headroom {
                    continue;
                }
                if best.is_none_or(|(_, l, _)| slot_load > l) {
                    best = Some((slot, slot_load, streams.len()));
                }
            }
            let Some((slot, slot_load, streams)) = best else {
                break;
            };
            self.migrate_slot(slot, &cold)?;
            moves.push(SlotMove {
                slot,
                from: hot,
                to: cold,
                streams,
                load: slot_load,
            });
            load[hot_i].1 -= slot_load;
            load[cold_i].1 += slot_load;
        }
        let skew_after = skew_of(&load);
        Ok(RebalanceReport {
            endpoint_load,
            settle_p99_us,
            moves,
            skew_before,
            skew_after,
        })
    }

    /// Follows a restarted node to its new address: rewrites every slot
    /// owned by `from` to `to` and drops the dead connection. Returns
    /// how many slots changed. The epoch does not bump here — call
    /// [`Self::publish_map`] after the re-attachment is complete to
    /// fence out anyone still holding the dead address.
    pub fn repoint(&mut self, from: &str, to: &str) -> usize {
        self.conns.remove(from);
        let changed = self.map.repoint(from, to);
        self.sync_conns();
        changed
    }

    /// Drops the cached connection to an endpoint (it is re-dialed on
    /// next use). Useful after a server restart on the *same* address.
    pub fn disconnect(&mut self, endpoint: &str) -> bool {
        self.conns.remove(endpoint).is_some()
    }

    /// Asks every endpoint in the map to shut down gracefully (each
    /// drains its queues and writes final checkpoints). **Best-effort
    /// across the whole membership**: an unreachable node (e.g. one
    /// that already crashed) does not stop the remaining nodes from
    /// receiving their shutdown frames — every endpoint is attempted,
    /// and the first failure is reported afterwards. Returns the number
    /// of servers that acknowledged; consumes the router, since every
    /// connection dies with its server.
    pub fn shutdown_all(mut self) -> Result<usize, ClientError> {
        let mut stopped = 0;
        let mut first_error = None;
        for ep in self.broadcast_endpoints() {
            let client = match self.conns.remove(&ep) {
                Some(client) => Ok(client),
                None => Client::connect_as(&ep, &self.name),
            };
            match client.and_then(Client::shutdown_server) {
                Ok(()) => stopped += 1,
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(stopped),
        }
    }
}

/// A fleet-wide health report: one [`NetStats`] per endpoint (labelled,
/// in map order) plus a [`ClusterMetrics::merged`] rollup.
///
/// Kept per-node because the two views answer different questions:
/// "which node is hot" needs the partials, "is the fleet healthy"
/// needs the merge — same split the fleet stats make per shard.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    /// One report per endpoint, each with
    /// [`NetStats::endpoint`] set, in the map's first-appearance order.
    pub nodes: Vec<NetStats>,
}

impl ClusterMetrics {
    /// Folds the per-node reports into one cluster-wide [`NetStats`]
    /// in node order (see [`NetStats::merge`] for the per-field
    /// semantics). Folding in the fixed map order makes the merged
    /// settle-latency moments bit-exact against any other fold of the
    /// same node reports in the same order — wire forms included.
    pub fn merged(&self) -> NetStats {
        let mut out = NetStats::default();
        for node in &self.nodes {
            out.merge(node);
        }
        out
    }
}
