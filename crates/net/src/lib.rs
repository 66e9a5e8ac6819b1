//! # sofia-net
//!
//! A TCP data plane for the SOFIA fleet: the typed query protocol of
//! [`sofia_fleet::protocol`], framed and served over `std::net` — no
//! async runtime, no dependencies beyond the workspace.
//!
//! PR 3 made the query plane plain data with a text wire form precisely
//! so a network transport could carry it verbatim; this crate is that
//! transport:
//!
//! * [`wire`] — the frame grammar (`#<len>\n<body>` length-framed UTF-8
//!   text) and the request/reply bodies: `hello`, `query`, `batch`,
//!   `register` (a checkpoint *is* a model's wire form),
//!   `ingest` (batched slices with sequence numbers and a typed
//!   backpressure hand-back), `flush`, `stats`, `metrics`, `shutdown`.
//!   Floats travel as IEEE 754 hex bit patterns, so everything that
//!   crosses the socket round-trips **bit-exactly**. Every parser is
//!   total: malformed, truncated, oversized, or non-UTF-8 input is a
//!   typed error, never a panic.
//! * [`server`] — [`Server`] wraps a running [`sofia_fleet::Fleet`]:
//!   one acceptor plus a fixed pool of event-loop threads driving
//!   nonblocking sockets (readiness via [`poll`], per-connection state
//!   machines with incremental frame decoding and bounded write
//!   buffers), pipelined request ids mapped onto `QueryTicket`s,
//!   graceful drain on shutdown (and a crash-faithful
//!   [`Server::abort`] for recovery testing). Thread count is
//!   O(pool), never O(connections).
//! * [`poll`] — the std-only readiness layer under the server: a
//!   level-triggered poller (`ppoll(2)` via a local FFI declaration, so
//!   the crate builds on Linux only) with a wake pipe, no tokio/mio.
//! * [`stats`] — node-health observability: every layer above feeds a
//!   [`NetStats`] (connection churn, frames decoded, decode errors,
//!   backpressure onsets, poll wakeups, and per-request wire-to-settle
//!   latency as a mergeable [`sofia_sketch::MetricSummary`]), plus a
//!   bounded slow-request ring ([`ServerConfig::slow_request_us`]).
//!   Served by the `metrics` verb ([`Client::metrics`]), merged
//!   fleet-wide by [`ClusterClient::metrics`] — the same
//!   partializable-aggregate model as the PR 6 stream sketches.
//! * [`client`] — [`Client`] mirrors the in-process `Fleet` API
//!   (`query` / `query_batch` / `ingest` / `flush` / `stats` /
//!   `register`), so tests and the CLI exercise identical semantics
//!   in-process and over loopback. [`Client::query_pipelined`] keeps
//!   many queries in flight on one socket.
//! * [`ShardMap`] — the stream-route → endpoint ownership table served
//!   in the handshake: route slots (stable cross-process FNV stream
//!   hash) assigned to endpoints; a stream lives on its slot's owner.
//!   A standalone server advertises a single-node map; cluster members
//!   advertise the full spec ([`ServerConfig::cluster`]).
//! * [`cluster`] — multi-process sharding over that table:
//!   [`ClusterClient`] routes `query`/`ingest`/`register` to the owning
//!   server, merges `stats`, broadcasts `flush`, and **migrates** whole
//!   route slots between processes ([`ClusterClient::migrate_slot`]:
//!   flush → `snapshot` each stream's checkpoint → `register`
//!   it on the target → flip the slot's owner → `deregister` the old
//!   copies) — a minimal single-writer coordinator, deliberately
//!   without consensus. The map carries an **epoch**, bumped and
//!   pushed at every member (`remap`) once per flip: routed requests
//!   stamp it, servers fence stale senders with a typed `stale-epoch`
//!   reply that carries the current map, and the router retries
//!   transparently; the epoch is the one ownership fence.
//!   [`ClusterClient::rebalance`] moves the hottest slots off the
//!   hottest node until no node carries more than 1.25× the mean load.
//!
//! ## Loopback in five lines
//!
//! ```no_run
//! use sofia_fleet::{Fleet, FleetConfig, Query};
//! use sofia_net::{Client, Server};
//!
//! let fleet = Fleet::new(FleetConfig::with_shards(2)).unwrap();
//! let server = Server::bind("127.0.0.1:0", fleet).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let stats = client.stats().unwrap();
//! assert_eq!(stats.shards.len(), 2);
//! server.shutdown().unwrap();
//! ```
//!
//! Semantics worth repeating from the engine: queries are **not**
//! FIFO-ordered with in-flight ingests; [`Client::flush`] is the
//! read-your-writes barrier over TCP, exactly as `Fleet::flush` is
//! in-process.

pub mod client;
pub mod cluster;
mod conn;
pub mod poll;
pub mod server;
pub mod stats;
pub mod wire;

pub use client::{Client, ClientError, IngestReport, DEFAULT_READ_TIMEOUT};
pub use cluster::{ClusterClient, ClusterMetrics, MigrationStep, RebalanceReport, SlotMove};
pub use server::{Server, ServerConfig};
pub use stats::{parse_net_stats, push_net_stats, NetStats, SlowRequest};
pub use wire::{FrameError, Request, ShardMap, MAX_FRAME_BYTES};
