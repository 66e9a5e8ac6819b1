//! # sofia-fleet
//!
//! A sharded multi-stream serving engine for the SOFIA reproduction.
//!
//! SOFIA is an *online* factorizer: it ingests one partially observed
//! subtensor per tick and answers imputation/forecast queries between
//! ticks. A production deployment serves **many** such streams at once —
//! one model per sensor network, per tenant, per route matrix. This crate
//! provides that serving substrate:
//!
//! * **Sharded registry** ([`registry`]) — stream id → model,
//!   hash-partitioned over `N` shards with a stable FNV-based route, each
//!   shard owned by one worker thread. Models never move between threads
//!   and are touched only by their owner, so steps for streams on
//!   different shards run in parallel with no hot-path locking.
//! * **Bounded ingest with backpressure** (the private `shard` module) —
//!   each shard has a
//!   bounded queue; [`Fleet::try_ingest`] never blocks and hands the
//!   slice back inside [`IngestError::Backpressure`] when the queue is
//!   full. Workers drain their whole queue per wakeup and apply the batch
//!   in arrival order.
//! * **Typed query plane** ([`protocol`]) — one routable
//!   [`Query`]/[`QueryResponse`] protocol (latest completed slice,
//!   `h`-step forecast, outlier mask, per-stream serving stats) carried
//!   on a per-shard query queue that the worker drains after every
//!   ingest batch. [`Fleet::query`] returns a [`QueryTicket`]
//!   completion handle so callers pipeline many in-flight queries;
//!   [`Fleet::query_batch`] groups a multi-stream request set into one
//!   queue round-trip per involved shard (the non-blocking
//!   [`Fleet::query_batch_tickets`] stages the same batch and hands the
//!   tickets back unsettled). Per-kind query counters and a query-queue
//!   depth gauge land in [`ShardStats`]. Both directions have text wire
//!   forms — [`Query::to_wire`] one-line requests,
//!   [`QueryResponse::to_wire`] multi-line bit-exact replies
//!   ([`protocol::wire`]) — which the `sofia-net` TCP data plane
//!   carries verbatim. A SOFIA stream's `Latest` and `Forecast` leave
//!   the shard as an [`Answer`] in Kruskal form (factors plus R
//!   weights); the ticket, or the network client, rebuilds the dense
//!   slice with the model's own kernel, bit for bit.
//! * **Durability** ([`durability`]) — periodic per-stream checkpoints in
//!   the one format of a SOFIA model, the text of
//!   [`sofia_core::checkpoint::save`] (the same text `sofia-cli run`
//!   writes and a `register` frame carries), written with atomic
//!   temp-file + rename rotation. SOFIA is the one durable model kind:
//!   [`Fleet::recover`] restores each SOFIA stream, and a text
//!   [`sofia_core::checkpoint::load`] refuses is [`FleetError::Corrupt`].
//!   Restored models produce outputs identical to an uninterrupted run.
//! * **Stream lifecycle** ([`FleetConfig::evict_idle_after`]) — idle
//!   SOFIA streams (LRU by last-ingest step) are checkpointed
//!   and unloaded from their shard, then lazily restored on the next
//!   ingest or query; `ShardStats` counts evictions and restores.
//!
//! ## Quick example
//!
//! ```
//! use sofia_fleet::{Fleet, FleetConfig, ModelHandle};
//! use sofia_core::traits::{StepOutput, StreamingFactorizer};
//! use sofia_tensor::{DenseTensor, ObservedTensor, Shape};
//!
//! // Any `StreamingFactorizer + Send` can be served. A SOFIA model,
//! // registered through `ModelHandle::sofia`, is also checkpointed,
//! // crash-recovered, and evicted/restored when idle.
//! struct Echo;
//! impl StreamingFactorizer for Echo {
//!     fn name(&self) -> &'static str { "echo" }
//!     fn step(&mut self, s: &ObservedTensor) -> StepOutput {
//!         StepOutput { completed: s.values().clone(), outliers: None }
//!     }
//! }
//!
//! let fleet = Fleet::new(FleetConfig::with_shards(2)).unwrap();
//! let key = fleet.register("sensor-net-7", ModelHandle::serve(Echo)).unwrap();
//! let slice = ObservedTensor::fully_observed(
//!     DenseTensor::full(Shape::new(&[2, 3]), 1.5));
//! fleet.try_ingest(&key, slice).unwrap();
//! fleet.flush().unwrap();
//!
//! // The typed query plane: one request enum, one response enum, one
//! // completion handle. `query` returns a ticket immediately…
//! use sofia_fleet::{Query, QueryResponse};
//! let ticket = fleet.query("sensor-net-7", Query::Latest).unwrap();
//! let QueryResponse::Latest(Some(latest)) = ticket.wait().unwrap() else {
//!     panic!("stepped stream answers Latest");
//! };
//! assert_eq!(latest.completed.get(&[0, 0]), 1.5);
//!
//! // …and `query_batch` answers many requests with one queue
//! // round-trip per involved shard.
//! let responses = fleet
//!     .query_batch(&[
//!         ("sensor-net-7", Query::StreamStats),
//!         ("sensor-net-7", Query::OutlierMask),
//!     ])
//!     .unwrap();
//! let QueryResponse::StreamStats(stats) = responses[0].as_ref().unwrap() else {
//!     panic!("responses align with requests");
//! };
//! assert_eq!(stats.steps, 1);
//! ```

pub mod durability;
pub mod engine;
pub mod error;
pub mod model;
pub mod protocol;
pub mod registry;
pub(crate) mod shard;
pub mod stats;

pub use durability::CheckpointPolicy;
pub use engine::{Fleet, FleetConfig};
pub use error::{FleetError, IngestError};
pub use model::ModelHandle;
pub use protocol::wire::WireError;
pub use protocol::{Answer, Query, QueryKind, QueryResponse, QueryTicket};
pub use registry::{shard_of, StreamKey};
pub use stats::{FleetStats, MetricKind, QueryCounters, ShardStats, StreamStats};
