//! The [`Fleet`] engine: registration, ingest, queries, durability,
//! shutdown.

use crate::durability::{recover_all, CheckpointPolicy};
use crate::error::{FleetError, IngestError};
use crate::model::ModelHandle;
use crate::protocol::{Query, QueryResponse, QueryTicket};
use crate::registry::{Registry, StreamKey};
use crate::shard::{Command, QueryRequest, ShardHandle};
use crate::stats::FleetStats;
use sofia_tensor::ObservedTensor;
use std::sync::mpsc;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads / registry partitions. Streams are hash-partitioned
    /// across shards; steps for streams on different shards run in
    /// parallel.
    pub shards: usize,
    /// Bound of each shard's ingest queue, in commands. A full queue
    /// surfaces as [`IngestError::Backpressure`] instead of blocking.
    pub queue_capacity: usize,
    /// Optional durability policy; `None` disables checkpointing.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Evict a SOFIA stream after this many shard steps
    /// without an ingest (LRU by last-ingest step): the stream is
    /// checkpointed, unloaded from memory, and lazily restored on its
    /// next ingest or query. Requires a checkpoint policy; `None`
    /// disables the lifecycle.
    pub evict_idle_after: Option<u64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            queue_capacity: 1024,
            checkpoint: None,
            evict_idle_after: None,
        }
    }
}

impl FleetConfig {
    /// A config with `shards` shards and defaults elsewhere.
    pub fn with_shards(shards: usize) -> Self {
        FleetConfig {
            shards,
            ..Default::default()
        }
    }
}

/// A sharded multi-stream serving engine.
///
/// `Fleet` manages many named model instances — SOFIA or any
/// [`sofia_core::traits::StreamingFactorizer`] — behind one API:
///
/// * **registration** installs a model for a stream id on its
///   hash-assigned shard;
/// * **ingest** ([`Fleet::try_ingest`]) hands one observed slice to the
///   owning shard's bounded queue without blocking and without locks;
/// * **queries** ([`Fleet::query`], [`Fleet::query_batch`]) send typed
///   [`Query`] requests through the owning shard's query queue — the
///   worker answers them against post-batch state, so no torn reads are
///   possible; [`Fleet::query`] returns a [`QueryTicket`] so callers
///   can pipeline many in-flight queries, and [`Fleet::query_batch`]
///   groups requests by shard into one queue round-trip per involved
///   shard;
/// * **durability** checkpoints every SOFIA stream periodically and on
///   shutdown, in the text of [`sofia_core::checkpoint::save`];
///   [`Fleet::recover`] restores every stream from such a directory;
/// * **lifecycle** ([`FleetConfig::evict_idle_after`]) checkpoints and
///   unloads idle streams, restoring them lazily on the next ingest or
///   query.
///
/// See `examples/fleet_serving.rs` for a walkthrough.
pub struct Fleet {
    registry: std::sync::Arc<Registry>,
    shards: Vec<ShardHandle>,
}

impl Fleet {
    /// Starts an engine with the given configuration. Creates the
    /// checkpoint directory if durability is enabled.
    pub fn new(config: FleetConfig) -> Result<Fleet, FleetError> {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.queue_capacity > 0, "need a positive queue bound");
        assert!(
            config.evict_idle_after.is_none() || config.checkpoint.is_some(),
            "eviction requires a checkpoint policy (an evicted stream is \
             restored from its checkpoint file)"
        );
        assert!(
            config.evict_idle_after != Some(0),
            "evict_idle_after must be positive"
        );
        if let Some(policy) = &config.checkpoint {
            std::fs::create_dir_all(&policy.dir)?;
        }
        let registry = std::sync::Arc::new(Registry::new(config.shards));
        let shards = (0..config.shards)
            .map(|s| {
                ShardHandle::spawn(
                    s,
                    config.queue_capacity,
                    config.checkpoint.clone(),
                    config.evict_idle_after,
                    std::sync::Arc::clone(&registry),
                )
            })
            .collect();
        Ok(Fleet { registry, shards })
    }

    /// Starts an engine and restores every stream checkpointed in the
    /// config's checkpoint directory (a file
    /// [`sofia_core::checkpoint::load`] refuses is
    /// [`FleetError::Corrupt`]). Returns the engine and the number of
    /// streams recovered.
    ///
    /// Restored models are bit-exact: their subsequent
    /// [`StepOutput`](sofia_core::traits::StepOutput)s match an
    /// uninterrupted run. The latest completed slice is *not* part of a
    /// checkpoint, so [`Query::Latest`] answers `None` for a recovered
    /// stream until its next step.
    pub fn recover(config: FleetConfig) -> Result<(Fleet, usize), FleetError> {
        let policy = config.checkpoint.clone().ok_or_else(|| {
            FleetError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "recovery requires a checkpoint policy",
            ))
        })?;
        let recovered = recover_all(&policy.dir)?;
        let fleet = Fleet::new(config)?;
        let n = recovered.len();
        for stream in recovered {
            fleet.register(&stream.id, stream.handle)?;
        }
        Ok((fleet, n))
    }

    /// Registers a model under `id` and returns the stream's routing key.
    ///
    /// The key ingests with zero registry involvement; id-based entry
    /// points ([`Fleet::try_ingest_id`], the query methods) look the key
    /// up per call.
    pub fn register(&self, id: &str, model: ModelHandle) -> Result<StreamKey, FleetError> {
        let key = self.registry.insert(id, model.slice_shape().cloned())?;
        let (reply, ready) = mpsc::channel();
        self.shards[key.shard()].send(Command::Register {
            stream: key.interned(),
            model,
            reply,
        })?;
        ready.recv().map_err(|_| FleetError::ShuttingDown)?;
        Ok(key)
    }

    /// Routing key of a registered stream.
    pub fn key(&self, id: &str) -> Option<StreamKey> {
        self.registry.get(id)
    }

    /// Registered stream ids, sorted.
    pub fn stream_ids(&self) -> Vec<String> {
        self.registry.ids()
    }

    /// Number of registered streams.
    pub fn streams(&self) -> usize {
        self.registry.len()
    }

    /// Number of shards (worker threads) the engine runs; what a
    /// network front end advertises in its shard-ownership map.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Data plane: hands `slice` to the owning shard without blocking.
    ///
    /// A slice that fails [`Fleet::check_slice`] is refused before
    /// anything is enqueued. On a full queue the slice comes back inside
    /// [`IngestError::Backpressure`] — nothing is dropped; the caller
    /// decides whether to retry, shed, or spill. The path takes no lock:
    /// the key carries the route and the bounded queue is the only
    /// synchronization point.
    pub fn try_ingest(&self, key: &StreamKey, slice: ObservedTensor) -> Result<(), IngestError> {
        Fleet::check_slice(key, &slice)?;
        self.shards[key.shard()].try_ingest(key.interned(), slice)
    }

    /// The ingest boundary check. A slice shaped unlike the one the
    /// stream's model reported at registration is
    /// [`IngestError::ShapeMismatch`], because SOFIA's update would
    /// panic on it and quarantine the stream after the slice was
    /// accepted (a transient model reports no shape and is not checked).
    /// NaN or ±∞ at an observed entry is [`IngestError::NonFinite`],
    /// because one such value leaves a SOFIA stream's factors non-finite
    /// for good (and the next periodic checkpoint would overwrite the
    /// good file). Values at unobserved entries are never read, so any
    /// bit pattern passes there. Public so a front end can check a whole
    /// batch before applying any of it.
    pub fn check_slice(key: &StreamKey, slice: &ObservedTensor) -> Result<(), IngestError> {
        if let Some(expected) = key.slice_shape() {
            if slice.shape() != expected {
                return Err(IngestError::ShapeMismatch {
                    expected: expected.clone(),
                    found: slice.shape().clone(),
                });
            }
        }
        let values = slice.values();
        match slice
            .mask()
            .observed_offsets()
            .iter()
            .find(|&&off| !values.get_flat(off).is_finite())
        {
            Some(&offset) => Err(IngestError::NonFinite { offset }),
            None => Ok(()),
        }
    }

    /// Id-based [`Fleet::try_ingest`] (one registry lookup per call).
    pub fn try_ingest_id(&self, id: &str, slice: ObservedTensor) -> Result<(), IngestError> {
        match self.registry.get(id) {
            Some(key) => self.try_ingest(&key, slice),
            None => Err(IngestError::UnknownStream(id.to_string())),
        }
    }

    /// Blocking convenience over [`Fleet::try_ingest`]: yields between
    /// retries until the slice is accepted. Returns the number of
    /// backpressure retries taken.
    pub fn ingest_blocking(
        &self,
        key: &StreamKey,
        mut slice: ObservedTensor,
    ) -> Result<u64, IngestError> {
        let mut retries = 0;
        loop {
            match self.try_ingest(key, slice) {
                Ok(()) => return Ok(retries),
                Err(IngestError::Backpressure(returned)) => {
                    slice = *returned;
                    retries += 1;
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one typed [`Query`] to `id`'s shard and returns its
    /// [`QueryTicket`] immediately.
    ///
    /// The request is validated at this boundary ([`Query::validate`] —
    /// e.g. a zero forecast horizon is a typed
    /// [`FleetError::InvalidQuery`], never a model panic) and routed to
    /// the owning shard's query queue, where the worker answers it
    /// against post-batch state. Settle the ticket with
    /// [`QueryTicket::wait`] or poll it with [`QueryTicket::try_take`];
    /// issuing several queries before settling any pipelines them.
    ///
    /// Queries ride their own per-shard queue, so they are **not**
    /// FIFO-ordered with in-flight ingests: a query issued right after
    /// [`Fleet::try_ingest`] may be answered before that slice applies.
    /// For read-your-writes, [`Fleet::flush`] first — anything ingested
    /// before a returned `flush` is visible to every later query.
    pub fn query(&self, id: &str, query: Query) -> Result<QueryTicket, FleetError> {
        query.validate()?;
        let key = self
            .registry
            .get(id)
            .ok_or_else(|| FleetError::UnknownStream(id.to_string()))?;
        let (reply, result) = mpsc::channel();
        self.shards[key.shard()].send_query(QueryRequest {
            stream: key.interned(),
            query,
            reply,
        })?;
        Ok(QueryTicket::new(result))
    }

    /// Answers many queries — possibly against many streams — with
    /// exactly **one queue round-trip per involved shard**.
    ///
    /// Requests are validated and routed up front; each shard's group is
    /// staged onto its query queue and the worker answers the whole
    /// group in one drain. The returned vector is aligned with
    /// `requests`: element `i` answers `requests[i]`, with per-request
    /// failures (unknown stream, invalid query, a panicking model) as
    /// item-level errors. The outer error is reserved for the engine
    /// shutting down underneath the call.
    pub fn query_batch(
        &self,
        requests: &[(&str, Query)],
    ) -> Result<Vec<Result<QueryResponse, FleetError>>, FleetError> {
        Ok(self
            .query_batch_tickets(requests)?
            .into_iter()
            .map(|ticket| ticket.and_then(QueryTicket::wait))
            .collect())
    }

    /// The non-blocking half of [`Fleet::query_batch`]: stages every
    /// request and pumps each involved shard exactly once, then returns
    /// the [`QueryTicket`]s **without waiting** — element `i` settles
    /// `requests[i]` (per-request routing/validation failures are
    /// item-level `Err`s).
    ///
    /// This is what a pipelined front end (e.g. the `sofia-net` TCP
    /// server) builds on: it can stage a whole wire batch, keep reading
    /// the socket, and settle the tickets as it writes replies.
    pub fn query_batch_tickets(
        &self,
        requests: &[(&str, Query)],
    ) -> Result<Vec<Result<QueryTicket, FleetError>>, FleetError> {
        let mut tickets: Vec<Option<Result<QueryTicket, FleetError>>> =
            (0..requests.len()).map(|_| None).collect();
        let mut involved = vec![false; self.shards.len()];
        for (i, (id, query)) in requests.iter().enumerate() {
            if let Err(e) = query.validate() {
                tickets[i] = Some(Err(e));
                continue;
            }
            let Some(key) = self.registry.get(id) else {
                tickets[i] = Some(Err(FleetError::UnknownStream(id.to_string())));
                continue;
            };
            let (reply, result) = mpsc::channel();
            self.shards[key.shard()].enqueue_query(QueryRequest {
                stream: key.interned(),
                query: query.clone(),
                reply,
            })?;
            involved[key.shard()] = true;
            tickets[i] = Some(Ok(QueryTicket::new(result)));
        }
        // One wakeup per involved shard, after its whole group is
        // staged: the worker drains the group in a single round-trip.
        for (shard, involved) in involved.into_iter().enumerate() {
            if involved {
                self.shards[shard].pump_queries()?;
            }
        }
        Ok(tickets
            .into_iter()
            .map(|t| t.expect("every request slot is filled"))
            .collect())
    }

    /// Fleet-wide statistics snapshot (one barrier-free query per shard).
    pub fn fleet_stats(&self) -> Result<FleetStats, FleetError> {
        let mut pending = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (reply, result) = mpsc::channel();
            shard.send(Command::ShardStats { reply })?;
            pending.push(result);
        }
        let mut shards = Vec::with_capacity(pending.len());
        for result in pending {
            shards.push(result.recv().map_err(|_| FleetError::ShuttingDown)?);
        }
        Ok(FleetStats { shards })
    }

    /// Barrier: returns once every slice ingested before this call has
    /// been applied (queues are FIFO, so the flush marker drains last).
    pub fn flush(&self) -> Result<(), FleetError> {
        let mut pending = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (reply, done) = mpsc::channel();
            shard.send(Command::Flush { reply })?;
            pending.push(done);
        }
        for done in pending {
            done.recv().map_err(|_| FleetError::ShuttingDown)?;
        }
        Ok(())
    }

    /// Serializes a stream's current model as checkpoint text —
    /// the same bit-exact form the durability layer writes to disk and a
    /// `sofia-net` `register` frame accepts.
    ///
    /// The command rides the owning shard's FIFO command queue, so the
    /// returned text includes every slice accepted by
    /// [`Fleet::try_ingest`] before this call. Together with
    /// [`Fleet::deregister`] this is the engine half of **stream
    /// migration**: export here, register the text on another
    /// process (over the wire or in-process), then deregister the
    /// original. Transient models (anything but SOFIA) have no
    /// exportable form and fail with [`FleetError::InvalidQuery`];
    /// evicted streams are exported from their checkpoint file without
    /// being restored.
    pub fn export_stream(&self, id: &str) -> Result<String, FleetError> {
        self.shard_call(id, |stream, reply| Command::Export { stream, reply })
    }

    /// Routes one per-stream control command to the owning shard and
    /// waits for its typed reply — the shared shape of
    /// [`Fleet::export_stream`], [`Fleet::deregister`], and
    /// [`Fleet::checkpoint_stream`].
    fn shard_call<T>(
        &self,
        id: &str,
        command: impl FnOnce(std::sync::Arc<str>, mpsc::Sender<Result<T, FleetError>>) -> Command,
    ) -> Result<T, FleetError> {
        let key = self
            .registry
            .get(id)
            .ok_or_else(|| FleetError::UnknownStream(id.to_string()))?;
        let (reply, result) = mpsc::channel();
        self.shards[key.shard()].send(command(key.interned(), reply))?;
        result.recv().map_err(|_| FleetError::ShuttingDown)?
    }

    /// Removes a stream from serving entirely: the model is unloaded
    /// (resident or evicted), the id freed for re-registration, and the
    /// stream's checkpoint file deleted — a later [`Fleet::recover`]
    /// over the same directory will *not* bring it back. This is the
    /// hand-off half of a migration (see [`Fleet::export_stream`]);
    /// slices already queued for the stream are applied first (the
    /// command is FIFO with ingests), slices sent through a stale
    /// [`StreamKey`] afterwards are counted as drops, exactly like a
    /// quarantine.
    pub fn deregister(&self, id: &str) -> Result<(), FleetError> {
        self.shard_call(id, |stream, reply| Command::Deregister { stream, reply })
    }

    /// Checkpoints one stream immediately: `Ok(true)` when its state is
    /// durable on disk after the call (written now, or already current
    /// for an evicted stream), `Ok(false)` when there is nothing to
    /// persist (no checkpoint policy, or a transient model).
    ///
    /// This is the durability handshake a migration needs: the
    /// `sofia-net` server persists a wire-registered stream through
    /// this before the coordinator deletes the source's copy, so there
    /// is no window in which the stream's only durable state is a file
    /// that is about to be removed.
    pub fn checkpoint_stream(&self, id: &str) -> Result<bool, FleetError> {
        self.shard_call(id, |stream, reply| Command::CheckpointStream {
            stream,
            reply,
        })
    }

    /// Graceful shutdown: drains every queue, writes a final checkpoint
    /// per checkpointable stream, and joins the workers. Returns the
    /// number of final checkpoints written.
    pub fn shutdown(mut self) -> Result<usize, FleetError> {
        self.shutdown_inner()
    }

    /// Ungraceful exit: tears the engine down **without** draining queues
    /// or writing final checkpoints, leaving only state already made
    /// durable by the periodic policy — exactly the on-disk picture a
    /// crash leaves behind. Exists so crash recovery can be tested
    /// honestly; production callers want [`Fleet::shutdown`].
    pub fn abort(mut self) {
        for shard in std::mem::take(&mut self.shards) {
            // Dropping the sender disconnects the worker, which exits
            // without checkpointing (see the shard loop).
            drop(shard.tx);
            if let Some(join) = shard.join {
                let _ = join.join();
            }
        }
    }

    fn shutdown_inner(&mut self) -> Result<usize, FleetError> {
        let mut pending = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (reply, result) = mpsc::channel();
            // The Shutdown marker is FIFO-ordered behind queued slices,
            // so the worker applies everything before exiting.
            if shard.send(Command::Shutdown { reply }).is_ok() {
                pending.push(Some(result));
            } else {
                pending.push(None);
            }
        }
        let mut written = 0;
        for result in pending.into_iter().flatten() {
            if let Ok(count) = result.recv() {
                written += count?;
            }
        }
        for shard in &mut self.shards {
            if let Some(join) = shard.join.take() {
                let _ = join.join();
            }
        }
        Ok(written)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Best-effort graceful exit if the caller never called
        // `shutdown()`; errors are unreportable here.
        if self.shards.iter().any(|s| s.join.is_some()) {
            let _ = self.shutdown_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{MetricKind, StreamStats};
    use sofia_core::traits::{StepOutput, StreamingFactorizer};
    use sofia_tensor::{DenseTensor, Shape};
    use std::time::Duration;

    /// Test model: completion counts the steps taken, so outputs encode
    /// per-stream ordering; forecast reports the count too.
    #[derive(Debug, Clone)]
    struct Counter {
        steps: u64,
        sleep: Duration,
    }

    impl Counter {
        fn new() -> Self {
            Counter {
                steps: 0,
                sleep: Duration::ZERO,
            }
        }
        fn slow(ms: u64) -> Self {
            Counter {
                steps: 0,
                sleep: Duration::from_millis(ms),
            }
        }
    }

    impl StreamingFactorizer for Counter {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
            if !self.sleep.is_zero() {
                std::thread::sleep(self.sleep);
            }
            self.steps += 1;
            let mut completed = slice.values().clone();
            for v in completed.data_mut() {
                *v = self.steps as f64;
            }
            StepOutput {
                completed,
                outliers: None,
            }
        }
        fn forecast(&self, _h: usize) -> Option<DenseTensor> {
            Some(DenseTensor::full(Shape::new(&[1]), self.steps as f64))
        }
    }

    fn slice(v: f64) -> ObservedTensor {
        ObservedTensor::fully_observed(DenseTensor::full(Shape::new(&[2, 2]), v))
    }

    /// Typed-plane shorthands: the tests below exercise serving
    /// semantics, not response matching, so unwrap the variant once
    /// here.
    fn latest(fleet: &Fleet, id: &str) -> Result<Option<StepOutput>, FleetError> {
        Ok(fleet.query(id, Query::Latest)?.wait()?.expect_latest())
    }

    fn forecast(fleet: &Fleet, id: &str, h: usize) -> Result<Option<DenseTensor>, FleetError> {
        Ok(fleet
            .query(id, Query::Forecast { horizon: h })?
            .wait()?
            .expect_forecast())
    }

    fn stream_stats(fleet: &Fleet, id: &str) -> Result<StreamStats, FleetError> {
        Ok(fleet
            .query(id, Query::StreamStats)?
            .wait()?
            .expect_stream_stats())
    }

    fn small_fleet(shards: usize) -> Fleet {
        Fleet::new(FleetConfig {
            shards,
            queue_capacity: 64,
            checkpoint: None,
            evict_idle_after: None,
        })
        .unwrap()
    }

    #[test]
    fn register_ingest_flush_query() {
        let fleet = small_fleet(2);
        let key = fleet
            .register("s1", ModelHandle::serve(Counter::new()))
            .unwrap();
        for t in 0..5 {
            fleet.try_ingest(&key, slice(t as f64)).unwrap();
        }
        fleet.flush().unwrap();
        let last = latest(&fleet, "s1").unwrap().expect("has stepped");
        assert_eq!(last.completed.get(&[0, 0]), 5.0);
        let fc = forecast(&fleet, "s1", 1).unwrap().expect("forecasts");
        assert_eq!(fc.get(&[0]), 5.0);
        let stats = stream_stats(&fleet, "s1").unwrap();
        assert_eq!(stats.steps, 5);
        assert_eq!(stats.ingest_latency.count(), 5);
        assert!(stats.ingest_latency.p99().is_some());
        // Drift is what SOFIA's update reports; a transient model
        // records none, whatever it forecasts.
        assert!(stats.forecast_error.is_empty());
    }

    #[test]
    fn drift_sketch_records_prediction_residuals() {
        use crate::model::tests::{small_sofia, sofia_slice, STARTUP};
        use sofia_tensor::Mask;

        /// Forecasts the value of its last slice: a transient double
        /// that could be probed, and records no drift all the same.
        struct Echo {
            last: Option<DenseTensor>,
        }
        impl StreamingFactorizer for Echo {
            fn name(&self) -> &'static str {
                "echo-forecast"
            }
            fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
                self.last = Some(slice.values().clone());
                StepOutput {
                    completed: slice.values().clone(),
                    outliers: None,
                }
            }
            fn forecast(&self, _h: usize) -> Option<DenseTensor> {
                self.last.clone()
            }
        }

        const STEPS: usize = 6;
        // Each slice hides one entry, so the residual runs over Ω only.
        let slices: Vec<ObservedTensor> = (0..STEPS)
            .map(|k| {
                let s = sofia_slice(5, STARTUP + k);
                let mut observed = vec![true; s.shape().len()];
                observed[k] = false;
                let mask = Mask::from_vec(s.shape().clone(), observed);
                ObservedTensor::new(s.values().clone(), mask)
            })
            .collect();
        // A replica computes each step's residual densely: its
        // `forecast_slice(1)` before the step against the slice at Ω.
        let mut replica = small_sofia(5);
        let mut before = Vec::new();
        let mut expected = Vec::new();
        for s in &slices {
            let forecast = replica.forecast_slice(1);
            let (mut num, mut den) = (0.0, 0.0);
            for (off, y) in s.observed_entries() {
                let d = forecast.get_flat(off) - y;
                num += d * d;
                den += y * y;
            }
            expected.push((num / den).sqrt());
            before.push(replica.clone());
            replica.step(s);
        }
        // The update's ŷ associates its product differently from the
        // kernel, so the two residuals may differ in their last bits.
        // A residual is already relative to ‖y‖_Ω: bound the gap by
        // 1e-14 of the slice's own scale.
        let close = |got: Option<f64>, want: f64| got.is_some_and(|g| (g - want).abs() <= 1e-14);

        let fleet = small_fleet(2);
        let key = fleet
            .register("drift", ModelHandle::sofia(small_sofia(5)))
            .unwrap();
        // Stream `probe-k` starts from the replica's state before step k
        // and takes that step alone, so its sketch holds one value.
        let probes: Vec<StreamKey> = before
            .into_iter()
            .enumerate()
            .map(|(k, m)| {
                fleet
                    .register(&format!("probe-{k}"), ModelHandle::sofia(m))
                    .unwrap()
            })
            .collect();
        let echo = fleet
            .register("echo", ModelHandle::serve(Echo { last: None }))
            .unwrap();
        for (probe, s) in probes.iter().zip(&slices) {
            fleet.try_ingest(&key, s.clone()).unwrap();
            fleet.try_ingest(probe, s.clone()).unwrap();
            fleet.try_ingest(&echo, s.clone()).unwrap();
        }
        fleet.flush().unwrap();

        let stats = stream_stats(&fleet, "drift").unwrap();
        assert_eq!(stats.forecast_error.count(), STEPS as u64);
        let max = expected.iter().copied().fold(f64::MIN, f64::max);
        let min = expected.iter().copied().fold(f64::MAX, f64::min);
        assert!(close(stats.forecast_error.max(), max));
        assert!(close(stats.forecast_error.min(), min));
        for (k, &want) in expected.iter().enumerate() {
            let drift = stream_stats(&fleet, &format!("probe-{k}"))
                .unwrap()
                .forecast_error;
            assert_eq!(drift.count(), 1, "probe-{k}");
            assert!(close(drift.max(), want), "step {k}: {drift:?} vs {want}");
        }
        // The same numbers answer as a typed quantile query.
        let p_max = fleet
            .query(
                "drift",
                Query::Quantile {
                    metric: MetricKind::ForecastError,
                    q: 1.0,
                },
            )
            .unwrap()
            .wait()
            .unwrap()
            .expect_quantile();
        assert!(close(p_max, max));
        let latency = fleet
            .query(
                "drift",
                Query::Quantile {
                    metric: MetricKind::IngestLatency,
                    q: 0.5,
                },
            )
            .unwrap()
            .wait()
            .unwrap()
            .expect_quantile();
        assert!(latency.is_some(), "latency sketch has samples");
        // The transient double stepped every slice and recorded no drift.
        let echo_stats = stream_stats(&fleet, "echo").unwrap();
        assert_eq!(echo_stats.ingest_latency.count(), STEPS as u64);
        assert!(echo_stats.forecast_error.is_empty());
        fleet.shutdown().unwrap();
    }

    #[test]
    fn many_streams_keep_independent_state() {
        let fleet = small_fleet(3);
        let keys: Vec<StreamKey> = (0..12)
            .map(|i| {
                fleet
                    .register(&format!("stream-{i}"), ModelHandle::serve(Counter::new()))
                    .unwrap()
            })
            .collect();
        // Stream i gets i+1 slices.
        for (i, key) in keys.iter().enumerate() {
            for _ in 0..=i {
                fleet.try_ingest(key, slice(0.0)).unwrap();
            }
        }
        fleet.flush().unwrap();
        for (i, key) in keys.iter().enumerate() {
            let last = latest(&fleet, key.id()).unwrap().unwrap();
            assert_eq!(last.completed.get(&[0, 0]), (i + 1) as f64, "stream {i}");
        }
        let stats = fleet.fleet_stats().unwrap();
        assert_eq!(stats.streams(), 12);
        assert_eq!(stats.steps(), (1..=12).sum::<usize>() as u64);
        assert!(stats.shards.iter().all(|s| s.queue_depth == 0));
    }

    #[test]
    fn duplicate_and_unknown_streams_error() {
        let fleet = small_fleet(1);
        fleet
            .register("s1", ModelHandle::serve(Counter::new()))
            .unwrap();
        assert!(matches!(
            fleet.register("s1", ModelHandle::serve(Counter::new())),
            Err(FleetError::DuplicateStream(_))
        ));
        assert!(matches!(
            latest(&fleet, "ghost"),
            Err(FleetError::UnknownStream(_))
        ));
        assert!(matches!(
            fleet.try_ingest_id("ghost", slice(0.0)),
            Err(IngestError::UnknownStream(_))
        ));
    }

    #[test]
    fn non_finite_observed_values_are_refused_before_enqueue() {
        use sofia_core::{Sofia, SofiaConfig};
        use sofia_datagen::seasonal::SeasonalStream;
        use sofia_datagen::stream::TensorStream;

        let period = 4;
        let stream = SeasonalStream::paper_fig2(&[3, 3], 2, period, 17);
        let clean = |t: usize| ObservedTensor::fully_observed(stream.clean_slice(t));
        let startup: Vec<ObservedTensor> = (0..3 * period).map(clean).collect();
        let config = SofiaConfig::new(2, period).with_als_limits(1e-4, 2, 50);
        let model = Sofia::init(&config, &startup, 5).unwrap();
        let fleet = small_fleet(2);
        let poisoned = fleet
            .register("poisoned", ModelHandle::sofia(model.clone()))
            .unwrap();
        let control = fleet
            .register("control", ModelHandle::sofia(model))
            .unwrap();
        let t0 = 3 * period;
        let both = |slice: ObservedTensor| {
            fleet.try_ingest(&poisoned, slice.clone()).unwrap();
            fleet.try_ingest(&control, slice).unwrap();
        };
        for t in t0..t0 + 3 {
            both(clean(t));
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut values = stream.clean_slice(t0 + 3);
            values.set_flat(4, bad);
            assert!(matches!(
                fleet.try_ingest(&poisoned, ObservedTensor::fully_observed(values)),
                Err(IngestError::NonFinite { offset: 4 })
            ));
        }
        // A value at an unobserved entry is never read: any bits pass.
        let mut values = stream.clean_slice(t0 + 3);
        values.set_flat(4, f64::NAN);
        let mut observed = vec![true; values.len()];
        observed[4] = false;
        let mask = sofia_tensor::Mask::from_vec(values.shape().clone(), observed);
        both(ObservedTensor::new(values, mask));
        for t in t0 + 4..t0 + 7 {
            both(clean(t));
        }
        fleet.flush().unwrap();
        assert_eq!(stream_stats(&fleet, "poisoned").unwrap().steps, 7);
        assert_eq!(stream_stats(&fleet, "control").unwrap().steps, 7);
        let bits = |id: &str, h: usize| -> Vec<u64> {
            let fc = forecast(&fleet, id, h).unwrap().expect("SOFIA forecasts");
            fc.data().iter().map(|v| v.to_bits()).collect()
        };
        for h in 1..=period {
            assert_eq!(bits("poisoned", h), bits("control", h), "horizon {h}");
        }
    }

    /// A slice shaped unlike the stream's SOFIA model is refused before
    /// it is enqueued, so the stream is not quarantined and keeps
    /// stepping; a transient model reports no shape and takes any.
    #[test]
    fn wrong_shaped_slice_is_refused_before_enqueue() {
        use crate::model::tests::{small_sofia, sofia_slice, STARTUP};

        let fleet = small_fleet(1);
        let key = fleet
            .register("sofia", ModelHandle::sofia(small_sofia(3)))
            .unwrap();
        let steps = stream_stats(&fleet, "sofia").unwrap().steps;
        match fleet.try_ingest(&key, slice(1.0)) {
            Err(e @ IngestError::ShapeMismatch { .. }) => {
                assert_eq!(
                    e.to_string(),
                    "slice shape 2×2 differs from the stream's 3×3"
                )
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        fleet.try_ingest(&key, sofia_slice(3, STARTUP)).unwrap();
        fleet.flush().unwrap();
        assert_eq!(stream_stats(&fleet, "sofia").unwrap().steps, steps + 1);

        let counter = fleet.register("counter", ModelHandle::serve(Counter::new()));
        let one = ObservedTensor::fully_observed(DenseTensor::full(Shape::new(&[1]), 0.0));
        fleet.try_ingest(&counter.unwrap(), one).unwrap();
        fleet.flush().unwrap();
        assert_eq!(stream_stats(&fleet, "counter").unwrap().steps, 1);
    }

    #[test]
    fn backpressure_returns_the_slice() {
        let fleet = Fleet::new(FleetConfig {
            shards: 1,
            queue_capacity: 1,
            checkpoint: None,
            evict_idle_after: None,
        })
        .unwrap();
        let key = fleet
            .register("slow", ModelHandle::serve(Counter::slow(50)))
            .unwrap();
        // Fill until the bounded queue pushes back. The worker consumes
        // one slice every 50 ms, so a tight loop must hit Backpressure.
        let mut sent = 0u64;
        let mut hit = None;
        for t in 0..200 {
            match fleet.try_ingest(&key, slice(t as f64)) {
                Ok(()) => sent += 1,
                Err(IngestError::Backpressure(returned)) => {
                    hit = Some((t, returned));
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let (t, returned) = hit.expect("tight loop should outrun a 50ms/step worker");
        // The exact rejected slice came back — nothing was dropped.
        assert_eq!(returned.values().get(&[0, 0]), t as f64);
        // Everything accepted before the rejection is eventually applied.
        fleet.flush().unwrap();
        assert_eq!(stream_stats(&fleet, "slow").unwrap().steps, sent);
    }

    #[test]
    fn ingest_blocking_retries_until_accepted() {
        let fleet = Fleet::new(FleetConfig {
            shards: 1,
            queue_capacity: 1,
            checkpoint: None,
            evict_idle_after: None,
        })
        .unwrap();
        let key = fleet
            .register("slow", ModelHandle::serve(Counter::slow(5)))
            .unwrap();
        let mut total_retries = 0;
        for t in 0..20 {
            total_retries += fleet.ingest_blocking(&key, slice(t as f64)).unwrap();
        }
        fleet.flush().unwrap();
        assert_eq!(stream_stats(&fleet, "slow").unwrap().steps, 20);
        assert!(total_retries > 0, "a 1-deep queue must push back");
    }

    #[test]
    fn shards_process_in_parallel() {
        // Two streams, 20 ms per step, 10 steps each. Serial would take
        // ≥ 400 ms of step work; two shards overlap the sleeps (sleeping
        // threads overlap even on one core), so the barrier returns in
        // well under the serial total. The 320 ms bound leaves ~120 ms
        // of scheduler slack over the 200 ms ideal so a loaded CI
        // machine doesn't flake it, while staying 80 ms below serial.
        let fleet = small_fleet(2);
        let pick = |shard: usize| {
            (0..100)
                .map(|i| format!("s{i}"))
                .find(|id| crate::registry::shard_of(id, 2) == shard)
                .expect("some id routes to each shard")
        };
        let a = fleet
            .register(&pick(0), ModelHandle::serve(Counter::slow(20)))
            .unwrap();
        let b = fleet
            .register(&pick(1), ModelHandle::serve(Counter::slow(20)))
            .unwrap();
        assert_ne!(a.shard(), b.shard());
        let start = std::time::Instant::now();
        for _ in 0..10 {
            fleet.try_ingest(&a, slice(0.0)).unwrap();
            fleet.try_ingest(&b, slice(0.0)).unwrap();
        }
        fleet.flush().unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(320),
            "two shards should overlap sleeps: {elapsed:?}"
        );
    }

    #[test]
    fn panicking_model_is_quarantined_not_the_shard() {
        struct PanicAfter {
            steps: u64,
            after: u64,
        }
        impl StreamingFactorizer for PanicAfter {
            fn name(&self) -> &'static str {
                "panic-after"
            }
            fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
                self.steps += 1;
                assert!(self.steps < self.after, "synthetic model failure");
                StepOutput {
                    completed: slice.values().clone(),
                    outliers: None,
                }
            }
        }

        // One shard, so both streams share the worker the bad model
        // panics on.
        let fleet = small_fleet(1);
        let bad = fleet
            .register("bad", ModelHandle::serve(PanicAfter { steps: 0, after: 2 }))
            .unwrap();
        let good = fleet
            .register("good", ModelHandle::serve(Counter::new()))
            .unwrap();
        for t in 0..3 {
            fleet.try_ingest(&bad, slice(t as f64)).unwrap();
            fleet.try_ingest(&good, slice(t as f64)).unwrap();
        }
        fleet.flush().unwrap();
        // The good stream kept serving through its neighbour's panic…
        assert_eq!(stream_stats(&fleet, "good").unwrap().steps, 3);
        // …and the bad stream is quarantined, not wedging the shard.
        assert!(matches!(
            latest(&fleet, "bad"),
            Err(FleetError::UnknownStream(_))
        ));
        // Slices sent through the stale key are counted as drops (one of
        // the three above raced the quarantine already).
        fleet.try_ingest(&bad, slice(9.0)).unwrap();
        fleet.flush().unwrap();
        let stats = fleet.fleet_stats().unwrap();
        assert_eq!(stats.dropped(), 2, "post-panic slices are counted");
        // The id is freed, so a replacement model can take over.
        let bad2 = fleet
            .register("bad", ModelHandle::serve(Counter::new()))
            .unwrap();
        fleet.try_ingest(&bad2, slice(0.0)).unwrap();
        fleet.flush().unwrap();
        assert_eq!(stream_stats(&fleet, "bad").unwrap().steps, 1);
    }

    #[test]
    fn query_panic_fails_the_query_not_the_shard() {
        struct AssertingForecast;
        impl StreamingFactorizer for AssertingForecast {
            fn name(&self) -> &'static str {
                "asserting-forecast"
            }
            fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
                StepOutput {
                    completed: slice.values().clone(),
                    outliers: None,
                }
            }
            fn forecast(&self, h: usize) -> Option<DenseTensor> {
                // A concrete-model limit the protocol cannot know about
                // (the universally invalid h == 0 never gets this far:
                // `Query::validate` rejects it at the API boundary).
                assert!(h < 10, "synthetic horizon limit");
                Some(DenseTensor::full(Shape::new(&[1]), h as f64))
            }
        }

        let fleet = small_fleet(1);
        let key = fleet
            .register("s", ModelHandle::serve(AssertingForecast))
            .unwrap();
        fleet.try_ingest(&key, slice(1.0)).unwrap();
        fleet.flush().unwrap();
        // h == 0 is a typed boundary rejection — no shard, no model, no
        // panic guard involved…
        assert!(matches!(
            fleet.query("s", Query::Forecast { horizon: 0 }),
            Err(FleetError::InvalidQuery { .. })
        ));
        // …while a model-specific assert deeper in still fails only the
        // one query, as ModelPanicked…
        assert!(matches!(
            forecast(&fleet, "s", 10),
            Err(FleetError::ModelPanicked { .. })
        ));
        // …and the stream (and the shard) keep serving.
        let fc = forecast(&fleet, "s", 2).unwrap().expect("forecasts");
        assert_eq!(fc.get(&[0]), 2.0);
        fleet.try_ingest(&key, slice(2.0)).unwrap();
        fleet.flush().unwrap();
        assert_eq!(stream_stats(&fleet, "s").unwrap().steps, 2);
    }

    #[test]
    fn export_and_deregister_migrate_a_stream_between_fleets() {
        use crate::durability::{checkpoint_path, restore_handle, CheckpointPolicy};
        use crate::model::tests::{small_sofia, sofia_slice, STARTUP};

        let dir = std::env::temp_dir().join(format!("sofia-fleet-migrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let model = small_sofia(3);
        let slice = |t: usize| sofia_slice(3, STARTUP + t);

        // Source engine with durability; the stream steps 3 times and is
        // checkpointed so deregister has a file to delete.
        let source = Fleet::new(FleetConfig {
            shards: 2,
            queue_capacity: 64,
            checkpoint: Some(CheckpointPolicy::new(&dir, 1_000)),
            evict_idle_after: None,
        })
        .unwrap();
        let key = source
            .register("mig", ModelHandle::sofia(model.clone()))
            .unwrap();
        for t in 0..3 {
            source.try_ingest(&key, slice(t)).unwrap();
        }
        source.flush().unwrap();
        assert!(source.checkpoint_stream("mig").unwrap());
        assert!(checkpoint_path(&dir, "mig").exists());

        // Export rides the command queue, so it reflects all 3 steps.
        let text = source.export_stream("mig").unwrap();

        // The text registers on a second engine through the same
        // restore path crash recovery (and the wire) uses…
        let target = small_fleet(1);
        target
            .register("mig", restore_handle("mig", &text).unwrap())
            .unwrap();
        assert_eq!(stream_stats(&target, "mig").unwrap().steps, 3);

        // …and the source lets go completely: model unloaded, id freed,
        // checkpoint file gone (recovery cannot resurrect the stream).
        source.deregister("mig").unwrap();
        assert!(!checkpoint_path(&dir, "mig").exists());
        assert!(matches!(
            latest(&source, "mig"),
            Err(FleetError::UnknownStream(_))
        ));
        assert!(matches!(
            source.deregister("mig"),
            Err(FleetError::UnknownStream(_))
        ));
        // The freed id is immediately reusable.
        source
            .register("mig", ModelHandle::serve(Counter::new()))
            .unwrap();

        // Continuing on the target is bit-exact against a control model
        // that never migrated.
        let control = small_fleet(1);
        let ckey = control.register("mig", ModelHandle::sofia(model)).unwrap();
        for t in 0..5 {
            control.try_ingest(&ckey, slice(t)).unwrap();
        }
        for t in 3..5 {
            target.try_ingest_id("mig", slice(t)).unwrap();
        }
        control.flush().unwrap();
        target.flush().unwrap();
        let a = latest(&control, "mig").unwrap().expect("stepped");
        let b = latest(&target, "mig").unwrap().expect("stepped");
        assert_eq!(a.completed.data(), b.completed.data(), "migration diverged");
        assert_eq!(
            a.outliers.expect("SOFIA reports outliers").data(),
            b.outliers.expect("SOFIA reports outliers").data(),
            "migration diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_rejects_unknown_and_transient_streams() {
        let fleet = small_fleet(1);
        assert!(matches!(
            fleet.export_stream("ghost"),
            Err(FleetError::UnknownStream(_))
        ));
        // A transient model has no checkpoint, hence no
        // exportable checkpoint — typed rejection, not a panic.
        fleet
            .register("t", ModelHandle::serve(Counter::new()))
            .unwrap();
        assert!(matches!(
            fleet.export_stream("t"),
            Err(FleetError::InvalidQuery { .. })
        ));
    }

    #[test]
    fn shutdown_is_clean_and_drop_safe() {
        let fleet = small_fleet(2);
        let key = fleet
            .register("s", ModelHandle::serve(Counter::new()))
            .unwrap();
        fleet.try_ingest(&key, slice(1.0)).unwrap();
        assert_eq!(fleet.shutdown().unwrap(), 0);
        // Dropping without shutdown must also not hang or panic.
        let fleet2 = small_fleet(1);
        fleet2
            .register("s", ModelHandle::serve(Counter::new()))
            .unwrap();
        drop(fleet2);
    }

    #[test]
    fn graceful_shutdown_answers_in_flight_queries() {
        // A ticket issued before `shutdown()` gets its answer — shutdown
        // "drains every queue", the query queue included — even when the
        // query sat behind a slow ingest batch the whole time. (A crash
        // via `abort()` resolves such tickets to ShuttingDown instead.)
        // Back-to-back sends (no sleeps) so ingest, query, and the
        // Shutdown marker usually land before the worker's first
        // wakeup — the exact interleaving a missing final drain drops.
        let fleet = small_fleet(1);
        let key = fleet
            .register("slow", ModelHandle::serve(Counter::slow(30)))
            .unwrap();
        fleet.try_ingest(&key, slice(1.0)).unwrap();
        let ticket = fleet.query("slow", Query::StreamStats).unwrap();
        fleet.shutdown().unwrap();
        let stats = ticket
            .wait()
            .expect("answered, not ShuttingDown")
            .expect_stream_stats();
        assert!(
            stats.steps <= 1,
            "a stats answer, whichever drain served it"
        );
    }

    // The concurrent-query contract: one engine, many caller threads.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Fleet>();
    };

    #[test]
    fn tickets_poll_and_pipeline() {
        let fleet = small_fleet(1);
        let key = fleet
            .register("slow", ModelHandle::serve(Counter::slow(30)))
            .unwrap();
        // Queries are not FIFO-ordered with in-flight ingests; flush
        // gives read-your-writes, after which every query must see the
        // step.
        fleet.try_ingest(&key, slice(1.0)).unwrap();
        fleet.flush().unwrap();
        let mut ticket = fleet.query("slow", Query::StreamStats).unwrap();
        let response = loop {
            match ticket.try_take() {
                Some(res) => break res.unwrap(),
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let QueryResponse::StreamStats(stats) = response else {
            panic!("mismatched response variant");
        };
        assert_eq!(stats.steps, 1, "flushed ingest is visible to the query");
        // A spent ticket polls as None forever after.
        assert!(ticket.try_take().is_none());

        // Pipelining: both tickets in flight before either is settled,
        // settled in reverse order.
        let t1 = fleet.query("slow", Query::Latest).unwrap();
        let t2 = fleet.query("slow", Query::Forecast { horizon: 1 }).unwrap();
        assert!(matches!(
            t2.wait().unwrap(),
            QueryResponse::Forecast(Some(_))
        ));
        assert!(matches!(t1.wait().unwrap(), QueryResponse::Latest(Some(_))));
    }

    #[test]
    fn query_batch_aligns_responses_and_isolates_failures() {
        let fleet = small_fleet(2);
        for id in ["a", "b"] {
            let key = fleet
                .register(id, ModelHandle::serve(Counter::new()))
                .unwrap();
            fleet.try_ingest(&key, slice(1.0)).unwrap();
        }
        fleet.flush().unwrap();
        let responses = fleet
            .query_batch(&[
                ("a", Query::Latest),
                ("ghost", Query::Latest),
                ("b", Query::Forecast { horizon: 0 }),
                ("b", Query::StreamStats),
            ])
            .unwrap();
        assert_eq!(responses.len(), 4);
        assert!(matches!(responses[0], Ok(QueryResponse::Latest(Some(_)))));
        assert!(matches!(responses[1], Err(FleetError::UnknownStream(_))));
        assert!(matches!(responses[2], Err(FleetError::InvalidQuery { .. })));
        let Ok(QueryResponse::StreamStats(ref stats)) = responses[3] else {
            panic!("aligned response");
        };
        assert_eq!(stats.stream, "b");
        assert_eq!(stats.steps, 1);
    }

    #[test]
    fn stats_reflect_batching() {
        let fleet = small_fleet(1);
        let key = fleet
            .register("s", ModelHandle::serve(Counter::slow(10)))
            .unwrap();
        // While the worker sleeps on the first slice, the rest pile up
        // and must drain as one batch.
        for t in 0..8 {
            fleet.try_ingest(&key, slice(t as f64)).unwrap();
        }
        fleet.flush().unwrap();
        let stats = fleet.fleet_stats().unwrap();
        assert_eq!(stats.steps(), 8);
        assert!(
            stats.shards[0].max_batch >= 2,
            "queued slices should drain in one wakeup: {:?}",
            stats.shards[0]
        );
    }
}
