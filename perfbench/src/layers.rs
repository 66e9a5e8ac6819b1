//! The traced run's per-layer replays: after each traced tick the same
//! slices and replies go through the codec, an in-process fleet with
//! the SUT's config, the model layer's snapshot/restore, and the
//! durability layer. Replayed spans name the SUT span of the same
//! request as their parent, so the SUT span's self time is what the
//! layers beneath do not account for.

use crate::trace::{request_id, timed, Tracer, TICK_LANE};
use crate::workload::{Spec, Workload};
use sofia_core::Sofia;
use sofia_fleet::durability::{restore_handle, write_checkpoint};
use sofia_fleet::{
    CheckpointPolicy, Fleet, FleetConfig, IngestError, ModelHandle, Query, QueryResponse,
};
use sofia_net::wire::{ingest_body, Request};
use sofia_tensor::ObservedTensor;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Per-shard ingest queue bound of `sofia-cli serve` (its `--queue`
/// default), which the in-process replica copies.
const SERVE_QUEUE: usize = 256;

/// Replay state and the byte counts the replays saw.
pub struct Replay {
    fleet: Option<Fleet>,
    durability_dir: PathBuf,
    /// Backpressure hand-backs from the in-process fleet.
    pub handbacks: u64,
    /// Frames or replies the codec failed to parse back, and fleet
    /// queries that failed.
    pub errors: u64,
    /// Encoded size of each ingest frame body.
    pub ingest_bytes: Vec<f64>,
    /// Encoded size of each `Latest` reply (or batch item).
    pub latest_bytes: Vec<f64>,
    /// Encoded size of each `Forecast` reply (or batch item).
    pub forecast_bytes: Vec<f64>,
    /// All `Latest` reply bytes of one tick as they cross the wire.
    pub batch_reply_bytes: Vec<f64>,
    /// Checkpoint-envelope size of each snapshot.
    pub envelope_bytes: Vec<f64>,
    /// `(request id, |Ω_t|)` of every traced slice.
    pub observed: Vec<(u64, usize)>,
}

impl Replay {
    /// Starts the in-process fleet with the SUT's per-node config and
    /// registers a copy of every model.
    pub fn new(
        spec: &Spec,
        shards: usize,
        models: &[Sofia],
        ids: &[String],
        run_dir: &Path,
    ) -> Result<Replay, String> {
        let dir = run_dir.join("replay");
        let durability_dir = dir.join("durability");
        std::fs::create_dir_all(&durability_dir)
            .map_err(|e| format!("{}: {e}", durability_dir.display()))?;
        let fleet = Fleet::new(FleetConfig {
            shards,
            queue_capacity: SERVE_QUEUE,
            checkpoint: spec
                .checkpoint_every
                .map(|every| CheckpointPolicy::new(dir.join("fleet"), every)),
            evict_idle_after: None,
        })
        .map_err(|e| format!("replica fleet: {e}"))?;
        for (id, model) in ids.iter().zip(models) {
            fleet
                .register(id, ModelHandle::sofia(model.clone()))
                .map_err(|e| format!("replica fleet register: {e}"))?;
        }
        Ok(Replay {
            fleet: Some(fleet),
            durability_dir,
            handbacks: 0,
            errors: 0,
            ingest_bytes: Vec::new(),
            latest_bytes: Vec::new(),
            forecast_bytes: Vec::new(),
            batch_reply_bytes: Vec::new(),
            envelope_bytes: Vec::new(),
            observed: Vec::new(),
        })
    }

    /// Feeds every tick's slices to the in-process fleet, so its models
    /// follow the served stream. On traced ticks each enqueue is a span
    /// under the SUT ingest of the same request, and the whole fleet
    /// tick (enqueues plus flush) is one `fleet.tick` span.
    #[allow(clippy::too_many_arguments)]
    pub fn feed(
        &mut self,
        tracer: &mut Option<Tracer>,
        record: bool,
        k: usize,
        ids: &[String],
        slices: &[&ObservedTensor],
        ingest_spans: &[Option<usize>],
    ) -> Result<(), String> {
        let copies: Vec<ObservedTensor> = slices.iter().map(|s| (*s).clone()).collect();
        let tick_id = request_id(k as u64, TICK_LANE);
        let tick_span = match tracer {
            Some(tr) if record => Some(tr.open("fleet.tick", tick_id, None)),
            _ => None,
        };
        let fleet = self
            .fleet
            .as_ref()
            .expect("the replica fleet lives until finish");
        for (i, slice) in copies.into_iter().enumerate() {
            let id = request_id(k as u64, i as u64);
            let mut slice = slice;
            loop {
                let (res, _) = timed(tracer, record, "fleet.enqueue", id, ingest_spans[i], || {
                    fleet.try_ingest_id(&ids[i], slice)
                });
                match res {
                    Ok(()) => break,
                    Err(IngestError::Backpressure(back)) => {
                        self.handbacks += 1;
                        slice = *back;
                        std::thread::yield_now();
                    }
                    Err(e) => return Err(format!("replica fleet ingest: {e}")),
                }
            }
        }
        let (res, _) = timed(tracer, record, "fleet.flush", tick_id, tick_span, || {
            fleet.flush()
        });
        res.map_err(|e| format!("replica fleet flush: {e}"))?;
        if let (Some(tr), Some(idx)) = (tracer, tick_span) {
            tr.close(idx);
        }
        Ok(())
    }

    /// The replays of one traced tick: the ingest frames through the
    /// codec, the workload's reads against the in-process fleet, the
    /// served replies through the codec, and one stream's model (in
    /// rotation) through snapshot, restore and a checkpoint write.
    #[allow(clippy::too_many_arguments)]
    pub fn traced_tick(
        &mut self,
        tracer: &mut Tracer,
        k: usize,
        spec: &Spec,
        ids: &[String],
        slices: &[&ObservedTensor],
        ingest_spans: &[Option<usize>],
        latest: &[Option<QueryResponse>],
        latest_spans: &[Option<usize>],
        forecast: &[Option<QueryResponse>],
        forecast_spans: &[Option<usize>],
        models: &[&Sofia],
    ) -> Result<(), String> {
        let k64 = k as u64;
        for (i, slice) in slices.iter().enumerate() {
            let id = request_id(k64, i as u64);
            let tagged = vec![(k64 + 1, (*slice).clone())];
            let (body, _) = tracer.time("wire.ingest_encode", id, ingest_spans[i], || {
                ingest_body(k64 + 1, None, &ids[i], &tagged)
            });
            let (parsed, _) = tracer.time("wire.ingest_decode", id, ingest_spans[i], || {
                Request::from_body(&body)
            });
            self.errors += u64::from(parsed.is_err());
            self.ingest_bytes.push(body.len() as f64);
            self.observed.push((id, slice.count_observed()));
        }

        self.fleet_reads(tracer, k64, spec, ids, Query::Latest, latest_spans);
        let forecast_query = Query::Forecast {
            horizon: spec.horizon,
        };
        self.fleet_reads(tracer, k64, spec, ids, forecast_query, forecast_spans);

        let batched = spec.workload != Workload::PaperNyc;
        let latest_total = self.codec_replies(tracer, k64, latest, latest_spans, true, batched);
        self.batch_reply_bytes.push(latest_total as f64);
        self.codec_replies(tracer, k64, forecast, forecast_spans, false, batched);

        let j = k % ids.len();
        let id = request_id(k64, j as u64);
        let handle = ModelHandle::sofia(models[j].clone());
        let (text, _) = tracer.time("core.snapshot", id, None, || handle.checkpoint_text());
        let text = text.ok_or("a SOFIA model always has an envelope")?;
        let (restored, _) =
            tracer.time("core.restore", id, None, || restore_handle(&ids[j], &text));
        restored.map_err(|e| format!("restore: {e}"))?;
        let dir = &self.durability_dir;
        let (written, _) = tracer.time("durability.write", id, None, || {
            write_checkpoint(dir, &ids[j], &text)
        });
        written.map_err(|e| format!("checkpoint write: {e}"))?;
        self.envelope_bytes.push(text.len() as f64);
        Ok(())
    }

    /// The workload's read against the in-process fleet, shaped like the
    /// SUT read: one query per stream on `paper-nyc`, otherwise one batch
    /// (`Latest`, and `Forecast` on `slot-migrate`) or one set of
    /// tickets all issued before any is settled (`Forecast` on
    /// `many-streams`).
    fn fleet_reads(
        &mut self,
        tracer: &mut Tracer,
        k: u64,
        spec: &Spec,
        ids: &[String],
        query: Query,
        parents: &[Option<usize>],
    ) {
        let name = if query == Query::Latest {
            "fleet.latest"
        } else {
            "fleet.forecast"
        };
        let fleet = self
            .fleet
            .as_ref()
            .expect("the replica fleet lives until finish");
        let mut errors = 0u64;
        if spec.workload == Workload::PaperNyc {
            for (i, id) in ids.iter().enumerate() {
                let (res, _) = tracer.time(name, request_id(k, i as u64), parents[i], || {
                    fleet.query(id, query.clone()).and_then(|t| t.wait())
                });
                errors += u64::from(res.is_err());
            }
        } else {
            let reqs: Vec<(&str, Query)> =
                ids.iter().map(|id| (id.as_str(), query.clone())).collect();
            let tickets = query != Query::Latest && spec.workload == Workload::ManyStreams;
            let (failed, _) = tracer.time(name, request_id(k, TICK_LANE), parents[0], || {
                if tickets {
                    let issued: Vec<_> = reqs
                        .iter()
                        .map(|(id, q)| fleet.query(id, q.clone()))
                        .collect();
                    issued
                        .into_iter()
                        .map(|t| t.and_then(|t| t.wait()))
                        .filter(Result::is_err)
                        .count() as u64
                } else {
                    match fleet.query_batch(&reqs) {
                        Ok(items) => items.iter().filter(|r| r.is_err()).count() as u64,
                        Err(_) => reqs.len() as u64,
                    }
                }
            });
            errors += failed;
        }
        self.errors += errors;
    }

    /// Encodes each served reply as the server does and parses it back
    /// as the client does; returns the tick's reply bytes as they cross
    /// the wire (batch framing included when `batched`).
    fn codec_replies(
        &mut self,
        tracer: &mut Tracer,
        k: u64,
        replies: &[Option<QueryResponse>],
        parents: &[Option<usize>],
        latest: bool,
        batched: bool,
    ) -> usize {
        let (enc, dec) = if latest {
            ("wire.latest_encode", "wire.latest_decode")
        } else {
            ("wire.forecast_encode", "wire.forecast_decode")
        };
        let mut total = if batched {
            format!("results {}\n", replies.len()).len()
        } else {
            0
        };
        for (i, reply) in replies.iter().enumerate() {
            let Some(reply) = reply else { continue };
            let id = request_id(k, i as u64);
            let parent = if batched { parents[0] } else { parents[i] };
            let (text, _) = tracer.time(enc, id, parent, || reply.to_wire());
            let (parsed, _) = tracer.time(dec, id, parent, || QueryResponse::from_wire(&text));
            self.errors += u64::from(parsed.is_err());
            let bytes = if latest {
                &mut self.latest_bytes
            } else {
                &mut self.forecast_bytes
            };
            bytes.push(text.len() as f64);
            total += text.len() + if batched { "item ok\n".len() } else { 0 };
        }
        total
    }

    /// Stops the in-process fleet without final checkpoints.
    pub fn finish(&mut self) {
        if let Some(fleet) = self.fleet.take() {
            fleet.abort();
        }
    }
}

impl Drop for Replay {
    fn drop(&mut self) {
        self.finish();
    }
}

/// One row of the Fig. 7 linearity probe.
#[derive(Debug, Clone)]
pub struct LinearityRow {
    /// Workload whose slice shape and corruption the row uses.
    pub workload: &'static str,
    /// Mean observed entries per slice, `|Ω_t|`.
    pub observed: f64,
    /// Median `update_only` time per slice (µs).
    pub update_us: f64,
    /// Median ns per unit of `|Ω_t|·N·R`.
    pub ns_per_entry_rank: f64,
}

/// Slices each linearity row times.
const LINEARITY_SLICES: usize = 40;

/// Times the paper's update (`update_only`) on one stream of every
/// workload's shape, so the cost per `|Ω_t|·N·R` unit can be read side
/// by side across a 70× range of `|Ω_t|` (Lemma 2 says it is flat). The
/// model starts from a single ALS round: the update's work does not
/// depend on how well the factors fit.
pub fn linearity_probe(seed: u64) -> Vec<LinearityRow> {
    [
        Workload::ManyStreams,
        Workload::SlotMigrate,
        Workload::PaperNyc,
    ]
    .into_iter()
    .map(|w| {
        let spec = w.spec();
        let input = spec.input(seed, 0);
        let startup = spec.startup_len();
        let config = spec.model_config().with_als_limits(1e-3, 1, 1);
        let window: Vec<ObservedTensor> = (0..startup).map(|t| input.slice(t).1).collect();
        let mut model =
            Sofia::init(&config, &window, input.seed).expect("start-up window is well formed");
        let order = spec.dims.len() + 1;
        let mut per_unit = Vec::with_capacity(LINEARITY_SLICES);
        let mut times = Vec::with_capacity(LINEARITY_SLICES);
        let mut observed = 0usize;
        for t in startup..startup + LINEARITY_SLICES {
            let slice = input.slice(t).1;
            let start = Instant::now();
            std::hint::black_box(model.update_only(std::hint::black_box(&slice)));
            let ns = start.elapsed().as_nanos() as f64;
            let obs = slice.count_observed();
            observed += obs;
            times.push(ns / 1e3);
            per_unit.push(crate::closed_loop::ns_per_entry_rank(
                ns, obs, order, spec.rank,
            ));
        }
        LinearityRow {
            workload: w.name(),
            observed: observed as f64 / LINEARITY_SLICES as f64,
            update_us: crate::stats::percentile(&times, crate::stats::P50)
                .expect("40 samples")
                .value,
            ns_per_entry_rank: crate::stats::percentile(&per_unit, crate::stats::P50)
                .expect("40 samples")
                .value,
        }
    })
    .collect()
}
