//! The closed loop: set-up, warm-up, timed ticks and the correctness
//! gate. In the traced run every call into the SUT is wrapped in a span
//! and each traced tick is followed by the per-layer replays.
//!
//! A tick sends one slice per stream and then flushes; the reads (and,
//! on `slot-migrate`, one whole-slot migration) follow, and the next
//! tick starts once they return. Between ticks the generator alone
//! works — it builds the next slices and steps the single-threaded
//! replica every served output is checked against — so the SUT never
//! competes with it for a core while a request is timed.

use crate::layers::Replay;
use crate::procfs::{self, CpuTicks, HostTicks};
use crate::quiet::{self, Block, Tagged, BLOCK};
use crate::sut::{Node, NodeConfig};
use crate::trace::{request_id, timed, Tracer, TICK_LANE};
use crate::workload::{Input, Spec, Workload, MIN_KEPT, MIN_TICKS};
use sofia_core::Sofia;
use sofia_fleet::{FleetError, FleetStats, ModelHandle, Query, QueryResponse};
use sofia_net::{Client, ClientError, ClusterClient, MigrationStep, NetStats, ShardMap};
use sofia_tensor::{DenseTensor, ObservedTensor};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Whole set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Route slots per node in the `slot-migrate` shard map.
const SLOTS_PER_NODE: usize = 2;

/// Requests in flight per pipelined window. 64 `many-streams` forecast
/// replies (about 2 KiB each) stay well under the server's 256 KiB
/// per-connection write buffer. Past that bound the server stops
/// dispatching frames it has already read, and only its 200 ms idle
/// poll resumes them, so one unbounded 256-request pipeline would time
/// that timer rather than the code.
const PIPELINE_WINDOW: usize = 64;

/// Each timed segment runs at most this many times its share of
/// `--seconds` while it waits for its share of [`MIN_TICKS`] ticks in
/// quiet blocks.
const CAP_FACTOR: u32 = 2;

/// One run's parameters.
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Timed-phase length.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The `sofia-cli` binary under test.
    pub sut: PathBuf,
    /// Scratch directory of this run (checkpoints, spans).
    pub workdir: PathBuf,
}

/// Host and SUT facts printed beside the metrics.
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    /// Cores available to the benchmark.
    pub nproc: usize,
    /// Host CPU model.
    pub cpu_model: String,
    /// Live threads of each SUT process after the timed phase.
    pub sut_threads: Vec<u64>,
    /// Share of host CPU time stolen by the hypervisor over the timed
    /// phase.
    pub steal_share: f64,
    /// `--shards` of each SUT process.
    pub shards: usize,
    /// One-second blocks of the timed phase, and how many of them the
    /// interference filter kept ([`crate::quiet`]).
    pub blocks: (usize, usize),
    /// Highest steal share among the kept blocks.
    pub kept_steal_max: f64,
}

/// SUT counters around the timed phase.
#[derive(Debug, Clone)]
pub struct Counters {
    /// Fleet stats before.
    pub fleet_before: FleetStats,
    /// Fleet stats after.
    pub fleet_after: FleetStats,
    /// Node health before (merged over nodes).
    pub net_before: NetStats,
    /// Node health after (merged over nodes).
    pub net_after: NetStats,
}

/// Everything a run measured.
#[derive(Default)]
pub struct Record {
    /// Wall time of each whole set-up (s).
    pub setups_s: Vec<f64>,
    /// `Sofia::init` time of each stream in each set-up (ms).
    pub init_ms: Vec<f64>,
    /// Ticks without spans (ms): every tick of the end-to-end run, the
    /// untraced half of the traced run. This and the other latency
    /// samples below hold the blocks the interference filter kept.
    pub ticks_ms: Vec<f64>,
    /// Ticks with spans (ms), traced run only.
    pub traced_ticks_ms: Vec<f64>,
    /// Whole closed-loop iterations: tick, reads and migration (ms).
    pub cycles_ms: Vec<f64>,
    /// `Latest` reads as issued (ms).
    pub latest_ms: Vec<f64>,
    /// `Forecast` reads as issued (ms).
    pub forecast_ms: Vec<f64>,
    /// Whole-slot migrations (ms).
    pub migrate_ms: Vec<f64>,
    /// Slices applied in the kept timed ticks.
    pub slices: u64,
    /// Summed ingest+flush time of the kept timed ticks (s).
    pub ingest_flush_s: f64,
    /// Operations issued in the timed phase and the final check.
    pub attempted: u64,
    /// Failed or refused operations among them, the SUT's decode errors
    /// aside.
    pub failed: u64,
    /// Frames the SUT could not decode over the timed segments.
    pub decode_errors: u64,
    /// Served outputs compared against the replica.
    pub checked: u64,
    /// Served outputs that differed from the replica.
    pub mismatches: u64,
    /// The first mismatch, described.
    pub first_mismatch: Option<String>,
    /// Per-(tick, stream) imputation NRE in the accuracy window.
    pub impute_nre: Vec<f64>,
    /// Per-(tick, stream) forecast NRE in the accuracy window.
    pub forecast_nre: Vec<f64>,
    /// Streams each timed migration moved.
    pub streams_moved: Vec<f64>,
    /// Epoch bumps over the timed phase.
    pub epoch_bumps: u64,
    /// Timed ticks run.
    pub timed_ticks: usize,
    /// SUT CPU over the kept blocks (ms, summed over nodes).
    pub sut_cpu_ms: f64,
    /// SUT peak RSS (KiB, summed over nodes; the highest segment).
    pub sut_hwm_kb: u64,
    /// SUT counters around the last timed segment.
    pub counters: Option<Counters>,
    /// Host and SUT facts.
    pub provenance: Provenance,
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
    /// Per-layer replay results of the traced run.
    pub replay: Option<Replay>,
}

/// The connection(s) the generator drives the SUT through.
enum Plane {
    /// One connection to a single node.
    Single(Client),
    /// A router over every node.
    Cluster(ClusterClient),
}

fn client_err(what: &str) -> impl Fn(ClientError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Plane {
    fn connect(nodes: &[Node]) -> Result<Plane, String> {
        if let [node] = nodes {
            return Client::connect_as(node.endpoint.as_str(), "perfbench")
                .map(Plane::Single)
                .map_err(client_err("connect"));
        }
        let endpoints: Vec<String> = nodes.iter().map(|n| n.endpoint.clone()).collect();
        Ok(Plane::Cluster(ClusterClient::from_map(
            ShardMap::round_robin(&endpoints, SLOTS_PER_NODE),
        )))
    }

    fn register(&mut self, id: &str, model: &ModelHandle) -> Result<bool, ClientError> {
        match self {
            Plane::Single(c) => c.register(id, model),
            Plane::Cluster(r) => r.register(id, model),
        }
    }

    /// Sends one slice, retrying handed-back tails in order; returns the
    /// number of backpressure hand-backs.
    fn ingest(&mut self, id: &str, slice: ObservedTensor) -> Result<u64, ClientError> {
        let mut pending = vec![slice];
        let mut handbacks = 0;
        loop {
            let report = match self {
                Plane::Single(c) => c.ingest(id, pending)?,
                Plane::Cluster(r) => r.ingest(id, pending)?,
            };
            if report.rejected.is_empty() {
                return Ok(handbacks);
            }
            handbacks += 1;
            pending = report.rejected.into_iter().map(|(_, s)| s).collect();
            std::thread::yield_now();
        }
    }

    fn flush(&mut self) -> Result<(), ClientError> {
        match self {
            Plane::Single(c) => c.flush(),
            Plane::Cluster(r) => r.flush(),
        }
    }

    fn query(&mut self, id: &str, query: Query) -> Result<QueryResponse, ClientError> {
        match self {
            Plane::Single(c) => c.query(id, query),
            Plane::Cluster(r) => r.query(id, query),
        }
    }

    fn query_batch(&mut self, reqs: &[(&str, Query)]) -> Result<Vec<ItemResult>, ClientError> {
        match self {
            Plane::Single(c) => c.query_batch(reqs),
            Plane::Cluster(r) => r.query_batch(reqs),
        }
    }

    /// Pipelined queries on the one connection: each window of
    /// [`PIPELINE_WINDOW`] requests is written before any of its replies
    /// is read.
    fn pipelined(&mut self, reqs: &[(&str, Query)]) -> Result<Vec<ItemResult>, ClientError> {
        let Plane::Single(c) = self else {
            unreachable!("only single-node workloads pipeline");
        };
        let mut out = Vec::with_capacity(reqs.len());
        for window in reqs.chunks(PIPELINE_WINDOW) {
            let mut tickets = Vec::with_capacity(window.len());
            for (id, q) in window {
                tickets.push(c.start_query(id, q.clone())?);
            }
            for t in tickets {
                out.push(c.finish_query(t)?);
            }
        }
        Ok(out)
    }

    fn stats(&mut self) -> Result<FleetStats, ClientError> {
        match self {
            Plane::Single(c) => c.stats(),
            Plane::Cluster(r) => r.stats(),
        }
    }

    fn metrics(&mut self) -> Result<NetStats, ClientError> {
        match self {
            Plane::Single(c) => c.metrics(),
            Plane::Cluster(r) => r.metrics().map(|m| m.merged()),
        }
    }
}

type ItemResult = Result<QueryResponse, FleetError>;

/// One read's per-stream responses (`None` where the item failed) and
/// its spans (per stream, or one for the whole set).
type Read = (Vec<Option<QueryResponse>>, Vec<Option<usize>>);

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Bit-exact tensor equality (shape and every float's bit pattern).
pub fn same_bits(a: &DenseTensor, b: &DenseTensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Normalized reconstruction error `‖est − truth‖_F / ‖truth‖_F`.
pub fn nre(est: &DenseTensor, truth: &DenseTensor) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for (e, t) in est.data().iter().zip(truth.data()) {
        num += (e - t) * (e - t);
        den += t * t;
    }
    (num / den).sqrt()
}

/// A migration boundary as [`MigrationStep`] reports it, minus the
/// borrowed stream name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// The source flushed.
    Flushed,
    /// One envelope was read from the source.
    Snapshotted,
    /// One envelope was registered on the target.
    Registered,
    /// The map flipped and was published.
    Flipped,
    /// One stale source copy was removed.
    Deregistered,
}

impl Mark {
    fn of(step: MigrationStep<'_>) -> Mark {
        match step {
            MigrationStep::Flushed => Mark::Flushed,
            MigrationStep::Snapshotted(_) => Mark::Snapshotted,
            MigrationStep::Registered(_) => Mark::Registered,
            MigrationStep::Flipped { .. } => Mark::Flipped,
            MigrationStep::Deregistered(_) => Mark::Deregistered,
        }
    }

    /// The per-layer metric the segment ending at this mark feeds.
    fn phase(self) -> &'static str {
        match self {
            Mark::Flushed => "cluster.migrate_flush",
            Mark::Snapshotted => "cluster.migrate_snapshot",
            Mark::Registered => "cluster.migrate_register",
            Mark::Flipped => "cluster.migrate_flip",
            Mark::Deregistered => "cluster.migrate_deregister",
        }
    }
}

/// Splits one migration into its phases: each segment between two
/// boundaries is charged to the boundary that ends it (the first
/// segment, stream enumeration plus the source flush, to `Flushed`), and
/// the tail after the last boundary to the deregistration sweep.
pub fn migration_phases(
    start: u64,
    marks: &[(Mark, u64)],
    end: u64,
) -> Vec<(&'static str, u64, u64)> {
    let mut out = Vec::with_capacity(marks.len() + 1);
    let mut prev = start;
    for &(mark, at) in marks {
        out.push((mark.phase(), prev, at));
        prev = at;
    }
    out.push((Mark::Deregistered.phase(), prev, end.max(prev)));
    out
}

/// One served stream as the generator sees it.
struct StreamState<'a> {
    input: &'a Input,
    /// The bare single-threaded model every served output must equal.
    replica: Sofia,
    /// Traced run: a second replica fed through `update_only`, which
    /// updates the state exactly like `step` minus the reconstruction.
    shadow: Option<Sofia>,
    /// Served forecasts waiting for the clean slice they predict.
    pending: VecDeque<(usize, DenseTensor)>,
    /// The replica's last completed slice and outliers.
    last: Option<(DenseTensor, DenseTensor)>,
}

/// Initializes one model per stream on `workers` threads; returns the
/// models in stream order and each init's time (ms).
fn init_models(
    spec: &Spec,
    inputs: &[Input],
    startups: &[Vec<ObservedTensor>],
    workers: usize,
) -> (Vec<Sofia>, Vec<f64>) {
    let config = spec.model_config();
    let n = inputs.len();
    let chunk = n.div_ceil(workers.max(1));
    let mut out: Vec<(usize, Sofia, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|lo| {
                let config = &config;
                scope.spawn(move || {
                    (lo..(lo + chunk).min(n))
                        .map(|i| {
                            let start = Instant::now();
                            let model = Sofia::init(config, &startups[i], inputs[i].seed)
                                .expect("start-up window has 3 seasons of equal-shaped slices");
                            (i, model, ms(start))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("init worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _, _)| *i);
    let times = out.iter().map(|(_, _, t)| *t).collect();
    (out.into_iter().map(|(_, m, _)| m).collect(), times)
}

/// The running loop of one set-up's SUT.
struct Loop<'a> {
    spec: &'a Spec,
    plane: Plane,
    nodes: Vec<Node>,
    ids: &'a [String],
    streams: Vec<StreamState<'a>>,
    startup: usize,
    tracer: Option<Tracer>,
    replay: Option<Replay>,
    rec: Record,
    /// In the timed phase: samples and counters are recorded.
    timed: bool,
    /// Timed ticks run on this set-up's SUT.
    seg_ticks: usize,
    /// This segment scores the accuracy window (the first timed one).
    score: bool,
    /// Timed samples, tagged with their block.
    raw: Raw,
    /// The open block of the timed phase.
    clock: Option<Clock>,
    /// Index of the open block.
    block: usize,
    migrations: usize,
    /// The slot the latest migration moved: its streams were restored
    /// from envelopes, which do not carry the last completed slice, so
    /// they answer `Latest` with nothing until their next step.
    last_moved: Option<usize>,
}

impl Loop<'_> {
    /// One closed-loop iteration on slice index `startup + k`.
    fn tick(&mut self, k: usize) -> Result<(), String> {
        let t = self.startup + k;
        let n = self.streams.len();
        // Traced runs alternate: spans on even ticks, none on odd ones,
        // so the tick times of the two halves give the tracing overhead.
        let record = self.tracer.is_some() && k.is_multiple_of(2);
        if self.timed {
            self.roll_block()?;
        }
        let inputs: Vec<(DenseTensor, ObservedTensor)> =
            self.streams.iter().map(|s| s.input.slice(t)).collect();
        let sends: Vec<ObservedTensor> = inputs.iter().map(|(_, o)| o.clone()).collect();

        let tick_id = request_id(k as u64, TICK_LANE);
        let start = Instant::now();
        let tick_span = match &mut self.tracer {
            Some(tr) if record => Some(tr.open("tick", tick_id, None)),
            _ => None,
        };
        let mut ingest_spans = Vec::with_capacity(n);
        let mut handbacks = 0;
        for (i, slice) in sends.into_iter().enumerate() {
            let (res, span) = timed(
                &mut self.tracer,
                record,
                "net.ingest",
                request_id(k as u64, i as u64),
                tick_span,
                || self.plane.ingest(&self.ids[i], slice),
            );
            handbacks += res.map_err(client_err("ingest"))?;
            ingest_spans.push(span);
        }
        let (res, _) = timed(
            &mut self.tracer,
            record,
            "net.flush",
            tick_id,
            tick_span,
            || self.plane.flush(),
        );
        res.map_err(client_err("flush"))?;
        let tick_ms = ms(start);
        if let (Some(tr), Some(idx)) = (&mut self.tracer, tick_span) {
            tr.close(idx);
        }

        let (latest, latest_spans) = self.read(k, Query::Latest, record)?;
        let horizon = self.spec.horizon;
        let (forecast, forecast_spans) = self.read(k, Query::Forecast { horizon }, record)?;
        if self.spec.workload == Workload::SlotMigrate {
            self.migrate(k, record)?;
        }
        let cycle_ms = ms(start);

        if self.timed {
            let (raw, b) = (&mut self.raw, self.block);
            if record {
                raw.traced_ticks.push(b, tick_ms);
            } else {
                raw.ticks.push(b, tick_ms);
            }
            raw.cycles.push(b, cycle_ms);
            raw.blocks[b].ticks += 1;
            raw.slices[b] += n as u64;
            raw.ingest_flush_s[b] += tick_ms / 1e3;
            let rec = &mut self.rec;
            rec.attempted += n as u64 + handbacks + 1;
            rec.failed += handbacks;
        }

        let in_window = self.timed && self.score && self.seg_ticks < self.spec.nre_ticks;
        self.check(k, t, &inputs, &latest, &forecast, record, in_window);

        if let Some(replay) = &mut self.replay {
            let slices: Vec<&ObservedTensor> = inputs.iter().map(|(_, o)| o).collect();
            replay.feed(
                &mut self.tracer,
                record,
                k,
                self.ids,
                &slices,
                &ingest_spans,
            )?;
            if record {
                let models: Vec<&Sofia> = self.streams.iter().map(|s| &s.replica).collect();
                replay.traced_tick(
                    self.tracer.as_mut().expect("traced run"),
                    k,
                    self.spec,
                    self.ids,
                    &slices,
                    &ingest_spans,
                    &latest,
                    &latest_spans,
                    &forecast,
                    &forecast_spans,
                    &models,
                )?;
            }
        }
        if self.timed {
            self.rec.timed_ticks += 1;
            self.seg_ticks += 1;
        }
        Ok(())
    }

    /// The workload's `Latest` or `Forecast` read, as it issues it:
    /// per stream on `paper-nyc` (one sample each), one batch for
    /// `Latest` and one pipelined set for `Forecast` on `many-streams`,
    /// one routed batch each on `slot-migrate` (one sample per set).
    /// Returns per-stream responses (`None` where the item failed) and
    /// the spans (per stream, or one for the whole set).
    fn read(&mut self, k: usize, query: Query, record: bool) -> Result<Read, String> {
        let is_latest = query == Query::Latest;
        let name = if is_latest {
            "net.latest"
        } else {
            "net.forecast"
        };
        let n = self.ids.len();
        let mut out = Vec::with_capacity(n);
        let mut spans = Vec::new();
        let mut samples = Vec::new();
        let mut failed = 0;
        if self.spec.workload == Workload::PaperNyc {
            for i in 0..n {
                let start = Instant::now();
                let (res, span) = timed(
                    &mut self.tracer,
                    record,
                    name,
                    request_id(k as u64, i as u64),
                    None,
                    || self.plane.query(&self.ids[i], query.clone()),
                );
                samples.push(ms(start));
                spans.push(span);
                match res {
                    Ok(resp) => out.push(Some(resp)),
                    Err(ClientError::Fleet(_)) => {
                        failed += 1;
                        out.push(None);
                    }
                    Err(e) => return Err(format!("{name}: {e}")),
                }
            }
        } else {
            let reqs: Vec<(&str, Query)> = self
                .ids
                .iter()
                .map(|id| (id.as_str(), query.clone()))
                .collect();
            let pipelined = !is_latest && self.spec.workload == Workload::ManyStreams;
            let start = Instant::now();
            let (res, span) = timed(
                &mut self.tracer,
                record,
                name,
                request_id(k as u64, TICK_LANE),
                None,
                || {
                    if pipelined {
                        self.plane.pipelined(&reqs)
                    } else {
                        self.plane.query_batch(&reqs)
                    }
                },
            );
            samples.push(ms(start));
            spans.push(span);
            for item in res.map_err(|e| format!("{name}: {e}"))? {
                match item {
                    Ok(resp) => out.push(Some(resp)),
                    Err(_) => {
                        failed += 1;
                        out.push(None);
                    }
                }
            }
        }
        if self.timed {
            let sink = if is_latest {
                &mut self.raw.latest
            } else {
                &mut self.raw.forecast
            };
            for v in samples {
                sink.push(self.block, v);
            }
            let rec = &mut self.rec;
            rec.attempted += n as u64;
            rec.failed += failed;
        }
        Ok((out, spans))
    }

    /// One whole-slot migration to the node that does not own the slot,
    /// slots taken in rotation.
    fn migrate(&mut self, k: usize, record: bool) -> Result<(), String> {
        let Plane::Cluster(router) = &mut self.plane else {
            return Ok(());
        };
        let slot = self.migrations % router.map().shards();
        let from = router.map().endpoints()[slot].clone();
        let to = router
            .map()
            .distinct_endpoints()
            .into_iter()
            .find(|ep| *ep != from)
            .ok_or("the map names one node")?
            .to_string();
        let epoch = router.map().epoch();
        let mut marks: Vec<(Mark, Instant)> = Vec::new();
        let start = Instant::now();
        let moved = router
            .migrate_slot_observed(slot, &to, |step| {
                marks.push((Mark::of(step), Instant::now()))
            })
            .map_err(client_err("migrate"))?;
        let end = Instant::now();
        self.migrations += 1;
        self.last_moved = Some(slot);
        if self.timed {
            self.raw
                .migrate
                .push(self.block, (end - start).as_secs_f64() * 1e3);
            let rec = &mut self.rec;
            rec.streams_moved.push(moved as f64);
            rec.epoch_bumps += router.map().epoch() - epoch;
            rec.attempted += 1;
        }
        if let (Some(tr), true) = (&mut self.tracer, record) {
            let id = request_id(k as u64, TICK_LANE);
            let (s, e) = (tr.at(start), tr.at(end));
            let parent = tr.push("cluster.migrate", id, None, s, e);
            let marks: Vec<(Mark, u64)> = marks.iter().map(|&(m, at)| (m, tr.at(at))).collect();
            for (phase, a, b) in migration_phases(s, &marks, e) {
                tr.push(phase, id, Some(parent), a, b);
            }
        }
        Ok(())
    }

    /// Steps the replica on the tick's slices and compares every served
    /// output against it bit for bit; inside the accuracy window it also
    /// scores the served outputs against the clean slices.
    #[allow(clippy::too_many_arguments)]
    fn check(
        &mut self,
        k: usize,
        t: usize,
        inputs: &[(DenseTensor, ObservedTensor)],
        latest: &[Option<QueryResponse>],
        forecast: &[Option<QueryResponse>],
        record: bool,
        in_window: bool,
    ) {
        let horizon = self.spec.horizon;
        let Loop {
            streams,
            tracer,
            rec,
            ..
        } = self;
        for (i, st) in streams.iter_mut().enumerate() {
            let (clean, observed) = &inputs[i];
            let id = request_id(k as u64, i as u64);
            if record {
                timed(tracer, true, "core.probe", id, None, || {
                    st.replica.forecast_slice(1)
                });
            }
            let (out, _) = timed(tracer, record, "core.step", id, None, || {
                st.replica.step(observed)
            });
            if let Some(shadow) = &mut st.shadow {
                timed(tracer, record, "core.update", id, None, || {
                    shadow.update_only(observed)
                });
            }
            let (fc, _) = timed(tracer, record, "core.forecast", id, None, || {
                st.replica.forecast_slice(horizon)
            });
            let mut verdict = |ok: bool, what: &str| {
                rec.checked += 1;
                if !ok {
                    rec.mismatches += 1;
                    rec.first_mismatch.get_or_insert_with(|| {
                        format!(
                            "{what} of `{}` at slice {t} differs from the replica",
                            st.input.id
                        )
                    });
                }
            };
            match &latest[i] {
                Some(QueryResponse::Latest(Some(step))) => {
                    let outliers_ok = step
                        .outliers
                        .as_ref()
                        .is_some_and(|o| same_bits(o, &out.outliers));
                    verdict(
                        same_bits(&step.completed, &out.completed) && outliers_ok,
                        "Latest",
                    );
                    if in_window {
                        rec.impute_nre.push(nre(&step.completed, clean));
                    }
                }
                Some(_) => verdict(false, "Latest"),
                None => {}
            }
            // Forecasts made earlier whose target is this slice.
            while let Some((target, _)) = st.pending.front() {
                if *target > t {
                    break;
                }
                let (target, f) = st.pending.pop_front().expect("front exists");
                if target == t {
                    rec.forecast_nre.push(nre(&f, clean));
                }
            }
            match &forecast[i] {
                Some(QueryResponse::Forecast(Some(f))) => {
                    verdict(same_bits(f, &fc), "Forecast");
                    if in_window {
                        st.pending.push_back((t + horizon, f.clone()));
                    }
                }
                Some(_) => verdict(false, "Forecast"),
                None => {}
            }
            st.last = Some((out.completed, out.outliers));
        }
    }

    /// After the timed phase: every stream's served `Latest` and
    /// `Forecast` once more against the replica.
    fn final_check(&mut self) -> Result<(), String> {
        let horizon = self.spec.horizon;
        for (i, st) in self.streams.iter().enumerate() {
            let id = &self.ids[i];
            let latest = self.plane.query(id, Query::Latest);
            let forecast = self.plane.query(id, Query::Forecast { horizon });
            self.rec.attempted += 2;
            let (completed, outliers) = st.last.as_ref().ok_or("no tick ran")?;
            let just_moved = match (&self.plane, self.last_moved) {
                (Plane::Cluster(router), Some(slot)) => router.map().shard_of(id) == slot,
                _ => false,
            };
            let latest_ok = match latest {
                Ok(QueryResponse::Latest(Some(step))) => {
                    same_bits(&step.completed, completed)
                        && step
                            .outliers
                            .as_ref()
                            .is_some_and(|o| same_bits(o, outliers))
                }
                Ok(QueryResponse::Latest(None)) => just_moved,
                Ok(_) => false,
                Err(ClientError::Fleet(_)) => {
                    self.rec.failed += 1;
                    false
                }
                Err(e) => return Err(format!("final Latest: {e}")),
            };
            let forecast_ok = match forecast {
                Ok(QueryResponse::Forecast(Some(f))) => {
                    same_bits(&f, &st.replica.forecast_slice(horizon))
                }
                Ok(_) => false,
                Err(ClientError::Fleet(_)) => {
                    self.rec.failed += 1;
                    false
                }
                Err(e) => return Err(format!("final Forecast: {e}")),
            };
            for (ok, what) in [(latest_ok, "final Latest"), (forecast_ok, "final Forecast")] {
                self.rec.checked += 1;
                if !ok {
                    self.rec.mismatches += 1;
                    self.rec.first_mismatch.get_or_insert_with(|| {
                        format!("{what} of `{id}` differs from the replica")
                    });
                }
            }
        }
        Ok(())
    }

    fn cpu(&self) -> Result<Vec<CpuTicks>, String> {
        self.nodes.iter().map(Node::cpu).collect()
    }

    /// Starts a block of the timed phase.
    fn open_block(&mut self) -> Result<(), String> {
        self.clock = Some(Clock {
            end: Instant::now() + BLOCK,
            host: procfs::host_ticks().unwrap_or_default(),
            cpu: self.cpu()?,
        });
        self.block = self.raw.open();
        Ok(())
    }

    /// Ends the open block: its steal share and the SUT CPU spent in it.
    fn close_block(&mut self) -> Result<(), String> {
        let clock = self.clock.take().expect("a block is open");
        let host = procfs::host_ticks().unwrap_or_default();
        let cpu = self.cpu()?;
        self.raw.blocks[self.block].steal = procfs::steal_share(clock.host, host);
        self.raw.cpu_ms[self.block] = clock
            .cpu
            .iter()
            .zip(&cpu)
            .map(|(b, a)| a.millis() - b.millis())
            .sum();
        Ok(())
    }

    /// Moves on to a new block once the open one has run its length.
    fn roll_block(&mut self) -> Result<(), String> {
        if self.clock.as_ref().is_some_and(|c| Instant::now() >= c.end) {
            self.close_block()?;
            self.open_block()?;
        }
        Ok(())
    }

    /// Timed ticks in the quiet blocks closed since `first`.
    fn quiet_ticks(&self, first: usize) -> usize {
        quiet::quiet_ticks(&self.raw.blocks[first..self.block])
    }

    /// Warm-up, one timed segment of `seconds` (longer, up to
    /// [`CAP_FACTOR`] times, until its quiet blocks hold `quiet_target`
    /// ticks), then the final check. Returns the host's CPU ticks before
    /// and after the timed segment.
    fn segment(
        &mut self,
        seconds: f64,
        quiet_target: usize,
    ) -> Result<(HostTicks, HostTicks), String> {
        for k in 0..self.spec.warmup_ticks {
            self.tick(k)?;
        }
        let fleet_before = self.plane.stats().map_err(client_err("stats"))?;
        let net_before = self.plane.metrics().map_err(client_err("metrics"))?;
        let host_before = procfs::host_ticks().unwrap_or_default();
        let first = self.raw.blocks.len();
        self.open_block()?;
        self.timed = true;
        let deadline = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let mut k = self.spec.warmup_ticks;
        while (start.elapsed() < deadline || self.quiet_ticks(first) < quiet_target)
            && start.elapsed() < deadline * CAP_FACTOR
        {
            self.tick(k)?;
            k += 1;
        }
        self.timed = false;
        self.close_block()?;
        let host_after = procfs::host_ticks().unwrap_or_default();
        let fleet_after = self.plane.stats().map_err(client_err("stats"))?;
        let net_after = self.plane.metrics().map_err(client_err("metrics"))?;
        self.final_check()?;

        let status = self
            .nodes
            .iter()
            .map(Node::status)
            .collect::<Result<Vec<_>, _>>()?;
        let rec = &mut self.rec;
        rec.sut_hwm_kb = rec.sut_hwm_kb.max(status.iter().map(|s| s.vm_hwm_kb).sum());
        rec.provenance.sut_threads = status.iter().map(|s| s.threads).collect();
        rec.decode_errors += net_after.decode_errors - net_before.decode_errors;
        rec.counters = Some(Counters {
            fleet_before,
            fleet_after,
            net_before,
            net_after,
        });
        Ok((host_before, host_after))
    }
}

/// The open block's deadline and its starting readings.
struct Clock {
    end: Instant,
    host: HostTicks,
    cpu: Vec<CpuTicks>,
}

/// Timed samples and per-block totals, before the interference filter.
#[derive(Default)]
struct Raw {
    ticks: Tagged,
    traced_ticks: Tagged,
    cycles: Tagged,
    latest: Tagged,
    forecast: Tagged,
    migrate: Tagged,
    blocks: Vec<Block>,
    /// Per block: slices applied, summed ingest+flush time (s), SUT CPU
    /// (ms).
    slices: Vec<u64>,
    ingest_flush_s: Vec<f64>,
    cpu_ms: Vec<f64>,
}

impl Raw {
    /// Appends an empty block and returns its index.
    fn open(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.slices.push(0);
        self.ingest_flush_s.push(0.0);
        self.cpu_ms.push(0.0);
        self.blocks.len() - 1
    }

    /// Moves the kept samples and totals into `rec`.
    fn keep_into(&self, rec: &mut Record) {
        let chosen = quiet::select(&self.blocks, MIN_KEPT);
        rec.ticks_ms = self.ticks.pick(&chosen);
        rec.traced_ticks_ms = self.traced_ticks.pick(&chosen);
        rec.cycles_ms = self.cycles.pick(&chosen);
        rec.latest_ms = self.latest.pick(&chosen);
        rec.forecast_ms = self.forecast.pick(&chosen);
        rec.migrate_ms = self.migrate.pick(&chosen);
        let kept = |v: &[f64]| -> f64 {
            v.iter()
                .zip(&chosen)
                .filter(|(_, &c)| c)
                .map(|(x, _)| x)
                .sum()
        };
        rec.slices = self
            .slices
            .iter()
            .zip(&chosen)
            .filter(|(_, &c)| c)
            .map(|(x, _)| x)
            .sum();
        rec.ingest_flush_s = kept(&self.ingest_flush_s);
        rec.sut_cpu_ms = kept(&self.cpu_ms);
        rec.provenance.blocks = (chosen.iter().filter(|&&c| c).count(), chosen.len());
        rec.provenance.kept_steal_max = self
            .blocks
            .iter()
            .zip(&chosen)
            .filter(|(_, &c)| c)
            .map(|(b, _)| b.steal)
            .fold(0.0, f64::max);
    }
}

/// What one set-up leaves running.
struct SetUp {
    nodes: Vec<Node>,
    plane: Plane,
    /// The registered models, in stream order.
    models: Vec<Sofia>,
    /// Each model's init time (ms).
    init_ms: Vec<f64>,
}

/// Launches the nodes, initializes every model, and registers it over
/// the wire.
fn set_up(
    opts: &Opts,
    spec: &Spec,
    inputs: &[Input],
    startups: &[Vec<ObservedTensor>],
    shards: usize,
    workers: usize,
    run_dir: &std::path::Path,
) -> Result<SetUp, String> {
    let mut nodes = Vec::with_capacity(spec.nodes);
    for n in 0..spec.nodes {
        let checkpoint = spec
            .checkpoint_every
            .map(|every| (run_dir.join(format!("node-{n}")), every));
        nodes.push(Node::launch(&opts.sut, &NodeConfig { shards, checkpoint })?);
    }
    let (models, init_ms) = init_models(spec, inputs, startups, workers);
    let mut plane = Plane::connect(&nodes)?;
    for (input, model) in inputs.iter().zip(&models) {
        let durable = plane
            .register(&input.id, &ModelHandle::sofia(model.clone()))
            .map_err(client_err("register"))?;
        if spec.checkpoint_every.is_some() && !durable {
            return Err(format!("`{}` was not persisted on registration", input.id));
        }
    }
    Ok(SetUp {
        nodes,
        plane,
        models,
        init_ms,
    })
}

fn shut_down(nodes: Vec<Node>) -> Result<(), String> {
    nodes.into_iter().try_for_each(Node::shutdown)
}

/// Runs one workload end to end (or traced) and returns what it
/// measured.
pub fn run(opts: &Opts) -> Result<Record, String> {
    let spec = opts.workload.spec();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = spec.shards.min(nproc);
    let run_dir = opts
        .workdir
        .join(format!("{}-{}", spec.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = run_in(opts, &spec, shards, nproc, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn run_in(
    opts: &Opts,
    spec: &Spec,
    shards: usize,
    nproc: usize,
    run_dir: &std::path::Path,
) -> Result<Record, String> {
    let startup = spec.startup_len();
    let inputs: Vec<Input> = (0..spec.streams)
        .map(|i| spec.input(opts.seed, i))
        .collect();
    let startups: Vec<Vec<ObservedTensor>> = inputs
        .iter()
        .map(|input| (0..startup).map(|t| input.slice(t).1).collect())
        .collect();
    let ids: Vec<String> = inputs.iter().map(|i| i.id.clone()).collect();
    // The end-to-end run times one segment after every set-up, so each
    // run pools SUT processes whose threads landed differently on the
    // cores (one process's placement holds for its lifetime and moves
    // its latencies by up to a fifth); the traced run times one.
    let segments = if opts.trace { 1 } else { SETUPS };

    let mut rec = Record::default();
    let mut raw = Raw::default();
    let mut tracer = opts.trace.then(Tracer::default);
    let mut host = (0u64, 0u64);
    for round in 0..SETUPS {
        let start = Instant::now();
        let up = set_up(opts, spec, &inputs, &startups, shards, nproc, run_dir)?;
        rec.setups_s.push(start.elapsed().as_secs_f64());
        rec.init_ms.extend(&up.init_ms);
        if round + segments >= SETUPS {
            let replay = if opts.trace {
                Some(Replay::new(spec, shards, &up.models, &ids, run_dir)?)
            } else {
                None
            };
            let streams = inputs
                .iter()
                .zip(up.models)
                .map(|(input, replica)| StreamState {
                    input,
                    shadow: opts.trace.then(|| replica.clone()),
                    replica,
                    pending: VecDeque::new(),
                    last: None,
                })
                .collect();
            let mut lp = Loop {
                spec,
                plane: up.plane,
                nodes: up.nodes,
                ids: &ids,
                streams,
                startup,
                tracer,
                replay,
                rec,
                timed: false,
                seg_ticks: 0,
                score: round + segments == SETUPS,
                raw,
                clock: None,
                block: 0,
                migrations: 0,
                last_moved: None,
            };
            let (before, after) = lp.segment(
                opts.seconds as f64 / segments as f64,
                MIN_TICKS.div_ceil(segments),
            )?;
            host.0 += after.steal.saturating_sub(before.steal);
            host.1 += after.total.saturating_sub(before.total);
            let Loop {
                plane,
                nodes,
                tracer: t,
                replay,
                rec: r,
                raw: w,
                ..
            } = lp;
            (tracer, rec, raw) = (t, r, w);
            if let Some(mut replay) = replay {
                replay.finish();
                rec.replay = Some(replay);
            }
            drop(plane);
            shut_down(nodes)?;
        } else {
            drop(up.plane);
            shut_down(up.nodes)?;
        }
        for n in 0..spec.nodes {
            let _ = std::fs::remove_dir_all(run_dir.join(format!("node-{n}")));
        }
    }

    rec.provenance.nproc = nproc;
    rec.provenance.cpu_model = procfs::cpu_model();
    rec.provenance.shards = shards;
    rec.provenance.steal_share = host.0 as f64 / host.1.max(1) as f64;
    raw.keep_into(&mut rec);
    if let Some(tr) = &tracer {
        let path = opts
            .workdir
            .join(format!("spans-{}.csv", spec.workload.name()));
        tr.write_csv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    rec.tracer = tracer;
    Ok(rec)
}

/// Counts the core update's cost per unit of Lemma 2's work,
/// `|Ω_t|·N·R` (N the tensor order, time included).
pub fn ns_per_entry_rank(update_ns: f64, observed: usize, order: usize, rank: usize) -> f64 {
    update_ns / (observed * order * rank) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_tensor::Shape;

    #[test]
    fn migration_phases_charge_each_segment_to_its_closing_mark() {
        let marks = [
            (Mark::Flushed, 10),
            (Mark::Snapshotted, 13),
            (Mark::Registered, 20),
            (Mark::Snapshotted, 22),
            (Mark::Registered, 30),
            (Mark::Flipped, 31),
            (Mark::Deregistered, 35),
            (Mark::Deregistered, 38),
        ];
        let phases = migration_phases(0, &marks, 40);
        let total = |name: &str| -> u64 {
            phases
                .iter()
                .filter(|(n, _, _)| *n == name)
                .map(|(_, a, b)| b - a)
                .sum()
        };
        assert_eq!(total("cluster.migrate_flush"), 10);
        assert_eq!(total("cluster.migrate_snapshot"), 5);
        assert_eq!(total("cluster.migrate_register"), 15);
        assert_eq!(total("cluster.migrate_flip"), 1);
        assert_eq!(total("cluster.migrate_deregister"), 9);
        // The phases tile the whole call.
        let sum: u64 = phases.iter().map(|(_, a, b)| b - a).sum();
        assert_eq!(sum, 40);
    }

    #[test]
    fn empty_migration_is_all_tail() {
        assert_eq!(
            migration_phases(5, &[], 9),
            vec![("cluster.migrate_deregister", 5, 9)]
        );
    }

    #[test]
    fn bit_equality_and_nre() {
        let a = DenseTensor::from_fn(Shape::new(&[2, 2]), |i| (i[0] + 2 * i[1]) as f64);
        let mut b = a.clone();
        assert!(same_bits(&a, &b));
        b.set_flat(3, b.get_flat(3) + 1e-12);
        assert!(!same_bits(&a, &b));
        let zero = DenseTensor::zeros(Shape::new(&[2, 2]));
        assert_eq!(nre(&zero, &a), 1.0);
        assert_eq!(nre(&a, &a), 0.0);
    }

    #[test]
    fn lemma_two_unit_cost() {
        assert_eq!(ns_per_entry_rank(3000.0, 100, 3, 5), 2.0);
    }
}
