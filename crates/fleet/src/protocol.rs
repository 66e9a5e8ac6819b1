//! The typed query plane: one request enum, one response enum, one
//! completion handle.
//!
//! The fleet's query surface grew organically as four parallel blocking
//! methods, each doing its own shard lookup and channel round-trip. This
//! module replaces that with a single routable protocol:
//!
//! * [`Query`] — what a caller asks of one stream. Plain data: no trait
//!   objects, no channels, no lifetimes, so the `sofia-net` TCP data
//!   plane carries it verbatim ([`Query::to_wire`] /
//!   [`Query::from_wire`] pin down the line-based text form framed onto
//!   the socket).
//! * [`QueryResponse`] — one variant per [`Query`] variant, carrying the
//!   answer.
//! * [`QueryTicket`] — the completion handle [`crate::Fleet::query`]
//!   returns immediately. Callers pipeline many in-flight queries by
//!   holding several tickets and settling them with
//!   [`QueryTicket::wait`] or polling [`QueryTicket::try_take`].
//! * [`Answer`] — what a ticket carries from the shard. A SOFIA
//!   stream's `Latest` and `Forecast` stay in Kruskal form (the factors
//!   plus R weights) until a caller asks for the dense value, so the
//!   shard never builds a dense slice and the wire ships the paper's
//!   sizes.
//!
//! Validation happens at the API boundary: [`Query::validate`] rejects
//! requests no model could answer (for example a zero forecast horizon)
//! as a typed [`FleetError::InvalidQuery`] *before* the request reaches
//! a shard, instead of relying on the per-stream panic guard catching a
//! model assert.

use crate::error::FleetError;
use crate::stats::{MetricKind, StreamStats};
use sofia_core::snapshot::wire as hexwire;
use sofia_core::traits::StepOutput;
use sofia_tensor::{kruskal, DenseTensor, Mask, Matrix, Shape};
use std::sync::mpsc;

/// The discriminant of a [`Query`] / [`QueryResponse`] pair, used for
/// per-kind serving counters and response matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Latest completed slice.
    Latest,
    /// `h`-step-ahead forecast.
    Forecast,
    /// Outlier mask of the latest step.
    OutlierMask,
    /// Per-stream serving statistics.
    StreamStats,
    /// A quantile of one of the stream's metric sketches.
    Quantile,
}

impl QueryKind {
    /// Every kind, in wire order.
    pub const ALL: [QueryKind; 5] = [
        QueryKind::Latest,
        QueryKind::Forecast,
        QueryKind::OutlierMask,
        QueryKind::StreamStats,
        QueryKind::Quantile,
    ];

    /// Stable wire/display name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Latest => "latest",
            QueryKind::Forecast => "forecast",
            QueryKind::OutlierMask => "outlier-mask",
            QueryKind::StreamStats => "stream-stats",
            QueryKind::Quantile => "quantile",
        }
    }
}

impl std::fmt::Display for QueryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed request against one stream's serving state.
///
/// Send it with [`crate::Fleet::query`] (one stream, returns a
/// [`QueryTicket`]) or [`crate::Fleet::query_batch`] (many streams,
/// grouped by shard, one queue round-trip per involved shard).
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Latest completed slice (with outliers, if the model reports
    /// them). Answered with [`QueryResponse::Latest`]; `None` before the
    /// stream's first step (including right after recovery or a lazy
    /// restore).
    Latest,
    /// `horizon`-step-ahead forecast. Answered with
    /// [`QueryResponse::Forecast`]; `None` if the model does not
    /// forecast. A zero horizon fails [`Query::validate`].
    Forecast {
        /// Steps ahead to forecast; must be at least 1.
        horizon: usize,
    },
    /// Boolean mask of entries the model flagged as outliers in the
    /// latest step. Answered with [`QueryResponse::OutlierMask`]; `None`
    /// before the first step or for models without outlier estimates.
    OutlierMask,
    /// Per-stream serving statistics. Answered with
    /// [`QueryResponse::StreamStats`].
    StreamStats,
    /// The `q`-quantile of one of the stream's metric sketches —
    /// ingest latency (µs) or one-step forecast error. Answered with
    /// [`QueryResponse::Quantile`]; `None` while the sketch is empty
    /// (no step yet, or a model that never forecasts). A non-finite or
    /// out-of-`[0, 1]` `q` fails [`Query::validate`].
    Quantile {
        /// Which metric sketch to probe.
        metric: MetricKind,
        /// Quantile in `[0, 1]` (e.g. `0.99` for p99).
        q: f64,
    },
}

impl Query {
    /// The request's discriminant.
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::Latest => QueryKind::Latest,
            Query::Forecast { .. } => QueryKind::Forecast,
            Query::OutlierMask => QueryKind::OutlierMask,
            Query::StreamStats => QueryKind::StreamStats,
            Query::Quantile { .. } => QueryKind::Quantile,
        }
    }

    /// Rejects requests no model could answer, as a typed
    /// [`FleetError::InvalidQuery`].
    ///
    /// Runs at the API boundary ([`crate::Fleet::query`] /
    /// [`crate::Fleet::query_batch`]) and again shard-side, so the
    /// `sofia-net` server — which feeds decoded wire queries straight
    /// into shards — gets the same guarantee.
    pub fn validate(&self) -> Result<(), FleetError> {
        match self {
            Query::Forecast { horizon: 0 } => Err(FleetError::InvalidQuery {
                reason: "forecast horizon must be at least 1 (got 0)".to_string(),
            }),
            Query::Quantile { q, .. } if !(0.0..=1.0).contains(q) => {
                Err(FleetError::InvalidQuery {
                    reason: format!("quantile must be a finite value in [0, 1] (got {q})"),
                })
            }
            _ => Ok(()),
        }
    }

    /// Serializes the request into its one-line wire form (`latest`,
    /// `forecast <h>`, `outlier-mask`, `stream-stats`, or
    /// `quantile <metric> <q>` with `q` as a 16-hex-digit IEEE 754 bit
    /// pattern so the round-trip is bit-exact).
    pub fn to_wire(&self) -> String {
        match self {
            Query::Forecast { horizon } => format!("forecast {horizon}"),
            Query::Quantile { metric, q } => {
                let mut line = format!("quantile {} ", metric.name());
                hexwire::push_f64(&mut line, *q);
                line
            }
            other => other.kind().name().to_string(),
        }
    }

    /// Parses the one-line wire form produced by [`Query::to_wire`].
    /// Malformed input is a typed [`FleetError::InvalidQuery`]; the
    /// parsed request is **not** yet validated (parse then
    /// [`Query::validate`], so transport and semantics fail distinctly).
    pub fn from_wire(line: &str) -> Result<Query, FleetError> {
        let mut parts = line.split_whitespace();
        let invalid = |reason: String| FleetError::InvalidQuery { reason };
        let head = parts
            .next()
            .ok_or_else(|| invalid("empty query line".to_string()))?;
        let query = match head {
            "latest" => Query::Latest,
            "forecast" => {
                let h = parts
                    .next()
                    .ok_or_else(|| invalid("forecast needs a horizon".to_string()))?;
                Query::Forecast {
                    horizon: wire::parse_int(h, "forecast horizon")
                        .map_err(|_| invalid(format!("bad forecast horizon `{h}`")))?,
                }
            }
            "outlier-mask" => Query::OutlierMask,
            "stream-stats" => Query::StreamStats,
            "quantile" => {
                let name = parts
                    .next()
                    .ok_or_else(|| invalid("quantile needs a metric name".to_string()))?;
                let metric = MetricKind::from_name(name)
                    .ok_or_else(|| invalid(format!("unknown quantile metric `{name}`")))?;
                let tok = parts
                    .next()
                    .ok_or_else(|| invalid("quantile needs a q value".to_string()))?;
                // `to_wire` emits q as a 16-lowercase-hex-digit bit
                // pattern (bit-exact); hand-written clients may send a
                // plain decimal like `0.99` instead.
                let q = match hexwire::parse_f64(tok) {
                    Some(q) => q,
                    None => tok
                        .parse()
                        .map_err(|_| invalid(format!("bad quantile `{tok}`")))?,
                };
                Query::Quantile { metric, q }
            }
            other => return Err(invalid(format!("unknown query `{other}`"))),
        };
        match parts.next() {
            Some(extra) => Err(invalid(format!("trailing token `{extra}`"))),
            None => Ok(query),
        }
    }
}

/// The answer to one [`Query`] (one variant per request variant).
#[derive(Debug, Clone)]
pub enum QueryResponse {
    /// Answer to [`Query::Latest`].
    Latest(Option<StepOutput>),
    /// Answer to [`Query::Forecast`].
    Forecast(Option<DenseTensor>),
    /// Answer to [`Query::OutlierMask`].
    OutlierMask(Option<Mask>),
    /// Answer to [`Query::StreamStats`].
    StreamStats(StreamStats),
    /// Answer to [`Query::Quantile`]: the estimated quantile, `None`
    /// while the probed sketch is empty.
    Quantile(Option<f64>),
}

impl QueryResponse {
    /// The response's discriminant; always equals the kind of the
    /// [`Query`] that produced it.
    pub fn kind(&self) -> QueryKind {
        match self {
            QueryResponse::Latest(_) => QueryKind::Latest,
            QueryResponse::Forecast(_) => QueryKind::Forecast,
            QueryResponse::OutlierMask(_) => QueryKind::OutlierMask,
            QueryResponse::StreamStats(_) => QueryKind::StreamStats,
            QueryResponse::Quantile(_) => QueryKind::Quantile,
        }
    }

    // The four accessors below unwrap the payload of one variant. They
    // panic on a mismatched variant — a response settled from a ticket
    // always matches its request's kind, so reaching the panic means a
    // caller mixed up its own tickets (a programming error, not a
    // serving condition).

    /// Payload of a [`QueryResponse::Latest`] answer.
    pub fn expect_latest(self) -> Option<StepOutput> {
        match self {
            QueryResponse::Latest(out) => out,
            other => panic!("expected a latest response, got {}", other.kind()),
        }
    }

    /// Payload of a [`QueryResponse::Forecast`] answer.
    pub fn expect_forecast(self) -> Option<DenseTensor> {
        match self {
            QueryResponse::Forecast(f) => f,
            other => panic!("expected a forecast response, got {}", other.kind()),
        }
    }

    /// Payload of a [`QueryResponse::OutlierMask`] answer.
    pub fn expect_outlier_mask(self) -> Option<Mask> {
        match self {
            QueryResponse::OutlierMask(m) => m,
            other => panic!("expected an outlier-mask response, got {}", other.kind()),
        }
    }

    /// Payload of a [`QueryResponse::StreamStats`] answer.
    pub fn expect_stream_stats(self) -> StreamStats {
        match self {
            QueryResponse::StreamStats(s) => s,
            other => panic!("expected a stream-stats response, got {}", other.kind()),
        }
    }

    /// Payload of a [`QueryResponse::Quantile`] answer.
    pub fn expect_quantile(self) -> Option<f64> {
        match self {
            QueryResponse::Quantile(v) => v,
            other => panic!("expected a quantile response, got {}", other.kind()),
        }
    }
}

/// A slice in SOFIA's Kruskal form `⟦U⁽¹⁾, …, U⁽ᴺ⁻¹⁾; w⟧` (Eqs. 27–28):
/// the non-temporal factors plus one weight per component — `u_t` for
/// the latest reconstruction, the Holt-Winters forecast `û_{t+h|t}` for
/// a forecast. [`KruskalSlice::to_dense`] runs the kernel that SOFIA's
/// own `step` and `forecast_slice` run, so the dense value has their
/// bits.
#[derive(Debug, Clone)]
pub(crate) struct KruskalSlice {
    factors: Vec<Matrix>,
    weights: Vec<f64>,
}

impl KruskalSlice {
    /// Pairs factors with weights; every factor has `weights.len()`
    /// columns.
    pub(crate) fn new(factors: Vec<Matrix>, weights: Vec<f64>) -> KruskalSlice {
        debug_assert!(factors.iter().all(|f| f.cols() == weights.len()));
        KruskalSlice { factors, weights }
    }

    /// The dense slice, through [`kruskal::kruskal_slice`].
    pub(crate) fn to_dense(&self) -> DenseTensor {
        let refs: Vec<&Matrix> = self.factors.iter().collect();
        kruskal::kruskal_slice(&refs, &self.weights)
    }
}

/// An outlier tensor as the list of its entries whose bit pattern is not
/// +0.0, `(flat offset, value)` ascending by offset. Keeping −0.0 and
/// NaN makes the list exact: [`SparseOutliers::to_dense`] gives back
/// every bit of the tensor it stands for.
#[derive(Debug, Clone)]
pub(crate) struct SparseOutliers {
    shape: Shape,
    entries: Vec<(usize, f64)>,
}

impl SparseOutliers {
    /// Wraps a list that already holds exactly the entries of a
    /// `shape`-shaped tensor that are not +0.0, ascending by offset —
    /// the list SOFIA's update finds.
    pub(crate) fn new(shape: Shape, entries: Vec<(usize, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(entries
            .iter()
            .all(|&(off, v)| off < shape.len() && v.to_bits() != 0));
        SparseOutliers { shape, entries }
    }

    /// Every entry of `t` that is not +0.0.
    pub(crate) fn of(t: &DenseTensor) -> Self {
        let entries = t
            .data()
            .iter()
            .enumerate()
            .filter(|(_, v)| v.to_bits() != 0)
            .map(|(off, &v)| (off, v))
            .collect();
        SparseOutliers {
            shape: t.shape().clone(),
            entries,
        }
    }

    /// The dense tensor: the listed entries, +0.0 elsewhere.
    pub(crate) fn to_dense(&self) -> DenseTensor {
        let mut t = DenseTensor::zeros(self.shape.clone());
        for &(off, v) in &self.entries {
            t.set_flat(off, v);
        }
        t
    }

    /// The entries flagged as outliers: those with `v != 0.0`.
    pub(crate) fn mask(&self) -> Mask {
        let mut flagged = vec![false; self.shape.len()];
        for &(off, v) in &self.entries {
            flagged[off] = v != 0.0;
        }
        Mask::from_vec(self.shape.clone(), flagged)
    }
}

/// A shard's answer to one [`Query`], as a [`QueryTicket`] carries it.
///
/// A SOFIA stream's `Latest` and `Forecast` stay in Kruskal form — a
/// copy of the non-temporal factors plus R weights, and `Latest`'s
/// outliers as a sparse list — so the shard never builds the dense
/// slice. [`Answer::into_response`] rebuilds the dense value with
/// [`kruskal::kruskal_slice`]; [`wire::push_answer`] ships the factored
/// form as it is, and the client's [`wire::parse_response`] rebuilds it
/// with the same kernel. Either way the caller sees the bits the model's
/// dense `step` and `forecast_slice` would have produced.
#[derive(Debug)]
pub struct Answer(AnswerForm);

#[derive(Debug)]
enum AnswerForm {
    /// Any answer held densely (every model's other queries, and a
    /// transient model's `Latest` and `Forecast`).
    Dense(QueryResponse),
    /// `Latest(Some(..))` of a SOFIA stream.
    Latest {
        completed: KruskalSlice,
        outliers: SparseOutliers,
    },
    /// `Forecast(Some(..))` of a SOFIA stream.
    Forecast(KruskalSlice),
}

impl Answer {
    /// An answer held densely.
    pub(crate) fn dense(resp: QueryResponse) -> Answer {
        Answer(AnswerForm::Dense(resp))
    }

    /// A SOFIA `Latest`: the completed slice in Kruskal form and its
    /// outliers.
    pub(crate) fn latest(completed: KruskalSlice, outliers: SparseOutliers) -> Answer {
        Answer(AnswerForm::Latest {
            completed,
            outliers,
        })
    }

    /// A SOFIA `Forecast` in Kruskal form.
    pub(crate) fn forecast(forecast: KruskalSlice) -> Answer {
        Answer(AnswerForm::Forecast(forecast))
    }

    /// The dense response, rebuilt with the model's own kernel.
    pub fn into_response(self) -> QueryResponse {
        match self.0 {
            AnswerForm::Dense(resp) => resp,
            AnswerForm::Latest {
                completed,
                outliers,
            } => QueryResponse::Latest(Some(StepOutput {
                completed: completed.to_dense(),
                outliers: Some(outliers.to_dense()),
            })),
            AnswerForm::Forecast(forecast) => QueryResponse::Forecast(Some(forecast.to_dense())),
        }
    }
}

/// Completion handle of one in-flight query.
///
/// [`crate::Fleet::query`] returns the ticket immediately after handing
/// the request to the owning shard's query queue; the caller chooses
/// when to settle it. Holding several tickets pipelines several queries:
///
/// ```
/// use sofia_fleet::{Fleet, FleetConfig, ModelHandle, Query, QueryResponse};
/// # use sofia_core::traits::{StepOutput, StreamingFactorizer};
/// # use sofia_tensor::ObservedTensor;
/// # struct Echo;
/// # impl StreamingFactorizer for Echo {
/// #     fn name(&self) -> &'static str { "echo" }
/// #     fn step(&mut self, s: &ObservedTensor) -> StepOutput {
/// #         StepOutput { completed: s.values().clone(), outliers: None }
/// #     }
/// # }
/// let fleet = Fleet::new(FleetConfig::with_shards(2)).unwrap();
/// fleet.register("a", ModelHandle::serve(Echo)).unwrap();
/// fleet.register("b", ModelHandle::serve(Echo)).unwrap();
/// // Both queries are in flight before either is settled.
/// let ta = fleet.query("a", Query::StreamStats).unwrap();
/// let tb = fleet.query("b", Query::StreamStats).unwrap();
/// assert!(matches!(tb.wait().unwrap(), QueryResponse::StreamStats(_)));
/// assert!(matches!(ta.wait().unwrap(), QueryResponse::StreamStats(_)));
/// ```
#[derive(Debug)]
pub struct QueryTicket {
    /// `None` once the response has been taken through
    /// [`QueryTicket::try_take`].
    rx: Option<mpsc::Receiver<Result<Answer, FleetError>>>,
}

impl QueryTicket {
    pub(crate) fn new(rx: mpsc::Receiver<Result<Answer, FleetError>>) -> Self {
        QueryTicket { rx: Some(rx) }
    }

    /// Blocks until the response arrives, and rebuilds a factored answer
    /// into its dense value ([`Answer::into_response`]).
    ///
    /// Returns [`FleetError::ShuttingDown`] if the owning shard exited
    /// before answering. Panics if [`QueryTicket::try_take`] already
    /// returned the response (the ticket is spent).
    pub fn wait(mut self) -> Result<QueryResponse, FleetError> {
        let rx = self.rx.take().expect("query ticket already taken");
        rx.recv()
            .map_err(|_| FleetError::ShuttingDown)?
            .map(Answer::into_response)
    }

    /// Non-blocking poll: `None` while the query is still in flight (or
    /// after the response has already been taken), `Some` exactly once
    /// when it resolves — densely, as [`QueryTicket::wait`] returns it.
    pub fn try_take(&mut self) -> Option<Result<QueryResponse, FleetError>> {
        self.try_take_answer()
            .map(|res| res.map(Answer::into_response))
    }

    /// [`QueryTicket::try_take`] without the rebuild: the answer as the
    /// shard produced it, for a front end that encodes it onto the wire
    /// ([`wire::push_answer`]).
    pub fn try_take_answer(&mut self) -> Option<Result<Answer, FleetError>> {
        let rx = self.rx.as_ref()?;
        match rx.try_recv() {
            Ok(res) => {
                self.rx = None;
                Some(res)
            }
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => {
                self.rx = None;
                Some(Err(FleetError::ShuttingDown))
            }
        }
    }
}

impl QueryResponse {
    /// Serializes the response into its multi-line wire form (first line
    /// `<kind> <some|none>` — or bare `stream-stats` — followed by the
    /// payload encoded by [`wire`]; floats travel as IEEE 754 hex bit
    /// patterns, so the round-trip is bit-exact). Tensors take the dense
    /// `data` form here; a shard's factored [`Answer`] goes out through
    /// [`wire::push_answer`].
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        wire::push_response(&mut out, self);
        out
    }

    /// Parses the multi-line wire form produced by
    /// [`QueryResponse::to_wire`] or [`wire::push_answer`], rebuilding a
    /// `kruskal` block into its dense slice. Malformed input — truncated
    /// blocks, bad hex, shape/data mismatches, oversized shapes or ranks —
    /// is a typed [`wire::WireError`], never a panic.
    pub fn from_wire(text: &str) -> Result<QueryResponse, wire::WireError> {
        let mut cur = wire::LineCursor::new(text);
        // One block decodes to at most a completed slice and its
        // outliers, each within the shape bound.
        let mut budget = wire::DecodeBudget::new(2 * wire::MAX_WIRE_ELEMS);
        let resp = wire::parse_response(&mut cur, &mut budget)?;
        cur.finish()?;
        Ok(resp)
    }
}

pub mod wire {
    //! Multi-line wire encodings of the tensor-carrying protocol types.
    //!
    //! [`Query`] already has a one-line text form; this module gives the
    //! *reply* direction (and the data plane's slices) one too, so a
    //! network transport can carry the whole protocol as framed text:
    //!
    //! * a tensor block — a `shape` line plus one of two forms: dense
    //!   `data` (floats as 16-hex-digit IEEE 754 bit patterns, via
    //!   [`sofia_core::snapshot::wire`]), or `kruskal <R>` followed by
    //!   one `factor` line per mode (`I_n·R` values, row-major) and a
    //!   `weights` line (R values), which the parser rebuilds with
    //!   [`sofia_tensor::kruskal::kruskal_slice`];
    //! * [`Mask`] / [`ObservedTensor`] — a `shape` line plus `bits` (a
    //!   0/1 string); an observed slice's `data` line carries its `|Ω|`
    //!   observed values only, in ascending offset order;
    //! * [`StepOutput`] — the completed tensor block plus `outliers none`
    //!   or `outliers <k>` with the k entries whose bit pattern is not
    //!   +0.0 as ascending `offsets` and their `values`;
    //! * [`crate::StreamStats`] — one `key value` line per field;
    //! * [`QueryResponse`] / [`Answer`] — kind header plus the matching
    //!   payload;
    //! * [`FleetError`] — a one-line typed form for `err` replies.
    //!
    //! Every parser is **total**: malformed input (truncated blocks,
    //! non-hex floats, shape/data length mismatches, absurd shapes or
    //! ranks, a frame whose tensors would decode to more than its
    //! [`DecodeBudget`]) comes back as a typed [`WireError`], never a
    //! panic — the transport feeds these parsers bytes from the network.

    use super::{Answer, AnswerForm, KruskalSlice, Query, QueryResponse, SparseOutliers};
    use crate::durability::{decode_stream_id, encode_stream_id};
    use crate::error::FleetError;
    use crate::stats::{MetricKind, StreamStats};
    use sofia_core::snapshot::wire as hexwire;
    pub use sofia_core::snapshot::wire::{parse_int, LineCursor, WireError};
    use sofia_core::traits::StepOutput;
    use sofia_sketch::{metric::METRIC_WIRE_LINES, MetricSummary};
    use sofia_tensor::{DenseTensor, Mask, Matrix, ObservedTensor, Shape};
    use std::fmt::Write as _;

    /// Upper bound on the element count of any tensor accepted off the
    /// wire (4Mi elements ≈ 32 MB of floats). Shapes whose dimension
    /// product exceeds this — or overflows — are rejected before any
    /// allocation happens.
    pub const MAX_WIRE_ELEMS: usize = 1 << 22;

    /// Upper bound on elements × R of a `kruskal` block accepted off the
    /// wire: the multiply-adds its rebuild costs (R = 64 at the largest
    /// shape). The parser checks it from the `shape` and `kruskal` lines,
    /// before anything is allocated; the encoder writes a slice over it
    /// in the dense form, so every slice still crosses the wire.
    pub const MAX_KRUSKAL_TERMS: usize = MAX_WIRE_ELEMS * 64;

    /// Whether a `elems`-entry slice of rank `r` may travel as a
    /// `kruskal` block.
    pub(crate) fn kruskal_fits(elems: usize, r: usize) -> bool {
        elems
            .checked_mul(r)
            .is_some_and(|terms| terms <= MAX_KRUSKAL_TERMS)
    }

    /// Bytes of one value on a dense `data` line: a space and 16 hex
    /// digits.
    const DENSE_VALUE_BYTES: usize = 17;

    /// How many tensor elements the rest of one frame may decode to.
    ///
    /// A `kruskal` block, an outlier list and an observed slice's `bits`
    /// each stand for a tensor many times the size of their lines, so
    /// the frame-size bound alone does not bound what a frame decodes
    /// to. Every float tensor a parser builds draws its element count
    /// from the frame's one budget before it is allocated, and a frame
    /// that would overdraw it is a [`WireError`].
    #[derive(Debug, Clone)]
    pub struct DecodeBudget {
        left: usize,
    }

    impl DecodeBudget {
        /// A budget of `elems` elements.
        pub fn new(elems: usize) -> Self {
            DecodeBudget { left: elems }
        }

        /// The elements a `bytes`-byte frame carries as dense `data`
        /// values: no frame decodes to more than the dense form of a
        /// frame at the same bound would.
        pub fn for_frame(bytes: usize) -> Self {
            DecodeBudget::new(bytes / DENSE_VALUE_BYTES)
        }

        /// Draws `elems` elements, or refuses without drawing any.
        pub fn take(&mut self, elems: usize) -> Result<(), WireError> {
            match self.left.checked_sub(elems) {
                Some(left) => {
                    self.left = left;
                    Ok(())
                }
                None => Err(WireError::new(format!(
                    "a {elems}-element tensor overdraws the frame's decode budget of {} \
                     elements left",
                    self.left
                ))),
            }
        }
    }

    /// Appends a `shape` line with the given mode lengths.
    fn push_dims(out: &mut String, dims: impl IntoIterator<Item = usize>) {
        out.push_str("shape");
        for d in dims {
            let _ = write!(out, " {d}");
        }
        out.push('\n');
    }

    fn push_shape(out: &mut String, shape: &Shape) {
        push_dims(out, shape.dims().iter().copied());
    }

    /// Parses and **bounds** a `shape` line: every dimension positive,
    /// the element count below [`MAX_WIRE_ELEMS`] with overflow checked,
    /// so a hostile shape can neither panic `Shape::new` nor provoke a
    /// giant allocation.
    fn parse_shape(cur: &mut LineCursor<'_>) -> Result<Shape, WireError> {
        let rest = cur.field("shape")?;
        let dims: Vec<usize> = rest
            .split_whitespace()
            .map(|tok| parse_int(tok, "shape dimension"))
            .collect::<Result<_, _>>()?;
        if dims.is_empty() {
            return Err(WireError::new("shape needs at least one dimension"));
        }
        let mut len = 1usize;
        for &d in &dims {
            if d == 0 {
                return Err(WireError::new("zero shape dimension"));
            }
            len = len
                .checked_mul(d)
                .filter(|&l| l <= MAX_WIRE_ELEMS)
                .ok_or_else(|| {
                    WireError::new(format!(
                        "shape {dims:?} exceeds the wire bound of {MAX_WIRE_ELEMS} elements"
                    ))
                })?;
        }
        Ok(Shape::new(&dims))
    }

    /// Appends a tensor block in the dense form: `shape …` + `data
    /// <hex>…`.
    fn push_tensor(out: &mut String, t: &DenseTensor) {
        push_shape(out, t.shape());
        hexwire::push_f64s(out, "data", t.data().iter().copied());
    }

    /// Appends a tensor block in the Kruskal form: `shape …`, `kruskal
    /// <R>`, one `factor` line per mode and a `weights` line — or the
    /// dense form when elements × R exceeds [`MAX_KRUSKAL_TERMS`].
    fn push_kruskal(out: &mut String, slice: &KruskalSlice) {
        let r = slice.weights.len();
        // The model holds tensors of this shape, so the product fits.
        let elems = slice.factors.iter().map(Matrix::rows).product();
        if !kruskal_fits(elems, r) {
            return push_tensor(out, &slice.to_dense());
        }
        push_dims(out, slice.factors.iter().map(Matrix::rows));
        let _ = writeln!(out, "kruskal {r}");
        for f in &slice.factors {
            hexwire::push_f64s(out, "factor", f.data().iter().copied());
        }
        hexwire::push_f64s(out, "weights", slice.weights.iter().copied());
    }

    /// Parses a tensor block in either form, drawing its element count
    /// from `budget`; a `kruskal` block is rebuilt into its dense slice.
    fn parse_tensor(
        cur: &mut LineCursor<'_>,
        budget: &mut DecodeBudget,
    ) -> Result<DenseTensor, WireError> {
        let shape = parse_shape(cur)?;
        budget.take(shape.len())?;
        let line = cur.next("tensor data")?;
        if let Some(rank) = line.strip_prefix("kruskal ") {
            return Ok(parse_kruskal(cur, shape, rank)?.to_dense());
        }
        let data = hexwire::parse_f64s(line, "data")?;
        if data.len() != shape.len() {
            return Err(WireError::new(format!(
                "tensor data carries {} values for a {}-element shape",
                data.len(),
                shape.len()
            )));
        }
        Ok(DenseTensor::from_vec(shape, data))
    }

    /// Parses the `factor` and `weights` lines after `kruskal <rank>`,
    /// with R and elements × R bounded before anything is allocated.
    fn parse_kruskal(
        cur: &mut LineCursor<'_>,
        shape: Shape,
        rank: &str,
    ) -> Result<KruskalSlice, WireError> {
        let r = parse_int(rank, "kruskal rank")?;
        if r == 0 {
            return Err(WireError::new("kruskal rank must be at least 1"));
        }
        if !kruskal_fits(shape.len(), r) {
            return Err(WireError::new(format!(
                "a rank-{r} block over {} elements exceeds the wire bound of \
                 {MAX_KRUSKAL_TERMS} terms",
                shape.len()
            )));
        }
        let mut factors = Vec::with_capacity(shape.order());
        for &rows in shape.dims() {
            let values = hexwire::parse_f64s(cur.next("kruskal factor")?, "factor")?;
            if values.len() != rows * r {
                return Err(WireError::new(format!(
                    "factor carries {} values for a {rows}×{r} matrix",
                    values.len()
                )));
            }
            factors.push(Matrix::from_vec(rows, r, values));
        }
        let weights = hexwire::parse_f64s(cur.next("kruskal weights")?, "weights")?;
        if weights.len() != r {
            return Err(WireError::new(format!(
                "weights carries {} values for rank {r}",
                weights.len()
            )));
        }
        Ok(KruskalSlice::new(factors, weights))
    }

    /// Appends a `bits` line: a line of `0`s with a `1` set at each
    /// observed offset.
    fn push_bits(out: &mut String, mask: &Mask) {
        let mut bits = vec![b'0'; mask.shape().len()];
        for &off in mask.observed_offsets() {
            bits[off] = b'1';
        }
        out.reserve("bits \n".len() + bits.len());
        out.push_str("bits ");
        out.push_str(std::str::from_utf8(&bits).expect("ASCII digits"));
        out.push('\n');
    }

    /// Parses a `bits` line: every byte is checked in one pass, then
    /// mapped to a flag in a second.
    fn parse_bits(line: &str, shape: &Shape) -> Result<Mask, WireError> {
        let bits = line
            .strip_prefix("bits ")
            .ok_or_else(|| WireError::new(format!("expected `bits`, got `{line}`")))?;
        // `b'0'` and `b'1'` differ in the lowest bit alone.
        if bits.bytes().fold(0, |seen, b| seen | (b ^ b'0')) > 1 {
            let at = bits
                .bytes()
                .position(|b| b | 1 != b'1')
                .expect("a byte is neither `0` nor `1`");
            // Every byte before `at` is ASCII, so a char starts here.
            let other = bits[at..].chars().next().expect("a char starts at `at`");
            return Err(WireError::new(format!("bad mask bit `{other}`")));
        }
        if bits.len() != shape.len() {
            return Err(WireError::new(format!(
                "mask carries {} bits for a {}-element shape",
                bits.len(),
                shape.len()
            )));
        }
        let observed = bits.bytes().map(|b| b == b'1').collect();
        Ok(Mask::from_vec(shape.clone(), observed))
    }

    /// Appends a mask as `shape …` + `bits 0110…` lines.
    fn push_mask(out: &mut String, mask: &Mask) {
        push_shape(out, mask.shape());
        push_bits(out, mask);
    }

    /// Parses the two lines written by [`push_mask`].
    pub(super) fn parse_mask(cur: &mut LineCursor<'_>) -> Result<Mask, WireError> {
        let shape = parse_shape(cur)?;
        parse_bits(cur.next("mask bits")?, &shape)
    }

    /// Appends an observed slice as `shape` + `data` + `bits` lines (one
    /// shared shape; this is the ingest payload of the data plane). The
    /// `data` line carries the `|Ω|` observed values only, in ascending
    /// offset order: nothing reads a value at an unobserved entry.
    pub fn push_observed(out: &mut String, slice: &ObservedTensor) {
        push_shape(out, slice.shape());
        hexwire::push_f64s(out, "data", slice.observed_entries().map(|(_, v)| v));
        push_bits(out, slice.mask());
    }

    /// Parses the three lines written by [`push_observed`]: the `data`
    /// line must carry exactly one value per observed bit, and the
    /// values land in a zero tensor, whose element count is drawn from
    /// `budget`.
    pub fn parse_observed(
        cur: &mut LineCursor<'_>,
        budget: &mut DecodeBudget,
    ) -> Result<ObservedTensor, WireError> {
        let shape = parse_shape(cur)?;
        budget.take(shape.len())?;
        let data = hexwire::parse_f64s(cur.next("slice data")?, "data")?;
        let mask = parse_bits(cur.next("slice bits")?, &shape)?;
        if data.len() != mask.count_observed() {
            return Err(WireError::new(format!(
                "slice data carries {} values for {} observed entries",
                data.len(),
                mask.count_observed()
            )));
        }
        let mut values = DenseTensor::zeros(shape);
        for (&off, v) in mask.observed_offsets().iter().zip(data) {
            values.set_flat(off, v);
        }
        Ok(ObservedTensor::new(values, mask))
    }

    /// Appends an outlier list: `outliers <k>`, then the k ascending
    /// `offsets` and their `values`.
    fn push_outliers(out: &mut String, list: &SparseOutliers) {
        let _ = write!(out, "outliers {}\noffsets", list.entries.len());
        for &(off, _) in &list.entries {
            let _ = write!(out, " {off}");
        }
        out.push('\n');
        hexwire::push_f64s(out, "values", list.entries.iter().map(|&(_, v)| v));
    }

    /// Parses the outliers that follow a `shape`-shaped completed block:
    /// `outliers none`, or an outlier list whose offsets are strictly
    /// ascending, below the element count, and matched one to one by
    /// values. The dense outlier tensor draws on `budget`.
    fn parse_outliers(
        cur: &mut LineCursor<'_>,
        shape: &Shape,
        budget: &mut DecodeBudget,
    ) -> Result<Option<DenseTensor>, WireError> {
        let count = cur.field("outliers")?;
        if count == "none" {
            return Ok(None);
        }
        let k = parse_int(count, "outlier count")?;
        budget.take(shape.len())?;
        if k > shape.len() {
            return Err(WireError::new(format!(
                "{k} outliers in a {}-element slice",
                shape.len()
            )));
        }
        let offsets = parse_offsets(cur.next("outlier offsets")?, shape.len())?;
        if offsets.len() != k {
            return Err(WireError::new(format!(
                "outliers {k} lists {} offsets",
                offsets.len()
            )));
        }
        let values = hexwire::parse_f64s(cur.next("outlier values")?, "values")?;
        if values.len() != k {
            return Err(WireError::new(format!(
                "outliers {k} carries {} values",
                values.len()
            )));
        }
        let mut dense = DenseTensor::zeros(shape.clone());
        for (off, v) in offsets.into_iter().zip(values) {
            dense.set_flat(off, v);
        }
        Ok(Some(dense))
    }

    /// Parses an `offsets` line: decimal offsets, one space before each,
    /// every one canonical ([`parse_int`]), strictly ascending and
    /// below `len`.
    fn parse_offsets(line: &str, len: usize) -> Result<Vec<usize>, WireError> {
        let rest = line
            .strip_prefix("offsets")
            .ok_or_else(|| WireError::new(format!("expected `offsets`, got `{line}`")))?;
        if !rest.is_empty() && !rest.starts_with(' ') {
            return Err(WireError::new(format!("bad outlier offsets `{line}`")));
        }
        // Each offset takes at least two bytes of the line.
        let mut offsets = Vec::with_capacity(rest.len() / 2);
        let mut next = 0;
        for token in rest.split(' ').skip(1) {
            let off = parse_int(token, "outlier offset")?;
            if off < next || off >= len {
                return Err(WireError::new(format!(
                    "outlier offset {off} is out of order or past the {len}-element slice"
                )));
            }
            next = off + 1;
            offsets.push(off);
        }
        Ok(offsets)
    }

    /// Appends a step output: the completed tensor block (dense form)
    /// plus its outliers, listed so that every bit comes back.
    fn push_step_output(out: &mut String, step: &StepOutput) {
        push_tensor(out, &step.completed);
        match &step.outliers {
            Some(o) => push_outliers(out, &SparseOutliers::of(o)),
            None => out.push_str("outliers none\n"),
        }
    }

    /// Parses a step output's completed block (either form) and its
    /// outliers (which take the completed shape), both drawn from
    /// `budget`.
    fn parse_step_output(
        cur: &mut LineCursor<'_>,
        budget: &mut DecodeBudget,
    ) -> Result<StepOutput, WireError> {
        let completed = parse_tensor(cur, budget)?;
        let outliers = parse_outliers(cur, completed.shape(), budget)?;
        Ok(StepOutput {
            completed,
            outliers,
        })
    }

    /// Appends one named metric sketch: a `sketch <name>` header plus
    /// the summary's six wire lines ([`MetricSummary::push_wire`]).
    pub fn push_metric_sketch(out: &mut String, metric: MetricKind, summary: &MetricSummary) {
        out.push_str("sketch ");
        out.push_str(metric.name());
        out.push('\n');
        summary.push_wire(out);
    }

    /// Parses the sketch block that ends every stats record:
    ///
    /// ```text
    /// sketches <n>
    /// sketch <name>
    /// <six MetricSummary lines>
    /// …                      (n named sketches total)
    /// ```
    ///
    /// The block is required; a sketch it does not name parses as an
    /// empty summary. Unknown or duplicated sketch names are errors: the
    /// block is versioned by its names, not silently skipped.
    pub fn parse_sketch_block(
        cur: &mut LineCursor<'_>,
    ) -> Result<(MetricSummary, MetricSummary), WireError> {
        let mut ingest_latency = MetricSummary::new();
        let mut forecast_error = MetricSummary::new();
        let n: usize = parse_int(cur.field("sketches")?, "sketch count")?;
        if n > MetricKind::ALL.len() {
            return Err(WireError::new(format!(
                "stats block claims {n} sketches (max {})",
                MetricKind::ALL.len()
            )));
        }
        let mut seen = [false; MetricKind::ALL.len()];
        for _ in 0..n {
            let name = cur.field("sketch")?;
            let metric = MetricKind::from_name(name)
                .ok_or_else(|| WireError::new(format!("unknown sketch `{name}`")))?;
            let slot = MetricKind::ALL
                .iter()
                .position(|m| *m == metric)
                .expect("metric is in ALL");
            if seen[slot] {
                return Err(WireError::new(format!("duplicate sketch `{name}`")));
            }
            seen[slot] = true;
            let mut lines = [""; METRIC_WIRE_LINES];
            for line in &mut lines {
                *line = cur.next("metric sketch line")?;
            }
            let summary = MetricSummary::from_lines(lines)?;
            match metric {
                MetricKind::IngestLatency => ingest_latency = summary,
                MetricKind::ForecastError => forecast_error = summary,
            }
        }
        Ok((ingest_latency, forecast_error))
    }

    /// Appends per-stream stats as `key value` lines (the id is
    /// percent-encoded with the checkpoint-filename encoding), followed
    /// by the metric sketch block ([`parse_sketch_block`]).
    fn push_stream_stats(out: &mut String, stats: &StreamStats) {
        let _ = writeln!(out, "stream {}", encode_stream_id(&stats.stream));
        let _ = writeln!(out, "model {}", stats.model);
        let _ = writeln!(out, "shard {}", stats.shard);
        let _ = writeln!(out, "steps {}", stats.steps);
        let _ = writeln!(out, "queue-depth {}", stats.queue_depth);
        let _ = writeln!(out, "since-checkpoint {}", stats.steps_since_checkpoint);
        out.push_str("sketches 2\n");
        push_metric_sketch(out, MetricKind::IngestLatency, &stats.ingest_latency);
        push_metric_sketch(out, MetricKind::ForecastError, &stats.forecast_error);
    }

    /// Parses the per-stream stats block that a `stream-stats` response
    /// carries ([`QueryResponse::to_wire`]).
    pub fn parse_stream_stats(cur: &mut LineCursor<'_>) -> Result<StreamStats, WireError> {
        let stream = decode_stream_id(cur.field("stream")?)
            .ok_or_else(|| WireError::new("undecodable stream id"))?;
        let model = cur.field("model")?.to_string();
        let shard = parse_int(cur.field("shard")?, "shard")?;
        let steps = parse_int(cur.field("steps")?, "steps")?;
        let queue_depth = parse_int(cur.field("queue-depth")?, "queue depth")?;
        let steps_since_checkpoint =
            parse_int(cur.field("since-checkpoint")?, "checkpoint counter")?;
        let (ingest_latency, forecast_error) = parse_sketch_block(cur)?;
        Ok(StreamStats {
            stream,
            model,
            shard,
            steps,
            queue_depth,
            steps_since_checkpoint,
            ingest_latency,
            forecast_error,
        })
    }

    /// Appends one [`QueryResponse`] (kind header + payload). The block
    /// is self-delimiting: [`parse_response`] consumes exactly these
    /// lines, so responses concatenate (batched replies).
    pub(super) fn push_response(out: &mut String, resp: &QueryResponse) {
        match resp {
            QueryResponse::Latest(step) => match step {
                None => out.push_str("latest none\n"),
                Some(s) => {
                    out.push_str("latest some\n");
                    push_step_output(out, s);
                }
            },
            QueryResponse::Forecast(f) => match f {
                None => out.push_str("forecast none\n"),
                Some(t) => {
                    out.push_str("forecast some\n");
                    push_tensor(out, t);
                }
            },
            QueryResponse::OutlierMask(m) => match m {
                None => out.push_str("outlier-mask none\n"),
                Some(mask) => {
                    out.push_str("outlier-mask some\n");
                    push_mask(out, mask);
                }
            },
            QueryResponse::StreamStats(s) => {
                out.push_str("stream-stats\n");
                push_stream_stats(out, s);
            }
            QueryResponse::Quantile(v) => match v {
                None => out.push_str("quantile none\n"),
                Some(q) => {
                    out.push_str("quantile some\nvalue ");
                    hexwire::push_f64(out, *q);
                    out.push('\n');
                }
            },
        }
    }

    /// Appends one [`Answer`] as the block [`parse_response`] reads: a
    /// factored answer in the `kruskal` form, never densified on the way
    /// out; any other answer as [`QueryResponse::to_wire`] writes it.
    pub fn push_answer(out: &mut String, answer: &Answer) {
        match &answer.0 {
            AnswerForm::Dense(resp) => push_response(out, resp),
            AnswerForm::Latest {
                completed,
                outliers,
            } => {
                out.push_str("latest some\n");
                push_kruskal(out, completed);
                push_outliers(out, outliers);
            }
            AnswerForm::Forecast(forecast) => {
                out.push_str("forecast some\n");
                push_kruskal(out, forecast);
            }
        }
    }

    /// Parses one [`QueryResponse`] block written by
    /// [`QueryResponse::to_wire`] or [`push_answer`]; a factored answer
    /// comes back dense, with the bits [`Answer::into_response`] gives it.
    /// The block's tensors draw on `budget`, which the blocks of one
    /// frame share.
    pub fn parse_response(
        cur: &mut LineCursor<'_>,
        budget: &mut DecodeBudget,
    ) -> Result<QueryResponse, WireError> {
        let head = cur.next("response header")?;
        let mut parts = head.split_whitespace();
        let kind = parts.next().unwrap_or("");
        let presence = parts.next();
        if parts.next().is_some() {
            return Err(WireError::new(format!("trailing token in `{head}`")));
        }
        let some = match (kind, presence) {
            ("stream-stats", None) => {
                return Ok(QueryResponse::StreamStats(parse_stream_stats(cur)?))
            }
            (_, Some("some")) => true,
            (_, Some("none")) => false,
            _ => return Err(WireError::new(format!("bad response header `{head}`"))),
        };
        match kind {
            "latest" => Ok(QueryResponse::Latest(if some {
                Some(parse_step_output(cur, budget)?)
            } else {
                None
            })),
            "forecast" => Ok(QueryResponse::Forecast(if some {
                Some(parse_tensor(cur, budget)?)
            } else {
                None
            })),
            "outlier-mask" => Ok(QueryResponse::OutlierMask(if some {
                Some(parse_mask(cur)?)
            } else {
                None
            })),
            "quantile" => Ok(QueryResponse::Quantile(if some {
                let hex = cur.field("value")?;
                Some(
                    hexwire::parse_f64(hex)
                        .ok_or_else(|| WireError::new(format!("bad quantile value `{hex}`")))?,
                )
            } else {
                None
            })),
            other => Err(WireError::new(format!("unknown response kind `{other}`"))),
        }
    }

    /// One round-trip-capable line per [`FleetError`] variant, used by
    /// `err` replies. I/O and panic details survive as display strings —
    /// the *classification* round-trips exactly, the embedded
    /// `std::io::Error` does not (it comes back as
    /// `ErrorKind::Other`).
    impl FleetError {
        /// Serializes the error into its one-line wire form.
        pub fn to_wire(&self) -> String {
            match self {
                FleetError::UnknownStream(id) => {
                    format!("unknown-stream {}", encode_stream_id(id))
                }
                FleetError::DuplicateStream(id) => {
                    format!("duplicate-stream {}", encode_stream_id(id))
                }
                FleetError::ShuttingDown => "shutting-down".to_string(),
                FleetError::ModelPanicked { stream } => {
                    format!("model-panicked {}", encode_stream_id(stream))
                }
                FleetError::InvalidQuery { reason } => format!("invalid-query {reason}"),
                FleetError::Io(e) => format!("io {e}"),
                FleetError::Corrupt { stream, reason } => {
                    format!("corrupt {} {reason}", encode_stream_id(stream))
                }
                FleetError::StaleEpoch { epoch } => format!("stale-epoch {epoch}"),
            }
        }

        /// Parses the one-line wire form produced by
        /// [`FleetError::to_wire`].
        pub fn from_wire(line: &str) -> Result<FleetError, WireError> {
            let (head, rest) = match line.split_once(' ') {
                Some((h, r)) => (h, r),
                None => (line, ""),
            };
            let id =
                || decode_stream_id(rest).ok_or_else(|| WireError::new("undecodable stream id"));
            match head {
                "unknown-stream" => Ok(FleetError::UnknownStream(id()?)),
                "duplicate-stream" => Ok(FleetError::DuplicateStream(id()?)),
                "shutting-down" => Ok(FleetError::ShuttingDown),
                "model-panicked" => Ok(FleetError::ModelPanicked { stream: id()? }),
                "invalid-query" => Ok(FleetError::InvalidQuery {
                    reason: rest.to_string(),
                }),
                "io" => Ok(FleetError::Io(std::io::Error::other(rest.to_string()))),
                "corrupt" => {
                    let (stream, reason) = match rest.split_once(' ') {
                        Some((s, r)) => (s, r),
                        None => (rest, ""),
                    };
                    Ok(FleetError::Corrupt {
                        stream: decode_stream_id(stream)
                            .ok_or_else(|| WireError::new("undecodable stream id"))?,
                        reason: reason.to_string(),
                    })
                }
                "stale-epoch" => Ok(FleetError::StaleEpoch {
                    epoch: parse_int(rest, "epoch")?,
                }),
                other => Err(WireError::new(format!("unknown error code `{other}`"))),
            }
        }
    }

    impl Query {
        /// Alias of [`Query::from_wire`] returning the transport error
        /// type, so frame parsers surface one error kind.
        pub fn from_wire_line(line: &str) -> Result<Query, WireError> {
            Query::from_wire(line).map_err(|e| WireError::new(e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sofia_sketch::MetricSummary;
    use sofia_tensor::ObservedTensor;

    #[test]
    fn wire_round_trips_every_kind() {
        let queries = [
            Query::Latest,
            Query::Forecast { horizon: 12 },
            Query::OutlierMask,
            Query::StreamStats,
            Query::Quantile {
                metric: MetricKind::IngestLatency,
                q: 0.99,
            },
            Query::Quantile {
                metric: MetricKind::ForecastError,
                q: 0.5,
            },
        ];
        for q in queries {
            let line = q.to_wire();
            assert_eq!(Query::from_wire(&line).unwrap(), q, "wire `{line}`");
        }
    }

    #[test]
    fn quantile_query_accepts_decimal_and_hex_q() {
        // `to_wire` emits the 16-hex-digit bit pattern; a hand-written
        // client may send a plain decimal instead.
        let hex = Query::from_wire(&format!(
            "quantile ingest-latency {:016x}",
            0.99f64.to_bits()
        ))
        .unwrap();
        let dec = Query::from_wire("quantile ingest-latency 0.99").unwrap();
        assert_eq!(hex, dec);
        assert!(hex.validate().is_ok());
        // Parse/validate split: NaN and out-of-range q parse but fail
        // validation; a bad metric or missing q fails the parse.
        for line in [
            "quantile forecast-error 1.5",
            "quantile forecast-error -0.25",
            &format!("quantile forecast-error {:016x}", f64::NAN.to_bits()),
        ] {
            let q = Query::from_wire(line).unwrap();
            assert!(
                matches!(q.validate(), Err(FleetError::InvalidQuery { .. })),
                "{line}"
            );
        }
        for line in [
            "quantile",
            "quantile latency 0.99",
            "quantile ingest-latency",
            "quantile ingest-latency x",
            "quantile ingest-latency 0.99 extra",
            // Only 16 lowercase hex digits read as a bit pattern; any
            // other token takes the decimal path.
            "quantile ingest-latency 3FEFAE147AE147AE",
        ] {
            assert!(Query::from_wire(line).is_err(), "{line}");
        }
    }

    #[test]
    fn wire_rejects_malformed_lines() {
        for line in [
            "",
            "  ",
            "foo",
            "forecast",
            "forecast x",
            "forecast -3",
            "latest 1",
            "forecast 1 2",
        ] {
            assert!(
                matches!(Query::from_wire(line), Err(FleetError::InvalidQuery { .. })),
                "line `{line}` should not parse"
            );
        }
    }

    /// The horizon takes the wire's one integer spelling.
    #[test]
    fn forecast_horizon_takes_one_spelling() {
        assert_eq!(
            Query::from_wire("forecast 4").unwrap(),
            Query::Forecast { horizon: 4 }
        );
        for line in ["forecast +4", "forecast 04"] {
            assert!(Query::from_wire(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn zero_horizon_parses_but_fails_validation() {
        // Transport and semantics fail distinctly: `forecast 0` is a
        // well-formed line carrying an unanswerable request.
        let q = Query::from_wire("forecast 0").unwrap();
        assert_eq!(q, Query::Forecast { horizon: 0 });
        assert!(matches!(q.validate(), Err(FleetError::InvalidQuery { .. })));
        assert!(Query::Forecast { horizon: 1 }.validate().is_ok());
        assert!(Query::Latest.validate().is_ok());
    }

    fn sample_responses() -> Vec<QueryResponse> {
        let t = DenseTensor::from_vec(
            Shape::new(&[2, 3]),
            vec![1.5, -0.0, f64::INFINITY, 2.0f64.powi(-1030), 3.25, -9.5e300],
        );
        let mask = Mask::from_vec(
            Shape::new(&[2, 3]),
            vec![true, false, true, true, false, false],
        );
        let mut latency = MetricSummary::new();
        let mut drift = MetricSummary::new();
        for i in 0..250 {
            latency.observe(80.0 + (i as f64).sin().abs() * 900.0);
            drift.observe(2.0f64.powi(-(i % 40)) * if i % 7 == 0 { -0.0 } else { 1.0 });
        }
        vec![
            QueryResponse::Latest(None),
            QueryResponse::Latest(Some(StepOutput {
                completed: t.clone(),
                outliers: None,
            })),
            QueryResponse::Latest(Some(StepOutput {
                completed: t.clone(),
                outliers: Some(t.map(|v| v * 0.5)),
            })),
            QueryResponse::Forecast(None),
            QueryResponse::Forecast(Some(t)),
            QueryResponse::OutlierMask(None),
            QueryResponse::OutlierMask(Some(mask)),
            QueryResponse::StreamStats(StreamStats {
                stream: "sensor net/α-7".to_string(),
                model: "SOFIA".to_string(),
                shard: 3,
                steps: 17,
                queue_depth: 2,
                steps_since_checkpoint: 5,
                ingest_latency: latency,
                forecast_error: drift,
            }),
            QueryResponse::StreamStats(StreamStats {
                stream: String::new(),
                model: "echo".to_string(),
                shard: 0,
                steps: 0,
                queue_depth: 0,
                steps_since_checkpoint: 0,
                ingest_latency: MetricSummary::new(),
                forecast_error: MetricSummary::new(),
            }),
            QueryResponse::Quantile(None),
            QueryResponse::Quantile(Some(987.654321)),
            QueryResponse::Quantile(Some(-0.0)),
            QueryResponse::Quantile(Some(2.0f64.powi(-1040))),
        ]
    }

    /// Structural equality for the round-trip assertions (bit-exact on
    /// floats; `QueryResponse` itself has no `PartialEq` because tensors
    /// compare bit-wise only on purpose here).
    fn assert_same(a: &QueryResponse, b: &QueryResponse) {
        let bits = |t: &DenseTensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        match (a, b) {
            (QueryResponse::Latest(None), QueryResponse::Latest(None)) => {}
            (QueryResponse::Latest(Some(x)), QueryResponse::Latest(Some(y))) => {
                assert_eq!(x.completed.shape().dims(), y.completed.shape().dims());
                assert_eq!(bits(&x.completed), bits(&y.completed));
                match (&x.outliers, &y.outliers) {
                    (None, None) => {}
                    (Some(xo), Some(yo)) => assert_eq!(bits(xo), bits(yo)),
                    _ => panic!("outlier presence diverged"),
                }
            }
            (QueryResponse::Forecast(None), QueryResponse::Forecast(None)) => {}
            (QueryResponse::Forecast(Some(x)), QueryResponse::Forecast(Some(y))) => {
                assert_eq!(x.shape().dims(), y.shape().dims());
                assert_eq!(bits(x), bits(y));
            }
            (QueryResponse::OutlierMask(None), QueryResponse::OutlierMask(None)) => {}
            (QueryResponse::OutlierMask(Some(x)), QueryResponse::OutlierMask(Some(y))) => {
                assert_eq!(x.shape().dims(), y.shape().dims());
                let obs = |m: &Mask| {
                    (0..m.shape().len())
                        .map(|i| m.is_observed_flat(i))
                        .collect::<Vec<_>>()
                };
                assert_eq!(obs(x), obs(y));
            }
            (QueryResponse::StreamStats(x), QueryResponse::StreamStats(y)) => {
                assert_eq!(x.stream, y.stream);
                assert_eq!(x.model, y.model);
                assert_eq!(x.shard, y.shard);
                assert_eq!(x.steps, y.steps);
                assert_eq!(x.queue_depth, y.queue_depth);
                assert_eq!(x.steps_since_checkpoint, y.steps_since_checkpoint);
                // Emission compresses a digest's pending buffer, so the
                // in-memory structs may differ; the wire form is the
                // canonical bit pattern and must match exactly.
                let sketch_wire = |m: &MetricSummary| {
                    let mut s = String::new();
                    m.push_wire(&mut s);
                    s
                };
                assert_eq!(
                    sketch_wire(&x.ingest_latency),
                    sketch_wire(&y.ingest_latency)
                );
                assert_eq!(
                    sketch_wire(&x.forecast_error),
                    sketch_wire(&y.forecast_error)
                );
            }
            (QueryResponse::Quantile(x), QueryResponse::Quantile(y)) => {
                assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits));
            }
            (a, b) => panic!("variant diverged: {:?} vs {:?}", a.kind(), b.kind()),
        }
    }

    #[test]
    fn response_wire_round_trips_bit_exactly() {
        for resp in sample_responses() {
            let text = resp.to_wire();
            let back =
                QueryResponse::from_wire(&text).unwrap_or_else(|e| panic!("{e} parsing:\n{text}"));
            assert_same(&resp, &back);
        }
    }

    #[test]
    fn observed_slice_wire_round_trips() {
        let slice = ObservedTensor::new(
            DenseTensor::from_vec(Shape::new(&[2, 2]), vec![1.0, -2.5, 0.0, 4.0]),
            Mask::from_vec(Shape::new(&[2, 2]), vec![true, true, false, true]),
        );
        let mut out = String::new();
        wire::push_observed(&mut out, &slice);
        assert_eq!(
            out, "shape 2 2\ndata 3ff0000000000000 c004000000000000 4010000000000000\nbits 1101\n",
            "the data line carries the observed values only"
        );
        let mut cur = wire::LineCursor::new(&out);
        let back = wire::parse_observed(&mut cur, &mut wire::DecodeBudget::new(4)).expect("parse");
        cur.finish().expect("no trailing lines");
        assert_eq!(back.values().data(), slice.values().data());
        assert_eq!(back.count_observed(), 3);
    }

    /// A fully observed slice keeps the frame it had when every slice
    /// carried a value per entry.
    #[test]
    fn fully_observed_slice_frame_is_the_dense_form() {
        let values = DenseTensor::from_vec(
            Shape::new(&[2, 3]),
            vec![1.5, -0.0, 2.0f64.powi(-1030), 3.25, -9.5e300, 0.0],
        );
        let mut dense = String::from("shape 2 3\n");
        hexwire::push_f64s(&mut dense, "data", values.data().iter().copied());
        dense.push_str("bits 111111\n");
        let mut out = String::new();
        wire::push_observed(&mut out, &ObservedTensor::fully_observed(values));
        assert_eq!(out, dense);
    }

    /// A value that stresses bit-identity — a signed zero, a subnormal,
    /// a huge magnitude, an infinity or NaN — or else a uniform one.
    fn stress_value(rng: &mut SmallRng) -> f64 {
        const POOL: [f64; 9] = [
            0.0,
            -0.0,
            5e-324,
            -2.2e-310,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        if rng.gen_bool(0.2) {
            POOL[rng.gen_range(0..POOL.len())]
        } else {
            rng.gen_range(-2.0..2.0)
        }
    }

    fn bits(t: &DenseTensor) -> Vec<u64> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// An outlier tensor's −0.0 and NaN entries survive the list form
    /// bit for bit, and the mask flags exactly the entries `!= 0.0`.
    #[test]
    fn outlier_list_round_trips_negative_zero_and_nan() {
        let payload_nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let outliers = DenseTensor::from_vec(
            Shape::new(&[2, 3]),
            vec![0.0, -0.0, f64::NAN, 0.0, payload_nan, -3.5],
        );
        let latest = QueryResponse::Latest(Some(StepOutput {
            completed: DenseTensor::full(Shape::new(&[2, 3]), 1.0),
            outliers: Some(outliers.clone()),
        }));
        let text = latest.to_wire();
        assert!(
            text.contains("\noutliers 4\noffsets 1 2 4 5\nvalues "),
            "{text}"
        );
        let step = QueryResponse::from_wire(&text)
            .expect("parse")
            .expect_latest()
            .expect("some");
        assert_eq!(bits(&step.outliers.expect("outliers")), bits(&outliers));
        let mask = SparseOutliers::of(&outliers).mask();
        let flagged: Vec<bool> = (0..6).map(|i| mask.is_observed_flat(i)).collect();
        assert_eq!(flagged, [false, false, true, false, true, true]);
    }

    /// The byte-level example in WIRE.md: a rank-2 2×3 slice in Kruskal
    /// form, as a forecast and as a latest step with two outliers, and
    /// the dense slice it rebuilds to.
    #[test]
    fn kruskal_reply_forms_are_pinned() {
        let factors = vec![
            Matrix::from_rows(&[&[1.0, 0.5], &[2.0, -1.0]]),
            Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 1.0], &[0.0, 2.0]]),
        ];
        let block = "shape 2 3\nkruskal 2\n\
            factor 3ff0000000000000 3fe0000000000000 4000000000000000 bff0000000000000\n\
            factor 3ff0000000000000 0000000000000000 3fe0000000000000 3ff0000000000000 \
            0000000000000000 4000000000000000\n\
            weights 4000000000000000 4010000000000000\n";
        let slice = KruskalSlice::new(factors, vec![2.0, 4.0]);
        let mut text = String::new();
        wire::push_answer(&mut text, &Answer::forecast(slice.clone()));
        assert_eq!(text, format!("forecast some\n{block}"));
        let dense = QueryResponse::from_wire(&text)
            .expect("parse")
            .expect_forecast()
            .expect("some");
        assert_eq!(dense.data(), &[2.0, 3.0, 4.0, 4.0, -2.0, -8.0]);
        assert_eq!(
            QueryResponse::Forecast(Some(dense)).to_wire(),
            "forecast some\nshape 2 3\ndata 4000000000000000 4008000000000000 \
             4010000000000000 4010000000000000 c000000000000000 c020000000000000\n"
        );

        let outliers =
            DenseTensor::from_vec(Shape::new(&[2, 3]), vec![0.0, 7.5, 0.0, 0.0, -12.0, 0.0]);
        let mut text = String::new();
        wire::push_answer(
            &mut text,
            &Answer::latest(slice, SparseOutliers::of(&outliers)),
        );
        assert_eq!(
            text,
            format!(
                "latest some\n{block}outliers 2\noffsets 1 4\n\
                 values 401e000000000000 c028000000000000\n"
            )
        );
    }

    /// The one bound the encoder and the decoder share: R = 64 at the
    /// largest wire shape, overflow refused. (A slice over it is written
    /// densely; its rebuild alone is 2^28 multiply-adds, too slow for an
    /// unoptimized test build.)
    #[test]
    fn kruskal_bound_admits_rank_64_at_the_largest_shape() {
        assert!(wire::kruskal_fits(wire::MAX_WIRE_ELEMS, 64));
        assert!(!wire::kruskal_fits(wire::MAX_WIRE_ELEMS, 65));
        assert!(wire::kruskal_fits(265 * 265, 3822));
        assert!(!wire::kruskal_fits(usize::MAX, 2));
    }

    /// A `kruskal` block and an outlier list stand for tensors far larger
    /// than their lines; every tensor a frame decodes to draws on the
    /// frame's one budget, checked before anything is allocated.
    #[test]
    fn decoded_tensors_draw_on_one_budget_per_frame() {
        // 192 factor values and an empty outlier list that stand for two
        // 4Mi-element tensors, 64 MiB of floats.
        let mut huge = String::from("latest some\nshape 32 32 64 64\nkruskal 1\n");
        for rows in [32, 32, 64, 64] {
            hexwire::push_f64s(&mut huge, "factor", (0..rows).map(|_| 1.0));
        }
        huge.push_str("weights 3ff0000000000000\noutliers 0\noffsets\nvalues\n");
        let mut budget = wire::DecodeBudget::for_frame(32 << 20);
        let err = wire::parse_response(&mut wire::LineCursor::new(&huge), &mut budget)
            .expect_err("refused before the rebuild");
        assert!(err.reason.contains("decode budget"), "{err}");

        // A 10-element completed slice plus its outlier tensor is 20
        // elements: 19 refuse it at the outlier list, 20 admit it, and a
        // second reply in the same frame finds the budget spent.
        let reply = "latest some\nshape 10\nkruskal 1\n\
                     factor 3ff0000000000000 3ff0000000000000 3ff0000000000000 \
                     3ff0000000000000 3ff0000000000000 3ff0000000000000 3ff0000000000000 \
                     3ff0000000000000 3ff0000000000000 3ff0000000000000\n\
                     weights 4000000000000000\noutliers 0\noffsets\nvalues\n";
        let mut short = wire::DecodeBudget::new(19);
        assert!(wire::parse_response(&mut wire::LineCursor::new(reply), &mut short).is_err());
        let frame = format!("{reply}{reply}");
        let mut cur = wire::LineCursor::new(&frame);
        let mut budget = wire::DecodeBudget::new(20);
        let QueryResponse::Latest(Some(step)) =
            wire::parse_response(&mut cur, &mut budget).expect("within budget")
        else {
            panic!("a latest reply");
        };
        assert_eq!(step.completed.data(), &[2.0; 10]);
        assert!(wire::parse_response(&mut cur, &mut budget).is_err());

        // An observed slice's zero tensor draws on the budget too: bits
        // alone stand for eight bytes of floats each.
        let slice = "shape 2 3\ndata\nbits 000000\n";
        let mut cur = wire::LineCursor::new(slice);
        assert!(wire::parse_observed(&mut cur, &mut wire::DecodeBudget::new(5)).is_err());
        let mut cur = wire::LineCursor::new(slice);
        wire::parse_observed(&mut cur, &mut wire::DecodeBudget::new(6)).expect("within budget");
    }

    #[test]
    fn response_wire_rejects_malformed_never_panics() {
        let cases = [
            "",
            "latest",
            "latest maybe",
            "latest some",
            "latest some\nshape 2 2\ndata 3ff0000000000000",
            "forecast some\nshape 0\ndata 0",
            "forecast some\nshape\ndata 0",
            "forecast some\nshape 4294967295 4294967295 4294967295\ndata 0",
            "forecast some\nshape 2\ndata zz zz",
            "forecast some\nshape 1\ndata 3ff0000000000000\ntrailing",
            "outlier-mask some\nshape 2\nbits 012",
            "outlier-mask some\nshape 3\nbits 01",
            "stream-stats\nstream ok\nmodel m\nshard x\nsteps 1\nqueue-depth 0\nsince-checkpoint 0",
            "stream-stats\nstream %zz\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nsince-checkpoint 0",
            // Sketch block present but structurally broken: bad count,
            // unknown metric name, duplicate metric, truncated summary.
            "stream-stats\nstream s\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nsince-checkpoint 0\nsketches 9",
            "stream-stats\nstream s\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nsince-checkpoint 0\nsketches x",
            "stream-stats\nstream s\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nsince-checkpoint 0\nsketches 1\nsketch bogus-metric\ntdigest 0\ntmeans\ntweights\ntrange 7ff8000000000000 7ff8000000000000\nmoments 0\nmstate 7ff8000000000000 7ff8000000000000 0000000000000000 0000000000000000",
            "stream-stats\nstream s\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nsince-checkpoint 0\nsketches 2\nsketch ingest-latency\ntdigest 0\ntmeans\ntweights\ntrange 7ff8000000000000 7ff8000000000000\nmoments 0\nmstate 7ff8000000000000 7ff8000000000000 0000000000000000 0000000000000000\nsketch ingest-latency\ntdigest 0\ntmeans\ntweights\ntrange 7ff8000000000000 7ff8000000000000\nmoments 0\nmstate 7ff8000000000000 7ff8000000000000 0000000000000000 0000000000000000",
            "stream-stats\nstream s\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nsince-checkpoint 0\nsketches 1\nsketch ingest-latency\ntdigest 0",
            // Forms the encoder no longer emits: a record with no
            // `sketches` block (the pre-sketch reply, with and without
            // its `latency` line) and a full record that still carries
            // the retired `latency` line.
            "stream-stats\nstream s\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nlatency 3ff0000000000000\nsince-checkpoint 0",
            "stream-stats\nstream s\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nsince-checkpoint 0",
            "stream-stats\nstream s\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nlatency none\nsince-checkpoint 0\nsketches 0",
            // Quantile responses with a broken payload.
            "quantile",
            "quantile maybe",
            "quantile some",
            "quantile some\nvalue",
            "quantile some\nvalue zz",
            "quantile some\nvalue 3ff0000000000000 extra",
            "latest some extra",
            "bogus some",
            // One case per float form the decoder used to accept and no
            // writer emits: a sign, an uppercase digit, a short or a
            // zero-padded long token, two spaces or a tab between
            // tokens, and trailing whitespace.
            "forecast some\nshape 1\ndata +3ff000000000000",
            "forecast some\nshape 1\ndata 3FF0000000000000",
            "forecast some\nshape 1\ndata 3ff000000000000",
            "forecast some\nshape 1\ndata 03ff0000000000000",
            "forecast some\nshape 2\ndata 3ff0000000000000  3ff0000000000000",
            "forecast some\nshape 2\ndata 3ff0000000000000\t3ff0000000000000",
            "forecast some\nshape 1\ndata 3ff0000000000000 ",
            "latest some\nshape 1\ndata 3ff0000000000000\noutliers 1\noffsets 0\nvalues 3fF0000000000000",
            "quantile some\nvalue +3ff000000000000",
            "quantile some\nvalue 3FF0000000000000",
            "quantile some\nvalue 3ff000000000000",
            "quantile some\nvalue 03ff0000000000000",
            // The retired dense outlier form, well-formed as it was.
            "latest some\nshape 1\ndata 3ff0000000000000\noutliers some\ndata 3ff0000000000000",
            // Kruskal blocks: a zero, missing or bad rank; a factor line
            // one value short and one value long; a `weights` count that
            // is not R; elements × R over the bound (refused from the
            // header lines alone); a truncated block.
            "forecast some\nshape 2\nkruskal 0\nfactor\nweights",
            "forecast some\nshape 2\nkruskal\nfactor\nweights",
            "forecast some\nshape 2\nkruskal x\nfactor\nweights",
            "forecast some\nshape 2\nkruskal -1\nfactor\nweights",
            "forecast some\nshape 1\nkruskal +1\nfactor 3ff0000000000000\nweights 3ff0000000000000",
            "forecast some\nshape 1\nkruskal 01\nfactor 3ff0000000000000\nweights 3ff0000000000000",
            "forecast some\nshape 2\nkruskal 1\nfactor 3ff0000000000000\nweights 3ff0000000000000",
            "forecast some\nshape 1\nkruskal 1\nfactor 3ff0000000000000 3ff0000000000000\nweights 3ff0000000000000",
            "forecast some\nshape 1 2\nkruskal 1\nfactor 3ff0000000000000\nfactor 3ff0000000000000\nweights 3ff0000000000000",
            "forecast some\nshape 1\nkruskal 1\nfactor 3ff0000000000000\nweights",
            "forecast some\nshape 1\nkruskal 1\nfactor 3ff0000000000000\nweights 3ff0000000000000 3ff0000000000000",
            "forecast some\nshape 1\nkruskal 2\nfactor 3ff0000000000000 3ff0000000000000\nweights 3ff0000000000000",
            "forecast some\nshape 2048 2048\nkruskal 65\nfactor\nfactor\nweights",
            "forecast some\nshape 1\nkruskal 18446744073709551615\nfactor\nweights",
            "forecast some\nshape 1\nkruskal 1\nfactor 3ff0000000000000",
            "forecast some\nshape 1\nkruskal 1\nweights 3ff0000000000000",
            "latest some\nshape 1\nkruskal 1\nfactor 3ff0000000000000\nweights 3ff0000000000000",
            // Outlier lists: unsorted, duplicate and out-of-range
            // offsets; an offset count and a value count that differ from
            // the header's; more outliers than elements; a truncated list.
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers 2\noffsets 2 1\nvalues 3ff0000000000000 3ff0000000000000",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers 2\noffsets 1 1\nvalues 3ff0000000000000 3ff0000000000000",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers 1\noffsets 3\nvalues 3ff0000000000000",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers 2\noffsets 0 1\nvalues 3ff0000000000000",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers 2\noffsets 0\nvalues 3ff0000000000000 3ff0000000000000",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers 1\noffsets 0 1\nvalues 3ff0000000000000 3ff0000000000000",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers 4\noffsets 0 1 2 3\nvalues 3ff0000000000000 3ff0000000000000 3ff0000000000000 3ff0000000000000",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers 1\noffsets x\nvalues 3ff0000000000000",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers 1\noffsets +1\nvalues 3ff0000000000000",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers 1\noffsets 01\nvalues 3ff0000000000000",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers 2\noffsets 0  1\nvalues 3ff0000000000000 3ff0000000000000",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers 1\noffsets 1 \nvalues 3ff0000000000000",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers 1\noffsets1\nvalues 3ff0000000000000",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers 1\noffsets 0",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers x",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers 01\noffsets 1\nvalues 3ff0000000000000",
            "latest some\nshape 3\ndata 0000000000000000 0000000000000000 0000000000000000\noutliers +1\noffsets 1\nvalues 3ff0000000000000",
        ];
        for case in cases {
            assert!(
                QueryResponse::from_wire(case).is_err(),
                "should reject:\n{case}"
            );
        }
        // Every integer admits one spelling: no sign, no leading zero.
        // Each case respells one integer of a valid reply.
        let forecast =
            QueryResponse::Forecast(Some(DenseTensor::full(Shape::new(&[1]), 1.0))).to_wire();
        let mut latency = MetricSummary::new();
        for v in [1.0, 2.0, 4.0] {
            latency.observe(v);
        }
        let stats = QueryResponse::StreamStats(StreamStats {
            stream: "s".to_string(),
            model: "SOFIA".to_string(),
            shard: 1,
            steps: 3,
            queue_depth: 0,
            steps_since_checkpoint: 2,
            ingest_latency: latency,
            forecast_error: MetricSummary::new(),
        })
        .to_wire();
        let respelled = [
            (&forecast, "shape 1\n", "shape +1\n"),
            (&forecast, "shape 1\n", "shape 01\n"),
            (&stats, "steps 3\n", "steps +3\n"),
            (&stats, "shard 1\n", "shard 01\n"),
            (&stats, "queue-depth 0\n", "queue-depth 00\n"),
            (&stats, "since-checkpoint 2\n", "since-checkpoint +2\n"),
            (&stats, "sketches 2\n", "sketches 02\n"),
            (&stats, "moments 3\n", "moments +3\n"),
            (&stats, "moments 3\n", "moments 03\n"),
            (&stats, "tdigest 3\n", "tdigest +3\n"),
            (&stats, "tdigest 3\n", "tdigest 03\n"),
        ];
        for (valid, from, to) in respelled {
            assert!(
                QueryResponse::from_wire(valid).is_ok(),
                "should accept:\n{valid}"
            );
            let case = valid.replacen(from, to, 1);
            assert_ne!(&case, valid);
            assert!(
                QueryResponse::from_wire(&case).is_err(),
                "should reject:\n{case}"
            );
        }
    }

    /// A `bits` line is checked byte by byte in one pass: a bad byte is
    /// refused wherever it sits — either side of a 64-byte boundary, at
    /// the ends, or as a multibyte character — and named in the error.
    #[test]
    fn bad_mask_bits_are_refused_at_every_position() {
        let len = 130;
        for at in [0, 63, 64, 65, len - 1] {
            for bad in ["2", "x", " ", "é"] {
                let mut bits = "01".repeat(len / 2);
                bits.replace_range(at..at + 1, bad);
                let text = format!("shape {len}\nbits {bits}");
                let err =
                    wire::parse_mask(&mut wire::LineCursor::new(&text)).expect_err("a bad byte");
                assert_eq!(err.reason, format!("bad mask bit `{bad}`"), "at {at}");
            }
        }
        // After a multibyte character the line is no longer one byte
        // per entry; the character is still what the error names.
        let bits = format!("{}€{}", "1".repeat(70), "0".repeat(57));
        let text = format!("shape 130\nbits {bits}");
        let err = wire::parse_mask(&mut wire::LineCursor::new(&text)).expect_err("a bad char");
        assert_eq!(err.reason, "bad mask bit `€`");
        // A good line of the wrong length keeps its own message.
        let err = wire::parse_mask(&mut wire::LineCursor::new("shape 3\nbits 01")).unwrap_err();
        assert_eq!(err.reason, "mask carries 2 bits for a 3-element shape");
    }

    mod roundtrip_property {
        //! The acceptance property: any tensor payload — arbitrary bit
        //! patterns, so NaNs, infinities, subnormals, negative zero —
        //! survives the wire byte-for-byte.
        use super::*;
        use proptest::prelude::*;

        fn assert_bits(a: &DenseTensor, b: &DenseTensor) {
            assert_eq!(a.shape().dims(), b.shape().dims());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            #[test]
            fn forecast_and_latest_round_trip_any_bit_pattern(
                bits in prop::collection::vec(0u64..u64::MAX, 1..24)
            ) {
                // The vendored proptest has no bool strategy; derive the
                // outlier toggle from the drawn data instead.
                let with_outliers = bits.len().is_multiple_of(2);
                let data: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
                let t = DenseTensor::from_vec(Shape::new(&[data.len()]), data);

                let forecast = QueryResponse::Forecast(Some(t.clone()));
                let back = QueryResponse::from_wire(&forecast.to_wire()).expect("parse");
                let QueryResponse::Forecast(Some(bt)) = back else {
                    panic!("variant survived");
                };
                assert_bits(&t, &bt);

                let latest = QueryResponse::Latest(Some(StepOutput {
                    completed: t.clone(),
                    outliers: with_outliers.then(|| t.map(|v| -v)),
                }));
                let back = QueryResponse::from_wire(&latest.to_wire()).expect("parse");
                let QueryResponse::Latest(Some(step)) = back else {
                    panic!("variant survived");
                };
                assert_bits(&t, &step.completed);
                assert_eq!(step.outliers.is_some(), with_outliers);
                if let Some(o) = &step.outliers {
                    assert_bits(&t.map(|v| -v), o);
                }
            }

            /// Random shapes, masks and values (with ±0.0, subnormals,
            /// ±∞ and NaN at unobserved entries) come back as the same
            /// slice, and the `data` line holds one token per observed
            /// entry.
            #[test]
            fn observed_slices_round_trip_with_one_value_per_observed_entry(
                seed in 0u64..u64::MAX
            ) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let dims: Vec<usize> = (0..rng.gen_range(1..=3))
                    .map(|_| rng.gen_range(1..=6))
                    .collect();
                let shape = Shape::new(&dims);
                let observed: Vec<bool> = (0..shape.len()).map(|_| rng.gen_bool(0.5)).collect();
                let mask = Mask::from_vec(shape.clone(), observed);
                let values = DenseTensor::from_vec(
                    shape.clone(),
                    (0..shape.len()).map(|_| stress_value(&mut rng)).collect(),
                );
                let slice = ObservedTensor::new(values, mask);
                let mut text = String::new();
                wire::push_observed(&mut text, &slice);
                let data = text.lines().nth(1).expect("data line");
                prop_assert_eq!(data.split(' ').count() - 1, slice.count_observed());
                let mut cur = wire::LineCursor::new(&text);
                let mut budget = wire::DecodeBudget::new(shape.len());
                let back = wire::parse_observed(&mut cur, &mut budget).expect("parse");
                cur.finish().expect("no trailing lines");
                prop_assert_eq!(back.mask(), slice.mask());
                prop_assert_eq!(bits(back.values()), bits(slice.values()));
            }

            /// A random Kruskal answer decodes to `kruskal_slice`'s bits,
            /// over the wire and through `Answer::into_response` alike.
            #[test]
            fn kruskal_blocks_decode_to_the_kernels_bits(seed in 0u64..u64::MAX) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let r = rng.gen_range(1..=5);
                let factors: Vec<Matrix> = (0..rng.gen_range(1..=3))
                    .map(|_| {
                        Matrix::from_fn(rng.gen_range(1..=6), r, |_, _| stress_value(&mut rng))
                    })
                    .collect();
                let weights: Vec<f64> = (0..r).map(|_| stress_value(&mut rng)).collect();
                let refs: Vec<&Matrix> = factors.iter().collect();
                let want = sofia_tensor::kruskal::kruskal_slice(&refs, &weights);
                let outliers = want.map(|_| {
                    if rng.gen_bool(0.3) { stress_value(&mut rng) } else { 0.0 }
                });
                let slice = KruskalSlice::new(factors.clone(), weights.clone());
                let answers = [
                    Answer::forecast(slice.clone()),
                    Answer::latest(slice, SparseOutliers::of(&outliers)),
                ];
                for answer in answers {
                    let mut text = String::new();
                    wire::push_answer(&mut text, &answer);
                    prop_assert!(text.contains(&format!("\nkruskal {r}\n")));
                    let wired = QueryResponse::from_wire(&text).expect("parse");
                    for resp in [wired, answer.into_response()] {
                        let (completed, listed) = match resp {
                            QueryResponse::Forecast(Some(f)) => (f, None),
                            QueryResponse::Latest(Some(step)) => (step.completed, step.outliers),
                            other => panic!("unexpected {:?}", other.kind()),
                        };
                        prop_assert_eq!(bits(&completed), bits(&want));
                        if let Some(o) = listed {
                            prop_assert_eq!(bits(&o), bits(&outliers));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fleet_error_wire_round_trips_classification() {
        let errors = [
            FleetError::UnknownStream("a b/c".into()),
            FleetError::DuplicateStream("x".into()),
            FleetError::ShuttingDown,
            FleetError::ModelPanicked { stream: "s".into() },
            FleetError::InvalidQuery {
                reason: "forecast horizon must be at least 1 (got 0)".into(),
            },
            FleetError::Io(std::io::Error::other("disk on fire")),
            FleetError::Corrupt {
                stream: "s/1".into(),
                reason: "bad header".into(),
            },
            FleetError::StaleEpoch { epoch: u64::MAX },
        ];
        for e in errors {
            let line = e.to_wire();
            let back = FleetError::from_wire(&line).unwrap_or_else(|w| panic!("{w}: `{line}`"));
            assert_eq!(
                std::mem::discriminant(&e),
                std::mem::discriminant(&back),
                "`{line}`"
            );
            match (&e, &back) {
                (FleetError::UnknownStream(a), FleetError::UnknownStream(b)) => assert_eq!(a, b),
                (
                    FleetError::InvalidQuery { reason: a },
                    FleetError::InvalidQuery { reason: b },
                ) => {
                    assert_eq!(a, b)
                }
                (
                    FleetError::Corrupt {
                        stream: a,
                        reason: ra,
                    },
                    FleetError::Corrupt {
                        stream: b,
                        reason: rb,
                    },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(ra, rb);
                }
                (FleetError::StaleEpoch { epoch: a }, FleetError::StaleEpoch { epoch: b }) => {
                    assert_eq!(a, b)
                }
                _ => {}
            }
        }
        assert!(FleetError::from_wire("not-an-error").is_err());
        assert!(FleetError::from_wire("").is_err());
        assert!(FleetError::from_wire("stale-epoch").is_err());
        assert!(FleetError::from_wire("stale-epoch x").is_err());
        assert!(FleetError::from_wire("stale-epoch 3").is_ok());
        assert!(FleetError::from_wire("stale-epoch +3").is_err());
        assert!(FleetError::from_wire("stale-epoch 03").is_err());
        assert!(FleetError::from_wire("lease-expired 3").is_err());
    }

    #[test]
    fn kinds_line_up() {
        assert_eq!(Query::Latest.kind(), QueryKind::Latest);
        assert_eq!(Query::Forecast { horizon: 3 }.kind(), QueryKind::Forecast);
        assert_eq!(Query::OutlierMask.kind(), QueryKind::OutlierMask);
        assert_eq!(Query::StreamStats.kind(), QueryKind::StreamStats);
        for kind in QueryKind::ALL {
            assert!(!kind.name().is_empty());
        }
    }
}
