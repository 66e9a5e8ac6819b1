//! Error types of the fleet engine.

use std::fmt;

/// Errors surfaced by fleet control-plane and query operations.
#[derive(Debug)]
pub enum FleetError {
    /// The stream id is not registered with the engine.
    UnknownStream(String),
    /// The stream id is already registered.
    DuplicateStream(String),
    /// The engine (or the shard owning the stream) has shut down.
    ShuttingDown,
    /// The stream's model panicked while answering a query (e.g. a
    /// forecast-horizon assert). The model's state is untouched — queries
    /// take `&self` — so the stream keeps serving; the bad query is
    /// reported instead of killing the shard.
    ModelPanicked {
        /// The stream whose model panicked.
        stream: String,
    },
    /// The request was rejected at the API boundary before reaching any
    /// shard or model (e.g. a `forecast` with horizon 0, or a malformed
    /// wire line). See [`crate::Query::validate`].
    InvalidQuery {
        /// Why the request is unanswerable.
        reason: String,
    },
    /// A checkpoint could not be written or read.
    Io(std::io::Error),
    /// A checkpoint file exists but does not parse.
    Corrupt {
        /// The stream whose checkpoint is damaged.
        stream: String,
        /// Parser diagnostic.
        reason: String,
    },
    /// The request carried a shard-map epoch that does not match the
    /// serving node's — the fencing reject of the cluster layer. The
    /// payload is the **server's** epoch, so the router can tell whether
    /// it is behind (adopt the server's map) or ahead (push its own).
    StaleEpoch {
        /// The epoch of the map the serving node currently holds.
        epoch: u64,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::UnknownStream(id) => write!(f, "unknown stream `{id}`"),
            FleetError::DuplicateStream(id) => write!(f, "stream `{id}` already registered"),
            FleetError::ShuttingDown => write!(f, "fleet engine is shutting down"),
            FleetError::ModelPanicked { stream } => {
                write!(
                    f,
                    "model for stream `{stream}` panicked answering the query"
                )
            }
            FleetError::InvalidQuery { reason } => write!(f, "invalid query: {reason}"),
            FleetError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            FleetError::Corrupt { stream, reason } => {
                write!(f, "corrupt checkpoint for stream `{stream}`: {reason}")
            }
            FleetError::StaleEpoch { epoch } => {
                write!(f, "stale shard-map epoch (server holds epoch {epoch})")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}

/// Outcome of [`crate::Fleet::try_ingest`]: the data-plane error type.
///
/// Kept separate from [`FleetError`] so the hot path can hand the slice
/// back to the caller instead of dropping it.
#[derive(Debug)]
pub enum IngestError {
    /// The shard's ingest queue is full; the slice is returned so the
    /// caller can retry, shed load, or spill. Boxed so the `Ok` path's
    /// `Result` stays word-sized — the allocation happens only on the
    /// rare rejection.
    Backpressure(Box<sofia_tensor::ObservedTensor>),
    /// The stream id is not registered.
    UnknownStream(String),
    /// The owning shard has shut down.
    ShuttingDown,
    /// The slice holds NaN or ±∞ at an observed entry (see
    /// [`crate::Fleet::check_slice`]); nothing was enqueued.
    NonFinite {
        /// Flat offset of the first such entry.
        offset: usize,
    },
    /// The slice's shape is not the one the stream's model steps on (see
    /// [`crate::Fleet::check_slice`]); nothing was enqueued.
    ShapeMismatch {
        /// The shape the stream's model steps on.
        expected: sofia_tensor::Shape,
        /// The slice's shape.
        found: sofia_tensor::Shape,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Backpressure(_) => write!(f, "ingest queue full (backpressure)"),
            IngestError::UnknownStream(id) => write!(f, "unknown stream `{id}`"),
            IngestError::ShuttingDown => write!(f, "fleet engine is shutting down"),
            IngestError::NonFinite { offset } => {
                write!(f, "non-finite value at observed offset {offset}")
            }
            IngestError::ShapeMismatch { expected, found } => {
                write!(
                    f,
                    "slice shape {found} differs from the stream's {expected}"
                )
            }
        }
    }
}

impl std::error::Error for IngestError {}
