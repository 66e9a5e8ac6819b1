//! The blocking client: the in-process `Fleet` API, spoken over TCP.
//!
//! [`Client`] mirrors the engine surface — `query`, `query_batch`,
//! `ingest`, `flush`, `stats`, `register` — so code (and tests) exercise
//! identical semantics in-process and over loopback. The semantics
//! carried across the wire deliberately match the engine's:
//!
//! * queries are **not** FIFO-ordered with in-flight ingests;
//!   [`Client::flush`] is the read-your-writes barrier, exactly as
//!   in-process;
//! * ingest backpressure is a typed hand-back, not an error: the shard's
//!   bounded queue pushing back returns the **unapplied slices** to the
//!   caller ([`IngestReport::rejected`]), who decides whether to retry,
//!   shed, or spill;
//! * [`Client::query_pipelined`] writes every request frame before
//!   reading any reply — N requests in flight on one socket, settled in
//!   order (the server maps them onto `QueryTicket`s internally).

use crate::stats::{parse_net_stats, NetStats};
use crate::wire::{
    self, parse_fleet_stats, read_frame, split_reply, write_frame, FrameError, ReplyHead, Request,
    ShardMap, MAX_FRAME_BYTES,
};
use sofia_fleet::protocol::wire::{self as pwire, LineCursor};
use sofia_fleet::{FleetError, FleetStats, ModelHandle, Query, QueryResponse};
use sofia_tensor::ObservedTensor;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Default bound on waiting for one reply frame. A server that died
/// mid-reply (crash, kill -9, network partition) surfaces as a typed
/// [`FrameError::TimedOut`] instead of a read that hangs until the OS
/// gives up; raise it via [`Client::set_read_timeout`] for genuinely
/// slow operations.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A client-side failure: transport trouble, a protocol violation, or a
/// typed error the server reported.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// A frame could not be read (oversized, truncated, garbage).
    Frame(FrameError),
    /// The peer sent something outside the protocol (bad payload,
    /// mismatched request id, unexpected reply shape).
    Protocol(String),
    /// The server answered with a typed fleet error.
    Fleet(FleetError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O error: {e}"),
            ClientError::Frame(e) => write!(f, "client frame error: {e}"),
            ClientError::Protocol(r) => write!(f, "protocol violation: {r}"),
            ClientError::Fleet(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            ClientError::Fleet(e) => Some(e),
            ClientError::Protocol(_) => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<pwire::WireError> for ClientError {
    fn from(e: pwire::WireError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

/// Outcome of one [`Client::ingest`]: how many slices the shard
/// accepted, and the unapplied tail handed back — the wire mirror of
/// [`sofia_fleet::IngestError::Backpressure`] returning the slice.
#[derive(Debug)]
pub struct IngestReport {
    /// Slices applied (in order) before any pushback.
    pub accepted: u64,
    /// `(seq, slice)` pairs the server did **not** apply, in order.
    /// Slice order within a stream is sacred, so the first backpressure
    /// rejects the whole remaining tail; retry it in order.
    pub rejected: Vec<(u64, ObservedTensor)>,
}

/// An `ok` reply frame, kept whole: parsers read the payload in place,
/// so each reply is copied once, from the socket.
struct OkReply {
    body: String,
    /// Where the payload starts in `body`, after the `ok <id>` line.
    payload_at: usize,
}

impl OkReply {
    fn payload(&self) -> &str {
        &self.body[self.payload_at..]
    }

    /// The payload alone, moved to the front of the body's buffer.
    fn into_payload(mut self) -> String {
        self.body.drain(..self.payload_at);
        self.body
    }
}

/// A blocking TCP client for one `sofia-net` server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    map: ShardMap,
    next_id: u64,
    next_seq: u64,
    max_frame: usize,
    /// The map a `stale-epoch` reject carried, kept until someone takes
    /// it. The typed error itself stays a plain [`FleetError`] (the
    /// fleet crate knows nothing of shard maps), so the routing layer
    /// picks the map up through [`Client::take_stale_map`] instead.
    stale_map: Option<ShardMap>,
}

impl Client {
    /// Connects and performs the `hello` handshake, receiving the
    /// server's [`ShardMap`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_as(addr, "sofia-net-client")
    }

    /// [`Client::connect`] with an explicit client name (diagnostics
    /// only; shows up in nothing but future server logs).
    pub fn connect_as(addr: impl ToSocketAddrs, name: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        let writer = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
            map: ShardMap::single_node("unknown", 1),
            next_id: 1,
            next_seq: 1,
            max_frame: MAX_FRAME_BYTES,
            stale_map: None,
        };
        let hello = Request::Hello {
            client: name.to_string(),
        };
        write_frame(&mut client.writer, &hello.to_body())?;
        let body = client.read_reply_body()?;
        let (head, payload) = split_reply(&body)?;
        match head {
            ReplyHead::Ok(0) => {
                let mut cur = LineCursor::new(payload);
                client.map = ShardMap::parse(&mut cur)?;
                cur.finish()?;
                Ok(client)
            }
            ReplyHead::Ok(id) => Err(ClientError::Protocol(format!(
                "handshake answered with id {id}"
            ))),
            ReplyHead::Err(_, e) => Err(ClientError::Fleet(e)),
        }
    }

    /// The shard-ownership table received at handshake: a standalone
    /// server advertises itself as owner of every route; a cluster
    /// member advertises the full deployment map
    /// ([`crate::ServerConfig::cluster`]), which is how a
    /// [`crate::ClusterClient`] bootstraps from one seed.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Replaces this client's routing map — the adoption half of the
    /// stale-epoch protocol: when a server's reject carries a newer map
    /// ([`Client::take_stale_map`]), the router installs it here so
    /// later requests stamp the new epoch.
    pub fn adopt_map(&mut self, map: ShardMap) {
        self.map = map;
    }

    /// The shard map the last `stale-epoch` reject carried, if any —
    /// taking it clears the slot. A reject doubles as a map hand-off:
    /// the server that refused the request also tells the client what
    /// the world looks like now.
    pub fn take_stale_map(&mut self) -> Option<ShardMap> {
        self.stale_map.take()
    }

    /// The epoch to stamp on fenced requests: `None` while the map is
    /// still at epoch 0 (the pre-autonomy world — no token on the wire,
    /// no fencing on the server), `Some` once any ownership change
    /// bumped it.
    fn fence_epoch(&self) -> Option<u64> {
        (self.map.epoch() > 0).then(|| self.map.epoch())
    }

    /// Caps the frames this client accepts **and** sizes its ingest
    /// chunks (a chunk targets half the bound, so large batches split
    /// into several frames instead of tripping the server's
    /// [`MAX_FRAME_BYTES`] rejection). Defaults to [`MAX_FRAME_BYTES`];
    /// lower it to send smaller frames. Clamped to at least 1 KiB.
    pub fn set_max_frame_bytes(&mut self, bytes: usize) {
        self.max_frame = bytes.max(1024);
    }

    /// Bounds how long any reply read may block
    /// ([`DEFAULT_READ_TIMEOUT`] unless changed); an expired wait
    /// surfaces as [`FrameError::TimedOut`]. `None` restores unbounded
    /// blocking reads.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    fn read_reply_body(&mut self) -> Result<String, ClientError> {
        read_frame(&mut self.reader, self.max_frame)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".to_string()))
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends one request frame and returns its id.
    fn send(&mut self, build: impl FnOnce(u64) -> Request) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        let req = build(id);
        write_frame(&mut self.writer, &req.to_body())?;
        Ok(id)
    }

    /// Reads the next reply, checks it answers `id`, and returns it
    /// (or the server's typed error).
    fn expect_reply(&mut self, id: u64) -> Result<Result<OkReply, FleetError>, ClientError> {
        let body = self.read_reply_body()?;
        let (head, payload) = split_reply(&body)?;
        let payload_at = body.len() - payload.len();
        match head {
            ReplyHead::Ok(got) if got == id => Ok(Ok(OkReply { body, payload_at })),
            ReplyHead::Err(got, e) if got == id => {
                // A stale-epoch reject carries the server's current map
                // as its payload; stash it for the routing layer.
                if matches!(e, FleetError::StaleEpoch { .. }) && !payload.is_empty() {
                    let mut cur = LineCursor::new(payload);
                    if let Ok(map) = ShardMap::parse(&mut cur) {
                        if cur.finish().is_ok() {
                            self.stale_map = Some(map);
                        }
                    }
                }
                Ok(Err(e))
            }
            ReplyHead::Ok(got) | ReplyHead::Err(got, _) => Err(ClientError::Protocol(format!(
                "reply {got} arrived while waiting for {id} (replies are in request order)"
            ))),
        }
    }

    /// One typed query against one stream — the wire form of
    /// `fleet.query(id, query)?.wait()`.
    pub fn query(&mut self, stream: &str, query: Query) -> Result<QueryResponse, ClientError> {
        let stream = stream.to_string();
        let epoch = self.fence_epoch();
        let id = self.send(|id| Request::Query {
            id,
            epoch,
            stream,
            query,
        })?;
        match self.expect_reply(id)? {
            Ok(reply) => {
                let mut cur = LineCursor::new(reply.payload());
                let resp = pwire::parse_response(&mut cur)?;
                cur.finish()?;
                Ok(resp)
            }
            Err(e) => Err(ClientError::Fleet(e)),
        }
    }

    /// Many queries over many streams in **one frame**; the server
    /// answers with one queue round-trip per involved shard, and the
    /// reply vector aligns with `requests` (per-item failures are
    /// item-level, exactly like [`sofia_fleet::Fleet::query_batch`]).
    pub fn query_batch(
        &mut self,
        requests: &[(&str, Query)],
    ) -> Result<Vec<Result<QueryResponse, FleetError>>, ClientError> {
        let items: Vec<(String, Query)> = requests
            .iter()
            .map(|(s, q)| (s.to_string(), q.clone()))
            .collect();
        let epoch = self.fence_epoch();
        let id = self.send(|id| Request::QueryBatch { id, epoch, items })?;
        let reply = match self.expect_reply(id)? {
            Ok(reply) => reply,
            Err(e) => return Err(ClientError::Fleet(e)),
        };
        let mut cur = LineCursor::new(reply.payload());
        let head = cur.next("results header")?;
        let n: usize = head
            .strip_prefix("results ")
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad results header `{head}`")))?;
        if n != requests.len() {
            return Err(ClientError::Protocol(format!(
                "{n} results for {} requests",
                requests.len()
            )));
        }
        let mut results = Vec::with_capacity(n);
        for _ in 0..n {
            let line = cur.next("batch item")?;
            if line == "item ok" {
                results.push(Ok(pwire::parse_response(&mut cur)?));
            } else if let Some(err_line) = line.strip_prefix("item err ") {
                results.push(Err(FleetError::from_wire(err_line)?));
            } else {
                return Err(ClientError::Protocol(format!("bad batch item `{line}`")));
            }
        }
        cur.finish()?;
        Ok(results)
    }

    /// Pipelining: writes one `query` frame per request **before reading
    /// any reply**, then settles them in order. Unlike
    /// [`Client::query_batch`] (one frame, one shard round-trip per
    /// shard) this issues independent requests — it is the wire mirror
    /// of holding several [`sofia_fleet::QueryTicket`]s.
    pub fn query_pipelined(
        &mut self,
        requests: &[(&str, Query)],
    ) -> Result<Vec<Result<QueryResponse, FleetError>>, ClientError> {
        let mut ids = Vec::with_capacity(requests.len());
        for (stream, query) in requests {
            ids.push(self.start_query(stream, query.clone())?);
        }
        let mut results = Vec::with_capacity(ids.len());
        for id in ids {
            results.push(self.finish_query(id)?);
        }
        Ok(results)
    }

    /// Writes one `query` frame without reading its reply — the send
    /// half of [`Client::query_pipelined`], split out so callers
    /// (load generators, multi-connection drivers) can put many
    /// sockets' queries in flight before settling any. Returns the
    /// request id to pass to [`Client::finish_query`].
    pub fn start_query(&mut self, stream: &str, query: Query) -> Result<u64, ClientError> {
        let stream = stream.to_string();
        let epoch = self.fence_epoch();
        self.send(|id| Request::Query {
            id,
            epoch,
            stream,
            query,
        })
    }

    /// Reads the reply to a [`Client::start_query`] id. Replies arrive
    /// in request order, so settle ids in the order they were started.
    pub fn finish_query(
        &mut self,
        id: u64,
    ) -> Result<Result<QueryResponse, FleetError>, ClientError> {
        match self.expect_reply(id)? {
            Ok(reply) => {
                let mut cur = LineCursor::new(reply.payload());
                let resp = pwire::parse_response(&mut cur)?;
                cur.finish()?;
                Ok(Ok(resp))
            }
            Err(e) => Ok(Err(e)),
        }
    }

    /// Registers a stream by shipping the model's checkpoint envelope;
    /// the server restores it through the same bit-exact path crash
    /// recovery uses. Only a SOFIA model has a wire form.
    /// Returns whether the server **persisted** the stream on arrival
    /// (`false` when it runs no checkpoint policy) — the signal a
    /// migration coordinator needs before deleting the source's copy.
    pub fn register(&mut self, stream: &str, model: &ModelHandle) -> Result<bool, ClientError> {
        let envelope = model.checkpoint_text().ok_or_else(|| {
            ClientError::Protocol(format!(
                "model `{}` is transient (only SOFIA is checkpointed), so it has \
                 no wire form; register it in-process",
                model.name()
            ))
        })?;
        self.register_envelope(stream, &envelope)
    }

    /// [`Client::register`] from raw checkpoint-envelope text.
    pub fn register_envelope(&mut self, stream: &str, envelope: &str) -> Result<bool, ClientError> {
        let stream = stream.to_string();
        let envelope = envelope.to_string();
        let epoch = self.fence_epoch();
        let id = self.send(|id| Request::Register {
            id,
            epoch,
            stream,
            envelope,
        })?;
        match self.expect_reply(id)? {
            Ok(reply) => {
                let mut cur = LineCursor::new(reply.payload());
                let durable = match cur.next("durable marker")? {
                    "durable true" => true,
                    "durable false" => false,
                    other => {
                        return Err(ClientError::Protocol(format!(
                            "bad register reply `{other}`"
                        )))
                    }
                };
                cur.finish()?;
                Ok(durable)
            }
            Err(e) => Err(ClientError::Fleet(e)),
        }
    }

    /// Reads a stream's current model as checkpoint-envelope text — the
    /// exact payload [`Client::register_envelope`] accepts on another
    /// server, so `snapshot` here + `register` there (+
    /// [`Client::deregister`] here) migrates the stream. The envelope
    /// reflects every slice the server accepted before this call
    /// answered; callers that ingested concurrently should
    /// [`Client::flush`] first.
    pub fn snapshot(&mut self, stream: &str) -> Result<String, ClientError> {
        let stream = stream.to_string();
        let epoch = self.fence_epoch();
        let id = self.send(|id| Request::Snapshot { id, epoch, stream })?;
        match self.expect_reply(id)? {
            Ok(reply) => Ok(reply.into_payload()),
            Err(e) => Err(ClientError::Fleet(e)),
        }
    }

    /// Removes a stream from the server entirely: model unloaded, id
    /// freed, checkpoint file deleted — a restart of that server cannot
    /// resurrect it. The final step of a migration hand-off.
    pub fn deregister(&mut self, stream: &str) -> Result<(), ClientError> {
        let stream = stream.to_string();
        let epoch = self.fence_epoch();
        let id = self.send(|id| Request::Deregister { id, epoch, stream })?;
        match self.expect_reply(id)? {
            Ok(_) => Ok(()),
            Err(e) => Err(ClientError::Fleet(e)),
        }
    }

    /// Ships a batch of slices for one stream, tagged with sequence
    /// numbers. The server applies them in order until its shard pushes
    /// back; the unapplied tail comes back in the report.
    pub fn ingest(
        &mut self,
        stream: &str,
        slices: Vec<ObservedTensor>,
    ) -> Result<IngestReport, ClientError> {
        let tagged: Vec<(u64, ObservedTensor)> = slices
            .into_iter()
            .map(|s| {
                let seq = self.next_seq;
                self.next_seq += 1;
                (seq, s)
            })
            .collect();
        self.ingest_tagged(stream, tagged)
    }

    /// Ships `tagged` in frame-bounded chunks (the server rejects
    /// frames over its byte bound and batches over `MAX_BATCH_ITEMS`;
    /// chunking client-side turns those hard limits into ordinary
    /// multi-frame ingest). Slices are **borrowed** for serialization
    /// — no tensor is cloned — and the unapplied tail is handed back
    /// from the same vector. On backpressure mid-chunk everything from
    /// the first rejected slice onward (later chunks included) comes
    /// back unapplied, preserving per-stream order.
    fn ingest_tagged(
        &mut self,
        stream: &str,
        tagged: Vec<(u64, ObservedTensor)>,
    ) -> Result<IngestReport, ClientError> {
        let mut accepted = 0u64;
        let mut remaining = tagged;
        while !remaining.is_empty() {
            // Take the longest prefix of the unsent slices within both
            // wire bounds (always at least one slice: a single slice
            // over the frame bound must still be attempted — the
            // server's Oversized rejection is the honest answer).
            let mut count = 0usize;
            let mut bytes = 64usize;
            for (_, slice) in &remaining {
                let est = wire::ingest_slice_wire_bound(slice);
                if count > 0 && (count >= wire::MAX_BATCH_ITEMS || bytes + est > self.max_frame / 2)
                {
                    break;
                }
                count += 1;
                bytes += est;
            }
            let id = self.fresh_id();
            let body = wire::ingest_body(id, self.fence_epoch(), stream, &remaining[..count]);
            write_frame(&mut self.writer, &body)?;
            let reply = match self.expect_reply(id)? {
                Ok(reply) => reply,
                Err(e) => return Err(ClientError::Fleet(e)),
            };
            let (chunk_accepted, rejected_seqs) = parse_ingest_reply(reply.payload())?;
            accepted += chunk_accepted;
            if rejected_seqs.is_empty() {
                remaining.drain(..count);
                continue;
            }
            // The server rejects a contiguous tail of the chunk; find
            // where it starts and hand back everything from there on.
            let first = remaining[..count]
                .iter()
                .position(|(seq, _)| rejected_seqs.contains(seq))
                .ok_or_else(|| {
                    ClientError::Protocol(
                        "server handed back seqs this client never sent".to_string(),
                    )
                })?;
            if rejected_seqs.len() != count - first
                || !remaining[first..count]
                    .iter()
                    .all(|(seq, _)| rejected_seqs.contains(seq))
            {
                return Err(ClientError::Protocol(
                    "server's backpressure tail is not contiguous".to_string(),
                ));
            }
            let rejected = remaining.split_off(first);
            return Ok(IngestReport { accepted, rejected });
        }
        Ok(IngestReport {
            accepted,
            rejected: Vec::new(),
        })
    }

    /// Blocking convenience over [`Client::ingest`]: retries the
    /// rejected tail (in order) until everything is applied. Returns
    /// the number of retry round-trips taken.
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
            let tail = std::mem::take(&mut report.rejected);
            report = self.ingest_tagged(stream, tail)?;
        }
        Ok(retries)
    }

    /// Read-your-writes barrier over TCP: once this returns, every slice
    /// this client (or anyone else) ingested before the call is visible
    /// to every later query — the same contract as
    /// [`sofia_fleet::Fleet::flush`].
    pub fn flush(&mut self) -> Result<(), ClientError> {
        let id = self.send(|id| Request::Flush { id })?;
        match self.expect_reply(id)? {
            Ok(_) => Ok(()),
            Err(e) => Err(ClientError::Fleet(e)),
        }
    }

    /// Fleet-wide statistics snapshot.
    pub fn stats(&mut self) -> Result<FleetStats, ClientError> {
        let id = self.send(|id| Request::Stats { id })?;
        let reply = match self.expect_reply(id)? {
            Ok(reply) => reply,
            Err(e) => return Err(ClientError::Fleet(e)),
        };
        let mut cur = LineCursor::new(reply.payload());
        let stats = parse_fleet_stats(&mut cur)?;
        cur.finish()?;
        Ok(stats)
    }

    /// Node-health snapshot of the server this client is connected to:
    /// network-core counters, the settle-latency summary, and the
    /// slow-request ring ([`crate::NetStats`]). The parse is strict,
    /// like the fleet-stats sketch block: any block other than the
    /// `netstats 1` form [`crate::push_net_stats`] writes is an error.
    pub fn metrics(&mut self) -> Result<NetStats, ClientError> {
        let id = self.send(|id| Request::Metrics { id })?;
        let reply = match self.expect_reply(id)? {
            Ok(reply) => reply,
            Err(e) => return Err(ClientError::Fleet(e)),
        };
        let mut cur = LineCursor::new(reply.payload());
        let stats = parse_net_stats(&mut cur)?;
        cur.finish()?;
        Ok(stats)
    }

    /// Pushes a shard map at the server. The server installs it iff its
    /// epoch is **strictly newer** than the one it holds (and answers
    /// `stale-epoch` otherwise) — the coordinator's tool for propagating
    /// an ownership change, and the retry path's tool for bringing a
    /// server that fell behind up to date.
    pub fn remap(&mut self, map: &ShardMap) -> Result<(), ClientError> {
        let map = map.clone();
        let id = self.send(|id| Request::Remap { id, map })?;
        match self.expect_reply(id)? {
            Ok(_) => Ok(()),
            Err(e) => Err(ClientError::Fleet(e)),
        }
    }

    /// Lists the stream ids this server currently holds — the
    /// enumeration a slot migration groups by its own map's route hash.
    /// The announced count is only trusted as far as the payload carries
    /// it: nothing is reserved up front, and a count with too few
    /// `stream` lines is a protocol error.
    pub fn stream_ids(&mut self) -> Result<Vec<String>, ClientError> {
        let id = self.send(|id| Request::Streams { id })?;
        let reply = match self.expect_reply(id)? {
            Ok(reply) => reply,
            Err(e) => return Err(ClientError::Fleet(e)),
        };
        let mut cur = LineCursor::new(reply.payload());
        let head = cur.next("streams header")?;
        let n: usize = head
            .strip_prefix("streams ")
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad streams header `{head}`")))?;
        let mut ids = Vec::new();
        for _ in 0..n {
            let line = cur.next("stream line")?;
            let enc = line
                .strip_prefix("stream ")
                .ok_or_else(|| ClientError::Protocol(format!("bad stream line `{line}`")))?;
            ids.push(
                wire::decode_stream_id(enc).ok_or_else(|| {
                    ClientError::Protocol(format!("undecodable stream id `{enc}`"))
                })?,
            );
        }
        cur.finish()?;
        Ok(ids)
    }

    /// Asks the server to shut down gracefully (drain queues, write
    /// final checkpoints, exit). The server acknowledges before it
    /// starts draining; this connection is closed afterwards, so the
    /// client is consumed.
    pub fn shutdown_server(mut self) -> Result<(), ClientError> {
        let id = self.send(|id| Request::Shutdown { id })?;
        match self.expect_reply(id)? {
            Ok(_) => Ok(()),
            Err(e) => Err(ClientError::Fleet(e)),
        }
    }
}

/// Parses an ingest reply payload (`accepted <n>` + `backpressure
/// [seq…]`) into the accepted count and the rejected seq set.
fn parse_ingest_reply(payload: &str) -> Result<(u64, std::collections::HashSet<u64>), ClientError> {
    let mut cur = LineCursor::new(payload);
    let accepted: u64 = cur
        .next("accepted count")?
        .strip_prefix("accepted ")
        .and_then(|d| d.parse().ok())
        .ok_or_else(|| ClientError::Protocol("bad accepted line".to_string()))?;
    let bp_line = cur.next("backpressure seqs")?;
    let rest = bp_line
        .strip_prefix("backpressure")
        .ok_or_else(|| ClientError::Protocol(format!("bad backpressure line `{bp_line}`")))?;
    cur.finish()?;
    let mut rejected = std::collections::HashSet::new();
    for tok in rest.split_whitespace() {
        let seq: u64 = tok
            .parse()
            .map_err(|_| ClientError::Protocol(format!("bad rejected seq `{tok}`")))?;
        rejected.insert(seq);
    }
    Ok((accepted, rejected))
}
