//! Per-connection state machines of the evented server: an incremental
//! frame decoder, a bounded write buffer with backpressure, and
//! in-order settlement of pipelined completions — everything one
//! connection owns between readiness events.
//!
//! The old server gave each connection two blocking threads (reader +
//! responder); here a connection is plain state driven by whichever
//! event-loop thread owns it. The contracts it upholds are the wire
//! contracts PR 4 pinned:
//!
//! * **Frames are byte-stream-safe.** `#<len>\n<body>` frames may be
//!   split at any byte boundary (one byte per segment is legal);
//!   [`FrameDecoder`] carries partial frames across reads and yields
//!   bodies only when complete.
//! * **Replies settle strictly in request order.** Completions queue in
//!   arrival order; only the front may settle, even when a later
//!   query's ticket resolves first.
//! * **Write buffering is bounded.** Once a connection's outgoing
//!   buffer crosses the configured high-water mark the server stops
//!   reading from it (and stops settling replies into it) until the
//!   peer drains — a slow reader backpressures itself, never the
//!   server's memory.
//! * **Reply serialization reuses per-connection scratch.** Settling a
//!   query reply encodes into the connection's scratch `String` and
//!   appends the frame straight into the write buffer — no fresh
//!   allocation per settled frame on the hot path. A SOFIA stream's
//!   `Latest` and `Forecast` are encoded in the Kruskal form the shard
//!   answered with ([`pwire::push_answer`]); the server never builds the
//!   dense slice, the client does.

use crate::server::{dispatch, Shared};
use crate::stats::SlowRequest;
use crate::wire::{err_body, ok_body, parse_frame_header, FrameError, MAX_FRAME_BYTES};
use sofia_fleet::protocol::wire as pwire;
use sofia_fleet::{Answer, FleetError, QueryTicket};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Longest accepted `#<len>` frame header (shared with the blocking
/// reader in [`crate::wire`]).
use crate::wire::MAX_HEADER_BYTES;

/// Bytes read from one connection per pump pass — the fairness quantum.
/// A firehose sender gets this much service, then the loop moves on;
/// level-triggered readiness brings the connection straight back.
const READ_BUDGET: usize = 64 * 1024;

/// Upper bound on queued (unsettled) completions per connection. A peer
/// that pipelines past it stops being read until replies drain —
/// the request-side twin of the write buffer's byte bound.
const MAX_PENDING_REPLIES: usize = 1024;

/// Shrink-back threshold for per-connection buffers: one burst (a big
/// snapshot reply, a flood of pipelined frames) must not pin its
/// peak allocation for the connection's lifetime.
const BUF_SHRINK_BYTES: usize = 1 << 20;

/// Incremental decoder for `#<len>\n<body>` frames: bytes go in as they
/// arrive, complete bodies come out; partial frames (header or body cut
/// at any byte) simply wait for more input.
#[derive(Default)]
pub(crate) struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// Appends freshly read bytes.
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether any partial frame is buffered (EOF now would be
    /// [`FrameError::Truncated`] rather than a clean close).
    #[cfg(test)]
    pub(crate) fn is_mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// The buffered bytes; index with the range [`FrameDecoder::peek`]
    /// returned.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// If a complete frame is buffered, its body's byte range.
    /// `Ok(None)` means "need more bytes"; errors mean the byte stream
    /// is off-protocol and cannot be trusted to be frame-aligned again.
    pub(crate) fn peek(&self, max: usize) -> Result<Option<(usize, usize)>, FrameError> {
        let probe = &self.buf[..self.buf.len().min(MAX_HEADER_BYTES + 1)];
        let hdr_end = match probe.iter().position(|&b| b == b'\n') {
            Some(i) => i,
            None if self.buf.len() > MAX_HEADER_BYTES => {
                return Err(FrameError::BadHeader(
                    String::from_utf8_lossy(probe).into_owned(),
                ));
            }
            None => return Ok(None),
        };
        let len = parse_frame_header(&self.buf[..hdr_end], max)?;
        let start = hdr_end + 1;
        if self.buf.len() < start + len {
            return Ok(None);
        }
        Ok(Some((start, start + len)))
    }

    /// Discards everything up to `end` (a consumed frame), keeping the
    /// following bytes — the start of the next frame, wherever the last
    /// read happened to cut it.
    pub(crate) fn consume(&mut self, end: usize) {
        self.buf.copy_within(end.., 0);
        self.buf.truncate(self.buf.len() - end);
        if self.buf.is_empty() && self.buf.capacity() > BUF_SHRINK_BYTES {
            self.buf.shrink_to(READ_BUDGET);
        }
    }
}

/// Outgoing bytes with a consumed-prefix cursor, so partial socket
/// writes don't memmove the remainder on every call.
#[derive(Default)]
struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    /// Appends one `#<len>\n<body>` frame (header written straight into
    /// the buffer — no intermediate allocation).
    fn append_frame(&mut self, body: &str) {
        let _ = writeln!(self.buf, "#{}", body.len());
        self.buf.extend_from_slice(body.as_bytes());
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn pending_len(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn advance(&mut self, n: usize) {
        self.pos += n;
        debug_assert!(self.pos <= self.buf.len());
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if self.buf.capacity() > BUF_SHRINK_BYTES {
                self.buf.shrink_to(READ_BUDGET);
            }
        } else if self.pos >= READ_BUDGET && self.pos * 2 >= self.buf.len() {
            self.buf.copy_within(self.pos.., 0);
            let len = self.buf.len() - self.pos;
            self.buf.truncate(len);
            self.pos = 0;
        }
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }
}

/// What the dispatcher produced for one request; settled strictly in
/// arrival order.
pub(crate) enum Completion {
    /// Reply body already known (ingest, flush, stats, errors, …).
    Ready(String),
    /// A single query in flight on the typed plane.
    Query {
        /// Echoed request id.
        id: u64,
        /// The unsettled in-process handle, polled with `try_take_answer`.
        ticket: QueryTicket,
    },
    /// A staged multi-stream batch; the reply needs every slot.
    Batch {
        /// Echoed request id.
        id: u64,
        /// One slot per item, each settling independently.
        slots: Vec<BatchSlot>,
    },
}

/// One item of a staged batch: still in flight, or resolved (item-level
/// failures arrive resolved).
// `Done` dwarfs `Pending`, but the slots are written in place inside an
// already-sized Vec and die as soon as the batch serializes; boxing
// would buy nothing except an allocation per settled item.
#[allow(clippy::large_enum_variant)]
pub(crate) enum BatchSlot {
    /// Ticket not yet answered by its shard.
    Pending(QueryTicket),
    /// Answered (or failed at staging); held until the whole batch is.
    Done(Result<Answer, FleetError>),
}

/// Per-request observability carried alongside a queued [`Completion`]:
/// when the complete frame was decoded (the wire-to-settle clock), the
/// verb, and the stream the request addressed — the stream `String` is
/// **moved** out of the parsed request, never cloned, so metadata costs
/// the steady-state path no allocation.
pub(crate) struct ReqMeta {
    /// When the request's complete frame came off the decoder.
    pub(crate) arrived: Instant,
    /// The request verb (or `error` for protocol-fault replies).
    pub(crate) verb: &'static str,
    /// The stream the request addressed, when it addressed one.
    pub(crate) stream: Option<String>,
}

/// The state one [`Conn::pump`] or [`Conn::settle_and_flush`] pass left
/// behind, so the event loop can pick its poll timeout and know whether
/// to come straight back.
pub(crate) struct PumpOutcome {
    /// A pass could make progress right now, without waiting on the
    /// socket or a shard: the read budget ran out with the socket still
    /// hot, complete frames wait in the decoder, or the write bound held
    /// back replies the flush has since made room for — re-pump before
    /// sleeping.
    pub(crate) ready: bool,
    /// The front completion is blocked on an unsettled ticket — poll
    /// again soon (tickets resolve off-loop, nothing wakes the poller).
    pub(crate) ticket_blocked: bool,
}

/// Why [`Conn::settle`] stopped.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Settled {
    /// Nothing is left to settle (or the peer is gone).
    Idle,
    /// The write buffer reached its bound with completions still queued.
    Full,
    /// The front completion waits on an in-flight ticket.
    Ticket,
}

/// One live connection: socket, decoder, completion queue, write
/// buffer, and the scratch reply string reused across settlements.
pub(crate) struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    pending: VecDeque<(Completion, ReqMeta)>,
    write: WriteBuf,
    scratch: String,
    /// Level-triggered readiness hint; starts true (bytes may predate
    /// the first poll registration).
    readable: bool,
    handshook: bool,
    /// No more requests will be read: EOF, protocol fault, a `shutdown`
    /// frame, or server drain. Queued replies still go out.
    read_closed: bool,
    /// The write side failed; nothing further can reach the peer, so
    /// queued work is dropped and the connection is finished.
    peer_gone: bool,
    /// Index of the event-loop worker that owns this connection (which
    /// settle-latency summary slot to observe into).
    worker: usize,
    /// Server-unique id, so slow-request records attribute to a socket.
    conn_id: u64,
    /// This connection's own write-buffer peak; the shared high-water
    /// counter is only touched when this grows (bounded publishes per
    /// connection instead of one atomic per settled frame).
    write_highwater: u64,
    /// Whether the read interest is currently dropped for backpressure
    /// (edge detection for the `read-interest-drops` counter).
    read_suppressed: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, worker: usize, conn_id: u64) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::default(),
            pending: VecDeque::new(),
            write: WriteBuf::default(),
            scratch: String::new(),
            readable: true,
            handshook: false,
            read_closed: false,
            peer_gone: false,
            worker,
            conn_id,
            write_highwater: 0,
            read_suppressed: false,
        }
    }

    /// A poll event reported this connection ready.
    pub(crate) fn on_event(&mut self, readable: bool) {
        if readable {
            self.readable = true;
        }
    }

    /// Whether the loop should read from this socket: not draining, and
    /// neither the write buffer nor the completion queue is over its
    /// bound (the backpressure contract: a peer outrunning its replies
    /// stops being read, never buffers unboundedly).
    pub(crate) fn wants_read(&self, shared: &Shared) -> bool {
        !self.read_closed
            && self.write.pending_len() < shared.config.write_buffer_bytes
            && self.pending.len() < MAX_PENDING_REPLIES
    }

    /// Whether the socket should be polled for writability (bytes are
    /// queued that a previous write could not flush).
    pub(crate) fn wants_write(&self) -> bool {
        !self.peer_gone && self.write.pending_len() > 0
    }

    /// Edge-detects the backpressure transition for the
    /// `read-interest-drops` counter: returns `true` exactly when a
    /// still-open connection's read interest was *just* dropped
    /// (write buffer or completion queue over its bound).
    pub(crate) fn note_read_interest(&mut self, wants_read: bool) -> bool {
        let suppressed = !wants_read && !self.read_closed;
        let newly = suppressed && !self.read_suppressed;
        self.read_suppressed = suppressed;
        newly
    }

    /// Stop reading (server drain): queued replies still settle and
    /// flush, then the connection finishes.
    pub(crate) fn begin_drain(&mut self) {
        self.read_closed = true;
    }

    /// Nothing left to do: torn down by the loop.
    pub(crate) fn finished(&self) -> bool {
        self.peer_gone
            || (self.read_closed && self.pending.is_empty() && self.write.pending_len() == 0)
    }

    /// Closes the socket both ways (the peer sees EOF / reset).
    pub(crate) fn teardown(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// One service pass: decode + dispatch buffered frames, read the
    /// socket (budget-bounded), settle what the front of the queue
    /// allows, flush. Everything a connection does happens here.
    pub(crate) fn pump(&mut self, shared: &Shared, buf: &mut [u8]) -> PumpOutcome {
        self.drain_frames(shared);
        let mut budget = READ_BUDGET;
        while self.readable && self.wants_read(shared) && budget > 0 {
            match self.stream.read(buf) {
                Ok(0) => {
                    // Clean EOF between frames is the normal hang-up;
                    // EOF mid-frame is a truncation — either way the
                    // read side is done (a truncated frame gets no
                    // reply, matching the blocking server).
                    self.read_closed = true;
                    self.readable = false;
                    break;
                }
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    self.decoder.extend(&buf[..n]);
                    self.drain_frames(shared);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.readable = false;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.read_closed = true;
                    self.readable = false;
                    break;
                }
            }
        }
        self.settle_and_flush(shared)
    }

    /// Settle and flush without touching the socket's read side — the
    /// ticket-polling half of [`Conn::pump`], cheap enough to spin.
    pub(crate) fn settle_and_flush(&mut self, shared: &Shared) -> PumpOutcome {
        let settled = self.settle(shared);
        self.flush();
        let reads = self.wants_read(shared);
        let frames = || !matches!(self.decoder.peek(MAX_FRAME_BYTES), Ok(None));
        let room = self.write.pending_len() < shared.config.write_buffer_bytes;
        PumpOutcome {
            ready: (reads && (self.readable || frames())) || (settled == Settled::Full && room),
            ticket_blocked: settled == Settled::Ticket,
        }
    }

    /// Decodes every complete buffered frame the bounds allow and
    /// dispatches it, queueing one completion per request.
    fn drain_frames(&mut self, shared: &Shared) {
        while !self.read_closed
            && self.pending.len() < MAX_PENDING_REPLIES
            && self.write.pending_len() < shared.config.write_buffer_bytes
        {
            let (start, end) = match self.decoder.peek(MAX_FRAME_BYTES) {
                Ok(Some(range)) => range,
                Ok(None) => break,
                Err(e) => {
                    // Off-protocol peer (oversized/garbage frame): one
                    // typed reply if the handshake happened, then stop
                    // reading — the stream is no longer frame-aligned.
                    shared.metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
                    if self.handshook {
                        self.push_ready(
                            err_body(
                                0,
                                &FleetError::InvalidQuery {
                                    reason: e.to_string(),
                                },
                            ),
                            "error",
                        );
                    }
                    self.read_closed = true;
                    break;
                }
            };
            // The wire-to-settle clock starts the instant a complete
            // frame comes off the decoder.
            let arrived = Instant::now();
            let parsed = match std::str::from_utf8(&self.decoder.bytes()[start..end]) {
                Ok(body) => crate::wire::Request::from_body(body),
                Err(_) => {
                    self.decoder.consume(end);
                    shared.metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
                    if self.handshook {
                        self.push_ready(
                            err_body(
                                0,
                                &FleetError::InvalidQuery {
                                    reason: FrameError::NotUtf8.to_string(),
                                },
                            ),
                            "error",
                        );
                    }
                    self.read_closed = true;
                    break;
                }
            };
            self.decoder.consume(end);
            shared
                .metrics
                .frames_decoded
                .fetch_add(1, Ordering::Relaxed);
            match parsed {
                Ok(crate::wire::Request::Hello { .. }) if !self.handshook => {
                    self.handshook = true;
                    self.push_ready(
                        ok_body(0, |out| shared.map.read().expect("map lock").push_wire(out)),
                        "hello",
                    );
                }
                Ok(_) | Err(_) if !self.handshook => {
                    // First frame was well-formed but not a `hello`.
                    self.push_ready(
                        err_body(
                            0,
                            &FleetError::InvalidQuery {
                                reason: "handshake must be a `hello` frame".to_string(),
                            },
                        ),
                        "error",
                    );
                    self.read_closed = true;
                }
                Ok(req) => {
                    let verb = req.verb();
                    let (completion, stream, keep_going) = dispatch(req, shared);
                    self.pending.push_back((
                        completion,
                        ReqMeta {
                            arrived,
                            verb,
                            stream,
                        },
                    ));
                    if !keep_going {
                        self.read_closed = true;
                    }
                }
                Err(e) => {
                    // The frame was well-formed, so the stream is still
                    // aligned: report and keep serving (the malformed
                    // body still counts as a decode error).
                    shared.metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
                    self.push_ready(
                        err_body(
                            0,
                            &FleetError::InvalidQuery {
                                reason: e.to_string(),
                            },
                        ),
                        "error",
                    );
                }
            }
        }
    }

    fn push_ready(&mut self, body: String, verb: &'static str) {
        self.pending.push_back((
            Completion::Ready(body),
            ReqMeta {
                arrived: Instant::now(),
                verb,
                stream: None,
            },
        ));
    }

    /// Settles completions **from the front only** (replies are in
    /// request order) while the write buffer has room.
    fn settle(&mut self, shared: &Shared) -> Settled {
        loop {
            if self.peer_gone {
                // Nothing can reach the peer; drop queued work (the
                // shard reply channels tolerate dropped receivers).
                self.pending.clear();
                self.write.clear();
                return Settled::Idle;
            }
            let Some((front, _)) = self.pending.front_mut() else {
                return Settled::Idle;
            };
            if self.write.pending_len() >= shared.config.write_buffer_bytes {
                return Settled::Full;
            }
            match front {
                Completion::Ready(_) => {
                    let Some((Completion::Ready(body), meta)) = self.pending.pop_front() else {
                        unreachable!("front was Ready");
                    };
                    self.write.append_frame(&body);
                    self.observe_settled(shared, meta);
                }
                Completion::Query { id, ticket } => {
                    let Some(result) = ticket.try_take_answer() else {
                        return Settled::Ticket;
                    };
                    let id = *id;
                    self.scratch.clear();
                    let _ = writeln!(self.scratch, "ok {id}");
                    match result {
                        Ok(answer) => pwire::push_answer(&mut self.scratch, &answer),
                        Err(e) => {
                            self.scratch.clear();
                            let _ = writeln!(self.scratch, "err {id} {}", e.to_wire());
                        }
                    }
                    self.write.append_frame(&self.scratch);
                    let (_, meta) = self.pending.pop_front().expect("front was Query");
                    self.observe_settled(shared, meta);
                }
                Completion::Batch { id, slots } => {
                    let mut all_done = true;
                    for slot in slots.iter_mut() {
                        if let BatchSlot::Pending(ticket) = slot {
                            match ticket.try_take_answer() {
                                Some(result) => *slot = BatchSlot::Done(result),
                                None => all_done = false,
                            }
                        }
                    }
                    if !all_done {
                        return Settled::Ticket;
                    }
                    let id = *id;
                    self.scratch.clear();
                    let _ = write!(self.scratch, "ok {id}\nresults {}\n", slots.len());
                    for slot in slots.iter() {
                        match slot {
                            BatchSlot::Done(Ok(answer)) => {
                                self.scratch.push_str("item ok\n");
                                pwire::push_answer(&mut self.scratch, answer);
                            }
                            BatchSlot::Done(Err(e)) => {
                                let _ = writeln!(self.scratch, "item err {}", e.to_wire());
                            }
                            BatchSlot::Pending(_) => unreachable!("all slots done"),
                        }
                    }
                    self.write.append_frame(&self.scratch);
                    let (_, meta) = self.pending.pop_front().expect("front was Batch");
                    self.observe_settled(shared, meta);
                }
            }
        }
    }

    /// A reply's bytes just entered the write buffer: stop the
    /// wire-to-settle clock, observe the latency into this worker's
    /// summary slot, update the write-buffer high-water mark (shared
    /// counter touched only when this connection's own peak grows), and
    /// capture a slow-request record when the threshold says so — the
    /// only branch that allocates, and only for requests already past
    /// the latency threshold.
    fn observe_settled(&mut self, shared: &Shared, meta: ReqMeta) {
        let elapsed = meta.arrived.elapsed();
        let latency_us = elapsed.as_micros() as u64;
        shared
            .metrics
            .observe_settle(self.worker, elapsed.as_secs_f64() * 1e6);
        let depth = self.write.pending_len() as u64;
        if depth > self.write_highwater {
            self.write_highwater = depth;
            shared
                .metrics
                .write_buffer_highwater
                .fetch_max(depth, Ordering::Relaxed);
        }
        if latency_us >= shared.metrics.slow_threshold_us {
            shared.metrics.record_slow(SlowRequest {
                verb: meta.verb.to_string(),
                stream: meta.stream,
                conn: self.conn_id,
                latency_us,
            });
        }
    }

    /// Writes queued bytes until the socket would block.
    fn flush(&mut self) {
        while self.write.pending_len() > 0 && !self.peer_gone {
            match self.stream.write(self.write.pending()) {
                Ok(0) => self.peer_gone = true,
                Ok(n) => self.write.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => self.peer_gone = true,
            }
        }
    }

    /// The socket, for poll registration.
    pub(crate) fn socket(&self) -> &TcpStream {
        &self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_handles_split_and_coalesced_frames() {
        let mut dec = FrameDecoder::default();
        // Two frames arriving one byte at a time.
        let wire = b"#5\nhello#3\nab\n";
        let mut seen = Vec::new();
        for &b in wire.iter() {
            dec.extend(&[b]);
            while let Some((s, e)) = dec.peek(1024).unwrap() {
                seen.push(String::from_utf8(dec.bytes()[s..e].to_vec()).unwrap());
                dec.consume(e);
            }
        }
        assert_eq!(seen, vec!["hello".to_string(), "ab\n".to_string()]);
        assert!(!dec.is_mid_frame());

        // Both frames in one push.
        dec.extend(b"#2\nxy#0\n");
        let (s, e) = dec.peek(1024).unwrap().unwrap();
        assert_eq!(&dec.bytes()[s..e], b"xy");
        dec.consume(e);
        let (s, e) = dec.peek(1024).unwrap().unwrap();
        assert_eq!(s, e, "empty body");
        dec.consume(e);
        assert!(dec.peek(1024).unwrap().is_none());
    }

    #[test]
    fn decoder_rejects_oversized_and_garbage_headers() {
        let mut dec = FrameDecoder::default();
        dec.extend(b"#100\nxx");
        assert!(matches!(
            dec.peek(10),
            Err(FrameError::Oversized { len: 100, max: 10 })
        ));

        let mut dec = FrameDecoder::default();
        dec.extend(b"nope\n");
        assert!(matches!(dec.peek(10), Err(FrameError::BadHeader(_))));

        // A header that never terminates is rejected once it cannot
        // possibly be valid, not buffered forever.
        let mut dec = FrameDecoder::default();
        dec.extend(&[b'#'; MAX_HEADER_BYTES + 2]);
        assert!(matches!(dec.peek(1024), Err(FrameError::BadHeader(_))));
    }

    /// The decoder reads `#<len>` with `read_frame`'s rule: the length
    /// in its one spelling, no sign, no leading zero.
    #[test]
    fn decoder_header_takes_one_spelling() {
        let mut dec = FrameDecoder::default();
        dec.extend(b"#5\nhello");
        assert_eq!(dec.peek(10).unwrap(), Some((3, 8)));
        for bad in [&b"#+5\nhello"[..], b"#05\nhello"] {
            let mut dec = FrameDecoder::default();
            dec.extend(bad);
            assert!(matches!(dec.peek(10), Err(FrameError::BadHeader(_))));
        }
    }

    #[test]
    fn decoder_waits_for_partial_headers_and_bodies() {
        let mut dec = FrameDecoder::default();
        dec.extend(b"#1");
        assert!(dec.peek(1024).unwrap().is_none());
        assert!(dec.is_mid_frame());
        dec.extend(b"0\n12345");
        assert!(dec.peek(1024).unwrap().is_none(), "body incomplete");
        dec.extend(b"67890");
        let (s, e) = dec.peek(1024).unwrap().unwrap();
        assert_eq!(&dec.bytes()[s..e], b"1234567890");
    }

    #[test]
    fn write_buf_tracks_partial_writes() {
        let mut wb = WriteBuf::default();
        wb.append_frame("abc");
        assert_eq!(wb.pending(), b"#3\nabc");
        wb.advance(2);
        assert_eq!(wb.pending(), b"\nabc");
        wb.append_frame("");
        assert_eq!(wb.pending(), b"\nabc#0\n");
        wb.advance(wb.pending_len());
        assert_eq!(wb.pending_len(), 0);
    }
}
