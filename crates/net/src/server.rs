//! The serving side: one acceptor plus a small fixed pool of event-loop
//! threads, each driving many connections' state machines over
//! nonblocking sockets — thousands of connections cost buffers, not
//! threads.
//!
//! ## Threading model
//!
//! * **Accept thread** — polls a nonblocking listener (via
//!   [`crate::poll::Poller`]), sets each accepted socket nonblocking,
//!   and deals it round-robin to a worker's inbox.
//! * **Event-loop workers** — a fixed pool ([`ServerConfig::event_threads`],
//!   default = available parallelism). Each worker owns its
//!   connections outright (no locks on the data path) and, per
//!   readiness cycle: reads whatever arrived, feeds the incremental
//!   frame decoder, dispatches complete requests to the shared
//!   [`Fleet`] **without waiting** (queries hand back unsettled
//!   [`sofia_fleet::QueryTicket`]s — that is the pipelining), settles
//!   completions strictly in request order via `try_take`, and flushes reply
//!   bytes until the socket would block. Between cycles it parks in a
//!   single `poll`, woken early by the acceptor or wind-down.
//!
//! Total server threads are `pool + 1` regardless of connection count
//! ([`Server::thread_count`]); the old model spent two threads per
//! connection.
//!
//! ## Backpressure
//!
//! A connection's outgoing bytes and unsettled completions are both
//! bounded: past either bound the server stops reading from that
//! connection until the peer drains its replies. A slow reader
//! therefore throttles itself — it can never grow server memory
//! without bound or starve other connections (each gets a bounded
//! read budget per cycle).
//!
//! ## Shutdown
//!
//! A client `shutdown` frame requests a graceful stop: [`Server::run`]
//! notices, stops accepting, marks every connection draining (no more
//! reads; queued replies still settle and flush, for at most five
//! seconds), joins the pool, and finally calls
//! [`Fleet::shutdown`] — every queue drained, final checkpoints
//! written. [`Server::abort`] is the crash-faithful opposite
//! (connections torn down both ways, [`Fleet::abort`], no final
//! checkpoints), which is what the loopback crash-recovery test
//! exercises.

use crate::conn::{BatchSlot, Completion, Conn};
use crate::poll::{listener_id, socket_id, Event, Interest, Poller, Waker};
use crate::stats::{push_net_stats, NetMetrics};
use crate::wire::{err_body, ok_body, push_fleet_stats, Request, ShardMap};
use sofia_fleet::durability::restore_handle;
use sofia_fleet::{Fleet, FleetError, IngestError};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker parks when nothing is in flight (a waker or
/// readiness event interrupts it early).
const IDLE_POLL: Duration = Duration::from_millis(200);

/// Poll timeout while some connection's front completion waits on an
/// in-flight ticket: tickets settle on shard threads, which nothing in
/// this loop observes, so the worker re-polls on a short leash.
const TICKET_POLL: Duration = Duration::from_micros(500);

/// Poll timeout while draining on shutdown (replies still settling).
const DRAIN_TICK: Duration = Duration::from_millis(5);

/// Accept-loop park time (the wind-down waker interrupts it).
const ACCEPT_POLL: Duration = Duration::from_millis(200);

/// Bounded busy-wait (sched-yield) on unsettled tickets before parking
/// in the poller: a single pipelined query settles in tens of
/// microseconds, and going straight to a timed sleep would put that
/// whole sleep on the round-trip.
const SPIN_YIELDS: usize = 128;

/// Cap on back-to-back service passes while connections stay ready
/// (work a pass could do without waiting, e.g. a read budget exhausted
/// with bytes still buffered); after this many the worker re-polls with
/// a zero timeout so other events get noticed.
const MAX_SERVICE_ROUNDS: usize = 8;

/// Read chunk size (one `read(2)` call's buffer, reused per worker).
const READ_CHUNK: usize = 16 * 1024;

/// Bound on the graceful-shutdown drain: connections whose queued
/// replies have not settled and flushed by then are torn down.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Capacity of the slow-request ring; the oldest record is evicted (and
/// counted in [`crate::NetStats::slow_dropped`]) when full.
const SLOW_RING_CAPACITY: usize = 64;

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The name this node goes by: the endpoint advertised in a
    /// single-node handshake map, and the name checked against a
    /// [`ServerConfig::cluster`] map's membership. Defaults to the
    /// bound address; set it when clients reach the server through a
    /// different name, e.g. a hostname instead of `0.0.0.0`.
    pub advertise: Option<String>,
    /// The full cluster ownership table to advertise in the handshake
    /// instead of the default single-node map. A node launched from a
    /// cluster spec (`sofia-cli cluster` passes each `serve` process
    /// the whole endpoint list) serves the same multi-endpoint map from
    /// every member, so a [`crate::ClusterClient`] can bootstrap its
    /// routing from any one seed address. The map must contain this
    /// node's advertised name ([`ServerConfig::advertise`], default the
    /// bound address) — advertising a map that never routes here would
    /// strand every stream this node owns, so [`Server::bind_with`]
    /// rejects it. This is the launch-time table only: a coordinator's
    /// `remap` (sent by [`crate::ClusterClient::publish_map`] after
    /// every slot flip) replaces the served map, and later handshakes
    /// carry the replacement (see [`crate::cluster`]).
    pub cluster: Option<ShardMap>,
    /// Event-loop worker threads. `None` (the default) uses available
    /// parallelism; the count is fixed at bind time — connections never
    /// add threads.
    pub event_threads: Option<usize>,
    /// High-water mark for one connection's buffered outgoing bytes.
    /// Past it the server stops reading from (and settling replies
    /// into) that connection until the peer drains; the buffer may
    /// overshoot by at most one frame.
    pub write_buffer_bytes: usize,
    /// Slow-request threshold in microseconds: a request whose
    /// wire-to-settle latency reaches it is captured in the bounded
    /// slow-request ring (queryable via the `metrics` verb /
    /// [`crate::Client::metrics`]). `0` captures every request —
    /// useful for smoke tests, expensive in allocation terms.
    pub slow_request_us: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            advertise: None,
            cluster: None,
            event_threads: None,
            write_buffer_bytes: 256 * 1024,
            slow_request_us: 10_000,
        }
    }
}

pub(crate) struct Shared {
    pub(crate) fleet: Fleet,
    /// The ownership table this node serves and fences by. Behind a
    /// lock because a `remap` frame replaces it at runtime; the
    /// request path takes short read guards only.
    pub(crate) map: RwLock<ShardMap>,
    /// The name this node goes by in shard maps — ownership fencing
    /// compares map entries against it.
    pub(crate) advertise: String,
    pub(crate) config: ServerConfig,
    /// The live node-health collector behind the `metrics` verb.
    pub(crate) metrics: NetMetrics,
    /// Tells the acceptor and workers to wind down (gracefully).
    stop: AtomicBool,
    /// Crash-faithful teardown: workers drop connections immediately,
    /// queued replies and all.
    hard_stop: AtomicBool,
    /// Set when a client sent a `shutdown` frame; [`Server::run`] polls it.
    shutdown_requested: AtomicBool,
}

/// Streams the acceptor dealt to one worker, awaiting adoption.
#[derive(Default)]
struct Inbox {
    queue: Mutex<Vec<TcpStream>>,
}

impl Inbox {
    fn push(&self, stream: TcpStream) {
        self.queue.lock().expect("inbox lock").push(stream);
    }

    fn drain(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.queue.lock().expect("inbox lock"))
    }
}

/// The acceptor's handle on one worker: where to put a new connection,
/// and how to wake the worker to adopt it.
struct WorkerHandle {
    inbox: Arc<Inbox>,
    waker: Waker,
}

/// A TCP front end over a running [`Fleet`].
///
/// Dropping a live `Server` winds its threads down and lets the fleet's
/// own `Drop` perform a graceful in-process shutdown; call
/// [`Server::shutdown`] explicitly to observe the final checkpoint
/// count, or [`Server::abort`] for a crash-faithful teardown.
pub struct Server {
    /// `None` only after wind-down (shutdown/abort/drop).
    shared: Option<Arc<Shared>>,
    addr: SocketAddr,
    /// Workers first, acceptor last.
    threads: Vec<JoinHandle<()>>,
    /// One waker per thread, so wind-down interrupts parked polls.
    wakers: Vec<Waker>,
    pool: usize,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `fleet`. The fleet keeps all its in-process
    /// behaviour — this adds a wire on top.
    pub fn bind(addr: impl ToSocketAddrs, fleet: Fleet) -> io::Result<Server> {
        Server::bind_with(addr, fleet, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit tunables.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        fleet: Fleet,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // A cluster member advertises the spec's full ownership table;
        // a standalone server advertises itself as the owner of every
        // route.
        let advertised = config.advertise.clone().unwrap_or_else(|| addr.to_string());
        let map = match config.cluster.clone() {
            Some(map) => {
                // A map that never routes to this node would strand its
                // streams behind wrong addresses on every bootstrapped
                // client; refuse at the API boundary.
                if !map.distinct_endpoints().contains(&advertised.as_str()) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "cluster map does not contain this node's advertised \
                             address `{advertised}` (set ServerConfig::advertise \
                             when it differs from the bound address)"
                        ),
                    ));
                }
                map
            }
            None => ShardMap::single_node(&advertised, fleet.shards()),
        };
        let pool = config
            .event_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1);
        let metrics = NetMetrics::new(pool, config.slow_request_us, SLOW_RING_CAPACITY);
        let shared = Arc::new(Shared {
            fleet,
            map: RwLock::new(map),
            advertise: advertised,
            config,
            metrics,
            stop: AtomicBool::new(false),
            hard_stop: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
        });
        let mut threads = Vec::with_capacity(pool + 1);
        let mut wakers = Vec::with_capacity(pool + 1);
        let mut handles = Vec::with_capacity(pool);
        for i in 0..pool {
            // The poller (and its waker) is created here so the
            // acceptor can wake the worker; the poller then moves into
            // the worker thread.
            let poller = Poller::new()?;
            let inbox = Arc::new(Inbox::default());
            wakers.push(poller.waker());
            handles.push(WorkerHandle {
                inbox: Arc::clone(&inbox),
                waker: poller.waker(),
            });
            let worker_shared = Arc::clone(&shared);
            let t = std::thread::Builder::new()
                .name(format!("sofia-net-loop-{i}"))
                .spawn(move || worker_loop(worker_shared, poller, inbox, i))
                .expect("spawn event-loop worker");
            threads.push(t);
        }
        let accept_poller = Poller::new()?;
        wakers.push(accept_poller.waker());
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("sofia-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, handles, accept_poller))
            .expect("spawn accept thread");
        threads.push(accept);
        Ok(Server {
            shared: Some(shared),
            addr,
            threads,
            wakers,
            pool,
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The ownership table clients receive at handshake (a snapshot —
    /// a concurrent `remap` frame may replace the live one).
    pub fn shard_map(&self) -> ShardMap {
        self.shared().map.read().expect("map lock").clone()
    }

    /// Whether a client has asked the server to shut down.
    pub fn shutdown_requested(&self) -> bool {
        self.shared().shutdown_requested.load(Ordering::Acquire)
    }

    /// Size of the event-loop pool.
    pub fn event_threads(&self) -> usize {
        self.pool
    }

    /// Total serving threads: the pool plus the acceptor. Constant for
    /// the server's lifetime — connections never add threads (the soak
    /// test in `tests/soak.rs` asserts exactly this).
    pub fn thread_count(&self) -> usize {
        self.pool + 1
    }

    fn shared(&self) -> &Shared {
        self.shared
            .as_ref()
            .expect("server is live until wind-down")
    }

    /// Serves until a client sends a `shutdown` frame, then drains and
    /// exits gracefully. Returns the number of final checkpoints
    /// written.
    pub fn run(self) -> Result<usize, FleetError> {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.shutdown()
    }

    /// Graceful shutdown: stop accepting, drain every connection
    /// (queued replies still settle and go out), join the pool, then
    /// shut the fleet down (drains queues, writes final checkpoints).
    /// Returns the checkpoint count.
    pub fn shutdown(mut self) -> Result<usize, FleetError> {
        match self.wind_down(Shutdown::Read) {
            Some(shared) => shared.fleet.shutdown(),
            // Unreachable from public API (wind-down runs once); kept
            // typed rather than panicking.
            None => Err(FleetError::ShuttingDown),
        }
    }

    /// Crash-faithful teardown: connections torn down both ways
    /// (queued replies discarded), the fleet aborted with **no** final
    /// checkpoints — on-disk state is exactly what the periodic policy
    /// made durable, as after a real crash. Exists so crash recovery
    /// can be tested over the wire.
    pub fn abort(mut self) {
        if let Some(shared) = self.wind_down(Shutdown::Both) {
            shared.fleet.abort();
        }
    }

    /// Stops threads and returns exclusive ownership of the shared
    /// state (all other `Arc` holders have exited). `None` if wind-down
    /// already ran.
    fn wind_down(&mut self, how: Shutdown) -> Option<Shared> {
        let shared = self.shared.take()?;
        if how == Shutdown::Both {
            shared.hard_stop.store(true, Ordering::Release);
        }
        shared.stop.store(true, Ordering::Release);
        for waker in &self.wakers {
            waker.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // With every thread joined this is the last holder; if it ever
        // is not, the Arc's own drop still shuts the fleet down
        // gracefully.
        Arc::try_unwrap(shared).ok()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort wind-down when the caller never called
        // `shutdown()`: stop the threads, then let the fleet's Drop
        // (running as the Arc releases) do its graceful in-process
        // shutdown. Errors are unreportable here.
        let _ = self.wind_down(Shutdown::Read);
    }
}

/// Accepts connections and deals them round-robin to worker inboxes.
fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: Vec<WorkerHandle>,
    mut poller: Poller,
) {
    let interests = [Interest {
        token: 0,
        socket: listener_id(&listener),
        read: true,
        write: false,
    }];
    let mut events: Vec<Event> = Vec::new();
    let mut next = 0usize;
    let mut seen_wakeups = 0u64;
    while !shared.stop.load(Ordering::Acquire) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.set_nodelay(true);
                    // Accepted sockets do not inherit the listener's
                    // nonblocking mode portably, and the event loop is
                    // built on nonblocking I/O: a socket we cannot
                    // configure we must not serve.
                    if stream.set_nonblocking(true).is_err() {
                        shared.metrics.closed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let worker = &workers[next];
                    worker.inbox.push(stream);
                    worker.waker.wake();
                    next = (next + 1) % workers.len();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Transient accept failure (e.g. fd pressure): back off
                // to the poll below rather than spinning.
                Err(_) => break,
            }
        }
        shared
            .metrics
            .poll_iterations
            .fetch_add(1, Ordering::Relaxed);
        let _ = poller.poll(&interests, ACCEPT_POLL, &mut events);
        publish_wakeups(&shared, &poller, &mut seen_wakeups);
    }
}

/// Folds a poller's monotonically growing wake count into the shared
/// counter (each loop publishes only the delta since its last poll).
fn publish_wakeups(shared: &Shared, poller: &Poller, seen: &mut u64) {
    let total = poller.wakeups();
    shared
        .metrics
        .wakeups
        .fetch_add(total - *seen, Ordering::Relaxed);
    *seen = total;
}

/// One event-loop worker: owns a slab of connections and drives their
/// state machines off readiness events.
fn worker_loop(shared: Arc<Shared>, mut poller: Poller, inbox: Arc<Inbox>, worker: usize) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut interests: Vec<Interest> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut read_buf = vec![0u8; READ_CHUNK];
    let mut draining = false;
    let mut drain_deadline = Instant::now();
    let mut seen_wakeups = 0u64;
    loop {
        // Adopt newly accepted connections (slab slot index = token).
        for stream in inbox.drain() {
            if shared.stop.load(Ordering::Acquire) {
                let _ = stream.shutdown(Shutdown::Both);
                shared.metrics.closed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let conn = Conn::new(stream, worker, shared.metrics.next_conn_id());
            shared.metrics.active.fetch_add(1, Ordering::Relaxed);
            match conns.iter().position(Option::is_none) {
                Some(slot) => conns[slot] = Some(conn),
                None => conns.push(Some(conn)),
            }
        }
        if shared.stop.load(Ordering::Acquire) && !draining {
            draining = true;
            drain_deadline = Instant::now() + DRAIN_TIMEOUT;
            for conn in conns.iter_mut().flatten() {
                conn.begin_drain();
            }
        }
        if shared.hard_stop.load(Ordering::Acquire)
            || (draining && Instant::now() >= drain_deadline)
        {
            for conn in conns.iter_mut().flatten() {
                conn.teardown();
                shared.metrics.active.fetch_sub(1, Ordering::Relaxed);
                shared.metrics.closed.fetch_add(1, Ordering::Relaxed);
            }
            conns.clear();
        }
        // Service passes: each connection reads (budget-bounded, for
        // fairness), decodes, dispatches, settles, flushes. Re-pass
        // while any connection has work it could do right now.
        let mut ready = false;
        let mut ticket_blocked = false;
        for round in 0..MAX_SERVICE_ROUNDS {
            ready = false;
            ticket_blocked = false;
            for conn in conns.iter_mut().flatten() {
                let outcome = conn.pump(&shared, &mut read_buf);
                ready |= outcome.ready;
                ticket_blocked |= outcome.ticket_blocked;
            }
            if !ready || round + 1 == MAX_SERVICE_ROUNDS {
                break;
            }
        }
        // Tickets settle on shard threads within microseconds under
        // load; a bounded yield-spin picks those up without putting a
        // timed sleep on every round-trip. The poll timeout below is
        // chosen from the state the last settle and flush left.
        let mut spins = 0;
        while ticket_blocked && !ready && spins < SPIN_YIELDS {
            spins += 1;
            std::thread::yield_now();
            ticket_blocked = false;
            for conn in conns.iter_mut().flatten() {
                let outcome = conn.settle_and_flush(&shared);
                ready |= outcome.ready;
                ticket_blocked |= outcome.ticket_blocked;
            }
        }
        // Reap finished connections; the peer sees EOF.
        for slot in conns.iter_mut() {
            if slot.as_ref().is_some_and(Conn::finished) {
                if let Some(mut conn) = slot.take() {
                    conn.teardown();
                    shared.metrics.active.fetch_sub(1, Ordering::Relaxed);
                    shared.metrics.closed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        while conns.last().is_some_and(Option::is_none) {
            conns.pop();
        }
        if draining && conns.is_empty() {
            break;
        }
        // Register interests and park. Backpressured connections drop
        // their read interest here — that is the "stop reading" half of
        // the write-buffer contract.
        interests.clear();
        for (token, slot) in conns.iter_mut().enumerate() {
            let Some(conn) = slot else { continue };
            let read = conn.wants_read(&shared);
            let write = conn.wants_write();
            // A live connection losing its read interest is the
            // backpressure contract firing — count each onset.
            if conn.note_read_interest(read) {
                shared
                    .metrics
                    .read_interest_drops
                    .fetch_add(1, Ordering::Relaxed);
            }
            if read || write {
                interests.push(Interest {
                    token,
                    socket: socket_id(conn.socket()),
                    read,
                    write,
                });
            }
        }
        let timeout = if ready {
            Duration::ZERO
        } else if ticket_blocked {
            TICKET_POLL
        } else if draining {
            DRAIN_TICK
        } else {
            IDLE_POLL
        };
        shared
            .metrics
            .poll_iterations
            .fetch_add(1, Ordering::Relaxed);
        if poller.poll(&interests, timeout, &mut events).is_err() {
            // Poll failures are not actionable here; back off so a
            // persistent one cannot spin the core.
            std::thread::sleep(Duration::from_millis(1));
        }
        publish_wakeups(&shared, &poller, &mut seen_wakeups);
        for ev in &events {
            if let Some(Some(conn)) = conns.get_mut(ev.token) {
                conn.on_event(ev.readable);
            }
        }
    }
    // Streams dealt to this worker after it began draining close as the
    // inbox drops (the peer sees EOF).
    for stream in inbox.drain() {
        let _ = stream.shutdown(Shutdown::Both);
        shared.metrics.closed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Builds the `stale-epoch` err reply: the typed error line carrying
/// the server's epoch, followed by the server's full current map as the
/// payload — so one reject is also the map hand-off that lets the
/// sender catch up without another round trip.
fn stale_epoch_body(id: u64, map: &ShardMap) -> String {
    let mut body = err_body(id, &FleetError::StaleEpoch { epoch: map.epoch() });
    map.push_wire(&mut body);
    body
}

/// The wire form of an ingest slice refused by [`Fleet::check_slice`]:
/// an `invalid-query` naming the slice's sequence number.
fn non_finite(seq: u64, e: &IngestError) -> FleetError {
    FleetError::InvalidQuery {
        reason: format!("ingest slice {seq}: {e}"),
    }
}

/// The cluster fencing gate, applied before a stream-addressed request
/// touches the fleet. Returns the reject reply body, or `None` when
/// the request may proceed. The shard-map epoch is the one ownership
/// fence, and a request carrying an `@<epoch>` token is *fenced*: it
/// gets exactly two checks, each answered by a `stale-epoch` reject
/// carrying the current map.
///
/// * **Epoch** — any mismatch with the server's map epoch (older *or*
///   newer — a newer sender should push its map via `remap` first).
/// * **Ownership** — `owned` is the stream of a fenced `query` or
///   `ingest`; one this node does not own under its own map is
///   rejected even at a matching epoch. This is what keeps a restarted
///   node's stale copies unreachable after a post-flip crash: once the
///   node learns the current map, fenced requests for migrated streams
///   bounce to the real owner. Every other verb passes `None`: a
///   migration registers on the target before the flip and snapshots
///   and deregisters on the source around it, and a batch is fenced at
///   its head only.
///
/// Epoch-free requests are never fenced (the pre-autonomy
/// compatibility contract), so only producers whose map carries an
/// epoch are protected; such a request returns before the map lock.
fn fence(shared: &Shared, id: u64, epoch: Option<u64>, owned: Option<&str>) -> Option<String> {
    let epoch = epoch?;
    let map = shared.map.read().expect("map lock");
    if epoch != map.epoch() || owned.is_some_and(|s| map.endpoint_of(s) != shared.advertise) {
        return Some(stale_epoch_body(id, &map));
    }
    None
}

/// Executes one request against the fleet, returning the queued
/// completion, the stream name the request addressed (moved out of the
/// parsed request so slow-request records never clone), and whether the
/// connection keeps reading (`false` ends it after the queued reply
/// goes out).
pub(crate) fn dispatch(req: Request, shared: &Shared) -> (Completion, Option<String>, bool) {
    let fleet = &shared.fleet;
    match req {
        Request::Hello { .. } => {
            // A second handshake is a protocol error; answer and close.
            (
                Completion::Ready(err_body(
                    0,
                    &FleetError::InvalidQuery {
                        reason: "duplicate `hello`".to_string(),
                    },
                )),
                None,
                false,
            )
        }
        Request::Query {
            id,
            epoch,
            stream,
            query,
        } => {
            if let Some(reject) = fence(shared, id, epoch, Some(&stream)) {
                return (Completion::Ready(reject), Some(stream), true);
            }
            let completion = match fleet.query(&stream, query) {
                Ok(ticket) => Completion::Query { id, ticket },
                Err(e) => Completion::Ready(err_body(id, &e)),
            };
            (completion, Some(stream), true)
        }
        Request::QueryBatch { id, epoch, items } => {
            // Batches are fenced at the head only (items may span
            // slots); per-stream ownership misses surface as the
            // owning node's item errors on retry paths.
            if let Some(reject) = fence(shared, id, epoch, None) {
                return (Completion::Ready(reject), None, true);
            }
            let refs: Vec<(&str, sofia_fleet::Query)> =
                items.iter().map(|(s, q)| (s.as_str(), q.clone())).collect();
            let completion = match fleet.query_batch_tickets(&refs) {
                Ok(tickets) => Completion::Batch {
                    id,
                    slots: tickets
                        .into_iter()
                        .map(|t| match t {
                            Ok(ticket) => BatchSlot::Pending(ticket),
                            Err(e) => BatchSlot::Done(Err(e)),
                        })
                        .collect(),
                },
                Err(e) => Completion::Ready(err_body(id, &e)),
            };
            (completion, None, true)
        }
        Request::Register {
            id,
            epoch,
            stream,
            envelope,
        } => {
            if let Some(reject) = fence(shared, id, epoch, None) {
                return (Completion::Ready(reject), Some(stream), true);
            }
            let registered = restore_handle(&stream, &envelope)
                .and_then(|handle| fleet.register(&stream, handle));
            let body = match registered {
                // Persist the arrival before acknowledging, and tell
                // the client whether that happened: a migration
                // coordinator deletes the source's checkpoint on this
                // reply, so it must know if this fleet persisted
                // nothing (no checkpoint policy / transient model). A
                // failed write undoes the registration — better a typed
                // error (and an aborted migration) than a stream whose
                // only durable copy is about to be removed.
                Ok(_key) => match fleet.checkpoint_stream(&stream) {
                    Ok(durable) => ok_body(id, |out| {
                        use std::fmt::Write as _;
                        let _ = writeln!(out, "durable {durable}");
                    }),
                    Err(e) => {
                        let _ = fleet.deregister(&stream);
                        err_body(id, &e)
                    }
                },
                Err(e) => err_body(id, &e),
            };
            (Completion::Ready(body), Some(stream), true)
        }
        Request::Ingest {
            id,
            epoch,
            stream,
            slices,
        } => {
            if let Some(reject) = fence(shared, id, epoch, Some(&stream)) {
                return (Completion::Ready(reject), Some(stream), true);
            }
            // Every slice passes the ingest check before any applies,
            // so a frame with one bad slice never half-applies.
            for (seq, slice) in &slices {
                if let Err(e) = Fleet::check_slice(slice) {
                    let body = err_body(id, &non_finite(*seq, &e));
                    return (Completion::Ready(body), Some(stream), true);
                }
            }
            // Slices apply in seq order. The first backpressure stops
            // the batch — applying later slices would reorder the
            // stream — and every unapplied seq is handed back, exactly
            // the information `try_ingest`'s slice hand-back carries
            // in-process (the client still holds the slices).
            let mut accepted = 0u64;
            let mut rejected: Vec<u64> = Vec::new();
            let mut failure: Option<FleetError> = None;
            let mut pending = slices.into_iter();
            for (seq, slice) in pending.by_ref() {
                match fleet.try_ingest_id(&stream, slice) {
                    Ok(()) => accepted += 1,
                    Err(IngestError::Backpressure(_returned)) => {
                        rejected.push(seq);
                        break;
                    }
                    Err(IngestError::UnknownStream(s)) => {
                        failure = Some(FleetError::UnknownStream(s));
                        break;
                    }
                    Err(IngestError::ShuttingDown) => {
                        failure = Some(FleetError::ShuttingDown);
                        break;
                    }
                    Err(e @ IngestError::NonFinite { .. }) => {
                        failure = Some(non_finite(seq, &e));
                        break;
                    }
                }
            }
            let body = match failure {
                Some(e) => err_body(id, &e),
                None => {
                    rejected.extend(pending.map(|(seq, _)| seq));
                    ok_body(id, |out| {
                        use std::fmt::Write as _;
                        let _ = writeln!(out, "accepted {accepted}");
                        out.push_str("backpressure");
                        for seq in &rejected {
                            let _ = write!(out, " {seq}");
                        }
                        out.push('\n');
                    })
                }
            };
            (Completion::Ready(body), Some(stream), true)
        }
        Request::Snapshot { id, epoch, stream } => {
            if let Some(reject) = fence(shared, id, epoch, None) {
                return (Completion::Ready(reject), Some(stream), true);
            }
            // The reply payload IS the checkpoint envelope — exactly
            // what a `register` frame on another server accepts, so
            // snapshot → register → deregister moves a stream.
            let body = match fleet.export_stream(&stream) {
                Ok(envelope) => ok_body(id, |out| out.push_str(&envelope)),
                Err(e) => err_body(id, &e),
            };
            (Completion::Ready(body), Some(stream), true)
        }
        Request::Deregister { id, epoch, stream } => {
            if let Some(reject) = fence(shared, id, epoch, None) {
                return (Completion::Ready(reject), Some(stream), true);
            }
            let body = match fleet.deregister(&stream) {
                Ok(()) => ok_body(id, |_| {}),
                Err(e) => err_body(id, &e),
            };
            (Completion::Ready(body), Some(stream), true)
        }
        Request::Remap { id, map: new_map } => {
            // Strictly-greater-epoch installs only: equal or older maps
            // are the sender's problem (it gets the current map back in
            // the reject and can adopt it instead).
            let mut map = shared.map.write().expect("map lock");
            let body = if new_map.epoch() > map.epoch() {
                *map = new_map;
                ok_body(id, |_| {})
            } else {
                stale_epoch_body(id, &map)
            };
            (Completion::Ready(body), None, true)
        }
        Request::Streams { id } => {
            // Unfiltered: slot membership is the coordinator's call,
            // made with its own map (this node's may lag behind it).
            let ids = fleet.stream_ids();
            let body = ok_body(id, |out| {
                use std::fmt::Write as _;
                let _ = writeln!(out, "streams {}", ids.len());
                for s in &ids {
                    let _ = writeln!(out, "stream {}", crate::wire::encode_stream_id(s));
                }
            });
            (Completion::Ready(body), None, true)
        }
        Request::Flush { id } => {
            let body = match fleet.flush() {
                Ok(()) => ok_body(id, |_| {}),
                Err(e) => err_body(id, &e),
            };
            (Completion::Ready(body), None, true)
        }
        Request::Stats { id } => {
            let body = match fleet.fleet_stats() {
                Ok(stats) => ok_body(id, |out| push_fleet_stats(out, &stats)),
                Err(e) => err_body(id, &e),
            };
            (Completion::Ready(body), None, true)
        }
        Request::Metrics { id } => {
            // The snapshot is taken on the worker thread serving the
            // request; counters are relaxed-atomic and the settle
            // summaries fold in fixed worker order, so two nodes'
            // reports merge bit-exactly regardless of who asks.
            let stats = shared.metrics.snapshot();
            (
                Completion::Ready(ok_body(id, |out| push_net_stats(out, &stats))),
                None,
                true,
            )
        }
        Request::Shutdown { id } => {
            shared.shutdown_requested.store(true, Ordering::Release);
            // Close this connection (after the queued ok flushes);
            // `Server::run` drives the rest.
            (Completion::Ready(ok_body(id, |_| {})), None, false)
        }
    }
}
