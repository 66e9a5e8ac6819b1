//! Loopback integration tests: a real `Server` on `127.0.0.1:0`, a real
//! `Client`, and the engine's strongest guarantees re-proven **across
//! the wire**:
//!
//! * SOFIA streams registered over the socket (checkpoints as
//!   the model wire form), ingested over the socket, then
//!   crashed (`Server::abort`) and restarted from the same checkpoint
//!   directory — with forecasts **bit-exact** against an in-process
//!   fleet fed the identical slices (the `recovery.rs` scenario, over
//!   TCP);
//! * pipelined queries on one socket, settled in request order;
//! * flush as the read-your-writes barrier over TCP;
//! * partially observed, corrupted slices over the socket: every
//!   `Latest` (completed and outliers), `Forecast` and `OutlierMask` the
//!   client rebuilds from the factored replies has the in-process bits;
//! * malformed frames, bodies and `register` payloads: typed errors,
//!   not panics — including a vendored-proptest fuzz over random byte
//!   lines.

use sofia_core::config::SofiaConfig;
use sofia_core::Sofia;
use sofia_datagen::corrupt::{CorruptionConfig, Corruptor};
use sofia_datagen::seasonal::SeasonalStream;
use sofia_datagen::stream::TensorStream;
use sofia_fleet::{
    CheckpointPolicy, Fleet, FleetConfig, FleetError, ModelHandle, Query, QueryResponse,
};
use sofia_net::wire::{ok_body, read_frame, write_frame, Request, ShardMap};
use sofia_net::{Client, ClientError, Server, ServerConfig};
use sofia_tensor::{DenseTensor, Mask, ObservedTensor, Shape};
use std::path::PathBuf;
use std::time::Duration;

const PERIOD: usize = 4;
const RANK: usize = 2;
/// Streams served in the crash-recovery scenario.
const STREAMS: usize = 4;
const PRE_CRASH: usize = 5;
const TOTAL: usize = 9;
/// Not dividing PRE_CRASH, so the crash loses a tail that recovery must
/// replay.
const EVERY: u64 = 2;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sofia-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> SofiaConfig {
    SofiaConfig::new(RANK, PERIOD)
        .with_lambdas(0.01, 0.01, 10.0)
        .with_als_limits(1e-4, 2, 50)
}

fn slices(i: usize) -> (Vec<ObservedTensor>, Vec<ObservedTensor>) {
    let s = SeasonalStream::paper_fig2(&[4, 3], RANK, PERIOD, 300 + i as u64);
    let t0 = 3 * PERIOD;
    let startup = (0..t0)
        .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
        .collect();
    let streamed = (t0..t0 + TOTAL)
        .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
        .collect();
    (startup, streamed)
}

/// Stream `i`'s SOFIA model, deterministic so the wire fleet and the
/// in-process control fleet start identical.
fn handle(i: usize, startup: &[ObservedTensor]) -> ModelHandle {
    ModelHandle::sofia(Sofia::init(&config(), startup, 7 + i as u64).expect("init"))
}

fn fleet_config(dir: &PathBuf) -> FleetConfig {
    FleetConfig {
        shards: 2,
        queue_capacity: 64,
        checkpoint: Some(CheckpointPolicy::new(dir, EVERY)),
        evict_idle_after: None,
    }
}

fn expect_forecast(resp: QueryResponse) -> Vec<u64> {
    bits(&resp.expect_forecast().expect("SOFIA forecasts"))
}

/// A tensor's bit patterns: `assert_eq!` on `f64` values would pass
/// `-0.0 == 0.0` and fail on NaN.
fn bits(t: &DenseTensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A `Latest` answer's completed and outlier tensors, as bits.
fn expect_latest(resp: QueryResponse) -> (Vec<u64>, Vec<u64>) {
    let step = resp.expect_latest().expect("stepped");
    let outliers = step.outliers.expect("SOFIA reports outliers");
    (bits(&step.completed), bits(&outliers))
}

/// The acceptance scenario: register + ingest over the socket, crash,
/// restart from the same checkpoint dir, replay, and compare bit-exact
/// against an in-process fleet that never crashed.
#[test]
fn wire_crash_recovery_matches_in_process_fleet_bit_exactly() {
    let dir = tempdir("crash");

    // --- In-process control fleet: same models, same slices, no crash,
    // no network.
    let control = Fleet::new(FleetConfig {
        shards: 2,
        queue_capacity: 64,
        checkpoint: None,
        evict_idle_after: None,
    })
    .expect("control fleet");
    let mut streamed_slices = Vec::new();
    for i in 0..STREAMS {
        let (startup, streamed) = slices(i);
        control
            .register(&format!("net-{i}"), handle(i, &startup))
            .expect("register control");
        streamed_slices.push(streamed);
    }
    for t in 0..TOTAL {
        for (i, streamed) in streamed_slices.iter().enumerate() {
            control
                .try_ingest_id(&format!("net-{i}"), streamed[t].clone())
                .expect("control ingest");
        }
    }
    control.flush().expect("control flush");

    // --- Wire fleet: an empty engine behind a TCP server; streams are
    // registered by shipping checkpoints over the socket.
    let server = Server::bind(
        "127.0.0.1:0",
        Fleet::new(fleet_config(&dir)).expect("fleet"),
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.shard_map().shards(), 2);
    assert_eq!(client.shard_map().endpoint_of("anything"), addr.to_string());

    for i in 0..STREAMS {
        let (startup, _) = slices(i);
        client
            .register(&format!("net-{i}"), &handle(i, &startup))
            .expect("register over the wire");
    }
    // Registering the same id again is a typed error, not a hang.
    let (startup0, _) = slices(0);
    match client.register("net-0", &handle(0, &startup0)) {
        Err(ClientError::Fleet(FleetError::DuplicateStream(id))) => assert_eq!(id, "net-0"),
        other => panic!("expected DuplicateStream, got {other:?}"),
    }

    // Ingest the pre-crash slices over the socket (batched, seq-tagged).
    for (i, streamed) in streamed_slices.iter().enumerate() {
        let batch: Vec<ObservedTensor> = streamed[..PRE_CRASH].to_vec();
        client
            .ingest_blocking(&format!("net-{i}"), batch)
            .expect("wire ingest");
    }
    // flush = read-your-writes over TCP: after it, steps are visible.
    client.flush().expect("flush");
    for i in 0..STREAMS {
        let stats = client
            .query(&format!("net-{i}"), Query::StreamStats)
            .expect("stats")
            .expect_stream_stats();
        assert_eq!(stats.steps, PRE_CRASH as u64, "net-{i} steps visible");
        assert_eq!(stats.model, "SOFIA", "net-{i} kind");
    }

    // --- Crash: no drain, no final checkpoints; only the periodic
    // checkpoints (latest boundary: floor(5/2)*2 = 4) survive.
    server.abort();

    // --- Restart a fresh server from the same checkpoint directory.
    let (recovered, n) = Fleet::recover(fleet_config(&dir)).expect("recover");
    assert_eq!(n, STREAMS, "every stream restored from disk");
    let server = Server::bind("127.0.0.1:0", recovered).expect("rebind");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");

    // Replay the lost tail and continue past the crash point, all over
    // the socket.
    let boundary = ((PRE_CRASH as u64 / EVERY) * EVERY) as usize;
    for (i, streamed) in streamed_slices.iter().enumerate() {
        let id = format!("net-{i}");
        let stats = client
            .query(&id, Query::StreamStats)
            .expect("stats")
            .expect_stream_stats();
        assert_eq!(stats.steps as usize, boundary, "{id} resumed at boundary");
        let tail: Vec<ObservedTensor> = streamed[boundary..].to_vec();
        client.ingest_blocking(&id, tail).expect("replay");
    }
    client.flush().expect("flush");

    // --- The decisive assertion: forecasts served over TCP from the
    // crashed-and-recovered fleet are bit-identical to the in-process
    // fleet that never crashed (and never touched a socket).
    for i in 0..STREAMS {
        let id = format!("net-{i}");
        let over_wire = expect_forecast(
            client
                .query(&id, Query::Forecast { horizon: 3 })
                .expect("wire forecast"),
        );
        let in_process = expect_forecast(
            control
                .query(&id, Query::Forecast { horizon: 3 })
                .expect("query")
                .wait()
                .expect("control forecast"),
        );
        assert_eq!(over_wire, in_process, "{id}: wire vs in-process forecast");
        // Latest completed slices and outliers agree bit-exactly too.
        let wire_latest = expect_latest(client.query(&id, Query::Latest).expect("latest"));
        let control_latest = expect_latest(
            control
                .query(&id, Query::Latest)
                .expect("query")
                .wait()
                .expect("latest"),
        );
        assert_eq!(wire_latest, control_latest, "{id}: latest diverged");
    }

    // Graceful shutdown via the client this time: final checkpoints.
    client.shutdown_server().expect("shutdown frame");
    control.shutdown().expect("control shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a caller sees of one stream, as bits: `Latest` (completed and
/// outliers), `Forecast` at horizons 1–3, and the `OutlierMask`.
#[derive(Debug, PartialEq)]
struct Served {
    latest: (Vec<u64>, Vec<u64>),
    forecasts: Vec<Vec<u64>>,
    flagged: Vec<bool>,
}

fn served(mut ask: impl FnMut(Query) -> QueryResponse) -> Served {
    let mask = ask(Query::OutlierMask)
        .expect_outlier_mask()
        .expect("stepped");
    Served {
        latest: expect_latest(ask(Query::Latest)),
        forecasts: (1..=3)
            .map(|horizon| expect_forecast(ask(Query::Forecast { horizon })))
            .collect(),
        flagged: (0..mask.shape().len())
            .map(|i| mask.is_observed_flat(i))
            .collect(),
    }
}

/// SOFIA streams fed partially observed slices (about half missing,
/// with injected outliers) over the socket serve the bits an in-process
/// fleet fed the same slices serves: the observed-only ingest form loses
/// nothing the model reads, and the client's rebuild of the factored
/// `Latest` and `Forecast` replies matches the shard's.
#[test]
fn partially_observed_slices_serve_the_in_process_bits_over_the_wire() {
    const STREAMS: usize = 3;
    const STEPS: usize = 8;
    let t0 = 3 * PERIOD;
    let control = Fleet::new(FleetConfig::with_shards(2)).expect("control fleet");
    let server = Server::bind(
        "127.0.0.1:0",
        Fleet::new(FleetConfig::with_shards(2)).expect("fleet"),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut streamed = Vec::new();
    for i in 0..STREAMS {
        let s = SeasonalStream::paper_fig2(&[6, 5], RANK, PERIOD, 500 + i as u64);
        let startup: Vec<ObservedTensor> = (0..t0)
            .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
            .collect();
        let max_abs = (0..t0 + STEPS)
            .map(|t| s.clean_slice(t).max_abs())
            .fold(0.0, f64::max);
        let corruptor = Corruptor::new(
            CorruptionConfig::from_percents(50, 10, 5.0),
            max_abs,
            900 + i as u64,
        );
        let id = format!("partial-{i}");
        client
            .register(&id, &handle(i, &startup))
            .expect("register");
        control
            .register(&id, handle(i, &startup))
            .expect("register");
        streamed.push(
            (t0..t0 + STEPS)
                .map(|t| corruptor.corrupt(&s.clean_slice(t), t))
                .collect::<Vec<_>>(),
        );
    }
    let mut flagged_any = false;
    for t in 0..STEPS {
        for (i, slices) in streamed.iter().enumerate() {
            let slice = &slices[t];
            assert!(slice.count_observed() < slice.shape().len(), "partial mask");
            let id = format!("partial-{i}");
            client
                .ingest_blocking(&id, vec![slice.clone()])
                .expect("wire ingest");
            control
                .try_ingest_id(&id, slice.clone())
                .expect("control ingest");
        }
        client.flush().expect("flush");
        control.flush().expect("control flush");
        for i in 0..STREAMS {
            let id = format!("partial-{i}");
            let over_wire = served(|q| client.query(&id, q).expect("wire query"));
            let in_process = served(|q| {
                control
                    .query(&id, q)
                    .and_then(|ticket| ticket.wait())
                    .expect("control query")
            });
            assert_eq!(over_wire, in_process, "{id} after step {t}");
            flagged_any |= over_wire.flagged.contains(&true);
        }
    }
    assert!(flagged_any, "some step flagged an outlier, so the list ran");
    server.shutdown().expect("shutdown");
    control.shutdown().expect("control shutdown");
}

#[test]
fn pipelined_queries_batches_and_stats_over_loopback() {
    let dir = tempdir("pipeline");
    let fleet = Fleet::new(FleetConfig {
        shards: 2,
        queue_capacity: 64,
        checkpoint: Some(CheckpointPolicy::new(&dir, 1_000)),
        evict_idle_after: None,
    })
    .expect("fleet");
    // Pre-register in-process (a server wraps a *running* fleet).
    let mut streamed_slices = Vec::new();
    for i in 0..3 {
        let (startup, streamed) = slices(i);
        fleet
            .register(&format!("p-{i}"), handle(i, &startup))
            .expect("register");
        streamed_slices.push(streamed);
    }
    let server = Server::bind("127.0.0.1:0", fleet).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for (i, streamed) in streamed_slices.iter().enumerate() {
        client
            .ingest_blocking(&format!("p-{i}"), streamed[..2].to_vec())
            .expect("ingest");
    }
    client.flush().expect("flush");

    // Pipelined: all frames written before any reply is read; replies
    // settle in order, including a typed per-item failure.
    let responses = client
        .query_pipelined(&[
            ("p-0", Query::Latest),
            ("ghost", Query::Latest),
            ("p-1", Query::Forecast { horizon: 2 }),
            ("p-2", Query::StreamStats),
            ("p-0", Query::OutlierMask),
        ])
        .expect("pipeline");
    assert_eq!(responses.len(), 5);
    assert!(matches!(responses[0], Ok(QueryResponse::Latest(Some(_)))));
    assert!(matches!(responses[1], Err(FleetError::UnknownStream(_))));
    assert!(matches!(responses[2], Ok(QueryResponse::Forecast(Some(_)))));
    let Ok(QueryResponse::StreamStats(ref stats)) = responses[3] else {
        panic!("aligned responses");
    };
    assert_eq!(stats.stream, "p-2");
    assert_eq!(stats.steps, 2);
    assert!(matches!(responses[4], Ok(QueryResponse::OutlierMask(_))));

    // One-frame batch: same alignment contract as Fleet::query_batch,
    // and the server answers with one shard round-trip per involved
    // shard (visible in query_batches growing by at most the shard
    // count).
    let before = client.stats().expect("stats").query_batches();
    let batch = client
        .query_batch(&[
            ("p-0", Query::StreamStats),
            ("p-1", Query::StreamStats),
            ("p-2", Query::Forecast { horizon: 0 }),
        ])
        .expect("batch");
    assert!(matches!(batch[2], Err(FleetError::InvalidQuery { .. })));
    let after = client.stats().expect("stats").query_batches();
    assert!(
        after - before <= 2,
        "a wire batch costs at most one round-trip per involved shard \
         (got {} extra)",
        after - before
    );

    // Invalid queries are rejected before any shard sees them.
    match client.query("p-0", Query::Forecast { horizon: 0 }) {
        Err(ClientError::Fleet(FleetError::InvalidQuery { .. })) => {}
        other => panic!("expected InvalidQuery, got {other:?}"),
    }

    // Stats round-trip carries real serving numbers.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards.len(), 2);
    assert_eq!(stats.steps(), 6, "3 streams x 2 slices");

    client.shutdown_server().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_survives_malformed_and_oversized_frames() {
    use std::io::BufReader;
    use std::net::TcpStream;

    let fleet = Fleet::new(FleetConfig::with_shards(1)).expect("fleet");
    let server = Server::bind("127.0.0.1:0", fleet).expect("bind");
    let addr = server.local_addr();

    // A raw peer that never says hello and sends garbage bytes: the
    // server answers with a typed error (or just closes) — it must not
    // crash, and must keep serving real clients afterwards.
    {
        use std::io::Write as _;
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        // Whatever comes back (an err frame or EOF), it arrives promptly.
        let _ = read_frame(&mut reader, 1 << 20);
    }

    // A peer that handshakes, then announces an absurd frame length:
    // typed err reply, then the server closes that connection.
    {
        use std::io::Write as _;
        let mut raw = TcpStream::connect(addr).expect("connect");
        let hello = Request::Hello {
            client: "fuzz".into(),
        };
        write_frame(&mut raw, &hello.to_body()).expect("hello");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        let map_reply = read_frame(&mut reader, 1 << 20).expect("map").unwrap();
        assert!(map_reply.starts_with("ok 0\nshardmap"));
        raw.write_all(b"#999999999999\n").expect("announce");
        let reply = read_frame(&mut reader, 1 << 20).expect("reply").unwrap();
        assert!(reply.starts_with("err 0"), "typed oversize reply: {reply}");
        // Connection is closed afterwards.
        assert!(matches!(read_frame(&mut reader, 1 << 20), Ok(None)));
    }

    // A well-framed but malformed body: typed err, connection stays up.
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        let hello = Request::Hello {
            client: "fuzz2".into(),
        };
        write_frame(&mut raw, &hello.to_body()).expect("hello");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        read_frame(&mut reader, 1 << 20).expect("map").unwrap();
        write_frame(&mut raw, "warp-speed 9").expect("bad body");
        let reply = read_frame(&mut reader, 1 << 20).expect("reply").unwrap();
        assert!(reply.starts_with("err 0"), "typed reply: {reply}");
        // Still aligned: a real request on the same connection works.
        write_frame(&mut raw, &Request::Stats { id: 4 }.to_body()).expect("stats");
        let reply = read_frame(&mut reader, 1 << 20).expect("reply").unwrap();
        assert!(reply.starts_with("ok 4\nshards 1"), "{reply}");
        // `lease` is not a verb: the epoch is the one ownership fence.
        write_frame(&mut raw, "lease 7 grant 0 5").expect("lease body");
        let reply = read_frame(&mut reader, 1 << 20).expect("reply").unwrap();
        assert!(reply.starts_with("err 0 invalid-query "), "{reply}");
        write_frame(&mut raw, &Request::Stats { id: 5 }.to_body()).expect("stats");
        let reply = read_frame(&mut reader, 1 << 20).expect("reply").unwrap();
        assert!(reply.starts_with("ok 5\nshards 1"), "{reply}");
    }

    // A real client still gets served after all that abuse.
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.stats().expect("stats").shards.len(), 1);

    server.shutdown().expect("shutdown");
}

/// A `streams` reply announcing more ids than it carries is a typed
/// protocol error. The stand-in server announces `u64::MAX` ids and
/// sends none: a client that reserved capacity from the count would
/// panic with a capacity overflow.
#[test]
fn streams_reply_with_an_unbacked_count_is_a_protocol_error() {
    use std::io::BufReader;
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let stand_in = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut r = BufReader::new(stream.try_clone().expect("clone"));
        let mut w = stream;
        let _hello = read_frame(&mut r, 1 << 20).expect("hello");
        let map = ShardMap::single_node("stand-in", 1);
        write_frame(&mut w, &ok_body(0, |out| map.push_wire(out))).expect("handshake");
        let body = read_frame(&mut r, 1 << 20).expect("request").unwrap();
        let id = Request::from_body(&body).expect("request parses").id();
        let reply = ok_body(id, |out| out.push_str("streams 18446744073709551615\n"));
        write_frame(&mut w, &reply).expect("reply");
    });

    let mut client = Client::connect(addr).expect("connect");
    match client.stream_ids() {
        Err(ClientError::Protocol(_)) => {}
        other => panic!("an unbacked count must be a protocol error, got {other:?}"),
    }
    drop(client);
    stand_in.join().expect("stand-in exits");
}

/// A batch reply whose tensors stand for more elements than a frame at
/// the client's bound carries densely is a typed protocol error,
/// refused before the rebuild: the stand-in server answers two
/// forecasts with 1Mi-element `kruskal` blocks of 2,048 factor values
/// each, and the second overdraws the 32 MiB frame's budget of
/// 1,973,790 elements.
#[test]
fn batch_reply_over_the_decode_budget_is_a_protocol_error() {
    use std::io::BufReader;
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let stand_in = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut r = BufReader::new(stream.try_clone().expect("clone"));
        let mut w = stream;
        let _hello = read_frame(&mut r, 1 << 20).expect("hello");
        let map = ShardMap::single_node("stand-in", 1);
        write_frame(&mut w, &ok_body(0, |out| map.push_wire(out))).expect("handshake");
        let body = read_frame(&mut r, 1 << 20).expect("request").unwrap();
        let id = Request::from_body(&body).expect("request parses").id();
        let factor = format!("factor{}\n", " 3ff0000000000000".repeat(1024));
        let reply = ok_body(id, |out| {
            out.push_str("results 2\n");
            for _ in 0..2 {
                out.push_str("item ok\nforecast some\nshape 1024 1024\nkruskal 1\n");
                out.push_str(&factor);
                out.push_str(&factor);
                out.push_str("weights 3ff0000000000000\n");
            }
        });
        write_frame(&mut w, &reply).expect("reply");
    });

    let mut client = Client::connect(addr).expect("connect");
    let forecast = Query::Forecast { horizon: 1 };
    match client.query_batch(&[("a", forecast.clone()), ("b", forecast)]) {
        Err(ClientError::Protocol(reason)) => {
            assert!(reason.contains("decode budget"), "{reason}")
        }
        other => panic!("an overdrawn reply must be a protocol error, got {other:?}"),
    }
    drop(client);
    stand_in.join().expect("stand-in exits");
}

#[test]
fn large_ingest_batches_chunk_under_the_frame_bound() {
    let fleet = Fleet::new(FleetConfig::with_shards(1)).expect("fleet");
    let (startup, _) = slices(0);
    fleet
        .register("chunky", handle(1, &startup))
        .expect("register");
    let server = Server::bind("127.0.0.1:0", fleet).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // A tiny client-side frame bound forces the 20-slice batch into
    // several ingest frames (each 4x3 slice encodes to ~300 bytes, so
    // a 2 KiB chunk target holds only a handful); every slice must
    // still be applied, in order.
    client.set_max_frame_bytes(4096);
    let s = SeasonalStream::paper_fig2(&[4, 3], RANK, PERIOD, 300);
    let batch: Vec<ObservedTensor> = (0..20)
        .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
        .collect();
    client.ingest_blocking("chunky", batch).expect("ingest");
    client.flush().expect("flush");
    let stats = client
        .query("chunky", Query::StreamStats)
        .expect("stats")
        .expect_stream_stats();
    assert_eq!(stats.steps, 20, "all chunks applied");
    server.shutdown().expect("shutdown");
}

/// One NaN at an observed entry must never reach a model: the server
/// checks every slice of an `ingest` frame before applying any, so a
/// frame carrying a bad slice between two good ones is refused whole
/// with a typed error, and the stream keeps forecasting bit-identically
/// to a control stream that never saw the frame.
#[test]
fn non_finite_ingest_frame_is_refused_whole() {
    let (startup, streamed) = slices(0);
    let fleet = Fleet::new(FleetConfig::with_shards(2)).expect("fleet");
    let server = Server::bind("127.0.0.1:0", fleet).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let ids = ["poisoned", "control"];
    for id in ids {
        client.register(id, &handle(0, &startup)).expect("register");
        client
            .ingest_blocking(id, streamed[..3].to_vec())
            .expect("ingest");
    }
    let mut values = streamed[3].values().clone();
    values.set_flat(5, f64::NAN);
    let frame = vec![
        streamed[3].clone(),
        ObservedTensor::fully_observed(values),
        streamed[4].clone(),
    ];
    match client.ingest("poisoned", frame) {
        Err(ClientError::Fleet(FleetError::InvalidQuery { reason })) => {
            assert!(reason.contains("non-finite"), "{reason}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    for id in ids {
        client
            .ingest_blocking(id, streamed[3..].to_vec())
            .expect("ingest");
    }
    client.flush().expect("flush");
    let steps = |client: &mut Client, id: &str| {
        client
            .query(id, Query::StreamStats)
            .expect("stats")
            .expect_stream_stats()
            .steps
    };
    assert_eq!(steps(&mut client, "poisoned"), TOTAL as u64);
    assert_eq!(steps(&mut client, "control"), TOTAL as u64);
    for h in 1..=PERIOD {
        let [a, b] = ids.map(|id| {
            expect_forecast(
                client
                    .query(id, Query::Forecast { horizon: h })
                    .expect("forecast"),
            )
        });
        assert_eq!(a, b, "horizon {h}");
    }
    server.shutdown().expect("shutdown");
}

/// A slice shaped unlike the stream's model is refused in the same
/// precheck, before anything applies: the frame gets a typed
/// `invalid-query` instead of `accepted`, and the stream is neither
/// stepped nor quarantined.
#[test]
fn wrong_shaped_ingest_frame_is_refused_whole() {
    let (startup, streamed) = slices(0);
    let fleet = Fleet::new(FleetConfig::with_shards(1)).expect("fleet");
    let server = Server::bind("127.0.0.1:0", fleet).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .register("s", &handle(0, &startup))
        .expect("register");
    let small = ObservedTensor::fully_observed(DenseTensor::full(Shape::new(&[2, 2]), 1.0));
    match client.ingest("s", vec![streamed[0].clone(), small]) {
        Err(ClientError::Fleet(FleetError::InvalidQuery { reason })) => {
            assert!(reason.contains("slice shape 2×2 differs"), "{reason}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    client.flush().expect("flush");
    let stats = client.query("s", Query::StreamStats).expect("stats");
    assert_eq!(stats.expect_stream_stats().steps, 0, "nothing applied");
    server.shutdown().expect("shutdown");
}

/// The float decoder reads only the form every writer emits: an
/// `ingest` frame whose one defect is an uppercase hex digit in its
/// `data` line gets a typed `invalid-query` reply, applies nothing, and
/// the connection keeps serving.
#[test]
fn ingest_frame_with_an_uppercase_hex_digit_is_refused_and_the_connection_keeps_serving() {
    use sofia_net::wire::ingest_body;
    use std::io::BufReader;
    use std::net::TcpStream;

    let (startup, streamed) = slices(0);
    let fleet = Fleet::new(FleetConfig::with_shards(1)).expect("fleet");
    fleet.register("s", handle(0, &startup)).expect("register");
    let server = Server::bind("127.0.0.1:0", fleet).expect("bind");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let hello = Request::Hello {
        client: "strict".into(),
    };
    write_frame(&mut raw, &hello.to_body()).expect("hello");
    read_frame(&mut reader, 1 << 20).expect("map").unwrap();

    let good = ingest_body(7, None, "s", &[(1, streamed[0].clone())]);
    let data = good.find("\ndata ").expect("data line") + "\ndata ".len();
    let data_line = &good[data..data + good[data..].find('\n').expect("line end")];
    let letter = data + data_line.find(char::is_alphabetic).expect("a digit a-f");
    let mut bad = good.clone();
    bad[letter..=letter].make_ascii_uppercase();
    write_frame(&mut raw, &bad).expect("bad ingest");
    let reply = read_frame(&mut reader, 1 << 20).expect("reply").unwrap();
    assert!(
        reply.starts_with("err 0 invalid-query") && reply.contains("bad float in `data`"),
        "typed refusal: {reply}"
    );

    // Still aligned: the canonical frame is applied on the same
    // connection, and it is the stream's only step.
    write_frame(&mut raw, &good).expect("good ingest");
    let reply = read_frame(&mut reader, 1 << 20).expect("reply").unwrap();
    assert_eq!(reply, "ok 7\naccepted 1\nbackpressure\n");
    write_frame(&mut raw, &Request::Flush { id: 8 }.to_body()).expect("flush");
    assert_eq!(
        read_frame(&mut reader, 1 << 20).expect("reply").unwrap(),
        "ok 8\n"
    );
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let stats = client
        .query("s", Query::StreamStats)
        .expect("stats")
        .expect_stream_stats();
    assert_eq!(stats.steps, 1);
    server.shutdown().expect("shutdown");
}

/// The ingest `data` line carries the observed values only. A frame in
/// the retired dense form — a value per entry under a partial mask — is
/// refused with a typed `invalid-query`, applies nothing, and the
/// connection keeps serving: the canonical frame is acked next.
#[test]
fn dense_ingest_frame_under_a_partial_mask_is_refused_and_the_connection_keeps_serving() {
    use sofia_core::snapshot::wire::push_f64s;
    use sofia_net::wire::ingest_body;
    use std::io::BufReader;
    use std::net::TcpStream;

    let (startup, streamed) = slices(0);
    let fleet = Fleet::new(FleetConfig::with_shards(1)).expect("fleet");
    fleet.register("s", handle(0, &startup)).expect("register");
    let server = Server::bind("127.0.0.1:0", fleet).expect("bind");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let hello = Request::Hello {
        client: "dense".into(),
    };
    write_frame(&mut raw, &hello.to_body()).expect("hello");
    read_frame(&mut reader, 1 << 20).expect("map").unwrap();

    let values = streamed[0].values().clone();
    let observed = (0..values.len()).map(|i| i % 3 != 1).collect();
    let slice = ObservedTensor::new(
        values.clone(),
        Mask::from_vec(values.shape().clone(), observed),
    );
    let good = ingest_body(7, None, "s", &[(1, slice)]);
    let data = good.find("\ndata ").expect("data line") + 1;
    let data_end = data + good[data..].find('\n').expect("line end") + 1;
    let mut dense_line = String::new();
    push_f64s(&mut dense_line, "data", values.data().iter().copied());
    let dense = format!("{}{dense_line}{}", &good[..data], &good[data_end..]);
    write_frame(&mut raw, &dense).expect("dense ingest");
    let reply = read_frame(&mut reader, 1 << 20).expect("reply").unwrap();
    assert!(
        reply.starts_with("err 0 invalid-query")
            && reply.contains("slice data carries 12 values for 8 observed entries"),
        "typed refusal: {reply}"
    );

    write_frame(&mut raw, &good).expect("good ingest");
    let reply = read_frame(&mut reader, 1 << 20).expect("reply").unwrap();
    assert_eq!(reply, "ok 7\naccepted 1\nbackpressure\n");
    write_frame(&mut raw, &Request::Flush { id: 8 }.to_body()).expect("flush");
    assert_eq!(
        read_frame(&mut reader, 1 << 20).expect("reply").unwrap(),
        "ok 8\n"
    );
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let stats = client
        .query("s", Query::StreamStats)
        .expect("stats")
        .expect_stream_stats();
    assert_eq!(stats.steps, 1, "the refused frame applied nothing");
    server.shutdown().expect("shutdown");
}

/// A `register` payload that parses line by line but describes an
/// impossible model (one temporal history row for period 4) is refused
/// with a typed `corrupt` reply by the event-loop thread that restores
/// it. With a one-thread pool, that connection and a fresh one (dealt
/// to the same worker) keep being served.
#[test]
fn malformed_register_envelope_is_refused_and_the_loop_keeps_serving() {
    let fleet = Fleet::new(FleetConfig::with_shards(1)).expect("fleet");
    let config = ServerConfig {
        event_threads: Some(1),
        ..ServerConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", fleet, config).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let (startup, streamed) = slices(0);
    let checkpoint = handle(0, &startup)
        .checkpoint_text()
        .expect("SOFIA is durable");
    // Keep one of the PERIOD temporal history rows.
    let mut lines: Vec<&str> = checkpoint.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.starts_with("history "))
        .expect("history block");
    lines[at] = "history 1";
    lines.drain(at + 2..at + 1 + PERIOD);
    let bad = lines.join("\n") + "\n";
    match client.register_checkpoint("bad", &bad) {
        Err(ClientError::Fleet(FleetError::Corrupt { stream, .. })) => assert_eq!(stream, "bad"),
        other => panic!("expected a typed corrupt reply, got {other:?}"),
    }

    // The same connection keeps its service…
    client
        .register("good", &handle(0, &startup))
        .expect("register after the refusal");
    client
        .ingest_blocking("good", streamed[..2].to_vec())
        .expect("ingest");
    client.flush().expect("flush");
    let stats = client
        .query("good", Query::StreamStats)
        .expect("stats")
        .expect_stream_stats();
    assert_eq!(stats.steps, 2);
    // …and so does a fresh one.
    let mut fresh = Client::connect(server.local_addr()).expect("fresh connect");
    fresh
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    assert_eq!(
        fresh.stats().expect("fresh stats").streams(),
        1,
        "the refused stream was never registered"
    );
    server.shutdown().expect("shutdown");
}

/// One text registers a SOFIA model, the text of `checkpoint::save`: a
/// real `register` frame carrying the retired v2 envelope around it, or
/// carrying it with an integer respelled or a line after its trailer,
/// gets a typed `corrupt` reply and registers nothing, and the same
/// connection then registers, feeds and queries the canonical text.
#[test]
fn register_of_a_deleted_model_kind_is_refused_as_corrupt() {
    use std::io::BufReader;
    use std::net::TcpStream;

    let fleet = Fleet::new(FleetConfig::with_shards(1)).expect("fleet");
    let server = Server::bind("127.0.0.1:0", fleet).expect("bind");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut round_trip = |request: Request| -> String {
        write_frame(&mut raw, &request.to_body()).expect("write");
        read_frame(&mut reader, 1 << 20)
            .expect("read")
            .expect("reply")
    };
    let hello = round_trip(Request::Hello {
        client: "legacy".into(),
    });
    assert!(hello.starts_with("ok 0\nshardmap"), "{hello}");

    let (startup, streamed) = slices(0);
    let text = handle(0, &startup)
        .checkpoint_text()
        .expect("SOFIA is durable");
    assert!(text.ends_with("\nsteps 0\n"), "{text}");
    for (id, bad, why) in [
        (
            1,
            format!("sofia-checkpoint v2\nmodel sofia\nsteps 0\n{text}"),
            "bad checkpoint header `sofia-checkpoint v2`",
        ),
        (
            2,
            text.replace("\nsteps 0\n", "\nsteps +0\n"),
            "bad steps `+0`",
        ),
        (
            3,
            text.replacen("\nfactors ", "\nfactors 0", 1),
            "bad factors `0",
        ),
        (
            4,
            text.replacen("\nhw_phase ", "\nhw_phase 0", 1),
            "bad hw_phase `0",
        ),
        (5, format!("{text}steps 0\n"), "trailing line `steps 0`"),
    ] {
        let reply = round_trip(Request::Register {
            id,
            epoch: None,
            stream: "legacy".into(),
            checkpoint: bad,
        });
        let head = format!("err {id} corrupt legacy ");
        assert!(reply.starts_with(&head) && reply.contains(why), "{reply}");
    }
    let reply = round_trip(Request::Streams { id: 6 });
    assert_eq!(reply, "ok 6\nstreams 0\n", "nothing was registered");

    let reply = round_trip(Request::Register {
        id: 7,
        epoch: None,
        stream: "sofia".into(),
        checkpoint: text,
    });
    assert_eq!(reply, "ok 7\ndurable false\n");
    let reply = round_trip(Request::Ingest {
        id: 8,
        epoch: None,
        stream: "sofia".into(),
        slices: vec![(1, streamed[0].clone()), (2, streamed[1].clone())],
    });
    assert!(reply.starts_with("ok 8\n"), "{reply}");
    assert_eq!(round_trip(Request::Flush { id: 9 }), "ok 9\n");
    let reply = round_trip(Request::Query {
        id: 10,
        epoch: None,
        stream: "sofia".into(),
        query: Query::StreamStats,
    });
    let payload = reply.strip_prefix("ok 10\n").expect("ok reply");
    let stats = QueryResponse::from_wire(payload)
        .expect("stream stats")
        .expect_stream_stats();
    assert_eq!((stats.model.as_str(), stats.steps), ("SOFIA", 2));
    server.shutdown().expect("shutdown");
}

#[test]
fn dropping_a_live_server_winds_down_cleanly() {
    let fleet = Fleet::new(FleetConfig::with_shards(1)).expect("fleet");
    let server = Server::bind("127.0.0.1:0", fleet).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(client.stats().expect("stats").shards.len(), 1);
    // Dropping without an explicit shutdown must join every thread (no
    // hang) and close live connections…
    drop(server);
    // …so the client sees the connection go away instead of wedging.
    assert!(client.stats().is_err());
}

mod fuzz {
    //! Satellite: "parse returns Err, never panics" over random bytes,
    //! with the vendored proptest.
    use super::*;
    use proptest::prelude::*;
    use sofia_fleet::protocol::wire::LineCursor;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random ASCII-ish lines through every body parser: typed
        /// errors only (round-trippable inputs may parse Ok; the claim
        /// under fuzz is "no panic, no hang").
        #[test]
        fn request_and_response_parsers_are_total(
            bytes in prop::collection::vec(0u8..128, 0..200)
        ) {
            let text: String = bytes.iter().map(|&b| b as char).collect();
            let _ = Request::from_body(&text);
            let _ = QueryResponse::from_wire(&text);
            let _ = Query::from_wire(&text);
            let _ = FleetError::from_wire(&text);
            let _ = sofia_net::wire::split_reply(&text);
            let mut cur = LineCursor::new(&text);
            let _ = sofia_net::wire::ShardMap::parse(&mut cur);
            let mut cur = LineCursor::new(&text);
            let _ = sofia_net::wire::parse_fleet_stats(&mut cur);
        }

        /// Random raw bytes through the frame reader: it returns (Ok or
        /// typed Err) without panicking, on any prefix of any garbage.
        /// (Sampled as u16 and truncated — the vendored proptest has no
        /// inclusive-range strategy, and `0u8..255` would never produce
        /// 0xFF.)
        #[test]
        fn frame_reader_is_total(words in prop::collection::vec(0u16..256, 0..64)) {
            let bytes: Vec<u8> = words.iter().map(|&w| w as u8).collect();
            let mut r = std::io::BufReader::new(&bytes[..]);
            // Drain up to all frames the bytes happen to encode.
            for _ in 0..4 {
                match read_frame(&mut r, 1 << 16) {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
        }

        /// Structured-ish garbage: a valid verb with random tail bytes
        /// exercises the deep parsers (shape/data/bits) rather than
        /// dying at the verb.
        #[test]
        fn deep_body_parsers_are_total(
            verb in 0usize..6,
            bytes in prop::collection::vec(0u8..128, 0..160)
        ) {
            let verbs = ["query 1 s ", "batch 1 2\n", "ingest 1 s 1\nseq 1\n",
                         "register 1 s\n", "latest some\n", "stream-stats\n"];
            let tail: String = bytes.iter().map(|&b| b as char).collect();
            let text = format!("{}{}", verbs[verb], tail);
            let _ = Request::from_body(&text);
            let _ = QueryResponse::from_wire(&text);
        }
    }
}
