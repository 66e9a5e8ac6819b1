//! Loopback integration tests: a real `Server` on `127.0.0.1:0`, a real
//! `Client`, and the engine's strongest guarantees re-proven **across
//! the wire**:
//!
//! * SOFIA streams registered over the socket (checkpoint envelopes as
//!   the model wire form), ingested over the socket, then
//!   crashed (`Server::abort`) and restarted from the same checkpoint
//!   directory — with forecasts **bit-exact** against an in-process
//!   fleet fed the identical slices (the `recovery.rs` scenario, over
//!   TCP);
//! * pipelined queries on one socket, settled in request order;
//! * flush as the read-your-writes barrier over TCP;
//! * malformed frames, bodies and `register` envelopes: typed errors,
//!   not panics — including a vendored-proptest fuzz over random byte
//!   lines.

use sofia_core::config::SofiaConfig;
use sofia_core::Sofia;
use sofia_datagen::seasonal::SeasonalStream;
use sofia_datagen::stream::TensorStream;
use sofia_fleet::{
    CheckpointPolicy, Fleet, FleetConfig, FleetError, ModelHandle, Query, QueryResponse,
};
use sofia_net::wire::{ok_body, read_frame, write_frame, Request, ShardMap};
use sofia_net::{Client, ClientError, Server, ServerConfig};
use sofia_tensor::ObservedTensor;
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
    resp.expect_forecast()
        .expect("SOFIA forecasts")
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
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
    // registered by shipping checkpoint envelopes over the socket.
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
        // Latest completed slices agree bit-exactly too.
        let wire_latest = client
            .query(&id, Query::Latest)
            .expect("latest")
            .expect_latest()
            .expect("stepped");
        let control_latest = control
            .query(&id, Query::Latest)
            .expect("query")
            .wait()
            .expect("latest")
            .expect_latest()
            .expect("stepped");
        assert_eq!(
            wire_latest.completed.data(),
            control_latest.completed.data(),
            "{id}: latest diverged"
        );
    }

    // Graceful shutdown via the client this time: final checkpoints.
    client.shutdown_server().expect("shutdown frame");
    control.shutdown().expect("control shutdown");
    let _ = std::fs::remove_dir_all(&dir);
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

/// A `register` envelope that parses line by line but describes an
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
    let envelope = handle(0, &startup)
        .checkpoint_text()
        .expect("SOFIA is durable");
    // Keep one of the PERIOD temporal history rows.
    let mut lines: Vec<&str> = envelope.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.starts_with("history "))
        .expect("history block");
    lines[at] = "history 1";
    lines.drain(at + 2..at + 1 + PERIOD);
    let bad = lines.join("\n") + "\n";
    match client.register_envelope("bad", &bad) {
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

/// An envelope of the `smf` kind, as earlier builds wrote and restored
/// it (one SMF model on 2×2 slices, rank 1, period 2).
const SMF_ENVELOPE: &str = "sofia-checkpoint v2\nmodel smf\nsteps 1\nsmf v1\n\
    hyper 3fb999999999999a 3fc999999999999a\nfactors 2\nfactor 2 1\n\
    data 3fe36311e3c00300 3fe9760e05584607\nfactor 2 1\n\
    data 3fe511497c7a06a3 3fe8164e5d85cb41\ndrift be27d10600000000\nseasonal 2\n\
    z 401320666df238fe\nz 400667a6ea8ef31a\n";

/// SOFIA is the one model kind a server restores: a real `register`
/// frame carrying an `smf` envelope gets a typed `corrupt` reply and
/// registers nothing, and the same connection then registers, feeds and
/// queries a SOFIA stream.
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

    let reply = round_trip(Request::Register {
        id: 1,
        epoch: None,
        stream: "legacy".into(),
        envelope: SMF_ENVELOPE.into(),
    });
    assert_eq!(reply, "err 1 corrupt legacy unknown model kind `smf`\n");
    let reply = round_trip(Request::Streams { id: 2 });
    assert_eq!(reply, "ok 2\nstreams 0\n", "nothing was registered");

    let (startup, streamed) = slices(0);
    let envelope = handle(0, &startup)
        .checkpoint_text()
        .expect("SOFIA is durable");
    let reply = round_trip(Request::Register {
        id: 3,
        epoch: None,
        stream: "sofia".into(),
        envelope,
    });
    assert_eq!(reply, "ok 3\ndurable false\n");
    let reply = round_trip(Request::Ingest {
        id: 4,
        epoch: None,
        stream: "sofia".into(),
        slices: vec![(1, streamed[0].clone()), (2, streamed[1].clone())],
    });
    assert!(reply.starts_with("ok 4\n"), "{reply}");
    assert_eq!(round_trip(Request::Flush { id: 5 }), "ok 5\n");
    let reply = round_trip(Request::Query {
        id: 6,
        epoch: None,
        stream: "sofia".into(),
        query: Query::StreamStats,
    });
    let payload = reply.strip_prefix("ok 6\n").expect("ok reply");
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
