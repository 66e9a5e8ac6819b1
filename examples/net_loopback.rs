//! Loopback tour of the `sofia-net` TCP data plane: one process runs
//! both ends — a `Server` wrapping a fleet on an ephemeral port, and a
//! `Client` driving it — so you can watch the wire protocol work
//! without any deployment.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example net_loopback
//! ```
//!
//! What it shows, in order: the handshake shard map, registering a
//! model *over the socket* (its checkpoint is the wire form),
//! batched seq-tagged ingest of partially observed, corrupted slices
//! (only the observed values cross the wire) with flush as the
//! read-your-writes barrier, pipelined queries on one connection, a
//! one-frame multi-stream batch, and the in-process fleet answering
//! bit-exactly the same as the wire — every `Latest` (completed and
//! outliers) and `Forecast` the client rebuilt from the server's
//! factored replies — the assertion that makes this example a
//! regression test.

use sofia::core::SofiaConfig;
use sofia::datagen::corrupt::{CorruptionConfig, Corruptor};
use sofia::datagen::seasonal::SeasonalStream;
use sofia::datagen::stream::TensorStream;
use sofia::fleet::{Fleet, FleetConfig, ModelHandle, Query, QueryResponse};
use sofia::net::{Client, Server};
use sofia::tensor::{DenseTensor, ObservedTensor};
use sofia::Sofia;

/// A tensor's bit patterns (`==` on `f64` would pass `-0.0 == 0.0`).
fn bits(t: &DenseTensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The bits of a `Latest` or `Forecast` answer: one tensor, or the
/// completed slice followed by the outliers.
fn answer_bits(resp: QueryResponse) -> Vec<Vec<u64>> {
    match resp {
        QueryResponse::Latest(Some(step)) => {
            let outliers = step.outliers.expect("SOFIA reports outliers");
            vec![bits(&step.completed), bits(&outliers)]
        }
        QueryResponse::Forecast(Some(f)) => vec![bits(&f)],
        other => panic!("SOFIA answers {:?} with a tensor", other.kind()),
    }
}

fn main() {
    let period = 6;
    let rank = 2;
    let config = SofiaConfig::new(rank, period)
        .with_lambdas(0.01, 0.01, 10.0)
        .with_als_limits(1e-4, 2, 60);
    let startup_len = config.startup_len().max(2 * period);

    // Identical warm models for the served fleet and an in-process
    // control fleet (deterministic init, same seed).
    let make_model = |i: usize, startup: &[ObservedTensor]| {
        ModelHandle::sofia(Sofia::init(&config, startup, 90 + i as u64).expect("init"))
    };
    let streams: Vec<SeasonalStream> = (0..3)
        .map(|i| SeasonalStream::paper_fig2(&[6, 5], rank, period, 90 + i as u64))
        .collect();
    let startups: Vec<Vec<ObservedTensor>> = streams
        .iter()
        .map(|s| {
            (0..startup_len)
                .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
                .collect()
        })
        .collect();

    // --- 1. A server on an ephemeral loopback port, over an *empty*
    // fleet: streams arrive over the wire.
    let server = Server::bind(
        "127.0.0.1:0",
        Fleet::new(FleetConfig::with_shards(2)).expect("fleet"),
    )
    .expect("bind");
    let addr = server.local_addr();
    println!("server listening on {addr}");

    // --- 2. Connect; the handshake carries the shard-ownership map.
    // A standalone server owns every route; a cluster member would
    // advertise the full multi-endpoint map here (see
    // examples/cluster_migration.rs for that layer).
    let mut client = Client::connect(addr).expect("connect");
    println!(
        "handshake shard map: {} shards, stream `net-0` routes to {}",
        client.shard_map().shards(),
        client.shard_map().endpoint_of("net-0"),
    );

    // --- 3. Register streams over the socket. The model's wire form is
    // its checkpoint — the server restores it through the same
    // bit-exact path crash recovery uses. The control fleet gets an
    // identical model in-process.
    let control = Fleet::new(FleetConfig::with_shards(2)).expect("control");
    for (i, startup) in startups.iter().enumerate() {
        let id = format!("net-{i}");
        client
            .register(&id, &make_model(i, startup))
            .expect("register over TCP");
        control
            .register(&id, make_model(i, startup))
            .expect("register in-process");
        println!("registered `{id}` over the wire (checkpoint as payload)");
    }

    // --- 4. Ingest two seasons per stream over the socket — batched,
    // sequence-tagged, with typed backpressure hand-back under the
    // hood — and mirror it in-process. The slices are partially
    // observed (40% missing) with injected outliers; an ingest frame
    // carries only the observed values.
    for (i, s) in streams.iter().enumerate() {
        let id = format!("net-{i}");
        let end = startup_len + 2 * period;
        let max_abs = (0..end)
            .map(|t| s.clean_slice(t).max_abs())
            .fold(0.0, f64::max);
        let corruptor = Corruptor::new(
            CorruptionConfig::from_percents(40, 10, 4.0),
            max_abs,
            190 + i as u64,
        );
        let slices: Vec<ObservedTensor> = (startup_len..end)
            .map(|t| corruptor.corrupt(&s.clean_slice(t), t))
            .collect();
        for slice in &slices {
            control.try_ingest_id(&id, slice.clone()).expect("control");
        }
        let retries = client.ingest_blocking(&id, slices).expect("wire ingest");
        println!(
            "`{id}`: {} slices over TCP ({retries} backpressure retries)",
            2 * period
        );
    }
    // flush = read-your-writes over TCP, same contract as in-process.
    client.flush().expect("flush");
    control.flush().expect("control flush");

    // --- 5. Pipelining: several queries written before any reply is
    // read, settled in request order (the server maps them onto
    // QueryTickets).
    let pipelined = client
        .query_pipelined(&[
            ("net-0", Query::Latest),
            ("net-1", Query::Forecast { horizon: 3 }),
            ("net-2", Query::StreamStats),
        ])
        .expect("pipeline");
    println!("pipelined {} queries on one connection", pipelined.len());

    // --- 6. One frame, many streams: the server answers a batch with
    // one queue round-trip per involved shard. A SOFIA stream answers
    // `Latest` and `Forecast` in Kruskal form (its factors plus R
    // weights); the client rebuilds the dense slices with the model's
    // own kernel.
    let batch: Vec<(String, Query)> = (0..3)
        .flat_map(|i| {
            [Query::Latest, Query::Forecast { horizon: 3 }].map(|q| (format!("net-{i}"), q))
        })
        .collect();
    let refs: Vec<(&str, Query)> = batch.iter().map(|(s, q)| (s.as_str(), q.clone())).collect();
    let over_wire = client.query_batch(&refs).expect("wire batch");
    let in_process = control.query_batch(&refs).expect("control batch");

    // --- 7. The claim that matters: the wire changes *nothing*. Every
    // latest slice, outlier tensor and forecast that crossed the socket
    // (factored, hex-float encoded, framed, parsed back and rebuilt) is
    // bit-identical to the in-process answer.
    for ((wire_resp, local_resp), (id, query)) in over_wire.into_iter().zip(in_process).zip(&batch)
    {
        assert_eq!(
            answer_bits(wire_resp.expect("wire")),
            answer_bits(local_resp.expect("local")),
            "{id}: wire {query:?} diverged from in-process"
        );
    }
    println!("wire forecasts are bit-exact against the in-process fleet");
    println!("wire latest slices and outliers are bit-exact against the in-process fleet");

    let stats = client.stats().expect("stats");
    println!(
        "server stats over the wire: {} streams, {} steps, {} queries answered",
        stats.streams(),
        stats.steps(),
        stats.queries().total(),
    );

    // --- 8. Graceful shutdown initiated by the client: the server
    // drains every queue and exits; run() returns the checkpoint count.
    client.shutdown_server().expect("shutdown frame");
    let checkpoints = server.run().expect("drain");
    control.shutdown().expect("control shutdown");
    println!("server drained gracefully ({checkpoints} final checkpoints — none configured)");
}
