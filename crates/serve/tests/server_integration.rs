//! End-to-end tests: real TCP server on an ephemeral port, real client
//! sockets, responses checked bit-for-bit against direct
//! `QueryProcessor` runs.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use qpl_engine::QueryProcessor;
use qpl_graph::context::RunScratch;
use qpl_serve::wire::JsonValue;
use qpl_serve::{ServeEngine, Server, ServerConfig};
use qpl_workload::generator::KbParams;

const SEED: u64 = 7;

fn layered_params() -> KbParams {
    KbParams::default()
}

/// The query texts the tests serve: every constant of the layered KB,
/// cycled. Some are provable, some are not.
fn query_texts(n: usize) -> Vec<String> {
    let params = layered_params();
    (0..n).map(|i| format!("q0(c{})", i % params.constants)).collect()
}

/// Ground truth straight from the engine, no server involved:
/// `(rendered_answer, cost_bits)` per query.
fn direct_expectations(texts: &[String]) -> Vec<(String, Option<String>, u64)> {
    let mut engine = ServeEngine::layered(SEED, &layered_params());
    let qp = QueryProcessor::left_to_right(&engine.compiled);
    let mut scratch = RunScratch::new(&engine.compiled.graph);
    texts
        .iter()
        .map(|t| {
            let atom =
                qpl_datalog::parser::parse_query(t, &mut engine.table).expect("query parses");
            let answer = qp.run_into(&atom, &engine.db, &mut scratch).expect("query runs");
            let (kind, witness) = match answer {
                qpl_engine::QueryAnswer::Yes(w) => {
                    ("yes".to_string(), Some(w.display(&engine.table).to_string()))
                }
                qpl_engine::QueryAnswer::No => ("no".to_string(), None),
            };
            (kind, witness, scratch.cost().to_bits())
        })
        .collect()
}

fn start(cfg: ServerConfig) -> Server {
    Server::start(ServeEngine::layered(SEED, &layered_params()), cfg).expect("server starts")
}

fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> JsonValue {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    JsonValue::parse(&resp).expect("response is valid JSON")
}

fn result_fields(result: &JsonValue) -> (String, Option<String>, Option<u64>) {
    let kind = result
        .get("answer")
        .and_then(JsonValue::as_str)
        .or_else(|| result.get("error").and_then(JsonValue::as_str))
        .expect("result has answer or error")
        .to_string();
    let witness = result.get("witness").and_then(JsonValue::as_str).map(str::to_string);
    let cost = result.get("cost").and_then(JsonValue::as_f64).map(f64::to_bits);
    (kind, witness, cost)
}

#[test]
fn ping_stats_and_bad_request_roundtrip() {
    let server = start(ServerConfig::default());
    let (mut s, mut r) = connect(&server);

    let pong = roundtrip(&mut s, &mut r, r#"{"kind":"ping"}"#);
    assert_eq!(pong.get("kind").and_then(JsonValue::as_str), Some("pong"));
    assert_eq!(
        pong.get("v").and_then(JsonValue::as_f64),
        Some(f64::from(qpl_serve::wire::WIRE_VERSION))
    );

    let bad = roundtrip(&mut s, &mut r, r#"{"kind":"query"}"#);
    assert_eq!(bad.get("kind").and_then(JsonValue::as_str), Some("error"));
    assert_eq!(bad.get("error").and_then(JsonValue::as_str), Some("bad_request"));

    let not_json = roundtrip(&mut s, &mut r, "hello");
    assert_eq!(not_json.get("error").and_then(JsonValue::as_str), Some("bad_request"));

    // A malformed *query* is a per-lane error, not a request error.
    let bad_q = roundtrip(&mut s, &mut r, r#"{"kind":"query","q":"q0(("}"#);
    assert_eq!(bad_q.get("kind").and_then(JsonValue::as_str), Some("answer"));
    let (kind, _, _) = result_fields(bad_q.get("result").unwrap());
    assert_eq!(kind, "bad_query");

    let stats = roundtrip(&mut s, &mut r, r#"{"kind":"stats"}"#);
    assert_eq!(stats.get("kind").and_then(JsonValue::as_str), Some("stats"));
    assert!(stats.get("metrics").is_some(), "stats embeds the metrics snapshot");

    server.shutdown();
    server.join();
}

/// The tentpole acceptance test: 200 queries from concurrent client
/// threads, every response bit-identical (answer, witness, cost bits)
/// to a direct scalar `QueryProcessor` run of the same query — at any
/// shard count.
fn concurrent_bit_identity(shards: usize) {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 25;
    let texts = query_texts(THREADS * PER_THREAD);
    let expected = direct_expectations(&texts);

    let server = start(ServerConfig { shards, ..ServerConfig::default() });
    let addr = server.local_addr();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let texts = texts.clone();
            thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut got = Vec::with_capacity(PER_THREAD);
                for i in 0..PER_THREAD {
                    let qi = t * PER_THREAD + i;
                    let req = format!(r#"{{"kind":"query","q":"{}","id":{qi}}}"#, texts[qi]);
                    let resp = roundtrip(&mut stream, &mut reader, &req);
                    assert_eq!(
                        resp.get("id").and_then(JsonValue::as_f64),
                        Some(qi as f64),
                        "response id echoes the request id"
                    );
                    got.push((qi, result_fields(resp.get("result").expect("answer has result"))));
                }
                got
            })
        })
        .collect();

    let mut answered = 0usize;
    for h in handles {
        for (qi, (kind, witness, cost)) in h.join().expect("client thread") {
            let (exp_kind, exp_witness, exp_cost) = &expected[qi];
            assert_eq!(&kind, exp_kind, "query {}: answer matches scalar run", texts[qi]);
            assert_eq!(&witness, exp_witness, "query {}: witness matches", texts[qi]);
            assert_eq!(
                cost,
                Some(*exp_cost),
                "query {}: cost is bit-identical to the scalar run",
                texts[qi]
            );
            answered += 1;
        }
    }
    assert_eq!(answered, THREADS * PER_THREAD);

    server.shutdown();
    server.join();
}

#[test]
fn concurrent_responses_bit_identical_to_direct_runs() {
    concurrent_bit_identity(1);
}

/// Sharded serving must answer bit-identically to the single-executor
/// path: every shard owns a full replica of the same engine, so the
/// shard a job lands on can never show through in the response.
#[test]
fn sharded_responses_bit_identical_to_direct_runs() {
    concurrent_bit_identity(4);
}

/// Under a queue bound and heavy concurrent batches, every request gets
/// exactly one response: an `answers` payload (correct) or an
/// `overloaded` error. Nothing is silently dropped — at any shard
/// count, with per-shard shedding and least-loaded fallback in play.
fn overload_accounting(shards: usize) {
    const THREADS: usize = 16;
    const BATCHES_PER_THREAD: usize = 8;
    const BATCH: usize = 32;
    let texts = query_texts(BATCH);
    let expected = direct_expectations(&texts);

    let server = start(ServerConfig {
        shards,
        queue_cap: 64, // one plane per shard: concurrent batches contend hard
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let qs = texts.iter().map(|t| format!("\"{t}\"")).collect::<Vec<_>>().join(",");
    let req = format!(r#"{{"kind":"batch","qs":[{qs}]}}"#);

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let req = req.clone();
            let expected = expected.clone();
            thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut served = 0usize;
                let mut shed = 0usize;
                for _ in 0..BATCHES_PER_THREAD {
                    let resp = roundtrip(&mut stream, &mut reader, &req);
                    match resp.get("kind").and_then(JsonValue::as_str) {
                        Some("answers") => {
                            let results = resp
                                .get("results")
                                .and_then(JsonValue::as_array)
                                .expect("answers has results");
                            assert_eq!(results.len(), BATCH, "one result per lane");
                            for (r, (exp_kind, exp_witness, _)) in
                                results.iter().zip(expected.iter())
                            {
                                let (kind, witness, _) = result_fields(r);
                                assert_eq!(&kind, exp_kind);
                                assert_eq!(&witness, exp_witness);
                            }
                            served += 1;
                        }
                        Some("error") => {
                            assert_eq!(
                                resp.get("error").and_then(JsonValue::as_str),
                                Some("overloaded"),
                                "the only in-band refusal under load is `overloaded`"
                            );
                            shed += 1;
                        }
                        other => panic!("unexpected response kind {other:?}"),
                    }
                }
                (served, shed)
            })
        })
        .collect();

    let mut served = 0usize;
    let mut shed = 0usize;
    for h in handles {
        let (s, d) = h.join().expect("client thread");
        served += s;
        shed += d;
    }
    assert_eq!(
        served + shed,
        THREADS * BATCHES_PER_THREAD,
        "every request answered or refused — none dropped"
    );
    assert!(served > 0, "some batches are served even under contention");

    // The server's own books must agree: answered + overloaded == sent.
    let (mut s, mut r) = connect(&server);
    let stats = roundtrip(&mut s, &mut r, r#"{"kind":"stats"}"#);
    let stat = |k: &str| stats.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0) as usize;
    assert_eq!(stat("shed"), shed, "wire-level shed matches refused requests");
    assert_eq!(
        stat("served"),
        served * BATCH,
        "served lanes match answered requests times batch width"
    );

    server.shutdown();
    server.join();
}

#[test]
fn overload_sheds_with_a_response_and_serves_the_rest() {
    overload_accounting(1);
}

#[test]
fn sharded_overload_accounting_holds_under_per_shard_shedding() {
    overload_accounting(3);
}

/// With online adaptation on, answers stay correct while the strategy
/// climbs (costs may legitimately change as the strategy improves, so
/// only the decision is pinned), on one shard and on two.
#[test]
fn adaptation_keeps_answers_correct() {
    const ROUNDS: usize = 20;
    let texts = query_texts(layered_params().constants);
    let expected = direct_expectations(&texts);

    for shards in [1, 2] {
        let server =
            start(ServerConfig { shards, adapt_delta: Some(0.2), ..ServerConfig::default() });
        let (mut s, mut r) = connect(&server);

        // Each round rotates the lane order, so the steering key (the
        // first text) differs and the jobs spread over the shards.
        for round in 0..ROUNDS {
            let order: Vec<usize> = (0..texts.len()).map(|i| (i + round) % texts.len()).collect();
            let qs = order.iter().map(|&i| format!("\"{}\"", texts[i])).collect::<Vec<_>>();
            let req = format!(r#"{{"kind":"batch","qs":[{}]}}"#, qs.join(","));
            let resp = roundtrip(&mut s, &mut r, &req);
            let results =
                resp.get("results").and_then(JsonValue::as_array).expect("answers has results");
            assert_eq!(results.len(), texts.len(), "one result per lane");
            for (res, &i) in results.iter().zip(&order) {
                let (kind, _, _) = result_fields(res);
                assert_eq!(kind, expected[i].0, "adaptation never changes the decision");
            }
        }

        let stats = roundtrip(&mut s, &mut r, r#"{"kind":"stats"}"#);
        let served = stats.get("served").and_then(JsonValue::as_f64).unwrap();
        assert_eq!(served as usize, ROUNDS * texts.len(), "{shards} shards");
        let rows = stats.get("shards").and_then(JsonValue::as_array).expect("shards");
        let busy =
            rows.iter().filter(|sh| sh.get("served").and_then(JsonValue::as_f64) > Some(0.0));
        assert_eq!(busy.count(), shards, "every shard served some rounds");

        server.shutdown();
        server.join();
    }
}

/// Drain must flush every shard: shutdown fires while every client is
/// streaming full 64-lane batches, most of them memo misses (fresh
/// constants), so shard queues hold admitted jobs when the drain flag
/// flips. Every request must get exactly one response line — an
/// admitted job its real, bit-identical answers, a late one
/// `shutting_down` — at any shard count. The acceptor stays up until
/// the last shard drains, so no client loses its socket mid-drain.
#[test]
fn drain_flushes_every_shard_without_dropping_admitted_jobs() {
    const CLIENTS: usize = 48;
    const BATCH: usize = 64;
    let constants = layered_params().constants;
    // Request `k` of client `c`: every fourth lane a KB constant (memo
    // hits after the first plane, some provable), the rest fresh.
    let batch_texts = move |c: usize, k: usize| -> Vec<String> {
        (0..BATCH)
            .map(|j| {
                if j % 4 == 0 {
                    format!("q0(c{})", (c + k + j) % constants)
                } else {
                    format!("q0(x{c}_{k}_{j})")
                }
            })
            .collect()
    };

    for shards in [1usize, 2, 4] {
        let server = start(ServerConfig {
            shards,
            // Every client's batch fits in one shard's queue at once.
            queue_cap: CLIENTS * BATCH,
            // Handlers close an idle socket one read poll after the
            // drain flag flips; a long poll keeps a briefly descheduled
            // client from reading that as a lost socket.
            read_poll: Duration::from_secs(5),
            ..ServerConfig::default()
        });
        let streaming = Arc::new(AtomicUsize::new(0));

        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = server.local_addr();
                let streaming = Arc::clone(&streaming);
                thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    // One response per request, until the server
                    // refuses one with `shutting_down`.
                    let mut got = Vec::new();
                    for k in 0.. {
                        let qs = batch_texts(c, k)
                            .iter()
                            .map(|t| format!("\"{t}\""))
                            .collect::<Vec<_>>()
                            .join(",");
                        let resp = roundtrip(
                            &mut stream,
                            &mut reader,
                            &format!(r#"{{"kind":"batch","qs":[{qs}],"id":{k}}}"#),
                        );
                        let refused = resp.get("kind").and_then(JsonValue::as_str) == Some("error");
                        if k == 0 {
                            streaming.fetch_add(1, Ordering::SeqCst);
                        }
                        got.push(resp);
                        if refused {
                            break;
                        }
                    }
                    got
                })
            })
            .collect();

        // Fire shutdown only once every client has been answered at
        // least once, so all of them are mid-stream when it lands.
        let t0 = std::time::Instant::now();
        while streaming.load(Ordering::SeqCst) < CLIENTS {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "shards={shards}: clients did not start streaming in time"
            );
            thread::sleep(Duration::from_millis(1));
        }
        server.shutdown();

        for (c, h) in handles.into_iter().enumerate() {
            let got = h.join().expect("drained client thread");
            let (last, served) = got.split_last().expect("every client sent requests");
            assert_eq!(
                last.get("error").and_then(JsonValue::as_str),
                Some("shutting_down"),
                "shards={shards}: client {c} streamed until the drain refused it"
            );
            for (k, resp) in served.iter().enumerate() {
                assert_eq!(
                    resp.get("kind").and_then(JsonValue::as_str),
                    Some("answers"),
                    "shards={shards}: an admitted job must be served, not dropped"
                );
                assert_eq!(resp.get("id").and_then(JsonValue::as_f64), Some(k as f64));
                let results = resp.get("results").and_then(JsonValue::as_array).unwrap();
                let texts = batch_texts(c, k);
                assert_eq!(results.len(), texts.len(), "one result per lane");
                for (r, exp) in results.iter().zip(direct_expectations(&texts)) {
                    let (kind, witness, cost) = result_fields(r);
                    let (exp_kind, exp_witness, exp_cost) = exp;
                    assert_eq!(kind, exp_kind, "shards={shards}: drained answer is real");
                    assert_eq!(witness, exp_witness);
                    assert_eq!(cost, Some(exp_cost), "drained answers stay bit-identical");
                }
            }
        }
        server.join();
    }
}

/// The `stats` wire op carries the per-shard breakdown: one entry per
/// shard, every schema field present, per-shard totals summing to the
/// fleet totals.
#[test]
fn stats_schema_covers_per_shard_breakdown() {
    const SHARDS: usize = 3;
    const ROUNDS: usize = 6;
    let texts = query_texts(layered_params().constants);

    let server =
        start(ServerConfig { shards: SHARDS, adapt_delta: Some(0.2), ..ServerConfig::default() });
    let (mut s, mut r) = connect(&server);

    let qs = texts.iter().map(|t| format!("\"{t}\"")).collect::<Vec<_>>().join(",");
    let req = format!(r#"{{"kind":"batch","qs":[{qs}]}}"#);
    for _ in 0..ROUNDS {
        roundtrip(&mut s, &mut r, &req);
    }

    let stats = roundtrip(&mut s, &mut r, r#"{"kind":"stats"}"#);
    assert_eq!(stats.get("kind").and_then(JsonValue::as_str), Some("stats"));
    for key in [
        "queue_lanes",
        "served",
        "batches",
        "shed",
        "errors",
        "climbs",
        "adoptions",
        "steer_fallbacks",
        "fill_ratio",
        "p50_us",
        "p99_us",
    ] {
        assert!(stats.get(key).and_then(JsonValue::as_f64).is_some(), "missing total {key}");
    }
    let shards = stats.get("shards").and_then(JsonValue::as_array).expect("shards array");
    assert_eq!(shards.len(), SHARDS, "one breakdown entry per shard");
    let mut shard_served = 0.0;
    for (i, sh) in shards.iter().enumerate() {
        assert_eq!(sh.get("shard").and_then(JsonValue::as_f64), Some(i as f64));
        for key in [
            "queue_lanes",
            "served",
            "batches",
            "declined",
            "errors",
            "climbs",
            "adoptions",
            "fill_ratio",
            "p50_us",
            "p99_us",
        ] {
            assert!(sh.get(key).and_then(JsonValue::as_f64).is_some(), "shard {i} missing {key}");
        }
        shard_served += sh.get("served").and_then(JsonValue::as_f64).unwrap();
    }
    assert_eq!(
        stats.get("served").and_then(JsonValue::as_f64),
        Some(shard_served),
        "per-shard served sums to the fleet total"
    );
    assert_eq!(shard_served as usize, ROUNDS * texts.len(), "all lanes accounted for");
    let metrics = stats.get("metrics").expect("merged metrics snapshot");
    assert!(
        metrics.get("schema_version").and_then(JsonValue::as_f64).is_some(),
        "metrics is an embedded snapshot object"
    );
    let count = |section: &str, name: &str| {
        metrics
            .get(section)
            .and_then(|s| s.get(name))
            .and_then(|m| m.get("count"))
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("metrics {section} missing {name}"))
    };
    let planes = stats.get("batches").and_then(JsonValue::as_f64).unwrap();
    assert!(planes > 0.0, "the rounds executed planes");
    assert_eq!(count("values", "serve.plane_width"), planes, "one plane width per executed plane");
    // One client, one request in flight: every request is its own cut,
    // including memo-only cuts that execute no plane.
    assert_eq!(count("spans", "serve.exec"), ROUNDS as f64, "one serve.exec span per cut");
    assert_eq!(
        count("spans", "serve.learn"),
        planes,
        "with adaptation on, every executed plane is observed after its replies"
    );
    assert_eq!(count("values", "serve.service_us"), ROUNDS as f64, "one service time per request");

    server.shutdown();
    server.join();
}

/// `shutdown` answers `bye`, refuses subsequent work, drains, and
/// `join` returns.
#[test]
fn graceful_shutdown_drains_and_joins() {
    let server = start(ServerConfig::default());
    let (mut s, mut r) = connect(&server);

    let answer = roundtrip(&mut s, &mut r, r#"{"kind":"query","q":"q0(c0)"}"#);
    assert_eq!(answer.get("kind").and_then(JsonValue::as_str), Some("answer"));

    let bye = roundtrip(&mut s, &mut r, r#"{"kind":"shutdown"}"#);
    assert_eq!(bye.get("kind").and_then(JsonValue::as_str), Some("bye"));

    // After the drain flag flips, new submissions are refused in-band.
    // The acceptor may already be gone; a refusal line, a refused
    // connect, and a closed socket are all acceptable once draining.
    if let Ok(mut s2) = TcpStream::connect(server.local_addr()) {
        s2.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut r2 = BufReader::new(s2.try_clone().unwrap());
        let mut line = String::new();
        if s2.write_all(b"{\"kind\":\"query\",\"q\":\"q0(c0)\"}\n").is_ok() {
            if let Ok(n) = r2.read_line(&mut line) {
                if n > 0 {
                    let resp = JsonValue::parse(&line).expect("valid JSON");
                    assert_eq!(
                        resp.get("error").and_then(JsonValue::as_str),
                        Some("shutting_down")
                    );
                }
            }
        }
    }

    server.join();
}

/// Live KB deltas, end to end: an `update` changes answers on every
/// shard, acks report the per-shard applied-delta counter, and `stats`
/// proves the shared-nothing replicas converged (equal counters on all
/// shards).
#[test]
fn updates_change_answers_and_replicas_converge() {
    let server = Server::start(
        ServeEngine::figure1(),
        ServerConfig { shards: 2, ..ServerConfig::default() },
    )
    .expect("server starts");
    let (mut s, mut r) = connect(&server);

    // Not provable yet — and this "no" gets memoized per shard.
    let before = roundtrip(&mut s, &mut r, r#"{"kind":"query","q":"instructor(ada)"}"#);
    let (kind, _, _) = result_fields(before.get("result").unwrap());
    assert_eq!(kind, "no");

    // Insert prof(ada): a footprint predicate, so the memoized "no"
    // must be selectively invalidated on every shard.
    let upd = roundtrip(&mut s, &mut r, r#"{"kind":"update","insert":["prof(ada)"],"id":1}"#);
    assert_eq!(upd.get("kind").and_then(JsonValue::as_str), Some("updated"));
    assert_eq!(upd.get("id").and_then(JsonValue::as_f64), Some(1.0));
    assert_eq!(upd.get("inserted").and_then(JsonValue::as_f64), Some(1.0));
    assert_eq!(upd.get("retracted").and_then(JsonValue::as_f64), Some(0.0));
    assert_eq!(upd.get("deltas_applied").and_then(JsonValue::as_f64), Some(1.0));

    // Every shard must now prove it: sweep more queries than shards so
    // steering cannot hide a stale replica.
    for i in 0..8 {
        let resp = roundtrip(
            &mut s,
            &mut r,
            &format!(r#"{{"kind":"query","q":"instructor(ada)","id":{i}}}"#),
        );
        let (kind, witness, _) = result_fields(resp.get("result").unwrap());
        assert_eq!(kind, "yes", "post-insert query {i}");
        assert_eq!(witness.as_deref(), Some("prof(ada)"), "witness is the retrieved fact");
    }

    // Re-asserting a present fact changes nothing but still counts as
    // an applied delta.
    let redo = roundtrip(&mut s, &mut r, r#"{"kind":"update","insert":["prof(ada)"]}"#);
    assert_eq!(redo.get("inserted").and_then(JsonValue::as_f64), Some(0.0));
    assert_eq!(redo.get("deltas_applied").and_then(JsonValue::as_f64), Some(2.0));

    // Retract it again: answers flip back.
    let ret = roundtrip(&mut s, &mut r, r#"{"kind":"update","retract":["prof(ada)"]}"#);
    assert_eq!(ret.get("retracted").and_then(JsonValue::as_f64), Some(1.0));
    assert_eq!(ret.get("deltas_applied").and_then(JsonValue::as_f64), Some(3.0));
    let after = roundtrip(&mut s, &mut r, r#"{"kind":"query","q":"instructor(ada)"}"#);
    let (kind, _, _) = result_fields(after.get("result").unwrap());
    assert_eq!(kind, "no");

    // Convergence, by the book: every shard's applied-delta counter is
    // equal, and the total is shards × deltas.
    let stats = roundtrip(&mut s, &mut r, r#"{"kind":"stats"}"#);
    let shards = stats.get("shards").and_then(JsonValue::as_array).expect("shards");
    assert_eq!(shards.len(), 2);
    for sh in shards {
        assert_eq!(
            sh.get("deltas_applied").and_then(JsonValue::as_f64),
            Some(3.0),
            "every replica applied every delta"
        );
    }
    assert_eq!(stats.get("deltas_applied").and_then(JsonValue::as_f64), Some(6.0));
    let metrics = stats.get("metrics").expect("metrics snapshot");
    let counters = metrics.get("counters").expect("counters map");
    assert!(
        counters.get("serve.kb.delta.applied").and_then(JsonValue::as_f64).unwrap_or(0.0) >= 6.0,
        "delta counters surface in the merged metrics"
    );
    assert!(counters.get("obs.events_dropped").is_some(), "drop counter always present");

    server.shutdown();
    server.join();
}

/// Invalid deltas are refused atomically: nothing applies, on any
/// shard, and the error names the offending fact.
#[test]
fn invalid_updates_are_refused_without_applying_anything() {
    let server = Server::start(
        ServeEngine::figure1(),
        ServerConfig { shards: 2, ..ServerConfig::default() },
    )
    .expect("server starts");
    let (mut s, mut r) = connect(&server);

    for bad in [
        // Non-ground fact.
        r#"{"kind":"update","insert":["prof(X)"]}"#,
        // Arity mismatch with the stored relation.
        r#"{"kind":"update","insert":["prof(a, b)"]}"#,
        // Valid fact first, invalid later: still all-or-nothing.
        r#"{"kind":"update","insert":["prof(ada)","grad(Y)"]}"#,
        // Unparsable.
        r#"{"kind":"update","retract":["prof(("]}"#,
    ] {
        let resp = roundtrip(&mut s, &mut r, bad);
        assert_eq!(resp.get("kind").and_then(JsonValue::as_str), Some("error"), "{bad}");
        assert_eq!(resp.get("error").and_then(JsonValue::as_str), Some("bad_request"), "{bad}");
    }

    // Nothing was applied anywhere — prof(ada) from the mixed delta
    // must not have landed.
    let q = roundtrip(&mut s, &mut r, r#"{"kind":"query","q":"instructor(ada)"}"#);
    let (kind, _, _) = result_fields(q.get("result").unwrap());
    assert_eq!(kind, "no");
    let stats = roundtrip(&mut s, &mut r, r#"{"kind":"stats"}"#);
    assert_eq!(stats.get("deltas_applied").and_then(JsonValue::as_f64), Some(0.0));

    server.shutdown();
    server.join();
}

/// Deltas on predicates outside the compiled graph's dependency
/// footprint leave every shard's answer memo warm: over rounds that
/// alternately insert and retract such a fact, with adaptation on, at
/// one shard and at two, repeat queries keep hitting the memo with the
/// answers and cost bits of their first serve, no selective
/// invalidation fires, and every replica applies every round.
#[test]
fn irrelevant_deltas_keep_the_answer_memo_warm() {
    const ROUNDS: u64 = 8;
    let probes = ["instructor(russ)", "instructor(manolis)", "instructor(fred)", "instructor(ada)"];
    for shards in [1, 2] {
        let steered: std::collections::BTreeSet<_> =
            probes.iter().map(|q| qpl_serve::steer_shard(q, shards)).collect();
        assert_eq!(steered.len(), shards, "the probes reach every shard");
        let server = Server::start(
            ServeEngine::figure1(),
            ServerConfig { shards, adapt_delta: Some(0.2), ..ServerConfig::default() },
        )
        .expect("starts");
        let (mut s, mut r) = connect(&server);
        let serve_all = |s: &mut TcpStream, r: &mut BufReader<TcpStream>| {
            probes.map(|q| {
                let resp = roundtrip(s, r, &format!(r#"{{"kind":"query","q":"{q}"}}"#));
                result_fields(resp.get("result").expect("answer carries a result"))
            })
        };
        let first = serve_all(&mut s, &mut r);
        assert_eq!(first[0].0, "yes", "russ is an instructor");

        // Round `i` inserts `churn(u{i})` on even rounds and retracts
        // the previous round's fact on odd ones: a predicate no
        // instructor query retrieves.
        for i in 0..ROUNDS {
            let upd = if i % 2 == 0 {
                format!(r#"{{"kind":"update","insert":["churn(u{i})"],"id":{i}}}"#)
            } else {
                format!(r#"{{"kind":"update","retract":["churn(u{})"],"id":{i}}}"#, i - 1)
            };
            let ack = roundtrip(&mut s, &mut r, &upd);
            assert_eq!(ack.get("kind").and_then(JsonValue::as_str), Some("updated"), "{ack:?}");
            assert_eq!(
                ack.get("deltas_applied").and_then(JsonValue::as_f64),
                Some((i + 1) as f64),
                "round {i} applied on every shard"
            );
            assert_eq!(serve_all(&mut s, &mut r), first, "round {i}: answers and cost bits");
        }

        let stats = roundtrip(&mut s, &mut r, r#"{"kind":"stats"}"#);
        let counters = stats.get("metrics").and_then(|m| m.get("counters")).expect("counters");
        let counter = |name: &str| counters.get(name).and_then(JsonValue::as_f64).unwrap_or(0.0);
        assert_eq!(
            counter("serve.cache.hits"),
            (ROUNDS * probes.len() as u64) as f64,
            "every repeat query hit its shard's memo across the irrelevant deltas"
        );
        assert_eq!(
            counter("cache.selective_invalidations"),
            0.0,
            "an out-of-footprint delta never flushes the memo"
        );
        let rows = stats.get("shards").and_then(JsonValue::as_array).expect("shards");
        assert_eq!(rows.len(), shards);
        for sh in rows {
            assert_eq!(
                sh.get("deltas_applied").and_then(JsonValue::as_f64),
                Some(ROUNDS as f64),
                "every replica applied every round"
            );
        }

        server.shutdown();
        server.join();
    }
}

/// `max_line_bytes` bounds every request line, including one whose
/// newline arrives in the same read that crosses the limit.
#[test]
fn a_line_over_max_line_bytes_is_refused_even_when_it_arrives_whole() {
    let server = start(ServerConfig { max_line_bytes: 256, ..ServerConfig::default() });
    let (mut s, mut r) = connect(&server);

    let qs = query_texts(28).iter().map(|t| format!("\"{t}\"")).collect::<Vec<_>>().join(",");
    let line = format!("{{\"kind\":\"batch\",\"qs\":[{qs}]}}\n");
    assert!((280..320).contains(&line.len()), "a ~300-byte line: {}", line.len());
    s.write_all(line.as_bytes()).unwrap();
    let mut resp = String::new();
    r.read_line(&mut resp).expect("read response");
    let resp = JsonValue::parse(&resp).expect("response is valid JSON");
    assert_eq!(resp.get("error").and_then(JsonValue::as_str), Some("bad_request"), "{resp:?}");
    assert_eq!(
        resp.get("detail").and_then(JsonValue::as_str),
        Some("line exceeds max_line_bytes"),
        "{resp:?}"
    );

    server.shutdown();
    server.join();
}

/// The empty-shard stats path: a server that has served nothing reports
/// finite zero fill ratios (no NaN from a zero plane-capacity
/// denominator), zero deltas, and a complete schema.
#[test]
fn empty_server_stats_are_finite_and_complete() {
    let server = Server::start(
        ServeEngine::figure1(),
        ServerConfig { shards: 3, ..ServerConfig::default() },
    )
    .expect("server starts");
    let (mut s, mut r) = connect(&server);

    let stats = roundtrip(&mut s, &mut r, r#"{"kind":"stats"}"#);
    assert_eq!(stats.get("fill_ratio").and_then(JsonValue::as_f64), Some(0.0));
    assert_eq!(stats.get("deltas_applied").and_then(JsonValue::as_f64), Some(0.0));
    let shards = stats.get("shards").and_then(JsonValue::as_array).expect("shards");
    assert_eq!(shards.len(), 3);
    for sh in shards {
        let fill = sh.get("fill_ratio").and_then(JsonValue::as_f64).expect("finite fill");
        assert_eq!(fill, 0.0, "empty shard fill is 0.0, not NaN");
        assert_eq!(sh.get("deltas_applied").and_then(JsonValue::as_f64), Some(0.0));
    }

    server.shutdown();
    server.join();
}
