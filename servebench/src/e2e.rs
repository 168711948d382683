//! The end-to-end run: set up an in-process server, drive it over TCP
//! through the closed-loop, open-loop and ladder phases, pull its
//! `stats`, and check every logged answer.
//!
//! Only stable entry points are used here — `ServeEngine`, `Server`,
//! `ServerConfig` and the wire protocol — so refactors of the engine
//! internals can break the traced replay but never the gated numbers.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use qpl_serve::{JsonValue, ServeEngine, Server, ServerConfig};
use qpl_store::FsyncPolicy;

use crate::check::check_connection;
use crate::gen::{Plan, Workload, BATCH, CONNS};
use crate::load::{Client, Kind, OpenResult};
use crate::net::Conn;
use crate::stats::{mean, median, percentile, sorted};

/// PIB confidence parameter the server adapts with (`1 - δ`).
pub const ADAPT_DELTA: f64 = 0.1;
/// Samples per chunk for the chunked p99 (leaves 10 beyond each p99).
const P99_CHUNK: usize = 1000;
/// The p99 limit a ladder rung must meet, ms.
pub const SLO_MS: f64 = 50.0;
/// The `qps_at_slo` ladder, one fixed grid for every workload: rung `i`
/// sends `LADDER_BASE * LADDER_RATIO^i` requests/s over both
/// connections, so neighbouring rungs are 2.5% apart.
pub const LADDER_BASE: f64 = 50.0;
pub const LADDER_RATIO: f64 = 1.025;
/// Rung attempts (retries included) one ladder may run; each lasts
/// `LADDER_SHARE * --seconds / LADDER_RUNGS` (about 1 s at 30 s). The
/// search below needs at most 11 to resolve a boundary within 1.22x
/// above or below its start rung to one grid step.
pub const LADDER_RUNGS: usize = 11;
/// Grid steps the search jumps from its last rung while it has not yet
/// seen both a pass and a failure (1.025^8 = 1.22).
const LADDER_JUMP: i32 = 8;

/// Fraction of `--seconds` each phase gets. The closed-loop and
/// open-loop phases are split into `BLOCKS` interleaved blocks, each on
/// fresh connections (so fresh server handler threads): a run samples
/// the whole of its time and several thread placements, and each
/// metric pools every block rather than one stretch's luck.
const WARMUP_SHARE: f64 = 0.03;
const CLOSED_SHARE: f64 = 0.25;
const OPEN_SHARE: f64 = 0.35;
const LADDER_SHARE: f64 = 0.37;
const BLOCKS: usize = 16;
/// The ladder starts at the highest rung at or below this share of the
/// closed-loop request rate, just below where earlier runs found the
/// boundary.
const LADDER_START: f64 = 0.85;

/// The served configuration. With a data dir (churn) the server
/// journals every update and checkpoints, but does not fsync: on the
/// shared virtual disk `fdatasync` latency drifted 0.07 -> 0.3 ms (p50)
/// and 0.17 -> 0.9 ms (p99) within an hour, and churn's update p50 with
/// `EveryBatch` swung 0.6-5.7 ms between runs, measuring the host's
/// disk rather than the server. The traced replay journals with
/// `EveryBatch`, so `store.append_commit.us_per_update` prices fsync.
const SERVED_FSYNC: FsyncPolicy = FsyncPolicy::Off;

fn server_config(data_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        shards: 1,
        queue_cap: 4096,
        adapt_delta: Some(ADAPT_DELTA),
        data_dir,
        fsync: SERVED_FSYNC,
        ..ServerConfig::default()
    }
}

/// One ladder rung's outcome.
#[derive(Debug)]
pub struct Rung {
    pub rate: f64,
    pub p99_ms: f64,
    pub served_qps: f64,
    pub samples: usize,
    pub failed: u64,
    pub overran: bool,
    pub passed: bool,
}

/// Everything the end-to-end run measured.
#[derive(Debug, Default)]
pub struct E2e {
    pub setup_s: f64,
    pub setup_samples: Vec<f64>,
    pub qps_peak: f64,
    pub lat_p50_ms: f64,
    pub lat_p99_ms: f64,
    pub lat_samples: usize,
    pub update_p50_ms: f64,
    pub update_p99_ms: f64,
    pub update_samples: usize,
    pub gen_lag_p99_ms: f64,
    pub qps_at_slo: f64,
    pub rungs: Vec<Rung>,
    /// The ladder found a passing rung whose next grid rung failed.
    pub ladder_resolved: bool,
    pub cold_pool_wraps: usize,
    pub cost_mean: f64,
    /// Peak RSS of the process at the end of the load. The harness's
    /// share stays flat under load: lane logs go to disk, lane keys are
    /// bounded by constants x states, and timing samples are per phase.
    pub rss_mb: f64,
    /// Peak RSS after set-up, before any load: the harness, the plan
    /// and the set-up servers.
    pub rss_setup_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    pub lanes_checked: usize,
    pub arcs: usize,
    /// The server's `stats` reply after the load.
    pub stats: Option<JsonValue>,
}

fn io_err(e: std::io::Error) -> String {
    e.to_string()
}

/// The probe query every setup rep waits for: its constant is in no
/// stream, so it never warms the memo for the load.
const PROBE: &str = r#"{"kind":"query","q":"q0(zsetup)"}"#;

/// Builds the engine, starts the server (recovering `data_dir`, if
/// any) and waits for the first answer. Returns the running server and
/// the elapsed seconds.
fn start_once(plan: &Plan, data_dir: Option<PathBuf>) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let engine = ServeEngine::from_source(&plan.kb, plan.form)?;
    let server = Server::start(engine, server_config(data_dir)).map_err(io_err)?;
    let mut conn = Conn::connect(server.local_addr()).map_err(io_err)?;
    let reply = conn.call(PROBE).map_err(io_err)?;
    let elapsed = t0.elapsed().as_secs_f64();
    if !reply.contains("\"answer\":\"no\"") {
        return Err(format!("setup probe answered {reply}"));
    }
    Ok((server, elapsed))
}

fn stop(server: Server) -> Result<(), String> {
    let mut ctl = Conn::connect(server.local_addr()).map_err(io_err)?;
    let bye = ctl.call(r#"{"kind":"shutdown"}"#).map_err(io_err)?;
    if !bye.contains("\"kind\":\"bye\"") {
        return Err(format!("shutdown answered {bye}"));
    }
    drop(ctl);
    server.join();
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(io_err)?;
    for entry in std::fs::read_dir(from).map_err(io_err)? {
        let entry = entry.map_err(io_err)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io_err)?;
    }
    Ok(())
}

/// Churn's untimed pre-phase: journals insert/retract pairs (net zero,
/// so the recovered KB equals the base KB) with a checkpoint halfway,
/// leaving a snapshot plus a WAL tail to recover.
const PRE_UPDATES: usize = 400;

fn write_pristine(plan: &Plan, dir: &Path) -> Result<(), String> {
    let (server, _) = start_once(plan, Some(dir.to_path_buf()))?;
    let mut conn = Conn::connect(server.local_addr()).map_err(io_err)?;
    let mut stream = plan.stream(0);
    let mut sent = 0;
    while sent < PRE_UPDATES {
        if let crate::gen::Op::Update { line, .. } = stream.next_op(false) {
            let ack = conn.call(&line).map_err(io_err)?;
            if !ack.contains("\"kind\":\"updated\"") {
                return Err(format!("pre-phase update answered {ack}"));
            }
            sent += 1;
            if sent == PRE_UPDATES / 2 {
                let ck = conn.call(r#"{"kind":"checkpoint"}"#).map_err(io_err)?;
                if !ck.contains("\"kind\":\"checkpointed\"") {
                    return Err(format!("pre-phase checkpoint answered {ck}"));
                }
            }
        }
    }
    drop(conn);
    stop(server)
}

/// Set-up repetitions per run; the median is reported.
fn setup_reps(w: Workload) -> usize {
    match w {
        Workload::Cold => 3,
        _ => 25,
    }
}

/// Runs the open loop on every client at `rate` requests/s (split
/// evenly, connections offset by half an interval) for `secs`.
fn open_phase(clients: &mut [Client<'_>], rate: f64, secs: f64) -> Result<Vec<OpenResult>, String> {
    let per_conn = rate / CONNS as f64;
    let interval = Duration::from_secs_f64(1.0 / per_conn);
    let count = (secs * per_conn).round().max(1.0) as u64;
    let start = Instant::now() + Duration::from_millis(5);
    thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, c)| {
                let offset = interval.mul_f64(k as f64 / CONNS as f64);
                s.spawn(move || c.open_loop(start, offset, interval, count))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread").map_err(io_err)).collect()
    })
}

/// Runs the closed loop on every client for `secs`; returns the query
/// lanes answered per second.
fn closed_phase(clients: &mut [Client<'_>], secs: f64) -> Result<f64, String> {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    let lanes: u64 = thread::scope(|s| {
        let handles: Vec<_> =
            clients.iter_mut().map(|c| s.spawn(move || c.closed_loop(until))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread").map_err(io_err))
            .sum::<Result<_, _>>()
    })?;
    Ok(lanes as f64 / start.elapsed().as_secs_f64())
}

/// One ladder rung, retried once on failure, on fresh connections.
/// Returns whether it passed (recording its served rate as the current
/// `qps_at_slo`), or `None` when the ladder's rung budget ran out.
fn run_rung(
    clients: &mut [Client<'_>],
    rate: f64,
    rung_secs: f64,
    budget: &mut usize,
    out: &mut E2e,
) -> Result<Option<bool>, String> {
    for _attempt in 0..2 {
        if *budget == 0 {
            return Ok(None);
        }
        *budget -= 1;
        clients.iter_mut().try_for_each(Client::reconnect).map_err(io_err)?;
        let res = open_phase(clients, rate, rung_secs)?;
        let lat = latencies(&res, Kind::Query);
        let lanes: u64 = res.iter().map(|r| r.lanes).sum();
        let p99_ms = p99_of(&chunk_p99s(&lat), &lat);
        let failed = res.iter().map(|r| r.failed).sum();
        let overran = res.iter().any(|r| r.overran);
        let passed = !overran && failed == 0 && p99_ms <= SLO_MS;
        let served_qps = lanes as f64 / rung_secs;
        out.rungs.push(Rung {
            rate,
            p99_ms,
            served_qps,
            samples: lat.len(),
            failed,
            overran,
            passed,
        });
        if passed {
            out.qps_at_slo = served_qps;
            return Ok(Some(true));
        }
    }
    Ok(Some(false))
}

/// The ladder: jump `LADDER_JUMP` grid steps from the start rung until
/// one rung passes and one fails, then bisect between the highest pass
/// and the lowest failure until they are neighbours. Passes always sit
/// below failures, so each pass raises `qps_at_slo`.
fn ladder(
    clients: &mut [Client<'_>],
    closed_rps: f64,
    rung_secs: f64,
    out: &mut E2e,
) -> Result<(), String> {
    let rate = |i: i32| LADDER_BASE * LADDER_RATIO.powi(i);
    let start = (LADDER_START * closed_rps / LADDER_BASE).ln() / LADDER_RATIO.ln();
    let mut at = start.floor().max(0.0) as i32;
    let (mut pass, mut fail) = (None, None);
    let mut budget = LADDER_RUNGS;
    while let Some(passed) = run_rung(clients, rate(at), rung_secs, &mut budget, out)? {
        if passed {
            pass = Some(at);
        } else {
            fail = Some(at);
        }
        at = match (pass, fail) {
            (Some(p), Some(f)) if f - p <= 1 => {
                out.ladder_resolved = true;
                break;
            }
            (Some(p), Some(f)) => (p + f) / 2,
            (Some(p), None) => p + LADDER_JUMP,
            (None, Some(0)) => break,
            (None, Some(f)) => (f - LADDER_JUMP).max(0),
            (None, None) => unreachable!("a rung ran"),
        };
    }
    Ok(())
}

/// The p99 of each full `P99_CHUNK`-sample chunk (due order).
fn chunk_p99s(samples: &[f64]) -> Vec<f64> {
    samples.chunks_exact(P99_CHUNK).map(|c| percentile(&sorted(c.to_vec()), 0.99)).collect()
}

/// The median of the chunk p99s; with no full chunk, the plain p99.
fn p99_of(chunk_p99s: &[f64], all: &[f64]) -> f64 {
    if chunk_p99s.is_empty() {
        percentile(&sorted(all.to_vec()), 0.99)
    } else {
        median(chunk_p99s)
    }
}

/// Latencies (ms) of one kind, in due order across connections.
fn latencies(results: &[OpenResult], kind: Kind) -> Vec<f64> {
    let mut v: Vec<(u64, f64)> = results
        .iter()
        .flat_map(|r| r.samples.iter())
        .filter(|s| s.kind == kind)
        .map(|s| (s.due_ns, s.lat_ns as f64 / 1e6))
        .collect();
    v.sort_by_key(|x| x.0);
    v.into_iter().map(|x| x.1).collect()
}

fn stats_of(addr: SocketAddr) -> Result<JsonValue, String> {
    let mut ctl = Conn::connect(addr).map_err(io_err)?;
    let line = ctl.call(r#"{"kind":"stats"}"#).map_err(io_err)?;
    JsonValue::parse(&line)
}

/// The whole end-to-end run. `run_dir` holds churn's data dirs.
pub fn run(plan: &Plan, seconds: f64, run_dir: &Path) -> Result<E2e, String> {
    let mut out = E2e::default();
    let durable = plan.workload == Workload::Churn;
    let pristine = run_dir.join("pristine");
    if durable {
        write_pristine(plan, &pristine)?;
    }
    // Set-up: the last rep's server carries the load.
    let reps = setup_reps(plan.workload);
    let mut server = None;
    for rep in 0..reps {
        let dir = if durable {
            let d = run_dir.join(format!("data-{rep}"));
            copy_dir(&pristine, &d)?;
            Some(d)
        } else {
            None
        };
        let (s, secs) = start_once(plan, dir)?;
        out.setup_samples.push(secs);
        if rep + 1 < reps {
            stop(s)?;
        } else {
            server = Some(s);
        }
    }
    out.setup_s = median(&out.setup_samples);
    let server = server.expect("at least one set-up rep");
    let addr = server.local_addr();
    out.rss_setup_mb = crate::stats::peak_rss_mb();

    let mut clients: Vec<Client<'_>> = (0..CONNS)
        .map(|k| {
            let log = run_dir.join(format!("lanes-{k}.tsv"));
            Client::connect(addr, plan.stream(k), plan.constants_repeat(), &log)
        })
        .collect::<Result<_, _>>()
        .map_err(io_err)?;
    let reconnect = |clients: &mut [Client<'_>]| -> Result<(), String> {
        clients.iter_mut().try_for_each(Client::reconnect).map_err(io_err)
    };

    closed_phase(&mut clients, (seconds * WARMUP_SHARE).max(0.3))?;
    let (mut rates, mut lat_p99s, mut upd_p99s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lat_p50s, mut upd_p50s) = (Vec::new(), Vec::new());
    let (mut q_all, mut u_all, mut lags) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..BLOCKS {
        reconnect(&mut clients)?;
        rates.push(closed_phase(&mut clients, seconds * CLOSED_SHARE / BLOCKS as f64)?);
        reconnect(&mut clients)?;
        let open =
            open_phase(&mut clients, plan.load.open_rate, seconds * OPEN_SHARE / BLOCKS as f64)?;
        let q = latencies(&open, Kind::Query);
        let u = latencies(&open, Kind::Update);
        // A short run's block can miss a kind (smoke tests).
        if !q.is_empty() {
            lat_p50s.push(percentile(&sorted(q.clone()), 0.5));
        }
        if !u.is_empty() {
            upd_p50s.push(percentile(&sorted(u.clone()), 0.5));
        }
        lat_p99s.extend(chunk_p99s(&q));
        upd_p99s.extend(chunk_p99s(&u));
        q_all.extend(q);
        u_all.extend(u);
        lags.extend(open.iter().flat_map(|r| r.lag_ns.iter()).map(|&ns| ns as f64 / 1e6));
    }
    // Each block runs on fresh connections, so fresh server handler
    // threads, and lands in one of two modes of its thread placement
    // (a block's update p50 sits near 0.125 ms or near 0.2 ms on a
    // 2-vCPU VM; its throughput and query p50 move with it). A median
    // across blocks jumps between the modes; the mean of the block
    // figures follows the share of blocks in each, which settles.
    out.qps_peak = mean(&rates);
    out.lat_samples = q_all.len();
    out.lat_p50_ms = mean(&lat_p50s);
    out.lat_p99_ms = p99_of(&lat_p99s, &q_all);
    out.update_samples = u_all.len();
    out.update_p50_ms = mean(&upd_p50s);
    // Only churn sends updates; elsewhere their latencies report 0.
    out.update_p99_ms = if u_all.is_empty() { 0.0 } else { p99_of(&upd_p99s, &u_all) };
    out.gen_lag_p99_ms = percentile(&sorted(lags), 0.99);

    // Requests per query request: updates ride between the queries.
    let every = plan.load.update_every as f64;
    let per_query = if every > 0.0 { every / (every - 1.0) } else { 1.0 };
    let closed_rps = out.qps_peak / BATCH as f64 * per_query;
    ladder(&mut clients, closed_rps, seconds * LADDER_SHARE / LADDER_RUNGS as f64, &mut out)?;

    out.cold_pool_wraps = clients.iter().map(|c| c.stream.pool_wraps()).sum();
    out.stats = Some(stats_of(addr)?);
    out.rss_mb = crate::stats::peak_rss_mb();
    stop(server)?;

    // Correctness, outside every timed window.
    let reference = ServeEngine::from_source(&plan.kb, plan.form)?;
    out.arcs = reference.compiled.graph.arc_count();
    let mut lanes = 0u64;
    let mut cost = 0.0;
    let checked: Vec<Vec<String>> = thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut c: Client<'_>| {
                let engine = reference.clone();
                s.spawn(move || -> Result<_, String> {
                    c.log.finish().map_err(io_err)?;
                    let (attempted, failed) = (c.log.attempted(), c.log.failed());
                    let (n, mut wrong) = check_connection(plan, engine, &c.log.path)?;
                    wrong.append(&mut c.log.wrong);
                    Ok((attempted, failed, c.log.lanes, c.log.cost_sum, n, wrong))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (att, failed, l, cs, n, wrong) = h.join().expect("checker thread")?;
                out.attempted += att;
                out.failed += failed;
                lanes += l;
                cost += cs;
                out.lanes_checked += n;
                Ok(wrong)
            })
            .collect::<Result<_, String>>()
    })?;
    out.wrong = checked.into_iter().flatten().collect();
    out.cost_mean = cost / lanes.max(1) as f64;
    Ok(out)
}
