//! Benchmarks the `qpl-store` durability subsystem end to end and
//! emits `BENCH_store.json`.
//!
//! ```text
//! bench_store [--out BENCH_store.json] [--appends N] [--train N]
//!             [--min-speedup X]
//! ```
//!
//! Three sections:
//!
//! * **WAL append throughput** — `--appends` KB-delta records journaled
//!   and group-committed (64-record batches) under each fsync policy
//!   (`record` / `batch` / `off`), reported as records/s and MB/s. The
//!   spread is the price list an operator chooses from.
//! * **Checkpoint at E18 scale** — the layered-DAG reachability KB from
//!   experiment E18 (14 layers, the `BENCH_tabling` "big" shape) plus
//!   churned facts is snapshotted through the atomic
//!   rename-into-place path; reports snapshot bytes, write time, and
//!   recover (open + replay) time.
//! * **Cold start vs warm restart** — over the Figure-1 "minors"
//!   workload (queried kids are never professors, so the learner must
//!   climb from prof-first to grad-first). Cold = build the KB and
//!   *relearn* the adopted strategy by serving `--train` training
//!   queries through the PIB; warm = `Store::open`, rebuild the KB
//!   from the snapshot, `Pib::restore` the learner's Chernoff state,
//!   and answer the same probe. Both must produce the identical answer
//!   and strategy fingerprint, and the warm path must be at least
//!   `--min-speedup`× (default 10×) faster — asserted, not just
//!   reported: durability's whole point is not paying the relearning
//!   bill twice.

use qpl_bench::schema::{self, round};
use qpl_core::{CandidateState, ClimbState, Pib, PibConfig, PibState};
use qpl_datalog::parser::parse_query;
use qpl_datalog::{Database, Fact, SymbolTable, Term};
use qpl_engine::{QueryMixOracle, QueryProcessor};
use qpl_graph::graph::ArcId;
use qpl_graph::Strategy;
use qpl_obs::{json_obj, JsonValue};
use qpl_store::{
    CandidateEntry, ClimbEntry, FsyncPolicy, PibSnapshot, Record, Snapshot, Store, StoreConfig,
    StrategyState,
};
use qpl_workload::generator::{recursive_path_kb, RecursiveKbParams};
use qpl_workload::paper::university;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

const SEED: u64 = 20260808;
/// Records per group commit in the WAL throughput section — the same
/// order as one serve control batch.
const COMMIT_EVERY: usize = 64;

struct Args {
    out: String,
    appends: usize,
    train: usize,
    min_speedup: f64,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get =
        |flag: &str| argv.iter().position(|a| a == flag).and_then(|p| argv.get(p + 1)).cloned();
    Args {
        out: get("--out").unwrap_or_else(|| "BENCH_store.json".to_string()),
        appends: get("--appends").map_or(2000, |v| v.parse().expect("--appends takes a count")),
        train: get("--train").map_or(20_000, |v| v.parse().expect("--train takes a count")),
        min_speedup: get("--min-speedup")
            .map_or(10.0, |v| v.parse().expect("--min-speedup takes a ratio")),
    }
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpl-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A realistic KB-delta record: one inserted edge fact.
fn delta_record(i: usize) -> Record {
    Record::Delta {
        insert: vec![format!("edge(n{}_{}, n{}_{})", i % 13, i, i % 13 + 1, i)],
        retract: vec![],
    }
}

struct WalRun {
    policy: &'static str,
    records: usize,
    bytes: u64,
    secs: f64,
}

/// Appends + group-commits `n` records under `policy` in a fresh dir.
fn bench_wal(policy: FsyncPolicy, name: &'static str, n: usize) -> WalRun {
    let dir = bench_dir(name);
    let (mut store, _) = Store::open(&dir, StoreConfig { fsync: policy, ..StoreConfig::default() })
        .expect("store opens");
    let t0 = Instant::now();
    let mut bytes = 0u64;
    for i in 0..n {
        let rec = delta_record(i);
        bytes += rec.encode().len() as u64 + 16;
        store.append(&rec).expect("append");
        if (i + 1) % COMMIT_EVERY == 0 {
            store.commit().expect("commit");
        }
    }
    store.commit().expect("final commit");
    let secs = t0.elapsed().as_secs_f64();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    WalRun { policy: name, records: n, bytes, secs }
}

struct CheckpointRun {
    facts: usize,
    snapshot_bytes: u64,
    write_ms: f64,
    recover_ms: f64,
    replayed_records: u64,
}

/// Snapshots the E18-scale KB (14-layer reachability DAG, all edges
/// kept) plus `churn` journaled deltas, then times a full reopen.
fn bench_checkpoint(churn: usize) -> CheckpointRun {
    let (table, _rules, db, _probe) =
        recursive_path_kb(&RecursiveKbParams { layers: 14, width: 2 }, |_, _, _| true);
    let facts = db.dump(&table);
    let mut pred_gens: Vec<(String, u64)> =
        db.predicate_generations().map(|(p, g)| (table.name(p).to_string(), g)).collect();
    pred_gens.sort();
    let snapshot =
        Snapshot { generation: db.generation(), facts, pred_gens, strategy: None, pib: None };

    let dir = bench_dir("checkpoint");
    let (mut store, _) = Store::open(&dir, StoreConfig::default()).expect("store opens");
    for i in 0..churn {
        store.append(&delta_record(i)).expect("append");
    }
    store.commit().expect("commit");

    let t0 = Instant::now();
    let info = store.checkpoint(&snapshot).expect("checkpoint");
    let write_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Post-checkpoint churn so the reopen replays real WAL work too.
    for i in 0..churn {
        store.append(&delta_record(churn + i)).expect("append");
    }
    store.commit().expect("commit");
    drop(store);

    let t0 = Instant::now();
    let (_, recovered) = Store::open(&dir, StoreConfig::default()).expect("reopen");
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let replayed_records = recovered.records_replayed();
    let snap = recovered.snapshot.expect("snapshot came back");
    assert_eq!(snap.facts.len(), snapshot.facts.len(), "every fact survives the round trip");
    assert_eq!(recovered.records.len(), churn, "post-checkpoint churn replays");

    let _ = std::fs::remove_dir_all(&dir);
    CheckpointRun {
        facts: snapshot.facts.len(),
        snapshot_bytes: info.snapshot_bytes,
        write_ms,
        recover_ms,
        replayed_records,
    }
}

fn pib_state_to_snapshot(s: &PibState) -> PibSnapshot {
    PibSnapshot {
        delta: s.delta,
        test_every: s.test_every,
        strategy_arcs: s.strategy_arcs.clone(),
        samples_here: s.samples_here,
        contexts_seen: s.contexts_seen,
        tests_used: s.tests_used,
        history: s
            .history
            .iter()
            .map(|c| ClimbEntry {
                r1: c.r1,
                r2: c.r2,
                samples: c.samples,
                evidence: c.evidence,
                test_index: c.test_index,
            })
            .collect(),
        candidates: s
            .candidates
            .iter()
            .map(|c| CandidateEntry { r1: c.r1, r2: c.r2, sum: c.sum, count: c.count })
            .collect(),
    }
}

fn pib_state_from_snapshot(p: &PibSnapshot) -> PibState {
    PibState {
        delta: p.delta,
        test_every: p.test_every,
        strategy_arcs: p.strategy_arcs.clone(),
        samples_here: p.samples_here,
        contexts_seen: p.contexts_seen,
        tests_used: p.tests_used,
        history: p
            .history
            .iter()
            .map(|c| ClimbState {
                r1: c.r1,
                r2: c.r2,
                samples: c.samples,
                evidence: c.evidence,
                test_index: c.test_index,
            })
            .collect(),
        candidates: p
            .candidates
            .iter()
            .map(|c| CandidateState { r1: c.r1, r2: c.r2, sum: c.sum, count: c.count })
            .collect(),
    }
}

fn parse_ground_fact(text: &str, table: &mut SymbolTable) -> Fact {
    let atom = parse_query(text, table).expect("dumped fact parses");
    let args = atom
        .args
        .iter()
        .map(|t| match t {
            Term::Const(s) => *s,
            Term::Var(_) => panic!("dumped fact must be ground: {text}"),
        })
        .collect();
    Fact::new(atom.predicate, args)
}

struct RestartRun {
    cold_ms: f64,
    warm_ms: f64,
    speedup: f64,
    train: usize,
    climbs: usize,
    fingerprint: u64,
}

/// Builds the DB₂-scale minors knowledge base over the Figure-1
/// fixture: 2000 profs, 500 grads, plus ten queried kids of whom four
/// are grads — the adversarial mix where fact-count statistics point
/// the wrong way and the learner must actually climb to grad-first.
fn minors_kb(u: &mut qpl_workload::paper::University) -> Database {
    let mut db = u.db1.clone();
    let grad = u.table.lookup("grad").expect("grad interned");
    for i in 0..4 {
        let kid = u.table.intern(&format!("kid{i}"));
        db.insert(Fact::new(grad, vec![kid])).expect("consistent arity");
    }
    db
}

/// Cold: build + relearn + answer. Warm: recover + answer. Same
/// answer, same fingerprint, `min_speedup`× faster — or abort.
fn bench_restart(train: usize, min_speedup: f64) -> RestartRun {
    let probe_text = "instructor(kid3)";

    // ---- Cold start: the full relearning bill. ----
    let t_cold = Instant::now();
    let mut u = university();
    let db0 = minors_kb(&mut u);
    let g = &u.compiled.graph;
    let mix: Vec<_> = (0..10)
        .map(|i| {
            let atom =
                parse_query(&format!("instructor(kid{i})"), &mut u.table).expect("query parses");
            (atom, 0.1)
        })
        .collect();
    let oracle = QueryMixOracle::new(&u.compiled, db0.clone(), mix.clone()).expect("mix is valid");
    let dist = oracle.to_distribution();
    let mut pib = Pib::new(g, Strategy::left_to_right(g), PibConfig::new(0.05));
    let mut qp = QueryProcessor::left_to_right(&u.compiled);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut adopted_fp = qp.strategy().fingerprint();
    for _ in 0..train {
        let idx = dist.sample_index(&mut rng);
        // A cold-starting server learns from the queries it serves:
        // every observation is also an execution under the strategy
        // adopted so far.
        qp.run(&mix[idx].0, &db0).expect("training query runs");
        pib.observe(g, dist.context(idx));
        if pib.strategy().fingerprint() != adopted_fp {
            adopted_fp = pib.strategy().fingerprint();
            qp.set_strategy(pib.strategy().clone());
        }
    }
    let probe = parse_query(probe_text, &mut u.table).expect("probe parses");
    let cold_answer = qp.run(&probe, &db0).expect("probe runs");
    let cold_ms = t_cold.elapsed().as_secs_f64() * 1e3;
    let fingerprint = pib.strategy().fingerprint();
    let climbs = pib.history().len();
    assert!(climbs >= 1, "the minors mix must force at least one climb, or cold isn't relearning");

    // Persist what a serving process would have journaled.
    let dir = bench_dir("restart");
    {
        let (mut store, _) = Store::open(&dir, StoreConfig::default()).expect("store opens");
        let mut pred_gens: Vec<(String, u64)> =
            db0.predicate_generations().map(|(p, g)| (u.table.name(p).to_string(), g)).collect();
        pred_gens.sort();
        let snapshot = Snapshot {
            facts: db0.dump(&u.table),
            generation: db0.generation(),
            pred_gens,
            strategy: Some(StrategyState {
                fingerprint,
                arcs: pib.strategy().arcs().iter().map(|a| a.0).collect(),
            }),
            pib: Some(pib_state_to_snapshot(&pib.export_state())),
        };
        store.checkpoint(&snapshot).expect("checkpoint");
    }

    // ---- Warm restart: recover instead of relearn. ----
    let t_warm = Instant::now();
    let mut u2 = university();
    let (_, recovered) = Store::open(&dir, StoreConfig::default()).expect("reopen");
    let snap = recovered.snapshot.expect("snapshot present");
    let mut db = Database::new();
    for text in &snap.facts {
        db.insert(parse_ground_fact(text, &mut u2.table)).expect("fact re-inserts");
    }
    let interned: Vec<_> =
        snap.pred_gens.iter().map(|(p, gen)| (u2.table.intern(p), *gen)).collect();
    db.restore_generations(snap.generation, interned);
    let g2 = &u2.compiled.graph;
    let state = snap.strategy.expect("strategy present");
    let strategy =
        Strategy::from_arcs(g2, state.arcs.iter().map(|&a| ArcId(a)).collect()).expect("rebuilds");
    let pib2 = Pib::restore(g2, &pib_state_from_snapshot(&snap.pib.expect("pib present")))
        .expect("pib restores");
    let mut qp2 = QueryProcessor::left_to_right(&u2.compiled);
    qp2.set_strategy(pib2.strategy().clone());
    let probe2 = parse_query(probe_text, &mut u2.table).expect("probe parses");
    let warm_answer = qp2.run(&probe2, &db).expect("probe runs");
    let warm_ms = t_warm.elapsed().as_secs_f64() * 1e3;

    assert_eq!(strategy.fingerprint(), state.fingerprint, "rebuilt strategy matches journal");
    assert_eq!(
        pib2.strategy().fingerprint(),
        fingerprint,
        "restored learner sits at the relearned strategy"
    );
    let same = matches!(
        (&cold_answer.answer, &warm_answer.answer),
        (qpl_engine::QueryAnswer::Yes(_), qpl_engine::QueryAnswer::Yes(_))
            | (qpl_engine::QueryAnswer::No, qpl_engine::QueryAnswer::No)
    );
    assert!(same, "warm restart must answer exactly what the cold start answered");

    let speedup = cold_ms / warm_ms.max(1e-6);
    assert!(
        speedup >= min_speedup,
        "warm restart ({warm_ms:.2} ms) must be at least {min_speedup}x faster than \
         relearning ({cold_ms:.2} ms); measured {speedup:.1}x"
    );

    let _ = std::fs::remove_dir_all(&dir);
    RestartRun { cold_ms, warm_ms, speedup, train, climbs, fingerprint }
}

fn main() {
    let args = parse_args();

    // Section 1: WAL append throughput under the three fsync policies.
    // `record` pays a sync per append — cap its record count so the
    // bench stays snappy on slow disks.
    let wal_runs = vec![
        bench_wal(FsyncPolicy::EveryRecord, "record", args.appends.min(512)),
        bench_wal(FsyncPolicy::EveryBatch, "batch", args.appends),
        bench_wal(FsyncPolicy::Off, "off", args.appends),
    ];
    for r in &wal_runs {
        println!(
            "wal fsync={}: {} records in {:.3}s = {:.0} rec/s, {:.2} MB/s",
            r.policy,
            r.records,
            r.secs,
            r.records as f64 / r.secs,
            r.bytes as f64 / r.secs / 1e6
        );
    }

    // Section 2: checkpoint + recovery at E18 scale.
    let ck = bench_checkpoint(256);
    println!(
        "checkpoint: {} facts -> {} bytes in {:.2} ms; reopen (load + {}-record replay) {:.2} ms",
        ck.facts, ck.snapshot_bytes, ck.write_ms, ck.replayed_records, ck.recover_ms
    );

    // Section 3: cold start vs warm restart.
    let rs = bench_restart(args.train, args.min_speedup);
    println!(
        "restart: cold (relearn, {} observations, {} climbs) {:.2} ms vs warm (recover) \
         {:.2} ms = {:.1}x  [fp {:016x}]",
        rs.train, rs.climbs, rs.cold_ms, rs.warm_ms, rs.speedup, rs.fingerprint
    );

    let wal_rows: Vec<JsonValue> = wal_runs
        .iter()
        .map(|r| {
            json_obj! {
                "fsync": r.policy, "records": r.records, "bytes": r.bytes, "secs": round(r.secs, 4),
                "records_per_sec": round(r.records as f64 / r.secs, 0),
                "mb_per_sec": round(r.bytes as f64 / r.secs / 1e6, 2),
            }
        })
        .collect();
    let doc = json_obj! {
        "bench": "qpl-store durability (WAL + snapshot + warm restart)",
        "commit_every": COMMIT_EVERY,
        "wal_append": wal_rows,
        "checkpoint": json_obj! {
            "shape": "E18 reachability DAG (14 layers x 2)", "facts": ck.facts,
            "snapshot_bytes": ck.snapshot_bytes, "write_ms": round(ck.write_ms, 3),
            "recover_ms": round(ck.recover_ms, 3), "replayed_records": ck.replayed_records,
        },
        "restart": json_obj! {
            "train_observations": rs.train, "climbs": rs.climbs, "cold_ms": round(rs.cold_ms, 3),
            "warm_ms": round(rs.warm_ms, 3), "speedup": round(rs.speedup, 1),
            "min_speedup_asserted": args.min_speedup,
            "strategy_fp": format!("{:016x}", rs.fingerprint),
        },
        "note": "cold = build engine + relearn the adopted strategy from PIB observations + \
            answer probe; warm = Store::open + rebuild KB from snapshot + Pib::restore + answer \
            probe. Identical answer and fingerprint asserted; the speedup floor is asserted \
            in-bin, so a regression fails the bench instead of shipping a slow restart",
    };
    schema::STORE.write(&doc, &args.out);
    println!("wrote {}", args.out);
}
