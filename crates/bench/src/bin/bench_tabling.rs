//! Measures tabled evaluation and the cross-context answer cache on the
//! layered-DAG reachability workload, emitting `BENCH_tabling.json`.
//!
//! ```text
//! bench_tabling [--out BENCH_tabling.json]
//! ```
//!
//! Three solver configurations answer the same exhaustive-failure query
//! `path(n0_0, sink)`:
//!
//! * `plain` — the seed's depth-bounded SLD solver (re-proves each
//!   shared path suffix once per derivation path, `width^layers` total);
//! * `tabled` — fresh tables per query (each subgoal proved once);
//! * `cached` — warm tables reused across queries, the steady state of a
//!   Monte-Carlo loop whose samples revisit few context classes.
//!
//! The speedups reported are algorithmic, so they do not depend on core
//! count — but the count is recorded anyway, for honesty about the
//! machine the numbers came from.

use qpl_bench::schema::{self, round};
use qpl_datalog::eval::EvalScratch;
use qpl_datalog::magic::rewrite;
use qpl_datalog::table::TableStore;
use qpl_datalog::topdown::RetrievalStats;
use qpl_datalog::{eval, Adornment, Fact, QueryForm, TopDown};
use qpl_engine::{CrossContextCache, MagicRunner};
use qpl_obs::{json_obj, JsonValue};
use qpl_workload::generator::{recursive_path_kb, source_reachability_query, RecursiveKbParams};
use std::num::NonZeroUsize;
use std::time::Instant;

/// Rounds of single-fact churn in the update scenario.
const CHURN_ROUNDS: usize = 100;
/// The one context class this bench exercises (the cache keys entries
/// by context fingerprint; any fixed value works for a single class).
const CHURN_FP: u64 = 0x51;

/// Measurements from one churn run (see [`churn_run`]).
struct ChurnStats {
    kb_facts: usize,
    warm_hits: u64,
    invalidations: u64,
    retrievals: u64,
    tables_maintained: u64,
    per_round_us: f64,
}

/// Replays `CHURN_ROUNDS` single-fact deltas against a warm
/// cross-context cache, re-running the exhaustive-failure query after
/// each, and reports how often the cached tables stayed warm.
///
/// The KB is the layered reachability shape padded with `annot/1`
/// facts (outside `path`'s reachability footprint) so that one churned
/// fact per round is ~1% of the fact set. Most rounds insert or
/// retract one annotation; every 25th inserts a fresh `edge` fact that
/// cannot reach the query's source, exercising semi-naive
/// re-saturation without changing any answer.
///
/// With `selective`, each delta is followed by
/// [`CrossContextCache::maintain`], which repairs entries whose
/// footprint intersects the delta and re-stamps the rest — so the next
/// lookup hits warm. Without it, the entry's generation stamp goes
/// stale and `tables_for` clears it wholesale, exactly what every
/// pre-delta revision of this cache did on any database change.
fn churn_run(selective: bool) -> ChurnStats {
    let params = RecursiveKbParams { layers: 12, width: 2 };
    let (mut table, rules, mut db, sink_query) = recursive_path_kb(&params, |_, _, _| true);
    let annot = table.intern("annot");
    let edge = table.intern("edge");
    for i in 0..56 {
        let c = table.intern(&format!("meta{i}"));
        db.insert(Fact::new(annot, vec![c])).expect("annot fact inserts");
    }
    let kb_facts = db.len();

    let mut cache = CrossContextCache::new();
    let mut stats = RetrievalStats::default();
    {
        let solver = TopDown::new(&rules, &db);
        let store = cache.tables_for(&db, CHURN_FP);
        assert!(solver.solve_tabled_in(&sink_query, store, &mut stats).unwrap().is_none());
    }
    let base = cache.stats();
    let retrievals_before = stats.retrievals;

    let (edge_delta, annot_delta, no_delta) = ([edge], [annot], []);
    let t0 = Instant::now();
    for round in 0..CHURN_ROUNDS {
        let pre = db.generation();
        let (inserted, retracted) = if round % 25 == 24 {
            let aux = table.intern(&format!("aux{round}"));
            let sink = table.intern("sink");
            db.insert(Fact::new(edge, vec![aux, sink])).expect("edge fact inserts");
            (&edge_delta[..], &no_delta[..])
        } else if round % 2 == 0 {
            let c = table.intern(&format!("u{round}"));
            db.insert(Fact::new(annot, vec![c])).expect("annot fact inserts");
            (&annot_delta[..], &no_delta[..])
        } else {
            let c = table.intern(&format!("u{}", round - 1));
            db.retract(Fact::new(annot, vec![c])).expect("annot fact retracts");
            (&no_delta[..], &annot_delta[..])
        };
        let solver = TopDown::new(&rules, &db);
        if selective {
            cache
                .maintain(&db, &rules, pre, inserted, retracted, &mut stats)
                .expect("maintenance stays within the depth bound");
        }
        let store = cache.tables_for(&db, CHURN_FP);
        assert!(
            solver.solve_tabled_in(&sink_query, store, &mut stats).unwrap().is_none(),
            "churn outside the source's reach must not change the outcome"
        );
    }
    let per_round_us = t0.elapsed().as_micros() as f64 / CHURN_ROUNDS as f64;

    let after = cache.stats();
    ChurnStats {
        kb_facts,
        warm_hits: after.hits - base.hits,
        invalidations: after.invalidations - base.invalidations,
        retrievals: stats.retrievals - retrievals_before,
        tables_maintained: cache.tables_maintained(),
        per_round_us,
    }
}

/// The conservative fresh-evaluation speedup floor the magic-set
/// scenario must hold (CI gate; measured values run far higher).
const MAGIC_SPEEDUP_FLOOR: f64 = 5.0;

/// Measurements from the magic-set scenario (see [`magic_run`]).
struct MagicStats {
    layers: usize,
    width: usize,
    full_us: f64,
    magic_fresh_us: f64,
    magic_warm_us: f64,
    full_derived: usize,
    magic_derived: usize,
    answers: usize,
    speedup: f64,
}

/// Binding-aware evaluation on the bound-source reachability query
/// `path(n0_0, W)`: unrewritten semi-naive must saturate the all-pairs
/// closure, magic-rewritten semi-naive only derives paths out of
/// `n0_0`. The arc mask keeps column 0 an isolated chain (the query's
/// demand cone) while the remaining columns stay densely
/// cross-connected — the closure the binding makes irrelevant. Fresh
/// evaluation is timed for both; the warm row replays the same query
/// through [`MagicRunner`]'s footprint-scoped answer cache.
fn magic_run() -> MagicStats {
    let params = RecursiveKbParams { layers: 14, width: 6 };
    let (mut table, rules, db, _) =
        recursive_path_kb(&params, |_, i, j| i == j || (i > 0 && j > 0));
    let query = source_reachability_query(&mut table);
    let form = QueryForm { predicate: query.predicate, adornment: Adornment::of_atom(&query) };
    let program = rewrite(&rules, &form, &mut table);

    let reps = 5usize;
    let t0 = Instant::now();
    let mut full_answers = Vec::new();
    for _ in 0..reps {
        full_answers = eval::answers(&rules, &db, &query);
    }
    let full_us = t0.elapsed().as_micros() as f64 / reps as f64;
    let full_derived = eval::seminaive(&rules, &db).len() - db.len();

    let mut scratch = EvalScratch::new();
    let t0 = Instant::now();
    let mut magic = program.evaluate_into(&db, &query, &mut scratch);
    for _ in 1..reps {
        magic = program.evaluate_into(&db, &query, &mut scratch);
    }
    let magic_fresh_us = t0.elapsed().as_micros() as f64 / reps as f64;

    assert_eq!(magic.answers, full_answers, "magic must be answer-set-identical");
    assert!(
        magic.derived < full_derived,
        "magic must derive strictly fewer facts: {} vs {}",
        magic.derived,
        full_derived
    );

    let mut runner = MagicRunner::new(&rules, &form, &mut table);
    assert!(!runner.run_magic(&db, &query).cache_hit);
    let warm_reps = reps * 50;
    let t0 = Instant::now();
    for _ in 0..warm_reps {
        assert!(runner.run_magic(&db, &query).cache_hit);
    }
    let magic_warm_us = t0.elapsed().as_micros() as f64 / warm_reps as f64;

    MagicStats {
        layers: params.layers,
        width: params.width,
        full_us,
        magic_fresh_us,
        magic_warm_us,
        full_derived,
        magic_derived: magic.derived,
        answers: magic.answers.len(),
        speedup: full_us / magic_fresh_us.max(1e-9),
    }
}

impl ChurnStats {
    fn to_json(&self) -> JsonValue {
        json_obj! {
            "warm_hits": self.warm_hits, "invalidations": self.invalidations,
            "retrievals": self.retrievals, "tables_maintained": self.tables_maintained,
            "per_round_us": round(self.per_round_us, 2),
        }
    }
}

fn main() {
    let out_path = {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match args.iter().position(|a| a == "--out") {
            Some(pos) if pos + 1 < args.len() => args[pos + 1].clone(),
            _ => "BENCH_tabling.json".to_string(),
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);

    let mut rows = Vec::new();
    for layers in [8usize, 11, 14] {
        let params = RecursiveKbParams { layers, width: 2 };
        let (_, rules, db, sink_query) = recursive_path_kb(&params, |_, _, _| true);
        let solver = TopDown::new(&rules, &db);

        // Calibrate repetitions so each variant runs long enough to time.
        let reps = match layers {
            8 => 200usize,
            11 => 40,
            _ => 5,
        };

        let mut plain_stats = RetrievalStats::default();
        let t0 = Instant::now();
        for _ in 0..reps {
            assert!(solver
                .solve_with_stats(&sink_query, &mut plain_stats)
                .expect("within depth bound")
                .is_none());
        }
        let plain_us = t0.elapsed().as_micros() as f64 / reps as f64;

        let t0 = Instant::now();
        for _ in 0..reps {
            assert!(solver.solve_tabled(&sink_query).unwrap().is_none());
        }
        let tabled_us = t0.elapsed().as_micros() as f64 / reps as f64;

        let mut store = TableStore::new();
        let mut stats = RetrievalStats::default();
        assert!(solver.solve_tabled_in(&sink_query, &mut store, &mut stats).unwrap().is_none());
        let warm_reps = reps * 50;
        let t0 = Instant::now();
        for _ in 0..warm_reps {
            let mut stats = RetrievalStats::default();
            assert!(solver.solve_tabled_in(&sink_query, &mut store, &mut stats).unwrap().is_none());
        }
        let cached_us = t0.elapsed().as_micros() as f64 / warm_reps as f64;

        let retr = plain_stats.retrievals / reps as u64;
        let tabled_speedup = plain_us / tabled_us.max(1e-9);
        let cached_speedup = plain_us / cached_us.max(1e-9);
        println!(
            "layers={layers}: plain {plain_us:.1} µs ({retr} retrievals), tabled {tabled_us:.1} µs \
             ({tabled_speedup:.1}x), cached-warm {cached_us:.2} µs ({cached_speedup:.0}x)"
        );
        rows.push(json_obj! {
            "layers": layers, "width": 2usize, "plain_us": round(plain_us, 1),
            "plain_retrievals": retr, "tabled_fresh_us": round(tabled_us, 1),
            "tabled_speedup": round(tabled_speedup, 1), "cached_warm_us": round(cached_us, 2),
            "cached_speedup": round(cached_speedup, 1),
        });
    }

    // Update-churn scenario: live single-fact deltas against a warm
    // cache, selective (footprint-scoped maintenance) vs wholesale
    // (generation-stamp clearing) invalidation.
    let selective = churn_run(true);
    let wholesale = churn_run(false);
    let advantage = selective.warm_hits as f64 / (wholesale.warm_hits.max(1)) as f64;
    println!(
        "churn ({CHURN_ROUNDS} rounds, 1 fact/round of {}): selective {} warm hits \
         ({} invalidations, {} retrievals, {:.2} µs/round), wholesale {} warm hits \
         ({} invalidations, {} retrievals, {:.2} µs/round) — {advantage:.0}x warm-hit advantage",
        selective.kb_facts,
        selective.warm_hits,
        selective.invalidations,
        selective.retrievals,
        selective.per_round_us,
        wholesale.warm_hits,
        wholesale.invalidations,
        wholesale.retrievals,
        wholesale.per_round_us,
    );
    assert!(
        advantage >= 10.0,
        "selective invalidation must hold at least a 10x warm-hit advantage \
         over wholesale under 1% churn (got {advantage:.1}x)"
    );

    // Magic-set scenario: bound-source query against bottom-up
    // evaluation — binding-aware rewriting vs full saturation.
    let magic = magic_run();
    println!(
        "magic (layers={} width={}): unrewritten {:.1} µs ({} derived), magic fresh {:.1} µs \
         ({} derived), magic warm {:.2} µs — {:.1}x fresh speedup",
        magic.layers,
        magic.width,
        magic.full_us,
        magic.full_derived,
        magic.magic_fresh_us,
        magic.magic_derived,
        magic.magic_warm_us,
        magic.speedup,
    );
    assert!(
        magic.speedup >= MAGIC_SPEEDUP_FLOOR,
        "magic rewriting must hold at least a {MAGIC_SPEEDUP_FLOOR}x fresh-evaluation \
         speedup on the bound-source query (got {:.1}x)",
        magic.speedup
    );

    let doc = json_obj! {
        "bench": "tabled top-down evaluation + cross-context answer cache",
        "cores": cores,
        "workload": "layered-DAG reachability, exhaustive-failure query path(n0_0, sink)",
        "note": "speedups are algorithmic (plain SLD work grows like 2^layers, tabled stays \
            polynomial, warm cache skips re-proof entirely), so they hold at any core count",
        "tabling": rows,
        "update_churn": json_obj! {
            "workload": "layers=12 width=2 reachability + annot/1 padding, 1 fact churned per \
                round (~1%), every 25th round an insert inside the path footprint",
            "rounds": CHURN_ROUNDS,
            "kb_facts": selective.kb_facts,
            "selective": selective.to_json(),
            "wholesale": wholesale.to_json(),
            "warm_hit_advantage": round(advantage, 1),
        },
        "magic_speedup": json_obj! {
            "workload": format!(
                "layers={} width={} reachability (column 0 an isolated chain, columns 1+ densely \
                 cross-connected), bound-source query path(n0_0, W)",
                magic.layers, magic.width
            ),
            "unrewritten_us": round(magic.full_us, 1),
            "magic_fresh_us": round(magic.magic_fresh_us, 1),
            "magic_warm_us": round(magic.magic_warm_us, 2),
            "unrewritten_derived": magic.full_derived,
            "magic_derived": magic.magic_derived,
            "answers": magic.answers,
            "fresh_speedup": round(magic.speedup, 1),
            "floor": MAGIC_SPEEDUP_FLOOR,
        },
    };
    schema::TABLING.write(&doc, &out_path);
    println!("wrote {out_path} (cores={cores})");
}
