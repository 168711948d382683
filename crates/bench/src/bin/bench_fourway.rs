//! Four-way strategy comparison on the paper's workloads, emitting
//! `BENCH_fourway.json`.
//!
//! ```text
//! bench_fourway [--out BENCH_fourway.json]
//! ```
//!
//! The contenders, all answering the same query mixes:
//!
//! * `learned` — PIB trained on the workload's context distribution
//!   (the paper's contribution: statistics about *queries*);
//! * `greedy` — the statistics-free visible-selectivity orderer
//!   ([`GreedyHeuristic`]), planned once from the program text alone;
//! * `smith` — the fact-count heuristic the paper critiques;
//! * `unrewritten` — bottom-up semi-naive evaluation with no strategy
//!   at all (saturates the model, reads the answer off).
//!
//! The first three lower through the same `StrategyProgram` executor,
//! so their measured times differ only by arc order. Two extra
//! sections probe where the cheap baselines break: a learned-vs-greedy
//! crossover sweep over blended section-2/minors query mixes, and the
//! binding-aware (magic) rewrite against unrewritten saturation on the
//! layered reachability KB.

use qpl_bench::schema::{self, round};
use qpl_core::{GreedyHeuristic, Pib, PibConfig, SmithHeuristic};
use qpl_datalog::eval::EvalScratch;
use qpl_datalog::magic::rewrite;
use qpl_datalog::parser::{parse_program, parse_query};
use qpl_datalog::{eval, Adornment, Atom, Database, Fact, QueryForm, RuleBase};
use qpl_engine::{MagicRunner, QueryMixOracle, QueryProcessor};
use qpl_graph::compile::CompiledGraph;
use qpl_graph::expected::{ContextDistribution, FiniteDistribution};
use qpl_graph::{Context, Strategy};
use qpl_obs::{json_obj, names, JsonValue, MemorySink};
use qpl_workload::generator::{recursive_path_kb, source_reachability_query, RecursiveKbParams};
use qpl_workload::paper::{pauper, reachability, university, PAUPER_KB, REACHABILITY_KB};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Base RNG seed (experiments re-derive per-sweep seeds from it).
const SEED: u64 = 20260808;
/// PIB observations per training run.
const TRAIN: usize = 4_000;
/// Timed repetitions per query.
const REPS: usize = 300;
/// Greedy planning must stay under this many microseconds (the whole
/// point of a statistics-free planner is that it costs nothing).
const GREEDY_PLAN_US_CEILING: u64 = 1_000;

/// One strategy arm's scorecard on one workload.
struct Arm {
    name: &'static str,
    /// Exact expected graph cost under the workload distribution
    /// (`None` for the strategy-free bottom-up arm).
    expected: Option<f64>,
    /// Mix-weighted measured microseconds per query.
    us: f64,
}

/// One workload's four-way row.
struct Row {
    name: &'static str,
    arms: Vec<Arm>,
    greedy_plan_us: u64,
}

/// Mix-weighted per-query wall time of a strategy arm.
fn strategy_us(cg: &CompiledGraph, s: &Strategy, db: &Database, mix: &[(Atom, f64)]) -> f64 {
    let qp = QueryProcessor::new(cg, s.clone());
    let mut weighted = 0.0;
    for (q, w) in mix {
        let t0 = Instant::now();
        for _ in 0..REPS {
            qp.run(q, db).expect("query runs");
        }
        weighted += w * (t0.elapsed().as_micros() as f64 / REPS as f64);
    }
    weighted
}

/// Mix-weighted per-query wall time of strategy-free bottom-up
/// saturation (the `unrewritten` arm).
fn bottomup_us(rules: &RuleBase, db: &Database, mix: &[(Atom, f64)]) -> f64 {
    let mut weighted = 0.0;
    for (q, w) in mix {
        let t0 = Instant::now();
        for _ in 0..REPS {
            eval::answers(rules, db, q);
        }
        weighted += w * (t0.elapsed().as_micros() as f64 / REPS as f64);
    }
    weighted
}

/// Runs all four arms on one workload.
fn run_workload(
    name: &'static str,
    cg: &CompiledGraph,
    rules: &RuleBase,
    db: &Database,
    mix: Vec<(Atom, f64)>,
    seed: u64,
) -> Row {
    let g = &cg.graph;
    let oracle = QueryMixOracle::new(cg, db.clone(), mix.clone()).expect("mix is valid");
    let dist = oracle.to_distribution();

    let mut pib = Pib::new(g, Strategy::left_to_right(g), PibConfig::new(0.05));
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..TRAIN {
        let idx = dist.sample_index(&mut rng);
        pib.observe(g, dist.context(idx));
    }
    let learned = pib.strategy().clone();

    let mut sink = MemorySink::new();
    let greedy = GreedyHeuristic::strategy_observed(cg, &mut sink).expect("tree graph");
    let greedy_plan_us = sink.counter_total(names::plan::GREEDY_MICROS);
    assert!(
        greedy_plan_us < GREEDY_PLAN_US_CEILING,
        "{name}: greedy planning must stay under 1 ms (took {greedy_plan_us} µs)"
    );

    let smith = SmithHeuristic::strategy(cg, db).expect("tree graph");

    let arms = vec![
        Arm {
            name: "learned",
            expected: Some(dist.expected_cost(g, &learned)),
            us: strategy_us(cg, &learned, db, &mix),
        },
        Arm {
            name: "greedy",
            expected: Some(dist.expected_cost(g, &greedy)),
            us: strategy_us(cg, &greedy, db, &mix),
        },
        Arm {
            name: "smith",
            expected: Some(dist.expected_cost(g, &smith)),
            us: strategy_us(cg, &smith, db, &mix),
        },
        Arm { name: "unrewritten", expected: None, us: bottomup_us(rules, db, &mix) },
    ];
    Row { name, arms, greedy_plan_us }
}

/// Learned-vs-greedy expected cost over `(1-λ)·section2 + λ·minors`
/// blends; returns per-λ costs and the first λ where learned wins
/// strictly.
fn crossover_sweep() -> (Vec<(f64, f64, f64)>, Option<f64>) {
    let u = university();
    let g = u.graph();
    let (dp, dg) = (u.d_p(), u.d_g());
    let greedy = GreedyHeuristic::strategy(&u.compiled).expect("tree graph");
    let mut rows = Vec::new();
    let mut crossover = None;
    for step in 0..=10u32 {
        let lam = f64::from(step) / 10.0;
        // minors(0.4): queried individuals are never professors; 40%
        // are grads. Blending merges the shared all-blocked class.
        let dist = FiniteDistribution::new(vec![
            (Context::with_blocked(g, &[dg]), (1.0 - lam) * 0.60),
            (Context::with_blocked(g, &[dp]), (1.0 - lam) * 0.15 + lam * 0.4),
            (Context::with_blocked(g, &[dp, dg]), (1.0 - lam) * 0.25 + lam * 0.6),
        ])
        .expect("blend weights sum to 1");
        let mut pib = Pib::new(g, Strategy::left_to_right(g), PibConfig::new(0.05));
        let mut rng = StdRng::seed_from_u64(SEED + u64::from(step));
        for _ in 0..TRAIN {
            let idx = dist.sample_index(&mut rng);
            pib.observe(g, dist.context(idx));
        }
        let c_learned = dist.expected_cost(g, pib.strategy());
        let c_greedy = dist.expected_cost(g, &greedy);
        if crossover.is_none() && c_learned < c_greedy - 1e-9 {
            crossover = Some(lam);
        }
        rows.push((lam, c_learned, c_greedy));
    }
    (rows, crossover)
}

/// Magic-rewritten vs unrewritten bottom-up on the layered
/// reachability KB (column 0 an isolated chain, columns 1+ densely
/// cross-connected — see `bench_tabling`'s `magic_speedup` scenario
/// for the gated version of this measurement).
struct MagicRow {
    layers: usize,
    width: usize,
    full_us: f64,
    fresh_us: f64,
    warm_us: f64,
    full_derived: usize,
    magic_derived: usize,
}

fn magic_section() -> MagicRow {
    let params = RecursiveKbParams { layers: 12, width: 5 };
    let (mut table, rules, db, _) =
        recursive_path_kb(&params, |_, i, j| i == j || (i > 0 && j > 0));
    let query = source_reachability_query(&mut table);
    let form = QueryForm { predicate: query.predicate, adornment: Adornment::of_atom(&query) };
    let program = rewrite(&rules, &form, &mut table);

    let reps = 10usize;
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
    let fresh_us = t0.elapsed().as_micros() as f64 / reps as f64;
    assert_eq!(magic.answers, full_answers, "magic must be answer-set-identical");
    assert!(magic.derived < full_derived, "magic must derive strictly fewer facts");

    let mut runner = MagicRunner::new(&rules, &form, &mut table);
    runner.run_magic(&db, &query);
    let t0 = Instant::now();
    for _ in 0..reps * 20 {
        assert!(runner.run_magic(&db, &query).cache_hit);
    }
    let warm_us = t0.elapsed().as_micros() as f64 / (reps * 20) as f64;

    MagicRow {
        layers: params.layers,
        width: params.width,
        full_us,
        fresh_us,
        warm_us,
        full_derived,
        magic_derived: magic.derived,
    }
}

fn main() {
    let out_path = {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match args.iter().position(|a| a == "--out") {
            Some(pos) if pos + 1 < args.len() => args[pos + 1].clone(),
            _ => "BENCH_fourway.json".to_string(),
        }
    };

    let mut rows = Vec::new();

    // Figure 1 over DB₁ with the section-2 query mix.
    {
        let mut u = university();
        let mix = u.section2_queries();
        let program = parse_program(qpl_workload::paper::UNIVERSITY_KB, &mut u.table)
            .expect("paper KB parses");
        rows.push(run_workload(
            "university-section2",
            &u.compiled,
            &program.rules,
            &u.db1,
            mix,
            SEED,
        ));
    }

    // Figure 1 over DB₂ statistics (2000 prof / 500 grad) with the
    // adversarial minors mix: the queried kids are never professors,
    // 40% are grads — fact counts point the wrong way.
    {
        let mut u = university();
        let mut db = u.db2();
        let grad = u.table.lookup("grad").expect("grad interned");
        for i in 0..4 {
            let kid = u.table.intern(&format!("kid{i}"));
            db.insert(Fact::new(grad, vec![kid])).expect("consistent arity");
        }
        let mix: Vec<(Atom, f64)> = (0..10)
            .map(|i| {
                let q = parse_query(&format!("instructor(kid{i})"), &mut u.table)
                    .expect("query parses");
                (q, 0.1)
            })
            .collect();
        let program = parse_program(qpl_workload::paper::UNIVERSITY_KB, &mut u.table)
            .expect("paper KB parses");
        rows.push(run_workload(
            "university-minors-db2",
            &u.compiled,
            &program.rules,
            &db,
            mix,
            SEED + 1,
        ));
    }

    // Section 4.1's guarded-arc KB.
    {
        let (mut table, cg, db) = reachability();
        let program = parse_program(REACHABILITY_KB, &mut table).expect("KB parses");
        let mix = vec![
            (parse_query("instructor(russ)", &mut table).expect("parses"), 0.40),
            (parse_query("instructor(manolis)", &mut table).expect("parses"), 0.35),
            (parse_query("instructor(fred)", &mut table).expect("parses"), 0.25),
        ];
        rows.push(run_workload("reachability", &cg, &program.rules, &db, mix, SEED + 2));
    }

    // Section 5.2's ownership KB (flat four-way disjunction).
    {
        let (mut table, cg, db) = pauper();
        let program = parse_program(PAUPER_KB, &mut table).expect("KB parses");
        let mix = vec![
            (parse_query("owns(midas, Y)", &mut table).expect("parses"), 0.50),
            (parse_query("owns(croesus, Y)", &mut table).expect("parses"), 0.20),
            (parse_query("owns(onassis, Y)", &mut table).expect("parses"), 0.20),
            (parse_query("owns(diogenes, Y)", &mut table).expect("parses"), 0.10),
        ];
        rows.push(run_workload("pauper", &cg, &program.rules, &db, mix, SEED + 3));
    }

    for row in &rows {
        let cells: Vec<String> = row
            .arms
            .iter()
            .map(|a| {
                let e = a.expected.map_or("—".to_string(), |c| format!("{c:.2}"));
                format!("{} E[c]={e} {:.1}µs", a.name, a.us)
            })
            .collect();
        println!(
            "{}: {} (greedy planned in {} µs)",
            row.name,
            cells.join(" | "),
            row.greedy_plan_us
        );
    }

    let (sweep, crossover) = crossover_sweep();
    let at_one = sweep.last().expect("grid is non-empty");
    assert!(
        at_one.1 < at_one.2 - 1e-9,
        "learned must beat greedy on the pure minors mix ({} vs {})",
        at_one.1,
        at_one.2
    );
    let crossover_lam = crossover.expect("a crossover exists on the λ grid");
    println!(
        "crossover: learned overtakes greedy at λ = {crossover_lam:.1} \
         (λ=1: learned {:.3} vs greedy {:.3})",
        at_one.1, at_one.2
    );

    let magic = magic_section();
    println!(
        "magic (layers={} width={}): unrewritten {:.1} µs ({} derived) vs fresh {:.1} µs \
         ({} derived) vs warm {:.2} µs",
        magic.layers,
        magic.width,
        magic.full_us,
        magic.full_derived,
        magic.fresh_us,
        magic.magic_derived,
        magic.warm_us,
    );

    let workloads: Vec<JsonValue> = rows
        .iter()
        .map(|row| {
            let arms: Vec<JsonValue> = row
                .arms
                .iter()
                .map(|a| {
                    let expected = a.expected.map(|c| round(c, 3));
                    json_obj! { "arm": a.name, "expected_cost": expected, "measured_us": round(a.us, 2) }
                })
                .collect();
            json_obj! { "workload": row.name, "greedy_plan_us": row.greedy_plan_us, "arms": arms }
        })
        .collect();
    let grid: Vec<JsonValue> = sweep
        .iter()
        .map(|&(lam, l, gr)| {
            json_obj! { "lambda": round(lam, 1), "learned": round(l, 3), "greedy": round(gr, 3) }
        })
        .collect();
    let doc = json_obj! {
        "bench": "four-way strategy comparison: learned (PIB) vs greedy (statistics-free) vs \
            smith (fact counts) vs unrewritten (bottom-up saturation)",
        "seed": SEED,
        "pib_observations": TRAIN,
        "reps_per_query": REPS,
        "workloads": workloads,
        "crossover": json_obj! {
            "blend": "(1-lambda)*section2 + lambda*minors(grad_rate 0.4)",
            "crossover_lambda": round(crossover_lam, 1),
            "grid": grid,
        },
        "magic": json_obj! {
            "workload": format!(
                "layers={} width={} reachability (column 0 an isolated chain, columns 1+ densely \
                 cross-connected), query path(n0_0, W)",
                magic.layers, magic.width
            ),
            "unrewritten_us": round(magic.full_us, 1),
            "magic_fresh_us": round(magic.fresh_us, 1),
            "magic_warm_us": round(magic.warm_us, 2),
            "unrewritten_derived": magic.full_derived,
            "magic_derived": magic.magic_derived,
        },
    };
    schema::FOURWAY.write(&doc, &out_path);
    println!("wrote {out_path}");
}
