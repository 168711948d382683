//! Dumps one schema-stable JSON metrics snapshot for an E18-style run:
//! a tabled + cross-context-cached sample stream, a PIB learning loop,
//! a binding-aware planning pass (greedy ordering + magic rewriting),
//! and a PAO sampling plan, all observed through a single
//! [`MemorySink`](qpl_obs::MemorySink).
//!
//! ```text
//! qpl-report [--seed N] [--out metrics.json]
//! ```
//!
//! Without `--out` the snapshot goes to stdout. Either way it is first
//! checked against [`schema::METRICS`]: the top-level keys
//! (`schema_version`, `counters`, `values`, `spans`, `events`,
//! `dropped_events`) are stable across runs, and the counters, events
//! and spans the schema requires must be present; see DESIGN.md's
//! observability section for the metric namespaces inside them.

use qpl_bench::schema;
use qpl_core::pao::{Pao, PaoConfig};
use qpl_core::pib::{Pib, PibConfig};
use qpl_core::GreedyHeuristic;
use qpl_datalog::parser::{parse_program, parse_query_form};
use qpl_datalog::topdown::RetrievalStats;
use qpl_datalog::{eval, Adornment, QueryForm, SymbolTable, TopDown};
use qpl_engine::cache::CrossContextCache;
use qpl_engine::par::sample_rng;
use qpl_engine::MagicRunner;
use qpl_graph::compile::{compile, CompileOptions};
use qpl_graph::expected::{ContextDistribution, IndependentModel};
use qpl_graph::graph::{GraphBuilder, InferenceGraph};
use qpl_graph::strategy::Strategy;
use qpl_obs::{JsonSnapshot, MemorySink, MetricsSink, SpanTimer};
use qpl_workload::generator::{
    emit_kb_provenance, recursive_path_kb, source_reachability_query, RecursiveKbParams,
};
use qpl_workload::paper::UNIVERSITY_KB;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's Figure-1 graph `G_A` (instructor = prof ∨ grad).
fn g_a() -> InferenceGraph {
    let mut b = GraphBuilder::new("instructor(κ)");
    let root = b.root();
    let (_, prof) = b.reduction(root, "R_p", 1.0, "prof(κ)");
    b.retrieval(prof, "D_p", 1.0);
    let (_, grad) = b.reduction(root, "R_g", 1.0, "grad(κ)");
    b.retrieval(grad, "D_g", 1.0);
    b.finish().expect("G_A is valid")
}

/// E18 in miniature: a few context classes over the layered-DAG
/// reachability KB, answered with warm cross-context tables. Serial on
/// purpose — cache hit/miss splits are deterministic only in arrival
/// order (see `CrossContextCache::emit_to`).
fn tabling_phase(seed: u64, sink: &mut MemorySink) {
    let timer = SpanTimer::start(sink, "report.phase.tabling");
    let params = RecursiveKbParams { layers: 7, width: 2 };
    let n_classes = 3usize;
    let n_samples = 48usize;
    let classes: Vec<_> = (0..n_classes)
        .map(|k| {
            let mut mask_rng = sample_rng(seed, k as u64);
            recursive_path_kb(&params, |_, _, _| k == 0 || mask_rng.gen::<f64>() >= 0.15)
        })
        .collect();
    let (table0, rules0, db0, _) = &classes[0];
    emit_kb_provenance(table0, rules0, db0, sink);

    let mut cache = CrossContextCache::new();
    let mut stats = RetrievalStats::default();
    for i in 0..n_samples {
        let k = sample_rng(seed ^ 0x5eed, i as u64).gen_range(0..n_classes);
        let (_, rules, db, sink_query) = &classes[k];
        let solver = TopDown::new(rules, db);
        let store = cache.tables_for(db, k as u64);
        assert!(
            solver.solve_tabled_in(sink_query, store, &mut stats).unwrap().is_none(),
            "sink is unreachable by construction"
        );
    }
    stats.emit_to(sink);
    cache.emit_to(sink);
    sink.counter("report.tabling.samples", n_samples as u64);
    timer.finish(sink);
}

/// A PIB hill-climb on `G_A` under a grad-heavy mix: the learner must
/// accept the root swap, producing `core.pib.candidate` accept events
/// with their Δ̃ sums and Chernoff thresholds.
fn learning_phase(seed: u64, sink: &mut MemorySink) {
    let timer = SpanTimer::start(sink, "report.phase.learning");
    let g = g_a();
    let model =
        IndependentModel::from_retrieval_probs(&g, &[0.05, 0.8]).expect("probabilities are valid");
    let mut pib = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.05));
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..1500 {
        pib.observe_with(&g, &model.sample(&mut rng), sink);
    }
    assert!(!pib.history().is_empty(), "grad-heavy mix must trigger a climb");
    timer.finish(sink);
}

/// Binding-aware planning: a greedy statistics-free plan over the
/// Figure-1 program (`plan.greedy.micros`), a magic rewrite of the
/// reachability KB answered through [`MagicRunner`]
/// (`plan.magic.rules_generated`, `engine.magic.*`), and the pruning it
/// bought over full saturation (`eval.magic.facts_pruned`).
fn planning_phase(sink: &mut MemorySink) {
    let timer = SpanTimer::start(sink, "report.phase.planning");
    let mut table = SymbolTable::new();
    let program = parse_program(UNIVERSITY_KB, &mut table).expect("paper KB parses");
    let form = parse_query_form("instructor(b)", &mut table).expect("form parses");
    let compiled = compile(&program.rules, &form, &table, &CompileOptions::default())
        .expect("paper KB compiles");
    GreedyHeuristic::strategy_observed(&compiled, sink).expect("tree graph");

    let params = RecursiveKbParams { layers: 7, width: 3 };
    let (mut table, rules, db, _) =
        recursive_path_kb(&params, |_, i, j| i == j || (i > 0 && j > 0));
    let query = source_reachability_query(&mut table);
    let form = QueryForm { predicate: query.predicate, adornment: Adornment::of_atom(&query) };
    let mut runner = MagicRunner::new(&rules, &form, &mut table);
    let cold = runner.run_magic(&db, &query);
    assert!(runner.run_magic(&db, &query).cache_hit);
    runner.emit_to(sink);
    let full_derived = eval::seminaive(&rules, &db).len() - db.len();
    sink.counter(
        qpl_obs::names::eval::MAGIC_FACTS_PRUNED,
        (full_derived.saturating_sub(cold.derived)) as u64,
    );
    timer.finish(sink);
}

/// A PAO sampling plan on `G_A`: Equation 7 trial counts per retrieval
/// (capped for runtime), driven to completion through `QP^A`.
fn pao_phase(seed: u64, sink: &mut MemorySink) {
    let timer = SpanTimer::start(sink, "report.phase.pao");
    let g = g_a();
    let config = PaoConfig::theorem2(1.0, 0.1).with_sample_cap(64);
    let mut pao = Pao::new(&g, config).expect("G_A is a tree");
    let model =
        IndependentModel::from_retrieval_probs(&g, &[0.3, 0.6]).expect("probabilities are valid");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a0);
    while !pao.done() {
        pao.observe(&g, &model.sample(&mut rng));
    }
    pao.emit_to(sink);
    pao.finish(&g).expect("sampling is complete");
    timer.finish(sink);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag =
        |name: &str| args.iter().position(|a| a == name).and_then(|p| args.get(p + 1)).cloned();
    let seed: u64 = flag("--seed").map_or(1818, |s| s.parse().expect("--seed takes a u64"));
    let out = flag("--out");

    let mut sink = MemorySink::new();
    tabling_phase(seed, &mut sink);
    learning_phase(seed, &mut sink);
    planning_phase(&mut sink);
    pao_phase(seed, &mut sink);

    let snapshot = JsonSnapshot::capture(&sink);
    schema::METRICS.assert(snapshot.as_value());
    match out {
        Some(path) => {
            std::fs::write(&path, snapshot.as_str()).expect("write snapshot");
            eprintln!("wrote {path}");
        }
        None => println!("{}", snapshot.as_str()),
    }
}
