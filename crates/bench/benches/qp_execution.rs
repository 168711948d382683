//! Bench: end-to-end Datalog-backed query processing.
//!
//! Measures queries/second through the full stack — query → Note-2
//! context classification (database probes) → strategy execution — on
//! the paper's university KB and on larger layered knowledge bases.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qpl_datalog::parser::{parse_query, parse_query_form};
use qpl_engine::{classify_context_into, QueryProcessor};
use qpl_graph::compile::{compile, CompileOptions};
use qpl_graph::context::{execute_into, Context, RunScratch};
use qpl_workload::generator::{random_layered_kb, KbParams};
use qpl_workload::university;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_university(c: &mut Criterion) {
    let mut u = university();
    let queries = u.section2_queries();
    let qp = QueryProcessor::new(&u.compiled, u.prof_first.clone());
    c.bench_function("qp_university_mix", |b| {
        let mut i = 0;
        b.iter(|| {
            let (q, _) = &queries[i % queries.len()];
            i += 1;
            qp.run(std::hint::black_box(q), &u.db1).expect("valid query")
        })
    });
}

fn bench_layered(c: &mut Criterion) {
    let mut group = c.benchmark_group("qp_layered_kb");
    for layers in [2usize, 4, 6] {
        let mut rng = StdRng::seed_from_u64(layers as u64);
        let params = KbParams { layers, rules_per_layer: 3, ..Default::default() };
        let (mut table, rules, db, root) = random_layered_kb(&mut rng, &params);
        let form = parse_query_form(&format!("{root}(b)"), &mut table).expect("parses");
        let cg = compile(&rules, &form, &table, &CompileOptions::default()).expect("compiles");
        let queries: Vec<_> = (0..16)
            .map(|i| parse_query(&format!("{root}(c{i})"), &mut table).expect("parses"))
            .collect();
        let qp = QueryProcessor::left_to_right(&cg);
        group.bench_with_input(BenchmarkId::from_parameter(layers), &layers, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                qp.run(std::hint::black_box(q), &db).expect("valid query")
            })
        });
    }
    group.finish();
}

fn bench_lazy_vs_eager(c: &mut Criterion) {
    // Eager classifies every arc up front (a database probe per
    // retrieval) and then executes; `run` probes only what the strategy
    // attempts — on a successful first path, that path alone.
    let mut group = c.benchmark_group("qp_lazy_vs_eager");
    let mut rng = StdRng::seed_from_u64(42);
    let params = KbParams { layers: 4, rules_per_layer: 3, ..Default::default() };
    let (mut table, rules, db, root) = random_layered_kb(&mut rng, &params);
    let form = parse_query_form(&format!("{root}(b)"), &mut table).expect("parses");
    let cg = compile(&rules, &form, &table, &CompileOptions::default()).expect("compiles");
    let queries: Vec<_> = (0..16)
        .map(|i| parse_query(&format!("{root}(c{i})"), &mut table).expect("parses"))
        .collect();
    let qp = QueryProcessor::left_to_right(&cg);
    let mut ctx = Context::all_open(&cg.graph);
    let mut scratch = RunScratch::new(&cg.graph);
    group.bench_function("eager", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            classify_context_into(&cg, std::hint::black_box(q), &db, &mut ctx).expect("valid");
            execute_into(&cg.graph, qp.strategy(), &ctx, &mut scratch)
        })
    });
    group.bench_function("lazy", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            qp.run_into(std::hint::black_box(q), &db, &mut scratch).expect("valid")
        })
    });
    group.finish();
}

fn bench_classification_only(c: &mut Criterion) {
    let mut u = university();
    let queries = u.section2_queries();
    c.bench_function("note2_classification", |b| {
        let mut i = 0;
        b.iter(|| {
            let (q, _) = &queries[i % queries.len()];
            i += 1;
            qpl_engine::classify_context(&u.compiled, std::hint::black_box(q), &u.db1)
                .expect("valid query")
        })
    });
}

criterion_group!(
    benches,
    bench_university,
    bench_layered,
    bench_lazy_vs_eager,
    bench_classification_only
);
criterion_main!(benches);
