//! Measures the parallel sampling harness and the incremental
//! expected-cost evaluator, emitting `BENCH_parallel.json`.
//!
//! ```text
//! bench_parallel [--out BENCH_parallel.json]
//! ```
//!
//! The JSON records the machine's core count honestly: Monte-Carlo
//! scaling across worker counts only shows wall-clock gains when the
//! hardware has the cores, but the determinism contract (identical sums
//! for every worker count) is asserted here regardless.

use qpl_bench::schema::{self, round};
use qpl_core::TransformationSet;
use qpl_engine::par::{batch_fold, sample_rng, ParConfig};
use qpl_graph::context::cost;
use qpl_graph::expected::ContextDistribution;
use qpl_graph::{CostEvaluator, Strategy};
use qpl_obs::{json_obj, JsonValue};
use qpl_workload::generator::{random_retrieval_model, random_tree_with_retrievals, TreeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroUsize;
use std::time::Instant;

fn mc_fold(
    n: usize,
    workers: usize,
    g: &qpl_graph::InferenceGraph,
    model: &qpl_graph::IndependentModel,
    theta: &Strategy,
) -> (f64, u64) {
    let cfg = ParConfig { workers, block: ParConfig::DEFAULT_BLOCK };
    batch_fold(
        n,
        &cfg,
        || (0.0f64, 0u64),
        |acc, i| {
            let mut r = sample_rng(7, i as u64);
            let ctx = model.sample(&mut r);
            acc.0 += cost(g, theta, &ctx);
            acc.1 += 1;
        },
        |a, p| {
            a.0 += p.0;
            a.1 += p.1;
        },
    )
}

fn main() {
    let out_path = {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match args.iter().position(|a| a == "--out") {
            Some(pos) if pos + 1 < args.len() => args[pos + 1].clone(),
            _ => "BENCH_parallel.json".to_string(),
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);

    // Monte-Carlo throughput across worker counts.
    let mut rng = StdRng::seed_from_u64(11);
    let params = TreeParams { max_depth: 6, max_branch: 4, ..Default::default() };
    let g = random_tree_with_retrievals(&mut rng, &params, 32, 64);
    let model = random_retrieval_model(&mut rng, &g, (0.05, 0.6));
    let theta = Strategy::left_to_right(&g);
    let n = 100_000usize;
    let (ref_sum, ref_count) = mc_fold(n, 1, &g, &model, &theta);
    assert_eq!(ref_count, n as u64);
    let mut measured: Vec<(usize, f64)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let (sum, count) = mc_fold(n, workers, &g, &model, &theta);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(count, n as u64);
        assert_eq!(
            sum.to_bits(),
            ref_sum.to_bits(),
            "worker-count invariance violated at W={workers}"
        );
        let cps = n as f64 / secs;
        println!("W={workers}: {cps:.0} contexts/sec (sum bit-identical to W=1)");
        measured.push((workers, cps));
    }
    let w1_cps = measured[0].1;
    let throughput_rows: Vec<JsonValue> = measured
        .iter()
        .map(|&(workers, cps)| {
            let speedup = round(cps / w1_cps, 3);
            json_obj! { "workers": workers, "contexts_per_sec": round(cps, 0), "speedup_vs_w1": speedup }
        })
        .collect();

    // Per-candidate C[Θ] latency: full recompute vs incremental.
    let mut candidate_rows = Vec::new();
    for retrievals in [16usize, 64] {
        let mut rng = StdRng::seed_from_u64(12);
        let params = TreeParams { max_depth: 7, max_branch: 3, ..Default::default() };
        let g = random_tree_with_retrievals(&mut rng, &params, retrievals, retrievals * 2);
        let model = random_retrieval_model(&mut rng, &g, (0.05, 0.6));
        let theta = Strategy::left_to_right(&g);
        let depth = g.arc_ids().map(|a| g.root_path(a).len() + 1).max().unwrap_or(0);
        let neighbors = TransformationSet::all_sibling_swaps(&g).neighbors(&g, &theta);
        let ev = CostEvaluator::new(&g, &model, &theta).expect("depth-first tree strategy");
        let reps = 2_000usize;

        let t0 = Instant::now();
        let mut acc_full = 0.0f64;
        for i in 0..reps {
            let (_, cand) = &neighbors[i % neighbors.len()];
            acc_full += model.expected_cost(&g, cand);
        }
        let full_ns = t0.elapsed().as_nanos() as f64 / reps as f64;

        let t0 = Instant::now();
        let mut acc_inc = 0.0f64;
        for i in 0..reps {
            let (swap, _) = &neighbors[i % neighbors.len()];
            acc_inc += ev.expected_cost_after_swap(swap.r1, swap.r2).expect("sibling swap");
        }
        let inc_ns = t0.elapsed().as_nanos() as f64 / reps as f64;
        assert!(
            (acc_full - acc_inc).abs() < 1e-6 * reps as f64,
            "incremental and full scores diverged"
        );
        let speedup = full_ns / inc_ns;
        println!(
            "retrievals={retrievals} depth={depth}: full {full_ns:.0} ns, \
             after_swap {inc_ns:.0} ns, speedup {speedup:.1}x"
        );
        candidate_rows.push(json_obj! {
            "retrievals": retrievals, "tree_depth": depth, "candidates": neighbors.len(),
            "full_recompute_ns": round(full_ns, 0), "after_swap_ns": round(inc_ns, 0),
            "speedup": round(speedup, 2),
        });
    }

    let doc = json_obj! {
        "bench": "parallel sampling harness + incremental expected cost",
        "cores": cores,
        "note": "MC wall-clock speedup requires physical cores; determinism (bit-identical sums \
            across worker counts) is asserted on every run regardless",
        "mc_samples": n,
        "mc_throughput": throughput_rows,
        "per_candidate_expected_cost": candidate_rows,
    };
    schema::PARALLEL.write(&doc, &out_path);
    println!("wrote {out_path} (cores={cores})");
}
