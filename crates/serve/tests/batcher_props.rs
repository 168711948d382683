//! Property tests for the dynamic batcher: under arbitrary arrival
//! patterns, queue bounds, and executor busy/free interleavings —
//!
//! * every offered request is either served exactly once or shed with
//!   an explicit refusal (never dropped, never double-served, never
//!   split across planes),
//! * executing the cut planes bit-parallel produces exactly the
//!   per-lane cost (f64 bit pattern) and outcome that scalar execution
//!   of the same context produces, and
//! * the server's work-conserving cut (`cut_plane`, capacity `MAX_LANES`) takes
//!   the whole queue when it holds ≤ 512 lanes, and otherwise the
//!   longest FIFO prefix of whole jobs that fits in 512.
//!
//! The batcher never reads a clock, so the tests need no sleeps and
//! are fully deterministic.

use std::collections::BTreeMap;
use std::time::Instant;

use proptest::prelude::*;
use proptest::{collection, num};
use qpl_graph::batch::{execute_batch, BatchRun, ContextBatch, LANES, MAX_LANES};
use qpl_graph::context::{Context, RunScratch};
use qpl_graph::program::{execute_program_into, StrategyProgram};
use qpl_graph::{InferenceGraph, Strategy};
use qpl_serve::batcher::{Batcher, LaneWeight};
use qpl_workload::generator::{random_tree_with_retrievals, TreeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Req {
    id: usize,
    contexts: Vec<Context>,
}

impl LaneWeight for Req {
    fn lanes(&self) -> usize {
        self.contexts.len()
    }
}

/// A job that is only its lane count, for cut-shape properties.
struct LaneJob {
    id: usize,
    lanes: usize,
}

impl LaneWeight for LaneJob {
    fn lanes(&self) -> usize {
        self.lanes
    }
}

fn graph_for(seed: u64) -> InferenceGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    random_tree_with_retrievals(&mut rng, &TreeParams::default(), 4, 8)
}

/// Deterministic per-lane context from a bit mask (arc `i` blocked iff
/// bit `i % 64` of `mask` is set).
fn context_from_mask(g: &InferenceGraph, mask: u64) -> Context {
    let mut i = 0usize;
    Context::from_fn(g, |_| {
        let blocked = (mask >> (i % 64)) & 1 == 1;
        i += 1;
        blocked
    })
}

/// Cuts one plane, executes it bit-parallel, and checks every lane
/// against scalar execution of the same context. Returns the ids served.
fn serve_plane(
    g: &InferenceGraph,
    p: &StrategyProgram,
    batcher: &mut Batcher<Req>,
    plane_buf: &mut Vec<(Req, Instant)>,
) -> Vec<usize> {
    // Cut the way the server does: everything queued, up to the widest
    // plane, so the property covers 64..512-lane planes under backlog.
    let lanes = batcher.cut_plane(plane_buf);
    assert!(lanes <= MAX_LANES, "a plane never exceeds its cut capacity");
    let contexts: Vec<&Context> =
        plane_buf.iter().flat_map(|(req, _)| req.contexts.iter()).collect();
    assert_eq!(contexts.len(), lanes, "jobs are whole: lane sums match the cut");

    if lanes > 0 {
        let mut batch = ContextBatch::new(g.arc_count(), lanes);
        for (lane, ctx) in contexts.iter().enumerate() {
            batch.set_lane(lane, ctx);
        }
        let mut run = BatchRun::new();
        execute_batch(p, &batch, batch.active_mask(), &mut run);
        let mut scratch = RunScratch::new(g);
        for (lane, ctx) in contexts.iter().enumerate() {
            let scalar_outcome = execute_program_into(p, ctx, &mut scratch);
            assert_eq!(
                run.outcome(lane),
                scalar_outcome,
                "lane {lane}: batched outcome equals scalar execution"
            );
            assert_eq!(
                run.cost(lane).to_bits(),
                scratch.cost().to_bits(),
                "lane {lane}: batched cost is bit-identical to scalar execution"
            );
        }
    }
    plane_buf.drain(..).map(|(req, _)| req.id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_arrivals_serve_once_or_shed_and_match_scalar(
        graph_seed in 0u64..32,
        jobs in collection::vec((1usize..=3, num::u64::ANY, num::bool::ANY), 1..48),
        cap in 8usize..96,
    ) {
        let g = graph_for(graph_seed);
        let strategy = Strategy::left_to_right(&g);
        let p = StrategyProgram::compile(&g, &strategy)
            .expect("left-to-right strategies are path-form");

        let now = Instant::now();
        let mut batcher: Batcher<Req> = Batcher::new(cap);
        let mut plane_buf = Vec::new();
        let mut fates: BTreeMap<usize, &'static str> = BTreeMap::new();
        let record = |fates: &mut BTreeMap<usize, &'static str>, id: usize, fate| {
            prop_assert!(
                fates.insert(id, fate).is_none(),
                "request {id} got two fates — double-served or double-shed"
            );
            Ok(())
        };

        for (id, (w, mask, busy)) in jobs.iter().enumerate() {
            // A free executor is work-conserving: it cuts everything
            // queued before this arrival. A busy one is still running
            // its previous plane, so arrivals pile up (and may shed).
            while !busy && !batcher.is_empty() {
                for sid in serve_plane(&g, &p, &mut batcher, &mut plane_buf) {
                    record(&mut fates, sid, "served")?;
                }
            }
            let contexts = (0..*w)
                .map(|lane| context_from_mask(&g, mask.rotate_left(lane as u32 * 7)))
                .collect();
            if batcher.offer(Req { id, contexts }, now).is_err() {
                record(&mut fates, id, "shed")?;
            }
        }
        // Drain (what the executor does on shutdown): flush everything.
        while !batcher.is_empty() {
            for sid in serve_plane(&g, &p, &mut batcher, &mut plane_buf) {
                record(&mut fates, sid, "served")?;
            }
        }

        prop_assert_eq!(
            fates.len(),
            jobs.len(),
            "every request has exactly one fate — none dropped"
        );
        let served = fates.values().filter(|f| **f == "served").count();
        let shed = fates.values().filter(|f| **f == "shed").count();
        prop_assert_eq!(served + shed, jobs.len());
        prop_assert_eq!(shed as u64, batcher.shed_count());
        prop_assert_eq!(served as u64, batcher.admitted_count());
    }

    #[test]
    fn widest_cut_takes_the_whole_queue_or_the_longest_fitting_prefix(
        widths in collection::vec(1usize..=LANES, 1..40),
    ) {
        let now = Instant::now();
        let mut batcher: Batcher<LaneJob> = Batcher::new(usize::MAX);
        for (id, &lanes) in widths.iter().enumerate() {
            prop_assert!(batcher.offer(LaneJob { id, lanes }, now).is_ok());
        }
        let queued: usize = widths.iter().sum();
        // The longest FIFO prefix of whole jobs that fits in one plane.
        let mut prefix = 0usize;
        let mut prefix_lanes = 0usize;
        while prefix < widths.len() && prefix_lanes + widths[prefix] <= MAX_LANES {
            prefix_lanes += widths[prefix];
            prefix += 1;
        }

        let mut out = Vec::new();
        let lanes = batcher.cut_plane(&mut out);
        if queued <= MAX_LANES {
            prop_assert_eq!(lanes, queued, "a queue that fits is cut whole");
            prop_assert!(batcher.is_empty());
        }
        prop_assert_eq!(lanes, prefix_lanes);
        let ids: Vec<usize> = out.iter().map(|(job, _)| job.id).collect();
        prop_assert_eq!(ids, (0..prefix).collect::<Vec<_>>(), "FIFO prefix, no reordering");
        prop_assert_eq!(batcher.lanes_queued(), queued - prefix_lanes);
    }
}
