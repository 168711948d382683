//! Property tests for sharded serving: N shared-nothing engine
//! replicas, arbitrary steering assignments and plane boundaries,
//! bit-identical results.
//!
//! * **Replica invariance** — partitioning an arbitrary query stream
//!   across 1..=4 replicas running the executor-shard hot path (pool
//!   classification, plane assembly, bit-parallel execution) yields,
//!   for every query, the same rendered answer, the same cost to the
//!   f64 bit, and the same arc-by-arc outcome event sequence as a
//!   single executor and as direct scalar [`QueryProcessor::run`] —
//!   regardless of which shard a query steers to or where its plane
//!   boundaries fall.
//! * **Steering purity** — [`steer_shard`] is deterministic and in
//!   range; [`fallback_shard`] exists iff there is a peer shard and
//!   always picks the least-loaded non-home shard (lowest index on
//!   ties).
//! * **Sharded accounting** — composing N bounded batchers with the
//!   server's home-then-fallback admission policy, every job is served
//!   exactly once by some shard or refused after its offers decline:
//!   answered + overloaded == sent, with per-shard decline counts
//!   explained exactly by fallbacks and refusals.

use std::collections::BTreeMap;
use std::time::Instant;

use proptest::prelude::*;
use proptest::{collection, num};
use qpl_datalog::parser::parse_query;
use qpl_datalog::SymbolTable;
use qpl_engine::qp::{classify_context_into, BatchScratch, QueryAnswer, QueryProcessor};
use qpl_graph::batch::LANES;
use qpl_graph::{ArcId, ArcOutcome};
use qpl_serve::{fallback_shard, steer_shard, Batcher, LaneWeight, ServeEngine};

/// Query pool over the Figure-1 KB: known and unknown constants, so
/// planes mix `yes` and `no` lanes.
const POOL: [&str; 6] = [
    "instructor(russ)",
    "instructor(manolis)",
    "instructor(fred)",
    "instructor(alice)",
    "instructor(bob)",
    "instructor(eve)",
];

/// What one lane produces, in comparable form: rendered answer, cost
/// bit pattern, and the scalar-order arc event sequence.
type LaneRecord = (String, u64, Vec<(ArcId, ArcOutcome)>);

fn render(answer: &QueryAnswer, table: &SymbolTable) -> String {
    match answer {
        QueryAnswer::Yes(atom) => format!("yes {}", atom.display(table)),
        QueryAnswer::No => "no".to_string(),
    }
}

/// Runs `texts` in order through one replica's batch hot path — the
/// same pool-classify / assemble / `run_classified_batch` sequence an
/// executor shard performs — cutting planes at the (cycled) sizes in
/// `caps`. Returns one record per query, in input order.
fn replica_records(eng: &mut ServeEngine, texts: &[&str], caps: &[usize]) -> Vec<LaneRecord> {
    let qp = QueryProcessor::left_to_right(&eng.compiled);
    let mut scratch = BatchScratch::new(&eng.compiled.graph);
    let mut records = Vec::with_capacity(texts.len());
    let mut atoms = Vec::new();
    let mut out = Vec::new();
    let mut ev = Vec::new();
    let mut idx = 0usize;
    let mut cap_i = 0usize;
    while idx < texts.len() {
        let cap = caps[cap_i % caps.len()].clamp(1, LANES);
        cap_i += 1;
        let chunk = &texts[idx..(idx + cap).min(texts.len())];
        idx += chunk.len();
        atoms.clear();
        for (lane, text) in chunk.iter().enumerate() {
            let atom = parse_query(text, &mut eng.table).expect("pool queries parse");
            classify_context_into(
                &eng.compiled,
                &atom,
                &eng.db,
                scratch.pool_context(&eng.compiled.graph, lane),
            )
            .expect("pool queries match the compiled form");
            atoms.push(atom);
        }
        scratch.assemble_pool_plane(eng.compiled.graph.arc_count(), chunk.len());
        out.clear();
        let (batch, run, scalar) = scratch.plane_parts_mut();
        qp.run_classified_batch(&atoms, &eng.db, batch, run, scalar, &mut out)
            .expect("plane is assembled against this replica's graph");
        let p = qp.program().expect("left-to-right strategies lower to a program");
        for (lane, (answer, cost)) in out.iter().enumerate() {
            run.events_into(p, lane, &mut ev);
            records.push((render(answer, &eng.table), cost.to_bits(), ev.clone()));
        }
    }
    records
}

/// Ground truth: each query through the scalar interpreter, one at a
/// time, on its own replica.
fn scalar_records(eng: &mut ServeEngine, texts: &[&str]) -> Vec<LaneRecord> {
    let qp = QueryProcessor::left_to_right(&eng.compiled);
    let mut records = Vec::with_capacity(texts.len());
    for text in texts {
        let atom = parse_query(text, &mut eng.table).expect("pool queries parse");
        let run = qp.run(&atom, &eng.db).expect("pool queries run");
        records.push((render(&run.answer, &eng.table), run.trace.cost.to_bits(), run.trace.events));
    }
    records
}

/// A queued job with lane weight only — stands in for a wire request in
/// the admission simulation.
#[derive(Debug)]
struct J {
    id: usize,
    lanes: usize,
}

impl LaneWeight for J {
    fn lanes(&self) -> usize {
        self.lanes
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_execution_is_bit_identical_to_single_executor_and_scalar(
        picks in collection::vec((0usize..POOL.len(), 0usize..8), 1..96),
        shards in 1usize..=4,
        single_caps in collection::vec(1usize..=LANES, 1..4),
        shard_caps in collection::vec(1usize..=LANES, 1..4),
    ) {
        let base = ServeEngine::figure1();
        let texts: Vec<&str> = picks.iter().map(|&(q, _)| POOL[q]).collect();

        // Ground truth and the single-executor batch path agree first.
        let scalar = scalar_records(&mut base.clone(), &texts);
        let single = replica_records(&mut base.clone(), &texts, &single_caps);
        prop_assert_eq!(
            &single, &scalar,
            "single-executor batch path is bit-identical to scalar runs"
        );

        // Steer every query to an arbitrary shard, keeping per-shard
        // arrival order, and run each shard on its own replica.
        let mut per_shard: Vec<Vec<&str>> = vec![Vec::new(); shards];
        let mut origin: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (i, &(q, raw)) in picks.iter().enumerate() {
            let s = raw % shards;
            per_shard[s].push(POOL[q]);
            origin[s].push(i);
        }
        let mut merged: Vec<Option<LaneRecord>> = vec![None; picks.len()];
        for s in 0..shards {
            let recs = replica_records(&mut base.clone(), &per_shard[s], &shard_caps);
            prop_assert_eq!(recs.len(), per_shard[s].len());
            for (j, rec) in recs.into_iter().enumerate() {
                merged[origin[s][j]] = Some(rec);
            }
        }
        for (i, rec) in merged.into_iter().enumerate() {
            prop_assert_eq!(
                rec.as_ref(), Some(&scalar[i]),
                "query {} on its shard matches the scalar answer, cost bits, and events", i
            );
        }
    }

    #[test]
    fn steer_shard_is_deterministic_and_in_range(
        salt in num::u64::ANY,
        shards in 1usize..=16,
    ) {
        let text = format!("instructor(c{salt})");
        let s = steer_shard(&text, shards);
        prop_assert!(s < shards, "steering stays in range");
        prop_assert_eq!(s, steer_shard(&text, shards), "steering is deterministic");
        prop_assert_eq!(steer_shard(&text, 1), 0, "one shard takes everything");
    }

    #[test]
    fn fallback_shard_picks_the_least_loaded_peer(
        depths in collection::vec(0usize..512, 1..16),
        home_raw in 0usize..16,
    ) {
        let home = home_raw % depths.len();
        match fallback_shard(&depths, home) {
            None => prop_assert_eq!(depths.len(), 1, "no fallback iff there is no peer"),
            Some(s) => {
                prop_assert!(s != home && s < depths.len());
                for (i, &d) in depths.iter().enumerate() {
                    if i != home {
                        prop_assert!(
                            depths[s] < d || (depths[s] == d && s <= i),
                            "fallback is least-loaded (lowest index on ties)"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn steered_admission_serves_or_refuses_every_job_exactly_once(
        jobs in collection::vec((1usize..=3, num::u64::ANY, num::u8::ANY), 1..64),
        shards in 1usize..=4,
        cap in 4usize..48,
    ) {
        let now = Instant::now();
        let mut batchers: Vec<Batcher<J>> = (0..shards).map(|_| Batcher::new(cap)).collect();
        let mut plane = Vec::new();
        let mut fates: BTreeMap<usize, &'static str> = BTreeMap::new();
        let record = |fates: &mut BTreeMap<usize, &'static str>, id: usize, fate| {
            prop_assert!(
                fates.insert(id, fate).is_none(),
                "job {id} got two fates — double-served or double-refused"
            );
            Ok(())
        };
        let mut refused = 0u64;
        let mut fallbacks = 0u64;

        for (id, &(w, salt, busy)) in jobs.iter().enumerate() {
            // Bit `s` of `busy` says shard `s` is still running its
            // previous plane at this arrival; a free shard is
            // work-conserving and cuts everything queued.
            for (s, b) in batchers.iter_mut().enumerate() {
                while (busy >> s) & 1 == 0 && !b.is_empty() {
                    b.cut_plane(&mut plane);
                    for (j, _) in plane.drain(..) {
                        record(&mut fates, j.id, "served")?;
                    }
                }
            }
            // The server's admission policy: home offer, then one
            // fallback offer to the least-loaded peer, then refusal.
            let home = steer_shard(&format!("job-{salt}"), shards);
            match batchers[home].offer(J { id, lanes: w }, now) {
                Ok(()) => {}
                Err(job) => {
                    let depths: Vec<usize> =
                        batchers.iter().map(Batcher::lanes_queued).collect();
                    let fate = match fallback_shard(&depths, home) {
                        Some(fb) => batchers[fb].offer(job, now).map(|()| fallbacks += 1),
                        None => Err(job),
                    };
                    if fate.is_err() {
                        refused += 1;
                        record(&mut fates, id, "refused")?;
                    }
                }
            }
        }
        // Drain: what every shard does on shutdown.
        for b in batchers.iter_mut() {
            while !b.is_empty() {
                b.cut_plane(&mut plane);
                for (j, _) in plane.drain(..) {
                    record(&mut fates, j.id, "served")?;
                }
            }
        }

        prop_assert_eq!(fates.len(), jobs.len(), "every job has exactly one fate");
        let served: u64 = batchers.iter().map(Batcher::admitted_count).sum();
        prop_assert_eq!(served + refused, jobs.len() as u64, "answered + overloaded == sent");
        let declines: u64 = batchers.iter().map(Batcher::shed_count).sum();
        let fallback_declines = if shards > 1 { refused } else { 0 };
        prop_assert_eq!(
            declines, fallbacks + refused + fallback_declines,
            "every decline is a counted fallback or part of a refusal"
        );
    }
}
