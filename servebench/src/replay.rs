//! The traced run: an in-process replay of the workload's generated
//! requests through the public functions a serving shard calls, in the
//! order a shard calls them, with a span around each call. Its span
//! self times give the per-layer numbers, which are then joined with
//! the untraced run's `stats` reply.
//!
//! Planes are cut from two query requests each, the composition the
//! two-connection closed loop produces; updates and checkpoints are
//! served between planes, as a shard serves its control queue. The
//! replay runs from fresh state three times: once to warm up, once
//! traced, and once untraced (its wall time prices the layers against
//! the end-to-end rate; the difference is the tracing overhead).
//!
//! Which end-to-end metric each layer metric should move, and where:
//!
//! | layer metric | moves |
//! |---|---|
//! | `wire.parse_request.*`, `wire.render.*`, `serve.outside_layers.share` | `qps_peak` on hot |
//! | `serve.service.p50_us`, `serve.queue_wait.mean_us` | `lat_p50_ms` on hot |
//! | `serve.fill_ratio` | `qps_peak` on cold |
//! | `datalog.parse_query.*`, `engine.memo.hit_ratio`, `engine.memo.ns_per_lane` | hot |
//! | `datalog.symbols`, `engine.memo.entries` | `rss_mb` on cold |
//! | `datalog.delta_apply.*`, `store.append_commit.*`, `store.wal_bytes_per_update` | `qps_peak` on churn, and its update latency (`serve.update.p50_ms`) |
//! | `engine.memo.invalidations_per_update` | `lat_p50_ms` on churn |
//! | `engine.classify.*`, `engine.execute.*`, `core.pib_observe.*` | `qps_peak` on cold |
//! | `core.pib.climbs`, `core.pib.queries_to_first_climb` | `cost_mean` on cold |
//! | `store.checkpoint.ms` | update tail on churn (`serve.update.p99_ms`) |
//! | `store.recover.ms` | `setup_s` on churn |
//!
//! Layers a workload does not exercise report 0 (no store outside
//! churn; no climb within the replay reports 0 queries to it). The
//! cold rows apply to `--workload cold` runs, which are not gated.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use qpl_core::{Pib, PibConfig};
use qpl_datalog::parser::parse_query;
use qpl_datalog::{Atom, Database, Fact, Symbol, SymbolTable, Term};
use qpl_engine::cache::{DependencyFootprint, RunCache};
use qpl_engine::qp::{classify_context_into, BatchScratch, QueryAnswer, QueryProcessor};
use qpl_graph::compile::CompiledGraph;
use qpl_serve::wire::{self, LaneResult};
use qpl_serve::{parse_request, JsonValue, Request, ServeEngine};
use qpl_store::{
    CandidateEntry, ClimbEntry, FsyncPolicy, PibSnapshot, Record, Snapshot, Store, StoreConfig,
    StrategyState,
};

use crate::e2e::{E2e, ADAPT_DELTA};
use crate::gen::{Op, Plan, Workload, CONNS};
use crate::Metric;

/// Span names, indexed by `Span::name`.
const NAMES: [&str; 14] = [
    "replay",
    "wire.parse_request",
    "serve.plane",
    "datalog.parse_query",
    "engine.memo",
    "engine.classify",
    "engine.execute",
    "serve.collect",
    "core.pib_observe",
    "wire.render",
    "serve.update",
    "datalog.delta_apply",
    "store.append_commit",
    "store.checkpoint",
];
const ROOT: u8 = 0;
const PARSE_REQUEST: u8 = 1;
const PLANE: u8 = 2;
const PARSE_QUERY: u8 = 3;
const MEMO: u8 = 4;
const CLASSIFY: u8 = 5;
const EXECUTE: u8 = 6;
const COLLECT: u8 = 7;
const PIB_OBSERVE: u8 = 8;
const RENDER: u8 = 9;
const UPDATE: u8 = 10;
const DELTA_APPLY: u8 = 11;
const APPEND_COMMIT: u8 = 12;
const CHECKPOINT: u8 = 13;

/// Largest accepted share of the replay's wall time that no layer span
/// covers: the root span's self time (the replay loop, and the span
/// recorder between one span's end and the next one's start) over the
/// wall time measured outside the recorder.
pub const UNCOVERED_TOLERANCE: f64 = 0.01;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are ns since the recorder started.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: u8,
    start: u64,
    end: u64,
    parent: u32,
    req: u32,
}

/// In-memory span recorder; a disabled one records nothing.
struct Spans {
    on: bool,
    t0: Instant,
    recs: Vec<Span>,
    stack: Vec<u32>,
}

impl Spans {
    fn new(on: bool) -> Self {
        Spans { on, t0: Instant::now(), recs: Vec::new(), stack: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: u8, req: u32) {
        if self.on {
            let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
            self.stack.push(self.recs.len() as u32);
            let start = self.now();
            self.recs.push(Span { name, start, end: start, parent, req });
        }
    }

    fn close(&mut self) {
        if self.on {
            let end = self.now();
            let i = self.stack.pop().expect("balanced spans") as usize;
            self.recs[i].end = end;
        }
    }

    /// Self time per span: its duration minus the part of it its
    /// children cover (children never overlap on one thread, and are
    /// clipped to the parent in case of clock skew).
    fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.recs.len()];
        for s in &self.recs {
            if s.parent != NO_PARENT {
                let p = &self.recs[s.parent as usize];
                let (a, b) = (s.start.max(p.start), s.end.min(p.end));
                covered[s.parent as usize] += b.saturating_sub(a);
            }
        }
        self.recs.iter().zip(covered).map(|(s, c)| (s.end - s.start).saturating_sub(c)).collect()
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.recs.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                NAMES[s.name as usize], s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// Counts the replay makes where the work happens.
#[derive(Debug, Default)]
struct Counts {
    requests: u64,
    lanes: u64,
    memo_hits: u64,
    classified: u64,
    executed: u64,
    observed: u64,
    cost_sum: f64,
    climbs: u64,
    lanes_to_first_climb: u64,
    updates: u64,
    facts_applied: u64,
    invalidations_on_update: u64,
    wal_bytes: u64,
    checkpoints: u64,
}

/// A shard replica driven by hand, field for field what a serving
/// shard owns.
struct Shard<'g> {
    table: SymbolTable,
    compiled: &'g CompiledGraph,
    db: Database,
    qp: QueryProcessor<'g>,
    pib: Pib,
    fp: u64,
    memo: RunCache,
    footprint: DependencyFootprint,
    scratch: BatchScratch,
    store: Option<Store>,
    atoms: Vec<Atom>,
    keys: Vec<Vec<Symbol>>,
    slots: Vec<(usize, usize)>,
    lane_out: Vec<(QueryAnswer, f64)>,
    n: Counts,
}

fn lane_result(answer: &QueryAnswer, cost: f64, table: &SymbolTable) -> LaneResult {
    match answer {
        QueryAnswer::Yes(w) => LaneResult::Yes { witness: w.display(table).to_string(), cost },
        QueryAnswer::No => LaneResult::No { cost },
    }
}

fn ground_fact(text: &str, table: &mut SymbolTable) -> Result<Fact, String> {
    let atom = parse_query(text, table).map_err(|e| e.to_string())?;
    let args = atom
        .args
        .iter()
        .map(|t| match t {
            Term::Const(s) => Ok(*s),
            Term::Var(_) => Err(format!("update facts must be ground: {text:?}")),
        })
        .collect::<Result<_, _>>()?;
    Ok(Fact::new(atom.predicate, args))
}

fn store_config() -> StoreConfig {
    StoreConfig { fsync: FsyncPolicy::EveryBatch, segment_bytes: 8 << 20 }
}

/// Opens `dir` and replays it into `engine`, as server start-up does:
/// the snapshot's facts replace the KB, then WAL deltas re-apply.
fn recover(engine: &mut ServeEngine, dir: &Path) -> Result<Store, String> {
    let (store, rec) = Store::open(dir, store_config()).map_err(|e| e.to_string())?;
    if let Some(snap) = &rec.snapshot {
        let mut db = Database::new();
        for text in &snap.facts {
            db.insert(ground_fact(text, &mut engine.table)?).map_err(|e| e.to_string())?;
        }
        let gens: Vec<(Symbol, u64)> =
            snap.pred_gens.iter().map(|(p, g)| (engine.table.intern(p), *g)).collect();
        db.restore_generations(snap.generation, gens);
        engine.db = db;
    }
    for record in &rec.records {
        if let Record::Delta { insert, retract } = record {
            for t in insert {
                engine.db.insert(ground_fact(t, &mut engine.table)?).map_err(|e| e.to_string())?;
            }
            for t in retract {
                engine.db.retract(ground_fact(t, &mut engine.table)?).map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(store)
}

impl<'g> Shard<'g> {
    fn new(
        compiled: &'g CompiledGraph,
        table: SymbolTable,
        db: Database,
        store: Option<Store>,
    ) -> Self {
        let qp = QueryProcessor::left_to_right(compiled);
        let pib = Pib::new(&compiled.graph, qp.strategy().clone(), PibConfig::new(ADAPT_DELTA));
        let fp = qp.strategy().fingerprint();
        Shard {
            table,
            compiled,
            db,
            qp,
            pib,
            fp,
            memo: RunCache::new(),
            footprint: DependencyFootprint::of_compiled(compiled),
            scratch: BatchScratch::new(&compiled.graph),
            store,
            atoms: Vec::new(),
            keys: Vec::new(),
            slots: Vec::new(),
            lane_out: Vec::new(),
            n: Counts::default(),
        }
    }

    /// One plane over `jobs` (request id, query texts), which it
    /// consumes: a shard drops its requests once they are answered.
    fn plane(&mut self, jobs: &mut Vec<(u32, Vec<String>)>, sp: &mut Spans) {
        let g = &self.compiled.graph;
        sp.open(PLANE, jobs[0].0);
        let mut results: Vec<Vec<Option<LaneResult>>> =
            jobs.iter().map(|(_, t)| vec![None; t.len()]).collect();
        self.atoms.clear();
        self.keys.clear();
        self.slots.clear();
        sp.open(MEMO, jobs[0].0);
        self.memo.revalidate_scoped(&self.db, &self.footprint, self.fp);
        sp.close();
        let mut lanes = 0usize;
        for (ji, (req, texts)) in jobs.iter().enumerate() {
            for (si, text) in texts.iter().enumerate() {
                self.n.lanes += 1;
                sp.open(PARSE_QUERY, *req);
                let parsed = parse_query(text, &mut self.table);
                sp.close();
                let atom = parsed.expect("generated queries parse");
                sp.open(MEMO, *req);
                let key = self.compiled.form.bound_constants(&atom);
                let hit = self.memo.get(&key).map(|(a, c)| lane_result(a, *c, &self.table));
                sp.close();
                if let Some(r) = hit {
                    self.n.memo_hits += 1;
                    results[ji][si] = Some(r);
                    continue;
                }
                sp.open(CLASSIFY, *req);
                let ctx = self.scratch.pool_context(g, lanes);
                classify_context_into(self.compiled, &atom, &self.db, ctx)
                    .expect("generated queries match the form");
                sp.close();
                self.n.classified += 1;
                self.keys.push(key);
                self.atoms.push(atom);
                self.slots.push((ji, si));
                lanes += 1;
            }
        }
        if lanes > 0 {
            sp.open(EXECUTE, jobs[0].0);
            self.scratch.assemble_pool_plane(g.arc_count(), lanes);
            self.lane_out.clear();
            let (batch, run, scalar) = self.scratch.plane_parts_mut();
            self.qp
                .run_classified_batch(&self.atoms, &self.db, batch, run, scalar, &mut self.lane_out)
                .expect("plane matches the graph");
            sp.close();
            sp.open(COLLECT, jobs[0].0);
            for (lane, (answer, cost)) in self.lane_out.iter().enumerate() {
                let (ji, si) = self.slots[lane];
                results[ji][si] = Some(lane_result(answer, *cost, &self.table));
                self.n.cost_sum += cost;
                self.memo.insert(std::mem::take(&mut self.keys[lane]), answer.clone(), *cost);
            }
            sp.close();
            self.n.executed += lanes as u64;
            sp.open(PIB_OBSERVE, jobs[0].0);
            self.pib.observe_batch(g, self.scratch.batch());
            let fp = self.pib.strategy().fingerprint();
            if fp != self.fp {
                self.qp.set_strategy(self.pib.strategy().clone());
                self.fp = fp;
            }
            sp.close();
            self.n.observed += lanes as u64;
            let climbs = self.pib.history().len() as u64;
            if climbs > 0 && self.n.climbs == 0 {
                self.n.lanes_to_first_climb = self.n.observed;
            }
            self.n.climbs = climbs;
        }
        for ((req, _), row) in jobs.iter().zip(results) {
            sp.open(RENDER, *req);
            let filled: Vec<LaneResult> =
                row.into_iter().map(|r| r.expect("lane filled")).collect();
            let line = wire::render_answers(&filled, None);
            sp.close();
            std::hint::black_box(line);
        }
        jobs.clear();
        sp.close();
    }

    /// One KB delta: validate, journal and commit, apply, revalidate the
    /// memo — the order a shard serves an `update` in.
    fn update(&mut self, req: u32, insert: Vec<String>, retract: Vec<String>, sp: &mut Spans) {
        sp.open(UPDATE, req);
        sp.open(DELTA_APPLY, req);
        let parse = |ts: &[String], table: &mut SymbolTable| -> Vec<Fact> {
            ts.iter().map(|t| ground_fact(t, table).expect("generated facts parse")).collect()
        };
        let ins = parse(&insert, &mut self.table);
        let ret = parse(&retract, &mut self.table);
        sp.close();
        let record = Record::Delta { insert, retract };
        if let Some(store) = &mut self.store {
            sp.open(APPEND_COMMIT, req);
            let before = store.status().wal_bytes;
            store.append(&record).and_then(|_| store.commit()).expect("journal the delta");
            self.n.wal_bytes += store.status().wal_bytes.saturating_sub(before);
            sp.close();
        }
        sp.open(DELTA_APPLY, req);
        for f in ins {
            self.db.insert(f).expect("insert applies");
            self.n.facts_applied += 1;
        }
        for f in ret {
            self.db.retract(f).expect("retract applies");
            self.n.facts_applied += 1;
        }
        sp.close();
        sp.open(MEMO, req);
        let before = self.memo.stats().invalidations;
        self.memo.revalidate_scoped(&self.db, &self.footprint, self.fp);
        self.n.invalidations_on_update += self.memo.stats().invalidations - before;
        sp.close();
        drop(record);
        self.n.updates += 1;
        sp.close();
    }

    fn checkpoint(&mut self, req: u32, sp: &mut Spans) {
        let Some(store) = &mut self.store else {
            return;
        };
        sp.open(CHECKPOINT, req);
        let mut pred_gens: Vec<(String, u64)> = self
            .db
            .predicate_generations()
            .map(|(p, g)| (self.table.name(p).to_string(), g))
            .collect();
        pred_gens.sort();
        let s = self.pib.export_state();
        let snapshot = Snapshot {
            facts: self.db.dump(&self.table),
            generation: self.db.generation(),
            pred_gens,
            strategy: Some(StrategyState {
                fingerprint: self.fp,
                arcs: self.qp.strategy().arcs().iter().map(|a| a.0).collect(),
            }),
            pib: Some(PibSnapshot {
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
            }),
        };
        store.checkpoint(&snapshot).expect("checkpoint writes");
        self.n.checkpoints += 1;
        sp.close();
    }
}

/// The first `replay_ops` operations of each connection, interleaved
/// (scaled down for runs shorter than 10 s, such as smoke tests).
fn replay_ops(plan: &Plan, seconds: u64) -> Vec<Op> {
    let mut streams: Vec<_> = (0..CONNS).map(|k| plan.stream(k)).collect();
    let mut ops = Vec::new();
    let n = plan.load.replay_ops.min(plan.load.replay_ops * seconds / 10).max(8);
    for _ in 0..n {
        for s in &mut streams {
            ops.push(s.next_op(true));
        }
    }
    ops
}

/// Per-pass results.
struct Pass {
    wall_ns: u64,
    spans: Spans,
    counts: Counts,
    symbols: usize,
    memo_entries: usize,
    recover_ms: f64,
    arcs: usize,
}

fn run_pass(
    plan: &Plan,
    ops: &[Op],
    traced: bool,
    data_dir: Option<&Path>,
) -> Result<Pass, String> {
    let mut engine = ServeEngine::from_source(&plan.kb, plan.form)?;
    let mut recover_ms = 0.0;
    let store = match data_dir {
        Some(dir) => {
            let t = Instant::now();
            let store = recover(&mut engine, dir)?;
            recover_ms = t.elapsed().as_secs_f64() * 1e3;
            Some(store)
        }
        None => None,
    };
    let ServeEngine { table, compiled, db } = engine;
    let mut shard = Shard::new(&compiled, table, db, store);
    let mut sp = Spans::new(traced);
    let mut jobs: Vec<(u32, Vec<String>)> = Vec::with_capacity(2);
    let t0 = Instant::now();
    sp.open(ROOT, 0);
    for (i, op) in ops.iter().enumerate() {
        let req = i as u32;
        sp.open(PARSE_REQUEST, req);
        let parsed = parse_request(op.line(), 64);
        sp.close();
        shard.n.requests += 1;
        match parsed.map_err(|e| format!("replayed request rejected: {e}"))? {
            Request::Batch { qs, .. } => {
                jobs.push((req, qs));
                if jobs.len() == 2 {
                    shard.plane(&mut jobs, &mut sp);
                }
            }
            Request::Update { insert, retract, .. } => shard.update(req, insert, retract, &mut sp),
            Request::Checkpoint { .. } => shard.checkpoint(req, &mut sp),
            other => return Err(format!("unexpected replayed request {other:?}")),
        }
    }
    if !jobs.is_empty() {
        shard.plane(&mut jobs, &mut sp);
    }
    sp.close();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    Ok(Pass {
        wall_ns,
        symbols: shard.table.len(),
        memo_entries: shard.memo.len(),
        arcs: compiled.graph.arc_count(),
        counts: std::mem::take(&mut shard.n),
        spans: sp,
        recover_ms,
    })
}

fn num(v: Option<&JsonValue>) -> f64 {
    v.and_then(JsonValue::as_f64).unwrap_or(0.0)
}

/// The traced run's per-layer metrics. `run_dir` holds churn's
/// pristine data dir; the span file goes to `out_dir`.
pub fn per_layer(
    plan: &Plan,
    seconds: u64,
    e: &E2e,
    run_dir: &Path,
    out_dir: &Path,
) -> Result<Vec<Metric>, String> {
    let ops = replay_ops(plan, seconds);
    let durable = plan.workload == Workload::Churn;
    let pristine = run_dir.join("pristine");
    let data_dir = |tag: &str| -> Result<Option<std::path::PathBuf>, String> {
        if !durable {
            return Ok(None);
        }
        let d = run_dir.join(format!("replay-{tag}"));
        std::fs::create_dir_all(&d).map_err(|e| e.to_string())?;
        for entry in std::fs::read_dir(&pristine).map_err(|e| e.to_string())? {
            let entry = entry.map_err(|e| e.to_string())?;
            std::fs::copy(entry.path(), d.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
        Ok(Some(d))
    };
    // A discarded first pass takes the one-off costs (allocator growth,
    // page faults) off both measured passes.
    run_pass(plan, &ops, false, data_dir("warm")?.as_deref())?;
    let traced = run_pass(plan, &ops, true, data_dir("traced")?.as_deref())?;
    let plain = run_pass(plan, &ops, false, data_dir("plain")?.as_deref())?;

    // Span accounting must close: the layer spans' self times sum to
    // the wall time, up to what the root span keeps for itself.
    let selfs = traced.spans.self_times();
    let layers_ns: u64 =
        traced.spans.recs.iter().zip(&selfs).filter(|(s, _)| s.name != ROOT).map(|(_, t)| t).sum();
    let uncovered = 1.0 - layers_ns as f64 / traced.wall_ns as f64;
    if uncovered.abs() > UNCOVERED_TOLERANCE {
        return Err(format!(
            "layer span self times sum to {layers_ns} ns but the replay took {} ns: {:.2}% of \
             it is outside every layer span (tolerance {:.0}%)",
            traced.wall_ns,
            uncovered * 100.0,
            UNCOVERED_TOLERANCE * 100.0
        ));
    }
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let span_file = out_dir.join(format!("spans-{}.tsv", plan.workload.name()));
    traced.spans.write(&span_file).map_err(|e| format!("{}: {e}", span_file.display()))?;

    let mut by_name = [0u64; NAMES.len()];
    for (s, t) in traced.spans.recs.iter().zip(&selfs) {
        by_name[s.name as usize] += t;
    }
    let per =
        |name: u8, n: u64| if n == 0 { 0.0 } else { by_name[name as usize] as f64 / n as f64 };
    let c = &traced.counts;
    let stats = e.stats.as_ref().ok_or("the untraced run returned no stats")?;
    let metrics = stats.get("metrics");
    let counter = |k: &str| num(metrics.and_then(|m| m.get("counters")).and_then(|c| c.get(k)));
    let service = metrics.and_then(|m| m.get("values")).and_then(|v| v.get("serve.service_us"));
    let exec = metrics.and_then(|m| m.get("spans")).and_then(|s| s.get("serve.exec"));
    let mean = |sum: f64, n: f64| if n > 0.0 { sum / n } else { 0.0 };
    let service_mean_us =
        mean(num(service.and_then(|v| v.get("sum"))), num(service.and_then(|v| v.get("count"))));
    let exec_mean_us =
        mean(num(exec.and_then(|v| v.get("total_ns"))), num(exec.and_then(|v| v.get("count"))))
            / 1e3;
    let plain_ns_per_query = plain.wall_ns as f64 / plain.counts.lanes.max(1) as f64;
    let e2e_ns_per_query = 1e9 / e.qps_peak;
    let arcs = traced.arcs;
    let lag = e.gen_lag_p99_ms;

    let m = |name, unit, value| Metric { name, unit, value };
    let updates_journaled = if durable { c.updates } else { 0 };
    Ok(vec![
        m("wire.parse_request.ns_per_req", "ns", per(PARSE_REQUEST, c.requests)),
        m("wire.render.ns_per_req", "ns", per(RENDER, c.requests - c.updates - c.checkpoints)),
        m("serve.service.p50_us", "us", num(stats.get("p50_us"))),
        m("serve.queue_wait.mean_us", "us", service_mean_us - exec_mean_us),
        m("serve.fill_ratio", "ratio", num(stats.get("fill_ratio"))),
        m("serve.outside_layers.share", "ratio", 1.0 - plain_ns_per_query / e2e_ns_per_query),
        m("serve.fail_ratio", "ratio", e.failed as f64 / e.attempted.max(1) as f64),
        m("datalog.parse_query.ns_per_query", "ns", per(PARSE_QUERY, c.lanes)),
        m("datalog.symbols", "count", traced.symbols as f64),
        m("datalog.delta_apply.ns_per_fact", "ns", per(DELTA_APPLY, c.facts_applied)),
        m(
            "engine.memo.hit_ratio",
            "ratio",
            mean(counter("serve.cache.hits"), counter("serve.queries")),
        ),
        m("engine.memo.ns_per_lane", "ns", per(MEMO, c.lanes)),
        m("engine.memo.entries", "count", traced.memo_entries as f64),
        m(
            "engine.memo.invalidations_per_update",
            "ratio",
            mean(c.invalidations_on_update as f64, c.updates as f64),
        ),
        m("engine.classify.ns_per_lane", "ns", per(CLASSIFY, c.classified)),
        m(
            "engine.classify.useful_ratio",
            "ratio",
            mean(c.cost_sum, c.executed as f64) / arcs as f64,
        ),
        m("engine.execute.ns_per_lane", "ns", per(EXECUTE, c.executed)),
        m("core.pib_observe.ns_per_lane", "ns", per(PIB_OBSERVE, c.observed)),
        m("core.pib.climbs", "count", num(stats.get("climbs"))),
        m("core.pib.queries_to_first_climb", "count", c.lanes_to_first_climb as f64),
        m("store.append_commit.us_per_update", "us", per(APPEND_COMMIT, updates_journaled) / 1e3),
        m("store.wal_bytes_per_update", "B", mean(c.wal_bytes as f64, updates_journaled as f64)),
        m("store.checkpoint.ms", "ms", per(CHECKPOINT, c.checkpoints) / 1e6),
        m("store.recover.ms", "ms", traced.recover_ms),
        m("serve.request.p99_ms", "ms", e.lat_p99_ms),
        m("serve.update.p50_ms", "ms", e.update_p50_ms),
        m("serve.update.p99_ms", "ms", e.update_p99_ms),
        m("gen.lag_p99_ms", "ms", lag),
        m("trace.uncovered_share", "ratio", uncovered),
        m("trace.overhead_share", "ratio", traced.wall_ns as f64 / plain.wall_ns as f64 - 1.0),
    ])
}
