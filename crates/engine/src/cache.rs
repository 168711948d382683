//! Cross-context answer caching: reuse proof work across Monte-Carlo
//! samples that share a ⟨database, blocked-arc set⟩ pair.
//!
//! The E-experiments draw thousands of i.i.d. contexts, and most draws
//! repeat a context class the run has already seen (Note 2: contexts
//! partition into finitely many blocked-arc classes). Everything proved
//! inside one class against one database state stays valid until either
//! changes, so:
//!
//! * [`CrossContextCache`] keeps one [`TableStore`] of tabled Datalog
//!   answers per context fingerprint, invalidated by the database's
//!   generation counter — a sample landing in a seen class reuses every
//!   subgoal table from previous samples of that class;
//! * [`RunCache`] memoizes whole `⟨query → (answer, cost)⟩` runs of a
//!   fixed-strategy [`QueryProcessor`](crate::qp::QueryProcessor),
//!   invalidated when the database generation *or* the strategy changes.
//!
//! Every validity key folds in [`Database::instance_id`], so two
//! databases that happen to share a generation number can never alias
//! each other's entries — a cache handed a different instance simply
//! treats its entries as stale. Within one instance, invalidation is
//! *selective*: validity is scoped to a [`DependencyFootprint`] (the
//! predicates a cached computation can possibly read), stamped with
//! [`Database::footprint_generation`], so deltas on predicates outside
//! the footprint leave the memo warm. Tabled stores can additionally be
//! repaired in place via [`CrossContextCache::maintain`], which runs
//! [`TopDown::maintain_tables`] (semi-naive delta re-derivation) instead
//! of clearing.
//!
//! Determinism: cached answers are pure functions of ⟨rules, database
//! state, context class⟩, so replacing a recomputation with a cache read
//! never changes a result — only *stats* (hit/miss counts) depend on
//! arrival order, which is why the parallel harness asserts on answers,
//! never on cache stats.

use crate::qp::QueryAnswer;
use qpl_datalog::table::TableStore;
use qpl_datalog::topdown::{MaintainReport, RetrievalStats, TopDown};
use qpl_datalog::{Database, DatalogError, RuleBase, Symbol};
use qpl_graph::compile::{ArcBinding, CompiledGraph};
use qpl_graph::context::Context;
use qpl_graph::strategy::Strategy;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// The set of database predicates a cached computation can read — its
/// *dependency footprint*. A delta on a predicate outside the footprint
/// cannot change any answer the computation produces, so caches scoped to
/// a footprint survive such deltas (selective invalidation).
///
/// For a compiled inference graph the footprint is the set of predicates
/// named by its retrieval arc bindings, computed once per strategy
/// compilation via [`DependencyFootprint::of_compiled`]. For tabled
/// Datalog evaluation it is the body-reachability closure of the called
/// predicates (see [`qpl_datalog::RuleBase::reachable_predicates`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DependencyFootprint {
    /// Sorted, deduplicated predicate set.
    preds: Vec<Symbol>,
}

impl DependencyFootprint {
    /// A footprint over an explicit predicate set.
    pub fn from_predicates(preds: impl IntoIterator<Item = Symbol>) -> Self {
        let mut preds: Vec<Symbol> = preds.into_iter().collect();
        preds.sort();
        preds.dedup();
        Self { preds }
    }

    /// The footprint of a compiled graph: every predicate some retrieval
    /// arc probes. Reduction arcs only test constants against guards and
    /// never touch the database, so they contribute nothing.
    pub fn of_compiled(compiled: &CompiledGraph) -> Self {
        Self::from_predicates(compiled.bindings.iter().filter_map(|b| match b {
            ArcBinding::Retrieval { predicate, .. } => Some(*predicate),
            ArcBinding::Reduction { .. } => None,
        }))
    }

    /// The footprint's predicates, ascending.
    pub fn predicates(&self) -> &[Symbol] {
        &self.preds
    }

    /// Whether `p` is in the footprint.
    pub fn contains(&self, p: Symbol) -> bool {
        self.preds.binary_search(&p).is_ok()
    }

    /// Whether the footprint is empty (nothing reads the database).
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// The footprint-scoped generation of `db`: advances iff a footprint
    /// predicate changed (see [`Database::footprint_generation`]).
    pub fn generation(&self, db: &Database) -> u64 {
        db.footprint_generation(&self.preds)
    }
}

/// Lifetime counters for a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered by a live entry.
    pub hits: u64,
    /// Lookups that had no entry at all.
    pub misses: u64,
    /// Entries dropped because their generation (or strategy) went stale.
    pub invalidations: u64,
}

/// A 64-bit fingerprint of a context class: a SplitMix64-style fold over
/// the blocked arc indices (ascending) and the arc count. Equal contexts
/// always map to equal fingerprints; unequal ones collide with
/// probability ≈ 2⁻⁶⁴. A collision would serve answers from the wrong
/// context class, so the fold covers every blocked index rather than
/// sampling a few — at 2⁻⁶⁴ over at most a few thousand classes per run
/// the risk is far below that of memory corruption.
pub fn context_fingerprint(ctx: &Context) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (ctx.arc_count() as u64);
    let mut mix = |v: u64| {
        let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    };
    for a in ctx.blocked_arcs() {
        mix(a.index() as u64 + 1);
    }
    h
}

/// A 64-bit fingerprint of a strategy: a fold over its arc sequence.
/// Used to invalidate [`RunCache`] entries when PIB swaps strategies.
///
/// The hash now lives on the strategy itself, computed once and cached
/// ([`Strategy::fingerprint`]); this wrapper survives for callers keyed
/// to the old free-function spelling.
pub fn strategy_fingerprint(s: &Strategy) -> u64 {
    s.fingerprint()
}

/// Tabled-answer stores shared across samples: one [`TableStore`] per
/// blocked-arc context class, each validated against the database
/// generation it was filled under.
///
/// # Examples
/// ```
/// use qpl_engine::cache::{context_fingerprint, CrossContextCache};
/// use qpl_datalog::parser::{parse_program, parse_query};
/// use qpl_datalog::topdown::{RetrievalStats, TopDown};
/// use qpl_datalog::SymbolTable;
/// let mut t = SymbolTable::new();
/// let p = parse_program("a(X) :- b(X). b(k).", &mut t).unwrap();
/// let q = parse_query("a(k)", &mut t).unwrap();
/// let solver = TopDown::new(&p.rules, &p.facts);
/// let mut cache = CrossContextCache::new();
/// let mut stats = RetrievalStats::default();
/// // Key by whatever identifies the sample's context class; here one class.
/// let store = cache.tables_for(&p.facts, 0);
/// assert!(solver.solve_tabled_in(&q, store, &mut stats).unwrap().is_some());
/// let store = cache.tables_for(&p.facts, 0); // warm: same tables back
/// assert!(!store.is_empty());
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CrossContextCache {
    /// context fingerprint → (instance id, generation, tables).
    entries: HashMap<u64, (u64, u64, TableStore)>,
    stats: CacheStats,
    /// Tables dropped *selectively* by [`maintain`](Self::maintain)
    /// (retraction footprints), as opposed to wholesale entry clears.
    selective_invalidations: u64,
    /// Tables reopened and re-saturated in place by `maintain`.
    tables_maintained: u64,
}

impl CrossContextCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of context classes with a live table store.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no class has been seen yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime hit/miss/invalidation counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Emit the lifetime counters (plus the live class count) into a
    /// [`MetricsSink`](qpl_obs::MetricsSink) under
    /// `engine.cross_context_cache.*`. Hit/miss splits are
    /// arrival-order-dependent under the parallel harness (see the
    /// module header), so snapshots comparing them should come from
    /// serial runs.
    pub fn emit_to(&self, sink: &mut dyn qpl_obs::MetricsSink) {
        sink.counter(qpl_obs::names::engine::CROSS_CONTEXT_CACHE_HITS, self.stats.hits);
        sink.counter("engine.cross_context_cache.misses", self.stats.misses);
        sink.counter("engine.cross_context_cache.invalidations", self.stats.invalidations);
        sink.counter("engine.cross_context_cache.classes", self.entries.len() as u64);
        sink.counter(
            "engine.cross_context_cache.selective_invalidations",
            self.selective_invalidations,
        );
        sink.counter("engine.cross_context_cache.tables_maintained", self.tables_maintained);
    }

    /// Tables dropped selectively by [`maintain`](Self::maintain).
    pub fn selective_invalidations(&self) -> u64 {
        self.selective_invalidations
    }

    /// Tables incrementally re-saturated by [`maintain`](Self::maintain).
    pub fn tables_maintained(&self) -> u64 {
        self.tables_maintained
    }

    /// Drops every entry (stats survive).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The table store for the context class `context_fp` (as computed by
    /// [`context_fingerprint`]), valid for `db`'s current state. A store
    /// filled under an older generation — or under a *different database
    /// instance* — is cleared before being returned; a fresh one is
    /// created on first sight of the class.
    ///
    /// Entry validity is `(instance id, generation)`, so interleaving
    /// calls with several `Database` instances is safe (each switch
    /// invalidates, never aliases). To keep entries warm across deltas
    /// instead of clearing, apply the deltas and call
    /// [`maintain`](Self::maintain) before the next lookup.
    pub fn tables_for(&mut self, db: &Database, context_fp: u64) -> &mut TableStore {
        let validity = (db.instance_id(), db.generation());
        if let Some((stored_inst, stored_gen, store)) = self.entries.get_mut(&context_fp) {
            if (*stored_inst, *stored_gen) == validity {
                self.stats.hits += 1;
            } else {
                store.clear();
                (*stored_inst, *stored_gen) = validity;
                self.stats.invalidations += 1;
            }
        } else {
            self.entries.insert(context_fp, (validity.0, validity.1, TableStore::new()));
            self.stats.misses += 1;
        }
        &mut self.entries.get_mut(&context_fp).expect("entry just ensured").2
    }

    /// Incrementally repairs every live entry after database deltas, so
    /// the next [`tables_for`](Self::tables_for) hits warm instead of
    /// clearing. `db` must already be post-delta; `inserted` /
    /// `retracted` name the predicates whose fact sets changed.
    ///
    /// Per entry this runs [`TopDown::maintain_tables`]: tables whose
    /// reachability footprint misses the delta are untouched; affected
    /// tables are re-saturated semi-naively (insert-only) or dropped
    /// (retractions), counted in
    /// [`selective_invalidations`](Self::selective_invalidations).
    /// Entries are only repaired if their stamp proves they were valid
    /// immediately before this batch: `pre_generation` is the database
    /// generation *before* the batch was applied (capture it with
    /// [`Database::generation`] before mutating). Entries stamped by a
    /// different instance or an older generation missed some earlier
    /// change, cannot be repaired by this batch's predicate list alone,
    /// and are left for `tables_for`'s wholesale invalidation — correct,
    /// just cold.
    ///
    /// # Errors
    /// Propagates [`DatalogError`] from re-saturation (depth backstop).
    pub fn maintain(
        &mut self,
        db: &Database,
        rules: &RuleBase,
        pre_generation: u64,
        inserted: &[Symbol],
        retracted: &[Symbol],
        stats: &mut RetrievalStats,
    ) -> Result<MaintainReport, DatalogError> {
        let solver = TopDown::new(rules, db);
        let mut total = MaintainReport::default();
        for (stored_inst, stored_gen, store) in self.entries.values_mut() {
            if *stored_inst != db.instance_id() || *stored_gen != pre_generation {
                continue;
            }
            let report = solver.maintain_tables(store, inserted, retracted, stats)?;
            *stored_gen = db.generation();
            total.dropped += report.dropped;
            total.reopened += report.reopened;
            total.kept += report.kept;
            total.answers_added += report.answers_added;
        }
        self.selective_invalidations += total.dropped as u64;
        self.tables_maintained += total.reopened as u64;
        Ok(total)
    }
}

/// A memo valid for one ⟨database instance, generation, strategy
/// fingerprint⟩ window at a time: the validity stamp and invalidation
/// count shared by [`RunCache`] (keyed by bound constants) and
/// `qpl-serve`'s per-shard answer memo (keyed by query text, holding
/// rendered reply fragments).
///
/// Revalidating against a new window drops every entry and counts one
/// invalidation; lookups count hits and misses.
#[derive(Debug, Clone)]
pub struct Memo<K, V> {
    /// `(database instance, scoped generation, strategy fingerprint)` the
    /// map is valid for; `None` until the first revalidation. The
    /// generation slot holds the *global* generation under
    /// [`revalidate`](Self::revalidate) and the footprint-scoped
    /// generation under [`revalidate_scoped`](Self::revalidate_scoped);
    /// use one mode consistently per memo.
    validity: Option<(u64, u64, u64)>,
    map: HashMap<K, V>,
    stats: CacheStats,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self { validity: None, map: HashMap::new(), stats: CacheStats::default() }
    }
}

impl<K: Hash + Eq, V> Memo<K, V> {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifetime hit/miss/invalidation counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of entries currently valid.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no entry is currently valid.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry if the database (instance or generation) or
    /// strategy changed since they were recorded. Any delta invalidates —
    /// for footprint-selective survival use
    /// [`revalidate_scoped`](Self::revalidate_scoped).
    pub fn revalidate(&mut self, db: &Database, strategy_fp: u64) {
        self.revalidate_key((db.instance_id(), db.generation(), strategy_fp));
    }

    /// Footprint-scoped revalidation: drops every entry only when the
    /// database instance, the strategy, or a *footprint predicate*
    /// changed. Deltas on predicates the strategy's compiled graph never
    /// retrieves leave the memo warm.
    pub fn revalidate_scoped(
        &mut self,
        db: &Database,
        footprint: &DependencyFootprint,
        strategy_fp: u64,
    ) {
        self.revalidate_key((db.instance_id(), footprint.generation(db), strategy_fp));
    }

    fn revalidate_key(&mut self, key: (u64, u64, u64)) {
        if self.validity != Some(key) {
            if !self.map.is_empty() {
                self.map.clear();
                self.stats.invalidations += 1;
            }
            self.validity = Some(key);
        }
    }

    /// The entry under `key`, if any. Revalidate first.
    pub fn get<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        let found = self.map.get(key);
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        found
    }

    /// Records an entry under the current validity window.
    pub fn insert(&mut self, key: K, value: V) {
        self.map.insert(key, value);
    }

    /// Drops every entry without moving the validity window or counting
    /// an invalidation (the entries were still valid: a capacity
    /// eviction, not staleness). Returns how many were dropped.
    pub fn clear(&mut self) -> usize {
        let dropped = self.map.len();
        self.map.clear();
        dropped
    }
}

/// Whole-run memoization for a fixed-strategy query processor: maps the
/// query's bound constants to its `(answer, cost)` pair, valid for one
/// ⟨database generation, strategy⟩ pair at a time (a [`Memo`]).
///
/// Used by `QueryProcessor::run_cost_cached`; see there for the wiring.
#[derive(Debug, Clone, Default)]
pub struct RunCache(Memo<Vec<Symbol>, (QueryAnswer, f64)>);

impl RunCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifetime hit/miss/invalidation counters.
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }

    /// Number of memoized runs currently valid.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no run is currently memoized.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// [`Memo::revalidate`]: any delta invalidates.
    pub fn revalidate(&mut self, db: &Database, strategy_fp: u64) {
        self.0.revalidate(db, strategy_fp);
    }

    /// [`Memo::revalidate_scoped`]: the selective-invalidation path used
    /// by `QueryProcessor::run_cost_cached`.
    pub fn revalidate_scoped(
        &mut self,
        db: &Database,
        footprint: &DependencyFootprint,
        strategy_fp: u64,
    ) {
        self.0.revalidate_scoped(db, footprint, strategy_fp);
    }

    /// The memoized run for a query with these bound constants, if any.
    /// Call [`revalidate`](Self::revalidate) first.
    pub fn get(&mut self, key: &[Symbol]) -> Option<&(QueryAnswer, f64)> {
        self.0.get(key)
    }

    /// Records a run under the current validity window.
    pub fn insert(&mut self, key: Vec<Symbol>, answer: QueryAnswer, cost: f64) {
        self.0.insert(key, (answer, cost));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpl_datalog::parser::{parse_program, parse_query};
    use qpl_datalog::topdown::{RetrievalStats, TopDown};
    use qpl_datalog::{Fact, SymbolTable};
    use qpl_graph::context::Context;
    use qpl_graph::graph::GraphBuilder;
    use qpl_graph::ArcId;

    fn small_graph() -> qpl_graph::graph::InferenceGraph {
        let mut b = GraphBuilder::new("q(κ)");
        let root = b.root();
        let (_, n1) = b.reduction(root, "R1", 1.0, "p1(κ)");
        b.retrieval(n1, "D1", 1.0);
        let (_, n2) = b.reduction(root, "R2", 1.0, "p2(κ)");
        b.retrieval(n2, "D2", 1.0);
        b.finish().unwrap()
    }

    #[test]
    fn context_fingerprint_separates_classes() {
        let g = small_graph();
        let open = Context::all_open(&g);
        let b0 = Context::with_blocked(&g, &[ArcId(0)]);
        let b1 = Context::with_blocked(&g, &[ArcId(1)]);
        let b01 = Context::with_blocked(&g, &[ArcId(0), ArcId(1)]);
        let fps = [&open, &b0, &b1, &b01].map(context_fingerprint);
        for i in 0..fps.len() {
            for j in 0..i {
                assert_ne!(fps[i], fps[j], "classes {i} and {j} collide");
            }
        }
        // Deterministic: same class, same fingerprint.
        assert_eq!(context_fingerprint(&b0), context_fingerprint(&b0.clone()));
    }

    #[test]
    fn tables_survive_within_generation_and_die_across() {
        let mut t = SymbolTable::new();
        let p = parse_program(
            "path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z).\n\
             edge(a, b). edge(b, c).",
            &mut t,
        )
        .unwrap();
        let mut db = p.facts.clone();
        let solver_src = p.rules;
        let q = parse_query("path(a, c)", &mut t).unwrap();
        let mut cache = CrossContextCache::new();
        let fp = 7u64;

        // Fill under generation g0.
        {
            let solver = TopDown::new(&solver_src, &db);
            let mut stats = RetrievalStats::default();
            let store = cache.tables_for(&db, fp);
            assert!(solver.solve_tabled_in(&q, store, &mut stats).unwrap().is_some());
            assert!(stats.table_misses > 0);
        }
        assert_eq!(cache.stats().misses, 1);

        // Same generation: warm tables, zero database work.
        {
            let solver = TopDown::new(&solver_src, &db);
            let mut stats = RetrievalStats::default();
            let store = cache.tables_for(&db, fp);
            assert!(solver.solve_tabled_in(&q, store, &mut stats).unwrap().is_some());
            assert_eq!(stats.retrievals, 0);
            assert_eq!(stats.table_misses, 0);
        }
        assert_eq!(cache.stats().hits, 1);

        // Mutate the database: the entry must be invalidated, and the
        // new fact must be visible (a stale table would hide edge(c,d)).
        let edge = t.lookup("edge").unwrap();
        let (c, d) = (t.lookup("c").unwrap(), t.intern("d"));
        db.insert(Fact::new(edge, vec![c, d])).unwrap();
        {
            let solver = TopDown::new(&solver_src, &db);
            let mut stats = RetrievalStats::default();
            let q2 = parse_query("path(a, d)", &mut t).unwrap();
            let store = cache.tables_for(&db, fp);
            assert!(solver.solve_tabled_in(&q2, store, &mut stats).unwrap().is_some());
            assert!(stats.table_misses > 0, "tables rebuilt after invalidation");
        }
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn distinct_fingerprints_get_distinct_stores() {
        let mut t = SymbolTable::new();
        let p = parse_program("p(a).", &mut t).unwrap();
        let mut cache = CrossContextCache::new();
        cache.tables_for(&p.facts, 1);
        cache.tables_for(&p.facts, 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn strategy_fingerprint_is_stable_and_order_sensitive() {
        let g = small_graph();
        let strategies = qpl_graph::strategy::enumerate_all(&g, 100).unwrap();
        assert!(strategies.len() > 1);
        for (i, a) in strategies.iter().enumerate() {
            // Clones carry the cached value; recomputation agrees.
            assert_eq!(strategy_fingerprint(a), strategy_fingerprint(&a.clone()));
            for b in &strategies[..i] {
                assert_ne!(
                    strategy_fingerprint(a),
                    strategy_fingerprint(b),
                    "distinct arc orders must not collide here"
                );
            }
        }
    }

    #[test]
    fn run_cache_invalidates_on_strategy_change() {
        let mut t = SymbolTable::new();
        let (p, a) = (t.intern("p"), t.intern("a"));
        let mut db = Database::new();
        let mut rc = RunCache::new();
        let dummy = QueryAnswer::No;
        rc.revalidate(&db, 111);
        assert!(rc.get(&[]).is_none());
        rc.insert(vec![], dummy.clone(), 2.0);
        rc.revalidate(&db, 111);
        assert!(rc.get(&[]).is_some(), "same window: still valid");
        rc.revalidate(&db, 222); // strategy swapped
        assert!(rc.get(&[]).is_none(), "strategy change dropped the memo");
        rc.insert(vec![], dummy, 3.0);
        db.insert(Fact::new(p, vec![a])).unwrap(); // database mutated
        rc.revalidate(&db, 222);
        assert!(rc.get(&[]).is_none(), "generation change dropped the memo");
        assert_eq!(rc.stats().invalidations, 2);
    }

    #[test]
    fn run_cache_scoped_revalidation_survives_disjoint_deltas() {
        let mut t = SymbolTable::new();
        let (p, noise) = (t.intern("p"), t.intern("noise"));
        let (a, b) = (t.intern("a"), t.intern("b"));
        let mut db = Database::new();
        db.insert(Fact::new(p, vec![a])).unwrap();
        let fp = DependencyFootprint::from_predicates([p]);
        let mut rc = RunCache::new();
        rc.revalidate_scoped(&db, &fp, 1);
        rc.insert(vec![a], QueryAnswer::No, 1.0);
        // Insert and retract outside the footprint: memo stays warm.
        db.insert(Fact::new(noise, vec![b])).unwrap();
        rc.revalidate_scoped(&db, &fp, 1);
        assert!(rc.get(&[a]).is_some(), "noise insert must not invalidate");
        db.retract(Fact::new(noise, vec![b])).unwrap();
        rc.revalidate_scoped(&db, &fp, 1);
        assert!(rc.get(&[a]).is_some(), "noise retract must not invalidate");
        assert_eq!(rc.stats().invalidations, 0);
        // A footprint delta drops the memo.
        db.insert(Fact::new(p, vec![b])).unwrap();
        rc.revalidate_scoped(&db, &fp, 1);
        assert!(rc.get(&[a]).is_none());
        assert_eq!(rc.stats().invalidations, 1);
    }

    #[test]
    fn caches_never_alias_across_database_instances() {
        // Regression for the cross-instance aliasing bug: two databases
        // at identical generations must never share cache entries.
        let mut t = SymbolTable::new();
        let p = parse_program("path(X, Y) :- edge(X, Y).", &mut t).unwrap();
        let edge = t.lookup("edge").unwrap();
        let (a, b, c) = (t.intern("a"), t.intern("b"), t.intern("c"));
        let mut db1 = Database::new();
        db1.insert(Fact::new(edge, vec![a, b])).unwrap();
        let mut db2 = Database::new();
        db2.insert(Fact::new(edge, vec![a, c])).unwrap();
        assert_eq!(db1.generation(), db2.generation(), "equal generations by construction");

        // CrossContextCache: the same fingerprint probed with db2 must
        // not reuse db1's tables (a stale hit would claim path(a, b)
        // holds in db2).
        let q_ab = parse_query("path(a, b)", &mut t).unwrap();
        let mut cache = CrossContextCache::new();
        {
            let solver = TopDown::new(&p.rules, &db1);
            let mut stats = RetrievalStats::default();
            let store = cache.tables_for(&db1, 7);
            assert!(solver.solve_tabled_in(&q_ab, store, &mut stats).unwrap().is_some());
        }
        {
            let solver = TopDown::new(&p.rules, &db2);
            let mut stats = RetrievalStats::default();
            let store = cache.tables_for(&db2, 7);
            assert!(
                solver.solve_tabled_in(&q_ab, store, &mut stats).unwrap().is_none(),
                "db2 must not see db1's tabled answers"
            );
        }
        assert_eq!(cache.stats().invalidations, 1);

        // RunCache: same instance-id separation.
        let mut rc = RunCache::new();
        rc.revalidate(&db1, 9);
        rc.insert(vec![a], QueryAnswer::No, 1.0);
        rc.revalidate(&db2, 9);
        assert!(rc.get(&[a]).is_none(), "db2 must not see db1's memo");
        // And switching back does not resurrect the old entries either.
        rc.revalidate(&db1, 9);
        assert!(rc.get(&[a]).is_none());
    }

    #[test]
    fn maintain_keeps_entries_warm_across_deltas() {
        let mut t = SymbolTable::new();
        let p = parse_program(
            "path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z).\n\
             edge(a, b). edge(b, c).",
            &mut t,
        )
        .unwrap();
        let mut db = p.facts.clone();
        // Free second argument: the answer table accumulates tuples, so
        // semi-naive re-saturation visibly *adds* answers to it.
        let q = parse_query("path(a, X)", &mut t).unwrap();
        let mut cache = CrossContextCache::new();
        let mut stats = RetrievalStats::default();
        {
            let solver = TopDown::new(&p.rules, &db);
            let store = cache.tables_for(&db, 7);
            assert!(solver.solve_tabled_in(&q, store, &mut stats).unwrap().is_some());
        }

        // Delta on a predicate the path family never reaches: everything
        // kept, next lookup warm with zero database work.
        let noise = t.intern("noise");
        let a = t.lookup("a").unwrap();
        let pre = db.generation();
        let d = db.insert(Fact::new(noise, vec![a])).unwrap();
        let report = cache.maintain(&db, &p.rules, pre, &[d.predicate], &[], &mut stats).unwrap();
        assert_eq!(report.dropped + report.reopened, 0);
        assert!(report.kept > 0);
        {
            let solver = TopDown::new(&p.rules, &db);
            let mut warm = RetrievalStats::default();
            let store = cache.tables_for(&db, 7);
            assert!(solver.solve_tabled_in(&q, store, &mut warm).unwrap().is_some());
            assert_eq!(warm.retrievals, 0, "maintained entry is warm");
            assert_eq!(warm.table_misses, 0);
        }
        assert_eq!(cache.stats().invalidations, 0);

        // Insert-only edge delta: re-saturated in place, new answer
        // visible without a wholesale rebuild.
        let edge = t.lookup("edge").unwrap();
        let (c, dd) = (t.lookup("c").unwrap(), t.intern("d"));
        let pre = db.generation();
        let delta = db.insert(Fact::new(edge, vec![c, dd])).unwrap();
        let report =
            cache.maintain(&db, &p.rules, pre, &[delta.predicate], &[], &mut stats).unwrap();
        assert!(report.reopened > 0);
        assert!(report.answers_added > 0);
        {
            let solver = TopDown::new(&p.rules, &db);
            let q2 = parse_query("path(a, d)", &mut t).unwrap();
            let store = cache.tables_for(&db, 7);
            let mut s2 = RetrievalStats::default();
            assert!(solver.solve_tabled_in(&q2, store, &mut s2).unwrap().is_some());
        }
        assert!(cache.tables_maintained() > 0);
        assert_eq!(cache.stats().invalidations, 0, "never went cold");

        // Retraction: affected tables dropped selectively and counted.
        let b = t.lookup("b").unwrap();
        let pre = db.generation();
        let delta = db.retract(Fact::new(edge, vec![a, b])).unwrap();
        let report =
            cache.maintain(&db, &p.rules, pre, &[], &[delta.predicate], &mut stats).unwrap();
        assert!(report.dropped > 0);
        assert!(cache.selective_invalidations() > 0);
        {
            let solver = TopDown::new(&p.rules, &db);
            let store = cache.tables_for(&db, 7);
            let mut s3 = RetrievalStats::default();
            assert!(
                solver.solve_tabled_in(&q, store, &mut s3).unwrap().is_none(),
                "path(a, X) gone after retracting edge(a, b)"
            );
        }
    }
}
