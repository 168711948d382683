//! Top-down SLD resolution with satisficing semantics.
//!
//! This is the *reference semantics* for the paper's query processor: a
//! query is reduced through rules to attempted retrievals, depth-first,
//! returning as soon as one derivation succeeds ("satisficing search",
//! \[SK75\]). The strategy-parameterized engine in `qpl-engine` must agree
//! with this solver on the yes/no answer for every context — only the
//! order of exploration (and hence the cost) differs.
//!
//! Two evaluation modes are provided:
//!
//! * **Plain SLD** ([`TopDown::solve`]) re-proves every subgoal from
//!   scratch. A depth bound guards against recursive rule bases;
//!   exceeding it is an error rather than a silent wrong answer.
//! * **Tabled SLD** ([`TopDown::solve_tabled`]) memoizes subgoal answer
//!   sets in a [`TableStore`] keyed by adorned call patterns and runs a
//!   leader-based fixpoint over recursive call groups, so recursion
//!   terminates by saturation rather than by hitting the depth bound
//!   (which is kept only as a backstop against pathological nesting).
//!   Passing a long-lived store via [`TopDown::solve_tabled_in`] reuses
//!   answers across queries against the same database.

use crate::database::Database;
use crate::error::DatalogError;
use crate::rule::RuleBase;
use crate::symbol::Symbol;
use crate::table::{CallKey, TableId, TableStore};
use crate::term::{Atom, Term, Var};
use crate::unify::{rename_apart, unify_atoms, Substitution};
use std::collections::{HashMap, HashSet};

/// Statistics from one top-down run (plain or tabled).
///
/// The table counters stay zero for plain SLD runs; tabled runs fill
/// them in so experiments can report measured memoization honestly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrievalStats {
    /// Attempted database retrievals (ground membership probes plus
    /// pattern matches).
    pub retrievals: u64,
    /// Rule reductions applied.
    pub reductions: u64,
    /// Subgoal calls answered from an existing table.
    pub table_hits: u64,
    /// Subgoal calls that had to build a fresh table.
    pub table_misses: u64,
    /// Answer tuples consumed from already-complete tables — proof work
    /// the memo saved outright.
    pub tabled_answers_reused: u64,
}

impl RetrievalStats {
    /// Emit the counters into a [`MetricsSink`](qpl_obs::MetricsSink)
    /// under the `datalog.*` namespace — the sink adapter that lets
    /// observability snapshots report retrieval work without the solver
    /// hot loops ever touching a sink.
    pub fn emit_to(&self, sink: &mut dyn qpl_obs::MetricsSink) {
        sink.counter(qpl_obs::names::datalog::RETRIEVALS, self.retrievals);
        sink.counter("datalog.reductions", self.reductions);
        sink.counter(qpl_obs::names::datalog::TABLE_HITS, self.table_hits);
        sink.counter("datalog.table_misses", self.table_misses);
        sink.counter("datalog.tabled_answers_reused", self.tabled_answers_reused);
    }
}

/// Former name of [`RetrievalStats`], kept for source compatibility.
pub type SolveStats = RetrievalStats;

/// What a [`TopDown::maintain_tables`] pass did to a [`TableStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainReport {
    /// Tables dropped (retraction made their answer sets non-monotone).
    pub dropped: usize,
    /// Tables reopened and re-saturated in place (insert-only delta).
    pub reopened: usize,
    /// Tables untouched — their footprints miss the delta, so their
    /// answers stayed warm.
    pub kept: usize,
    /// New answer tuples appended during re-saturation.
    pub answers_added: usize,
}

/// A satisficing SLD solver over a rule base and database.
#[derive(Debug, Clone)]
pub struct TopDown<'a> {
    rules: &'a RuleBase,
    db: &'a Database,
    depth_limit: usize,
}

impl<'a> TopDown<'a> {
    /// Default resolution depth bound.
    pub const DEFAULT_DEPTH: usize = 256;

    /// Creates a solver with the default depth bound.
    pub fn new(rules: &'a RuleBase, db: &'a Database) -> Self {
        Self { rules, db, depth_limit: Self::DEFAULT_DEPTH }
    }

    /// Overrides the depth bound.
    pub fn with_depth_limit(mut self, limit: usize) -> Self {
        self.depth_limit = limit;
        self
    }

    /// Finds the first solution to `query`, if any, returning the
    /// satisfying substitution.
    ///
    /// # Errors
    /// [`DatalogError::DepthExceeded`] if resolution exceeds the bound.
    pub fn solve(&self, query: &Atom) -> Result<Option<Substitution>, DatalogError> {
        let mut stats = RetrievalStats::default();
        self.solve_with_stats(query, &mut stats)
    }

    /// Like [`solve`](Self::solve) but also accumulates work statistics.
    pub fn solve_with_stats(
        &self,
        query: &Atom,
        stats: &mut RetrievalStats,
    ) -> Result<Option<Substitution>, DatalogError> {
        let goals = vec![query.clone()];
        self.prove(&goals, Substitution::new(), 0, query.variables().len() as u32 + 64, stats)
    }

    /// Whether any derivation of `query` exists.
    pub fn provable(&self, query: &Atom) -> Result<bool, DatalogError> {
        Ok(self.solve(query)?.is_some())
    }

    /// Tabled variant of [`solve`](Self::solve): memoizes subgoal answer
    /// sets, terminating on recursive rule bases by fixpoint saturation
    /// instead of the depth bound. Uses a throwaway [`TableStore`]; use
    /// [`solve_tabled_in`](Self::solve_tabled_in) to reuse tables across
    /// queries.
    ///
    /// # Errors
    /// [`DatalogError::DepthExceeded`] only if *distinct* subgoal calls
    /// nest deeper than the bound (a backstop — repeated calls hit their
    /// table and consume no depth).
    pub fn solve_tabled(&self, query: &Atom) -> Result<Option<Substitution>, DatalogError> {
        let mut store = TableStore::new();
        let mut stats = RetrievalStats::default();
        self.solve_tabled_in(query, &mut store, &mut stats)
    }

    /// Tabled solve against a caller-owned [`TableStore`], accumulating
    /// statistics. The store must have been built against the *same*
    /// rule base and database (callers are responsible for clearing it
    /// when the database changes; `qpl-engine`'s cross-context cache
    /// automates that via the database generation counter).
    pub fn solve_tabled_in(
        &self,
        query: &Atom,
        store: &mut TableStore,
        stats: &mut RetrievalStats,
    ) -> Result<Option<Substitution>, DatalogError> {
        let before = store.stats();
        let result = self.tabled_answer(query, store, stats);
        let after = store.stats();
        stats.table_hits += after.hits - before.hits;
        stats.table_misses += after.misses - before.misses;
        stats.tabled_answers_reused += after.answers_reused - before.answers_reused;
        result
    }

    /// Whether any derivation of `query` exists, via tabled evaluation.
    pub fn provable_tabled(&self, query: &Atom) -> Result<bool, DatalogError> {
        Ok(self.solve_tabled(query)?.is_some())
    }

    /// Incrementally maintains `store` after a batch of database deltas,
    /// instead of clearing it wholesale. `inserted` / `retracted` name
    /// the predicates touched by the batch (duplicates are fine); `self`
    /// must already see the *post*-delta database.
    ///
    /// A table is *affected* iff some changed predicate is reachable from
    /// its call's predicate through rule bodies ([`RuleBase::reachable_predicates`]);
    /// reachability is closed under consumption, so an unaffected table's
    /// answers — and its `complete` flag — remain valid verbatim and are
    /// left untouched (they stay warm).
    ///
    /// * Insert-only deltas are monotone: affected tables are
    ///   [`reopen`](TableStore::reopen)ed and re-saturated in one shared
    ///   fixpoint group. Existing answers survive (the dedup set filters
    ///   re-derivations); only genuinely new tuples append. Note the
    ///   *order* of an incrementally grown answer set may differ from a
    ///   from-scratch rebuild (old answers keep their positions); the
    ///   set itself is identical.
    /// * Any retraction makes affected answer sets non-monotone, so those
    ///   tables are dropped and rebuilt lazily on next call — still
    ///   selective: unaffected tables survive.
    ///
    /// # Errors
    /// [`DatalogError::DepthExceeded`] if re-saturation nests distinct
    /// calls past the depth bound (same backstop as a fresh solve).
    pub fn maintain_tables(
        &self,
        store: &mut TableStore,
        inserted: &[Symbol],
        retracted: &[Symbol],
        stats: &mut RetrievalStats,
    ) -> Result<MaintainReport, DatalogError> {
        let changed: HashSet<Symbol> = inserted.iter().chain(retracted.iter()).copied().collect();
        let total = store.len();
        if changed.is_empty() || total == 0 {
            return Ok(MaintainReport { kept: total, ..MaintainReport::default() });
        }
        // One reachability closure per distinct table-root predicate.
        let mut memo: HashMap<Symbol, bool> = HashMap::new();
        let mut affected: Vec<TableId> = Vec::new();
        for (id, key, _) in store.iter_keys() {
            let hit = *memo.entry(key.predicate).or_insert_with(|| {
                self.rules.reachable_predicates(key.predicate).iter().any(|q| changed.contains(q))
            });
            if hit {
                affected.push(id);
            }
        }
        if affected.is_empty() {
            return Ok(MaintainReport { kept: total, ..MaintainReport::default() });
        }
        if !retracted.is_empty() {
            let doomed: HashSet<Symbol> =
                memo.iter().filter(|&(_, &a)| a).map(|(&p, _)| p).collect();
            let dropped = store.retain_tables(|k| !doomed.contains(&k.predicate));
            return Ok(MaintainReport { dropped, kept: store.len(), ..MaintainReport::default() });
        }
        // Insert-only: reopen and re-saturate the affected group. New
        // tables created mid-expansion join the group (and complete with
        // it), exactly as under a leader's fixpoint.
        for &t in &affected {
            store.reopen(t);
        }
        let reopened = affected.len();
        let answers_before = store.total_answers();
        let mut eval = TabledEval {
            rules: self.rules,
            db: self.db,
            depth_limit: self.depth_limit,
            store,
            stats,
            group: affected,
            in_fixpoint: true,
            changed: false,
        };
        loop {
            eval.changed = false;
            let mut i = 0;
            while i < eval.group.len() {
                let member = eval.group[i];
                eval.expand(member, 0)?;
                i += 1;
            }
            if !eval.changed {
                break;
            }
        }
        let group = std::mem::take(&mut eval.group);
        for &member in &group {
            eval.store.set_complete(member);
        }
        Ok(MaintainReport {
            dropped: 0,
            reopened,
            kept: total - reopened,
            answers_added: store.total_answers() - answers_before,
        })
    }

    fn tabled_answer(
        &self,
        query: &Atom,
        store: &mut TableStore,
        stats: &mut RetrievalStats,
    ) -> Result<Option<Substitution>, DatalogError> {
        let empty = Substitution::new();
        if !self.rules.has_rules_for(query.predicate) {
            // Purely extensional query: a single retrieval answers it.
            stats.retrievals += 1;
            return Ok(self.db.matches(query, &empty).into_iter().next());
        }
        let (key, vars) = CallKey::of(query, &empty);
        let mut eval = TabledEval {
            rules: self.rules,
            db: self.db,
            depth_limit: self.depth_limit,
            store,
            stats,
            group: Vec::new(),
            in_fixpoint: false,
            changed: false,
        };
        let (t, was_hit) = eval.ensure(&key, 0)?;
        if store.answer_count(t) == 0 {
            return Ok(None);
        }
        if was_hit {
            store.note_reuse(1);
        }
        let answer = store.answer(t, 0);
        let mut sub = Substitution::new();
        for (i, &v) in vars.iter().enumerate() {
            sub.bind(v, Term::Const(answer[i]));
        }
        Ok(Some(sub))
    }

    fn prove(
        &self,
        goals: &[Atom],
        sub: Substitution,
        depth: usize,
        var_offset: u32,
        stats: &mut SolveStats,
    ) -> Result<Option<Substitution>, DatalogError> {
        if depth > self.depth_limit {
            return Err(DatalogError::DepthExceeded(self.depth_limit));
        }
        let Some((goal, rest)) = goals.split_first() else {
            return Ok(Some(sub));
        };
        let resolved = sub.apply(goal);

        // 1. Try direct retrieval from the database.
        stats.retrievals += 1;
        for ext in self.db.matches(&resolved, &sub) {
            if let Some(found) = self.prove(rest, ext, depth + 1, var_offset, stats)? {
                return Ok(Some(found));
            }
        }

        // 2. Try each rule whose head unifies with the goal.
        for (_, rule) in self.rules.rules_for(resolved.predicate) {
            let head = rename_apart(&rule.head, var_offset);
            let Some(ext) = unify_atoms(&resolved, &head, &sub) else {
                continue;
            };
            stats.reductions += 1;
            let mut new_goals: Vec<Atom> =
                rule.body.iter().map(|b| rename_apart(b, var_offset)).collect();
            new_goals.extend_from_slice(rest);
            let next_offset = var_offset + rule.var_span();
            if let Some(found) = self.prove(&new_goals, ext, depth + 1, next_offset, stats)? {
                return Ok(Some(found));
            }
        }
        Ok(None)
    }
}

/// The tabled evaluation engine: SLG-style producer/consumer resolution
/// with a leader-based fixpoint for recursive call groups.
///
/// Every intensional subgoal is canonicalized to a [`CallKey`] and
/// evaluated into its table exactly once per saturation round. The first
/// in-progress call on the stack becomes the *leader*: it repeatedly
/// re-expands every table created beneath it (the group — a superset of
/// the recursive component, which is conservative but correct) until no
/// round adds an answer, then marks the whole group complete. Later
/// calls on any of those patterns are pure table reads.
///
/// Termination: the active domain is finite (no function symbols), so
/// there are finitely many call keys and finitely many answer tuples per
/// key; every fixpoint round either adds an answer or is the last. The
/// depth bound only limits how deep *distinct* call creations nest — a
/// backstop, not the termination mechanism.
struct TabledEval<'a, 'b> {
    rules: &'a RuleBase,
    db: &'a Database,
    depth_limit: usize,
    store: &'b mut TableStore,
    stats: &'b mut RetrievalStats,
    /// Tables created under the current leader, in creation order.
    group: Vec<TableId>,
    in_fixpoint: bool,
    /// Whether the current fixpoint round derived a new answer.
    changed: bool,
}

impl TabledEval<'_, '_> {
    /// Returns the table for `key`, evaluating it first if absent. The
    /// flag is `true` when the table already existed (a hit).
    fn ensure(&mut self, key: &CallKey, depth: usize) -> Result<(TableId, bool), DatalogError> {
        if let Some(t) = self.store.lookup(key) {
            return Ok((t, true));
        }
        if depth > self.depth_limit {
            return Err(DatalogError::DepthExceeded(self.depth_limit));
        }
        let t = self.store.create(key.clone());
        self.group.push(t);
        if self.in_fixpoint {
            // A leader above us is iterating: expand once now so the
            // caller sees first-round answers; the leader's loop will
            // re-expand us until the whole group saturates.
            self.expand(t, depth)?;
        } else {
            self.in_fixpoint = true;
            loop {
                self.changed = false;
                let mut i = 0;
                while i < self.group.len() {
                    let member = self.group[i];
                    self.expand(member, depth)?;
                    i += 1;
                }
                if !self.changed {
                    break;
                }
            }
            for &member in &self.group {
                self.store.set_complete(member);
            }
            self.group.clear();
            self.in_fixpoint = false;
        }
        Ok((t, false))
    }

    /// One expansion pass over `t`'s defining clauses: re-derives every
    /// answer currently reachable from the table snapshots it consumes.
    fn expand(&mut self, t: TableId, depth: usize) -> Result<(), DatalogError> {
        let call = self.store.key(t).to_atom();
        let n_free = u32::try_from(self.store.key(t).free_count()).expect("free count fits u32");
        let empty = Substitution::new();
        // Extensional facts for the called predicate.
        self.stats.retrievals += 1;
        for sub in self.db.matches(&call, &empty) {
            self.add_answer(t, n_free, &sub);
        }
        // Rules: the canonical call uses Var(0..n_free), so renaming rule
        // variables by n_free keeps the two namespaces disjoint.
        for (_, rule) in self.rules.rules_for(call.predicate) {
            let head = rename_apart(&rule.head, n_free);
            let Some(sub) = unify_atoms(&call, &head, &empty) else {
                continue;
            };
            self.stats.reductions += 1;
            let body: Vec<Atom> = rule.body.iter().map(|b| rename_apart(b, n_free)).collect();
            self.solve_body(t, n_free, &body, 0, sub, depth)?;
        }
        Ok(())
    }

    /// Enumerates all solutions of `body[idx..]` under `sub`, adding one
    /// answer to `t` per complete solution. Intensional subgoals consume
    /// a *snapshot* of their table (answers added behind the snapshot are
    /// picked up by the leader's next round); extensional subgoals probe
    /// the database directly.
    fn solve_body(
        &mut self,
        t: TableId,
        n_free: u32,
        body: &[Atom],
        idx: usize,
        sub: Substitution,
        depth: usize,
    ) -> Result<(), DatalogError> {
        let Some(goal) = body.get(idx) else {
            self.add_answer(t, n_free, &sub);
            return Ok(());
        };
        if self.rules.has_rules_for(goal.predicate) {
            let (key, vars) = CallKey::of(goal, &sub);
            let (sub_t, was_hit) = self.ensure(&key, depth + 1)?;
            let n = self.store.answer_count(sub_t);
            if was_hit && self.store.is_complete(sub_t) {
                self.store.note_reuse(n as u64);
            }
            for i in 0..n {
                let mut ext = sub.clone();
                let mut consistent = true;
                for (j, &v) in vars.iter().enumerate() {
                    let c = self.store.answer(sub_t, i)[j];
                    match ext.resolve(Term::Var(v)) {
                        Term::Const(x) if x != c => {
                            consistent = false;
                            break;
                        }
                        Term::Const(_) => {}
                        Term::Var(w) => ext.bind(w, Term::Const(c)),
                    }
                }
                if consistent {
                    self.solve_body(t, n_free, body, idx + 1, ext, depth)?;
                }
            }
        } else {
            self.stats.retrievals += 1;
            for ext in self.db.matches(goal, &sub) {
                self.solve_body(t, n_free, body, idx + 1, ext, depth)?;
            }
        }
        Ok(())
    }

    /// Projects `sub` onto the canonical call variables `Var(0..n_free)`
    /// and records the tuple. Range restriction guarantees every position
    /// is ground by the time a body is fully solved; a non-ground tuple
    /// (unreachable for validated rules) is skipped rather than stored.
    fn add_answer(&mut self, t: TableId, n_free: u32, sub: &Substitution) {
        let mut tuple = Vec::with_capacity(n_free as usize);
        for i in 0..n_free {
            match sub.resolve(Term::Var(Var(i))) {
                Term::Const(c) => tuple.push(c),
                Term::Var(_) => return,
            }
        }
        if self.store.insert_answer(t, tuple.into_boxed_slice()) {
            self.changed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use crate::parser::{parse_program, parse_query};
    use crate::symbol::SymbolTable;

    fn ask(src: &str, query: &str) -> bool {
        let mut t = SymbolTable::new();
        let p = parse_program(src, &mut t).unwrap();
        let q = parse_query(query, &mut t).unwrap();
        TopDown::new(&p.rules, &p.facts).provable(&q).unwrap()
    }

    #[test]
    fn figure1_contexts() {
        let kb = "instructor(X) :- prof(X). instructor(X) :- grad(X).\n\
                  prof(russ). grad(manolis).";
        assert!(ask(kb, "instructor(russ)"));
        assert!(ask(kb, "instructor(manolis)"));
        assert!(!ask(kb, "instructor(fred)"));
    }

    #[test]
    fn direct_fact_retrieval() {
        assert!(ask("p(a).", "p(a)"));
        assert!(!ask("p(a).", "p(b)"));
    }

    #[test]
    fn conjunctive_goal_ordering() {
        let kb = "gp(X, Z) :- parent(X, Y), parent(Y, Z).\n\
                  parent(ann, bob). parent(bob, cal).";
        assert!(ask(kb, "gp(ann, cal)"));
        assert!(!ask(kb, "gp(ann, bob)"));
        assert!(ask(kb, "gp(ann, X)"));
    }

    #[test]
    fn chained_rules() {
        let kb = "a(X) :- b(X). b(X) :- c(X). c(k).";
        assert!(ask(kb, "a(k)"));
        assert!(!ask(kb, "a(j)"));
    }

    #[test]
    fn recursion_hits_depth_bound() {
        let mut t = SymbolTable::new();
        let p = parse_program("p(X) :- p(X). seed(a).", &mut t).unwrap();
        let q = parse_query("p(a)", &mut t).unwrap();
        let err = TopDown::new(&p.rules, &p.facts).with_depth_limit(32).provable(&q);
        assert!(matches!(err, Err(DatalogError::DepthExceeded(32))));
    }

    #[test]
    fn recursive_but_provable_succeeds_before_bound() {
        // Left-recursion avoided: path(X,Y) :- edge(X,Y). path(X,Z) :- edge(X,Y), path(Y,Z).
        let kb = "path(X, Y) :- edge(X, Y).\n\
                  path(X, Z) :- edge(X, Y), path(Y, Z).\n\
                  edge(a, b). edge(b, c).";
        assert!(ask(kb, "path(a, c)"));
    }

    #[test]
    fn solve_returns_bindings() {
        let mut t = SymbolTable::new();
        let p = parse_program("instructor(X) :- prof(X). prof(russ).", &mut t).unwrap();
        let q = parse_query("instructor(W)", &mut t).unwrap();
        let sub = TopDown::new(&p.rules, &p.facts).solve(&q).unwrap().unwrap();
        let bound = sub.apply(&q);
        assert_eq!(bound.display(&t).to_string(), "instructor(russ)");
    }

    #[test]
    fn stats_count_work() {
        let mut t = SymbolTable::new();
        let p = parse_program(
            "instructor(X) :- prof(X). instructor(X) :- grad(X). grad(manolis).",
            &mut t,
        )
        .unwrap();
        let q = parse_query("instructor(manolis)", &mut t).unwrap();
        let mut stats = SolveStats::default();
        let found = TopDown::new(&p.rules, &p.facts).solve_with_stats(&q, &mut stats).unwrap();
        assert!(found.is_some());
        // Must have tried the prof branch (reduction + retrieval) before grad.
        assert!(stats.reductions >= 2);
        assert!(stats.retrievals >= 2);
    }

    fn ask_tabled(src: &str, query: &str) -> bool {
        let mut t = SymbolTable::new();
        let p = parse_program(src, &mut t).unwrap();
        let q = parse_query(query, &mut t).unwrap();
        TopDown::new(&p.rules, &p.facts).provable_tabled(&q).unwrap()
    }

    #[test]
    fn tabled_handles_left_recursion() {
        // Plain SLD loops forever on a left-recursive clause; tabling
        // saturates. path(X,Z) :- path(X,Y), edge(Y,Z).
        let kb = "path(X, Y) :- edge(X, Y).\n\
                  path(X, Z) :- path(X, Y), edge(Y, Z).\n\
                  edge(a, b). edge(b, c). edge(c, d).";
        assert!(ask_tabled(kb, "path(a, d)"));
        assert!(!ask_tabled(kb, "path(d, a)"));
        assert!(ask_tabled(kb, "path(a, X)"));
    }

    #[test]
    fn tabled_handles_right_recursion_on_cycles() {
        let kb = "path(X, Y) :- edge(X, Y).\n\
                  path(X, Z) :- edge(X, Y), path(Y, Z).\n\
                  edge(a, b). edge(b, c). edge(c, a).";
        // Every pair on the cycle is reachable…
        assert!(ask_tabled(kb, "path(a, a)"));
        assert!(ask_tabled(kb, "path(c, b)"));
        // …but nothing reaches a vertex off the cycle.
        assert!(!ask_tabled(kb, "path(a, z)"));
    }

    #[test]
    fn tabled_handles_nonlinear_recursion() {
        // path(X,Z) :- path(X,Y), path(Y,Z): both body goals recursive.
        let kb = "path(X, Y) :- edge(X, Y).\n\
                  path(X, Z) :- path(X, Y), path(Y, Z).\n\
                  edge(a, b). edge(b, c). edge(c, d). edge(d, b).";
        assert!(ask_tabled(kb, "path(a, d)"));
        assert!(ask_tabled(kb, "path(b, b)"));
        assert!(!ask_tabled(kb, "path(c, a)"));
    }

    #[test]
    fn tabled_recursion_does_not_depend_on_depth_bound() {
        // Regression: on this cyclic KB plain SLD exhausts any depth
        // bound; tabled evaluation must answer under the same tiny bound
        // because repeated calls hit their table instead of deepening.
        let kb = "path(X, Y) :- edge(X, Y).\n\
                  path(X, Z) :- edge(X, Y), path(Y, Z).\n\
                  edge(a, b). edge(b, a).";
        let mut t = SymbolTable::new();
        let p = parse_program(kb, &mut t).unwrap();
        let q = parse_query("path(a, z)", &mut t).unwrap();
        let solver = TopDown::new(&p.rules, &p.facts).with_depth_limit(8);
        assert!(matches!(solver.provable(&q), Err(DatalogError::DepthExceeded(8))));
        assert!(!solver.provable_tabled(&q).unwrap());
        let yes = parse_query("path(a, a)", &mut t).unwrap();
        assert!(solver.provable_tabled(&yes).unwrap());
    }

    #[test]
    fn tabled_solve_returns_bindings() {
        let mut t = SymbolTable::new();
        let p = parse_program(
            "path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z).\n\
             edge(a, b). edge(b, c).",
            &mut t,
        )
        .unwrap();
        let q = parse_query("path(a, X)", &mut t).unwrap();
        let sub = TopDown::new(&p.rules, &p.facts).solve_tabled(&q).unwrap().unwrap();
        let bound = sub.apply(&q);
        // First answer in derivation order: the base clause fires first.
        assert_eq!(bound.display(&t).to_string(), "path(a, b)");
    }

    #[test]
    fn tabled_store_reuse_skips_reproof() {
        use crate::table::TableStore;
        let mut t = SymbolTable::new();
        let p = parse_program(
            "path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z).\n\
             edge(a, b). edge(b, c). edge(c, d).",
            &mut t,
        )
        .unwrap();
        let q = parse_query("path(a, d)", &mut t).unwrap();
        let solver = TopDown::new(&p.rules, &p.facts);
        let mut store = TableStore::new();

        let mut first = RetrievalStats::default();
        assert!(solver.solve_tabled_in(&q, &mut store, &mut first).unwrap().is_some());
        // Cold store: every distinct call pattern is a miss (hits can
        // still occur — fixpoint rounds re-read in-progress tables).
        assert!(first.table_misses > 0);
        assert!(first.retrievals > 0);

        let mut second = RetrievalStats::default();
        assert!(solver.solve_tabled_in(&q, &mut store, &mut second).unwrap().is_some());
        assert_eq!(second.table_misses, 0, "everything answered from tables");
        assert_eq!(second.table_hits, 1);
        assert_eq!(second.retrievals, 0, "no database work on a warm store");
        assert_eq!(second.tabled_answers_reused, 1);
    }

    #[test]
    fn tabled_ground_query_answers() {
        // Ground (all-bound) calls produce zero-width answer tuples.
        assert!(ask_tabled("a(X) :- b(X). b(k).", "a(k)"));
        assert!(!ask_tabled("a(X) :- b(X). b(k).", "a(j)"));
    }

    #[test]
    fn tabled_extensional_query_bypasses_tables() {
        let mut t = SymbolTable::new();
        let p = parse_program("p(a).", &mut t).unwrap();
        let q = parse_query("p(X)", &mut t).unwrap();
        let mut store = crate::table::TableStore::new();
        let mut stats = RetrievalStats::default();
        let found =
            TopDown::new(&p.rules, &p.facts).solve_tabled_in(&q, &mut store, &mut stats).unwrap();
        assert!(found.is_some());
        assert!(store.is_empty(), "no table for a purely extensional predicate");
        assert_eq!(stats.retrievals, 1);
    }

    const TWO_FAMILY_KB: &str = "path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z).\n\
         reach(X, Y) :- link(X, Y). reach(X, Z) :- link(X, Y), reach(Y, Z).\n\
         edge(a, b). edge(b, c). link(a, b).";

    #[test]
    fn maintain_reopens_affected_and_keeps_disjoint_tables_warm() {
        use crate::table::TableStore;
        let mut t = SymbolTable::new();
        let p = parse_program(TWO_FAMILY_KB, &mut t).unwrap();
        let qp = parse_query("path(a, X)", &mut t).unwrap();
        let qr = parse_query("reach(a, X)", &mut t).unwrap();
        let mut db = p.facts;
        let mut store = TableStore::new();
        let mut stats = RetrievalStats::default();
        {
            let solver = TopDown::new(&p.rules, &db);
            assert!(solver.solve_tabled_in(&qp, &mut store, &mut stats).unwrap().is_some());
            assert!(solver.solve_tabled_in(&qr, &mut store, &mut stats).unwrap().is_some());
        }
        let tables_before = store.len();
        let edge = t.intern("edge");
        let (c, d) = (t.intern("c"), t.intern("d"));
        let delta = db.insert(crate::term::Fact::new(edge, vec![c, d])).unwrap();
        assert!(delta.changed);
        let solver = TopDown::new(&p.rules, &db);
        let report =
            solver.maintain_tables(&mut store, &[delta.predicate], &[], &mut stats).unwrap();
        assert_eq!(report.dropped, 0);
        assert!(report.reopened >= 1, "the path/edge family re-saturates");
        assert!(report.kept >= 1, "the reach/link family is untouched");
        assert!(report.answers_added >= 1, "path(a, _) now reaches d");
        // Re-saturation may create tables for new subgoals (path(d, _)),
        // but never drops any.
        assert!(store.len() >= tables_before);
        // The maintained table holds the new answer without a re-solve.
        let (key, _) = CallKey::of(&qp, &Substitution::new());
        let tid = store.lookup(&key).expect("path(a, X) table survives");
        let answers: HashSet<Symbol> =
            (0..store.answer_count(tid)).map(|i| store.answer(tid, i)[0]).collect();
        assert!(answers.contains(&d));
        // Unaffected family still answers with zero database work.
        let mut warm = RetrievalStats::default();
        assert!(solver.solve_tabled_in(&qr, &mut store, &mut warm).unwrap().is_some());
        assert_eq!(warm.retrievals, 0, "link family untouched by the edge delta");
        assert_eq!(warm.table_misses, 0);
    }

    #[test]
    fn maintain_drops_affected_tables_on_retract_and_keeps_the_rest() {
        use crate::table::TableStore;
        let mut t = SymbolTable::new();
        let p = parse_program(TWO_FAMILY_KB, &mut t).unwrap();
        let qp = parse_query("path(a, c)", &mut t).unwrap();
        let qr = parse_query("reach(a, X)", &mut t).unwrap();
        let mut db = p.facts;
        let mut store = TableStore::new();
        let mut stats = RetrievalStats::default();
        {
            let solver = TopDown::new(&p.rules, &db);
            assert!(solver.solve_tabled_in(&qp, &mut store, &mut stats).unwrap().is_some());
            assert!(solver.solve_tabled_in(&qr, &mut store, &mut stats).unwrap().is_some());
        }
        let edge = t.intern("edge");
        let (b, c) = (t.intern("b"), t.intern("c"));
        let delta = db.retract(crate::term::Fact::new(edge, vec![b, c])).unwrap();
        assert!(delta.changed);
        let solver = TopDown::new(&p.rules, &db);
        let report =
            solver.maintain_tables(&mut store, &[], &[delta.predicate], &mut stats).unwrap();
        assert!(report.dropped >= 1, "non-monotone change drops the path tables");
        assert_eq!(report.reopened, 0);
        assert!(report.kept >= 1);
        // The dropped table rebuilds lazily and sees the retraction.
        assert!(solver.solve_tabled_in(&qp, &mut store, &mut stats).unwrap().is_none());
        // The disjoint family never went cold.
        let mut warm = RetrievalStats::default();
        assert!(solver.solve_tabled_in(&qr, &mut store, &mut warm).unwrap().is_some());
        assert_eq!(warm.retrievals, 0);
        assert_eq!(warm.table_misses, 0);
    }

    #[test]
    fn maintain_without_changes_is_a_no_op() {
        use crate::table::TableStore;
        let mut t = SymbolTable::new();
        let p = parse_program(TWO_FAMILY_KB, &mut t).unwrap();
        let q = parse_query("path(a, X)", &mut t).unwrap();
        let mut store = TableStore::new();
        let mut stats = RetrievalStats::default();
        let solver = TopDown::new(&p.rules, &p.facts);
        assert!(solver.solve_tabled_in(&q, &mut store, &mut stats).unwrap().is_some());
        let report = solver.maintain_tables(&mut store, &[], &[], &mut stats).unwrap();
        assert_eq!(report, MaintainReport { kept: store.len(), ..MaintainReport::default() });
        // A delta on a predicate no table reaches is equally free.
        let ghost = t.intern("ghost");
        let report = solver.maintain_tables(&mut store, &[ghost], &[], &mut stats).unwrap();
        assert_eq!(report.reopened + report.dropped, 0);
        assert_eq!(report.kept, store.len());
    }

    proptest::proptest! {
        /// After ANY interleaving of edge inserts/retracts (maintaining
        /// the store after each changed delta), the maintained store
        /// answers every ground path query exactly as a fresh tabled
        /// solve against the final database.
        #[test]
        fn maintained_store_agrees_with_fresh_rebuild(
            ops in proptest::collection::vec((0u8..2, 0u8..4, 0u8..4), 1..8),
        ) {
            use crate::table::TableStore;
            let mut t = SymbolTable::new();
            let p = parse_program(
                "path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z).\n\
                 edge(c0, c1). edge(c1, c2).",
                &mut t,
            ).unwrap();
            let mut db = p.facts;
            let mut store = TableStore::new();
            let mut stats = RetrievalStats::default();
            let q = parse_query("path(c0, X)", &mut t).unwrap();
            {
                let solver = TopDown::new(&p.rules, &db);
                let _ = solver.solve_tabled_in(&q, &mut store, &mut stats).unwrap();
            }
            let edge = t.intern("edge");
            for (op, x, y) in ops {
                let is_insert = op == 0;
                let (cx, cy) = (t.intern(&format!("c{x}")), t.intern(&format!("c{y}")));
                let f = crate::term::Fact::new(edge, vec![cx, cy]);
                let delta =
                    if is_insert { db.insert(f).unwrap() } else { db.retract(f).unwrap() };
                let solver = TopDown::new(&p.rules, &db);
                if delta.changed {
                    let (ins, ret) = match delta.op {
                        crate::database::DeltaOp::Insert => (vec![delta.predicate], vec![]),
                        crate::database::DeltaOp::Retract => (vec![], vec![delta.predicate]),
                    };
                    solver.maintain_tables(&mut store, &ins, &ret, &mut stats).unwrap();
                }
                for s in 0..4u8 {
                    for e in 0..4u8 {
                        let qq = parse_query(&format!("path(c{s}, c{e})"), &mut t).unwrap();
                        let mut scratch = RetrievalStats::default();
                        let maintained = solver
                            .solve_tabled_in(&qq, &mut store, &mut scratch)
                            .unwrap()
                            .is_some();
                        let fresh = solver.provable_tabled(&qq).unwrap();
                        proptest::prop_assert_eq!(maintained, fresh);
                    }
                }
            }
        }
    }

    proptest::proptest! {
        /// Tabled top-down agrees with the bottom-up oracle on random
        /// *recursive* programs mixing left-, right-, and nonlinear
        /// recursion over a random edge relation.
        #[test]
        fn tabled_agrees_with_bottom_up_on_recursion(
            edges in proptest::collection::vec((0u8..5, 0u8..5), 0..12),
            shape in 0u8..3,
            qs in 0u8..5,
            qt in 0u8..5,
        ) {
            let recursive = match shape {
                0 => "path(X, Z) :- path(X, Y), edge(Y, Z).\n",      // left
                1 => "path(X, Z) :- edge(X, Y), path(Y, Z).\n",      // right
                _ => "path(X, Z) :- path(X, Y), path(Y, Z).\n",      // nonlinear
            };
            let mut src = format!("path(X, Y) :- edge(X, Y).\n{recursive}");
            for (a, b) in &edges {
                src.push_str(&format!("edge(n{a}, n{b}).\n"));
            }
            let mut t = SymbolTable::new();
            let p = parse_program(&src, &mut t).unwrap();
            let solver = TopDown::new(&p.rules, &p.facts);
            let model = eval::MinimalModel::compute(&p.rules, &p.facts);
            // Ground query.
            let g = parse_query(&format!("path(n{qs}, n{qt})"), &mut t).unwrap();
            proptest::prop_assert_eq!(solver.provable_tabled(&g).unwrap(), model.holds(&g));
            // Half-open query.
            let h = parse_query(&format!("path(n{qs}, W)"), &mut t).unwrap();
            proptest::prop_assert_eq!(solver.provable_tabled(&h).unwrap(), model.holds(&h));
        }

        /// On non-recursive programs the tabled solver and the plain SLD
        /// solver agree answer-for-answer with the oracle.
        #[test]
        fn tabled_agrees_with_plain_sld_nonrecursive(
            rules in proptest::collection::vec((0u8..3, 0u8..3), 1..6),
            facts in proptest::collection::vec((0u8..3, 0u8..4), 0..6),
            qx in 0u8..4,
        ) {
            let mut src = String::new();
            for (i, _) in &rules {
                src.push_str(&format!("l{}(X) :- l{}(X).\n", i, i + 1));
            }
            for (layer, c) in &facts {
                src.push_str(&format!("l{}(c{}).\n", layer + 1, c));
            }
            let mut t = SymbolTable::new();
            let p = parse_program(&src, &mut t).unwrap();
            let q = parse_query(&format!("l0(c{qx})"), &mut t).unwrap();
            let solver = TopDown::new(&p.rules, &p.facts);
            let plain = solver.provable(&q).unwrap();
            let tabled = solver.provable_tabled(&q).unwrap();
            proptest::prop_assert_eq!(plain, tabled);
            proptest::prop_assert_eq!(tabled, eval::holds(&p.rules, &p.facts, &q));
        }
    }

    proptest::proptest! {
        /// Top-down agrees with the bottom-up oracle on random
        /// non-recursive layered KBs.
        #[test]
        fn agrees_with_bottom_up(
            rules in proptest::collection::vec((0u8..3, 0u8..3), 1..6),
            facts in proptest::collection::vec((0u8..3, 0u8..4), 0..6),
            qx in 0u8..4,
        ) {
            // Layered predicates l0, l1, l2, l3: rule (i, j) is
            // l{i}(X) :- l{i+1}(X) with variation j ignored (dedup ok);
            // facts live at layer 3 over constants c0..c3.
            let mut src = String::new();
            for (i, _) in &rules {
                src.push_str(&format!("l{}(X) :- l{}(X).\n", i, i + 1));
            }
            for (layer, c) in &facts {
                src.push_str(&format!("l{}(c{}).\n", layer + 1, c));
            }
            let mut t = SymbolTable::new();
            let p = parse_program(&src, &mut t).unwrap();
            let q = parse_query(&format!("l0(c{qx})"), &mut t).unwrap();
            let td = TopDown::new(&p.rules, &p.facts).provable(&q).unwrap();
            let bu = eval::holds(&p.rules, &p.facts, &q);
            proptest::prop_assert_eq!(td, bu);
        }
    }
}

#[cfg(test)]
mod obs_tests {
    use super::RetrievalStats;
    use qpl_obs::MemorySink;

    #[test]
    fn retrieval_stats_emit_as_datalog_counters() {
        let stats = RetrievalStats {
            retrievals: 5,
            reductions: 3,
            table_hits: 2,
            table_misses: 1,
            tabled_answers_reused: 4,
        };
        let mut sink = MemorySink::new();
        stats.emit_to(&mut sink);
        stats.emit_to(&mut sink); // adapters accumulate across runs
        assert_eq!(sink.counter_total("datalog.retrievals"), 10);
        assert_eq!(sink.counter_total("datalog.table_hits"), 4);
        assert_eq!(sink.counter_total("datalog.tabled_answers_reused"), 8);
    }
}
