//! A statistics-free greedy ordering baseline (janus-datalog style).
//!
//! "When Statistics Are Unnecessary" argues that a Datalog planner can
//! order clauses well with *zero* cardinality statistics, using only
//! what is visible in the program text: which arguments are bound by
//! the query (symbol connectivity) and which are pinned to constants
//! (visible selectivity) — planning in microseconds instead of
//! maintaining histograms. [`GreedyHeuristic`] is that idea transplanted
//! onto the paper's inference graphs: it orders each node's child arcs
//! by the *visible constraint density* of their subtrees and derives the
//! depth-first strategy of that ordering.
//!
//! Like [`SmithHeuristic`](crate::SmithHeuristic) it is a baseline the
//! learned strategies (PIB/PAO) are measured against — but where Smith
//! needs the database's fact counts (statistics that can mislead, see
//! E2), greedy needs nothing beyond the compiled graph, so its plan is
//! ready before the first query arrives and never goes stale. The
//! resulting [`Strategy`] lowers through the same `StrategyProgram`
//! path as every other strategy, so all four contenders execute on the
//! bit-parallel batch executor. `bench_fourway` measures where the
//! learned strategies beat it (adversarial query mixes) and where they
//! cannot (mixes whose selectivity is fully visible in the rules).

use qpl_graph::compile::{ArcBinding, CompiledGraph, PatternTerm};
use qpl_graph::graph::ArcId;
use qpl_graph::strategy::Strategy;
use qpl_graph::GraphError;
use qpl_obs::{names, MetricsSink};
use std::time::Instant;

/// Weight of a visibly-pinned position (a pattern constant or a guard):
/// the strongest statistics-free evidence that a branch is selective.
const W_CONST: u64 = 2;
/// Weight of a query-connected position (a `QueryArg` pattern slot):
/// the branch probes with the caller's own binding.
const W_CONNECTED: u64 = 1;

/// The statistics-free greedy orderer and the strategy it induces.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyHeuristic;

impl GreedyHeuristic {
    /// Visible-constraint score of one arc, from its binding alone.
    fn arc_score(compiled: &CompiledGraph, a: ArcId) -> u64 {
        match compiled.binding(a) {
            ArcBinding::Reduction { guards, .. } => W_CONST * guards.len() as u64,
            ArcBinding::Retrieval { pattern, guards, .. } => {
                let consts =
                    pattern.iter().filter(|t| matches!(t, PatternTerm::Const(_))).count() as u64;
                let connected =
                    pattern.iter().filter(|t| matches!(t, PatternTerm::QueryArg(_))).count() as u64;
                W_CONST * (consts + guards.len() as u64) + W_CONNECTED * connected
            }
        }
    }

    /// `(score, size)` summed over the subtree hanging off arc `a`.
    fn subtree(compiled: &CompiledGraph, a: ArcId) -> (u64, u64) {
        let mut score = Self::arc_score(compiled, a);
        let mut size = 1u64;
        for &child in compiled.graph.children(compiled.graph.arc(a).to) {
            let (s, n) = Self::subtree(compiled, child);
            score += s;
            size += n;
        }
        (score, size)
    }

    /// Per-node child orders: descending visible-constraint density
    /// (score per arc), ties to the smaller subtree (fail or finish
    /// sooner), then to source order — fully deterministic.
    pub fn orders(compiled: &CompiledGraph) -> Vec<Vec<ArcId>> {
        let g = &compiled.graph;
        g.node_ids()
            .map(|n| {
                let mut kids: Vec<(ArcId, u64, u64)> = g
                    .children(n)
                    .iter()
                    .map(|&a| {
                        let (score, size) = Self::subtree(compiled, a);
                        (a, score, size)
                    })
                    .collect();
                // Density compare without floats: s1/n1 > s2/n2 ⟺
                // s1·n2 > s2·n1 (sizes are ≥ 1).
                kids.sort_by(|&(a1, s1, n1), &(a2, s2, n2)| {
                    (s2 * n1).cmp(&(s1 * n2)).then(n1.cmp(&n2)).then(a1.cmp(&a2))
                });
                kids.into_iter().map(|(a, _, _)| a).collect()
            })
            .collect()
    }

    /// The depth-first strategy of the greedy child orders.
    ///
    /// # Errors
    /// Structural [`GraphError`]s from strategy construction (non-tree
    /// graph); the orders themselves are always valid permutations.
    pub fn strategy(compiled: &CompiledGraph) -> Result<Strategy, GraphError> {
        Strategy::dfs_from_orders(&compiled.graph, &Self::orders(compiled))
    }

    /// [`GreedyHeuristic::strategy`], reporting planning wall-clock to
    /// `sink` as the [`names::plan::GREEDY_MICROS`] counter.
    ///
    /// # Errors
    /// Same as [`GreedyHeuristic::strategy`].
    pub fn strategy_observed<S: MetricsSink + ?Sized>(
        compiled: &CompiledGraph,
        sink: &mut S,
    ) -> Result<Strategy, GraphError> {
        let t0 = Instant::now();
        let result = Self::strategy(compiled);
        // Sub-microsecond plans still count as one, so the counter
        // doubles as a number-of-plans floor.
        sink.counter(names::plan::GREEDY_MICROS, (t0.elapsed().as_micros() as u64).max(1));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpl_datalog::parser::{parse_program, parse_query_form};
    use qpl_datalog::SymbolTable;
    use qpl_graph::compile::{compile, CompileOptions};
    use qpl_obs::MemorySink;

    fn compile_src(rules: &str, form: &str) -> CompiledGraph {
        let mut t = SymbolTable::new();
        let p = parse_program(rules, &mut t).unwrap();
        let qf = parse_query_form(form, &mut t).unwrap();
        compile(&p.rules, &qf, &t, &CompileOptions::default()).unwrap()
    }

    #[test]
    fn visible_constant_branch_ranks_first() {
        // Written selective-last: the r-branch probes with a visible
        // constant (`loc`), the s-branch with an existential — greedy
        // must reorder r ahead of s without any statistics.
        let cg = compile_src("q(X) :- s(X, Y).\nq(X) :- r(X, loc).", "q(b)");
        let s = GreedyHeuristic::strategy(&cg).unwrap();
        let first_retrieval = s
            .arcs()
            .iter()
            .find(|&&a| cg.graph.arc(a).kind == qpl_graph::ArcKind::Retrieval)
            .copied()
            .unwrap();
        assert!(
            cg.graph.arc(first_retrieval).label.contains('r'),
            "constant-pinned branch first, got {}",
            cg.graph.arc(first_retrieval).label
        );
    }

    #[test]
    fn guarded_reduction_outranks_unguarded() {
        // grad(fred) :- admitted(fred, Y) compiles to a guarded
        // reduction (ArgEqConst) — visibly the most selective branch.
        let cg = compile_src(
            "instructor(X) :- grad(X).\n\
             grad(X) :- enrolled(X).\n\
             grad(fred) :- admitted(fred, Y).",
            "instructor(b)",
        );
        let orders = GreedyHeuristic::orders(&cg);
        // Find the grad node: the one with two children (enrolled-rule
        // and admitted-rule reductions).
        let g = &cg.graph;
        let grad_node = g.node_ids().find(|&n| g.children(n).len() == 2 && n != g.root()).unwrap();
        let first = orders[grad_node.index()][0];
        let guarded = matches!(
            cg.binding(first),
            ArcBinding::Reduction { guards, .. } if !guards.is_empty()
        );
        assert!(guarded, "guarded reduction must come first at the grad node");
    }

    #[test]
    fn plain_disjunction_keeps_source_order() {
        // Figure 1: both branches look identical to the text — greedy
        // must fall back to source order (and thus match left-to-right).
        let cg =
            compile_src("instructor(X) :- prof(X).\ninstructor(X) :- grad(X).", "instructor(b)");
        let s = GreedyHeuristic::strategy(&cg).unwrap();
        assert_eq!(s.arcs(), Strategy::left_to_right(&cg.graph).arcs());
    }

    #[test]
    fn observed_planning_emits_micros_and_is_fast() {
        let cg = compile_src(
            "owns(X, Y) :- owns_home(X, Y).\n\
             owns(X, Y) :- owns_car(X, Y).\n\
             owns(X, Y) :- owns_stock(X, Y).\n\
             owns(X, Y) :- owns_boat(X, Y).",
            "owns(b,f)",
        );
        let mut sink = MemorySink::new();
        let t0 = std::time::Instant::now();
        let s = GreedyHeuristic::strategy_observed(&cg, &mut sink).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(s.arcs().len(), cg.graph.arc_count());
        assert!(
            sink.counter_total(names::plan::GREEDY_MICROS) >= 1,
            "planning micros counter must be emitted"
        );
        assert!(elapsed.as_millis() < 1, "greedy planning must stay under 1 ms: {elapsed:?}");
    }
}
