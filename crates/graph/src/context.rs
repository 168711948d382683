//! Query-processing contexts and strategy execution.
//!
//! Note 2 of the paper observes that contexts `⟨q, DB⟩` partition into
//! equivalence classes determined solely by *which arcs are blocked*; a
//! [`Context`] here is exactly that equivalence class — a blocked-status
//! bit per arc. The engine crate maps real `⟨query, Database⟩` pairs into
//! these classes.
//!
//! [`execute`] runs a strategy in a context and produces a [`Trace`]:
//! per-arc outcomes, the total cost `c(Θ, I)`, and whether a success node
//! was reached. The cost semantics follow the paper's examples exactly:
//!
//! * attempting an arc costs `f(a)` whether or not it is blocked
//!   (e.g. `c(Θ₁, I₁) = 4` includes the *failed* `D_p` probe);
//! * an arc can only be attempted once its source node has been reached;
//!   arcs below a blocked arc are skipped at no cost;
//! * the first success node reached ends the run (satisficing search) —
//!   the remaining subsequence is ignored.

use crate::graph::{ArcId, InferenceGraph};

/// A context equivalence class: the set of blocked arcs (Note 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Context {
    pub(crate) blocked: Vec<bool>,
}

impl Context {
    /// Internal constructor from a raw blocked vector.
    pub(crate) fn from_parts(blocked: Vec<bool>) -> Self {
        Self { blocked }
    }

    /// A context in which every arc is traversable.
    pub fn all_open(g: &InferenceGraph) -> Self {
        Self { blocked: vec![false; g.arc_count()] }
    }

    /// A context in which every arc is blocked.
    pub fn all_blocked(g: &InferenceGraph) -> Self {
        Self { blocked: vec![true; g.arc_count()] }
    }

    /// A context blocking exactly the given arcs.
    pub fn with_blocked(g: &InferenceGraph, blocked: &[ArcId]) -> Self {
        let mut ctx = Self::all_open(g);
        for &a in blocked {
            ctx.blocked[a.index()] = true;
        }
        ctx
    }

    /// Builds a context from a per-arc predicate.
    pub fn from_fn(g: &InferenceGraph, mut f: impl FnMut(ArcId) -> bool) -> Self {
        Self { blocked: g.arc_ids().map(&mut f).collect() }
    }

    /// Refills this context in place from a per-arc predicate, resizing
    /// to fit `g` — the buffer-reuse counterpart of
    /// [`from_fn`](Self::from_fn).
    pub fn reset_from_fn(&mut self, g: &InferenceGraph, mut f: impl FnMut(ArcId) -> bool) {
        self.blocked.clear();
        self.blocked.extend(g.arc_ids().map(&mut f));
    }

    /// Overwrites this context with `other`'s statuses, reusing the
    /// existing buffer (unlike `clone_from`, never reallocates when the
    /// capacity already fits).
    pub fn copy_from(&mut self, other: &Context) {
        self.blocked.clear();
        self.blocked.extend_from_slice(&other.blocked);
    }

    /// Whether `a` is blocked.
    pub fn is_blocked(&self, a: ArcId) -> bool {
        self.blocked[a.index()]
    }

    /// Sets the blocked status of `a`.
    pub fn set_blocked(&mut self, a: ArcId, blocked: bool) {
        self.blocked[a.index()] = blocked;
    }

    /// Number of arcs this context covers.
    pub fn arc_count(&self) -> usize {
        self.blocked.len()
    }

    /// The blocked arcs.
    pub fn blocked_arcs(&self) -> impl Iterator<Item = ArcId> + '_ {
        self.blocked.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| ArcId(i as u32))
    }

    /// The arc-set identification of Note 2: the *unblocked* arcs (the
    /// paper identifies `I₁` with `{R_p, R_g, D_g}` — its open arcs).
    pub fn open_arcs(&self) -> impl Iterator<Item = ArcId> + '_ {
        self.blocked.iter().enumerate().filter(|(_, &b)| !b).map(|(i, _)| ArcId(i as u32))
    }
}

/// Outcome of attempting one arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArcOutcome {
    /// The arc was traversable; its target node was reached.
    Traversed,
    /// The arc was blocked; its cost was paid but the target not reached.
    Blocked,
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// A success node was reached via the given retrieval arc ("yes").
    Succeeded(ArcId),
    /// Every reachable arc was exhausted without success ("no").
    Exhausted,
}

impl RunOutcome {
    /// Whether the derivation succeeded.
    pub fn is_success(self) -> bool {
        matches!(self, RunOutcome::Succeeded(_))
    }
}

/// Full record of one strategy execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Arcs actually attempted, in order, with their outcomes.
    pub events: Vec<(ArcId, ArcOutcome)>,
    /// Total cost `c(Θ, I)`.
    pub cost: f64,
    /// Terminal outcome.
    pub outcome: RunOutcome,
}

impl Trace {
    /// Outcome of `a` if it was attempted during this run.
    pub fn outcome_of(&self, a: ArcId) -> Option<ArcOutcome> {
        self.events.iter().find(|(x, _)| *x == a).map(|(_, o)| *o)
    }

    /// Whether `a` was attempted.
    pub fn attempted(&self, a: ArcId) -> bool {
        self.outcome_of(a).is_some()
    }
}

/// Reusable per-run buffers: the reached-node bitvec and the event
/// buffer.
///
/// [`execute`] allocates these afresh on every call, which is fine for
/// one-off runs but dominates tight Monte-Carlo loops (PIB absorbs a
/// context, then replays every candidate strategy against its pessimistic
/// completion — thousands of executions per second, each a `Vec::new()`
/// under the old API). Holding one `RunScratch` per loop and calling
/// [`execute_into`] / [`cost_into`] makes the per-run path allocation-free
/// after warm-up: buffers are cleared, never shrunk.
///
/// Results are identical to the allocating API — [`execute`] itself is a
/// thin wrapper over [`execute_into`].
#[derive(Debug, Clone)]
pub struct RunScratch {
    pub(crate) reached: Vec<bool>,
    pub(crate) events: Vec<(ArcId, ArcOutcome)>,
    pub(crate) cost: f64,
    pub(crate) outcome: RunOutcome,
}

impl RunScratch {
    /// Buffers sized for `g`.
    pub fn new(g: &InferenceGraph) -> Self {
        Self {
            reached: vec![false; g.node_count()],
            events: Vec::with_capacity(g.arc_count()),
            cost: 0.0,
            outcome: RunOutcome::Exhausted,
        }
    }

    /// Clears the run state (keeps allocations), sized from node count
    /// and root index so the program executor needs no graph reference.
    pub(crate) fn begin(&mut self, node_count: usize, root: usize) {
        self.reached.clear();
        self.reached.resize(node_count, false);
        self.reached[root] = true;
        self.events.clear();
        self.cost = 0.0;
        self.outcome = RunOutcome::Exhausted;
    }

    /// Events of the most recent run, in attempt order (empty after a
    /// cost-only run).
    pub fn events(&self) -> &[(ArcId, ArcOutcome)] {
        &self.events
    }

    /// Cost `c(Θ, I)` of the most recent run.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Terminal outcome of the most recent run.
    pub fn outcome(&self) -> RunOutcome {
        self.outcome
    }

    /// Materializes the most recent run as an owned [`Trace`] (clones the
    /// event buffer; the scratch stays reusable).
    pub fn to_trace(&self) -> Trace {
        Trace { events: self.events.clone(), cost: self.cost, outcome: self.outcome }
    }

    /// Moves the event buffer out into a [`Trace`], leaving the scratch
    /// reusable but with an empty buffer.
    fn take_trace(&mut self) -> Trace {
        Trace { events: std::mem::take(&mut self.events), cost: self.cost, outcome: self.outcome }
    }
}

/// The interpreter: runs `strategy` arc by arc, asking `probe` whether
/// each *attempted* arc is blocked — exactly once per attempt, in
/// attempt order, and never for an arc the run skips. An eager caller
/// probes a classified [`Context`]; a lazy caller probes the database
/// itself, so a query answered on its first path costs one probe per
/// arc of that path.
///
/// `EVENTS` selects whether the per-arc trace is recorded; the
/// cost-only instantiation (`false`) compiles the event pushes away.
/// Cost and outcome are recorded either way, with the same additions in
/// the same order, so both instantiations agree to the bit.
///
/// This loop accepts every strategy on every graph (relaxed sequences,
/// DAGs), and is the reference the compiled
/// [`StrategyProgram`](crate::program::StrategyProgram) executor is
/// property-tested against.
#[inline]
pub fn execute_probe_into<const EVENTS: bool>(
    g: &InferenceGraph,
    strategy: &crate::strategy::Strategy,
    scratch: &mut RunScratch,
    mut probe: impl FnMut(ArcId) -> bool,
) -> RunOutcome {
    scratch.begin(g.node_count(), g.root().index());
    for &a in strategy.arcs() {
        let arc = g.arc(a);
        if !scratch.reached[arc.from.index()] {
            continue; // below a blocked arc: skipped at no cost
        }
        scratch.cost += arc.cost;
        if probe(a) {
            if EVENTS {
                scratch.events.push((a, ArcOutcome::Blocked));
            }
            continue;
        }
        if EVENTS {
            scratch.events.push((a, ArcOutcome::Traversed));
        }
        scratch.reached[arc.to.index()] = true;
        if g.node(arc.to).is_success {
            scratch.outcome = RunOutcome::Succeeded(a);
            return scratch.outcome;
        }
    }
    scratch.outcome
}

/// Executes `strategy` in `context`, returning the full [`Trace`].
///
/// # Panics
/// Panics if `context` was built for a different graph (arc-count
/// mismatch).
pub fn execute(
    g: &InferenceGraph,
    strategy: &crate::strategy::Strategy,
    context: &Context,
) -> Trace {
    let mut scratch = RunScratch::new(g);
    execute_into(g, strategy, context, &mut scratch);
    scratch.take_trace()
}

/// [`execute`] into reusable buffers: identical semantics and trace, no
/// per-run allocation. Read the results off the scratch afterwards.
///
/// # Panics
/// Panics if `context` was built for a different graph.
pub fn execute_into(
    g: &InferenceGraph,
    strategy: &crate::strategy::Strategy,
    context: &Context,
    scratch: &mut RunScratch,
) -> RunOutcome {
    assert_eq!(context.arc_count(), g.arc_count(), "context built for a different graph");
    execute_probe_into::<true>(g, strategy, scratch, |a| context.is_blocked(a))
}

/// Cost-only execution into reusable buffers: no event recording at all,
/// the cheapest way to evaluate `c(Θ, I)` in a tight loop. The returned
/// value is bit-identical to `execute(..).cost` (same additions in the
/// same order).
///
/// # Panics
/// Panics if `context` was built for a different graph.
pub fn cost_into(
    g: &InferenceGraph,
    strategy: &crate::strategy::Strategy,
    context: &Context,
    scratch: &mut RunScratch,
) -> f64 {
    assert_eq!(context.arc_count(), g.arc_count(), "context built for a different graph");
    execute_probe_into::<false>(g, strategy, scratch, |a| context.is_blocked(a));
    scratch.cost
}

/// Convenience: just the cost `c(Θ, I)`.
pub fn cost(g: &InferenceGraph, strategy: &crate::strategy::Strategy, context: &Context) -> f64 {
    let mut scratch = RunScratch::new(g);
    cost_into(g, strategy, context, &mut scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::strategy::Strategy;

    fn g_a() -> InferenceGraph {
        let mut b = GraphBuilder::new("instructor(κ)");
        let root = b.root();
        let (_, prof) = b.reduction(root, "R_p", 1.0, "prof(κ)");
        b.retrieval(prof, "D_p", 1.0);
        let (_, grad) = b.reduction(root, "R_g", 1.0, "grad(κ)");
        b.retrieval(grad, "D_g", 1.0);
        b.finish().unwrap()
    }

    fn strat(g: &InferenceGraph, labels: &[&str]) -> Strategy {
        Strategy::from_arcs(g, labels.iter().map(|l| g.arc_by_label(l).unwrap()).collect()).unwrap()
    }

    /// `I₁ = ⟨instructor(manolis), DB₁⟩`: `D_p` blocked, `D_g` open.
    fn i1(g: &InferenceGraph) -> Context {
        Context::with_blocked(g, &[g.arc_by_label("D_p").unwrap()])
    }

    /// `I₂ = ⟨instructor(russ), DB₁⟩`: `D_g` blocked, `D_p` open.
    fn i2(g: &InferenceGraph) -> Context {
        Context::with_blocked(g, &[g.arc_by_label("D_g").unwrap()])
    }

    #[test]
    fn paper_costs_for_i1() {
        // "assuming each arc costs 1, then c(Θ₁, I₁) = 4 and c(Θ₂, I₁) = 2"
        let g = g_a();
        let t1 = strat(&g, &["R_p", "D_p", "R_g", "D_g"]);
        let t2 = strat(&g, &["R_g", "D_g", "R_p", "D_p"]);
        assert_eq!(cost(&g, &t1, &i1(&g)), 4.0);
        assert_eq!(cost(&g, &t2, &i1(&g)), 2.0);
    }

    #[test]
    fn paper_costs_for_i2() {
        // "Using I₂ = ⟨instructor(russ), DB₁⟩, c(Θ₁, I₂) = 2 and c(Θ₂, I₂) = 4."
        let g = g_a();
        let t1 = strat(&g, &["R_p", "D_p", "R_g", "D_g"]);
        let t2 = strat(&g, &["R_g", "D_g", "R_p", "D_p"]);
        assert_eq!(cost(&g, &t1, &i2(&g)), 2.0);
        assert_eq!(cost(&g, &t2, &i2(&g)), 4.0);
    }

    #[test]
    fn success_stops_the_run() {
        let g = g_a();
        let t1 = strat(&g, &["R_p", "D_p", "R_g", "D_g"]);
        let trace = execute(&g, &t1, &i2(&g));
        assert!(trace.outcome.is_success());
        assert_eq!(trace.events.len(), 2, "R_g and D_g never attempted");
        assert!(!trace.attempted(g.arc_by_label("R_g").unwrap()));
    }

    #[test]
    fn exhaustion_visits_everything() {
        let g = g_a();
        let t1 = strat(&g, &["R_p", "D_p", "R_g", "D_g"]);
        let none = Context::all_blocked(&g);
        let trace = execute(&g, &t1, &none);
        assert_eq!(trace.outcome, RunOutcome::Exhausted);
        // Both reductions blocked: retrievals below never attempted.
        assert_eq!(trace.cost, 2.0);
        assert_eq!(trace.events.len(), 2);
    }

    #[test]
    fn blocked_reduction_skips_subtree_at_no_cost() {
        let g = g_a();
        let t1 = strat(&g, &["R_p", "D_p", "R_g", "D_g"]);
        let ctx = Context::with_blocked(
            &g,
            &[g.arc_by_label("R_p").unwrap(), g.arc_by_label("D_g").unwrap()],
        );
        let trace = execute(&g, &t1, &ctx);
        // R_p blocked (cost 1), D_p skipped, R_g traversed (1), D_g blocked (1).
        assert_eq!(trace.cost, 3.0);
        assert_eq!(trace.outcome, RunOutcome::Exhausted);
        assert!(!trace.attempted(g.arc_by_label("D_p").unwrap()));
    }

    #[test]
    fn blocked_retrieval_cost_still_paid() {
        let g = g_a();
        let t1 = strat(&g, &["R_p", "D_p", "R_g", "D_g"]);
        let trace = execute(&g, &t1, &i1(&g));
        assert_eq!(trace.outcome_of(g.arc_by_label("D_p").unwrap()), Some(ArcOutcome::Blocked));
        assert_eq!(trace.cost, 4.0);
    }

    #[test]
    fn succeeded_arc_identified() {
        let g = g_a();
        let t2 = strat(&g, &["R_g", "D_g", "R_p", "D_p"]);
        let trace = execute(&g, &t2, &i1(&g));
        assert_eq!(trace.outcome, RunOutcome::Succeeded(g.arc_by_label("D_g").unwrap()));
    }

    #[test]
    fn context_identification_matches_note_2() {
        // "we can identify the context I₁ with the arc-set {R_p, R_g, D_g}"
        let g = g_a();
        let open: Vec<String> = i1(&g).open_arcs().map(|a| g.arc(a).label.clone()).collect();
        assert_eq!(
            open,
            ["R_p", "D_p", "R_g", "D_g"]
                .iter()
                .filter(|l| **l != "D_p")
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn non_uniform_costs_accumulate() {
        let mut b = GraphBuilder::new("q");
        let root = b.root();
        let (_, n1) = b.reduction(root, "R1", 2.5, "g1");
        b.retrieval(n1, "D1", 0.5);
        let (_, n2) = b.reduction(root, "R2", 1.5, "g2");
        b.retrieval(n2, "D2", 3.0);
        let g = b.finish().unwrap();
        let s = Strategy::left_to_right(&g);
        let ctx = Context::with_blocked(&g, &[g.arc_by_label("D1").unwrap()]);
        // R1 (2.5) + D1 blocked (0.5) + R2 (1.5) + D2 success (3.0) = 7.5
        assert!((cost(&g, &s, &ctx) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn trace_events_in_strategy_order() {
        let g = g_a();
        let t2 = strat(&g, &["R_g", "D_g", "R_p", "D_p"]);
        let trace = execute(&g, &t2, &i2(&g));
        let labels: Vec<&str> =
            trace.events.iter().map(|(a, _)| g.arc(*a).label.as_str()).collect();
        assert_eq!(labels, ["R_g", "D_g", "R_p", "D_p"]);
    }

    #[test]
    fn scratch_execution_matches_allocating_execution() {
        // Same trace (events, cost, outcome) for every strategy × context
        // on G_A, with ONE scratch reused across all runs.
        let g = g_a();
        let strategies = crate::strategy::enumerate_all(&g, 100).unwrap();
        let contexts = [
            Context::all_open(&g),
            Context::all_blocked(&g),
            i1(&g),
            i2(&g),
            Context::with_blocked(&g, &[g.arc_by_label("R_p").unwrap()]),
        ];
        let mut scratch = RunScratch::new(&g);
        for s in &strategies {
            for ctx in &contexts {
                let reference = execute(&g, s, ctx);
                execute_into(&g, s, ctx, &mut scratch);
                assert_eq!(scratch.to_trace(), reference);
                assert_eq!(scratch.cost().to_bits(), reference.cost.to_bits());
                let c = cost_into(&g, s, ctx, &mut scratch);
                assert_eq!(c.to_bits(), reference.cost.to_bits());
            }
        }
    }

    #[test]
    fn context_setters_and_accessors() {
        let g = g_a();
        let mut ctx = Context::all_open(&g);
        let dp = g.arc_by_label("D_p").unwrap();
        assert!(!ctx.is_blocked(dp));
        ctx.set_blocked(dp, true);
        assert!(ctx.is_blocked(dp));
        assert_eq!(ctx.blocked_arcs().collect::<Vec<_>>(), vec![dp]);
    }
}
