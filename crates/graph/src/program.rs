//! Flat jump-threaded strategy programs.
//!
//! The satisficing interpreter ([`crate::context::execute_probe_into`]) walks a
//! `Strategy` arc-by-arc, re-checking `reached[from]` for every arc —
//! including the whole tail of a path whose head was blocked. Because a
//! validated path-form strategy on a *tree* has a rigid control-flow
//! skeleton (Note 3: each path starts at a visited node, descends
//! arc-to-arc, and ends at its first retrieval), that control flow can be
//! compiled once per strategy into a flat instruction array with
//! precomputed jump targets:
//!
//! * one [`Instr`] per strategy arc, in strategy order, carrying the arc's
//!   cost, its target node, and whether that target is a success node;
//! * a `fail_jump` pointing one past the end of the instruction's path —
//!   on a tree with no duplicate arcs, a blocked arc (or an unreached path
//!   head) makes the *entire rest of the path* statically unreachable, so
//!   the executor jumps instead of testing each tail arc individually;
//! * a `guard` node only on path heads whose source is not the root —
//!   interior instructions are reached exclusively by falling through from
//!   a traversal, so their source is reached by construction and needs no
//!   check.
//!
//! Why the jump is sound: in a tree every node has exactly one parent arc,
//! and a strategy attempts each arc at most once. An interior arc's source
//! is the previous arc's target, so it is reached iff that previous arc
//! was traversed — if the head is skipped or any arc in the path is
//! blocked, no node further down the path can ever become reached, this
//! run or later. Duplicate arcs or multiple parents would break the
//! argument, so [`StrategyProgram::compile`] rejects non-trees and
//! non-path-form sequences; callers fall back to the interpreter.
//!
//! Execution is then pure index arithmetic — no `HashMap`, no path
//! re-decomposition, no allocation — and is bit-identical to the
//! interpreter (same cost additions in the same order, same events, same
//! outcome; property-tested below and in `tests/`). The same instruction
//! array drives the bit-parallel 64-lane executor in [`crate::batch`].

use crate::context::{ArcOutcome, Context, RunOutcome, RunScratch};
use crate::error::GraphError;
use crate::graph::{ArcId, ArcKind, InferenceGraph};
use crate::strategy::Strategy;

/// Sentinel index meaning "no node / no arc" in an [`Instr`] field.
pub const NO_INDEX: u32 = u32::MAX;

/// One compiled strategy step. `#[repr(C)]` keeps the hot fields on one
/// cache line per pair of instructions (32 bytes each).
#[derive(Debug, Clone, Copy)]
pub struct Instr {
    /// The arc this step attempts.
    pub arc: u32,
    /// Node whose reached-status gates this step, or [`NO_INDEX`] when
    /// the step is unconditional (interior of a path, or a path head
    /// starting at the root).
    pub guard: u32,
    /// The arc whose traversal reaches this step's source node, or
    /// [`NO_INDEX`] when the source is the root. The batch executor reads
    /// its traversed-plane as the per-lane reach mask — the bit-parallel
    /// form of the `guard` check (and of interior fallthrough).
    pub parent_arc: u32,
    /// Target node of the arc (marked reached on traversal).
    pub to: u32,
    /// Next instruction index when the guard fails or the arc is blocked:
    /// one past the end of this instruction's path.
    pub fail_jump: u32,
    /// Attempt cost `f(a)`, paid whether blocked or open.
    pub cost: f64,
    /// Whether `to` is a success node (traversal ends the run).
    pub success: bool,
    /// Whether the arc is a retrieval (used for pessimistic completion).
    pub retrieval: bool,
}

/// A strategy lowered to a flat jump-threaded instruction array, valid
/// for one ⟨graph, strategy⟩ pair.
#[derive(Debug, Clone)]
pub struct StrategyProgram {
    instrs: Vec<Instr>,
    arc_count: usize,
    node_count: usize,
    root: u32,
    /// Fingerprint of the compiled strategy (see
    /// [`Strategy::fingerprint`]) so callers can cheaply check whether a
    /// cached program still matches a current strategy.
    fingerprint: u64,
}

impl StrategyProgram {
    /// Lowers `strategy` against `g`.
    ///
    /// # Errors
    /// [`GraphError::NotTree`] if `g` is not a tree, or
    /// [`GraphError::InvalidStrategy`] if the sequence is not path-form
    /// or repeats an arc — the shapes for which jump-threading would be
    /// unsound. Callers should fall back to the interpreter.
    pub fn compile(g: &InferenceGraph, strategy: &Strategy) -> Result<Self, GraphError> {
        if !g.is_tree() {
            return Err(GraphError::NotTree("strategy programs require a tree".into()));
        }
        let mut seen = vec![false; g.arc_count()];
        for &a in strategy.arcs() {
            if a.index() >= g.arc_count() {
                return Err(GraphError::BadArc(a.0));
            }
            if seen[a.index()] {
                return Err(GraphError::InvalidStrategy(format!(
                    "arc {a} appears twice; jump-threading requires single attempts"
                )));
            }
            seen[a.index()] = true;
        }
        let paths = strategy.decompose(g)?;
        let mut instrs = Vec::with_capacity(strategy.arcs().len());
        for path in paths {
            let end = path.end as u32;
            for idx in path.clone() {
                let a = strategy.arcs()[idx];
                let data = g.arc(a);
                let head = idx == path.start;
                let guard = if head && data.from != g.root() { data.from.0 } else { NO_INDEX };
                let parent_arc = g.parent_arc(data.from).map_or(NO_INDEX, |p| p.0);
                instrs.push(Instr {
                    arc: a.0,
                    guard,
                    parent_arc,
                    to: data.to.0,
                    fail_jump: end,
                    cost: data.cost,
                    success: g.node(data.to).is_success,
                    retrieval: data.kind == ArcKind::Retrieval,
                });
            }
        }
        Ok(Self {
            instrs,
            arc_count: g.arc_count(),
            node_count: g.node_count(),
            root: g.root().0,
            fingerprint: strategy.fingerprint(),
        })
    }

    /// The instruction array, in strategy order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Arc count of the graph this program was compiled against.
    pub fn arc_count(&self) -> usize {
        self.arc_count
    }

    /// Node count of the graph this program was compiled against.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Fingerprint of the compiled strategy (matches
    /// [`Strategy::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// The jump-threaded executor: runs `p`, asking `probe` whether each
/// *attempted* arc is blocked — the same probe contract as the
/// interpreter ([`crate::context::execute_probe_into`]): exactly once per
/// attempt, in attempt order, never for a skipped arc. Trace, cost and
/// outcome are bit-identical to the interpreter on the source strategy
/// (same cost additions in the same order).
///
/// `EVENTS` selects whether the per-arc trace is recorded; the cost-only
/// instantiation compiles the event pushes away.
#[inline]
pub fn execute_program_probe_into<const EVENTS: bool>(
    p: &StrategyProgram,
    scratch: &mut RunScratch,
    mut probe: impl FnMut(ArcId) -> bool,
) -> RunOutcome {
    scratch.begin(p.node_count, p.root as usize);
    let mut pc = 0usize;
    while pc < p.instrs.len() {
        let i = &p.instrs[pc];
        if i.guard != NO_INDEX && !scratch.reached[i.guard as usize] {
            pc = i.fail_jump as usize; // whole path below an unreached head: skipped at no cost
            continue;
        }
        scratch.cost += i.cost;
        if probe(ArcId(i.arc)) {
            if EVENTS {
                scratch.events.push((ArcId(i.arc), ArcOutcome::Blocked));
            }
            pc = i.fail_jump as usize; // rest of the path can never be reached
            continue;
        }
        if EVENTS {
            scratch.events.push((ArcId(i.arc), ArcOutcome::Traversed));
        }
        scratch.reached[i.to as usize] = true;
        if i.success {
            scratch.outcome = RunOutcome::Succeeded(ArcId(i.arc));
            return scratch.outcome;
        }
        pc += 1;
    }
    scratch.outcome
}

/// Executes a compiled program against `context`, writing the trace into
/// `scratch` exactly as [`crate::context::execute_into`] would for the
/// source strategy.
///
/// # Panics
/// Panics if `context` was built for a different graph (arc-count
/// mismatch).
pub fn execute_program_into(
    p: &StrategyProgram,
    context: &Context,
    scratch: &mut RunScratch,
) -> RunOutcome {
    assert_eq!(context.arc_count(), p.arc_count, "context built for a different graph");
    execute_program_probe_into::<true>(p, scratch, |a| context.blocked[a.index()])
}

/// Cost-only program execution — the program counterpart of
/// [`crate::context::cost_into`], bit-identical to it (same additions in
/// the same order).
///
/// # Panics
/// Panics if `context` was built for a different graph.
pub fn program_cost_into(p: &StrategyProgram, context: &Context, scratch: &mut RunScratch) -> f64 {
    assert_eq!(context.arc_count(), p.arc_count, "context built for a different graph");
    execute_program_probe_into::<false>(p, scratch, |a| context.blocked[a.index()]);
    scratch.cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{cost_into, execute, execute_into, execute_probe_into};
    use crate::graph::GraphBuilder;
    use crate::testgen::{lcg_context, lcg_strategy, lcg_tree};

    fn g_b() -> InferenceGraph {
        let mut b = GraphBuilder::new("G(κ)");
        let root = b.root();
        let (_, a) = b.reduction(root, "R_ga", 1.0, "A(κ)");
        b.retrieval(a, "D_a", 1.0);
        let (_, s) = b.reduction(root, "R_gs", 1.0, "S(κ)");
        let (_, bb) = b.reduction(s, "R_sb", 1.0, "B(κ)");
        b.retrieval(bb, "D_b", 1.0);
        let (_, t) = b.reduction(s, "R_st", 1.0, "T(κ)");
        let (_, c) = b.reduction(t, "R_tc", 1.0, "C(κ)");
        b.retrieval(c, "D_c", 1.0);
        let (_, d) = b.reduction(t, "R_td", 1.0, "D(κ)");
        b.retrieval(d, "D_d", 1.0);
        b.finish().unwrap()
    }

    #[test]
    fn compile_lays_out_paths_with_jumps() {
        let g = g_b();
        let s = Strategy::left_to_right(&g);
        let p = StrategyProgram::compile(&g, &s).unwrap();
        assert_eq!(p.instrs().len(), g.arc_count());
        // Θ_ABCD paths: [0..2), [2..5), [5..8), [8..10).
        let jumps: Vec<u32> = p.instrs().iter().map(|i| i.fail_jump).collect();
        assert_eq!(jumps, [2, 2, 5, 5, 5, 8, 8, 8, 10, 10]);
        // Heads from the root need no guard; the Θ_ABCD path heads all
        // start at root or at a node reached earlier.
        assert_eq!(p.instrs()[0].guard, NO_INDEX, "root head unconditional");
        assert_ne!(p.instrs()[8].guard, NO_INDEX, "⟨R_td D_d⟩ head guarded on T");
        // Interiors are never guarded.
        assert_eq!(p.instrs()[1].guard, NO_INDEX);
        assert_eq!(p.instrs()[4].guard, NO_INDEX);
    }

    #[test]
    fn program_matches_interpreter_on_g_b_exhaustively() {
        let g = g_b();
        let mut scratch_i = RunScratch::new(&g);
        let mut scratch_p = RunScratch::new(&g);
        for s in crate::strategy::enumerate_all(&g, 100_000).unwrap() {
            let p = StrategyProgram::compile(&g, &s).unwrap();
            for mask in 0u32..1024 {
                let ctx = Context::from_fn(&g, |a| mask & (1 << a.index()) != 0);
                let a = execute_into(&g, &s, &ctx, &mut scratch_i);
                let b = execute_program_into(&p, &ctx, &mut scratch_p);
                assert_eq!(a, b, "outcome diverged (mask {mask:b})");
                assert_eq!(scratch_i.events(), scratch_p.events());
                assert_eq!(scratch_i.cost().to_bits(), scratch_p.cost().to_bits());
                let ci = cost_into(&g, &s, &ctx, &mut scratch_i);
                let cp = program_cost_into(&p, &ctx, &mut scratch_p);
                assert_eq!(ci.to_bits(), cp.to_bits());
            }
        }
    }

    #[test]
    fn relaxed_partial_strategies_compile_when_path_form() {
        // A relaxed strategy covering only the first path still lowers
        // (decompose accepts any path-form prefix) and matches the
        // interpreter.
        let g = g_b();
        let by = |l: &str| g.arc_by_label(l).unwrap();
        let s = Strategy::from_arcs_relaxed(&g, vec![by("R_ga"), by("D_a")]).unwrap();
        let p = StrategyProgram::compile(&g, &s).unwrap();
        let mut si = RunScratch::new(&g);
        let mut sp = RunScratch::new(&g);
        for mask in 0u32..1024 {
            let ctx = Context::from_fn(&g, |a| mask & (1 << a.index()) != 0);
            assert_eq!(
                execute_into(&g, &s, &ctx, &mut si),
                execute_program_into(&p, &ctx, &mut sp)
            );
            assert_eq!(si.cost().to_bits(), sp.cost().to_bits());
        }
    }

    #[test]
    fn non_path_form_sequences_rejected() {
        // ⟨R_gs R_st⟩ stops mid-path: valid relaxed strategy, but not
        // decomposable — compile must refuse rather than mis-thread.
        let g = g_b();
        let by = |l: &str| g.arc_by_label(l).unwrap();
        let s = Strategy::from_arcs_relaxed(&g, vec![by("R_gs"), by("R_st")]).unwrap();
        assert!(matches!(StrategyProgram::compile(&g, &s), Err(GraphError::InvalidStrategy(_))));
    }

    #[test]
    fn non_tree_graphs_rejected() {
        // Note-5 redundant graph: two arcs into one node.
        let mut b = GraphBuilder::new("A").allow_dag();
        let root = b.root();
        let (_, bnode) = b.reduction(root, "R_ab", 1.0, "B");
        let (_, cnode) = b.reduction(bnode, "R_bc", 1.0, "C");
        b.reduction_to(root, cnode, "R_ac", 1.0);
        b.retrieval(cnode, "D_c", 1.0);
        let g = b.finish().unwrap();
        assert!(!g.is_tree());
        let by = |l: &str| g.arc_by_label(l).unwrap();
        let s = Strategy::from_arcs_relaxed(&g, vec![by("R_ab"), by("R_bc"), by("D_c")]).unwrap();
        assert!(matches!(StrategyProgram::compile(&g, &s), Err(GraphError::NotTree(_))));
    }

    #[test]
    fn fingerprint_matches_strategy() {
        let g = g_b();
        let s = Strategy::left_to_right(&g);
        let p = StrategyProgram::compile(&g, &s).unwrap();
        assert_eq!(p.fingerprint(), s.fingerprint());
    }

    proptest::proptest! {
        /// Program execution is bit-identical to the interpreter — cost,
        /// outcome, and full event sequence — on random trees × random
        /// path-form strategies × random contexts.
        #[test]
        fn program_bitwise_matches_interpreter_on_random_trees(
            seed in 0u64..3_000,
            strat_seed in 0u64..64,
            ctx_seed in 0u64..64,
        ) {
            let (g, _) = lcg_tree(seed);
            let s = lcg_strategy(&g, strat_seed);
            let p = StrategyProgram::compile(&g, &s).unwrap();
            let ctx = lcg_context(&g, ctx_seed);
            let mut si = RunScratch::new(&g);
            let mut sp = RunScratch::new(&g);
            let oi = execute_into(&g, &s, &ctx, &mut si);
            let op = execute_program_into(&p, &ctx, &mut sp);
            proptest::prop_assert_eq!(oi, op);
            proptest::prop_assert_eq!(si.events(), sp.events());
            proptest::prop_assert_eq!(si.cost().to_bits(), sp.cost().to_bits());
            let ci = cost_into(&g, &s, &ctx, &mut si);
            let cp = program_cost_into(&p, &ctx, &mut sp);
            proptest::prop_assert_eq!(ci.to_bits(), cp.to_bits());
        }

        /// The probe contract, for both loops and both `EVENTS`
        /// instantiations: the probe is called exactly once per attempted
        /// arc, in event order, and never for an unattempted arc; the
        /// probe-driven trace is bit-identical to `execute` on the full
        /// context.
        #[test]
        fn probes_exactly_the_attempted_arcs_in_event_order(
            seed in 0u64..3_000,
            strat_seed in 0u64..64,
            ctx_seed in 0u64..64,
        ) {
            let (g, _) = lcg_tree(seed);
            let s = lcg_strategy(&g, strat_seed);
            let p = StrategyProgram::compile(&g, &s).unwrap();
            let ctx = lcg_context(&g, ctx_seed);
            let reference = execute(&g, &s, &ctx);
            let attempted: Vec<ArcId> = reference.events.iter().map(|(a, _)| *a).collect();
            let mut scratch = RunScratch::new(&g);
            let probed = std::cell::RefCell::new(Vec::new());
            let probe = |a: ArcId| {
                probed.borrow_mut().push(a);
                ctx.is_blocked(a)
            };

            let outcome = execute_probe_into::<true>(&g, &s, &mut scratch, &probe);
            proptest::prop_assert_eq!(scratch.to_trace(), reference.clone());
            proptest::prop_assert_eq!(outcome, reference.outcome);
            proptest::prop_assert_eq!(probed.take(), attempted.clone());

            let outcome = execute_program_probe_into::<true>(&p, &mut scratch, &probe);
            proptest::prop_assert_eq!(scratch.to_trace(), reference.clone());
            proptest::prop_assert_eq!(outcome, reference.outcome);
            proptest::prop_assert_eq!(probed.take(), attempted.clone());

            execute_probe_into::<false>(&g, &s, &mut scratch, &probe);
            proptest::prop_assert_eq!(scratch.cost().to_bits(), reference.cost.to_bits());
            proptest::prop_assert_eq!(scratch.outcome(), reference.outcome);
            proptest::prop_assert!(scratch.events().is_empty());
            proptest::prop_assert_eq!(probed.take(), attempted.clone());

            execute_program_probe_into::<false>(&p, &mut scratch, &probe);
            proptest::prop_assert_eq!(scratch.cost().to_bits(), reference.cost.to_bits());
            proptest::prop_assert_eq!(scratch.outcome(), reference.outcome);
            proptest::prop_assert_eq!(probed.take(), attempted);
        }

        /// The allocating reference (`execute`) also agrees — guards the
        /// scratch plumbing itself.
        #[test]
        fn program_matches_allocating_reference(seed in 0u64..500, ctx_seed in 0u64..16) {
            let (g, _) = lcg_tree(seed);
            let s = Strategy::left_to_right(&g);
            let p = StrategyProgram::compile(&g, &s).unwrap();
            let ctx = lcg_context(&g, ctx_seed);
            let reference = execute(&g, &s, &ctx);
            let mut sp = RunScratch::new(&g);
            execute_program_into(&p, &ctx, &mut sp);
            proptest::prop_assert_eq!(sp.to_trace(), reference);
        }
    }
}
