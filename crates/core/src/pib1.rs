//! PIB₁ — the one-shot "smart filter" (Section 3.1).
//!
//! PIB₁ watches `QP = ⟨G, Θ⟩` answer queries, maintaining the statistics
//! needed to decide whether one *specific* proposed transformation
//! (interchanging sibling arcs `r₁`, `r₂`) would improve the expected
//! cost. It permits the switch only when Equation 2 holds for the
//! accumulated under-estimates:
//!
//! ```text
//! Δ̃[Θ, Θ', S]  >  Λ · sqrt((|S|/2) · ln(1/δ))
//! ```
//!
//! which guarantees, with confidence `1 − δ`, that `C[Θ'] < C[Θ]`.
//!
//! For the Figure-1 graph this reduces to the paper's Equation 3 counter
//! form `k_g·f*(R_p) − k_p·f*(R_g) ≥ (f*(R_p)+f*(R_g))·sqrt((m/2)ln(1/δ))`
//! — the tests verify the two formulations coincide.

use crate::delta::{delta_tilde_with, DeltaScratch};
use crate::transform::SiblingSwap;
use qpl_graph::batch::{execute_batch, BatchRun, ContextBatch};
use qpl_graph::context::{cost_into, Context, RunScratch, Trace};
use qpl_graph::graph::InferenceGraph;
use qpl_graph::program::StrategyProgram;
use qpl_graph::strategy::Strategy;
use qpl_graph::GraphError;
use qpl_obs::names::core as names;
use qpl_stats::PairedDifference;

/// PIB₁'s verdict after a batch of observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pib1Decision {
    /// Equation 2 holds: switch to the transformed strategy.
    Switch,
    /// Insufficient evidence: keep the current strategy.
    Keep,
}

/// The one-shot filter for a single proposed transformation.
#[derive(Debug, Clone)]
pub struct Pib1 {
    theta: Strategy,
    theta_prime: Strategy,
    delta: f64,
    acc: PairedDifference,
    scratch: DeltaScratch,
}

impl Pib1 {
    /// Creates the filter for the proposed sibling swap of `theta`.
    ///
    /// # Errors
    /// [`GraphError::InapplicableTransform`] if the swap cannot be
    /// applied to `theta`, or [`GraphError::BadProbability`] for a bad
    /// `δ`.
    pub fn new(
        g: &InferenceGraph,
        theta: Strategy,
        swap: SiblingSwap,
        delta: f64,
    ) -> Result<Self, GraphError> {
        if !(delta > 0.0 && delta < 1.0) {
            return Err(GraphError::BadProbability(delta));
        }
        let theta_prime = swap.apply(g, &theta)?;
        let lambda = swap.lambda(g);
        Ok(Self {
            theta,
            theta_prime,
            delta,
            acc: PairedDifference::new(lambda),
            scratch: DeltaScratch::new(g),
        })
    }

    /// The monitored strategy `Θ`.
    pub fn theta(&self) -> &Strategy {
        &self.theta
    }

    /// The proposed strategy `Θ'`.
    pub fn theta_prime(&self) -> &Strategy {
        &self.theta_prime
    }

    /// Samples observed so far (`m`).
    pub fn samples(&self) -> u64 {
        self.acc.count()
    }

    /// Accumulated `Δ̃[Θ, Θ', S]`.
    pub fn accumulated(&self) -> f64 {
        self.acc.sum()
    }

    /// Observes one context: runs `Θ`, updates the statistics, and
    /// returns the execution trace (the caller typically also wants the
    /// answer).
    pub fn observe(&mut self, g: &InferenceGraph, ctx: &Context) -> Trace {
        let trace = qpl_graph::context::execute(g, &self.theta, ctx);
        self.absorb(g, &trace);
        trace
    }

    /// Observes a whole [`ContextBatch`] at once: `Θ` runs as a compiled
    /// program over every lane, `Θ'` is probed against the
    /// pessimistic-completion planes, and the per-lane differences are
    /// recorded in lane order — bit-identical to calling
    /// [`observe`](Self::observe) per lane. PIB₁'s pair is fixed, so no
    /// mid-batch recompilation can occur; strategies the compiler
    /// rejects fall back to the scalar interpreter.
    pub fn observe_batch(&mut self, g: &InferenceGraph, batch: &ContextBatch) {
        let programs = StrategyProgram::compile(g, &self.theta)
            .and_then(|t| StrategyProgram::compile(g, &self.theta_prime).map(|tp| (t, tp)));
        let Ok((theta_prog, prime_prog)) = programs else {
            let mut ctx = Context::all_open(g);
            for lane in 0..batch.lanes() {
                batch.extract_lane(lane, &mut ctx);
                self.observe(g, &ctx);
            }
            return;
        };
        let mut run = BatchRun::new();
        let mut cand = BatchRun::new();
        let mut completed = ContextBatch::new(0, 0);
        let active = batch.active_mask();
        execute_batch(&theta_prog, batch, active, &mut run);
        run.completion_into(g, &mut completed);
        execute_batch(&prime_prog, &completed, active, &mut cand);
        for lane in 0..batch.lanes() {
            self.acc.record(run.cost(lane) - cand.cost(lane));
        }
    }

    /// Updates statistics from an externally produced trace of `Θ`.
    pub fn absorb(&mut self, g: &InferenceGraph, trace: &Trace) {
        self.acc.record(delta_tilde_with(
            g,
            trace.cost,
            &trace.events,
            &self.theta_prime,
            &mut self.scratch,
        ));
    }

    /// Equation 2's verdict on the evidence so far.
    ///
    /// PIB₁ is the paper's *one-shot* filter: the `1 − δ` guarantee
    /// covers a **single** evaluation of this test at a sample size
    /// chosen in advance. Polling it after every sample (as some tests
    /// here do for convenience) re-uses the same δ repeatedly; for a
    /// sequentially-valid version use [`Pib`](crate::pib::Pib), whose
    /// `δᵢ = 6δ/(π²i²)` schedule is built for exactly that.
    pub fn decision(&self) -> Pib1Decision {
        if self.acc.certifies_improvement(self.delta) {
            Pib1Decision::Switch
        } else {
            Pib1Decision::Keep
        }
    }

    /// Equation 2's threshold at the current sample count.
    pub fn threshold(&self) -> f64 {
        self.acc.threshold(self.delta)
    }

    /// Emits the filter's current evidence as one `core.pib1.decision`
    /// event (samples `m`, Δ̃ sum, Equation 2 threshold, switch verdict)
    /// plus a `core.pib1.samples` counter. Call at the one-shot decision
    /// point; the sink observes, never steers.
    pub fn emit_to(&self, sink: &mut dyn qpl_obs::MetricsSink) {
        sink.counter(names::PIB1_SAMPLES, self.samples());
        if sink.enabled() {
            let switch = self.decision() == Pib1Decision::Switch;
            sink.event(
                names::PIB1_DECISION,
                &[
                    ("samples", self.samples() as f64),
                    ("delta_sum", self.accumulated()),
                    ("threshold", self.threshold()),
                    ("switch", f64::from(u8::from(switch))),
                ],
            );
        }
    }
}

/// The *a posteriori* comparator the paper describes before introducing
/// Δ̃: "first construct the new Θ' and then time both it, and the
/// original Θ, solving a particular set of queries … this corresponds to
/// the paired-t confidence \[LK82\]".
///
/// Each context is executed under **both** strategies, so the exact
/// paired difference `Δ = c(Θ, I) − c(Θ', I)` feeds Equation 2 — twice
/// the query-processing work of [`Pib1`], but strictly more informative
/// evidence (`E[Δ] ≥ E[Δ̃]`), so it can approve switches the a priori
/// filter cannot (see the comparison test below and experiment E16's
/// discussion of Δ̃'s conservatism).
#[derive(Debug, Clone)]
pub struct Pib1Posteriori {
    theta: Strategy,
    theta_prime: Strategy,
    delta: f64,
    acc: PairedDifference,
    scratch: RunScratch,
}

impl Pib1Posteriori {
    /// Creates the a posteriori comparator for a proposed sibling swap.
    ///
    /// # Errors
    /// As for [`Pib1::new`].
    pub fn new(
        g: &InferenceGraph,
        theta: Strategy,
        swap: SiblingSwap,
        delta: f64,
    ) -> Result<Self, GraphError> {
        if !(delta > 0.0 && delta < 1.0) {
            return Err(GraphError::BadProbability(delta));
        }
        let theta_prime = swap.apply(g, &theta)?;
        let lambda = swap.lambda(g);
        Ok(Self {
            theta,
            theta_prime,
            delta,
            acc: PairedDifference::new(lambda),
            scratch: RunScratch::new(g),
        })
    }

    /// Runs *both* strategies on the context and records the exact
    /// paired difference. Returns `(c(Θ, I), c(Θ', I))`.
    pub fn observe(&mut self, g: &InferenceGraph, ctx: &Context) -> (f64, f64) {
        let a = cost_into(g, &self.theta, ctx, &mut self.scratch);
        let b = cost_into(g, &self.theta_prime, ctx, &mut self.scratch);
        self.acc.record(a - b);
        (a, b)
    }

    /// Samples observed so far.
    pub fn samples(&self) -> u64 {
        self.acc.count()
    }

    /// Equation 2's verdict on the exact-difference evidence.
    pub fn decision(&self) -> Pib1Decision {
        if self.acc.certifies_improvement(self.delta) {
            Pib1Decision::Switch
        } else {
            Pib1Decision::Keep
        }
    }
}

/// The paper's Equation 3, in its original counter form for a two-path
/// disjunctive graph: given `m` samples of which `k_p` found a solution
/// under `r₁` and `k_g` found one under `r₂` but not `r₁`, switch iff
///
/// ```text
/// k_g·f*(r₁) − k_p·f*(r₂)  ≥  (f*(r₁)+f*(r₂))·sqrt((m/2)·ln(1/δ))
/// ```
pub fn equation3_switch(
    f_star_r1: f64,
    f_star_r2: f64,
    m: u64,
    k_p: u64,
    k_g: u64,
    delta: f64,
) -> bool {
    let lhs = k_g as f64 * f_star_r1 - k_p as f64 * f_star_r2;
    let rhs = qpl_stats::chernoff::sum_threshold(m, delta, f_star_r1 + f_star_r2);
    lhs >= rhs
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpl_graph::expected::{ContextDistribution, FiniteDistribution, IndependentModel};
    use qpl_graph::graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn g_a() -> InferenceGraph {
        let mut b = GraphBuilder::new("instructor(κ)");
        let root = b.root();
        let (_, prof) = b.reduction(root, "R_p", 1.0, "prof(κ)");
        b.retrieval(prof, "D_p", 1.0);
        let (_, grad) = b.reduction(root, "R_g", 1.0, "grad(κ)");
        b.retrieval(grad, "D_g", 1.0);
        b.finish().unwrap()
    }

    fn root_swap(g: &InferenceGraph) -> SiblingSwap {
        SiblingSwap::new(g, g.arc_by_label("R_p").unwrap(), g.arc_by_label("R_g").unwrap()).unwrap()
    }

    #[test]
    fn switches_when_alternative_clearly_better() {
        // grad succeeds 80% of the time, prof 5%: grad-first is much
        // better; PIB₁ must discover this.
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.05, 0.8]).unwrap();
        let mut pib1 = Pib1::new(&g, Strategy::left_to_right(&g), root_swap(&g), 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let mut switched_at = None;
        for i in 0..5000 {
            pib1.observe(&g, &model.sample(&mut rng));
            if pib1.decision() == Pib1Decision::Switch {
                switched_at = Some(i);
                break;
            }
        }
        let at = switched_at.expect("PIB₁ should approve the switch");
        assert!(at < 2000, "took too long: {at}");
    }

    #[test]
    fn keeps_when_current_strategy_is_optimal() {
        // prof succeeds 80%, grad 5%: prof-first is already optimal;
        // PIB₁ must never approve the swap.
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.8, 0.05]).unwrap();
        let mut pib1 = Pib1::new(&g, Strategy::left_to_right(&g), root_swap(&g), 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..5000 {
            pib1.observe(&g, &model.sample(&mut rng));
            assert_eq!(pib1.decision(), Pib1Decision::Keep);
        }
    }

    #[test]
    fn counter_form_matches_general_form_on_g_a() {
        // Drive both formulations with the same context stream and check
        // they agree at every step. On G_A with Θ₁ observed:
        //   solution under R_p             → Δ̃ = −f*(R_g), counts k_p;
        //   solution under R_g (not R_p)   → Δ̃ = +f*(R_p), counts k_g;
        //   no solution                    → Δ̃ = 0.
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.3, 0.5]).unwrap();
        let mut pib1 = Pib1::new(&g, Strategy::left_to_right(&g), root_swap(&g), 0.1).unwrap();
        let dp = g.arc_by_label("D_p").unwrap();
        let dg = g.arc_by_label("D_g").unwrap();
        let (mut m, mut k_p, mut k_g) = (0u64, 0u64, 0u64);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..800 {
            let ctx = model.sample(&mut rng);
            pib1.observe(&g, &ctx);
            m += 1;
            if !ctx.is_blocked(dp) {
                k_p += 1;
            } else if !ctx.is_blocked(dg) {
                k_g += 1;
            }
            let general = pib1.decision() == Pib1Decision::Switch;
            let counters = equation3_switch(2.0, 2.0, m, k_p, k_g, 0.1);
            assert_eq!(general, counters, "divergence at m={m}, k_p={k_p}, k_g={k_g}");
        }
    }

    #[test]
    fn false_positive_rate_below_delta() {
        // Make both strategies *exactly* equal in cost (symmetric
        // probabilities) and measure how often PIB₁ wrongly approves
        // within a fixed horizon; must be ≤ δ (any approval when
        // D[Θ,Θ'] = 0 counts against the bound's slack).
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.4, 0.4]).unwrap();
        let delta = 0.1;
        let trials = 400;
        let horizon = 300;
        let mut wrong = 0;
        for t in 0..trials {
            let mut pib1 =
                Pib1::new(&g, Strategy::left_to_right(&g), root_swap(&g), delta).unwrap();
            let mut rng = StdRng::seed_from_u64(1000 + t);
            for _ in 0..horizon {
                pib1.observe(&g, &model.sample(&mut rng));
                if pib1.decision() == Pib1Decision::Switch {
                    wrong += 1;
                    break;
                }
            }
        }
        let rate = wrong as f64 / trials as f64;
        assert!(rate <= delta, "false-positive rate {rate} exceeds δ={delta}");
    }

    #[test]
    fn works_with_finite_distributions() {
        // The Section-2 "minors" scenario: no queried individual is a
        // professor, so grad-first strictly dominates; PIB₁ approves.
        let g = g_a();
        let dp = g.arc_by_label("D_p").unwrap();
        let dg = g.arc_by_label("D_g").unwrap();
        let minors = FiniteDistribution::new(vec![
            (Context::with_blocked(&g, &[dp]), 0.7),     // grad holds
            (Context::with_blocked(&g, &[dp, dg]), 0.3), // neither holds
        ])
        .unwrap();
        let mut pib1 = Pib1::new(&g, Strategy::left_to_right(&g), root_swap(&g), 0.02).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut approved = false;
        for _ in 0..3000 {
            pib1.observe(&g, &minors.sample(&mut rng));
            if pib1.decision() == Pib1Decision::Switch {
                approved = true;
                break;
            }
        }
        assert!(approved);
    }

    #[test]
    fn batched_observation_matches_scalar_byte_for_byte() {
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.3, 0.5]).unwrap();
        // Every plane width, always with a partial last batch
        // (500 = 7×64 + 52 = 3×128 + 116 = 256 + 244 = 488 + 12).
        for plane_lanes in [64usize, 128, 256, 512] {
            let mut rng = StdRng::seed_from_u64(23);
            let ctxs: Vec<Context> = (0..500).map(|_| model.sample(&mut rng)).collect();
            let mut scalar =
                Pib1::new(&g, Strategy::left_to_right(&g), root_swap(&g), 0.1).unwrap();
            let mut batched =
                Pib1::new(&g, Strategy::left_to_right(&g), root_swap(&g), 0.1).unwrap();
            for chunk in ctxs.chunks(plane_lanes) {
                let mut b = ContextBatch::new(g.arc_count(), chunk.len());
                for (lane, ctx) in chunk.iter().enumerate() {
                    scalar.observe(&g, ctx);
                    b.set_lane(lane, ctx);
                }
                batched.observe_batch(&g, &b);
                assert_eq!(scalar.samples(), batched.samples(), "width {plane_lanes}");
                assert_eq!(scalar.accumulated().to_bits(), batched.accumulated().to_bits());
                assert_eq!(scalar.decision(), batched.decision());
                assert_eq!(scalar.threshold().to_bits(), batched.threshold().to_bits());
            }
        }
    }

    #[test]
    fn bad_delta_rejected() {
        let g = g_a();
        assert!(Pib1::new(&g, Strategy::left_to_right(&g), root_swap(&g), 0.0).is_err());
        assert!(Pib1::new(&g, Strategy::left_to_right(&g), root_swap(&g), 1.0).is_err());
    }

    #[test]
    fn a_posteriori_sees_what_a_priori_cannot() {
        // E16's construction in miniature: the true improvement is real
        // (D > 0) but the observable under-estimate has E[Δ̃] < 0, so the
        // a priori filter never switches while the paired-t comparator
        // does. Root: cheap D_0 (p=.17) vs a subtree whose two
        // retrievals are perfectly correlated (q=.3) — here expressed
        // directly as a finite distribution.
        let mut b = qpl_graph::GraphBuilder::new("q");
        let root = b.root();
        let d0 = b.retrieval(root, "D_0", 1.0);
        let (r, sub) = b.reduction(root, "R", 1.0, "sub");
        let d1 = b.retrieval(sub, "D_1", 1.0);
        let d2 = b.retrieval(sub, "D_2", 1.0);
        let g = b.finish().unwrap();
        // With p0 = 0.10, q = 0.3: C[D0-first] = 1 + 0.9·2.7 = 3.43 and
        // C[sub-first] = 2.7 + 0.7 = 3.40, so swapping the subtree ahead
        // of D_0 is a true +0.03 improvement. The observable evidence,
        // however, is E[Δ̃] = 0.27·(+1) + 0.10·(−3) = −0.03 < 0: when
        // D_0 succeeds, the subtree is unexplored and assumed fully
        // blocked, overcharging the alternative by its whole f*.
        let (p0, q) = (0.10, 0.3);
        let truth = FiniteDistribution::new(vec![
            (Context::with_blocked(&g, &[]), p0 * q),
            (Context::with_blocked(&g, &[d1, d2]), p0 * (1.0 - q)),
            (Context::with_blocked(&g, &[d0]), (1.0 - p0) * q),
            (Context::with_blocked(&g, &[d0, d1, d2]), (1.0 - p0) * (1.0 - q)),
        ])
        .unwrap();
        let by = |arcs: Vec<qpl_graph::ArcId>| Strategy::from_arcs(&g, arcs).unwrap();
        let d0_first = by(vec![d0, r, d1, d2]);
        let swap = SiblingSwap::new(&g, d0, r).unwrap();
        // True D = C[d0_first] − C[sub_first] = 3.43 − 3.4 = +0.03 > 0.
        let sub_first = swap.apply(&g, &d0_first).unwrap();
        let c_d0 = truth.expected_cost(&g, &d0_first);
        let c_sub = truth.expected_cost(&g, &sub_first);
        assert!(c_sub < c_d0, "swap is a true improvement: {c_sub} < {c_d0}");

        let mut apriori = Pib1::new(&g, d0_first.clone(), swap, 0.05).unwrap();
        let mut aposteriori = Pib1Posteriori::new(&g, d0_first, swap, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(61);
        let mut posterior_switched = None;
        for i in 0..400_000u32 {
            let ctx = truth.sample(&mut rng);
            apriori.observe(&g, &ctx);
            aposteriori.observe(&g, &ctx);
            assert_eq!(
                apriori.decision(),
                Pib1Decision::Keep,
                "a priori filter must stay blind to this improvement (E[Δ̃] < 0)"
            );
            if posterior_switched.is_none() && aposteriori.decision() == Pib1Decision::Switch {
                posterior_switched = Some(i);
            }
        }
        assert!(
            posterior_switched.is_some(),
            "paired-t comparator should certify the +0.03 improvement"
        );
    }

    #[test]
    fn a_posteriori_agrees_on_easy_cases() {
        // On a clearly-better alternative both filters approve; the
        // paired-t one with fewer samples.
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.05, 0.8]).unwrap();
        let swap = root_swap(&g);
        let mut apriori = Pib1::new(&g, Strategy::left_to_right(&g), swap, 0.05).unwrap();
        let mut aposteriori =
            Pib1Posteriori::new(&g, Strategy::left_to_right(&g), swap, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(62);
        let (mut m_pri, mut m_post) = (None, None);
        for i in 0..10_000u32 {
            let ctx = model.sample(&mut rng);
            apriori.observe(&g, &ctx);
            aposteriori.observe(&g, &ctx);
            if m_pri.is_none() && apriori.decision() == Pib1Decision::Switch {
                m_pri = Some(i);
            }
            if m_post.is_none() && aposteriori.decision() == Pib1Decision::Switch {
                m_post = Some(i);
            }
            if m_pri.is_some() && m_post.is_some() {
                break;
            }
        }
        let (pri, post) = (m_pri.unwrap(), m_post.unwrap());
        assert!(post <= pri, "exact evidence should not be slower: {post} vs {pri}");
    }

    #[test]
    fn threshold_grows_like_sqrt_m() {
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.5, 0.5]).unwrap();
        let mut pib1 = Pib1::new(&g, Strategy::left_to_right(&g), root_swap(&g), 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..100 {
            pib1.observe(&g, &model.sample(&mut rng));
        }
        let t100 = pib1.threshold();
        for _ in 0..300 {
            pib1.observe(&g, &model.sample(&mut rng));
        }
        let t400 = pib1.threshold();
        assert!((t400 / t100 - 2.0).abs() < 1e-9, "sqrt(400/100) = 2");
    }
}
