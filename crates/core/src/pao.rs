//! PAO — the probably-approximately-optimal learner (Section 4).
//!
//! PAO's pipeline: compute the required trial counts (Equation 7 for
//! retrievals, Equation 8 for general experiments), watch an adaptive
//! query processor until every counter is satisfied, form the frequency
//! vector `p̂`, and hand it to `Υ_AOT`. Theorems 2 and 3 guarantee
//! `C[Θ_pao] ≤ C[Θ_opt] + ε` with probability `≥ 1 − δ`.
//!
//! The literal Equation 7/8 counts are enormous for small `ε` — they are
//! worst-case Hoeffding bounds. [`PaoConfig::with_sample_cap`] clamps
//! them for experimentation (the `ε`-guarantee then degrades gracefully;
//! experiment E7 measures actual accuracy against the theoretical
//! requirement).

use crate::upsilon::optimal_strategy;
use qpl_engine::adaptive::AdaptiveQp;
use qpl_graph::context::{Context, Trace};
use qpl_graph::graph::{ArcId, InferenceGraph};
use qpl_graph::strategy::Strategy;
use qpl_graph::{GraphError, IndependentModel};
use qpl_obs::names::core as names;
use qpl_stats::sample::{theorem2_samples, theorem3_attempts};

/// Which theorem's sampling discipline to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaoMode {
    /// Theorem 2: sample each retrieval `m(dᵢ)` times (assumes every
    /// retrieval is reachable).
    Theorem2,
    /// Theorem 3: *attempt to reach* each experiment `m'(eᵢ)` times
    /// (handles unreachable experiments via `ρ(eᵢ)`).
    Theorem3,
}

/// PAO configuration.
#[derive(Debug, Clone, Copy)]
pub struct PaoConfig {
    /// Target sub-optimality `ε`.
    pub epsilon: f64,
    /// Confidence parameter `δ`.
    pub delta: f64,
    /// Sampling discipline.
    pub mode: PaoMode,
    /// Optional clamp on per-target trial counts (practical knob; `None`
    /// uses the exact theorem values).
    pub sample_cap: Option<u64>,
}

impl PaoConfig {
    /// Theorem-2 configuration with exact sample counts.
    pub fn theorem2(epsilon: f64, delta: f64) -> Self {
        Self { epsilon, delta, mode: PaoMode::Theorem2, sample_cap: None }
    }

    /// Theorem-3 configuration with exact sample counts.
    pub fn theorem3(epsilon: f64, delta: f64) -> Self {
        Self { epsilon, delta, mode: PaoMode::Theorem3, sample_cap: None }
    }

    /// Clamps each target's required trials to at most `cap`.
    pub fn with_sample_cap(mut self, cap: u64) -> Self {
        self.sample_cap = Some(cap);
        self
    }
}

/// The PAO learner: sampling phase driven by `QP^A`, then `Υ`.
#[derive(Debug, Clone)]
pub struct Pao {
    config: PaoConfig,
    qp: AdaptiveQp,
    targets: Vec<ArcId>,
}

impl Pao {
    /// Creates a PAO learner for `g`. In Theorem-2 mode the targets are
    /// the retrieval arcs; in Theorem-3 mode every arc is treated as a
    /// potential experiment (pass an explicit list via
    /// [`Pao::with_experiments`] to restrict).
    ///
    /// # Errors
    /// [`GraphError::NotTree`] for non-tree graphs or
    /// [`GraphError::BadProbability`] for invalid `ε`/`δ`.
    pub fn new(g: &InferenceGraph, config: PaoConfig) -> Result<Self, GraphError> {
        match config.mode {
            PaoMode::Theorem2 => {
                let targets: Vec<ArcId> = g.retrievals().collect();
                Self::build(g, config, targets)
            }
            PaoMode::Theorem3 => {
                let targets: Vec<ArcId> = g.arc_ids().collect();
                Self::build(g, config, targets)
            }
        }
    }

    /// Theorem-3 PAO over an explicit experiment set (arcs known to be
    /// deterministic can be omitted; their probability is fixed at 1).
    ///
    /// # Errors
    /// As for [`Pao::new`].
    pub fn with_experiments(
        g: &InferenceGraph,
        config: PaoConfig,
        experiments: Vec<ArcId>,
    ) -> Result<Self, GraphError> {
        Self::build(g, config, experiments)
    }

    fn build(
        g: &InferenceGraph,
        config: PaoConfig,
        targets: Vec<ArcId>,
    ) -> Result<Self, GraphError> {
        if !g.is_tree() {
            return Err(GraphError::NotTree("PAO requires a tree-shaped graph".into()));
        }
        if config.epsilon.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(GraphError::BadProbability(config.epsilon));
        }
        if !(config.delta > 0.0 && config.delta < 1.0) {
            return Err(GraphError::BadProbability(config.delta));
        }
        let n = targets.len().max(1);
        let needed: Vec<u64> = targets
            .iter()
            .map(|&a| {
                let f_not = g.f_not(a);
                let m = match config.mode {
                    PaoMode::Theorem2 => theorem2_samples(f_not, config.epsilon, config.delta, n),
                    PaoMode::Theorem3 => theorem3_attempts(f_not, config.epsilon, config.delta, n),
                };
                match config.sample_cap {
                    Some(cap) => m.min(cap),
                    None => m,
                }
            })
            .collect();
        let qp = AdaptiveQp::for_experiments(targets.iter().copied().zip(needed).collect());
        Ok(Self { config, qp, targets })
    }

    /// The configuration in force.
    pub fn config(&self) -> &PaoConfig {
        &self.config
    }

    /// The per-target required trial counts (`M = ⟨m₁, …, mₙ⟩`).
    pub fn required_samples(&self) -> Vec<(ArcId, u64)> {
        self.qp.stats().iter().map(|s| (s.arc, s.needed)).collect()
    }

    /// The underlying adaptive processor's statistics.
    pub fn stats(&self) -> &[qpl_engine::adaptive::AimStat] {
        self.qp.stats()
    }

    /// Whether the sampling phase is complete.
    pub fn done(&self) -> bool {
        self.qp.done()
    }

    /// Total contexts consumed.
    pub fn runs(&self) -> u64 {
        self.qp.runs()
    }

    /// Feeds one context to the adaptive processor. Returns the trace,
    /// or `None` once sampling is complete.
    pub fn observe(&mut self, g: &InferenceGraph, ctx: &Context) -> Option<Trace> {
        self.qp.observe(g, ctx)
    }

    /// Feeds a whole [`ContextBatch`](qpl_graph::batch::ContextBatch) to
    /// the adaptive processor through the bit-parallel executor —
    /// byte-identical counters (and therefore a byte-identical `p̂` and
    /// final strategy) to feeding the lanes to [`observe`](Self::observe)
    /// one at a time. Returns the number of lanes consumed; sampling can
    /// complete mid-batch, leaving the remaining lanes untouched.
    pub fn observe_batch(
        &mut self,
        g: &InferenceGraph,
        batch: &qpl_graph::batch::ContextBatch,
    ) -> u64 {
        self.qp.observe_batch(g, batch)
    }

    /// Emits the sampling plan and its progress into a
    /// [`MetricsSink`](qpl_obs::MetricsSink): `core.pao.targets` and
    /// `core.pao.samples_required` counters, one `core.pao.allocation`
    /// event per experiment arc with its Equation 7/8 trial count, and
    /// the underlying `QP^A`'s `engine.adaptive.*` telemetry.
    pub fn emit_to(&self, sink: &mut dyn qpl_obs::MetricsSink) {
        sink.counter(names::PAO_TARGETS, self.targets.len() as u64);
        let required = self.required_samples();
        sink.counter(names::PAO_SAMPLES_REQUIRED, required.iter().map(|&(_, m)| m).sum());
        if sink.enabled() {
            for (arc, needed) in required {
                sink.event(
                    names::PAO_ALLOCATION,
                    &[("arc", f64::from(arc.0)), ("needed", needed as f64)],
                );
            }
        }
        self.qp.emit_to(sink);
    }

    /// The estimated model: targets get their frequency estimates
    /// (`p̂ᵢ = n/k`, or `0.5` when never reached), non-targets stay
    /// deterministic.
    pub fn estimated_model(&self, g: &InferenceGraph) -> IndependentModel {
        let mut model = IndependentModel::uniform(g, 1.0).expect("1.0 is a valid probability");
        for stat in self.qp.stats() {
            // Reductions estimated at exactly 1 stay deterministic so the
            // fast Υ applies; anything else records its estimate.
            model.set_prob(stat.arc, stat.p_hat()).expect("frequency estimates are in [0,1]");
        }
        model
    }

    /// Finishes: `Θ_pao = Υ_AOT(G, p̂)`.
    ///
    /// # Errors
    /// [`GraphError::InvalidStrategy`] if sampling is not complete, or an
    /// optimizer error for intractable cases.
    pub fn finish(&self, g: &InferenceGraph) -> Result<(Strategy, IndependentModel), GraphError> {
        if !self.done() {
            return Err(GraphError::InvalidStrategy(format!(
                "sampling incomplete: {:?} of {} targets satisfied",
                self.qp.stats().iter().filter(|s| s.done()).count(),
                self.targets.len()
            )));
        }
        let model = self.estimated_model(g);
        let (strategy, _) = optimal_strategy(g, &model, 1_000_000)?;
        Ok((strategy, model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpl_graph::expected::ContextDistribution;
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
    fn end_to_end_on_g_a_finds_optimal() {
        let g = g_a();
        let truth = IndependentModel::from_retrieval_probs(&g, &[0.2, 0.6]).unwrap();
        let mut pao = Pao::new(&g, PaoConfig::theorem2(0.5, 0.1).with_sample_cap(3000)).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        while !pao.done() {
            let ctx = truth.sample(&mut rng);
            pao.observe(&g, &ctx);
        }
        let (strategy, _) = pao.finish(&g).unwrap();
        assert_eq!(strategy.display(&g).to_string(), "⟨R_g D_g R_p D_p⟩", "Θ₂ optimal");
    }

    #[test]
    fn epsilon_guarantee_holds_on_g_b() {
        // With the exact Theorem-2 counts the guarantee is near-certain;
        // with a generous ε the capped version still achieves it here.
        let g = g_b();
        let truth = IndependentModel::from_retrieval_probs(&g, &[0.35, 0.15, 0.55, 0.75]).unwrap();
        let (_, c_opt) = crate::upsilon::optimal_strategy(&g, &truth, 1_000_000).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..10 {
            let mut pao =
                Pao::new(&g, PaoConfig::theorem2(1.0, 0.1).with_sample_cap(2000)).unwrap();
            while !pao.done() {
                let ctx = truth.sample(&mut rng);
                pao.observe(&g, &ctx);
            }
            let (strategy, _) = pao.finish(&g).unwrap();
            let c_pao = truth.expected_cost(&g, &strategy);
            assert!(
                c_pao <= c_opt + 1.0 + 1e-9,
                "trial {trial}: C[Θ_pao]={c_pao} exceeds C[Θ_opt]+ε={}",
                c_opt + 1.0
            );
        }
    }

    #[test]
    fn required_samples_match_equation7() {
        let g = g_a();
        let pao = Pao::new(&g, PaoConfig::theorem2(0.5, 0.1)).unwrap();
        for (arc, m) in pao.required_samples() {
            let expected = theorem2_samples(g.f_not(arc), 0.5, 0.1, 2);
            assert_eq!(m, expected);
        }
    }

    #[test]
    fn theorem3_mode_counts_all_arcs() {
        let g = g_a();
        let pao = Pao::new(&g, PaoConfig::theorem3(0.5, 0.1)).unwrap();
        assert_eq!(pao.required_samples().len(), 4, "reductions are experiments too");
    }

    #[test]
    fn theorem3_handles_unreachable_experiment() {
        // R_p blocked in every context (the grad(fred)-style guard never
        // fires): PAO must still terminate and produce a near-optimal
        // strategy despite never sampling D_p.
        let g = g_a();
        let mut truth = IndependentModel::from_retrieval_probs(&g, &[0.9, 0.4]).unwrap();
        truth.set_prob(g.arc_by_label("R_p").unwrap(), 0.0).unwrap();
        let mut pao = Pao::new(&g, PaoConfig::theorem3(1.0, 0.1).with_sample_cap(2000)).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        while !pao.done() {
            let ctx = truth.sample(&mut rng);
            pao.observe(&g, &ctx);
        }
        let dp = g.arc_by_label("D_p").unwrap();
        let dp_stat = pao.stats().iter().find(|s| s.arc == dp).unwrap();
        assert_eq!(dp_stat.reached, 0, "D_p is unreachable");
        assert!(dp_stat.attempts >= dp_stat.needed.min(2000));
        let (strategy, model) = pao.finish(&g).unwrap();
        // D_p's estimate defaulted to 0.5; R_p's estimate is ≈ 0.
        assert!((model.prob(dp) - 0.5).abs() < 1e-12);
        assert!(model.prob(g.arc_by_label("R_p").unwrap()) < 0.05);
        // The learned strategy must be near-optimal under the truth.
        let c = truth.expected_cost(&g, &strategy);
        let (_, c_opt) = crate::upsilon::optimal_strategy(&g, &truth, 1_000_000).unwrap();
        assert!(c <= c_opt + 1.0 + 1e-9, "C={c} vs opt={c_opt}");
    }

    #[test]
    fn batched_sampling_yields_identical_final_strategy() {
        // PAO end-to-end, batching on vs off over the same context
        // stream: identical counters, identical p̂, identical Θ_pao.
        let g = g_b();
        let truth = IndependentModel::from_retrieval_probs(&g, &[0.35, 0.15, 0.55, 0.75]).unwrap();
        let cfg = PaoConfig::theorem2(1.0, 0.1).with_sample_cap(500);
        for lanes in [64usize, 128, 512] {
            let mut scalar = Pao::new(&g, cfg).unwrap();
            let mut batched = Pao::new(&g, cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(42);
            while !batched.done() {
                let mut b = qpl_graph::batch::ContextBatch::new(g.arc_count(), lanes);
                let mut ctxs = Vec::with_capacity(lanes);
                for lane in 0..lanes {
                    let ctx = truth.sample(&mut rng);
                    b.set_lane(lane, &ctx);
                    ctxs.push(ctx);
                }
                let consumed = batched.observe_batch(&g, &b);
                for ctx in ctxs.iter().take(consumed as usize) {
                    scalar.observe(&g, ctx);
                }
            }
            assert!(scalar.done(), "plane of {lanes} lanes");
            assert_eq!(scalar.runs(), batched.runs());
            for (a, b) in scalar.stats().iter().zip(batched.stats()) {
                assert_eq!(
                    (a.arc, a.attempts, a.reached, a.successes),
                    (b.arc, b.attempts, b.reached, b.successes)
                );
            }
            let (s_strat, s_model) = scalar.finish(&g).unwrap();
            let (b_strat, b_model) = batched.finish(&g).unwrap();
            assert_eq!(s_strat.arcs(), b_strat.arcs());
            for a in g.arc_ids() {
                assert_eq!(s_model.prob(a).to_bits(), b_model.prob(a).to_bits());
            }
        }
    }

    #[test]
    fn finish_before_done_rejected() {
        let g = g_a();
        let pao = Pao::new(&g, PaoConfig::theorem2(0.5, 0.1)).unwrap();
        assert!(pao.finish(&g).is_err());
    }

    #[test]
    fn bad_parameters_rejected() {
        let g = g_a();
        assert!(Pao::new(&g, PaoConfig::theorem2(0.0, 0.1)).is_err());
        assert!(Pao::new(&g, PaoConfig::theorem2(0.5, 1.0)).is_err());
    }

    #[test]
    fn tighter_epsilon_needs_more_samples() {
        let g = g_a();
        let loose = Pao::new(&g, PaoConfig::theorem2(1.0, 0.1)).unwrap();
        let tight = Pao::new(&g, PaoConfig::theorem2(0.1, 0.1)).unwrap();
        let total = |p: &Pao| p.required_samples().iter().map(|(_, m)| m).sum::<u64>();
        assert!(total(&tight) > total(&loose) * 50, "quadratic growth in 1/ε");
    }
}
