//! Bit-parallel batched context execution, width-generic over the plane
//! word count.
//!
//! A [`ContextBatch`] stores up to [`MAX_LANES`] sampled contexts in
//! structure-of-arrays form: one `[u64; W]` *blocked-bitplane block per
//! arc* (arc-major, `W` words per arc), bit `l mod 64` of word `l / 64`
//! giving lane `l`'s blocked status for that arc. The plane width `W` is
//! one of {1, 2, 4, 8} — 64, 128, 256, or 512 lanes — and is always the
//! smallest width that fits the occupied lane count, so existing 64-lane
//! callers get the exact single-`u64` layout they had before.
//!
//! [`execute_batch`] runs a compiled [`StrategyProgram`] over all lanes
//! at once: each instruction ANDs the alive mask with the
//! traversed-plane of its source's parent arc (the bit-parallel form of
//! the scalar `reached[from]` check), pays its cost to every attempting
//! lane, and splits the attempt mask into traversed/blocked planes with
//! three bitwise ops per word. Lanes retire from `alive` the moment they
//! succeed. The hot loop is monomorphized per width (`match width`
//! dispatch to a `const W: usize` inner), so every mask op, lane
//! restart, and dense cost add is a straight-line loop over `W` words
//! the compiler can unroll and auto-vectorize.
//!
//! Because lanes diverge, the batch executor cannot jump-thread the way
//! the scalar program does — it visits every instruction — but an
//! instruction whose attempt mask is zero costs `W` loads and ANDs, so
//! the per-lane amortized work is still far below one tree-walk, and
//! wider planes amortize the per-instruction dispatch over more lanes.
//!
//! ## Determinism contract
//!
//! Batch results are bit-identical to `lanes` scalar program runs,
//! lane-for-lane, at every width: per-lane cost accumulators add the
//! same `f64`s in the same (instruction) order the scalar executor
//! would, outcomes and reconstructed event sequences
//! ([`BatchRun::events_into`]) match exactly, and
//! [`BatchRun::completion_into`] reproduces
//! [`crate::pessimistic_completion`] in plane form. Lanes are
//! independent accumulators, so plane width is a layout choice, not a
//! semantic one — a 512-lane batch drains byte-identically to eight
//! 64-lane batches. Combined with the engine's fixed 64-sample blocks
//! (`DEFAULT_BLOCK`), batched learners make byte-identical decisions at
//! every worker count and every plane width.
//!
//! An `active` input mask ([`LaneMask`]) supports mid-batch restarts:
//! when a learner climbs to a new strategy halfway through draining a
//! batch, the remaining lanes re-run under the new program with the
//! drained lanes masked out.

use crate::context::{ArcOutcome, Context, RunOutcome};
use crate::graph::{ArcId, ArcKind, InferenceGraph};
use crate::program::{StrategyProgram, NO_INDEX};

/// Number of context lanes in one plane word — the width-1 batch size,
/// and the engine's deterministic sampling block size.
pub const LANES: usize = 64;

/// Maximum plane width in words. Widths are powers of two in
/// `1..=MAX_WIDTH` so lane → (word, bit) splits are shift/mask ops and
/// partially-filled tails always land in the last word.
pub const MAX_WIDTH: usize = 8;

/// Maximum lanes in one batch: [`MAX_WIDTH`] words of [`LANES`] lanes.
pub const MAX_LANES: usize = LANES * MAX_WIDTH;

/// The smallest supported plane width (in words) that fits `lanes`
/// lanes: 1, 2, 4, or 8.
///
/// # Panics
/// Invariant assert: panics if `lanes` exceeds [`MAX_LANES`].
pub fn width_for_lanes(lanes: usize) -> usize {
    assert!(lanes <= MAX_LANES, "at most {MAX_LANES} lanes per batch");
    let words = lanes.div_ceil(LANES).max(1);
    words.next_power_of_two()
}

/// Splits a lane index into its (plane word, bit) coordinates.
#[inline]
fn lane_word_bit(lane: usize) -> (usize, u64) {
    (lane / LANES, 1u64 << (lane % LANES))
}

/// A set of lanes, up to [`MAX_LANES`] wide — the mask currency of the
/// batch executor (active lanes, succeeded lanes, mid-batch restarts).
///
/// Stored as a fixed `[u64; MAX_WIDTH]`; words beyond a batch's plane
/// width are simply ignored by the executor (it ANDs with the batch's
/// [`ContextBatch::active_mask`]), so `ALL` means "every lane the batch
/// has" at any width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneMask {
    words: [u64; MAX_WIDTH],
}

impl LaneMask {
    /// No lanes selected.
    pub const NONE: Self = Self { words: [0; MAX_WIDTH] };

    /// Every lane selected (clipped to occupancy by the executor).
    pub const ALL: Self = Self { words: [!0; MAX_WIDTH] };

    /// A mask from its low (first) word only — the width-1 shape every
    /// pre-widening `u64` mask had. Lanes 64.. are unselected.
    pub const fn low(word: u64) -> Self {
        let mut words = [0; MAX_WIDTH];
        words[0] = word;
        Self { words }
    }

    /// Word `w` of the mask.
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Whether lane `lane` is selected.
    pub fn test(&self, lane: usize) -> bool {
        let (w, bit) = lane_word_bit(lane);
        self.words[w] & bit != 0
    }

    /// Selects lane `lane`.
    pub fn set(&mut self, lane: usize) {
        let (w, bit) = lane_word_bit(lane);
        self.words[w] |= bit;
    }

    /// Number of selected lanes.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether no lane is selected.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

impl std::ops::BitAnd for LaneMask {
    type Output = Self;
    fn bitand(mut self, rhs: Self) -> Self {
        for (a, b) in self.words.iter_mut().zip(rhs.words) {
            *a &= b;
        }
        self
    }
}

impl std::ops::BitOr for LaneMask {
    type Output = Self;
    fn bitor(mut self, rhs: Self) -> Self {
        for (a, b) in self.words.iter_mut().zip(rhs.words) {
            *a |= b;
        }
        self
    }
}

impl std::ops::Not for LaneMask {
    type Output = Self;
    fn not(mut self) -> Self {
        for w in &mut self.words {
            *w = !*w;
        }
        self
    }
}

/// Mask selecting the first `lanes` lanes of a `width`-word plane — the
/// one place the "shift by 64 overflows" edge is handled, shared by
/// every width. Full words are `!0`; a partial tail is `(1 << rem) - 1`;
/// `lanes == width * 64` never shifts at all.
///
/// # Panics
/// Invariant assert: panics if `width` exceeds [`MAX_WIDTH`] or `lanes`
/// exceeds `width * LANES`.
pub fn tail_mask(width: usize, lanes: usize) -> LaneMask {
    assert!(width <= MAX_WIDTH, "plane width {width} exceeds {MAX_WIDTH}");
    assert!(lanes <= width * LANES, "{lanes} lanes exceed a {width}-word plane");
    let mut words = [0u64; MAX_WIDTH];
    let full = lanes / LANES;
    for w in words.iter_mut().take(full) {
        *w = !0;
    }
    let rem = lanes % LANES;
    if rem != 0 {
        words[full] = (1u64 << rem) - 1;
    }
    LaneMask { words }
}

/// Mask selecting lanes `from..lanes` — the shape of a mid-batch
/// restart, with already-drained lanes masked out.
///
/// # Panics
/// Debug-panics unless `from ≤ lanes ≤ MAX_LANES`.
pub fn lanes_from(from: usize, lanes: usize) -> LaneMask {
    debug_assert!(from <= lanes && lanes <= MAX_LANES);
    tail_mask(MAX_WIDTH, lanes.min(MAX_LANES)) & !tail_mask(MAX_WIDTH, from.min(lanes))
}

/// Up to [`MAX_LANES`] contexts in structure-of-arrays form: one
/// `[u64; width]` blocked-bitplane block per arc (arc-major), bit
/// `l % 64` of word `l / 64` = lane `l`'s status. The width is always
/// [`width_for_lanes`] of the occupied lane count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextBatch {
    planes: Vec<u64>,
    width: usize,
    lanes: usize,
}

impl ContextBatch {
    /// An all-open batch of `lanes` contexts over `arc_count` arcs.
    ///
    /// # Panics
    /// Invariant assert: panics if `lanes` exceeds [`MAX_LANES`].
    /// Callers size batches from [`LANES`]/[`MAX_LANES`] themselves; the
    /// serving front door bounds untrusted lane counts before a batch is
    /// built (`parse_request` and the batcher's plane cut).
    pub fn new(arc_count: usize, lanes: usize) -> Self {
        let width = width_for_lanes(lanes);
        Self { planes: vec![0; arc_count * width], width, lanes }
    }

    /// Clears and resizes this batch in place (buffer-reuse counterpart
    /// of [`new`](Self::new)).
    ///
    /// # Panics
    /// Invariant assert: panics if `lanes` exceeds [`MAX_LANES`] (see
    /// [`new`](Self::new)).
    pub fn reset(&mut self, arc_count: usize, lanes: usize) {
        let width = width_for_lanes(lanes);
        self.planes.clear();
        self.planes.resize(arc_count * width, 0);
        self.width = width;
        self.lanes = lanes;
    }

    /// Number of arcs each lane covers.
    pub fn arc_count(&self) -> usize {
        self.planes.len() / self.width
    }

    /// Number of occupied lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Plane width in words ∈ {1, 2, 4, 8} — 64 × width lane capacity.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Lane capacity of the current plane width.
    pub fn lane_capacity(&self) -> usize {
        self.width * LANES
    }

    /// Mask with one bit set per occupied lane.
    pub fn active_mask(&self) -> LaneMask {
        tail_mask(self.width, self.lanes)
    }

    /// The blocked-bitplane block of `a`: `width` words.
    pub fn plane(&self, a: ArcId) -> &[u64] {
        let i = a.index() * self.width;
        &self.planes[i..i + self.width]
    }

    /// Whether `a` is blocked in lane `lane`.
    pub fn is_blocked(&self, lane: usize, a: ArcId) -> bool {
        debug_assert!(lane < self.lanes);
        let (w, bit) = lane_word_bit(lane);
        self.planes[a.index() * self.width + w] & bit != 0
    }

    /// Sets the blocked status of `a` in lane `lane`.
    pub fn set_blocked(&mut self, lane: usize, a: ArcId, blocked: bool) {
        debug_assert!(lane < self.lanes);
        let (w, bit) = lane_word_bit(lane);
        write_bit(&mut self.planes[a.index() * self.width + w], bit, blocked);
    }

    /// Copies a scalar context into lane `lane`.
    ///
    /// The lane's (word, bit) coordinates are hoisted out of the per-arc
    /// loop, which is then a branch-free masked write per arc — the same
    /// word-indexed path [`set_blocked`](Self::set_blocked) uses (both
    /// go through one shared bit-write helper, micro-asserted against
    /// the branchy form).
    ///
    /// # Panics
    /// Invariant assert: panics if the context's arc count differs from
    /// the batch's — both must come from the same graph, which internal
    /// callers guarantee by construction.
    pub fn set_lane(&mut self, lane: usize, ctx: &Context) {
        assert_eq!(
            ctx.arc_count(),
            self.planes.len() / self.width,
            "context/batch arc-count mismatch"
        );
        debug_assert!(lane < self.lanes);
        let (word, bit) = lane_word_bit(lane);
        for (plane, &blocked) in
            self.planes.iter_mut().skip(word).step_by(self.width).zip(&ctx.blocked)
        {
            write_bit(plane, bit, blocked);
        }
    }

    /// Copies lane `lane` out into a scalar context (resizing it to fit).
    pub fn extract_lane(&self, lane: usize, out: &mut Context) {
        debug_assert!(lane < self.lanes);
        let (word, bit) = lane_word_bit(lane);
        out.blocked.clear();
        out.blocked.extend(self.planes.iter().skip(word).step_by(self.width).map(|p| p & bit != 0));
    }
}

/// Writes one lane's bit into a plane word without branching: clear the
/// bit, then OR it back in iff `blocked`. Micro-asserted equal to the
/// branchy `if blocked { |= } else { &= ! }` form it replaced.
#[inline]
fn write_bit(plane: &mut u64, bit: u64, blocked: bool) {
    let next = (*plane & !bit) | ((blocked as u64).wrapping_neg() & bit);
    debug_assert_eq!(next, if blocked { *plane | bit } else { *plane & !bit });
    *plane = next;
}

/// Result planes of one batched program execution: per-arc attempted /
/// traversed masks, per-lane cost accumulators, and terminal outcomes.
/// Sized to the executed batch's plane width on every
/// [`execute_batch`].
#[derive(Debug, Clone)]
pub struct BatchRun {
    attempted: Vec<u64>,
    traversed: Vec<u64>,
    width: usize,
    cost: Vec<f64>,
    success_arc: Vec<u32>,
    succeeded: LaneMask,
    active_in: LaneMask,
}

impl BatchRun {
    /// An empty result buffer, reusable across executions (of any
    /// width).
    pub fn new() -> Self {
        Self {
            attempted: Vec::new(),
            traversed: Vec::new(),
            width: 1,
            cost: Vec::new(),
            success_arc: Vec::new(),
            succeeded: LaneMask::NONE,
            active_in: LaneMask::NONE,
        }
    }

    fn begin(&mut self, arc_count: usize, width: usize, active: LaneMask) {
        self.width = width;
        self.attempted.clear();
        self.attempted.resize(arc_count * width, 0);
        self.traversed.clear();
        self.traversed.resize(arc_count * width, 0);
        self.cost.clear();
        self.cost.resize(width * LANES, 0.0);
        self.success_arc.clear();
        self.success_arc.resize(width * LANES, NO_INDEX);
        self.succeeded = LaneMask::NONE;
        self.active_in = active;
    }

    /// Plane width (words) of the executed batch.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Lane capacity of the executed width (`width * 64`) — the stride
    /// of per-lane accessors like [`cost`](Self::cost).
    pub fn lane_capacity(&self) -> usize {
        self.width * LANES
    }

    /// The lanes this run actually executed (input mask ∧ occupancy).
    pub fn active_in(&self) -> LaneMask {
        self.active_in
    }

    /// Mask of lanes whose run succeeded.
    pub fn succeeded_mask(&self) -> LaneMask {
        self.succeeded
    }

    /// Attempted-plane block of `a` (bit `l % 64` of word `l / 64` =
    /// lane `l` paid the arc's cost).
    pub fn attempted_plane(&self, a: ArcId) -> &[u64] {
        let i = a.index() * self.width;
        &self.attempted[i..i + self.width]
    }

    /// Traversed-plane block of `a`.
    pub fn traversed_plane(&self, a: ArcId) -> &[u64] {
        let i = a.index() * self.width;
        &self.traversed[i..i + self.width]
    }

    /// Lane `lane`'s total run cost.
    pub fn cost(&self, lane: usize) -> f64 {
        self.cost[lane]
    }

    /// Lane `lane`'s terminal outcome.
    pub fn outcome(&self, lane: usize) -> RunOutcome {
        if self.succeeded.test(lane) {
            RunOutcome::Succeeded(ArcId(self.success_arc[lane]))
        } else {
            RunOutcome::Exhausted
        }
    }

    /// Reconstructs lane `lane`'s scalar event sequence (identical to
    /// what the scalar executor would have pushed) into `out`.
    pub fn events_into(
        &self,
        p: &StrategyProgram,
        lane: usize,
        out: &mut Vec<(ArcId, ArcOutcome)>,
    ) {
        out.clear();
        let (word, bit) = lane_word_bit(lane);
        for i in p.instrs() {
            let a = i.arc as usize * self.width + word;
            if self.attempted[a] & bit != 0 {
                let outcome = if self.traversed[a] & bit != 0 {
                    ArcOutcome::Traversed
                } else {
                    ArcOutcome::Blocked
                };
                out.push((ArcId(i.arc), outcome));
            }
        }
    }

    /// Whether lane `lane` attempted `a` during the run, and with what
    /// outcome — the plane-form, O(1) equivalent of a linear search over
    /// the lane's event list.
    pub fn outcome_in(&self, lane: usize, a: ArcId) -> Option<ArcOutcome> {
        let (word, bit) = lane_word_bit(lane);
        let i = a.index() * self.width + word;
        if self.attempted[i] & bit == 0 {
            None
        } else if self.traversed[i] & bit != 0 {
            Some(ArcOutcome::Traversed)
        } else {
            Some(ArcOutcome::Blocked)
        }
    }

    /// Writes the pessimistic completion (Section 5.2 / `delta_tilde`'s
    /// input) of every lane into `out` in plane form, matching
    /// [`crate::pessimistic_completion`] lane-for-lane: a retrieval is
    /// blocked unless observed traversed (`!traversed`), a reduction is
    /// open unless observed blocked (`attempted ∧ ¬traversed`). The
    /// formulas cover unattempted arcs automatically. `out` is resized
    /// to this run's full lane capacity (same width).
    pub fn completion_into(&self, g: &InferenceGraph, out: &mut ContextBatch) {
        let w = self.width;
        assert_eq!(g.arc_count() * w, self.attempted.len(), "run/graph arc-count mismatch");
        out.reset(g.arc_count(), w * LANES);
        for a in g.arc_ids() {
            let i = a.index() * w;
            match g.arc(a).kind {
                ArcKind::Retrieval => {
                    for word in 0..w {
                        out.planes[i + word] = !self.traversed[i + word];
                    }
                }
                ArcKind::Reduction => {
                    for word in 0..w {
                        out.planes[i + word] = self.attempted[i + word] & !self.traversed[i + word];
                    }
                }
            }
        }
    }
}

impl Default for BatchRun {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs a compiled program over every lane of `batch` selected by
/// `active`, filling `run`. Returns the mask of lanes that succeeded.
///
/// Per-lane results are bit-identical to scalar
/// [`crate::program::execute_program_into`] runs on the extracted
/// contexts at every plane width: each lane's cost adds the same
/// instruction costs in the same order (the outer loop is instruction
/// order, matching the scalar program counter), and the
/// attempted/traversed planes encode the same event sequences.
///
/// # Panics
/// Invariant assert: panics if `batch` was built for a different graph
/// than `p`. Both always derive from the same `InferenceGraph` in
/// every caller.
pub fn execute_batch(
    p: &StrategyProgram,
    batch: &ContextBatch,
    active: LaneMask,
    run: &mut BatchRun,
) -> LaneMask {
    assert_eq!(batch.arc_count(), p.arc_count(), "batch built for a different graph");
    match batch.width {
        1 => execute_batch_w::<1>(p, batch, active, run),
        2 => execute_batch_w::<2>(p, batch, active, run),
        4 => execute_batch_w::<4>(p, batch, active, run),
        8 => execute_batch_w::<8>(p, batch, active, run),
        w => unreachable!("plane width {w} is not one of 1/2/4/8"),
    }
}

/// Width-monomorphized executor core: every plane op is a fixed `W`-word
/// loop (unrollable, auto-vectorizable), and the per-word cost add keeps
/// the exact dense/sparse split the width-1 path had — so `W = 1` is
/// instruction-for-instruction the pre-widening executor.
fn execute_batch_w<const W: usize>(
    p: &StrategyProgram,
    batch: &ContextBatch,
    active: LaneMask,
    run: &mut BatchRun,
) -> LaneMask {
    run.begin(p.arc_count(), W, active & batch.active_mask());
    let mut alive = [0u64; W];
    for (w, word) in alive.iter_mut().enumerate() {
        *word = run.active_in.word(w);
    }
    for i in p.instrs() {
        // Reach mask: lanes whose source node is reached. The root is
        // always reached; any other node is reached iff its unique
        // parent arc was traversed (tree invariant — same argument that
        // justifies scalar jump-threading). An untouched parent plane is
        // zero, which correctly reads as "not reached".
        let mut attempt = [0u64; W];
        let mut any = 0u64;
        if i.parent_arc == NO_INDEX {
            for w in 0..W {
                attempt[w] = alive[w];
                any |= attempt[w];
            }
        } else {
            let parent = i.parent_arc as usize * W;
            for w in 0..W {
                attempt[w] = alive[w] & run.traversed[parent + w];
                any |= attempt[w];
            }
        }
        if any == 0 {
            continue;
        }
        let a = i.arc as usize * W;
        for (w, &aw) in attempt.iter().enumerate() {
            let trav = aw & !batch.planes[a + w];
            run.attempted[a + w] = aw;
            run.traversed[a + w] = trav;
        }
        // Pay the arc cost per attempting lane. Scalar equivalence only
        // needs each lane's own *instruction* order to match, which the
        // outer loop guarantees — lanes are independent accumulators, so
        // the iteration scheme across lanes within one instruction is
        // free. Dense words take a branch-free select the compiler can
        // vectorize: non-attempting lanes add +0.0, which is exact on
        // these accumulators (they start at +0.0 and finite-sum to -0.0
        // never), so per-lane bits are untouched. Sparse words keep the
        // bit loop to avoid touching all 64 accumulators.
        let cost_bits = i.cost.to_bits();
        for (w, &aw) in attempt.iter().enumerate() {
            if aw == 0 {
                continue;
            }
            let costs = &mut run.cost[w * LANES..(w + 1) * LANES];
            if aw.count_ones() >= 16 {
                for (lane, c) in costs.iter_mut().enumerate() {
                    let keep = ((aw >> lane) & 1).wrapping_neg();
                    *c += f64::from_bits(cost_bits & keep);
                }
            } else {
                let mut m = aw;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    costs[lane] += i.cost;
                    m &= m - 1;
                }
            }
        }
        if i.success {
            let mut any_alive = 0u64;
            for (w, alive_w) in alive.iter_mut().enumerate() {
                let trav = run.traversed[a + w];
                if trav != 0 {
                    let mut s = trav;
                    while s != 0 {
                        let lane = s.trailing_zeros() as usize;
                        run.success_arc[w * LANES + lane] = i.arc;
                        s &= s - 1;
                    }
                    run.succeeded.words[w] |= trav;
                    *alive_w &= !trav;
                }
                any_alive |= *alive_w;
            }
            if any_alive == 0 {
                break;
            }
        }
    }
    run.succeeded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{execute_into, RunScratch};
    use crate::pessimistic::pessimistic_completion_into;
    use crate::program::{execute_program_into, StrategyProgram};
    use crate::strategy::Strategy;
    use crate::testgen::{lcg_context, lcg_strategy, lcg_tree};

    fn fill_batch(g: &InferenceGraph, seed: u64, lanes: usize) -> (ContextBatch, Vec<Context>) {
        let mut batch = ContextBatch::new(g.arc_count(), lanes);
        let mut ctxs = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let ctx = lcg_context(g, seed ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            batch.set_lane(lane, &ctx);
            ctxs.push(ctx);
        }
        (batch, ctxs)
    }

    #[test]
    fn width_for_lanes_picks_the_smallest_power_of_two() {
        for (lanes, width) in [
            (0, 1),
            (1, 1),
            (63, 1),
            (64, 1),
            (65, 2),
            (128, 2),
            (129, 4),
            (256, 4),
            (257, 8),
            (511, 8),
            (512, 8),
        ] {
            assert_eq!(width_for_lanes(lanes), width, "lanes {lanes}");
        }
    }

    #[test]
    fn tail_mask_handles_every_word_boundary() {
        assert_eq!(tail_mask(1, 0), LaneMask::NONE);
        assert_eq!(tail_mask(8, 0), LaneMask::NONE);
        assert_eq!(tail_mask(1, 63), LaneMask::low((1u64 << 63) - 1));
        assert_eq!(tail_mask(1, 64), LaneMask::low(!0));
        assert_eq!(tail_mask(8, 64).word(0), !0);
        assert_eq!(tail_mask(8, 64).word(1), 0);
        let m65 = tail_mask(2, 65);
        assert_eq!((m65.word(0), m65.word(1)), (!0, 1));
        let m511 = tail_mask(8, 511);
        assert!((0..7).all(|w| m511.word(w) == !0));
        assert_eq!(m511.word(7), (1u64 << 63) - 1);
        assert_eq!(tail_mask(8, 512), LaneMask::ALL);
        assert_eq!(tail_mask(8, 512).count_ones(), 512);
        assert_eq!(tail_mask(8, 511).count_ones(), 511);
    }

    #[test]
    #[should_panic(expected = "lanes exceed")]
    fn tail_mask_rejects_lanes_past_the_width() {
        let _ = tail_mask(1, 65);
    }

    #[test]
    fn lanes_from_selects_the_undrained_suffix() {
        assert_eq!(lanes_from(0, 64), LaneMask::low(!0));
        assert_eq!(lanes_from(0, 5), LaneMask::low(0b11111));
        assert_eq!(lanes_from(3, 5), LaneMask::low(0b11000));
        assert_eq!(lanes_from(5, 5), LaneMask::NONE);
        assert_eq!(lanes_from(64, 64), LaneMask::NONE);
        assert_eq!(lanes_from(1, 64), LaneMask::low(!1));
        // Wider shapes: drain across a word boundary.
        let m = lanes_from(70, 130);
        assert_eq!(m.word(0), 0);
        assert_eq!(m.word(1), !((1u64 << 6) - 1));
        assert_eq!(m.word(2), 0b11);
        assert_eq!(lanes_from(512, 512), LaneMask::NONE);
        assert_eq!(lanes_from(0, 512).count_ones(), 512);
    }

    #[test]
    fn lane_roundtrip_preserves_contexts_at_every_width() {
        let (g, _) = lcg_tree(7);
        for lanes in [LANES, 130, 512] {
            let (batch, ctxs) = fill_batch(&g, 3, lanes);
            assert_eq!(batch.width(), width_for_lanes(lanes));
            let mut out = Context::all_open(&g);
            for (lane, ctx) in ctxs.iter().enumerate() {
                batch.extract_lane(lane, &mut out);
                assert_eq!(&out, ctx, "lane {lane}");
                for a in g.arc_ids() {
                    assert_eq!(batch.is_blocked(lane, a), ctx.is_blocked(a));
                }
            }
        }
    }

    #[test]
    fn batch_matches_scalar_runs_lane_for_lane() {
        let mut events = Vec::new();
        for seed in 0..40u64 {
            let (g, _) = lcg_tree(seed);
            let s = lcg_strategy(&g, seed.wrapping_add(17));
            let p = StrategyProgram::compile(&g, &s).unwrap();
            // Rotate the widths across seeds to cover 64..512 lanes.
            let lanes = [64, 128, 256, 512][(seed % 4) as usize];
            let (batch, ctxs) = fill_batch(&g, seed, lanes);
            let mut run = BatchRun::new();
            execute_batch(&p, &batch, LaneMask::ALL, &mut run);
            let mut scratch = RunScratch::new(&g);
            for (lane, ctx) in ctxs.iter().enumerate() {
                let scalar = execute_program_into(&p, ctx, &mut scratch);
                assert_eq!(run.outcome(lane), scalar, "seed {seed} lane {lane}");
                assert_eq!(
                    run.cost(lane).to_bits(),
                    scratch.cost().to_bits(),
                    "seed {seed} lane {lane}"
                );
                run.events_into(&p, lane, &mut events);
                assert_eq!(events.as_slice(), scratch.events(), "seed {seed} lane {lane}");
                for a in g.arc_ids() {
                    assert_eq!(
                        run.outcome_in(lane, a),
                        scratch.events().iter().find(|(x, _)| *x == a).map(|(_, o)| *o)
                    );
                }
            }
        }
    }

    #[test]
    fn batch_matches_interpreter_not_just_program() {
        // Closes the loop against the original interpreter, not only the
        // scalar program executor.
        for seed in 0..20u64 {
            let (g, _) = lcg_tree(seed);
            let s = lcg_strategy(&g, seed);
            let p = StrategyProgram::compile(&g, &s).unwrap();
            let (batch, ctxs) = fill_batch(&g, seed ^ 0xABCD, 64);
            let mut run = BatchRun::new();
            execute_batch(&p, &batch, LaneMask::ALL, &mut run);
            let mut scratch = RunScratch::new(&g);
            for (lane, ctx) in ctxs.iter().enumerate() {
                let outcome = execute_into(&g, &s, ctx, &mut scratch);
                assert_eq!(run.outcome(lane), outcome);
                assert_eq!(run.cost(lane).to_bits(), scratch.cost().to_bits());
            }
        }
    }

    #[test]
    fn partial_batches_and_active_masks_respected() {
        let (g, _) = lcg_tree(11);
        let s = Strategy::left_to_right(&g);
        let p = StrategyProgram::compile(&g, &s).unwrap();
        let lanes = 23;
        let (batch, _) = fill_batch(&g, 5, lanes);
        assert_eq!(batch.active_mask(), LaneMask::low((1u64 << lanes) - 1));
        let mut run = BatchRun::new();
        // Request more lanes than occupied: clipped to occupancy.
        execute_batch(&p, &batch, LaneMask::ALL, &mut run);
        assert_eq!(run.active_in(), LaneMask::low((1u64 << lanes) - 1));
        // Restrict to a sub-mask (mid-batch restart shape): masked-out
        // lanes stay untouched — zero cost, exhausted outcome.
        let sub = LaneMask::low(0b1010_1010);
        let mut sub_run = BatchRun::new();
        execute_batch(&p, &batch, sub, &mut sub_run);
        assert_eq!(sub_run.active_in(), sub);
        for lane in 0..lanes {
            if sub.test(lane) {
                assert_eq!(sub_run.cost(lane).to_bits(), run.cost(lane).to_bits());
                assert_eq!(sub_run.outcome(lane), run.outcome(lane));
            } else {
                assert_eq!(sub_run.cost(lane), 0.0);
                assert_eq!(sub_run.outcome(lane), RunOutcome::Exhausted);
            }
        }
    }

    #[test]
    fn completion_matches_pessimistic_completion_per_lane() {
        let mut completed = ContextBatch::new(0, 0);
        for seed in 0..30u64 {
            let (g, _) = lcg_tree(seed);
            let s = lcg_strategy(&g, seed ^ 0xF00D);
            let p = StrategyProgram::compile(&g, &s).unwrap();
            let lanes = [64, 192, 512][(seed % 3) as usize];
            let (batch, ctxs) = fill_batch(&g, seed, lanes);
            let mut run = BatchRun::new();
            execute_batch(&p, &batch, LaneMask::ALL, &mut run);
            run.completion_into(&g, &mut completed);
            assert_eq!(completed.width(), batch.width(), "completion keeps the width");
            let mut scratch = RunScratch::new(&g);
            let mut scalar_completed = Context::all_open(&g);
            let mut lane_completed = Context::all_open(&g);
            for (lane, ctx) in ctxs.iter().enumerate() {
                execute_into(&g, &s, ctx, &mut scratch);
                pessimistic_completion_into(&g, scratch.events(), &mut scalar_completed);
                completed.extract_lane(lane, &mut lane_completed);
                assert_eq!(lane_completed, scalar_completed, "seed {seed} lane {lane}");
            }
        }
    }

    proptest::proptest! {
        /// 64-lane batch execution is bit-identical to 64 scalar runs on
        /// random trees × strategies × contexts × active masks.
        #[test]
        fn batch_bitwise_matches_scalar(
            seed in 0u64..2_000,
            strat_seed in 0u64..64,
            ctx_seed in 0u64..1_000,
            active in 0u64..=u64::MAX,
        ) {
            let (g, _) = lcg_tree(seed);
            let s = lcg_strategy(&g, strat_seed);
            let p = StrategyProgram::compile(&g, &s).unwrap();
            let (batch, ctxs) = fill_batch(&g, ctx_seed, LANES);
            let mut run = BatchRun::new();
            execute_batch(&p, &batch, LaneMask::low(active), &mut run);
            let mut scratch = RunScratch::new(&g);
            let mut events = Vec::new();
            for (lane, ctx) in ctxs.iter().enumerate() {
                if active & (1 << lane) == 0 {
                    proptest::prop_assert_eq!(run.cost(lane), 0.0);
                    continue;
                }
                let scalar = execute_program_into(&p, ctx, &mut scratch);
                proptest::prop_assert_eq!(run.outcome(lane), scalar);
                proptest::prop_assert_eq!(run.cost(lane).to_bits(), scratch.cost().to_bits());
                run.events_into(&p, lane, &mut events);
                proptest::prop_assert_eq!(events.as_slice(), scratch.events());
            }
        }
    }
}
