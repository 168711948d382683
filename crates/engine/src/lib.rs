//! # qpl-engine — strategy-driven query processors
//!
//! A query processor `QP = ⟨G, Θ⟩` (Section 2.1) executes concrete
//! contexts `I = ⟨q, DB⟩` by walking the inference graph in strategy
//! order, paying arc costs and discovering which arcs are blocked. This
//! crate binds the abstract machinery of `qpl-graph` to the Datalog
//! substrate of `qpl-datalog`:
//!
//! * [`qp`] — the fixed-strategy processor and the `⟨query, DB⟩ →`
//!   blocked-arc-set classification of Note 2;
//! * [`adaptive`] — the adaptive `QP^A` of Section 4.1 that re-aims its
//!   strategy per sample so every experiment gets enough trials;
//! * [`oracle`] — i.i.d. context sources (finite query mixes over a
//!   database, independent-arc synthetic models);
//! * [`cache`] — cross-context answer caching: tabled Datalog answers
//!   shared across samples in the same blocked-arc class, and
//!   whole-run `(answer, cost)` memoization, both invalidated by the
//!   database's generation counter;
//! * [`magic`] — binding-aware bottom-up answering: magic-set/SIP
//!   rewritten programs with answers cached per binding and scoped to
//!   the query's dependency footprint;
//! * [`naf`] — negation-as-failure queries (Section 5.2's `pauper`
//!   example);
//! * [`par`] — a deterministic scoped-thread sampling harness: Monte
//!   Carlo batches split across workers with counter-based per-sample
//!   seeding, bit-for-bit identical for any worker count;
//! * [`segmented`] — horizontally segmented distributed databases as a
//!   flat satisficing-scan graph (Section 5.2);
//! * [`firstk`] — the first-`k`-answers variant (Section 5.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod cache;
pub mod firstk;
pub mod magic;
pub mod naf;
pub mod oracle;
pub mod par;
pub mod qp;
pub mod segmented;

pub use adaptive::{AdaptiveQp, SamplingMode};
pub use cache::{
    context_fingerprint, strategy_fingerprint, CacheStats, CrossContextCache, DependencyFootprint,
    Memo, RunCache,
};
pub use magic::{MagicAnswer, MagicRunner};
pub use oracle::{ContextOracle, QueryMixOracle};
pub use par::{
    batch_fold, batch_fold_scratch, par_map_indexed, sample_rng, sample_seed, ParConfig,
};
pub use qp::{classify_context, classify_context_into, BatchScratch, QueryAnswer, QueryProcessor};
