//! # qpl-obs — observability substrate
//!
//! A zero-overhead-when-disabled metrics layer for the qpl workspace.
//! Hot paths never pay for telemetry they do not use: the default
//! [`NoopSink`] reports `enabled() == false`, every instrumented call
//! site is an *opt-in variant* of the uninstrumented method (the plain
//! methods are untouched), and [`SpanTimer`] skips the clock read
//! entirely when the sink is disabled.
//!
//! The model is deliberately minimal — four primitives cover everything
//! the learning loop and the query engine need to report:
//!
//! * **counters** — monotonically increasing `u64` totals
//!   (`datalog.retrievals`, `engine.cross_context_cache.hits`, …);
//! * **values** — `f64` observations aggregated as
//!   count/sum/min/max (`core.pib.run_cost`, …);
//! * **spans** — wall-clock durations in nanoseconds, aggregated the
//!   same way (`report.sampling`, …);
//! * **events** — structured per-decision records with a small set of
//!   numeric fields (`core.pib.candidate` carries the observed Δ sum,
//!   the Chernoff threshold, and the accept/reject verdict).
//!
//! [`MemorySink`] aggregates everything in-process with deterministic
//! (sorted) iteration order, and [`JsonSnapshot`] renders a
//! schema-stable JSON document suitable for diffing across PRs next to
//! `BENCH_*.json`. The [`json`] module is the workspace's only JSON
//! code: its reader, string escaper and renderers serve the wire
//! protocol, the snapshot and every bench file alike.
//!
//! This crate depends on nothing (not even the rest of the workspace),
//! so every qpl crate — including the bottom-layer Datalog substrate —
//! can accept a `&mut dyn MetricsSink` without dependency cycles.
//!
//! ## Determinism contract
//!
//! Sinks observe; they never steer. An instrumented run must produce
//! bit-identical *results* to the uninstrumented run (the parallel
//! harness tests enforce this). Per-worker throughput events are the
//! one scheduling-dependent output: their *totals* are invariant, but
//! their per-worker split depends on which thread claimed which block.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod memory;
pub mod names;
mod sink;

pub use json::{JsonSnapshot, JsonValue, SCHEMA_VERSION};
pub use memory::{Event, MemorySink, SpanStats, ValueStats, DEFAULT_MAX_EVENTS};
pub use sink::{MetricsSink, NoopSink, SpanTimer};
