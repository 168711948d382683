//! # qpl-bench — the experiment harness and benchmarks
//!
//! Reproduces every worked example, equation, and theorem of Greiner
//! (PODS'92) as a paper-vs-measured report (modules [`experiments`]),
//! and hosts the Criterion benches (`benches/`). Run the full suite
//! with:
//!
//! ```text
//! cargo run -p qpl-bench --release --bin experiments
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod schema;
