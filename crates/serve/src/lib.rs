//! qpl-serve: a zero-dependency query-serving front door for the
//! strategy-learning engine.
//!
//! Speaks line-delimited JSON over TCP (wire protocol v1, see [`wire`]),
//! steers whole jobs to one of N shared-nothing executor shards (each
//! owning a full engine replica), coalesces the queries that queue
//! while a shard is busy into 64..512-lane bit-parallel planes (see
//! [`batcher`]), refuses
//! work beyond a bounded per-shard queue instead of degrading
//! (`overloaded`), and — when enabled — hill-climbs the deployed
//! strategy online per shard, merging accepted climbs across shards
//! through a fingerprint-published strategy board (see [`server`]).
//!
//! Everything is `std`-only: sockets and threads are hand-rolled, and
//! JSON goes through `qpl-obs`'s one JSON module, so the crate adds no
//! dependency surface beyond the workspace's own crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod server;
pub mod wire;

pub use batcher::{Batcher, LaneWeight};
pub use server::{
    fallback_shard, steer_shard, ServeEngine, Server, ServerConfig, MEMO_CAPACITY,
    MEMO_MAX_ENTRY_BYTES,
};
pub use wire::{
    parse_request, JsonValue, LaneResult, Request, ShardStatsView, StatsView, WIRE_VERSION,
};
