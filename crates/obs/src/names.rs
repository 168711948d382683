//! Canonical metric-name constants for cross-crate telemetry.
//!
//! Names that cross a crate boundary — emitted in one crate, asserted
//! on or surfaced by another — live here, so producers and consumers
//! cannot drift apart silently: `qpl-serve` emits the `serve.*` names
//! and its `stats` endpoint reads them back out of a
//! [`JsonSnapshot`](crate::JsonSnapshot), the learners in `qpl-core`
//! emit the `core.*` names, and the metrics-snapshot schema in
//! `qpl-bench` requires the counters and events it names through these
//! constants. Some subsystem-local call sites still use string literals
//! in place (`"datalog.reductions"`, `"graph.batch.*"`, …).

/// Names emitted by the `qpl-serve` executor thread.
pub mod serve {
    /// Counter: query lanes executed (one per served query, batch or
    /// single).
    pub const QUERIES: &str = "serve.queries";
    /// Counter: planes executed (64..512 lanes each; see
    /// [`PLANE_WIDTH`]).
    pub const BATCHES: &str = "serve.batches";
    /// Counter: requests refused with an `overloaded` response by the
    /// admission controller.
    pub const SHED: &str = "serve.shed";
    /// Counter: lanes that failed classification (unparsable query or
    /// form mismatch) and got a per-lane error instead of an answer.
    pub const ERRORS: &str = "serve.errors";
    /// Counter: strategy climbs accepted by the online adaptation loop.
    pub const CLIMBS: &str = "serve.climbs";
    /// Value: occupied fraction of each executed plane's lane
    /// capacity (1.0 = every lane of a width × 64-lane plane full).
    pub const BATCH_FILL: &str = "serve.batch_fill";
    /// Value: width (in 64-lane words: 1/2/4/8) of each executed
    /// plane — the load-adaptive plane-width distribution.
    pub const PLANE_WIDTH: &str = "serve.plane_width";
    /// Span: wall-clock time of one plane from cut to the last reply
    /// sent: the text-keyed memo probe (hits copy their stored
    /// fragment), then for misses query parse + classify + run + render
    /// once, then reply assembly (envelope plus fragments) and respond.
    /// Ends where [`SERVICE_US`] ends, so their difference is queue
    /// wait.
    pub const EXEC: &str = "serve.exec";
    /// Span: the adaptation step after a plane's replies have left
    /// (`Pib::observe_batch`, plus publishing and journaling an
    /// accepted climb). One per executed plane when adaptation is on.
    pub const LEARN: &str = "serve.learn";
    /// Value: per-request service time in microseconds (enqueue →
    /// every reply of its plane sent).
    pub const SERVICE_US: &str = "serve.service_us";
    /// Counter: lanes answered from the per-shard answer memo without
    /// occupying plane capacity. The memo is keyed by the query text as
    /// received and holds the lane's rendered result object, so a hit
    /// is one hash lookup and a fragment copy: no query parse, no
    /// interning, no witness formatting.
    pub const CACHE_HITS: &str = "serve.cache.hits";
    /// Counter: answer-memo entries dropped because the memo reached its
    /// fixed capacity (`qpl_serve::MEMO_CAPACITY`); a full memo is
    /// cleared whole. Staleness flushes count under
    /// [`cache::SELECTIVE_INVALIDATIONS`](super::cache::SELECTIVE_INVALIDATIONS)
    /// instead.
    pub const MEMO_EVICTIONS: &str = "serve.memo.evictions";
    /// Counter: locally accepted strategy climbs this shard published
    /// to its peers via the strategy board.
    pub const SHARD_PUBLISHED: &str = "serve.shard.published";
    /// Counter: published strategies this shard adopted from a peer
    /// (fingerprint differed from its current program).
    pub const SHARD_ADOPTIONS: &str = "serve.shard.adoptions";
    /// Counter: jobs admitted at a non-home shard because the steered
    /// shard's queue was full (least-loaded fallback).
    pub const SHARD_STEER_FALLBACKS: &str = "serve.shard.steer_fallbacks";
    /// Counter: KB deltas applied by this shard (one per `update`
    /// request, regardless of how many facts it carried).
    pub const KB_DELTA_APPLIED: &str = "serve.kb.delta.applied";
    /// Counter: facts inserted by `update` requests (changed inserts
    /// only — re-asserting a present fact does not count).
    pub const KB_DELTA_INSERTED: &str = "serve.kb.delta.inserted";
    /// Counter: facts retracted by `update` requests (changed retracts
    /// only — retracting an absent fact does not count).
    pub const KB_DELTA_RETRACTED: &str = "serve.kb.delta.retracted";
}

/// Names shared by the cache layers (`qpl-engine` caches and their
/// serve-side consumers).
pub mod cache {
    /// Counter: cache entries invalidated *selectively* — dropped or
    /// repaired because a KB delta's dependency footprint intersected
    /// theirs, rather than by a wholesale generation flush.
    pub const SELECTIVE_INVALIDATIONS: &str = "cache.selective_invalidations";
}

/// Names emitted by the Datalog substrate (`qpl-datalog`).
pub mod datalog {
    /// Counter: EDB retrievals the top-down solvers attempted.
    pub const RETRIEVALS: &str = "datalog.retrievals";
    /// Counter: subgoals answered from an existing answer table.
    pub const TABLE_HITS: &str = "datalog.table_hits";
}

/// Names emitted by the query engine (`qpl-engine`).
pub mod engine {
    /// Counter: lookups the cross-context answer cache served warm.
    pub const CROSS_CONTEXT_CACHE_HITS: &str = "engine.cross_context_cache.hits";
}

/// Names emitted by the learners (`qpl-core`).
pub mod core {
    /// Counter: contexts PIB observed.
    pub const PIB_CONTEXTS: &str = "core.pib.contexts";
    /// Value: the current strategy's cost on each observed context.
    pub const PIB_RUN_COST: &str = "core.pib.run_cost";
    /// Counter: Equation-6 candidate tests PIB ran (`|T(Θⱼ)|` per
    /// acceptance test).
    pub const PIB_TESTS: &str = "core.pib.tests";
    /// Event: one per candidate per acceptance test (`candidate`,
    /// `samples`, `delta_sum`, `threshold`, `accept`).
    pub const PIB_CANDIDATE: &str = "core.pib.candidate";
    /// Counter: strategy climbs PIB accepted.
    pub const PIB_CLIMBS: &str = "core.pib.climbs";
    /// Event: one per accepted PIB climb (`samples`, `evidence`,
    /// `test_index`).
    pub const PIB_CLIMB: &str = "core.pib.climb";
    /// Counter: contexts PALO observed.
    pub const PALO_CONTEXTS: &str = "core.palo.contexts";
    /// Counter: strategy climbs PALO accepted.
    pub const PALO_CLIMBS: &str = "core.palo.climbs";
    /// Event: one per accepted PALO climb (`samples`, `mean`, `lcb`).
    pub const PALO_CLIMB: &str = "core.palo.climb";
    /// Counter: 1 when PALO stopped at a certified ε-local optimum.
    pub const PALO_STOPPED: &str = "core.palo.stopped";
    /// Event: one per neighbour in PALO's stopping certificate
    /// (`samples`, `mean`, `ucb`, `epsilon`).
    pub const PALO_CERTIFICATE: &str = "core.palo.certificate";
    /// Counter: samples the one-shot PIB1 filter has seen.
    pub const PIB1_SAMPLES: &str = "core.pib1.samples";
    /// Event: PIB1's evidence at its decision point (`samples`,
    /// `delta_sum`, `threshold`, `switch`).
    pub const PIB1_DECISION: &str = "core.pib1.decision";
    /// Counter: experiment arcs PAO allocates trials to.
    pub const PAO_TARGETS: &str = "core.pao.targets";
    /// Counter: Equation 7/8 trials PAO requires, summed over arcs.
    pub const PAO_SAMPLES_REQUIRED: &str = "core.pao.samples_required";
    /// Event: one per PAO experiment arc (`arc`, `needed`).
    pub const PAO_ALLOCATION: &str = "core.pao.allocation";
}

/// Names emitted by the query planners: the statistics-free greedy
/// orderer (`qpl-core`) and the magic-set/SIP rewriter (`qpl-datalog`
/// via its `qpl-engine` driver). Consumed by `qpl_report`'s
/// schema-checked snapshot and the CI gates.
pub mod plan {
    /// Counter: wall-clock microseconds spent planning one greedy
    /// strategy (summed over calls; the per-call budget is < 1 ms,
    /// asserted in `bench_fourway`).
    pub const GREEDY_MICROS: &str = "plan.greedy.micros";
    /// Counter: rules in the magic-rewritten program (adorned rules +
    /// magic demand rules + EDB bridges), summed over rewrites.
    pub const MAGIC_RULES_GENERATED: &str = "plan.magic.rules_generated";
}

/// Names emitted by the bottom-up evaluators.
pub mod eval {
    /// Counter: facts the magic-rewritten fixpoint did *not* derive
    /// relative to unrewritten semi-naive saturation of the same
    /// query (full-model derivations minus magic derivations).
    pub const MAGIC_FACTS_PRUNED: &str = "eval.magic.facts_pruned";
}

/// Names emitted by the durability layer (`qpl-store` via its
/// `qpl-serve` owner, shard 0). Consumed by the `stats` endpoint's
/// merged metrics snapshot and the CI kill-restart smoke.
pub mod store {
    /// Counter: records appended to the write-ahead log (KB deltas +
    /// strategy fingerprints).
    pub const WAL_APPENDS: &str = "store.wal.appends";
    /// Counter: group-commit barriers issued (one per control batch
    /// that journaled at least one record).
    pub const WAL_COMMITS: &str = "store.wal.commits";
    /// Counter: checkpoints written (snapshot + WAL truncation).
    pub const CHECKPOINTS: &str = "store.checkpoints";
    /// Counter: WAL records replayed during recovery at startup.
    pub const RECOVERY_REPLAYED: &str = "store.recovery.records_replayed";
    /// Counter: 1 when recovery found and repaired a torn WAL tail.
    pub const RECOVERY_TORN_TAIL: &str = "store.recovery.torn_tail";
    /// Counter: store I/O failures that flipped the server into
    /// degraded mode (updates shed, reads still served).
    pub const DEGRADED: &str = "store.degraded";
}

/// Names emitted by the observability runtime about itself.
pub mod obs {
    /// Counter: events silently discarded by a bounded sink at its
    /// capacity cap (summed across merged sinks).
    pub const EVENTS_DROPPED: &str = "obs.events_dropped";
}

#[cfg(test)]
mod tests {
    #[test]
    fn serve_names_are_unique_and_prefixed() {
        let all = [
            super::serve::QUERIES,
            super::serve::BATCHES,
            super::serve::SHED,
            super::serve::ERRORS,
            super::serve::CLIMBS,
            super::serve::BATCH_FILL,
            super::serve::PLANE_WIDTH,
            super::serve::EXEC,
            super::serve::LEARN,
            super::serve::SERVICE_US,
            super::serve::CACHE_HITS,
            super::serve::MEMO_EVICTIONS,
            super::serve::SHARD_PUBLISHED,
            super::serve::SHARD_ADOPTIONS,
            super::serve::SHARD_STEER_FALLBACKS,
            super::serve::KB_DELTA_APPLIED,
            super::serve::KB_DELTA_INSERTED,
            super::serve::KB_DELTA_RETRACTED,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(a.starts_with("serve."), "{a} must carry the subsystem prefix");
            assert!(!all[i + 1..].contains(a), "duplicate name {a}");
        }
    }

    #[test]
    fn cross_module_names_are_prefixed_by_their_subsystem() {
        assert!(super::cache::SELECTIVE_INVALIDATIONS.starts_with("cache."));
        assert!(super::obs::EVENTS_DROPPED.starts_with("obs."));
        assert!(super::plan::GREEDY_MICROS.starts_with("plan."));
        assert!(super::plan::MAGIC_RULES_GENERATED.starts_with("plan."));
        assert!(super::eval::MAGIC_FACTS_PRUNED.starts_with("eval."));
        assert!(super::datalog::RETRIEVALS.starts_with("datalog."));
        assert!(super::datalog::TABLE_HITS.starts_with("datalog."));
        assert!(super::engine::CROSS_CONTEXT_CACHE_HITS.starts_with("engine."));
    }

    #[test]
    fn core_names_are_unique_and_prefixed() {
        use super::core::*;
        let all = [
            PIB_CONTEXTS,
            PIB_RUN_COST,
            PIB_TESTS,
            PIB_CANDIDATE,
            PIB_CLIMBS,
            PIB_CLIMB,
            PALO_CONTEXTS,
            PALO_CLIMBS,
            PALO_CLIMB,
            PALO_STOPPED,
            PALO_CERTIFICATE,
            PIB1_SAMPLES,
            PIB1_DECISION,
            PAO_TARGETS,
            PAO_SAMPLES_REQUIRED,
            PAO_ALLOCATION,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(a.starts_with("core."), "{a} must carry the subsystem prefix");
            assert!(!all[i + 1..].contains(a), "duplicate name {a}");
        }
    }

    #[test]
    fn store_names_are_unique_and_prefixed() {
        let all = [
            super::store::WAL_APPENDS,
            super::store::WAL_COMMITS,
            super::store::CHECKPOINTS,
            super::store::RECOVERY_REPLAYED,
            super::store::RECOVERY_TORN_TAIL,
            super::store::DEGRADED,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(a.starts_with("store."), "{a} must carry the subsystem prefix");
            assert!(!all[i + 1..].contains(a), "duplicate name {a}");
        }
    }

    #[test]
    fn planner_names_are_unique() {
        let all = [
            super::plan::GREEDY_MICROS,
            super::plan::MAGIC_RULES_GENERATED,
            super::eval::MAGIC_FACTS_PRUNED,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(a), "duplicate name {a}");
        }
    }
}
