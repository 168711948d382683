//! The declared shape of every `BENCH_*.json` file and of `qpl_report`'s
//! metrics snapshot.
//!
//! Each [`Schema`] lists the key paths a document must carry and the
//! value assertions it must satisfy. Every bench bin checks its own
//! document through [`Schema::write`] before writing it, and a test
//! checks every committed `BENCH_*.json` at the repo root against the
//! same declarations.
//!
//! Key paths are dot-separated; `key[]` steps into every element of the
//! array under `key`, so `workloads[].arms[].arm` requires the key in
//! every arm of every workload. A path ending in `{a,b}` stands for
//! one path per listed key.

use qpl_obs::json::JsonValue;
use qpl_obs::names;

/// The declared shape of one JSON document.
pub struct Schema {
    /// The document's file name (committed at the repo root for the
    /// `BENCH_*.json` files).
    pub file: &'static str,
    /// Whitespace-separated key paths every document must carry.
    pub required: &'static str,
    /// Value assertions, run after every required key was found.
    pub values: fn(&JsonValue) -> Result<(), String>,
}

impl Schema {
    /// Checks `doc` against this declaration.
    ///
    /// # Errors
    /// The first missing key or failed assertion, prefixed with the file
    /// name.
    pub fn check(&self, doc: &JsonValue) -> Result<(), String> {
        let check = || {
            for path in self.required.split_whitespace() {
                match path.strip_suffix('}').and_then(|p| p.split_once('{')) {
                    Some((prefix, keys)) => keys
                        .split(',')
                        .try_for_each(|k| at(doc, &format!("{prefix}{k}")).map(drop))?,
                    None => drop(at(doc, path)?),
                }
            }
            (self.values)(doc)
        };
        check().map_err(|e| format!("{}: {e}", self.file))
    }

    /// Panics with the first problem [`check`](Self::check) finds.
    pub fn assert(&self, doc: &JsonValue) {
        if let Err(e) = self.check(doc) {
            panic!("schema check failed: {e}");
        }
    }

    /// Checks `doc`, then writes it in the pretty document form to
    /// `path`.
    ///
    /// # Panics
    /// If `doc` fails its schema or the file cannot be written.
    pub fn write(&self, doc: &JsonValue, path: &str) {
        self.assert(doc);
        std::fs::write(path, doc.to_pretty()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
}

/// Rounds `x` to `places` decimals: a number is rounded to the
/// precision its file reports before it goes into the document.
pub fn round(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// Every value at `path` under `doc`, one per array element a `key[]`
/// segment stepped through; the empty path is `doc` itself.
///
/// # Errors
/// Names the first missing key, or a `key[]` whose value is not an
/// array.
pub fn at<'a>(doc: &'a JsonValue, path: &str) -> Result<Vec<&'a JsonValue>, String> {
    let mut here = vec![(doc, String::new())];
    for segment in path.split('.').filter(|s| !s.is_empty()) {
        let (key, fan_out) = match segment.strip_suffix("[]") {
            Some(key) => (key, true),
            None => (segment, false),
        };
        let mut next = Vec::with_capacity(here.len());
        for (v, loc) in here {
            let loc = if loc.is_empty() { key.to_string() } else { format!("{loc}.{key}") };
            let child = v.get(key).ok_or_else(|| format!("missing key {loc}"))?;
            if !fan_out {
                next.push((child, loc));
                continue;
            }
            let items = child.as_array().ok_or_else(|| format!("{loc} is not an array"))?;
            next.extend(items.iter().enumerate().map(|(i, item)| (item, format!("{loc}[{i}]"))));
        }
        here = next;
    }
    Ok(here.into_iter().map(|(v, _)| v).collect())
}

/// The number at the single-valued `path` under `v`.
fn num(v: &JsonValue, path: &str) -> Result<f64, String> {
    match at(v, path)?.as_slice() {
        [one] => one.as_f64().ok_or_else(|| format!("{path} is not a number")),
        _ => Err(format!("{path} is not a single value")),
    }
}

/// The key names of the object at the single-valued `path` under `v`,
/// in document order.
fn keys<'a>(v: &'a JsonValue, path: &str) -> Result<Vec<&'a str>, String> {
    match at(v, path)?.as_slice() {
        [JsonValue::Obj(fields)] => Ok(fields.iter().map(|(k, _)| k.as_str()).collect()),
        _ => Err(format!("{path:?} is not an object")),
    }
}

/// The strings at `path` under `v` (`None` for a non-string).
fn strs<'a>(v: &'a JsonValue, path: &str) -> Result<Vec<Option<&'a str>>, String> {
    Ok(at(v, path)?.into_iter().map(JsonValue::as_str).collect())
}

/// Fails the check with a formatted message unless `$holds`.
macro_rules! ensure {
    ($holds:expr, $($msg:tt)+) => {
        let holds: bool = $holds;
        if !holds {
            return Err(format!($($msg)+));
        }
    };
}

/// The plane-width keys a width map may carry, one per width 1/2/4/8.
const WIDTH_KEYS: [&str; 4] = ["w1", "w2", "w4", "w8"];

/// `bench_program`: scalar vs compiled vs batch throughput per shape.
pub const PROGRAM: Schema = Schema {
    file: "BENCH_program.json",
    required: "bench cores note pib_end_to_end.{scalar_per_sec,batched_per_sec,speedup}
        execution_throughput[].{retrievals,arcs,samples,tree_walk_per_sec,walk_reuse_per_sec}
        execution_throughput[].{program_per_sec,batch_per_sec,batch_by_width_per_sec,best_width}
        execution_throughput[].{best_width_vs_w1,batch_vs_tree_walk,batch_vs_walk_reuse}",
    values: |doc| {
        let rows = at(doc, "execution_throughput[]")?;
        ensure!(!rows.is_empty(), "no execution_throughput rows");
        let swept = keys(rows[0], "batch_by_width_per_sec")?;
        ensure!(
            !swept.is_empty() && swept.iter().all(|w| WIDTH_KEYS.contains(w)),
            "width keys {swept:?} are not a non-empty subset of {WIDTH_KEYS:?}"
        );
        for row in rows {
            let widths = keys(row, "batch_by_width_per_sec")?;
            ensure!(widths == swept, "width keys {widths:?} differ from {swept:?}");
            let best = format!("w{}", num(row, "best_width")?);
            ensure!(widths.contains(&best.as_str()), "best_width {best} was not swept");
        }
        Ok(())
    },
};

/// `bench_parallel`: Monte-Carlo throughput per worker count and the
/// incremental expected-cost evaluator.
pub const PARALLEL: Schema = Schema {
    file: "BENCH_parallel.json",
    required: "bench cores note mc_samples mc_throughput[].{workers,contexts_per_sec,speedup_vs_w1}
        per_candidate_expected_cost[].{retrievals,tree_depth,candidates,full_recompute_ns}
        per_candidate_expected_cost[].{after_swap_ns,speedup}",
    values: |doc| {
        let workers = at(doc, "mc_throughput[].workers")?;
        ensure!(workers.first().and_then(|w| w.as_f64()) == Some(1.0), "no one-worker baseline");
        Ok(())
    },
};

/// `bench_tabling`: tabled vs plain SLD, update churn, magic sets.
pub const TABLING: Schema = Schema {
    file: "BENCH_tabling.json",
    required: "bench cores workload note
        tabling[].{layers,width,plain_us,plain_retrievals,tabled_fresh_us,tabled_speedup}
        tabling[].{cached_warm_us,cached_speedup}
        update_churn.{workload,rounds,kb_facts,warm_hit_advantage}
        update_churn.selective.{warm_hits,invalidations,retrievals,tables_maintained,per_round_us}
        update_churn.wholesale.{warm_hits,invalidations,retrievals,tables_maintained,per_round_us}
        magic_speedup.{workload,unrewritten_us,magic_fresh_us,magic_warm_us,unrewritten_derived}
        magic_speedup.{magic_derived,answers,fresh_speedup,floor}",
    values: |doc| {
        let m = |key: &str| num(doc, &format!("magic_speedup.{key}"));
        ensure!(m("magic_derived")? < m("unrewritten_derived")?, "magic derived no fewer facts");
        let (speedup, floor) = (m("fresh_speedup")?, m("floor")?);
        ensure!(floor == 5.0, "magic floor {floor} is not the 5x gate");
        ensure!(speedup >= floor, "magic fresh speedup {speedup} below {floor}");
        let advantage = num(doc, "update_churn.warm_hit_advantage")?;
        ensure!(advantage >= 10.0, "selective warm-hit advantage {advantage} below 10");
        Ok(())
    },
};

/// `bench_fourway`: learned vs greedy vs smith vs unrewritten.
pub const FOURWAY: Schema = Schema {
    file: "BENCH_fourway.json",
    required: "bench seed pib_observations reps_per_query workloads[].{workload,greedy_plan_us}
        workloads[].arms[].{arm,expected_cost,measured_us} crossover.{blend,crossover_lambda}
        crossover.grid[].{lambda,learned,greedy} magic.{workload,unrewritten_us,magic_fresh_us}
        magic.{magic_warm_us,unrewritten_derived,magic_derived}",
    values: |doc| {
        let want = ["learned", "greedy", "smith", "unrewritten"].map(Some);
        for workload in at(doc, "workloads[]")? {
            let arms = strs(workload, "arms[].arm")?;
            ensure!(arms == want, "arms {arms:?} are not {want:?}");
        }
        let grid = at(doc, "crossover.grid[]")?;
        let last = grid.last().ok_or("empty crossover grid")?;
        let (learned, greedy) = (num(last, "learned")?, num(last, "greedy")?);
        ensure!(learned < greedy, "learned {learned} does not beat greedy {greedy} at lambda 1");
        Ok(())
    },
};

/// `bench_store`: WAL append, checkpoint/recovery, warm restart.
pub const STORE: Schema = Schema {
    file: "BENCH_store.json",
    required: "bench commit_every note
        wal_append[].{fsync,records,bytes,secs,records_per_sec,mb_per_sec}
        checkpoint.{shape,facts,snapshot_bytes,write_ms,recover_ms,replayed_records}
        restart.{train_observations,climbs,cold_ms,warm_ms,speedup,min_speedup_asserted}
        restart.strategy_fp",
    values: |doc| {
        let policies = strs(doc, "wal_append[].fsync")?;
        let want = ["record", "batch", "off"].map(Some);
        ensure!(policies == want, "fsync policies {policies:?} are not {want:?}");
        for w in at(doc, "wal_append[]")? {
            let (rate, bytes) = (num(w, "records_per_sec")?, num(w, "bytes")?);
            ensure!(rate > 0.0 && bytes > 0.0, "empty WAL append run: {w:?}");
        }
        let snapshot = num(doc, "checkpoint.snapshot_bytes")?;
        let replayed = num(doc, "checkpoint.replayed_records")?;
        ensure!(snapshot > 0.0 && replayed > 0.0, "checkpoint wrote or replayed nothing");
        let speedup = num(doc, "restart.speedup")?;
        let floor = num(doc, "restart.min_speedup_asserted")?;
        ensure!(floor >= 10.0, "restart floor {floor} is below the 10x gate");
        ensure!(speedup >= floor, "warm restart {speedup}x below its {floor}x floor");
        let fp = strs(doc, "restart.strategy_fp")?;
        ensure!(fp[0].is_some_and(|fp| fp.len() == 16), "strategy_fp {fp:?} is not 16 hex digits");
        ensure!(num(doc, "restart.climbs")? >= 1.0, "restart learned no climb");
        Ok(())
    },
};

/// Counters the metrics snapshot must carry.
pub const REQUIRED_COUNTERS: [&str; 8] = [
    names::datalog::TABLE_HITS,
    names::datalog::RETRIEVALS,
    names::engine::CROSS_CONTEXT_CACHE_HITS,
    names::core::PIB_CLIMBS,
    names::plan::GREEDY_MICROS,
    names::plan::MAGIC_RULES_GENERATED,
    names::eval::MAGIC_FACTS_PRUNED,
    names::obs::EVENTS_DROPPED,
];

/// `qpl_report`'s metrics snapshot ([`qpl_obs::JsonSnapshot`]).
pub const METRICS: Schema = Schema {
    file: "metrics.json",
    required: "schema_version counters values spans events dropped_events",
    values: |doc| {
        let top = keys(doc, "")?;
        let want: Vec<&str> = METRICS.required.split_whitespace().collect();
        ensure!(top == want, "top-level keys {top:?} are not {want:?}");
        let version = num(doc, "schema_version")?;
        ensure!(version == f64::from(qpl_obs::SCHEMA_VERSION), "schema_version {version}");
        let counters = at(doc, "counters")?[0];
        for name in REQUIRED_COUNTERS {
            ensure!(counters.get(name).is_some(), "missing counter {name}");
        }
        let accepted = at(doc, "events[]")?.into_iter().any(|e| {
            e.get("name").and_then(JsonValue::as_str) == Some(names::core::PIB_CANDIDATE)
                && num(e, "fields.accept") == Ok(1.0)
        });
        ensure!(accepted, "no PIB acceptance event");
        let spans = keys(doc, "spans")?.len();
        ensure!(spans >= 3, "{spans} spans, want the per-phase spans (>= 3)");
        Ok(())
    },
};

/// The schemas of the `BENCH_*.json` files committed at the repo root.
pub const BENCH_FILES: [&Schema; 5] = [&PROGRAM, &PARALLEL, &TABLING, &FOURWAY, &STORE];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_paths_fan_out_over_arrays_and_name_what_is_missing() {
        let doc = JsonValue::parse(r#"{"runs":[{"a":{"b":1}},{"a":{"b":2}}],"x":3}"#).unwrap();
        let bs: Vec<_> = at(&doc, "runs[].a.b").unwrap().iter().map(|v| v.as_f64()).collect();
        assert_eq!(bs, [Some(1.0), Some(2.0)]);
        assert_eq!(at(&doc, "runs[].a.c").unwrap_err(), "missing key runs[0].a.c");
        assert_eq!(at(&doc, "x[]").unwrap_err(), "x is not an array");
        assert_eq!(num(&doc, "x"), Ok(3.0));
        assert!(num(&doc, "runs[].a.b").is_err(), "two values are not one number");
        let schema = Schema { file: "f", required: "x runs[].a.{b,c}", values: |_| Ok(()) };
        assert_eq!(schema.check(&doc).unwrap_err(), "f: missing key runs[0].a.c");
        assert_eq!(round(0.9216, 3).to_string(), "0.922");
    }
}
