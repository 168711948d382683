//! Wire protocol v2: line-delimited JSON, one object per line.
//!
//! ## Grammar
//!
//! Requests (client → server); `id` is an optional integer in
//! `0..=2^53-1` echoed back verbatim (larger ids have no exact `f64`, so
//! they are refused rather than echoed altered):
//!
//! ```json
//! {"kind":"ping"}
//! {"kind":"query","q":"instructor(russ)","id":7}
//! {"kind":"batch","qs":["instructor(russ)","instructor(fred)"]}
//! {"kind":"update","insert":["edge(a, b)"],"retract":["edge(b, c)"],"id":9}
//! {"kind":"checkpoint","id":3}
//! {"kind":"stats"}
//! {"kind":"shutdown"}
//! ```
//!
//! `update` (new in v2) carries ground facts in Datalog syntax;
//! `insert` and `retract` may each be omitted, but not both. The delta
//! is validated (and, when the server runs with a data directory,
//! journaled to the write-ahead log) on shard 0 before any replica
//! applies it, then broadcast so all shared-nothing replicas converge.
//!
//! `checkpoint` (durable servers only) asks shard 0 to write an atomic
//! snapshot of its KB, learner statistics, and adopted strategy, then
//! truncate the WAL the snapshot covers; servers started without a
//! data directory refuse it with `store_unavailable`.
//!
//! Responses (server → client) always carry `"v":2` and a `kind`:
//!
//! * `pong` — ping reply;
//! * `answer` — one `result` object: `{"answer":"yes","witness":…,
//!   "cost":…}`, `{"answer":"no","cost":…}`, or
//!   `{"error":"bad_query","detail":…}` for a per-query failure inside
//!   an otherwise-served request;
//! * `answers` — `results` array, one entry per batch query, in order;
//! * `updated` — delta acknowledgement: `inserted`/`retracted` count
//!   the facts that actually changed the database (re-asserting a
//!   present fact or retracting an absent one is a no-op), and
//!   `deltas_applied` is the per-shard applied-delta counter after this
//!   update (equal across shards when replicas are convergent);
//! * `checkpointed` — checkpoint acknowledgement: `through_seq` is the
//!   highest WAL sequence the snapshot covers, `snapshot_bytes` its
//!   size, `segments_removed` the WAL segments deleted by the
//!   post-snapshot truncation;
//! * `stats` — admission/batching aggregates plus the full
//!   [`JsonSnapshot`](qpl_obs::JsonSnapshot) rendered single-line under
//!   `metrics`; durable servers add a `store` block (WAL bytes,
//!   segment count, append/replay counters, last checkpoint) and every
//!   shard reports its adopted strategy fingerprint as a hex string;
//! * `error` — whole-request failure: `"error"` is one of
//!   `"bad_request"`, `"overloaded"`, `"shutting_down"`,
//!   `"store_unavailable"` (durability requested but the store is
//!   absent or degraded — a degraded server sheds updates but keeps
//!   serving reads);
//! * `bye` — shutdown acknowledgement, after which the server drains
//!   and closes.
//!
//! Costs render through `f64`'s `Display`, which round-trips exactly —
//! clients can compare them bit-for-bit against local scalar runs.
//!
//! Requests are read with [`qpl_obs::json`]'s reader (RFC 8259 numbers
//! and escapes, a nesting-depth cap, strict end-of-input — everything a
//! public front door must refuse is refused with a message, never a
//! panic). Responses are written straight into a `String` with that
//! module's string escaper and number writer, with no value tree on the
//! hot path. `answer`/`answers` lines are assembled from per-lane
//! result objects ([`render_lane`], [`render_fragments`]), which a shard
//! memoizes and reuses verbatim.

use std::fmt::Write as _;

use qpl_obs::json::{push_f64, push_str};

/// The `"v"` field stamped into every response. v2 added the `update`
/// request, the `updated` response, and `deltas_applied` in `stats`.
pub const WIRE_VERSION: u32 = 2;

/// Maximum facts (insert + retract combined) one `update` request may
/// carry; larger deltas must be split across requests so a single line
/// cannot stall every shard for long.
pub const MAX_UPDATE_FACTS: usize = 1024;

/// Largest request `id`: every integer up to 2^53 − 1 parses to its own
/// `f64`, so the id echoed back is exactly the one the client sent.
const MAX_ID: f64 = ((1u64 << 53) - 1) as f64;

pub use qpl_obs::json::{JsonValue, MAX_DEPTH};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe, answered inline.
    Ping,
    /// One query; `q` is the query text in Datalog syntax.
    Query {
        /// The query text, e.g. `instructor(russ)`.
        q: String,
        /// Client correlation id, echoed back.
        id: Option<u64>,
    },
    /// Several queries served as lanes of (at most) one plane.
    Batch {
        /// The query texts, answered in order.
        qs: Vec<String>,
        /// Client correlation id, echoed back.
        id: Option<u64>,
    },
    /// A KB delta: ground facts to insert and/or retract, broadcast to
    /// every shard so replicas stay convergent.
    Update {
        /// Fact texts to insert, e.g. `edge(a, b)`.
        insert: Vec<String>,
        /// Fact texts to retract.
        retract: Vec<String>,
        /// Client correlation id, echoed back.
        id: Option<u64>,
    },
    /// Checkpoint request: snapshot shard 0's durable state and
    /// truncate the covered WAL (durable servers only).
    Checkpoint {
        /// Client correlation id, echoed back.
        id: Option<u64>,
    },
    /// Metrics snapshot request.
    Stats,
    /// Graceful drain: stop admitting, finish the queue, exit.
    Shutdown,
}

/// Moves an optional array-of-strings field out of an `update`.
fn fact_list(v: &mut JsonValue, key: &str) -> Result<Vec<String>, String> {
    match v.take(key) {
        None => Ok(Vec::new()),
        Some(arr) => arr
            .into_array()
            .ok_or_else(|| format!("\"{key}\" must be an array of fact strings"))?
            .into_iter()
            .map(|f| f.into_string().ok_or_else(|| format!("\"{key}\" entries must be strings")))
            .collect(),
    }
}

/// Parses one request line. `max_batch` bounds `"qs"`; the server passes
/// the 64-lane plane width, so a batch request never spans two planes.
/// Query and fact strings are moved out of the parsed document, never
/// copied.
///
/// # Errors
/// A detail string suitable for a `bad_request` response.
pub fn parse_request(line: &str, max_batch: usize) -> Result<Request, String> {
    let mut v = JsonValue::parse(line)?;
    let kind = v
        .take("kind")
        .and_then(JsonValue::into_string)
        .ok_or_else(|| "missing string field \"kind\"".to_string())?;
    let id = match v.get("id") {
        None => None,
        Some(JsonValue::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_ID => Some(*n as u64),
        Some(_) => return Err("\"id\" must be an integer in 0..=2^53-1".to_string()),
    };
    match kind.as_str() {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "checkpoint" => Ok(Request::Checkpoint { id }),
        "query" => {
            let q = v
                .take("q")
                .and_then(JsonValue::into_string)
                .ok_or_else(|| "query needs a string field \"q\"".to_string())?;
            Ok(Request::Query { q, id })
        }
        "batch" => {
            let qs = v
                .take("qs")
                .and_then(JsonValue::into_array)
                .ok_or_else(|| "batch needs an array field \"qs\"".to_string())?;
            if qs.is_empty() {
                return Err("\"qs\" must be non-empty".to_string());
            }
            if qs.len() > max_batch {
                return Err(format!("\"qs\" exceeds the {max_batch}-query batch limit"));
            }
            let texts = qs
                .into_iter()
                .map(|q| {
                    q.into_string().ok_or_else(|| "\"qs\" entries must be strings".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Batch { qs: texts, id })
        }
        "update" => {
            let insert = fact_list(&mut v, "insert")?;
            let retract = fact_list(&mut v, "retract")?;
            if insert.is_empty() && retract.is_empty() {
                return Err("update needs a non-empty \"insert\" or \"retract\"".to_string());
            }
            if insert.len() + retract.len() > MAX_UPDATE_FACTS {
                return Err(format!("update exceeds the {MAX_UPDATE_FACTS}-fact limit"));
            }
            Ok(Request::Update { insert, retract, id })
        }
        other => Err(format!("unknown kind {other:?}")),
    }
}

/// The outcome of one served query lane.
#[derive(Debug, Clone, PartialEq)]
pub enum LaneResult {
    /// Derivation found.
    Yes {
        /// The witnessing ground atom, rendered.
        witness: String,
        /// The run cost (bit-identical to a scalar run).
        cost: f64,
    },
    /// No derivation.
    No {
        /// The run cost.
        cost: f64,
    },
    /// The query could not be served (parse failure, form mismatch).
    Error {
        /// Human-readable reason.
        detail: String,
    },
}

/// The durability slice of the `stats` response (shard 0 owns the
/// store, so these are shard-0 numbers).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoreStatsView {
    /// Live WAL bytes across all segments.
    pub wal_bytes: u64,
    /// Live WAL segment files.
    pub segments: u64,
    /// Records journaled since startup.
    pub records_appended: u64,
    /// Records replayed from the WAL during recovery at startup.
    pub records_replayed: u64,
    /// Unix seconds of the newest checkpoint (0 = never).
    pub last_checkpoint_unix_secs: u64,
    /// Size of the newest snapshot in bytes (0 = never).
    pub snapshot_bytes: u64,
    /// True once a store I/O failure put the server in degraded mode
    /// (updates shed with `store_unavailable`, reads still served).
    pub degraded: bool,
}

/// One executor shard's slice of the `stats` response.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStatsView {
    /// Shard index (0-based; matches steering).
    pub shard: u64,
    /// Query lanes waiting in this shard's queue at snapshot time.
    pub queue_lanes: u64,
    /// Query lanes this shard served.
    pub served: u64,
    /// Planes this shard executed.
    pub batches: u64,
    /// Offers this shard's batcher declined (the job then tried the
    /// least-loaded fallback; only a fallback failure sheds).
    pub declined: u64,
    /// Lanes that failed classification on this shard.
    pub errors: u64,
    /// Strategy climbs this shard's own learner accepted.
    pub climbs: u64,
    /// Peer-published strategies this shard adopted.
    pub adoptions: u64,
    /// KB deltas this shard applied (update-broadcast convergence
    /// check: equal across shards when replicas agree).
    pub deltas_applied: u64,
    /// Mean occupied-lane fraction over this shard's planes.
    pub fill_ratio: f64,
    /// p50 request service time on this shard, microseconds.
    pub p50_us: f64,
    /// p99 request service time on this shard, microseconds.
    pub p99_us: f64,
    /// Fingerprint of this shard's adopted strategy, rendered as a hex
    /// string (u64 values are not exactly representable as JSON
    /// numbers).
    pub strategy_fp: String,
}

/// Aggregates surfaced by the `stats` response. Totals sum over every
/// executor shard; `shards` breaks them down per shard.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsView {
    /// Query lanes waiting across all shard queues at snapshot time.
    pub queue_lanes: u64,
    /// Query lanes served since startup.
    pub served: u64,
    /// Planes executed.
    pub batches: u64,
    /// Requests refused with `overloaded` (home shard full *and* the
    /// least-loaded fallback full).
    pub shed: u64,
    /// Lanes that failed classification.
    pub errors: u64,
    /// Strategy climbs accepted by the adaptation loops (all shards).
    pub climbs: u64,
    /// Peer-published strategies adopted across shards.
    pub adoptions: u64,
    /// Jobs admitted at a non-home shard because the steered shard's
    /// queue was full.
    pub steer_fallbacks: u64,
    /// KB deltas applied, summed over shards (each broadcast update
    /// counts once per shard).
    pub deltas_applied: u64,
    /// Mean occupied fraction of executed plane capacity (each plane
    /// counts width × 64 lanes in the denominator).
    pub fill_ratio: f64,
    /// p50 request service time, microseconds, over all shards.
    pub p50_us: f64,
    /// p99 request service time, microseconds, over all shards.
    pub p99_us: f64,
    /// Per-shard breakdown, in shard order.
    pub shards: Vec<ShardStatsView>,
    /// Durability health, present only when the server was started
    /// with a data directory.
    pub store: Option<StoreStatsView>,
    /// The full metrics snapshot, merged across shard sinks, rendered
    /// as one JSON line (embedded verbatim — it is already JSON).
    pub metrics_line: String,
}

fn push_envelope(out: &mut String, kind: &str, id: Option<u64>) {
    let _ = write!(out, "{{\"v\":{WIRE_VERSION},\"kind\":\"{kind}\"");
    if let Some(id) = id {
        let _ = write!(out, ",\"id\":{id}");
    }
}

/// Appends `,"key":` and `v` through the one number writer.
fn push_f64_field(out: &mut String, key: &str, v: f64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    push_f64(out, v);
}

fn push_lane(out: &mut String, r: &LaneResult) {
    match r {
        LaneResult::Yes { witness, cost } => {
            out.push_str("{\"answer\":\"yes\",\"witness\":");
            push_str(out, witness);
            push_f64_field(out, "cost", *cost);
            out.push('}');
        }
        LaneResult::No { cost } => {
            out.push_str("{\"answer\":\"no\"");
            push_f64_field(out, "cost", *cost);
            out.push('}');
        }
        LaneResult::Error { detail } => {
            out.push_str("{\"error\":\"bad_query\",\"detail\":");
            push_str(out, detail);
            out.push('}');
        }
    }
}

/// One lane's result object, e.g.
/// `{"answer":"yes","witness":"q0(c3)","cost":14}` — the fragment an
/// `answer` or `answers` line embeds, rendered once and reusable (the
/// shard memo stores it as the value served on a hit).
pub fn render_lane(result: &LaneResult) -> String {
    let mut out = String::with_capacity(64);
    push_lane(&mut out, result);
    out
}

/// The one `answer` / `answers` envelope writer: `answers` with a
/// `results` array when `batch`, else `answer` with the single `result`
/// (`lanes` then yields exactly one item). `push` writes one lane's
/// object.
fn render_reply<T>(
    lanes: impl ExactSizeIterator<Item = T>,
    batch: bool,
    id: Option<u64>,
    push: impl Fn(&mut String, T),
) -> String {
    let mut out = String::with_capacity(64 + 64 * lanes.len());
    if batch {
        push_envelope(&mut out, "answers", id);
        out.push_str(",\"results\":[");
    } else {
        push_envelope(&mut out, "answer", id);
        out.push_str(",\"result\":");
    }
    for (i, lane) in lanes.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(&mut out, lane);
    }
    out.push_str(if batch { "]}" } else { "}" });
    out
}

/// `answer` (one fragment, `batch == false`) or `answers` (`batch`)
/// response line from lane fragments as [`render_lane`] writes them,
/// concatenated verbatim in order.
pub fn render_fragments<S: AsRef<str>>(
    fragments: impl ExactSizeIterator<Item = S>,
    batch: bool,
    id: Option<u64>,
) -> String {
    debug_assert!(batch || fragments.len() == 1, "an `answer` line carries one result");
    render_reply(fragments, batch, id, |out, f| out.push_str(f.as_ref()))
}

/// `pong` response line.
pub fn render_pong() -> String {
    format!("{{\"v\":{WIRE_VERSION},\"kind\":\"pong\"}}")
}

/// `bye` response line (shutdown acknowledged).
pub fn render_bye() -> String {
    format!("{{\"v\":{WIRE_VERSION},\"kind\":\"bye\"}}")
}

/// Whole-request `error` response line; `code` is one of
/// `"bad_request"`, `"overloaded"`, `"shutting_down"`.
pub fn render_error(code: &str, detail: &str, id: Option<u64>) -> String {
    let mut out = String::with_capacity(64);
    push_envelope(&mut out, "error", id);
    out.push_str(",\"error\":");
    push_str(&mut out, code);
    out.push_str(",\"detail\":");
    push_str(&mut out, detail);
    out.push('}');
    out
}

/// `answer` response line for a single query.
pub fn render_answer(result: &LaneResult, id: Option<u64>) -> String {
    render_reply(std::iter::once(result), false, id, push_lane)
}

/// `updated` response line: how many facts actually changed the
/// database, plus this replica set's applied-delta counter (the maximum
/// over shards; equal to every shard's counter when convergent).
pub fn render_updated(
    inserted: u64,
    retracted: u64,
    deltas_applied: u64,
    id: Option<u64>,
) -> String {
    let mut out = String::with_capacity(96);
    push_envelope(&mut out, "updated", id);
    let _ = write!(
        out,
        ",\"inserted\":{inserted},\"retracted\":{retracted},\"deltas_applied\":{deltas_applied}}}"
    );
    out
}

/// `checkpointed` response line: what the snapshot covers and what the
/// truncation reclaimed.
pub fn render_checkpointed(
    through_seq: u64,
    snapshot_bytes: u64,
    segments_removed: u64,
    id: Option<u64>,
) -> String {
    let mut out = String::with_capacity(96);
    push_envelope(&mut out, "checkpointed", id);
    let _ = write!(
        out,
        ",\"through_seq\":{through_seq},\"snapshot_bytes\":{snapshot_bytes},\
         \"segments_removed\":{segments_removed}}}"
    );
    out
}

/// `answers` response line for a batch, one result per query in order.
pub fn render_answers(results: &[LaneResult], id: Option<u64>) -> String {
    render_reply(results.iter(), true, id, push_lane)
}

/// `stats` response line, per-shard breakdown included.
pub fn render_stats(s: &StatsView) -> String {
    let mut out = String::with_capacity(384 + 192 * s.shards.len() + s.metrics_line.len());
    push_envelope(&mut out, "stats", None);
    let _ = write!(
        out,
        ",\"queue_lanes\":{},\"served\":{},\"batches\":{},\"shed\":{},\"errors\":{},\"climbs\":{}",
        s.queue_lanes, s.served, s.batches, s.shed, s.errors, s.climbs
    );
    let _ = write!(out, ",\"adoptions\":{},\"steer_fallbacks\":{}", s.adoptions, s.steer_fallbacks);
    let _ = write!(out, ",\"deltas_applied\":{}", s.deltas_applied);
    push_f64_field(&mut out, "fill_ratio", s.fill_ratio);
    push_f64_field(&mut out, "p50_us", s.p50_us);
    push_f64_field(&mut out, "p99_us", s.p99_us);
    out.push_str(",\"shards\":[");
    for (i, sh) in s.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"shard\":{},\"queue_lanes\":{},\"served\":{},\"batches\":{},\"declined\":{},\
             \"errors\":{},\"climbs\":{},\"adoptions\":{},\"deltas_applied\":{}",
            sh.shard,
            sh.queue_lanes,
            sh.served,
            sh.batches,
            sh.declined,
            sh.errors,
            sh.climbs,
            sh.adoptions,
            sh.deltas_applied,
        );
        push_f64_field(&mut out, "fill_ratio", sh.fill_ratio);
        push_f64_field(&mut out, "p50_us", sh.p50_us);
        push_f64_field(&mut out, "p99_us", sh.p99_us);
        out.push_str(",\"strategy_fp\":");
        push_str(&mut out, &sh.strategy_fp);
        out.push('}');
    }
    out.push(']');
    if let Some(st) = &s.store {
        let _ = write!(
            out,
            ",\"store\":{{\"wal_bytes\":{},\"segments\":{},\"records_appended\":{},\
             \"records_replayed\":{},\"last_checkpoint_unix_secs\":{},\"snapshot_bytes\":{},\
             \"degraded\":{}}}",
            st.wal_bytes,
            st.segments,
            st.records_appended,
            st.records_replayed,
            st.last_checkpoint_unix_secs,
            st.snapshot_bytes,
            st.degraded
        );
    }
    out.push_str(",\"metrics\":");
    out.push_str(&s.metrics_line);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parsing_covers_all_kinds() {
        assert_eq!(parse_request(r#"{"kind":"ping"}"#, 64).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"kind":"stats"}"#, 64).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"kind":"shutdown"}"#, 64).unwrap(), Request::Shutdown);
        assert_eq!(
            parse_request(r#"{"kind":"checkpoint","id":3}"#, 64).unwrap(),
            Request::Checkpoint { id: Some(3) }
        );
        assert_eq!(
            parse_request(r#"{"kind":"query","q":"p(a)","id":7}"#, 64).unwrap(),
            Request::Query { q: "p(a)".to_string(), id: Some(7) }
        );
        assert_eq!(
            parse_request(r#"{"kind":"batch","qs":["p(a)","p(b)"]}"#, 64).unwrap(),
            Request::Batch { qs: vec!["p(a)".to_string(), "p(b)".to_string()], id: None }
        );
        assert_eq!(
            parse_request(
                r#"{"kind":"update","insert":["e(a, b)"],"retract":["e(b, c)"],"id":9}"#,
                64
            )
            .unwrap(),
            Request::Update {
                insert: vec!["e(a, b)".to_string()],
                retract: vec!["e(b, c)".to_string()],
                id: Some(9),
            }
        );
        // Either side of the delta may be omitted.
        assert_eq!(
            parse_request(r#"{"kind":"update","insert":["e(a, b)"]}"#, 64).unwrap(),
            Request::Update { insert: vec!["e(a, b)".to_string()], retract: vec![], id: None }
        );
        // A duplicate key reads as its first occurrence.
        assert_eq!(
            parse_request(r#"{"kind":"query","q":"p(a)","q":"p(b)","kind":"ping"}"#, 64).unwrap(),
            Request::Query { q: "p(a)".to_string(), id: None }
        );
    }

    #[test]
    fn request_parsing_rejects_bad_shapes() {
        for bad in [
            r#"{"q":"p(a)"}"#,
            r#"{"kind":"warp"}"#,
            r#"{"kind":"query"}"#,
            r#"{"kind":"query","q":3}"#,
            r#"{"kind":"query","q":3,"q":"p(a)"}"#,
            r#"{"kind":3,"kind":"ping"}"#,
            r#"{"kind":"query","q":"p(a)","id":-1}"#,
            r#"{"kind":"query","q":"p(a)","id":1.5}"#,
            r#"{"kind":"batch","qs":[]}"#,
            r#"{"kind":"batch","qs":["p(a)",2]}"#,
            r#"{"kind":"batch","qs":"p(a)"}"#,
            r#"{"kind":"update"}"#,
            r#"{"kind":"update","insert":[],"retract":[]}"#,
            r#"{"kind":"update","insert":"e(a, b)"}"#,
            r#"{"kind":"update","insert":[3]}"#,
        ] {
            assert!(parse_request(bad, 64).is_err(), "accepted {bad:?}");
        }
        // Batch limit enforced.
        let too_many = format!(
            r#"{{"kind":"batch","qs":[{}]}}"#,
            (0..65).map(|_| "\"p(a)\"").collect::<Vec<_>>().join(",")
        );
        assert!(parse_request(&too_many, 64).is_err());
        assert!(parse_request(&too_many, 65).is_ok());
        // Update fact limit enforced.
        let big_update = format!(
            r#"{{"kind":"update","insert":[{}]}}"#,
            (0..=MAX_UPDATE_FACTS).map(|_| "\"p(a)\"").collect::<Vec<_>>().join(",")
        );
        assert!(parse_request(&big_update, 64).is_err());
    }

    #[test]
    fn ids_beyond_two_to_the_53_are_refused_not_echoed_altered() {
        // 2^53 + 1 parses to the same f64 as 2^53; echoing it back would
        // hand the client a different id than it sent.
        for bad in [9_007_199_254_740_992u64, 9_007_199_254_740_993, u64::MAX] {
            let line = format!(r#"{{"kind":"ping","id":{bad}}}"#);
            assert!(parse_request(&line, 64).is_err(), "accepted id {bad}");
        }
        let max = r#"{"kind":"query","q":"p(a)","id":9007199254740991}"#;
        let Ok(Request::Query { id: Some(id), .. }) = parse_request(max, 64) else {
            panic!("2^53 - 1 is a valid id");
        };
        assert_eq!(id, 9_007_199_254_740_991);
        assert!(render_answer(&LaneResult::No { cost: 1.0 }, Some(id))
            .contains(r#""id":9007199254740991,"#));
    }

    fn sample_stats() -> StatsView {
        let shard = |i: u64, served: u64| ShardStatsView {
            shard: i,
            queue_lanes: i,
            served,
            batches: served / 32,
            declined: 1,
            errors: 0,
            climbs: i,
            adoptions: 1 - i.min(1),
            deltas_applied: 5,
            fill_ratio: 0.5,
            p50_us: 120.0,
            p99_us: 800.0,
            strategy_fp: format!("{:016x}", 0xdead_beef_u64 + i),
        };
        StatsView {
            queue_lanes: 1,
            served: 100,
            batches: 3,
            shed: 2,
            errors: 1,
            climbs: 1,
            adoptions: 1,
            steer_fallbacks: 4,
            deltas_applied: 10,
            fill_ratio: 0.52,
            p50_us: 130.5,
            p99_us: 900.0,
            shards: vec![shard(0, 64), shard(1, 36)],
            store: Some(StoreStatsView {
                wal_bytes: 4096,
                segments: 1,
                records_appended: 12,
                records_replayed: 3,
                last_checkpoint_unix_secs: 1_700_000_000,
                snapshot_bytes: 2048,
                degraded: false,
            }),
            metrics_line: "{\"schema_version\":1}".to_string(),
        }
    }

    #[test]
    fn stats_schema_exposes_totals_and_per_shard_breakdown() {
        let line = render_stats(&sample_stats());
        let v = JsonValue::parse(&line).unwrap();
        for key in [
            "queue_lanes",
            "served",
            "batches",
            "shed",
            "errors",
            "climbs",
            "adoptions",
            "steer_fallbacks",
            "deltas_applied",
            "fill_ratio",
            "p50_us",
            "p99_us",
        ] {
            assert!(v.get(key).and_then(JsonValue::as_f64).is_some(), "missing total {key}");
        }
        let shards = v.get("shards").and_then(JsonValue::as_array).expect("shards array");
        assert_eq!(shards.len(), 2);
        for (i, sh) in shards.iter().enumerate() {
            assert_eq!(sh.get("shard").and_then(JsonValue::as_f64), Some(i as f64));
            for key in [
                "queue_lanes",
                "served",
                "batches",
                "declined",
                "errors",
                "climbs",
                "adoptions",
                "deltas_applied",
                "fill_ratio",
                "p50_us",
                "p99_us",
            ] {
                assert!(
                    sh.get(key).and_then(JsonValue::as_f64).is_some(),
                    "shard {i} missing {key}"
                );
            }
            let fp = sh.get("strategy_fp").and_then(JsonValue::as_str).expect("strategy_fp");
            assert_eq!(fp.len(), 16, "strategy_fp is a zero-padded u64 hex string: {fp}");
        }
        let store = v.get("store").expect("store block present for durable servers");
        for key in [
            "wal_bytes",
            "segments",
            "records_appended",
            "records_replayed",
            "last_checkpoint_unix_secs",
            "snapshot_bytes",
        ] {
            assert!(store.get(key).and_then(JsonValue::as_f64).is_some(), "store missing {key}");
        }
        assert_eq!(store.get("degraded"), Some(&JsonValue::Bool(false)));
        assert!(v.get("metrics").is_some(), "merged metrics snapshot embedded");
    }

    #[test]
    fn stats_omits_the_store_block_without_durability() {
        let mut s = sample_stats();
        s.store = None;
        let line = render_stats(&s);
        let v = JsonValue::parse(&line).unwrap();
        assert!(v.get("store").is_none(), "non-durable servers have no store block");
    }

    #[test]
    fn responses_parse_with_own_parser() {
        let lanes = vec![
            LaneResult::Yes { witness: "prof(russ)".to_string(), cost: 2.0 },
            LaneResult::No { cost: 4.5 },
            LaneResult::Error { detail: "no \"such\" predicate".to_string() },
        ];
        for line in [
            render_pong(),
            render_bye(),
            render_error("overloaded", "queue full", Some(3)),
            render_answer(&lanes[0], Some(9)),
            render_answers(&lanes, None),
            render_updated(2, 1, 7, Some(4)),
            render_checkpointed(42, 2048, 3, Some(6)),
            render_stats(&sample_stats()),
        ] {
            let v = JsonValue::parse(&line).unwrap_or_else(|e| panic!("{e} in {line}"));
            assert_eq!(
                v.get("v").and_then(JsonValue::as_f64),
                Some(f64::from(WIRE_VERSION)),
                "{line}"
            );
            assert!(v.get("kind").and_then(JsonValue::as_str).is_some(), "{line}");
            assert!(!line.contains('\n'), "response must be one line: {line}");
        }
    }

    #[test]
    fn costs_round_trip_exactly() {
        // f64 Display is shortest-round-trip; parsing the rendered cost
        // must give back the identical bits.
        // The last entry deliberately over-specifies its decimals to get
        // a value whose nearest f64 needs all 17 significant digits.
        #[allow(clippy::excessive_precision)]
        let awkward = [2.0, 4.0, 0.1 + 0.2, 1e-17, 123456789.123456789];
        for cost in awkward {
            let line = render_answer(&LaneResult::No { cost }, None);
            let v = JsonValue::parse(&line).unwrap();
            let got = v.get("result").unwrap().get("cost").and_then(JsonValue::as_f64).unwrap();
            assert_eq!(got.to_bits(), cost.to_bits(), "{line}");
        }
    }
}
