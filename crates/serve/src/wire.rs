//! Wire protocol v2: line-delimited JSON, one object per line.
//!
//! ## Grammar
//!
//! Requests (client → server); `id` is an optional non-negative integer
//! echoed back verbatim:
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
//! The parser is hand-rolled (the workspace builds offline with no
//! serialization dependency, matching the `qpl-obs` snapshot writer):
//! full JSON values with escape/`\u` handling, a nesting-depth cap, and
//! strict end-of-input — everything a public front door must refuse is
//! refused with a message, never a panic.

use std::fmt::Write as _;

/// The `"v"` field stamped into every response. v2 added the `update`
/// request, the `updated` response, and `deltas_applied` in `stats`.
pub const WIRE_VERSION: u32 = 2;

/// Maximum facts (insert + retract combined) one `update` request may
/// carry; larger deltas must be split across requests so a single line
/// cannot stall every shard for long.
pub const MAX_UPDATE_FACTS: usize = 1024;

/// Maximum nesting depth [`JsonValue::parse`] accepts; deeper input is
/// rejected (protects the recursive-descent parser from stack
/// exhaustion on hostile lines).
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in document order (duplicate keys kept; `get`
    /// returns the first).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    /// A human-readable description of the first syntax problem.
    pub fn parse(src: &str) -> Result<JsonValue, String> {
        let mut p = Parser { src, pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != src.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// First field named `key`, if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The truth value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if matches!(c, ' ' | '\t' | '\r' | '\n') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.pos += want.len_utf8();
            Ok(())
        } else {
            Err(format!("expected '{want}' at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => self.string().map(JsonValue::Str),
            Some('t') => self.literal("true", JsonValue::Bool(true)),
            Some('f') => self.literal("false", JsonValue::Bool(false)),
            Some('n') => self.literal("null", JsonValue::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{c}' at offset {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            match c {
                '"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                '\\' => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                c if (c as u32) < 0x20 => {
                    return Err("raw control character in string".to_string());
                }
                c => {
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let Some(c) = self.peek() else {
            return Err("unterminated escape".to_string());
        };
        self.pos += c.len_utf8();
        match c {
            '"' | '\\' | '/' => out.push(c),
            'b' => out.push('\u{0008}'),
            'f' => out.push('\u{000c}'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hi = self.hex4()?;
                let ch = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair; an unpaired surrogate degrades to
                    // the replacement character rather than an error.
                    if self.src[self.pos..].starts_with("\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if (0xDC00..0xE000).contains(&lo) {
                            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code).unwrap_or('\u{FFFD}')
                        } else {
                            '\u{FFFD}'
                        }
                    } else {
                        '\u{FFFD}'
                    }
                } else {
                    char::from_u32(hi).unwrap_or('\u{FFFD}')
                };
                out.push(ch);
            }
            other => return Err(format!("bad escape \\{other}")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(v)
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect('{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some('}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect('[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some(']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }
}

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

/// Extracts an optional array-of-strings field for `update`.
fn fact_list(v: &JsonValue, key: &str) -> Result<Vec<String>, String> {
    match v.get(key) {
        None => Ok(Vec::new()),
        Some(arr) => arr
            .as_array()
            .ok_or_else(|| format!("\"{key}\" must be an array of fact strings"))?
            .iter()
            .map(|f| {
                f.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("\"{key}\" entries must be strings"))
            })
            .collect(),
    }
}

/// Parses one request line. `max_batch` bounds `"qs"`; the server passes
/// the 64-lane plane width, so a batch request never spans two planes.
///
/// # Errors
/// A detail string suitable for a `bad_request` response.
pub fn parse_request(line: &str, max_batch: usize) -> Result<Request, String> {
    let v = JsonValue::parse(line)?;
    let kind = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing string field \"kind\"".to_string())?;
    let id = match v.get("id") {
        None => None,
        Some(JsonValue::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
            Some(*n as u64)
        }
        Some(_) => return Err("\"id\" must be a non-negative integer".to_string()),
    };
    match kind {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "checkpoint" => Ok(Request::Checkpoint { id }),
        "query" => {
            let q = v
                .get("q")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| "query needs a string field \"q\"".to_string())?;
            Ok(Request::Query { q: q.to_string(), id })
        }
        "batch" => {
            let qs = v
                .get("qs")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| "batch needs an array field \"qs\"".to_string())?;
            if qs.is_empty() {
                return Err("\"qs\" must be non-empty".to_string());
            }
            if qs.len() > max_batch {
                return Err(format!("\"qs\" exceeds the {max_batch}-query batch limit"));
            }
            let texts = qs
                .iter()
                .map(|q| {
                    q.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "\"qs\" entries must be strings".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Batch { qs: texts, id })
        }
        "update" => {
            let insert = fact_list(&v, "insert")?;
            let retract = fact_list(&v, "retract")?;
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
    /// Planes executed at width 1/2/4/8 (64/128/256/512 lanes), all
    /// shards summed — the load-adaptive width distribution.
    pub width_planes: [u64; 4],
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

/// Appends a JSON string literal (same escapes as the qpl-obs writer).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_envelope(out: &mut String, kind: &str, id: Option<u64>) {
    let _ = write!(out, "{{\"v\":{WIRE_VERSION},\"kind\":\"{kind}\"");
    if let Some(id) = id {
        let _ = write!(out, ",\"id\":{id}");
    }
}

fn push_lane(out: &mut String, r: &LaneResult) {
    match r {
        LaneResult::Yes { witness, cost } => {
            out.push_str("{\"answer\":\"yes\",\"witness\":");
            push_json_str(out, witness);
            let _ = write!(out, ",\"cost\":{cost}}}");
        }
        LaneResult::No { cost } => {
            let _ = write!(out, "{{\"answer\":\"no\",\"cost\":{cost}}}");
        }
        LaneResult::Error { detail } => {
            out.push_str("{\"error\":\"bad_query\",\"detail\":");
            push_json_str(out, detail);
            out.push('}');
        }
    }
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
    push_json_str(&mut out, code);
    out.push_str(",\"detail\":");
    push_json_str(&mut out, detail);
    out.push('}');
    out
}

/// `answer` response line for a single query.
pub fn render_answer(result: &LaneResult, id: Option<u64>) -> String {
    let mut out = String::with_capacity(96);
    push_envelope(&mut out, "answer", id);
    out.push_str(",\"result\":");
    push_lane(&mut out, result);
    out.push('}');
    out
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
    let mut out = String::with_capacity(64 + 64 * results.len());
    push_envelope(&mut out, "answers", id);
    out.push_str(",\"results\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_lane(&mut out, r);
    }
    out.push_str("]}");
    out
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
    let _ = write!(out, ",\"fill_ratio\":{}", s.fill_ratio);
    let _ = write!(
        out,
        ",\"width_planes\":[{},{},{},{}]",
        s.width_planes[0], s.width_planes[1], s.width_planes[2], s.width_planes[3]
    );
    let _ = write!(out, ",\"p50_us\":{},\"p99_us\":{}", s.p50_us, s.p99_us);
    out.push_str(",\"shards\":[");
    for (i, sh) in s.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"shard\":{},\"queue_lanes\":{},\"served\":{},\"batches\":{},\"declined\":{},\
             \"errors\":{},\"climbs\":{},\"adoptions\":{},\"deltas_applied\":{},\"fill_ratio\":{},\
             \"p50_us\":{},\"p99_us\":{},\"strategy_fp\":",
            sh.shard,
            sh.queue_lanes,
            sh.served,
            sh.batches,
            sh.declined,
            sh.errors,
            sh.climbs,
            sh.adoptions,
            sh.deltas_applied,
            sh.fill_ratio,
            sh.p50_us,
            sh.p99_us
        );
        push_json_str(&mut out, &sh.strategy_fp);
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
    fn parses_scalars_and_containers() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("-2.5e2").unwrap(), JsonValue::Num(-250.0));
        assert_eq!(
            JsonValue::parse("\"a\\n\\u0041\\\"\"").unwrap(),
            JsonValue::Str("a\nA\"".to_string())
        );
        let v = JsonValue::parse(r#"{"a":[1,2,{"b":"c"}],"d":null}"#).unwrap();
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        let arr = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[1], JsonValue::Num(2.0));
        assert_eq!(arr[2].get("b").and_then(JsonValue::as_str), Some("c"));
    }

    #[test]
    fn surrogate_pairs_and_unicode() {
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::Str("😀".to_string())
        );
        // Unpaired surrogate degrades, never errors or panics.
        assert_eq!(
            JsonValue::parse("\"\\ud83dx\"").unwrap(),
            JsonValue::Str("\u{FFFD}x".to_string())
        );
        assert_eq!(JsonValue::parse("\"héllo\"").unwrap(), JsonValue::Str("héllo".to_string()));
    }

    #[test]
    fn rejects_malformed_input_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "nul",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "{} trailing",
            "1.2.3",
            "{\"a\":1,}",
            "\"\\q\"",
            "\"\\u12\"",
            "\u{1}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Depth bomb: rejected, not a stack overflow.
        let bomb = "[".repeat(200) + &"]".repeat(200);
        assert!(JsonValue::parse(&bomb).is_err());
    }

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
    }

    #[test]
    fn request_parsing_rejects_bad_shapes() {
        for bad in [
            r#"{"q":"p(a)"}"#,
            r#"{"kind":"warp"}"#,
            r#"{"kind":"query"}"#,
            r#"{"kind":"query","q":3}"#,
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
            width_planes: [2, 1, 0, 0],
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
        let widths = v.get("width_planes").and_then(JsonValue::as_array).expect("width_planes");
        assert_eq!(widths.len(), 4, "one bucket per plane width 1/2/4/8");
        assert_eq!(widths[0].as_f64(), Some(2.0));
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
