//! The per-shard answer memo, end to end over real sockets: it is keyed
//! by query text as received and stores each lane's rendered result
//! object, so a hit must reproduce the first serve byte for byte, and
//! every event that can change an answer or a cost must flush it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use qpl_obs::names::{cache as cache_names, serve as names};
use qpl_serve::wire::JsonValue;
use qpl_serve::{ServeEngine, Server, ServerConfig, MEMO_CAPACITY, MEMO_MAX_ENTRY_BYTES};

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Self {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Self { stream, reader }
    }

    /// Sends one request line and returns the reply line's exact bytes
    /// (without its newline).
    fn raw(&mut self, line: &str) -> String {
        self.stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read response");
        assert!(resp.ends_with('\n'), "reply is one whole line: {resp:?}");
        resp.pop();
        resp
    }

    fn query(&mut self, q: &str) -> String {
        self.raw(&format!(r#"{{"kind":"query","q":{}}}"#, quoted(q)))
    }

    fn batch(&mut self, qs: &[String]) -> String {
        let qs = qs.iter().map(|q| quoted(q)).collect::<Vec<_>>().join(",");
        self.raw(&format!(r#"{{"kind":"batch","qs":[{qs}]}}"#))
    }

    /// One counter from the merged metrics snapshot (0 when never
    /// emitted).
    fn counter(&mut self, name: &str) -> u64 {
        let stats = JsonValue::parse(&self.raw(r#"{"kind":"stats"}"#)).expect("stats is JSON");
        let counters = stats.get("metrics").and_then(|m| m.get("counters")).expect("counters");
        counters.get(name).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64
    }

    fn update(&mut self, line: &str) {
        let resp = JsonValue::parse(&self.raw(line)).expect("update reply is JSON");
        assert_eq!(resp.get("kind").and_then(JsonValue::as_str), Some("updated"), "{resp:?}");
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::new();
    qpl_obs::json::push_str(&mut out, s);
    out
}

/// The result object an `answer` line carries, as bytes.
fn fragment(answer_line: &str) -> &str {
    let body = answer_line.strip_prefix(r#"{"v":2,"kind":"answer","result":"#).expect("answer");
    body.strip_suffix('}').expect("closing brace")
}

fn figure1(cfg: ServerConfig) -> Server {
    Server::start(ServeEngine::figure1(), cfg).expect("server starts")
}

#[test]
fn hits_repeat_the_first_serve_and_spelling_variants_agree() {
    let server = figure1(ServerConfig::default());
    let mut c = Client::connect(&server);

    let single = r#"{"kind":"query","q":"instructor(russ)","id":1}"#;
    let first = c.raw(single);
    assert_eq!(c.counter(names::CACHE_HITS), 0);
    assert_eq!(c.raw(single), first, "a memo hit replies byte-identically");
    assert_eq!(c.counter(names::CACHE_HITS), 1);

    let qs: Vec<String> =
        ["instructor(manolis)", "instructor(ada)", "instructor(russ)"].map(String::from).into();
    let batch = c.batch(&qs);
    assert_eq!(c.batch(&qs), batch, "an all-hit batch replies byte-identically");
    assert_eq!(c.counter(names::CACHE_HITS), 1 + 1 + 3);

    // Each spelling is its own memo key and executes once, yet every
    // one carries exactly the canonical text's result object — on its
    // first serve and on its memoized second.
    let canonical = fragment(&c.query("instructor(russ)")).to_string();
    let variants: Vec<String> =
        [" instructor(russ)", "instructor( russ )", "instructor(russ)?", "instructor(russ).\t"]
            .map(String::from)
            .into();
    let want =
        format!(r#"{{"v":2,"kind":"answers","results":[{}]}}"#, [canonical.as_str(); 4].join(","));
    let hits = c.counter(names::CACHE_HITS);
    assert_eq!(c.batch(&variants), want);
    assert_eq!(c.counter(names::CACHE_HITS), hits, "variants miss the canonical text's entry");
    assert_eq!(c.batch(&variants), want);
    assert_eq!(c.counter(names::CACHE_HITS), hits + 4);

    server.shutdown();
    server.join();
}

#[test]
fn bad_lanes_are_never_memoized() {
    let server = figure1(ServerConfig::default());
    let mut c = Client::connect(&server);

    let qs: Vec<String> =
        ["instructor((", "teaches(russ)", "instructor(russ)"].map(String::from).into();
    let first = c.batch(&qs);
    let v = JsonValue::parse(&first).expect("answers is JSON");
    let results = v.get("results").and_then(JsonValue::as_array).expect("results");
    for bad in &results[..2] {
        assert_eq!(bad.get("error").and_then(JsonValue::as_str), Some("bad_query"), "{first}");
    }
    assert_eq!(c.batch(&qs), first, "bad lanes are re-reported identically");
    assert_eq!(c.counter(names::ERRORS), 4, "both bad lanes failed on both serves");
    assert_eq!(c.counter(names::CACHE_HITS), 1, "only the good lane was memoized");

    server.shutdown();
    server.join();
}

#[test]
fn in_footprint_updates_flush_the_memo_and_out_of_footprint_updates_do_not() {
    let server = figure1(ServerConfig::default());
    let mut c = Client::connect(&server);

    let no = c.query("instructor(ada)");
    assert!(no.contains(r#""answer":"no""#), "{no}");
    assert_eq!(c.query("instructor(ada)"), no);
    assert_eq!(c.counter(names::CACHE_HITS), 1);

    // `office` is no predicate the instructor graph retrieves.
    c.update(r#"{"kind":"update","insert":["office(russ, b12)"]}"#);
    assert_eq!(c.query("instructor(ada)"), no, "still served from the memo");
    assert_eq!(c.counter(names::CACHE_HITS), 2);
    assert_eq!(c.counter(cache_names::SELECTIVE_INVALIDATIONS), 0);

    // `prof` is: the memoized "no" must not survive it.
    c.update(r#"{"kind":"update","insert":["prof(ada)"]}"#);
    let yes = c.query("instructor(ada)");
    assert!(yes.contains(r#""answer":"yes","witness":"prof(ada)""#), "{yes}");
    assert_eq!(c.counter(names::CACHE_HITS), 2, "the post-update serve executed");
    assert_eq!(c.counter(cache_names::SELECTIVE_INVALIDATIONS), 1);
    assert_eq!(c.query("instructor(ada)"), yes);
    assert_eq!(c.counter(names::CACHE_HITS), 3, "and memoized its new answer");

    server.shutdown();
    server.join();
}

#[test]
fn a_strategy_climb_flushes_the_memo() {
    let server = figure1(ServerConfig { adapt_delta: Some(0.2), ..ServerConfig::default() });
    let mut c = Client::connect(&server);

    let grads: Vec<String> = (0..1000).map(|i| format!("\"grad(g{i})\"")).collect();
    c.update(&format!(r#"{{"kind":"update","insert":[{}]}}"#, grads.join(",")));

    // Left to right tries `prof` first: russ (a prof) costs least.
    let before = c.query("instructor(russ)");
    assert_eq!(c.query("instructor(russ)"), before);
    assert_eq!(c.counter(names::CACHE_HITS), 1);

    // A stream of grads teaches PIB to try `grad` first. Every text is
    // new, so every lane executes and reaches the learner.
    let mut next = 0;
    while c.counter(names::CLIMBS) == 0 {
        assert!(next < 1000, "PIB never climbed on a pure-grad stream");
        let qs: Vec<String> = (next..next + 50).map(|i| format!("instructor(g{i})")).collect();
        c.batch(&qs);
        next += 50;
    }
    let hits = c.counter(names::CACHE_HITS);
    let invalidations = c.counter(cache_names::SELECTIVE_INVALIDATIONS);

    // Under the climbed strategy russ costs more; a stale memo would
    // still report the old cost.
    let after = c.query("instructor(russ)");
    assert_ne!(after, before, "served under the new strategy, not from the memo");
    assert_eq!(c.counter(names::CACHE_HITS), hits);
    assert_eq!(c.counter(cache_names::SELECTIVE_INVALIDATIONS), invalidations + 1);

    server.shutdown();
    server.join();
}

#[test]
fn a_unique_text_flood_stays_within_the_memo_capacity() {
    let server = figure1(ServerConfig::default());
    let mut c = Client::connect(&server);

    let russ = c.query("instructor(russ)");
    let flood: Vec<String> =
        (0..MEMO_CAPACITY + 200).map(|i| format!("instructor(u{i})")).collect();
    let mut first_replies = Vec::new();
    for chunk in flood.chunks(64) {
        first_replies.push(c.batch(chunk));
    }
    assert_eq!(c.counter(names::CACHE_HITS), 0, "every flood text was new");

    // Every served text was memoized once; evictions took the rest back.
    let evicted = c.counter(names::MEMO_EVICTIONS) as usize;
    assert!(evicted > 0, "the flood overflowed the memo");
    let entries = 1 + flood.len() - evicted;
    assert!(entries <= MEMO_CAPACITY, "{entries} entries held, cap {MEMO_CAPACITY}");

    // Evicted or not, every reply is what it was.
    assert_eq!(c.query("instructor(russ)"), russ);
    for (chunk, want) in flood.chunks(64).zip(&first_replies).take(3) {
        assert_eq!(&c.batch(chunk), want);
    }

    // A lane longer than an entry may be is served, never memoized.
    let long = format!("instructor({})", "x".repeat(MEMO_MAX_ENTRY_BYTES));
    let hits = c.counter(names::CACHE_HITS);
    let first = c.query(&long);
    assert!(first.contains(r#""answer":"no""#), "{first}");
    assert_eq!(c.query(&long), first);
    assert_eq!(c.counter(names::CACHE_HITS), hits, "the long lane executed both times");

    server.shutdown();
    server.join();
}
