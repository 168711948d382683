//! Golden bytes of every wire response renderer.
//!
//! Clients compare reply lines byte for byte (costs bit-for-bit against
//! local scalar runs), so the exact text each `render_*` produces is part
//! of the protocol. These strings pin it: any change to the bytes a
//! renderer writes fails here, not at a client.

use qpl_serve::wire::{
    render_answer, render_answers, render_bye, render_checkpointed, render_error, render_fragments,
    render_lane, render_pong, render_stats, render_updated, LaneResult, ShardStatsView, StatsView,
    StoreStatsView,
};

fn lanes() -> [LaneResult; 3] {
    [
        LaneResult::Yes { witness: "prof(russ)".to_string(), cost: 2.5 },
        LaneResult::No { cost: 0.1 + 0.2 },
        LaneResult::Error { detail: "no \"such\"\tpredicate\n".to_string() },
    ]
}

fn stats(store: bool) -> StatsView {
    let shard = |i: u64| ShardStatsView {
        shard: i,
        queue_lanes: i,
        served: 64 - 28 * i,
        batches: 2 - i,
        declined: 1,
        errors: 0,
        climbs: i,
        adoptions: 1 - i,
        deltas_applied: 5,
        fill_ratio: 0.5,
        p50_us: 120.25,
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
        shards: vec![shard(0), shard(1)],
        store: store.then_some(StoreStatsView {
            wal_bytes: 4096,
            segments: 1,
            records_appended: 12,
            records_replayed: 3,
            last_checkpoint_unix_secs: 1_700_000_000,
            snapshot_bytes: 2048,
            degraded: true,
        }),
        metrics_line: "{\"schema_version\": 1,\"counters\": {}}".to_string(),
    }
}

/// One reply per line, in the order `every_renderer_writes_its_golden_bytes`
/// renders them.
const GOLDEN: &str = r#"{"v":2,"kind":"pong"}
{"v":2,"kind":"bye"}
{"v":2,"kind":"error","error":"bad_request","detail":"expected ':' at \"x\""}
{"v":2,"kind":"error","id":3,"error":"overloaded","detail":"queue full"}
{"v":2,"kind":"answer","result":{"answer":"yes","witness":"prof(russ)","cost":2.5}}
{"v":2,"kind":"answer","id":9,"result":{"answer":"yes","witness":"prof(russ)","cost":2.5}}
{"v":2,"kind":"answer","result":{"answer":"no","cost":0.30000000000000004}}
{"v":2,"kind":"answer","id":0,"result":{"answer":"no","cost":0.30000000000000004}}
{"v":2,"kind":"answer","result":{"error":"bad_query","detail":"no \"such\"\tpredicate\n"}}
{"v":2,"kind":"answer","id":9007199254740991,"result":{"error":"bad_query","detail":"no \"such\"\tpredicate\n"}}
{"v":2,"kind":"answers","id":4,"results":[{"answer":"yes","witness":"prof(russ)","cost":2.5},{"answer":"no","cost":0.30000000000000004},{"error":"bad_query","detail":"no \"such\"\tpredicate\n"}]}
{"v":2,"kind":"answers","results":[]}
{"v":2,"kind":"updated","id":4,"inserted":2,"retracted":1,"deltas_applied":7}
{"v":2,"kind":"updated","inserted":0,"retracted":0,"deltas_applied":0}
{"v":2,"kind":"checkpointed","id":6,"through_seq":42,"snapshot_bytes":2048,"segments_removed":3}
{"v":2,"kind":"checkpointed","through_seq":0,"snapshot_bytes":0,"segments_removed":0}
{"v":2,"kind":"stats","queue_lanes":1,"served":100,"batches":3,"shed":2,"errors":1,"climbs":1,"adoptions":1,"steer_fallbacks":4,"deltas_applied":10,"fill_ratio":0.52,"p50_us":130.5,"p99_us":900,"shards":[{"shard":0,"queue_lanes":0,"served":64,"batches":2,"declined":1,"errors":0,"climbs":0,"adoptions":1,"deltas_applied":5,"fill_ratio":0.5,"p50_us":120.25,"p99_us":800,"strategy_fp":"00000000deadbeef"},{"shard":1,"queue_lanes":1,"served":36,"batches":1,"declined":1,"errors":0,"climbs":1,"adoptions":0,"deltas_applied":5,"fill_ratio":0.5,"p50_us":120.25,"p99_us":800,"strategy_fp":"00000000deadbef0"}],"metrics":{"schema_version": 1,"counters": {}}}
{"v":2,"kind":"stats","queue_lanes":1,"served":100,"batches":3,"shed":2,"errors":1,"climbs":1,"adoptions":1,"steer_fallbacks":4,"deltas_applied":10,"fill_ratio":0.52,"p50_us":130.5,"p99_us":900,"shards":[{"shard":0,"queue_lanes":0,"served":64,"batches":2,"declined":1,"errors":0,"climbs":0,"adoptions":1,"deltas_applied":5,"fill_ratio":0.5,"p50_us":120.25,"p99_us":800,"strategy_fp":"00000000deadbeef"},{"shard":1,"queue_lanes":1,"served":36,"batches":1,"declined":1,"errors":0,"climbs":1,"adoptions":0,"deltas_applied":5,"fill_ratio":0.5,"p50_us":120.25,"p99_us":800,"strategy_fp":"00000000deadbef0"}],"store":{"wal_bytes":4096,"segments":1,"records_appended":12,"records_replayed":3,"last_checkpoint_unix_secs":1700000000,"snapshot_bytes":2048,"degraded":true},"metrics":{"schema_version": 1,"counters": {}}}"#;

#[test]
fn every_renderer_writes_its_golden_bytes() {
    let [yes, no, err] = lanes();
    let got = [
        render_pong(),
        render_bye(),
        render_error("bad_request", "expected ':' at \"x\"", None),
        render_error("overloaded", "queue full", Some(3)),
        render_answer(&yes, None),
        render_answer(&yes, Some(9)),
        render_answer(&no, None),
        render_answer(&no, Some(0)),
        render_answer(&err, None),
        render_answer(&err, Some(9_007_199_254_740_991)),
        render_answers(&lanes(), Some(4)),
        render_answers(&[], None),
        render_updated(2, 1, 7, Some(4)),
        render_updated(0, 0, 0, None),
        render_checkpointed(42, 2048, 3, Some(6)),
        render_checkpointed(0, 0, 0, None),
        render_stats(&stats(false)),
        render_stats(&stats(true)),
    ];
    assert_eq!(got.len(), GOLDEN.lines().count());
    for (got, want) in got.iter().zip(GOLDEN.lines()) {
        assert_eq!(got, want);
    }
}

/// A shard replies by concatenating lane fragments (memoized or fresh)
/// into an envelope; those lines must be the goldens' bytes exactly.
#[test]
fn lines_built_from_lane_fragments_equal_the_goldens() {
    let frags = lanes().map(|l| render_lane(&l));
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let singles = [
        (0, None),
        (0, Some(9)),
        (1, None),
        (1, Some(0)),
        (2, None),
        (2, Some(9_007_199_254_740_991)),
    ];
    for ((lane, id), want) in singles.into_iter().zip(&golden[4..10]) {
        assert_eq!(render_fragments(std::iter::once(&frags[lane]), false, id), *want);
    }
    assert_eq!(render_fragments(frags.iter(), true, Some(4)), golden[10]);
    assert_eq!(render_fragments(std::iter::empty::<&str>(), true, None), golden[11]);
}
