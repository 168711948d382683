//! `servebench`: the repository benchmark.
//!
//! ```text
//! servebench --workload hot|cold|churn --seed N --seconds S --trace 0|1
//! servebench --repeat N [--workload hot,cold,churn] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run starts an in-process `qpl_serve::Server` (one shard,
//! adaptation on) on the workload's generated KB, drives it over real
//! TCP from two client threads on two connections, checks every answer
//! against a scalar `QueryProcessor` run, and prints one JSON object as
//! its last line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics of a traced in-process replay of the same
//! generated requests, joined with the untraced run's `stats` reply.
//! A line `{"env": ...}` before it records the environment.
//!
//! A wrong answer prints `"correct": false` and exits 1; a run that
//! cannot complete exits 2 without a result line.
//!
//! `BENCHMARK.json` gates `hot` and `churn`. `cold` (memo bypassed,
//! classification and PIB bound) stays runnable for its per-layer
//! numbers but is not gated: being CPU- and memory-heavy it follows the
//! host's speed, and its ten-run throughput spread reached 0.23 even
//! with the spinners below (0.69 without).
//!
//! While a run measures, one `SCHED_IDLE` spinner per CPU keeps the
//! CPUs out of idle halt (see `net::IdleSpinners`): on a virtual
//! machine, waking a halted vCPU goes through the hypervisor and made
//! every cross-thread handoff of the server slow and erratic.
//!
//! `--repeat N` runs each workload N times (seeds `seed..seed+N`) as
//! child processes and prints each metric's median, quartiles and
//! quartile spread.

mod check;
mod e2e;
mod gen;
mod load;
mod net;
mod repeat;
mod replay;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use gen::{Plan, Workload, BATCH, CONNS};

#[derive(Debug, Clone)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workloads: Vec::new(), seed: 1, seconds: 10, trace: false, repeat: None };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag {
            "--workload" => {
                for w in value.split(',') {
                    args.workloads
                        .push(Workload::parse(w).ok_or_else(|| bad("hot, cold or churn"))?);
                }
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| bad("a positive integer"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--repeat" => {
                args.repeat =
                    Some(value.parse().ok().filter(|&n| n > 0).ok_or_else(|| bad("a count"))?);
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
        i += 2;
    }
    Ok(args)
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    out.push_str("}}");
    Ok(out)
}

/// The filesystem type of the mount holding `path`.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    info.lines()
        .filter_map(|l| {
            let mut halves = l.split(" - ");
            let mount = halves.next()?.split_whitespace().nth(4)?;
            let fstype = halves.next()?.split_whitespace().next()?;
            path.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The checkout's commit, if it is a git work tree. Git is kept from
/// searching above the working directory, so a checkout without `.git`
/// never reads a parent repository.
fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn env_line(plan: &Plan, args: &Args, run_dir: &Path, e: &e2e::E2e) -> String {
    let mut o = String::from("{\"env\": {");
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let durable = plan.workload == Workload::Churn;
    let _ = write!(
        o,
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"shards\": 1, \"client_threads\": {CONNS}, \"connections\": {CONNS}, \"batch\": {BATCH}, \
         \"fsync\": \"{}\", \"data_dir_fs\": ",
        plan.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if durable { "off (served); batch (traced replay)" } else { "n/a (no data dir)" },
    );
    push_json_str(&mut o, &if durable { filesystem_of(run_dir) } else { "n/a".to_string() });
    let _ = write!(
        o,
        ", \"kb\": {{\"layers\": {}, \"rules_per_layer\": {}, \"arcs\": {}, \"facts\": {}, \
         \"constants\": {}, \"kb_constants_present\": {}}}",
        plan.layers,
        plan.rules,
        e.arcs,
        plan.facts,
        plan.names.len(),
        plan.present,
    );
    let _ = write!(
        o,
        ", \"load\": {{\"open_rate_rps\": {}, \"ladder_rps\": \"{} * {}^i\", \
         \"ladder_rungs\": {}, \"slo_p99_ms\": {}, \"update_every\": {}, \
         \"checkpoint_every\": {}}}",
        plan.load.open_rate,
        e2e::LADDER_BASE,
        e2e::LADDER_RATIO,
        e2e::LADDER_RUNGS,
        e2e::SLO_MS,
        plan.load.update_every,
        plan.load.checkpoint_every,
    );
    let _ = write!(
        o,
        ", \"samples\": {{\"setup_reps\": {}, \"latency\": {}, \"update\": {}, \"lanes_checked\": {}}}",
        e.setup_samples.len(),
        e.lat_samples,
        e.update_samples,
        e.lanes_checked,
    );
    o.push_str(", \"rungs\": [");
    for (i, r) in e.rungs.iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        let _ = write!(
            o,
            "{{\"rate_rps\": {}, \"p99_ms\": {:.3}, \"served_qps\": {:.0}, \"samples\": {}, \
             \"failed\": {}, \"overran\": {}, \"passed\": {}}}",
            r.rate, r.p99_ms, r.served_qps, r.samples, r.failed, r.overran, r.passed
        );
    }
    let _ = write!(
        o,
        "], \"ladder_resolved\": {}, \"rss_setup_mb\": {:.3}, \"cold_pool_wraps\": {}, \
         \"commit\": ",
        e.ladder_resolved, e.rss_setup_mb, e.cold_pool_wraps
    );
    push_json_str(&mut o, &commit());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let _ = write!(o, ", \"profile\": \"{profile}\"}}}}");
    o
}

fn end_to_end_metrics(e: &e2e::E2e) -> Vec<Metric> {
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup_s", "s", e.setup_s),
        m("qps_peak", "1/s", e.qps_peak),
        m("lat_p50_ms", "ms", e.lat_p50_ms),
        m("qps_at_slo", "1/s", e.qps_at_slo),
        m("cost_mean", "cost", e.cost_mean),
        m("rss_mb", "MB", e.rss_mb),
    ]
}

fn run_one(args: &Args, workload: Workload) -> Result<(String, bool), String> {
    let plan = Plan::new(workload, args.seed, args.seconds);
    let root = PathBuf::from(".bench_run");
    let run_dir = root.join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = (|| {
        let _spin = net::IdleSpinners::start();
        let e = e2e::run(&plan, args.seconds as f64, &run_dir)?;
        println!("{}", env_line(&plan, args, &run_dir, &e));
        for w in e.wrong.iter().take(10) {
            eprintln!("servebench: wrong answer: {w}");
        }
        let correct = e.wrong.is_empty();
        let metrics = if args.trace {
            replay::per_layer(&plan, args.seconds, &e, &run_dir, &root)?
        } else {
            end_to_end_metrics(&e)
        };
        Ok((result_line(correct, e.attempted, e.failed, &metrics)?, correct))
    })();
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(n) = args.repeat {
        let workloads =
            if args.workloads.is_empty() { Workload::ALL.to_vec() } else { args.workloads.clone() };
        std::process::exit(repeat::run(&workloads, n, args.seed, args.seconds, args.trace));
    }
    let [workload] = args.workloads[..] else {
        eprintln!("servebench: pass exactly one --workload (hot, cold or churn)");
        std::process::exit(2);
    };
    match run_one(&args, workload) {
        Ok((line, correct)) => {
            println!("{line}");
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    }
}
