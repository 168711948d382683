//! `qpl_serve` — stand-alone query server.
//!
//! ```text
//! cargo run --release --bin qpl_serve -- --addr 127.0.0.1:7878 --shape figure1
//! printf '{"kind":"query","q":"instructor(russ)"}\n{"kind":"stats"}\n' | nc 127.0.0.1 7878
//! ```

use std::process::ExitCode;

use qpl_serve::{ServeEngine, Server, ServerConfig};
use qpl_workload::generator::KbParams;

const USAGE: &str = "qpl_serve [--addr HOST:PORT] [--shape figure1|layered] [--seed N]\n\
                     \u{20}         [--shards N] [--adapt DELTA] [--queue LANES]\n\
                     \u{20}         [--data-dir PATH] [--fsync record|batch|off]\n\
 --addr HOST:PORT  bind address (default 127.0.0.1:7878; port 0 = ephemeral)\n\
 --shape SHAPE     knowledge base: figure1 (paper Fig. 1) or layered (default figure1)\n\
 --seed N          RNG seed for --shape layered (default 7)\n\
 --shards N        shared-nothing executor shards, each with its own engine\n\
 \u{20}                 replica (default: available cores)\n\
 --adapt DELTA     enable online PIB adaptation at confidence 1-DELTA (per shard)\n\
 --queue LANES     admission bound in queued query lanes, per shard (default 1024)\n\
 --data-dir PATH   enable durability: recover from PATH at startup, journal\n\
 \u{20}                 every KB delta and adopted strategy, serve `checkpoint`\n\
 --fsync POLICY    WAL fsync policy with --data-dir: record, batch (default), off";

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut shape = "figure1".to_string();
    let mut seed = 7u64;
    let mut cfg = ServerConfig {
        shards: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        ..ServerConfig::default()
    };

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        let Some(value) = args.next() else {
            eprintln!("missing value for {flag}\n{USAGE}");
            return ExitCode::FAILURE;
        };
        let ok = match flag.as_str() {
            "--addr" => {
                addr = value;
                true
            }
            "--shape" => {
                shape = value;
                shape == "figure1" || shape == "layered"
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--shards" => value.parse().map(|v: usize| cfg.shards = v.max(1)).is_ok(),
            "--adapt" => value.parse().map(|v| cfg.adapt_delta = Some(v)).is_ok(),
            "--queue" => value.parse().map(|v| cfg.queue_cap = v).is_ok(),
            "--data-dir" => {
                cfg.data_dir = Some(std::path::PathBuf::from(value));
                true
            }
            "--fsync" => value.parse().map(|v| cfg.fsync = v).is_ok(),
            _ => {
                eprintln!("unknown flag {flag}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        };
        if !ok {
            eprintln!("bad value for {flag}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    cfg.addr = addr;

    let engine = match shape.as_str() {
        "figure1" => ServeEngine::figure1(),
        _ => ServeEngine::layered(seed, &KbParams::default()),
    };
    let example = match shape.as_str() {
        "figure1" => "instructor(russ)",
        _ => "q0(c0)",
    };

    let shards = cfg.shards;
    let server = match Server::start(engine, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = server.local_addr();
    println!("qpl-serve listening on {bound} (shape: {shape}, shards: {shards})");
    println!(
        "try: printf '{{\"kind\":\"query\",\"q\":\"{example}\"}}\\n{{\"kind\":\"stats\"}}\\n' | nc {} {}",
        bound.ip(),
        bound.port()
    );
    // Serves until a client sends {"kind":"shutdown"}.
    server.join();
    println!("qpl-serve drained and stopped");
    ExitCode::SUCCESS
}
