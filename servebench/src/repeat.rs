//! `--repeat N`: each workload N times, one child process per run (so
//! peak memory and interning never carry over), then each metric's
//! median, quartiles and quartile spread (`(q3 - q1) / median`, the
//! statistic the benchmark's bounds are checked against).

use std::collections::BTreeMap;
use std::process::Command;

use qpl_serve::JsonValue;

use crate::gen::Workload;
use crate::stats::quartiles;

/// Returns the process exit code: 0 when every run succeeded.
pub fn run(workloads: &[Workload], n: usize, seed: u64, seconds: u64, trace: bool) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("servebench: cannot locate own binary: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for &w in workloads {
        let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let mut unresolved = 0;
        for i in 0..n as u64 {
            let s = seed + i;
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &s.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
                .output();
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("servebench: {} seed {s}: {e}", w.name());
                    code = 2;
                    continue;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            let parsed = stdout.lines().last().and_then(|l| JsonValue::parse(l).ok());
            let Some(result) = parsed.filter(|_| out.status.success()) else {
                eprintln!(
                    "servebench: {} seed {s} failed ({}): {}",
                    w.name(),
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                );
                code = 1;
                continue;
            };
            let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
                continue;
            };
            let resolved = stdout.lines().find_map(|l| {
                JsonValue::parse(l).ok()?.get("env")?.get("ladder_resolved")?.as_bool()
            });
            unresolved += usize::from(resolved != Some(true));
            let mut row = Vec::new();
            for (name, m) in metrics {
                let v = m.get("value").and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("").to_string();
                values.entry(name.clone()).or_insert((unit, Vec::new())).1.push(v);
                row.push(format!("{name}={v:.4}"));
            }
            println!("{} seed {s}: {}", w.name(), row.join(" "));
        }
        println!("{} over {n} runs ({unresolved} with an unresolved ladder):", w.name());
        println!(
            "  {:<40} {:>12} {:>12} {:>12} {:>8}  unit",
            "metric", "q1", "median", "q3", "spread"
        );
        for (name, (unit, vs)) in &values {
            let (q1, med, q3) = quartiles(vs);
            let spread = if med != 0.0 { (q3 - q1) / med.abs() } else { 0.0 };
            println!("  {name:<40} {q1:>12.4} {med:>12.4} {q3:>12.4} {spread:>8.4}  {unit}");
        }
    }
    code
}
