//! Smoke-sized runs (`--seconds 1`) of every workload, untraced and
//! traced: each must exit 0 with a correct result and print exactly the
//! metrics `BENCHMARK.json` declares for its mode, each with its
//! declared unit.

use std::process::Command;

use qpl_serve::JsonValue;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &JsonValue, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {section} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: &str, trace: bool) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    JsonValue::parse(last).expect("the result line is JSON")
}

fn check(workload: &str, trace: bool, want: &[(String, String)]) {
    let result = smoke(workload, trace);
    let JsonValue::Obj(fields) = &result else { panic!("result is an object") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(JsonValue::as_bool), Some(true));
    assert!(result.get("attempted").and_then(JsonValue::as_f64).unwrap_or(0.0) >= 1.0);
    let Some(JsonValue::Obj(metrics)) = result.get("metrics") else { panic!("metrics object") };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some_and(f64::is_finite),
                "{workload}: {name} has a finite value"
            );
            (name.clone(), m.get("unit").and_then(JsonValue::as_str).unwrap_or("").to_string())
        })
        .collect();
    assert_eq!(got, want, "{workload} trace={trace}: metrics and units as declared");
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let doc = benchmark_json();
    let e2e = declared(&doc, "end_to_end");
    let layers = declared(&doc, "per_layer");
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name").to_string())
        .collect();
    // `cold` is runnable but not among the gated workloads.
    let runnable = ["hot", "cold", "churn"];
    assert!(workloads.iter().all(|w| runnable.contains(&w.as_str())), "{workloads:?}");
    for w in runnable {
        check(w, false, &e2e);
        check(w, true, &layers);
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [&["--workload", "warm"][..], &["--workload", "hot", "--trace", "2"], &[]] {
        let out = Command::new(env!("CARGO_BIN_EXE_servebench")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
