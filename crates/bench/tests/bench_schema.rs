//! The committed `BENCH_*.json` files and `qpl_report`'s metrics
//! snapshot hold the shapes `qpl_bench::schema` declares — the same
//! declarations every bench bin checks before it writes.

use std::path::Path;
use std::process::Command;

use qpl_bench::schema;
use qpl_obs::JsonValue;

#[test]
fn committed_bench_files_match_their_schemas() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for schema in schema::BENCH_FILES {
        let path = root.join(schema.file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} is committed: {e}", path.display()));
        let doc = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", schema.file));
        if let Err(e) = schema.check(&doc) {
            panic!("{e}");
        }
    }
}

#[test]
fn qpl_report_snapshot_matches_its_schema() {
    let out = Command::new(env!("CARGO_BIN_EXE_qpl_report"))
        .args(["--seed", "1818"])
        .output()
        .expect("qpl_report runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).expect("utf-8 snapshot");
    let doc = JsonValue::parse(&text).expect("the snapshot is JSON");
    if let Err(e) = schema::METRICS.check(&doc) {
        panic!("{e}");
    }
}

#[test]
fn a_missing_required_key_or_a_failed_assertion_is_reported() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join(schema::STORE.file)).unwrap();
    let JsonValue::Obj(mut fields) = JsonValue::parse(&text).unwrap() else { panic!("object") };
    let restart = fields.iter_mut().find(|(k, _)| k == "restart").expect("restart block");
    let JsonValue::Obj(restart) = &mut restart.1 else { panic!("restart is an object") };
    restart.iter_mut().find(|(k, _)| k == "climbs").expect("climbs").1 = JsonValue::Num(0.0);
    let doc = JsonValue::Obj(fields.clone());
    assert_eq!(schema::STORE.check(&doc), Err("BENCH_store.json: restart learned no climb".into()));

    fields.retain(|(k, _)| k != "checkpoint");
    assert_eq!(
        schema::STORE.check(&JsonValue::Obj(fields)),
        Err("BENCH_store.json: missing key checkpoint".to_string())
    );
}
