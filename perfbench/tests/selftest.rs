//! Self-test of the benchmark: its figures repeat, its output check
//! catches a lost batch, tracing leaves virtual time alone, and
//! `BENCHMARK.json` names exactly the metrics and workloads it prints.

use std::process::Command;
use std::sync::Arc;

use rshuffle_perfbench::trace::Tracer;
use rshuffle_perfbench::workloads::{Batch, Inputs, Kind, Workload};
use rshuffle_perfbench::{END_TO_END, PER_LAYER};
use serde::Value;

fn batch(kind: Kind, seed: u64, tracer: Option<&Arc<Tracer>>) -> Batch {
    let inputs = Inputs {
        seed,
        drop_batch: false,
    };
    Workload { kind, inputs }.batch(tracer)
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field {key}")),
        other => panic!("{key}: not an object: {other:?}"),
    }
}

fn text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => panic!("not a string: {other:?}"),
    }
}

/// `(name, unit)` of each entry of a `BENCHMARK.json` list; the unit is
/// empty for workloads.
fn entries(v: &Value) -> Vec<(String, String)> {
    match v {
        Value::Array(items) => items
            .iter()
            .map(|m| {
                let unit = match m {
                    Value::Object(f) if f.iter().any(|(k, _)| k == "unit") => {
                        text(field(m, "unit"))
                    }
                    _ => String::new(),
                };
                (text(field(m, "name")), unit)
            })
            .collect(),
        other => panic!("not an array: {other:?}"),
    }
}

fn catalogue(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// Runs the command; returns its exit success and its parsed last line.
fn command(args: &[&str]) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_rshuffle-perfbench"))
        .args(args)
        .output()
        .expect("benchmark command starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("the command prints a result");
    let json = serde_json::from_str(last).expect("the last line is JSON");
    (out.status.success(), json)
}

#[test]
fn same_seed_gives_identical_virtual_figures() {
    for kind in [Kind::ShuffleSr, Kind::ShuffleRd, Kind::Tpch] {
        let a = batch(kind, 7, None);
        let b = batch(kind, 7, None);
        assert!(a.failures.is_empty(), "{kind:?}: {:?}", a.failures);
        assert_eq!(a.fingerprint, b.fingerprint, "{kind:?}");
        assert_eq!(a.virt_response_ms, b.virt_response_ms, "{kind:?}");
        let other = batch(kind, 8, None);
        assert_ne!(
            a.fingerprint, other.fingerprint,
            "{kind:?}: the seed shapes the inputs"
        );
    }
}

#[test]
fn traced_and_untraced_batches_agree_on_virtual_time() {
    for kind in [Kind::ShuffleSr, Kind::ShuffleRd, Kind::Tpch] {
        let plain = batch(kind, 3, None);
        let tracer = Tracer::new();
        let traced = batch(kind, 3, Some(&tracer));
        assert!(
            traced.failures.is_empty(),
            "{kind:?}: {:?}",
            traced.failures
        );
        assert_eq!(plain.fingerprint, traced.fingerprint, "{kind:?}");
        assert_eq!(plain.virt_response_ms, traced.virt_response_ms, "{kind:?}");
        assert!(!traced.spans.is_empty(), "{kind:?}: spans recorded");
        // The ledger charges the whole traced section to the layers.
        assert_eq!(
            traced.layers["self.sum_host_s"], traced.layers["self.traced_host_s"],
            "{kind:?}"
        );
    }
}

#[test]
fn dropped_batch_fails_the_command() {
    let args = [
        "--workload",
        "shuffle-rd8",
        "--seed",
        "1",
        "--seconds",
        "0",
        "--trace",
        "0",
    ];
    let (ok, result) = command(&args);
    assert!(ok, "a clean run succeeds: {result:?}");
    assert!(matches!(field(&result, "correct"), Value::Bool(true)));
    let printed: Vec<String> = match field(&result, "metrics") {
        Value::Object(m) => m.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics: {other:?}"),
    };
    let expected: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(printed, expected);

    let (ok, result) = command(&[&args[..], &["--drop-batch"]].concat());
    assert!(!ok, "a lost batch must fail the command");
    assert!(matches!(field(&result, "correct"), Value::Bool(false)));
    assert!(
        matches!(field(&result, "failed"), Value::Int(n) if *n >= 1)
            || matches!(field(&result, "failed"), Value::UInt(n) if *n >= 1)
    );
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = serde_json::from_str(&raw).expect("BENCHMARK.json parses");
    let workloads: Vec<(String, String)> = Kind::ALL
        .iter()
        .map(|k| (k.name().to_string(), String::new()))
        .collect();
    assert_eq!(entries(field(&spec, "workloads")), workloads);
    assert_eq!(entries(field(&spec, "end_to_end")), catalogue(&END_TO_END));
    assert_eq!(entries(field(&spec, "per_layer")), catalogue(&PER_LAYER));
}
