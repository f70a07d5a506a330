//! The benchmark's contract: every named metric is emitted with its unit,
//! a traced run records spans in every layer, and `BENCHMARK.json` at the
//! repository root lists exactly what the benchmark emits.

use oxbar_servebench::layers::per_layer_table;
use oxbar_servebench::{run, Options, END_TO_END, WORKLOADS};
use serde::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn options(workload: &str, seconds: f64, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 7,
        seconds,
        trace,
        spans: Some(
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("spans-{workload}.jsonl")),
        ),
    }
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} should be a string, got {other:?}"),
    }
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key} should be an array, got {other:?}"),
    }
}

/// The JSON result line parses and carries the given metrics, each with
/// its unit and a finite value.
fn check_result_line(json: &str, expected: &[(String, &str)]) {
    let result: Value = serde_json::from_str(json).expect("result line is JSON");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{json}");
    assert_eq!(result.get("failed"), Some(&Value::Int(0)), "{json}");
    let metrics = result.get("metrics").expect("metrics");
    let Value::Object(fields) = metrics else {
        panic!("metrics should be an object");
    };
    let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let want: BTreeSet<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names.iter().copied().collect::<BTreeSet<_>>(), want);
    assert_eq!(names.len(), want.len(), "no metric twice");
    for (name, unit) in expected {
        let metric = metrics.get(name).expect("metric present");
        assert_eq!(str_field(metric, "unit"), *unit, "{name}");
        match metric.get("value") {
            Some(Value::Float(v)) => assert!(v.is_finite(), "{name}"),
            Some(Value::Int(_)) => {}
            other => panic!("{name} value should be a number, got {other:?}"),
        }
    }
}

#[test]
fn tiny_runs_emit_every_end_to_end_metric() {
    let expected: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for workload in WORKLOADS {
        let outcome = run(&options(workload, 0.3, false)).expect("run");
        assert!(outcome.correct, "{workload}: {:?}", outcome.report);
        check_result_line(&outcome.json(), &expected);
        for m in &outcome.metrics {
            assert!(m.value > 0.0, "{workload} {} must not read 0", m.name);
        }
    }
}

#[test]
fn traced_runs_emit_every_layer_metric_and_span() {
    let expected: Vec<(String, &str)> = per_layer_table()
        .into_iter()
        .map(|(n, u, _, _)| (n, u))
        .collect();
    let modules = [
        "protocol", "server", "engine", "batcher", "cluster", "executor", "tile", "llm",
        "transfer", "pcm",
    ];
    for workload in WORKLOADS {
        let opts = options(workload, 1.0, true);
        let outcome = run(&opts).expect("run");
        assert!(outcome.correct, "{workload}: {:?}", outcome.report);
        check_result_line(&outcome.json(), &expected);
        let spans = std::fs::read_to_string(opts.spans.as_ref().expect("path")).expect("spans");
        let mut layers = BTreeSet::new();
        for line in spans.lines() {
            let span: Value = serde_json::from_str(line).expect("span line is JSON");
            for key in ["id", "start_ns", "end_ns", "parent", "request"] {
                assert!(span.get(key).is_some(), "span lacks {key}: {line}");
            }
            let name = str_field(&span, "name");
            layers.insert(name.split('.').next().expect("layer").to_string());
        }
        for module in modules {
            // Only the wire workload runs a server.
            if module == "server" && workload != "wire_mixed" {
                continue;
            }
            assert!(
                layers.contains(module),
                "{workload}: no {module} span in {layers:?}"
            );
        }
    }
}

#[test]
fn benchmark_json_lists_what_the_benchmark_emits() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = array(&bench, "workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e: Vec<(&str, &str)> = array(&bench, "end_to_end")
        .iter()
        .map(|m| (str_field(m, "name"), str_field(m, "unit")))
        .collect();
    assert_eq!(e2e, END_TO_END);
    let layers: Vec<(String, &str, &str)> = array(&bench, "per_layer")
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit"),
                str_field(m, "better"),
            )
        })
        .collect();
    let table: Vec<(String, &str, &str)> = per_layer_table()
        .into_iter()
        .map(|(n, u, b, _)| (n, u, b))
        .collect();
    assert_eq!(layers, table);
}
