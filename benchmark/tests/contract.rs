//! The benchmark's own contract: `BENCHMARK.json` is what `contract.rs`
//! generates, its names are well formed and used once, and every run of
//! every workload prints valid JSON that emits exactly those names.

use p2pmpi_benchmark::contract::{
    benchmark_json, COMMAND, END_TO_END, PATHS, PER_LAYER, WORKLOADS,
};
use p2pmpi_benchmark::json::{parse, Value};
use std::collections::BTreeSet;
use std::process::Command;

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

#[test]
fn committed_benchmark_json_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with `cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --print-contract > BENCHMARK.json`"
    );
    assert!(committed.len() <= 64 * 1024);
    let doc = parse(&committed).expect("BENCHMARK.json is JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn contract_names_are_well_formed_and_used_once() {
    let mut seen = BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(is_name(name), "{name:?} is not a contract name");
        assert!(seen.insert(name), "{name:?} is used twice");
    }
    for w in &WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
    }
    for (unit, better) in END_TO_END
        .iter()
        .map(|m| (m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.unit, m.better)))
    {
        assert!(is_unit(unit), "{unit:?} is not a contract unit");
        assert!(matches!(better, "lower" | "higher"));
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
    }
    // The command names nothing of the repository outside `paths`.
    for arg in COMMAND {
        assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
        assert!(
            !arg.contains('/') || PATHS.iter().any(|p| arg.starts_with(p)),
            "{arg}"
        );
    }
}

/// Runs one smoke pass of `workload` and returns the parsed result line,
/// having checked that every line printed is JSON.
fn smoke(workload: &str, trace: &str) -> Value {
    let spans = format!("{}/spans-{workload}.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_p2pmpi-benchmark"))
        .args([
            "--workload",
            workload,
            "--smoke",
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", trace, "--spans", &spans])
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let lines: Vec<Value> = stdout
        .lines()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("{workload}: not JSON ({e}): {l}")))
        .collect();
    if trace == "1" && workload.starts_with("day_") {
        let log = std::fs::read_to_string(&spans).expect("the traced day wrote its spans");
        assert!(log.lines().count() > 10);
        for line in log.lines() {
            let span = parse(line).expect("a span is JSON");
            for key in ["name", "start_ns", "end_ns", "parent", "job"] {
                assert!(span.get(key).is_some(), "span without {key}: {line}");
            }
        }
    }
    lines.last().expect("a result line").clone()
}

fn check_result(workload: &str, result: &Value, expected: &[(&str, &str)]) {
    let keys: Vec<&str> = result
        .as_object()
        .expect("the result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    let count = |key: &str| result.get(key).and_then(Value::as_f64).expect("a count");
    assert!(count("attempted") >= 1.0 && count("attempted").fract() == 0.0);
    assert_eq!(count("failed"), 0.0, "{workload}");
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let emitted: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).expect("a value");
            assert!(value.is_finite(), "{workload}: {name}");
            (
                name.as_str(),
                m.get("unit").and_then(Value::as_str).expect("a unit"),
            )
        })
        .collect();
    assert_eq!(
        emitted, expected,
        "{workload} emits exactly the contract's names, in order"
    );
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let expected: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for w in &WORKLOADS {
        let result = smoke(w.name, "0");
        check_result(w.name, &result, &expected);
        let metrics = result.get("metrics").expect("metrics");
        for (name, _) in &expected {
            let value = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{}: {name} must never be 0",
                w.name
            );
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let expected: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for w in &WORKLOADS {
        check_result(w.name, &smoke(w.name, "1"), &expected);
    }
}
