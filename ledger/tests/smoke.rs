//! Every workload at `--smoke` size emits each declared metric exactly
//! once with a finite value, and `BENCHMARK.json` names exactly what the
//! binary prints.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// The quoted string following `"key":` occurrences, in order.
fn strings_after(text: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\":");
    text.match_indices(&needle)
        .filter_map(|(at, _)| {
            let rest = text[at + needle.len()..].trim_start();
            let rest = rest.strip_prefix('"')?;
            Some(rest[..rest.find('"')?].to_string())
        })
        .collect()
}

/// The `"name"`s inside the array that follows `"section":`.
fn names_in(benchmark: &str, section: &str) -> Vec<String> {
    let start = benchmark
        .find(&format!("\"{section}\":"))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let end = start + benchmark[start..].find(']').expect("a closed array");
    strings_after(&benchmark[start..end], "name")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs one workload at smoke size; returns the metric names and values
/// of its result line.
fn smoke(workload: &str, trace: u8) -> Vec<(String, f64)> {
    let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["run", "--workload", workload, "--smoke", "--seed", "7"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("start the ledger binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = stdout.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": ")
            && result.contains("\"failed\": 0,"),
        "{workload}: unexpected result line {result}"
    );
    let metrics = &result[result.find("\"metrics\":").expect("metrics")..];
    let names: Vec<String> = metrics
        .match_indices("\": {\"value\": ")
        .map(|(at, _)| {
            let head = &metrics[..at];
            head[head.rfind('"').expect("an opening quote") + 1..].to_string()
        })
        .collect();
    let values: Vec<f64> = metrics
        .split("{\"value\": ")
        .skip(1)
        .map(|rest| {
            rest[..rest.find(',').expect("a value")]
                .parse()
                .expect("a number")
        })
        .collect();
    assert_eq!(names.len(), values.len());
    names.into_iter().zip(values).collect()
}

#[test]
fn every_workload_emits_every_declared_metric_once() {
    let benchmark =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let workloads = names_in(&benchmark, "workloads");
    let end_to_end = names_in(&benchmark, "end_to_end");
    let per_layer = names_in(&benchmark, "per_layer");
    assert_eq!(workloads.len(), 5);
    assert!(end_to_end.contains(&"setup_s".to_string()));
    let all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    assert!(all.iter().all(|name| well_formed(name)), "a malformed name");
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );

    for workload in &workloads {
        for (trace, declared) in [(0, &end_to_end), (1, &per_layer)] {
            let emitted = smoke(workload, trace);
            let names: Vec<&String> = emitted.iter().map(|(name, _)| name).collect();
            assert_eq!(
                names,
                declared.iter().collect::<Vec<_>>(),
                "{workload} --trace {trace}: the binary and BENCHMARK.json disagree"
            );
            for (name, value) in &emitted {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if trace == 0 {
                    assert!(*value > 0.0, "{workload}: end-to-end {name} = {value}");
                }
            }
        }
    }
}
