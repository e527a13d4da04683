//! `ledger calibrate` and `ledger diff`: the two tools that decide what
//! the benchmark may claim.
//!
//! `calibrate` runs every workload `--runs` times — a fresh process and a
//! fresh seed each, as the driver does — records each result line in a
//! run-set file, and proposes per workload × end-to-end metric a bound of
//! `max(floor, 2 × the largest relative deviation from the median)`.
//! `diff` compares two run-set files under the bounds committed in
//! `BENCHMARK.json`: one row per workload × end-to-end metric, and a
//! non-zero exit when any row regressed or could not be resolved (its
//! quartile spread is wider than its bound; `setup_s` is exempt from that,
//! as it is in the driver's own rule).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::harness;
use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, WORKLOADS};

/// The smallest bound worth proposing for a metric: below it, two runs of
/// identical code already disagree on this host.
fn floor(metric: &str) -> f64 {
    match metric {
        "enc_per_s" => 0.10,
        "setup_s" => 0.15,
        "peak_rss_mib" => 0.05,
        _ => 0.0,
    }
}

/// The contract caps every bound here.
const BOUND_CAP: f64 = 0.25;

fn benchmark_json() -> Option<Value> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// `run_seconds` of `BENCHMARK.json` (15 when it cannot be read).
pub fn declared_run_seconds() -> f64 {
    benchmark_json()
        .and_then(|b| b.get("run_seconds").and_then(Value::as_f64))
        .unwrap_or(15.0)
}

/// The bound `BENCHMARK.json` commits for each end-to-end metric.
fn declared_bounds() -> BTreeMap<String, f64> {
    benchmark_json()
        .map(|b| {
            b.get("end_to_end")
                .map_or(&[][..], Value::elements)
                .iter()
                .filter_map(|m| {
                    Some((
                        m.get("name")?.as_str()?.to_string(),
                        m.get("bound")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// workload → metric → one value per run.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_run_set(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = json::parse(line).map_err(|e| format!("{path}:{}: {e}", number + 1))?;
        let workload = row
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", number + 1))?;
        let metrics = row
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or_else(|| format!("{path}:{}: no result metrics", number + 1))?;
        for (name, metric) in metrics.members() {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    harness::quantile(&sorted, 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median, the quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them (the rule the driver applies). 0 for fewer than two values.
fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(values)
}

/// Runs every workload `runs` times, writes the run-set file, prints the
/// proposed bounds as a markdown table (also to
/// `ledger/out/calibration.md`). Returns the exit code.
pub fn calibrate(runs: usize, seconds: f64, out: Option<&str>) -> i32 {
    let exe = std::env::current_exe().expect("the path of this binary");
    let out_path = out.map_or_else(|| harness::out_dir().join("calibrate.jsonl"), PathBuf::from);
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).expect("create the output directory");
    }
    let mut file = std::fs::File::create(&out_path).expect("create the run-set file");
    let mut broken = 0;
    for seed in 1..=runs as u64 {
        for (workload, _) in WORKLOADS {
            let output = Command::new(&exe)
                .args(["run", "--workload", workload, "--trace", "0"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .output()
                .expect("start a benchmark run");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout.lines().last().unwrap_or("");
            if !output.status.success() || json::parse(result).is_err() {
                eprintln!("calibrate: {workload} seed {seed} failed:\n{stdout}");
                broken += 1;
                continue;
            }
            writeln!(
                file,
                "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"result\": {result}}}"
            )
            .expect("write the run-set file");
            eprintln!("calibrate: {workload} seed {seed}: {result}");
        }
    }
    file.flush().expect("write the run-set file");
    drop(file);

    let set = read_run_set(&out_path.to_string_lossy()).expect("read back the run-set file");
    let mut table = String::from(
        "| workload | metric | median | largest deviation | quartile spread | proposed bound |\n\
         |---|---|---|---|---|---|\n",
    );
    let mut proposed: BTreeMap<&str, f64> = BTreeMap::new();
    for (workload, _) in WORKLOADS {
        for decl in END_TO_END {
            let Some(values) = set.get(workload).and_then(|m| m.get(decl.name)) else {
                continue;
            };
            let mid = median(values);
            let deviation = values
                .iter()
                .map(|v| (v - mid).abs() / mid)
                .fold(0.0, f64::max);
            let bound = (2.0 * deviation).max(floor(decl.name)).min(BOUND_CAP);
            let entry = proposed.entry(decl.name).or_insert(0.0);
            *entry = entry.max(bound);
            table += &format!(
                "| `{workload}` | `{}` | {mid:.4} {} | {:.1} % | {:.1} % | {bound:.2} |\n",
                decl.name,
                decl.unit,
                deviation * 100.0,
                quartile_spread(values) * 100.0,
            );
        }
    }
    table += "\nPer metric (the largest over the workloads, capped at 0.25): ";
    table += &proposed
        .iter()
        .map(|(name, bound)| format!("`{name}` {bound:.2}"))
        .collect::<Vec<_>>()
        .join(", ");
    table += "\n";
    println!("{table}");
    let _ = std::fs::write(harness::out_dir().join("calibration.md"), &table);
    println!(
        "run set written to {} ({} runs per workload, {seconds} s each)",
        out_path.display(),
        runs
    );
    i32::from(broken > 0)
}

/// Compares two run-set files. Returns the exit code: 1 when any row is
/// `regressed` or `unresolved`, 2 when a file cannot be read.
pub fn diff(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (read_run_set(a_path), read_run_set(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ledger diff: {e}");
            return 2;
        }
    };
    let bounds = declared_bounds();
    let mut bad = 0;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B gains", "spread", "bound"
    );
    for (workload, _) in WORKLOADS {
        for decl in END_TO_END {
            let values = |set: &RunSet| {
                set.get(workload)
                    .and_then(|m| m.get(decl.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<16} {:<14} missing from a run set", decl.name);
                bad += 1;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            // Positive = B is worse than A, as a share of A's median.
            let worse = match decl.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let spread = quartile_spread(&va).max(quartile_spread(&vb));
            let bound = bounds.get(decl.name).copied().unwrap_or(BOUND_CAP);
            // The contract judges `setup_s` by its medians only: a set-up of
            // milliseconds is allowed a spread wider than its bound.
            let verdict = if spread > bound && decl.name != "setup_s" {
                bad += 1;
                "unresolved"
            } else if worse > bound {
                bad += 1;
                "regressed"
            } else if worse < -bound {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{workload:<16} {:<14} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>7.1}% {bound:>6.2}  {verdict}",
                decl.name,
                -worse * 100.0,
                spread * 100.0,
            );
        }
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((quartile_spread(&[40.0, 10.0, 20.0]) - 30.0 / 20.0).abs() < 1e-12);
    }
}
