//! The benchmark's smoke test: every workload at a tiny corpus size for
//! one second, untraced and traced. Each run must be correct, fail
//! nothing, and report exactly the metrics `BENCHMARK.json` declares, each
//! with its declared unit.
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

/// The entries of one array section of `BENCHMARK.json`, as raw text.
fn entries(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split('{').skip(1).map(str::to_string).collect()
}

/// A string field of one entry.
fn field(entry: &str, key: &str) -> String {
    let at = entry.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
    entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
}

/// `(name, unit)` of every metric in one section.
fn declared(section: &str) -> Vec<(String, String)> {
    entries(section).iter().map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

fn workloads() -> Vec<String> {
    entries("workloads").iter().map(|e| field(e, "name")).collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_codense-perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "1", "--insns", "2000"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_metric_is_reported_and_nothing_fails() {
    for workload in workloads() {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(&workload, trace);
            let ctx = format!("{workload} --trace {trace}: {result}");
            assert!(result.starts_with("{\"correct\": true, "), "{ctx}");
            assert!(result.contains("\"failed\": 0, "), "{ctx}");
            let metrics = declared(section);
            assert_eq!(result.matches("\"value\": ").count(), metrics.len(), "{ctx}");
            for (name, unit) in metrics {
                let at = result
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{name} missing: {ctx}"));
                let entry = &result[at..at + result[at..].find('}').expect("entry ends")];
                assert!(entry.ends_with(&format!("\"unit\": \"{unit}\"")), "{name} unit: {ctx}");
                assert!(!entry.contains("\"value\": -1,"), "{name} has no value: {ctx}");
            }
        }
    }
}
