//! Runs every workload at smoke size, untraced and traced, and checks that
//! each passes its correctness gate and reports exactly the metrics
//! `BENCHMARK.json` declares for that mode.

use std::path::Path;
use std::process::Command;

const WORKLOADS: &[&str] = &[
    "serve_replica_f64",
    "serve_replica_f32",
    "serve_drift_f32",
    "table3_exathlon",
];

/// Metric names of one section (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`, in file order.
fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name value") + 1..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--smoke")
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true,"),
        "{workload} (trace {trace}) gate failed:\n{stderr}\n{last}"
    );
    last
}

#[test]
fn every_workload_passes_its_gates_and_reports_every_declared_metric() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.contains(&"setup_s".to_string()));
    for workload in WORKLOADS {
        for (trace, names) in [(false, &e2e), (true, &layers)] {
            let last = run(workload, trace);
            let reported = last.matches("{\"value\": ").count();
            assert_eq!(reported, names.len(), "{workload}: {last}");
            for name in names.iter() {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} misses {name}"
                );
            }
        }
    }
}

#[test]
fn every_per_layer_metric_has_a_prediction() {
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("README");
    let table = &readme[readme.find("| layer metric |").expect("prediction table")..];
    for name in declared("per_layer") {
        assert!(
            table.contains(&format!("`{name}`")),
            "{name} has no row in the prediction table"
        );
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
