//! Smoke test of the benchmark at a tiny budget: every metric named in
//! `BENCHMARK.json` prints with its unit, the output checks pass, and two
//! runs with the same seed give the same front digest.

use mcmap_obs::{parse_json, Json};
use std::process::Command;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    match json.get(key) {
        Some(Json::Arr(items)) => items,
        _ => panic!("BENCHMARK.json: `{key}` is not a list"),
    }
}

fn field<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}`"))
}

/// Runs one smoke-budget benchmark and returns its standard output.
fn run(workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0",
            "--trace",
            &trace.to_string(),
            "--budget",
            "smoke",
        ])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn label<'a>(stdout: &'a str, workload: &str, name: &str) -> &'a str {
    let prefix = format!("[{workload}] {name} = ");
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("{workload}: no `{name}` label"))
}

#[test]
fn every_named_metric_prints_with_its_unit_and_checks_pass() {
    let spec = spec();
    for w in list(&spec, "workloads") {
        let workload = field(w, "name");
        for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let stdout = run(workload, 5, trace);
            let result = parse_json(stdout.lines().last().expect("a result line"))
                .expect("the result line is JSON");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let named = list(&spec, key);
            assert_eq!(metrics.len(), named.len(), "{workload} trace {trace}");
            for m in named {
                let (name, unit) = (field(m, "name"), field(m, "unit"));
                let got = result
                    .get("metrics")
                    .and_then(|ms| ms.get(name))
                    .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
                assert_eq!(got.get("unit").and_then(Json::as_str), Some(unit));
                assert!(got.get("value").and_then(Json::as_f64).is_some());
                let line = format!("[{workload}] {name} = ");
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&line) && l.ends_with(&format!(" {unit}"))),
                    "{workload}: `{name}` not printed with unit {unit}"
                );
            }
        }
    }
}

#[test]
fn same_seed_gives_the_same_front_digest() {
    for workload in ["dse-paper", "dse-fleet", "validate"] {
        let (a, b) = (run(workload, 9, 0), run(workload, 9, 0));
        assert_eq!(
            label(&a, workload, "front_digest"),
            label(&b, workload, "front_digest")
        );
        if workload == "validate" {
            assert_eq!(
                label(&a, workload, "campaign_digest"),
                label(&b, workload, "campaign_digest")
            );
        }
    }
}
