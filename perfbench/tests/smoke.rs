//! Smoke test: every workload at the tiny size, untraced and traced. Every
//! metric `BENCHMARK.json` names must print with its unit, no op may fail,
//! and the exact work counters must repeat for the same seed.

use spio_util::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["write-agg", "read-box", "serve-mixed"];

/// A fresh working directory for one test, so fingerprints recorded by
/// other tests or earlier builds cannot leak in.
fn workdir(name: &str) -> PathBuf {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

/// Run the benchmark; return its standard output and parsed last line.
fn run(dir: &Path, workload: &str, trace: u8) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .current_dir(dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let json = Json::parse(last).expect("last line is JSON");
    (stdout, json)
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let metrics = json
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric list");
    metrics
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_metric_prints_with_its_unit_and_nothing_fails() {
    let dir = workdir("metrics");
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let expected = declared(section);
        for workload in WORKLOADS {
            let (stdout, json) = run(&dir, workload, trace);
            assert_eq!(json.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(
                json.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}"
            );
            let metrics = json.get("metrics").expect("metrics");
            for (name, unit) in &expected {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                assert!(m
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite));
                let line = stdout
                    .lines()
                    .find(|l| l.split_whitespace().next() == Some(name))
                    .unwrap_or_else(|| panic!("{workload}: no printed line for {name}"));
                assert!(
                    line.split_whitespace().nth(2) == Some(unit),
                    "{workload}: {line}"
                );
            }
            if trace == 0 {
                let line = stdout
                    .lines()
                    .find(|l| l.starts_with("failed_frac"))
                    .expect("failed_frac line");
                assert!(line.contains(" 0.0000 frac"), "{workload}: {line}");
                assert!(
                    stdout.contains("samples beyond"),
                    "{workload}: tail sample count"
                );
            }
        }
    }
}

#[test]
fn exact_counters_repeat_for_the_same_seed() {
    let dir = workdir("fingerprint");
    for workload in WORKLOADS {
        let (first, _) = run(&dir, workload, 1);
        assert!(
            first.contains("fingerprint: first traced run here"),
            "{first}"
        );
        let (second, json) = run(&dir, workload, 1);
        assert!(
            second.contains("fingerprint: identical to the previous run"),
            "{second}"
        );
        let drift = json
            .get("metrics")
            .and_then(|m| m.get("trace.fingerprint_drift"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(drift, Some(0.0), "{workload}");
    }
}
