//! The committed bench baselines stay valid: each workload, re-run once at
//! the settings its baseline records, reproduces every `exact` entry (the
//! settings and the workload fingerprint). A fingerprint change means the
//! baseline must be re-recorded, and `spio bench --baseline` would refuse
//! to gate against it.

use spio_bench::read_bench::{run_read_bench, ReadBenchConfig};
use spio_bench::regression::{run_fig6, BenchConfig, BenchRecord};

fn committed(name: &str) -> BenchRecord {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap();
    BenchRecord::from_json(&text).unwrap()
}

fn bench_config(base: &BenchRecord) -> BenchConfig {
    BenchConfig {
        procs: base.exact["procs"] as usize,
        per_rank: base.exact["per_rank"] as usize,
        runs: 1,
    }
}

#[test]
fn fig6_baseline_fingerprint_reproduces() {
    let base = committed("BENCH_fig6.json");
    assert_eq!(base.workload, "fig6");
    let cur = run_fig6(&bench_config(&base)).unwrap().record;
    assert_eq!(cur.exact, base.exact);
    assert_eq!(
        cur.time_us.keys().collect::<Vec<_>>(),
        base.time_us.keys().collect::<Vec<_>>()
    );
}

#[test]
fn read_baseline_fingerprint_reproduces() {
    let base = committed("BENCH_read.json");
    assert_eq!(base.workload, "read");
    let cfg = ReadBenchConfig {
        bench: bench_config(&base),
        clients: base.exact["clients"] as usize,
        queries_per_client: base.exact["queries_per_client"] as usize,
    };
    let cur = run_read_bench(&cfg).unwrap().record;
    assert_eq!(cur.exact, base.exact);
    assert_eq!(
        cur.time_us.keys().collect::<Vec<_>>(),
        base.time_us.keys().collect::<Vec<_>>()
    );
}
