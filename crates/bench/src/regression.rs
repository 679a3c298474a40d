//! Bench regression gates. `spio bench` runs the desk-scale Fig. 6 write
//! workload ([`run_fig6`]) and `spio bench --read` the read-serving
//! workload ([`crate::read_bench`]); each distills its run into one
//! [`BenchRecord`], written to and compared against a committed baseline
//! (`BENCH_fig6.json`, `BENCH_read.json`).
//!
//! A record holds two maps. `exact` is the workload's fingerprint: its
//! settings and the counts that repeat exactly from run to run (bytes
//! written, bytes sent, storage ops, particles served). `time_us` holds
//! min-across-runs wall times; min-of-N absorbs scheduler noise. [`compare`]
//! refuses to gate records whose fingerprints or key sets differ — the
//! baseline then describes a different workload and must be re-recorded —
//! and otherwise reports every time that grew past [`DEFAULT_THRESHOLD`]
//! plus [`SLACK_US`].

use crate::fig6::{fig6_factors, write_job};
use crate::read_bench::Replay;
use spio_core::{DatasetReader, TracedStorage};
use spio_trace::{JobReport, Trace, TraceSnapshot};
use spio_types::{Aabb3, SpioError};
use spio_util::Json;
use std::collections::{BTreeMap, BTreeSet};

/// Relative slowdown tolerated before a time counts as regressed.
pub const DEFAULT_THRESHOLD: f64 = 0.20;

/// Absolute slack (µs) added on top of the relative threshold. Desk-scale
/// phases run single-digit milliseconds and thread-scheduling noise on a
/// shared machine is bimodal at that scale, so the slack must cover a full
/// scheduling hiccup; the relative threshold carries the gate once phases
/// are long enough to measure honestly.
pub const SLACK_US: u64 = 20_000;

const FORMAT: &str = "spio-bench-record";
const VERSION: u64 = 2;

/// How to run the Fig. 6 benchmark workload.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Thread-runtime ranks per job.
    pub procs: usize,
    /// Particles per rank.
    pub per_rank: usize,
    /// Repetitions per configuration; times keep the minimum.
    pub runs: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            procs: 8,
            per_rank: 5_000,
            runs: 5,
        }
    }
}

/// The record both bench gates write and compare. Keys of per-partition-
/// factor values read `"<factor>/<name>"` (e.g. `"2x2x1/file_io"`); other
/// keys are bare names (e.g. `"procs"`, `"cold_box"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// Which workload produced the record: `"fig6"` or `"read"`.
    pub workload: String,
    /// Settings and deterministic counts; a baseline must match exactly.
    pub exact: BTreeMap<String, u64>,
    /// Min-across-runs wall times (µs), gated by threshold + slack.
    pub time_us: BTreeMap<String, u64>,
}

/// Everything one bench invocation produces: the comparable record plus
/// the last job's observability artifacts.
#[derive(Debug)]
pub struct BenchRun {
    pub record: BenchRecord,
    /// Trace snapshot of the final job.
    pub snapshot: TraceSnapshot,
    /// Report derived from `snapshot`.
    pub report: JobReport,
    /// Metrics-registry dump of the final job, one JSON object per line.
    pub metrics_jsonl: String,
    /// The last run's multi-client replay (read workload only).
    pub replay: Option<Replay>,
}

/// Run the Fig. 6 workload under `cfg` with full tracing (phases, comm,
/// storage, metrics) and distill a [`BenchRecord`]. Per partition factor
/// it keeps the min-across-runs of the max-across-ranks phase wall times
/// (max-of-ranks is the job's critical path, matching how Fig. 6 reports
/// time) and, as the fingerprint, the bytes written, bytes sent and
/// storage ops.
///
/// The last job additionally replays a whole-domain read through a traced
/// reader, so the returned snapshot/report exercise the read path too.
pub fn run_fig6(cfg: &BenchConfig) -> Result<BenchRun, SpioError> {
    let factors = fig6_factors(cfg.procs);
    let runs = cfg.runs.max(1);
    let mut record = BenchRecord::new("fig6", [("procs", cfg.procs), ("per_rank", cfg.per_rank)]);
    let mut last = None;
    for (fi, &factor) in factors.iter().enumerate() {
        for run in 0..runs {
            let trace = Trace::collecting();
            let (storage, _) = write_job(cfg.procs, cfg.per_rank, factor, &trace)?;
            let is_last_job = fi + 1 == factors.len() && run + 1 == runs;
            if is_last_job {
                // Whole-domain read pass through the traced reader, so the
                // exported snapshot covers reads as well as the write job.
                let traced = TracedStorage::new(storage, trace.clone(), 0);
                let reader = DatasetReader::open_traced(&traced, trace.clone(), 0)?;
                reader.read_box(&traced, &Aabb3::new([0.0; 3], [1.0; 3]))?;
            }
            let report = JobReport::from_snapshot(cfg.procs, &trace.snapshot());
            for (name, value) in [
                (
                    "bytes_written",
                    report.storage_bytes("write_file") + report.storage_bytes("write_range"),
                ),
                ("bytes_sent", report.total_bytes_sent()),
                ("storage_ops", report.storage.len() as u64),
            ] {
                record.exact.insert(format!("{factor}/{name}"), value);
            }
            for phase in report.phase_names() {
                record.keep_min(
                    format!("{factor}/{phase}"),
                    report.phase_max(phase).as_micros() as u64,
                );
            }
            if is_last_job {
                last = Some(trace);
            }
        }
    }
    let trace = last.ok_or_else(|| {
        SpioError::Config(format!(
            "no fig6 partition factor is valid at {} ranks",
            cfg.procs
        ))
    })?;
    let metrics_jsonl = trace.metrics().to_jsonl();
    let snapshot = trace.take_snapshot();
    let report = JobReport::from_snapshot(cfg.procs, &snapshot);
    Ok(BenchRun {
        record,
        snapshot,
        report,
        metrics_jsonl,
        replay: None,
    })
}

impl BenchRecord {
    /// An empty record of `workload` whose fingerprint starts with its
    /// settings.
    pub(crate) fn new<const N: usize>(workload: &str, settings: [(&str, usize); N]) -> Self {
        BenchRecord {
            workload: workload.to_string(),
            exact: settings
                .into_iter()
                .map(|(k, v)| (k.to_string(), v as u64))
                .collect(),
            time_us: BTreeMap::new(),
        }
    }

    /// Fold one run's time for `key` into the running minimum.
    pub(crate) fn keep_min(&mut self, key: String, micros: u64) {
        let t = self.time_us.entry(key).or_insert(micros);
        *t = (*t).min(micros);
    }

    pub fn to_json(&self) -> String {
        let map = |m: &BTreeMap<String, u64>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::u64(*v))).collect())
        };
        Json::Obj(vec![
            ("format".into(), Json::str(FORMAT)),
            ("version".into(), Json::u64(VERSION)),
            ("workload".into(), Json::str(&self.workload)),
            ("exact".into(), map(&self.exact)),
            ("time_us".into(), map(&self.time_us)),
        ])
        .to_string()
    }

    pub fn from_json(text: &str) -> Result<BenchRecord, String> {
        let doc = Json::parse(text)?;
        if doc.get("format").and_then(Json::as_str) != Some(FORMAT) {
            return Err("not a spio bench record".into());
        }
        if doc.get("version").and_then(Json::as_u64) != Some(VERSION) {
            return Err("unsupported bench-record version".into());
        }
        let map = |key: &str| -> Result<BTreeMap<String, u64>, String> {
            let Some(Json::Obj(fields)) = doc.get(key) else {
                return Err(format!("missing object '{key}'"));
            };
            fields
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("'{key}.{k}' is not a count"))
                })
                .collect()
        };
        Ok(BenchRecord {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("missing string field 'workload'")?
                .to_string(),
            exact: map("exact")?,
            time_us: map("time_us")?,
        })
    }
}

/// Compare a current record against a baseline.
///
/// Returns `Err` when the two records describe different workloads: the
/// workload names, the `exact` maps or the key sets of `time_us` differ.
/// Such baselines must be re-recorded, not gated against. Returns
/// `Ok(regressions)` otherwise; an empty vector means the gate passes. A
/// time regresses when `cur > base * (1 + threshold) + SLACK_US`.
pub fn compare(
    base: &BenchRecord,
    cur: &BenchRecord,
    threshold: f64,
) -> Result<Vec<String>, String> {
    if base.workload != cur.workload {
        return Err(format!(
            "workload mismatch: baseline is '{}', current is '{}'",
            base.workload, cur.workload
        ));
    }
    let show = |v: Option<&u64>| v.map_or("absent".to_string(), u64::to_string);
    let exact_keys: BTreeSet<&String> = base.exact.keys().chain(cur.exact.keys()).collect();
    let mut drift: Vec<String> = exact_keys
        .into_iter()
        .filter(|k| base.exact.get(*k) != cur.exact.get(*k))
        .map(|k| {
            format!(
                "{k} {} -> {}",
                show(base.exact.get(k)),
                show(cur.exact.get(k))
            )
        })
        .collect();
    let base_times: BTreeSet<&String> = base.time_us.keys().collect();
    let cur_times: BTreeSet<&String> = cur.time_us.keys().collect();
    drift.extend(
        base_times
            .symmetric_difference(&cur_times)
            .map(|k| format!("time {k} in one record only")),
    );
    if !drift.is_empty() {
        return Err(format!(
            "{} workload fingerprint drifted ({}); re-record the baseline",
            base.workload,
            drift.join(", ")
        ));
    }
    let mut regressions = Vec::new();
    for (key, &b) in &base.time_us {
        let c = cur.time_us.get(key).copied().unwrap_or_default();
        let limit = (b as f64 * (1.0 + threshold)) as u64 + SLACK_US;
        if c > limit {
            regressions.push(format!(
                "{}/{key}: {b}µs -> {c}µs (limit {limit}µs at +{:.0}% + {SLACK_US}µs slack)",
                base.workload,
                threshold * 100.0
            ));
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_bench::{run_read_bench, ReadBenchConfig};

    fn tiny() -> BenchConfig {
        BenchConfig {
            procs: 8,
            per_rank: 200,
            runs: 1,
        }
    }

    /// One record of each workload, at desk-test size.
    fn both_records() -> [BenchRecord; 2] {
        let read = ReadBenchConfig {
            bench: BenchConfig {
                per_rank: 500,
                ..tiny()
            },
            clients: 2,
            queries_per_client: 6,
        };
        [
            run_fig6(&tiny()).unwrap().record,
            run_read_bench(&read).unwrap().record,
        ]
    }

    #[test]
    fn record_roundtrips_through_json() {
        for record in both_records() {
            let back = BenchRecord::from_json(&record.to_json()).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn record_covers_all_valid_factors_and_phases() {
        let run = run_fig6(&tiny()).unwrap();
        let factors = fig6_factors(8);
        assert!(
            factors.len() >= 2,
            "expected several partition factors at 8 ranks"
        );
        for f in factors {
            let exact = |name: &str| run.record.exact[&format!("{f}/{name}")];
            assert!(
                run.record.time_us.contains_key(&format!("{f}/file_io")),
                "{f}: no file_io phase in {:?}",
                run.record.time_us
            );
            assert!(exact("bytes_written") > 0, "{f}: no bytes written");
            assert!(exact("storage_ops") > 0, "{f}: no storage ops");
        }
        // The last job's artifacts cover storage latency + the read pass.
        assert!(run.report.op_latency("write_file").is_some());
        assert!(!run.snapshot.events.is_empty());
        assert!(run.metrics_jsonl.contains("storage.write_file.ops"));
    }

    #[test]
    fn chrome_export_of_bench_trace_validates() {
        // Acceptance: a traced fig6 run must export a Chrome trace that
        // passes the schema validator, and a report with latency
        // percentiles and a per-phase imbalance table.
        let run = run_fig6(&tiny()).unwrap();
        let chrome = spio_trace::chrome_trace(&run.snapshot);
        spio_trace::validate_chrome_trace(&chrome).unwrap();
        let lat = run.report.op_latency("write_file").unwrap();
        assert!(lat.p50_us <= lat.p95_us && lat.p95_us <= lat.p99_us);
        assert!(!run.report.imbalance.is_empty());
        let back = JobReport::from_json(&run.report.to_json()).unwrap();
        assert_eq!(back, run.report);
    }

    #[test]
    fn identical_records_pass_the_gate() {
        for record in both_records() {
            assert_eq!(
                compare(&record, &record, DEFAULT_THRESHOLD).unwrap(),
                Vec::<String>::new()
            );
        }
    }

    #[test]
    fn slowdown_beyond_threshold_and_slack_regresses() {
        for base in both_records() {
            let mut slow = base.clone();
            for t in slow.time_us.values_mut() {
                *t = *t * 2 + 2 * SLACK_US;
            }
            let regressions = compare(&base, &slow, DEFAULT_THRESHOLD).unwrap();
            assert_eq!(regressions.len(), base.time_us.len(), "{regressions:?}");
            // And small noise under the slack never regresses.
            let mut noisy = base.clone();
            for t in noisy.time_us.values_mut() {
                *t += SLACK_US / 2;
            }
            assert!(compare(&base, &noisy, DEFAULT_THRESHOLD)
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn workload_mismatch_is_an_error_not_a_regression() {
        let [fig6, read] = both_records();
        assert!(compare(&fig6, &read, DEFAULT_THRESHOLD).is_err());
        for base in [fig6, read] {
            let mut other = base.clone();
            *other.exact.get_mut("per_rank").unwrap() += 1;
            assert!(compare(&base, &other, DEFAULT_THRESHOLD).is_err());
            let mut drifted = base.clone();
            let fingerprint = drifted.exact.keys().last().unwrap().clone();
            *drifted.exact.get_mut(&fingerprint).unwrap() += 1;
            assert!(compare(&base, &drifted, DEFAULT_THRESHOLD).is_err());
            let mut missing = base.clone();
            missing.time_us.pop_first();
            assert!(compare(&base, &missing, DEFAULT_THRESHOLD).is_err());
        }
    }

    #[test]
    fn extra_config_or_phase_in_current_run_is_an_error() {
        // A key only the current run has would otherwise pass ungated.
        for base in both_records() {
            let mut extra_config = base.clone();
            extra_config.exact.insert("8x8x8/bytes_written".into(), 1);
            extra_config.time_us.insert("8x8x8/file_io".into(), 1);
            assert!(compare(&base, &extra_config, DEFAULT_THRESHOLD).is_err());
            let mut extra_phase = base.clone();
            extra_phase.time_us.insert("new_phase".into(), 1);
            assert!(compare(&base, &extra_phase, DEFAULT_THRESHOLD).is_err());
        }
    }
}
