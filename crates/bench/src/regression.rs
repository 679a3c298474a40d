//! Bench regression gate: run the desk-scale Fig. 6 workload under full
//! tracing, distill it into a [`BenchRecord`] of per-configuration phase
//! times and traffic counts, and compare against a committed baseline.
//!
//! The record is deliberately small and stable: per partition factor it
//! keeps the *min-across-runs* of the *max-across-ranks* phase wall
//! times (min-of-N absorbs scheduler noise; max-of-ranks is the job's
//! critical path, matching how Fig. 6 reports time), plus deterministic
//! traffic totals (bytes written, bytes sent, storage-op count) that act
//! as a workload fingerprint. `spio bench --baseline BENCH_fig6.json`
//! replays the workload and fails if any phase regressed more than
//! [`DEFAULT_THRESHOLD`] beyond [`SLACK_US`], or if the fingerprint
//! drifted (which means the baseline describes a different workload and
//! must be re-recorded, not compared).

use spio_comm::{Comm, TracedComm};
use spio_core::{
    DatasetReader, MemStorage, SpatialWriter, TracedStorage, WriteStats, WriterConfig,
};
use spio_trace::{JobReport, Trace, TraceSnapshot};
use spio_types::{Aabb3, DomainDecomposition, PartitionFactor, SpioError};
use spio_util::Json;

/// Relative slowdown tolerated before a phase counts as regressed.
pub const DEFAULT_THRESHOLD: f64 = 0.20;

/// Absolute slack (µs) added on top of the relative threshold. Desk-scale
/// phases run single-digit milliseconds and thread-scheduling noise on a
/// shared machine is bimodal at that scale, so the slack must cover a full
/// scheduling hiccup; the relative threshold carries the gate once phases
/// are long enough to measure honestly.
pub const SLACK_US: u64 = 20_000;

/// How to run the benchmark workload.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Thread-runtime ranks per job.
    pub procs: usize,
    /// Particles per rank.
    pub per_rank: usize,
    /// Repetitions per configuration; phase times keep the minimum.
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

/// Min-across-runs wall time of one phase, max across ranks within a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTime {
    pub phase: String,
    pub micros: u64,
}

/// Measurements for one partition factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigRecord {
    /// `PxxPyxPz` rendering of the partition factor.
    pub config: String,
    pub phases: Vec<PhaseTime>,
    /// Deterministic fingerprint: bytes handed to `write_file`/`write_range`.
    pub bytes_written: u64,
    /// Deterministic fingerprint: point-to-point bytes sent.
    pub bytes_sent: u64,
    /// Deterministic fingerprint: storage operations issued.
    pub storage_ops: u64,
}

/// The perf record `spio bench` writes and compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    pub procs: usize,
    pub per_rank: usize,
    pub configs: Vec<ConfigRecord>,
}

/// Everything one `spio bench` invocation produces: the comparable
/// record plus the last job's full observability artifacts.
#[derive(Debug)]
pub struct BenchRun {
    pub record: BenchRecord,
    /// Trace snapshot of the final job (last factor, last run + read pass).
    pub snapshot: TraceSnapshot,
    /// Report derived from `snapshot`.
    pub report: JobReport,
    /// Metrics-registry dump of the final job, one JSON object per line.
    pub metrics_jsonl: String,
}

/// The partition factors the desk-scale Fig. 6 sweep exercises, in the
/// order they appear in the record. Factors invalid for the decomposition
/// at `procs` ranks are skipped.
pub fn fig6_factors() -> [PartitionFactor; 4] {
    [
        PartitionFactor::new(1, 1, 1),
        PartitionFactor::new(2, 2, 1),
        PartitionFactor::new(2, 2, 2),
        PartitionFactor::new(4, 2, 2),
    ]
}

/// Run the Fig. 6 workload under `cfg` with full tracing (phases, comm,
/// storage, metrics) and distill a [`BenchRecord`].
///
/// The last job additionally replays a whole-domain read through a traced
/// reader, so the returned snapshot/report exercise the read path too.
pub fn run_fig6(cfg: &BenchConfig) -> Result<BenchRun, SpioError> {
    let decomp = DomainDecomposition::for_procs(Aabb3::new([0.0; 3], [1.0; 3]), cfg.procs);
    let factors: Vec<PartitionFactor> = fig6_factors()
        .into_iter()
        .filter(|f| f.validate(decomp.dims).is_ok())
        .collect();
    let runs = cfg.runs.max(1);
    let mut configs = Vec::new();
    let mut last: Option<(Trace, MemStorage)> = None;
    for (fi, &factor) in factors.iter().enumerate() {
        let mut best: Vec<PhaseTime> = Vec::new();
        let mut fingerprint = (0u64, 0u64, 0u64);
        for run in 0..runs {
            let storage = MemStorage::new();
            let trace = Trace::collecting();
            let (t, d) = (trace.clone(), decomp.clone());
            let s = storage.clone();
            let per_rank = cfg.per_rank;
            let stats: Vec<WriteStats> = crate::run_ranks(cfg.procs, move |comm| {
                let rank = comm.rank();
                let comm = TracedComm::new(comm, t.clone());
                let traced = TracedStorage::new(s.clone(), t.clone(), rank);
                let ps = spio_workloads::uniform_patch_particles(&d, rank, per_rank, 42);
                SpatialWriter::new(d.clone(), WriterConfig::new(factor))
                    .with_trace(t.clone())
                    .write(&comm, &ps, &traced)
            })?;
            let _ = WriteStats::merge_max(&stats);
            let is_last_job = fi + 1 == factors.len() && run + 1 == runs;
            if is_last_job {
                // Whole-domain read pass through the traced reader, so the
                // exported snapshot covers reads as well as the write job.
                let traced = TracedStorage::new(storage.clone(), trace.clone(), 0);
                let reader = DatasetReader::open_traced(&traced, trace.clone(), 0)?;
                reader.read_box(&traced, &Aabb3::new([0.0; 3], [1.0; 3]))?;
            }
            let report = JobReport::from_snapshot(cfg.procs, &trace.snapshot());
            fingerprint = (
                report.storage_bytes("write_file") + report.storage_bytes("write_range"),
                report.total_bytes_sent(),
                report.storage.len() as u64,
            );
            merge_min_phases(&mut best, &report);
            if is_last_job {
                last = Some((trace, storage));
            }
        }
        configs.push(ConfigRecord {
            config: factor.to_string(),
            phases: best,
            bytes_written: fingerprint.0,
            bytes_sent: fingerprint.1,
            storage_ops: fingerprint.2,
        });
    }
    let (trace, _storage) = last.ok_or_else(|| {
        SpioError::Config(format!(
            "no fig6 partition factor is valid at {} ranks",
            cfg.procs
        ))
    })?;
    let metrics_jsonl = trace.metrics().to_jsonl();
    let snapshot = trace.take_snapshot();
    let report = JobReport::from_snapshot(cfg.procs, &snapshot);
    Ok(BenchRun {
        record: BenchRecord {
            procs: cfg.procs,
            per_rank: cfg.per_rank,
            configs,
        },
        snapshot,
        report,
        metrics_jsonl,
    })
}

/// Fold one run's per-phase critical-path times into the running minima.
fn merge_min_phases(best: &mut Vec<PhaseTime>, report: &JobReport) {
    for phase in report.phase_names() {
        let micros = report.phase_max(phase).as_micros() as u64;
        match best.iter_mut().find(|p| p.phase == phase) {
            Some(p) => p.micros = p.micros.min(micros),
            None => best.push(PhaseTime {
                phase: phase.to_string(),
                micros,
            }),
        }
    }
}

impl BenchRecord {
    pub fn to_json(&self) -> String {
        let configs = self
            .configs
            .iter()
            .map(|c| {
                let phases = c
                    .phases
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("phase".into(), Json::str(&p.phase)),
                            ("micros".into(), Json::u64(p.micros)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("config".into(), Json::str(&c.config)),
                    ("phases".into(), Json::Arr(phases)),
                    ("bytes_written".into(), Json::u64(c.bytes_written)),
                    ("bytes_sent".into(), Json::u64(c.bytes_sent)),
                    ("storage_ops".into(), Json::u64(c.storage_ops)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("format".into(), Json::str("spio-bench-record")),
            ("version".into(), Json::u64(1)),
            ("procs".into(), Json::u64(self.procs as u64)),
            ("per_rank".into(), Json::u64(self.per_rank as u64)),
            ("configs".into(), Json::Arr(configs)),
        ])
        .to_string()
    }

    pub fn from_json(text: &str) -> Result<BenchRecord, String> {
        let doc = Json::parse(text)?;
        if doc.get("format").and_then(Json::as_str) != Some("spio-bench-record") {
            return Err("not a spio bench record".into());
        }
        if doc.get("version").and_then(Json::as_u64) != Some(1) {
            return Err("unsupported bench-record version".into());
        }
        let num = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric field '{key}'"))
        };
        let mut record = BenchRecord {
            procs: num(&doc, "procs")? as usize,
            per_rank: num(&doc, "per_rank")? as usize,
            configs: Vec::new(),
        };
        for c in doc
            .get("configs")
            .and_then(Json::as_arr)
            .ok_or("missing array 'configs'")?
        {
            let mut phases = Vec::new();
            for p in c
                .get("phases")
                .and_then(Json::as_arr)
                .ok_or("missing array 'phases'")?
            {
                phases.push(PhaseTime {
                    phase: p
                        .get("phase")
                        .and_then(Json::as_str)
                        .ok_or("missing string field 'phase'")?
                        .to_string(),
                    micros: num(p, "micros")?,
                });
            }
            record.configs.push(ConfigRecord {
                config: c
                    .get("config")
                    .and_then(Json::as_str)
                    .ok_or("missing string field 'config'")?
                    .to_string(),
                phases,
                bytes_written: num(c, "bytes_written")?,
                bytes_sent: num(c, "bytes_sent")?,
                storage_ops: num(c, "storage_ops")?,
            });
        }
        Ok(record)
    }
}

/// Compare a current record against a baseline.
///
/// Returns `Err` when the two records describe different workloads
/// (procs/per_rank/config set/fingerprint mismatch) — such baselines must
/// be re-recorded, not gated against. Returns `Ok(regressions)` otherwise;
/// an empty vector means the gate passes. A phase regresses when
/// `cur > base * (1 + threshold) + SLACK_US`.
pub fn compare(
    base: &BenchRecord,
    cur: &BenchRecord,
    threshold: f64,
) -> Result<Vec<String>, String> {
    if base.procs != cur.procs || base.per_rank != cur.per_rank {
        return Err(format!(
            "workload mismatch: baseline is {} procs x {} particles, current is {} x {}",
            base.procs, base.per_rank, cur.procs, cur.per_rank
        ));
    }
    let mut regressions = Vec::new();
    for bc in &base.configs {
        let Some(cc) = cur.configs.iter().find(|c| c.config == bc.config) else {
            return Err(format!(
                "configuration {} missing from current run",
                bc.config
            ));
        };
        if (bc.bytes_written, bc.bytes_sent, bc.storage_ops)
            != (cc.bytes_written, cc.bytes_sent, cc.storage_ops)
        {
            return Err(format!(
                "{}: workload fingerprint drifted \
                 (written {} -> {}, sent {} -> {}, ops {} -> {}); re-record the baseline",
                bc.config,
                bc.bytes_written,
                cc.bytes_written,
                bc.bytes_sent,
                cc.bytes_sent,
                bc.storage_ops,
                cc.storage_ops
            ));
        }
        for bp in &bc.phases {
            let Some(cp) = cc.phases.iter().find(|p| p.phase == bp.phase) else {
                return Err(format!(
                    "{}: phase '{}' missing from current run",
                    bc.config, bp.phase
                ));
            };
            let limit = (bp.micros as f64 * (1.0 + threshold)) as u64 + SLACK_US;
            if cp.micros > limit {
                regressions.push(format!(
                    "{}/{}: {}µs -> {}µs (limit {}µs at +{:.0}% + {}µs slack)",
                    bc.config,
                    bp.phase,
                    bp.micros,
                    cp.micros,
                    limit,
                    threshold * 100.0,
                    SLACK_US
                ));
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig {
            procs: 8,
            per_rank: 200,
            runs: 1,
        }
    }

    #[test]
    fn record_roundtrips_through_json() {
        let run = run_fig6(&tiny()).unwrap();
        let back = BenchRecord::from_json(&run.record.to_json()).unwrap();
        assert_eq!(back, run.record);
    }

    #[test]
    fn record_covers_all_valid_factors_and_phases() {
        let run = run_fig6(&tiny()).unwrap();
        assert!(
            run.record.configs.len() >= 2,
            "expected several partition factors at 8 ranks: {:?}",
            run.record.configs
        );
        for c in &run.record.configs {
            assert!(
                c.phases.iter().any(|p| p.phase == "file_io"),
                "{}: no file_io phase in {:?}",
                c.config,
                c.phases
            );
            assert!(c.bytes_written > 0, "{}: no bytes written", c.config);
            assert!(c.storage_ops > 0, "{}: no storage ops", c.config);
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
        let run = run_fig6(&tiny()).unwrap();
        assert_eq!(
            compare(&run.record, &run.record, DEFAULT_THRESHOLD).unwrap(),
            Vec::<String>::new()
        );
    }

    #[test]
    fn slowdown_beyond_threshold_and_slack_regresses() {
        let base = run_fig6(&tiny()).unwrap().record;
        let mut slow = base.clone();
        for c in &mut slow.configs {
            for p in &mut c.phases {
                p.micros = p.micros * 2 + 2 * SLACK_US;
            }
        }
        let regressions = compare(&base, &slow, DEFAULT_THRESHOLD).unwrap();
        assert!(!regressions.is_empty());
        // And small noise under the slack never regresses.
        let mut noisy = base.clone();
        for c in &mut noisy.configs {
            for p in &mut c.phases {
                p.micros += SLACK_US / 2;
            }
        }
        assert!(compare(&base, &noisy, DEFAULT_THRESHOLD)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn workload_mismatch_is_an_error_not_a_regression() {
        let base = run_fig6(&tiny()).unwrap().record;
        let mut other = base.clone();
        other.per_rank += 1;
        assert!(compare(&base, &other, DEFAULT_THRESHOLD).is_err());
        let mut drifted = base.clone();
        drifted.configs[0].bytes_written += 1;
        assert!(compare(&base, &drifted, DEFAULT_THRESHOLD).is_err());
    }
}
