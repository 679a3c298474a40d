//! Read-serving regression gate: write a fig6-scale dataset, serve a
//! seeded multi-client query workload through [`spio_serve::QueryEngine`],
//! and distill cold/warm latency plus cache behaviour into a
//! [`ReadBenchRecord`] comparable against a committed baseline
//! (`BENCH_read.json`).
//!
//! Two numbers carry the gate, both min-across-runs of the hot-spot box
//! query: `cold_box_us` (first query on a fresh engine — storage reads +
//! decode) and `warm_box_us` (the identical repeat — pure cache + filter).
//! Their ratio is the headline serving win: the warm query must stay well
//! ahead of the cold one (the acceptance bar is 5×). The multi-client
//! replay afterwards exercises the pool/gate under contention and records
//! the cache hit rate; hit/miss counts are reported but not gated, since
//! concurrent eviction order is not deterministic.

use crate::regression::SLACK_US;
use spio_core::{MemStorage, SpatialWriter, WriterConfig};
use spio_serve::{client_queries, hot_spot, Query, QueryEngine, ServeConfig, WorkloadSpec};
use spio_trace::{JobReport, Trace};
use spio_types::{Aabb3, DomainDecomposition, PartitionFactor, SpioError};
use spio_util::Json;

/// How to run the read benchmark.
#[derive(Debug, Clone)]
pub struct ReadBenchConfig {
    /// Writer ranks producing the dataset.
    pub procs: usize,
    /// Particles per writer rank.
    pub per_rank: usize,
    /// Concurrent clients in the replay phase.
    pub clients: usize,
    /// Queries each client issues.
    pub queries_per_client: usize,
    /// Repetitions; latencies keep the minimum.
    pub runs: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ReadBenchConfig {
    fn default() -> Self {
        ReadBenchConfig {
            procs: 8,
            per_rank: 5_000,
            clients: 4,
            queries_per_client: 24,
            runs: 3,
            seed: 42,
        }
    }
}

/// The perf record `spio bench --read` writes and compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadBenchRecord {
    pub procs: usize,
    pub per_rank: usize,
    pub clients: usize,
    pub queries_per_client: usize,
    /// Min-across-runs latency of the first hot-spot box query on a fresh
    /// engine (µs).
    pub cold_box_us: u64,
    /// Min-across-runs latency of the identical repeat query (µs).
    pub warm_box_us: u64,
    /// Cache hits across the replay phase of the last run (informational).
    pub cache_hits: u64,
    /// Cache misses across the replay phase of the last run (informational).
    pub cache_misses: u64,
    /// Deterministic fingerprint: particles in the dataset.
    pub total_particles: u64,
    /// Deterministic fingerprint: particles the hot-spot box query returns.
    pub box_particles: u64,
}

impl ReadBenchRecord {
    /// Cold-to-warm speedup of the repeated box query.
    pub fn speedup(&self) -> f64 {
        self.cold_box_us as f64 / (self.warm_box_us.max(1)) as f64
    }

    /// Replay-phase cache hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Everything one `spio bench --read` invocation produces.
#[derive(Debug)]
pub struct ReadBenchRun {
    pub record: ReadBenchRecord,
    /// Report of the last run's traced serving job (query latency
    /// percentiles under `serve.query`, cache counters in the metrics
    /// registry).
    pub report: JobReport,
    /// Metrics-registry dump of the last run, one JSON object per line.
    pub metrics_jsonl: String,
}

/// Write the benchmark dataset once: the fig6 uniform workload at
/// `procs` ranks, aggregated 2×2×1.
fn build_dataset(cfg: &ReadBenchConfig) -> Result<MemStorage, SpioError> {
    let decomp = DomainDecomposition::for_procs(Aabb3::new([0.0; 3], [1.0; 3]), cfg.procs);
    let factor = PartitionFactor::new(2, 2, 1);
    let storage = MemStorage::new();
    let (s, d, per_rank, seed) = (storage.clone(), decomp, cfg.per_rank, cfg.seed);
    crate::run_ranks(cfg.procs, move |comm| {
        let ps = spio_workloads::uniform_patch_particles(
            &d,
            spio_comm::Comm::rank(&comm),
            per_rank,
            seed,
        );
        SpatialWriter::new(d.clone(), WriterConfig::new(factor)).write(&comm, &ps, &s)
    })?;
    Ok(storage)
}

/// Run the read benchmark and distill a [`ReadBenchRecord`].
pub fn run_read_bench(cfg: &ReadBenchConfig) -> Result<ReadBenchRun, SpioError> {
    let storage = build_dataset(cfg)?;
    let runs = cfg.runs.max(1);
    let mut cold_us = u64::MAX;
    let mut warm_us = u64::MAX;
    let mut last: Option<(Trace, u64, u64, u64, u64)> = None;
    let spec = WorkloadSpec {
        seed: cfg.seed,
        queries_per_client: cfg.queries_per_client,
        ..WorkloadSpec::default()
    };
    for _ in 0..runs {
        let trace = Trace::collecting();
        let engine =
            QueryEngine::open_traced(storage.clone(), ServeConfig::default(), trace.clone())?;
        let hot = Query::Box(hot_spot(&engine.meta().domain));

        // Cold: first touch of the hot-spot files (storage + decode).
        let cold = engine.execute(&hot);
        assert!(cold.is_complete(), "bench dataset must serve cleanly");
        cold_us = cold_us.min(cold.stats.latency.as_micros() as u64);

        // Warm: identical repeat, fully cached.
        let warm = engine.execute(&hot);
        warm_us = warm_us.min(warm.stats.latency.as_micros() as u64);

        // Replay: concurrent seeded clients over the mixed workload.
        let before = engine.cache_stats();
        std::thread::scope(|scope| {
            for client in 0..cfg.clients {
                let (engine, meta, spec) = (&engine, engine.meta(), &spec);
                scope.spawn(move || {
                    for q in client_queries(meta, spec, client) {
                        engine.execute_as(client, &q);
                    }
                });
            }
        });
        let after = engine.cache_stats();
        last = Some((
            trace,
            after.hits - before.hits,
            after.misses - before.misses,
            engine.meta().total_particles,
            cold.particles.len() as u64,
        ));
    }
    let (trace, hits, misses, total_particles, box_particles) =
        last.ok_or_else(|| SpioError::Config("read bench ran no runs".into()))?;
    let metrics_jsonl = trace.metrics().to_jsonl();
    let report = JobReport::from_snapshot(1, &trace.snapshot()).with_metrics(&trace.metrics());
    Ok(ReadBenchRun {
        record: ReadBenchRecord {
            procs: cfg.procs,
            per_rank: cfg.per_rank,
            clients: cfg.clients,
            queries_per_client: cfg.queries_per_client,
            cold_box_us: cold_us,
            warm_box_us: warm_us,
            cache_hits: hits,
            cache_misses: misses,
            total_particles,
            box_particles,
        },
        report,
        metrics_jsonl,
    })
}

impl ReadBenchRecord {
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("format".into(), Json::str("spio-read-bench-record")),
            ("version".into(), Json::u64(1)),
            ("procs".into(), Json::u64(self.procs as u64)),
            ("per_rank".into(), Json::u64(self.per_rank as u64)),
            ("clients".into(), Json::u64(self.clients as u64)),
            (
                "queries_per_client".into(),
                Json::u64(self.queries_per_client as u64),
            ),
            ("cold_box_us".into(), Json::u64(self.cold_box_us)),
            ("warm_box_us".into(), Json::u64(self.warm_box_us)),
            ("cache_hits".into(), Json::u64(self.cache_hits)),
            ("cache_misses".into(), Json::u64(self.cache_misses)),
            ("total_particles".into(), Json::u64(self.total_particles)),
            ("box_particles".into(), Json::u64(self.box_particles)),
        ])
        .to_string()
    }

    pub fn from_json(text: &str) -> Result<ReadBenchRecord, String> {
        let doc = Json::parse(text)?;
        if doc.get("format").and_then(Json::as_str) != Some("spio-read-bench-record") {
            return Err("not a spio read-bench record".into());
        }
        if doc.get("version").and_then(Json::as_u64) != Some(1) {
            return Err("unsupported read-bench-record version".into());
        }
        let num = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric field '{key}'"))
        };
        Ok(ReadBenchRecord {
            procs: num("procs")? as usize,
            per_rank: num("per_rank")? as usize,
            clients: num("clients")? as usize,
            queries_per_client: num("queries_per_client")? as usize,
            cold_box_us: num("cold_box_us")?,
            warm_box_us: num("warm_box_us")?,
            cache_hits: num("cache_hits")?,
            cache_misses: num("cache_misses")?,
            total_particles: num("total_particles")?,
            box_particles: num("box_particles")?,
        })
    }
}

/// Compare a current read record against a baseline, with the same
/// threshold + slack rule as the write gate: a latency regresses when
/// `cur > base * (1 + threshold) + SLACK_US`. Returns `Err` when the
/// records describe different workloads (shape or fingerprint mismatch) —
/// re-record the baseline instead of comparing.
pub fn compare_read(
    base: &ReadBenchRecord,
    cur: &ReadBenchRecord,
    threshold: f64,
) -> Result<Vec<String>, String> {
    if (
        base.procs,
        base.per_rank,
        base.clients,
        base.queries_per_client,
    ) != (cur.procs, cur.per_rank, cur.clients, cur.queries_per_client)
    {
        return Err(format!(
            "workload mismatch: baseline {}x{} ({} clients x {} queries), \
             current {}x{} ({} x {})",
            base.procs,
            base.per_rank,
            base.clients,
            base.queries_per_client,
            cur.procs,
            cur.per_rank,
            cur.clients,
            cur.queries_per_client
        ));
    }
    if (base.total_particles, base.box_particles) != (cur.total_particles, cur.box_particles) {
        return Err(format!(
            "workload fingerprint drifted (particles {} -> {}, box hits {} -> {}); \
             re-record the baseline",
            base.total_particles, cur.total_particles, base.box_particles, cur.box_particles
        ));
    }
    let mut regressions = Vec::new();
    for (what, b, c) in [
        ("cold_box", base.cold_box_us, cur.cold_box_us),
        ("warm_box", base.warm_box_us, cur.warm_box_us),
    ] {
        let limit = (b as f64 * (1.0 + threshold)) as u64 + SLACK_US;
        if c > limit {
            regressions.push(format!(
                "read/{what}: {b}µs -> {c}µs (limit {limit}µs at +{:.0}% + {SLACK_US}µs slack)",
                threshold * 100.0
            ));
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regression::DEFAULT_THRESHOLD;

    fn tiny() -> ReadBenchConfig {
        ReadBenchConfig {
            procs: 8,
            per_rank: 500,
            clients: 2,
            queries_per_client: 6,
            runs: 1,
            seed: 42,
        }
    }

    #[test]
    fn record_roundtrips_through_json() {
        let run = run_read_bench(&tiny()).unwrap();
        let back = ReadBenchRecord::from_json(&run.record.to_json()).unwrap();
        assert_eq!(back, run.record);
    }

    #[test]
    fn run_produces_serving_artifacts() {
        let run = run_read_bench(&tiny()).unwrap();
        assert!(run.record.box_particles > 0, "hot spot query hit particles");
        assert!(run.record.cache_hits + run.record.cache_misses > 0);
        // The traced run surfaces query latency and cache counters.
        assert!(run.report.op_latency("serve.query").is_some());
        assert!(run
            .report
            .metric(spio_serve::cache::metric_names::HITS)
            .is_some());
        assert!(run.metrics_jsonl.contains("serve.query.latency_us"));
    }

    #[test]
    fn identical_records_pass_and_slowdowns_fail() {
        let run = run_read_bench(&tiny()).unwrap();
        let base = run.record;
        assert_eq!(
            compare_read(&base, &base, DEFAULT_THRESHOLD).unwrap(),
            Vec::<String>::new()
        );
        let mut slow = base.clone();
        slow.cold_box_us = slow.cold_box_us * 2 + 2 * SLACK_US;
        assert!(!compare_read(&base, &slow, DEFAULT_THRESHOLD)
            .unwrap()
            .is_empty());
        let mut drifted = base.clone();
        drifted.box_particles += 1;
        assert!(compare_read(&base, &drifted, DEFAULT_THRESHOLD).is_err());
        let mut other = base;
        other.clients += 1;
        assert!(compare_read(&other, &drifted, DEFAULT_THRESHOLD).is_err());
    }
}
