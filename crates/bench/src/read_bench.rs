//! Read-serving regression gate: write the fig6 dataset, serve a seeded
//! multi-client query workload through [`spio_serve::QueryEngine`], and
//! distill cold/warm latency into a [`BenchRecord`] (workload `"read"`)
//! comparable against a committed baseline (`BENCH_read.json`).
//!
//! Two times carry the gate, both min-across-runs of the hot-spot box
//! query: `cold_box` (first query on a fresh engine — storage reads +
//! decode) and `warm_box` (the identical repeat — pure cache + filter).
//! The fingerprint is the settings plus the particles in the dataset and
//! in the hot-spot answer. The multi-client [`replay`] afterwards exercises
//! the pool/gate under contention; its cache hit/miss counts are reported
//! but not recorded, since concurrent eviction order is not deterministic.

use crate::fig6::write_job;
use crate::regression::{BenchConfig, BenchRecord, BenchRun};
use spio_core::Storage;
use spio_serve::{
    client_queries, hot_spot, Query, QueryEngine, QueryResult, ServeConfig, WorkloadSpec,
};
use spio_trace::{JobReport, Trace};
use spio_types::{PartitionFactor, SpioError};

/// How to run the read benchmark.
#[derive(Debug, Clone)]
pub struct ReadBenchConfig {
    /// Writer ranks and particles per rank of the dataset, and repetitions
    /// (latencies keep the minimum).
    pub bench: BenchConfig,
    /// Concurrent clients in the replay phase.
    pub clients: usize,
    /// Queries each client issues.
    pub queries_per_client: usize,
}

impl Default for ReadBenchConfig {
    fn default() -> Self {
        ReadBenchConfig {
            bench: BenchConfig {
                runs: 3,
                ..BenchConfig::default()
            },
            clients: 4,
            queries_per_client: 24,
        }
    }
}

/// What one multi-client [`replay`] served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replay {
    /// Queries answered completely.
    pub complete: usize,
    /// Queries answered with some files missing.
    pub partial: usize,
    /// Block-cache hits during the replay.
    pub cache_hits: u64,
    /// Block-cache misses during the replay.
    pub cache_misses: u64,
}

/// Run `clients` concurrent closed-loop clients, each issuing its seeded
/// [`client_queries`] stream against `engine`. A client thread that
/// panics is reported as an error.
pub fn replay<S: Storage + 'static>(
    engine: &QueryEngine<S>,
    clients: usize,
    spec: &WorkloadSpec,
) -> Result<Replay, SpioError> {
    let before = engine.cache_stats();
    let served = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let queries = client_queries(engine.meta(), spec, client);
                    let complete = queries
                        .iter()
                        .filter(|q| engine.execute_as(client, q).is_complete())
                        .count();
                    (complete, queries.len() - complete)
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(client, h)| {
                h.join()
                    .map_err(|_| SpioError::Comm(format!("replay client {client} thread panicked")))
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let after = engine.cache_stats();
    Ok(Replay {
        complete: served.iter().map(|s| s.0).sum(),
        partial: served.iter().map(|s| s.1).sum(),
        cache_hits: after.hits - before.hits,
        cache_misses: after.misses - before.misses,
    })
}

/// The bench dataset serves cleanly, so a partial answer is an error.
fn complete(result: QueryResult) -> Result<QueryResult, SpioError> {
    match result.failures.first() {
        None => Ok(result),
        Some(f) => Err(SpioError::Format(format!(
            "read bench query lost {} file(s), first {}: {}",
            result.failures.len(),
            f.file,
            f.error
        ))),
    }
}

/// Run the read benchmark over the fig6 dataset at 2×2×1 aggregation and
/// distill a [`BenchRecord`].
pub fn run_read_bench(cfg: &ReadBenchConfig) -> Result<BenchRun, SpioError> {
    let (procs, per_rank) = (cfg.bench.procs, cfg.bench.per_rank);
    let (storage, _) = write_job(
        procs,
        per_rank,
        PartitionFactor::new(2, 2, 1),
        &Trace::off(),
    )?;
    let spec = WorkloadSpec {
        queries_per_client: cfg.queries_per_client,
        ..WorkloadSpec::default()
    };
    let mut record = BenchRecord::new(
        "read",
        [
            ("procs", procs),
            ("per_rank", per_rank),
            ("clients", cfg.clients),
            ("queries_per_client", cfg.queries_per_client),
        ],
    );
    let mut last = None;
    for _ in 0..cfg.bench.runs.max(1) {
        let trace = Trace::collecting();
        let engine =
            QueryEngine::open_traced(storage.clone(), ServeConfig::default(), trace.clone())?;
        let hot = Query::Box(hot_spot(&engine.meta().domain));

        // Cold: first touch of the hot-spot files (storage + decode).
        let cold = complete(engine.execute(&hot))?;
        record.keep_min("cold_box".into(), cold.stats.latency.as_micros() as u64);

        // Warm: identical repeat, fully cached.
        let warm = complete(engine.execute(&hot))?;
        record.keep_min("warm_box".into(), warm.stats.latency.as_micros() as u64);

        // Replay: concurrent seeded clients over the mixed workload.
        let served = replay(&engine, cfg.clients, &spec)?;
        if served.partial > 0 {
            return Err(SpioError::Format(format!(
                "read bench replay answered {} queries partially",
                served.partial
            )));
        }
        record
            .exact
            .insert("total_particles".into(), engine.meta().total_particles);
        record
            .exact
            .insert("box_particles".into(), cold.particles.len() as u64);
        last = Some((trace, served));
    }
    let (trace, served) = last.ok_or_else(|| SpioError::Config("read bench ran no runs".into()))?;
    let metrics_jsonl = trace.metrics().to_jsonl();
    let snapshot = trace.take_snapshot();
    let report = JobReport::from_snapshot(1, &snapshot).with_metrics(&trace.metrics());
    Ok(BenchRun {
        record,
        snapshot,
        report,
        metrics_jsonl,
        replay: Some(served),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_produces_serving_artifacts() {
        let cfg = ReadBenchConfig {
            bench: BenchConfig {
                procs: 8,
                per_rank: 500,
                runs: 1,
            },
            clients: 2,
            queries_per_client: 6,
        };
        let run = run_read_bench(&cfg).unwrap();
        assert!(
            run.record.exact["box_particles"] > 0,
            "hot spot query hit particles"
        );
        let served = run.replay.unwrap();
        assert_eq!((served.complete, served.partial), (12, 0));
        assert!(served.cache_hits + served.cache_misses > 0);
        // The traced run surfaces query latency and cache counters.
        assert!(run.report.op_latency("serve.query").is_some());
        assert!(run
            .report
            .metric(spio_serve::cache::metric_names::HITS)
            .is_some());
        assert!(run.metrics_jsonl.contains("serve.query.latency_us"));
    }
}
