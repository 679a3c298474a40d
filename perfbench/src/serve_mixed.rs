//! `serve-mixed`: `QueryEngine` over the read fixture, two closed-loop
//! clients running their own seeded `client_queries` lists (the library's
//! default mix: 50% hot spot, 20% LOD, 20% density) in steps of 32 queries.
//!
//! It drives the block cache, the worker pool, the `LodCursor` path on
//! misses, and filter/assemble under concurrency. The full-file blocks and
//! the LOD prefix blocks together outgrow the default 64 MiB cache budget,
//! so the cache evicts in steady state.

use crate::alloc;
use crate::fixture;
use crate::measure::{self, digest, median, Outcome, Plan};
use crate::probe::{time_op, Probe, ProbedStorage};
use spio_core::{DatasetReader, LodCursor, MemStorage, Storage};
use spio_format::SpatialIndex;
use spio_serve::{client_queries, Query, QueryEngine, QueryStats, ServeConfig, WorkloadSpec};
use spio_types::SpioError;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Closed-loop clients, and pool workers: the core count of the reference
/// box, so the load never runs more threads than cores there.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// The read-box fixture: 6,250 particles per file, 49.6 MB decoded.
const PER_FILE: usize = 6_250;
/// Queries of each client's list that the warm-up replays. Each client's
/// list is its whole share of the timed op list, not a short list replayed
/// several times: with a replayed list, whether its distinct blocks fitted
/// the cache decided the cache's steady state, and that differed from seed
/// to seed.
const WARMUP_QUERIES: usize = 512;
const TINY_WARMUP_QUERIES: usize = 16;
/// Queries per op. A client works in steps of this many queries issued
/// back to back (as an analysis step or a rendered frame needs several
/// regions), and an op is one step. Single queries fall into two modes,
/// cache hits near 1 ms and misses near 10 ms, and their median moved by
/// 40% between seeds; a step of 32 averages over both modes.
const STEP: usize = 32;
/// Steps per requested second, over both clients (a step takes about
/// 130 ms on the reference box, with two clients in flight).
const STEPS_PER_SECOND: u64 = 10;
const TINY_OPS: u64 = 4;

struct QueryLog {
    /// Index of the query in its client's list.
    index: usize,
    ms: f64,
    stats: QueryStats,
    complete: bool,
    digest: (usize, u64),
}

pub fn run(plan: &Plan, probe: Option<Arc<Probe>>) -> Result<Outcome, String> {
    let steps = plan.ops(STEPS_PER_SECOND, TINY_OPS) as usize;
    let session = Session {
        spec: WorkloadSpec {
            seed: plan.seed,
            queries_per_client: steps.div_ceil(CLIENTS) * STEP,
            ..WorkloadSpec::default()
        },
        warmup: if plan.tiny {
            TINY_WARMUP_QUERIES
        } else {
            WARMUP_QUERIES
        },
        probe: probe.as_deref(),
    };
    let mut out = Outcome::default();
    for setup in 0..plan.setups {
        // Each set-up starts from a trimmed heap, not from the pages the
        // one before it freed.
        alloc::release_freed_memory();
        let started = Instant::now();
        let fx = fixture::write(plan, PER_FILE)?;
        let storage = fx.storage;
        drop(fx.particles);
        alloc::release_freed_memory();
        let timed = setup + 1 == plan.setups;
        match &probe {
            Some(p) => {
                let served = ProbedStorage::new(storage.clone(), Arc::clone(p));
                session.run(served, &storage, started, timed, &mut out)?
            }
            None => session.run(storage.clone(), &storage, started, timed, &mut out)?,
        }
    }
    Ok(out)
}

struct Session<'a> {
    spec: WorkloadSpec,
    /// Leading queries of each list the warm-up replays.
    warmup: usize,
    probe: Option<&'a Probe>,
}

impl Session<'_> {
    /// Set up an engine over `served`, warm it with the head of the lists,
    /// and when `timed` (the last set-up), run the timed phase. `bare` is the same fixture
    /// without the probe, for the serial oracle.
    fn run<S: Storage + 'static>(
        &self,
        served: S,
        bare: &MemStorage,
        started: Instant,
        timed: bool,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let config = ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        };
        let engine =
            QueryEngine::open(served, config).map_err(|e| format!("opening the engine: {e}"))?;
        let lists: Vec<Vec<Query>> = (0..CLIENTS)
            .map(|c| client_queries(engine.meta(), &self.spec, c))
            .collect();
        let heads: Vec<&[Query]> = lists
            .iter()
            .map(|l| &l[..self.warmup.min(l.len())])
            .collect();
        let (warm, _, _) = replay(&engine, &heads, None);
        if warm.iter().flatten().any(|q| !q.complete) {
            return Err("a warm-up query came back incomplete".into());
        }
        out.setup_s.push(started.elapsed().as_secs_f64());
        if !timed {
            return Ok(());
        }

        measure::reset_peak_rss()?;
        let memory = measure::memory_now()?;
        if let Some(p) = self.probe {
            p.clear();
        }
        let whole: Vec<&[Query]> = lists.iter().map(Vec::as_slice).collect();
        let (logs, steps, phase_s) = replay(&engine, &whole, self.probe);
        out.op_ms = steps;
        out.phase_s = phase_s;
        out.peak_rss_mb = measure::peak_rss_mb()?;
        out.notes.push(measure::memory_note(memory)?);
        let cache = engine.cache_stats();
        out.notes.push(format!(
            "engine.cache_stats(): hits={} misses={} evictions={} blocks={} \
             (hit and miss counters live in the metrics registry and stay 0 on an \
             untraced engine; cache.hit_ratio sums per-query QueryStats instead)",
            cache.hits, cache.misses, cache.evictions, cache.blocks
        ));
        if let Some(p) = self.probe {
            out.spans = p.take();
        }

        let expected = serial_digests(bare, &lists)?;
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut files = 0u64;
        let mut query_ms = Vec::new();
        for (client, log) in logs.iter().enumerate() {
            for q in log {
                query_ms.push(q.ms);
                out.attempted += 1;
                hits += q.stats.cache_hits;
                misses += q.stats.cache_misses;
                files += q.stats.files_selected as u64;
                let want = expected[&format!("{:?}", lists[client][q.index])];
                if !q.complete {
                    out.fail(format!(
                        "client {client} query {}: incomplete result",
                        q.index
                    ));
                } else if q.digest != want {
                    out.fail(format!(
                        "client {client} query {}: (count, digest) {:?} differs from the serial reader's {want:?}",
                        q.index, q.digest
                    ));
                }
            }
        }

        out.notes.push(format!(
            "cache.hit_ratio base: {hits} hits of {} lookups",
            hits + misses
        ));
        let (pct, tail_ms, _) = measure::tail(&query_ms);
        out.notes.push(format!(
            "per query: p50 {:.4} ms, p{pct:.2} {tail_ms:.4} ms over {} queries",
            median(&query_ms),
            query_ms.len()
        ));
        if self.probe.is_some() {
            // Per-layer values are per query, not per step.
            let n = query_ms.len().max(1) as f64;
            let l = &mut out.layers;
            measure::storage_layers(&out.spans, n, false, l);
            let storage_ms = l.get("storage.read_ms").map_or(0.0, |v| v.0);
            l.set("serve.storage_ms_per_query", storage_ms);
            l.exact("serve.files_per_query", files as f64 / n);
            l.set(
                "cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            l.set("cache.resident_mb", cache.bytes as f64 / 1e6);
            l.set("index.select_us", select_us(engine.meta(), &lists));
        }
        Ok(())
    }
}

/// Both clients run their lists in a closed loop, one step of [`STEP`]
/// queries at a time. Returns each client's per-query log,
/// every step's latency, and the wall time from the first step's start to
/// the last one's end.
fn replay<S: Storage + 'static>(
    engine: &QueryEngine<S>,
    lists: &[&[Query]],
    probe: Option<&Probe>,
) -> (Vec<Vec<QueryLog>>, Vec<f64>, f64) {
    let barrier = Barrier::new(lists.len());
    type ClientRun = (Vec<QueryLog>, Vec<f64>, Instant, Instant);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(client, list)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = Vec::with_capacity(list.len());
                    let mut steps = Vec::with_capacity(list.len() / STEP);
                    barrier.wait();
                    let first = Instant::now();
                    for (k, step) in list.chunks(STEP).enumerate() {
                        let op = ((client as u64) << 32) | k as u64;
                        // The client consumes each result before it
                        // issues the next query, as an analysis client
                        // does: only its digest outlives the query, so the
                        // memory high-water mark is the engine's, not a
                        // step's worth of buffered results.
                        let (done, start, end) = time_op(probe, op, client as u32, || {
                            step.iter()
                                .enumerate()
                                .map(|(j, q)| {
                                    let t = Instant::now();
                                    let r = engine.execute_as(client, q);
                                    QueryLog {
                                        index: k * STEP + j,
                                        ms: t.elapsed().as_secs_f64() * 1e3,
                                        stats: r.stats,
                                        complete: r.is_complete(),
                                        digest: digest(&r.particles),
                                    }
                                })
                                .collect::<Vec<_>>()
                        });
                        steps.push((end - start).as_secs_f64() * 1e3);
                        log.extend(done);
                    }
                    (log, steps, first, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let first = runs.iter().map(|r| r.2).min().expect("at least one client");
    let last = runs.iter().map(|r| r.3).max().expect("at least one client");
    let mut logs = Vec::new();
    let mut steps = Vec::new();
    for (log, s, _, _) in runs {
        logs.push(log);
        steps.extend(s);
    }
    (logs, steps, (last - first).as_secs_f64())
}

/// The serial reader's answer to every distinct query of the lists, keyed
/// by the query's debug form. Box and density queries go through
/// `DatasetReader`; LOD queries read each intersecting file's prefix with a
/// single-reader `LodCursor`, capped at the dataset's deepest level, and
/// filter it to the region, which is how the engine defines them.
fn serial_digests(
    storage: &MemStorage,
    lists: &[Vec<Query>],
) -> Result<HashMap<String, (usize, u64)>, String> {
    let reader = DatasetReader::open(storage).map_err(|e| format!("serial reader: {e}"))?;
    let deepest = reader
        .meta
        .lod
        .num_levels(1, reader.meta.total_particles)
        .saturating_sub(1);
    let mut distinct: HashMap<String, &Query> = HashMap::new();
    for q in lists.iter().flatten() {
        distinct.entry(format!("{q:?}")).or_insert(q);
    }
    let one = |q: &Query| -> Result<(usize, u64), SpioError> {
        let ps = match q {
            Query::Box(region) => reader.read_box(storage, region)?.0,
            Query::Density { region, lo, hi } => {
                reader.read_box_density(storage, region, *lo, *hi)?.0
            }
            Query::Lod { region, level } => {
                let mut ps = Vec::new();
                for idx in reader.meta.files_intersecting(region) {
                    let mut cursor = LodCursor::new(&reader.meta, &[idx], 1);
                    let (prefix, _) = cursor.read_through_level(storage, (*level).min(deepest))?;
                    ps.extend(prefix.into_iter().filter(|p| region.contains(p.position)));
                }
                ps
            }
        };
        Ok(digest(&ps))
    };
    let distinct: Vec<(String, &Query)> = distinct.into_iter().collect();
    // The serial reads are independent: split them over the client count
    // of threads to bound the check's wall time.
    let chunk = distinct.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                let one = &one;
                scope.spawn(move || {
                    part.iter()
                        .map(|(key, q)| match one(q) {
                            Ok(d) => Ok((key.clone(), d)),
                            Err(e) => Err(format!("serial reader failed on {key}: {e}")),
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let mut all = HashMap::new();
        for h in handles {
            all.extend(h.join().expect("oracle thread panicked")?);
        }
        Ok(all)
    })
}

/// Mean time of the spatial index's selection on the workload's own query
/// regions, median over five passes.
fn select_us(meta: &spio_format::SpatialMetadata, lists: &[Vec<Query>]) -> f64 {
    let index = SpatialIndex::build(meta);
    let regions: Vec<_> = lists.iter().flatten().map(|q| *q.region()).collect();
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for r in &regions {
                black_box(index.query(black_box(r)));
            }
            t.elapsed().as_secs_f64() * 1e6 / regions.len().max(1) as f64
        })
        .collect();
    median(&passes)
}
