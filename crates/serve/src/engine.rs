//! The concurrent query engine.
//!
//! One [`QueryEngine`] serves many box / LOD / density-range queries
//! against a single dataset. File selection goes through the
//! [`SpatialIndex`] (built once at open), decoded payloads are reused
//! across queries through the [`BlockCache`], and per-file decode+filter
//! work fans across the [`WorkerPool`]. An [`AdmissionGate`] bounds the
//! number of queries in flight.
//!
//! Each file job runs the serial reader's per-file kernel: a cache miss
//! loads through [`spio_core::fetch_file`] (whole files) or one
//! [`spio_core::PrefixFile`] extension (LOD prefixes), and every block is
//! filtered by the same [`spio_core::Predicate`] the serial reader uses.
//! Failure semantics mirror [`spio_core::DatasetReader::read_box_partial`]:
//! a corrupt or missing file degrades that file only — it is reported in
//! [`QueryResult::failures`], never cached, and never poisons the rest of
//! the query. Results are assembled in ascending file order, so a complete
//! concurrent result is byte-identical to the serial one.

use crate::cache::{BlockCache, BlockKey, CacheStats};
use crate::pool::{AdmissionGate, WorkerPool};
use spio_core::reader::phases as read_phases;
use spio_core::{fetch_file, DatasetReader, Predicate, PrefixFile, ReadStats, Storage};
use spio_format::{LodParams, SpatialIndex, SpatialMetadata};
use spio_trace::{Counter, Histogram, Trace};
use spio_types::{Aabb3, Particle, SpioError};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Metric names the engine publishes (the cache adds its own, see
/// [`crate::cache::metric_names`]).
pub mod metric_names {
    /// Total queries executed (counter).
    pub const QUERIES: &str = "serve.query.count";
    /// Queries that lost at least one file (counter).
    pub const PARTIAL: &str = "serve.query.partial";
    /// End-to-end query latency in µs (histogram).
    pub const LATENCY: &str = "serve.query.latency_us";
    /// Queries currently admitted (gauge).
    pub const INFLIGHT: &str = "serve.inflight";
}

/// Maximum queries admitted concurrently (the admission gate's bound).
const MAX_INFLIGHT: usize = 8;

/// Independently locked shards of the block cache.
const CACHE_SHARDS: usize = 8;

/// Engine sizing knobs. The defaults suit the desk-scale datasets the
/// benches use; see docs/SERVING.md for tuning guidance.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads decoding and filtering files.
    pub workers: usize,
    /// Decoded-payload budget of the block cache, in bytes.
    pub cache_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            cache_bytes: 64 << 20,
        }
    }
}

/// One query a client can issue.
#[derive(Debug, Clone)]
pub enum Query {
    /// All particles inside the box (the paper's §4 read).
    Box(Aabb3),
    /// A uniform subsample of the region: LOD prefixes through `level` of
    /// the intersecting files, filtered to the region.
    Lod { region: Aabb3, level: u32 },
    /// Particles inside the region with density in `[lo, hi]` (§3.5
    /// attribute-range extension).
    Density { region: Aabb3, lo: f64, hi: f64 },
}

impl Query {
    /// The spatial region the query touches.
    pub fn region(&self) -> &Aabb3 {
        match self {
            Query::Box(r) | Query::Lod { region: r, .. } | Query::Density { region: r, .. } => r,
        }
    }

    /// The particle filter this query applies to every file it touches.
    fn predicate(&self) -> Predicate {
        match *self {
            Query::Box(region) | Query::Lod { region, .. } => Predicate::Box(region),
            Query::Density { region, lo, hi } => Predicate::BoxDensity { region, lo, hi },
        }
    }

    /// Short kind label (used as the storage-op "file" in traces).
    pub fn label(&self) -> &'static str {
        match self {
            Query::Box(_) => "box",
            Query::Lod { .. } => "lod",
            Query::Density { .. } => "density",
        }
    }
}

/// A file the query could not serve, and why.
#[derive(Debug)]
pub struct FileFailure {
    pub file: String,
    pub error: SpioError,
}

/// Per-query accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    pub files_selected: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Bytes fetched from storage (0 for a fully warm query).
    pub bytes_read: u64,
    pub latency: Duration,
}

/// What a query returned: particles from every healthy file, failures for
/// the rest.
#[derive(Debug)]
pub struct QueryResult {
    pub particles: Vec<Particle>,
    pub failures: Vec<FileFailure>,
    pub stats: QueryStats,
}

impl QueryResult {
    /// True when every selected file was served — the result is then
    /// byte-identical to the serial read path.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

struct EngineShared<S> {
    storage: S,
    meta: SpatialMetadata,
    index: SpatialIndex,
    cache: BlockCache,
    trace: Trace,
    /// Dataset-wide LOD level count for the single-reader prefix math
    /// (levels are canonicalized against this before cache lookup).
    lod_levels: u32,
    query_count: Counter,
    partial_queries: Counter,
    query_latency: Histogram,
}

/// Result of one file's decode+filter job.
struct FileSlot {
    kept: Vec<Particle>,
    bytes_read: u64,
    cache_hit: bool,
}

impl<S: Storage + 'static> EngineShared<S> {
    /// Files this query must touch, ascending — the index-accelerated
    /// equivalent of the metadata's linear selection scans.
    fn select_files(&self, query: &Query) -> Vec<usize> {
        let mut files = self.index.query(query.region());
        if let Query::Density { lo, hi, .. } = query {
            files.retain(|&i| self.meta.may_hold_density(i, *lo, *hi));
        }
        files
    }

    /// The canonical cache key for this query against file `idx`.
    fn block_key(&self, idx: usize, query: &Query) -> BlockKey {
        BlockKey {
            file: idx as u32,
            lod_level: match query {
                Query::Lod { level, .. } => Some((*level).min(self.lod_levels.saturating_sub(1))),
                _ => None,
            },
        }
    }

    /// Fetch a decoded block through the cache, loading (and verifying)
    /// from storage on miss. Only clean decodes are admitted to the cache.
    fn fetch_block(&self, key: BlockKey) -> Result<(Arc<Vec<Particle>>, u64, bool), SpioError> {
        if let Some(block) = self.cache.get(&key) {
            return Ok((block, 0, true));
        }
        let entry = &self.meta.entries[key.file as usize];
        let mut stats = ReadStats::default();
        let particles = match key.lod_level {
            None => fetch_file(&self.storage, &entry.file_name(), &mut stats)?,
            Some(level) => {
                // The single-reader prefix through `level`, fetched as one
                // verified ranged read — the same bytes a one-file
                // `LodCursor` reads level by level.
                let total = self.meta.total_particles;
                let global = self.meta.lod.prefix_len(1, level, total);
                let target = LodParams::file_prefix(entry.particle_count, total, global);
                let mut particles = Vec::new();
                PrefixFile::new(entry.file_name(), entry.particle_count).extend_to(
                    &self.storage,
                    target,
                    &mut stats,
                    &mut particles,
                )?;
                particles
            }
        };
        let block = Arc::new(particles);
        self.cache.insert(key, Arc::clone(&block));
        Ok((block, stats.bytes_read, false))
    }

    /// Decode (through the cache) and filter one file for `query`.
    fn run_file(&self, idx: usize, query: &Query) -> Result<FileSlot, SpioError> {
        let (block, bytes_read, cache_hit) = self.fetch_block(self.block_key(idx, query))?;
        let mut kept = Vec::new();
        query
            .predicate()
            .append_hits(Some(&self.meta.entries[idx].bounds), &block, &mut kept);
        Ok(FileSlot {
            kept,
            bytes_read,
            cache_hit,
        })
    }
}

/// The serving front: shareable across client threads (`&self` methods).
pub struct QueryEngine<S: Storage + 'static> {
    shared: Arc<EngineShared<S>>,
    pool: WorkerPool,
    gate: AdmissionGate,
}

impl<S: Storage + 'static> QueryEngine<S> {
    /// Open a dataset and build the serving state (metadata parse + index
    /// build; no data files are touched yet).
    pub fn open(storage: S, config: ServeConfig) -> Result<Self, SpioError> {
        Self::open_traced(storage, config, Trace::off())
    }

    /// Like [`QueryEngine::open`] with tracing: query latencies, cache
    /// counters, and degraded-file faults land in `trace` and its metrics
    /// registry.
    pub fn open_traced(storage: S, config: ServeConfig, trace: Trace) -> Result<Self, SpioError> {
        let meta = DatasetReader::open(&storage)?.meta;
        let metrics = trace.metrics();
        let index = SpatialIndex::build(&meta);
        let lod_levels = meta.lod.num_levels(1, meta.total_particles);
        let shared = Arc::new(EngineShared {
            cache: BlockCache::new(config.cache_bytes, CACHE_SHARDS, &metrics),
            storage,
            index,
            lod_levels,
            meta,
            trace,
            query_count: metrics.counter(metric_names::QUERIES),
            partial_queries: metrics.counter(metric_names::PARTIAL),
            query_latency: metrics.histogram(metric_names::LATENCY),
        });
        Ok(QueryEngine {
            shared,
            pool: WorkerPool::new(config.workers),
            gate: AdmissionGate::new(MAX_INFLIGHT, metrics.gauge(metric_names::INFLIGHT)),
        })
    }

    /// The dataset's metadata.
    pub fn meta(&self) -> &SpatialMetadata {
        &self.shared.meta
    }

    /// Current block-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// The storage backend the engine reads from.
    pub fn storage(&self) -> &S {
        &self.shared.storage
    }

    /// Execute a query as client 0.
    pub fn execute(&self, query: &Query) -> QueryResult {
        self.execute_as(0, query)
    }

    /// Execute a query attributed to `client` (the trace "rank" of its
    /// spans, faults, and storage ops). Blocks until admitted and until
    /// every file job finished; safe to call from many threads at once.
    pub fn execute_as(&self, client: usize, query: &Query) -> QueryResult {
        let _permit = self.gate.acquire();
        let t0 = Instant::now();
        let sh = &self.shared;
        let files = sh.select_files(query);
        let (tx, rx) = channel();
        for (slot, &idx) in files.iter().enumerate() {
            let tx = tx.clone();
            let sh = Arc::clone(&self.shared);
            let query = query.clone();
            self.pool.submit(move || {
                let result = sh.run_file(idx, &query);
                // The receiver only disappears if the query thread died;
                // dropping the result is then the right thing.
                let _ = tx.send((slot, result));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<Result<FileSlot, SpioError>>> =
            files.iter().map(|_| None).collect();
        for (slot, result) in rx {
            slots[slot] = Some(result);
        }
        let mut stats = QueryStats {
            files_selected: files.len(),
            ..Default::default()
        };
        let mut particles = Vec::new();
        let mut failures = Vec::new();
        // Ascending file order — the same order the serial reader appends
        // in, which is what makes complete results byte-identical.
        for (slot, result) in slots.into_iter().enumerate() {
            // An empty slot means the worker died mid-job (the panic was
            // contained by the pool and the result channel dropped without
            // sending). Degrade that one file, not the whole query.
            let outcome = result.unwrap_or_else(|| {
                Err(SpioError::Io(std::io::Error::other(
                    "file job panicked before reporting a result",
                )))
            });
            match outcome {
                Ok(fs) => {
                    particles.extend(fs.kept);
                    stats.bytes_read += fs.bytes_read;
                    if fs.cache_hit {
                        stats.cache_hits += 1;
                    } else {
                        stats.cache_misses += 1;
                    }
                }
                Err(error) => {
                    // A failed file is by definition not served from cache
                    // (faults are never admitted), so it counts as a miss.
                    stats.cache_misses += 1;
                    let file = sh.meta.entries[files[slot]].file_name();
                    sh.trace.fault(client, "serve.degraded", &file, false);
                    failures.push(FileFailure { file, error });
                }
            }
        }
        stats.latency = t0.elapsed();
        sh.query_count.inc();
        sh.query_latency.record_duration(stats.latency);
        if !failures.is_empty() {
            sh.partial_queries.inc();
        }
        sh.trace.phase(client, read_phases::BOX, stats.latency);
        sh.trace.storage_op(
            client,
            "serve.query",
            query.label(),
            stats.bytes_read,
            stats.latency,
        );
        QueryResult {
            particles,
            failures,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spio_comm::{run_threaded_collect, Comm};
    use spio_core::{LodCursor, MemStorage, SpatialWriter, TracedStorage, WriterConfig};
    use spio_types::particle::encode_particles;
    use spio_types::{DomainDecomposition, GridDims, PartitionFactor};

    /// Same 4×4×1 grid / 2×2 aggregation dataset the core reader tests use.
    fn build_dataset(per_rank: usize) -> MemStorage {
        let storage = MemStorage::new();
        let s2 = storage.clone();
        let d =
            DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 4, 1));
        run_threaded_collect(16, move |comm| {
            let b = d.patch_bounds(comm.rank());
            let e = b.extent();
            let particles: Vec<Particle> = (0..per_rank)
                .map(|i| {
                    let t = (i as f64 + 0.5) / per_rank as f64;
                    let u = ((i * 13 + 5) % per_rank) as f64 / per_rank as f64;
                    Particle::synthetic(
                        [b.lo[0] + t * e[0] * 0.99, b.lo[1] + u * e[1] * 0.99, 0.5],
                        ((comm.rank() as u64) << 32) | i as u64,
                    )
                })
                .collect();
            let writer =
                SpatialWriter::new(d.clone(), WriterConfig::new(PartitionFactor::new(2, 2, 1)));
            writer.write(&comm, &particles, &s2).unwrap();
        })
        .unwrap();
        storage
    }

    fn queries() -> Vec<Aabb3> {
        vec![
            Aabb3::new([0.05, 0.05, 0.0], [0.4, 0.4, 1.0]),
            Aabb3::new([0.2, 0.2, 0.0], [0.8, 0.9, 1.0]),
            Aabb3::new([0.0; 3], [1.0; 3]),
            Aabb3::new([0.45, 0.45, 0.45], [0.55, 0.55, 0.55]),
        ]
    }

    #[test]
    fn box_results_byte_identical_to_serial_cold_and_warm() {
        let storage = build_dataset(40);
        let serial = DatasetReader::open(&storage).unwrap();
        let engine = QueryEngine::open(storage.clone(), ServeConfig::default()).unwrap();
        for q in queries() {
            let (expect, _) = serial.read_box(&storage, &q).unwrap();
            let cold = engine.execute(&Query::Box(q));
            assert!(cold.is_complete());
            assert_eq!(
                encode_particles(&cold.particles),
                encode_particles(&expect),
                "cold vs serial for {q:?}"
            );
            let warm = engine.execute(&Query::Box(q));
            assert_eq!(encode_particles(&warm.particles), encode_particles(&expect));
            assert_eq!(warm.stats.cache_misses, 0, "repeat query fully cached");
            assert_eq!(warm.stats.bytes_read, 0);
            assert_eq!(warm.stats.cache_hits as usize, warm.stats.files_selected);
        }
        assert!(engine.cache_stats().blocks > 0);
    }

    #[test]
    fn untraced_engine_counts_cache_hits() {
        let storage = build_dataset(20);
        let engine = QueryEngine::open(storage, ServeConfig::default()).unwrap();
        let q = Query::Box(Aabb3::new([0.0; 3], [0.6, 0.6, 1.0]));
        let cold = engine.execute(&q);
        let warm = engine.execute(&q);
        let stats = engine.cache_stats();
        assert!(warm.stats.files_selected > 0);
        assert_eq!(stats.hits, warm.stats.files_selected as u64);
        assert_eq!(stats.misses, cold.stats.files_selected as u64);
    }

    #[test]
    fn density_results_match_serial_range_read() {
        let storage = build_dataset(40);
        let serial = DatasetReader::open(&storage).unwrap();
        let engine = QueryEngine::open(storage.clone(), ServeConfig::default()).unwrap();
        let region = Aabb3::new([0.1, 0.1, 0.0], [0.9, 0.9, 1.0]);
        let (lo, hi) = (1.1, 1.4);
        let (expect, _) = serial.read_box_density(&storage, &region, lo, hi).unwrap();
        let got = engine.execute(&Query::Density { region, lo, hi });
        assert!(got.is_complete());
        assert_eq!(encode_particles(&got.particles), encode_particles(&expect));
        assert!(
            !got.particles.is_empty(),
            "synthetic densities hit [1.1,1.4]"
        );
    }

    #[test]
    fn lod_results_match_serial_cursor() {
        let storage = build_dataset(64);
        let serial = DatasetReader::open(&storage).unwrap();
        let trace = Trace::collecting();
        let traced = TracedStorage::new(storage.clone(), trace.clone(), 0);
        let engine = QueryEngine::open(traced, ServeConfig::default()).unwrap();
        let range_ops = || trace.metrics().counter_value("storage.read_range.ops");
        let region = Aabb3::new([0.05, 0.05, 0.0], [0.7, 0.7, 1.0]);
        let deepest = serial.lod_box_cursor(&region, 1).num_levels() - 1;
        assert!(deepest >= 2, "levels 1 and 99 must be distinct blocks");
        for level in [0u32, 1, 99] {
            let capped = level.min(deepest);
            // Oracle: per intersecting file (ascending), the prefix through
            // `capped`, filtered to the region — the engine's exact
            // assembly order.
            let mut expect = Vec::new();
            let mut expect_bytes = 0;
            for idx in serial.meta.files_intersecting(&region) {
                let mut cursor = LodCursor::new(&serial.meta, &[idx], 1);
                let (prefix, stats) = cursor.read_through_level(&storage, capped).unwrap();
                expect.extend(prefix.into_iter().filter(|p| region.contains(p.position)));
                expect_bytes += stats.bytes_read;
            }
            let ops_before = range_ops();
            let got = engine.execute(&Query::Lod { region, level });
            assert!(got.is_complete());
            assert_eq!(
                encode_particles(&got.particles),
                encode_particles(&expect),
                "level {level}"
            );
            // Every level here is a cold block: each file costs its header,
            // its checksum footer and one payload read, whatever the depth.
            assert_eq!(got.stats.cache_hits, 0, "level {level}");
            assert_eq!(
                range_ops() - ops_before,
                3 * got.stats.files_selected as u64,
                "level {level}"
            );
            assert_eq!(got.stats.bytes_read, expect_bytes, "level {level}");
        }
        // A past-the-end level clamps onto the deepest block, so querying
        // the deepest level explicitly is fully warm.
        let blocks_before = engine.cache_stats().blocks;
        let again = engine.execute(&Query::Lod {
            region,
            level: deepest,
        });
        assert!(again.is_complete());
        assert_eq!(again.stats.cache_misses, 0);
        assert_eq!(engine.cache_stats().blocks, blocks_before);
    }

    #[test]
    fn concurrent_clients_get_identical_results() {
        let storage = build_dataset(40);
        let serial = DatasetReader::open(&storage).unwrap();
        let engine = QueryEngine::open(
            storage.clone(),
            ServeConfig {
                workers: 4,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let expected: Vec<Vec<u8>> = queries()
            .iter()
            .map(|q| encode_particles(&serial.read_box(&storage, q).unwrap().0))
            .collect();
        // More clients than MAX_INFLIGHT, so the admission gate queues.
        std::thread::scope(|scope| {
            for client in 0..12usize {
                let engine = &engine;
                let expected = &expected;
                scope.spawn(move || {
                    for (i, q) in queries().iter().enumerate() {
                        let r = engine.execute_as(client, &Query::Box(*q));
                        assert!(r.is_complete());
                        assert_eq!(
                            encode_particles(&r.particles),
                            expected[i],
                            "client {client}"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn traced_engine_records_query_metrics() {
        let storage = build_dataset(20);
        let trace = Trace::collecting();
        let engine =
            QueryEngine::open_traced(storage, ServeConfig::default(), trace.clone()).unwrap();
        let q = Query::Box(Aabb3::new([0.0; 3], [0.6, 0.6, 1.0]));
        engine.execute(&q);
        engine.execute(&q);
        let m = trace.metrics();
        assert_eq!(m.counter_value(metric_names::QUERIES), 2);
        let lat = m.histogram_snapshot(metric_names::LATENCY).unwrap();
        assert_eq!(lat.count, 2);
        assert!(m.counter_value(crate::cache::metric_names::HITS) > 0);
        // serve.query storage ops surface latency percentiles in reports.
        let report = spio_trace::JobReport::from_snapshot(1, &trace.snapshot()).with_metrics(&m);
        assert!(report.op_latency("serve.query").is_some());
        assert!(report.metric(metric_names::LATENCY).is_some());
    }
}
