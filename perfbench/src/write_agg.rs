//! `write-agg`: the paper's collective write (§3).
//!
//! Two ranks each hold a uniform block of particles. Partition factor
//! `1x1x2` gives one aggregator, so every particle of the other rank
//! crosses `spio-comm` once; the aggregator LOD-shuffles, encodes and
//! checksums one file into a fresh `MemStorage`, and rank 0 writes the
//! metadata file. Reader, index, cache and pool stay idle.

use crate::alloc;
use crate::measure::{self, span_ms, span_work, Outcome, Plan};
use crate::probe::{names, time_op, Probe, ProbedComm, ProbedStorage};
use spio_comm::{run_threaded_collect, Comm};
use spio_core::{DatasetReader, MemStorage, SpatialWriter, WriteStats, WriterConfig};
use spio_types::{Aabb3, DomainDecomposition, GridDims, Particle, PartitionFactor};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Ranks of the job: the core count of the reference box, so the load never
/// runs more threads than cores there.
const RANKS: usize = 2;
/// 50,000 particles (6.2 MB) per rank make a 12.4 MB file per op: long
/// enough to time steadily. At 200,000 per rank, the fresh pages each op
/// faulted in made p50 swing by 20%.
const PER_RANK: usize = 50_000;
const TINY_PER_RANK: usize = 1_000;
/// Ops per requested second (one write takes about 60 ms on the reference
/// box, plus barriers and the storage swap between ops).
const OPS_PER_SECOND: u64 = 15;
const TINY_OPS: u64 = 12;
/// Writes in the warm-up. The allocator's heaps take a few writes to reach
/// the size the ops keep reusing; with one warm-up write the first timed ops
/// still faulted in fresh pages.
const WARMUP_OPS: usize = 3;

struct OpLog {
    start: Instant,
    end: Instant,
    result: Result<WriteStats, String>,
}

struct RankLog {
    /// When the warm-up writes and their barrier had finished (rank 0).
    ready: Instant,
    warmup: Result<(), String>,
    ops: Vec<OpLog>,
}

/// State shared by the rank threads of one job.
struct Job {
    particles: Vec<Vec<Particle>>,
    writer: SpatialWriter,
    /// The fresh storage of the current op; after the job, the last op's.
    slot: Mutex<MemStorage>,
    ops: u64,
    probe: Option<Arc<Probe>>,
}

pub fn run(plan: &Plan, probe: Option<Arc<Probe>>) -> Result<Outcome, String> {
    let per_rank = if plan.tiny { TINY_PER_RANK } else { PER_RANK };
    let ops = plan.ops(OPS_PER_SECOND, TINY_OPS);
    let mut out = Outcome::default();
    let mut timed = None;
    for setup in 0..plan.setups {
        // The timed phase follows the last set-up.
        let last = setup + 1 == plan.setups;
        // Each set-up starts from a trimmed heap, not from the pages the
        // one before it freed.
        alloc::release_freed_memory();
        let started = Instant::now();
        let decomp = DomainDecomposition::uniform(
            Aabb3::new([0.0; 3], [1.0; 3]),
            GridDims::new(1, 1, RANKS),
        );
        let particles = (0..RANKS)
            .map(|r| spio_workloads::uniform_patch_particles(&decomp, r, per_rank, plan.seed))
            .collect();
        alloc::release_freed_memory();
        let config = WriterConfig::new(PartitionFactor::new(1, 1, RANKS)).with_seed(plan.seed);
        let job = Arc::new(Job {
            particles,
            writer: SpatialWriter::new(decomp, config),
            slot: Mutex::new(MemStorage::new()),
            ops: if last { ops } else { 0 },
            probe: probe.clone(),
        });
        let shared = Arc::clone(&job);
        let logs = run_threaded_collect(RANKS, move |comm| match &shared.probe {
            Some(p) => rank_main(&ProbedComm::new(comm, Arc::clone(p)), &shared),
            None => rank_main(&comm, &shared),
        })
        .map_err(|e| format!("write-agg job failed: {e}"))?;
        for (rank, log) in logs.iter().enumerate() {
            if let Err(e) = &log.warmup {
                return Err(format!(
                    "write-agg warm-up write failed on rank {rank}: {e}"
                ));
            }
        }
        out.setup_s.push((logs[0].ready - started).as_secs_f64());
        if last {
            out.peak_rss_mb = measure::peak_rss_mb()?;
            if let Some(p) = &probe {
                out.spans = p.take();
            }
            timed = Some((job, logs));
        }
    }
    let (job, logs) = timed.expect("at least one set-up ran");
    check_and_summarise(&job, &logs, &mut out);
    if probe.is_some() {
        layers(&logs, &mut out);
    }
    Ok(out)
}

fn write_once<C: Comm>(comm: &C, job: &Job, storage: MemStorage) -> Result<WriteStats, String> {
    let me = comm.rank();
    let particles = &job.particles[me];
    let result = match &job.probe {
        Some(p) => {
            let start = Instant::now();
            let r = job
                .writer
                .write(comm, particles, &ProbedStorage::new(storage, Arc::clone(p)));
            if let Ok(stats) = &r {
                record_writer_phases(p, start, stats);
            }
            r
        }
        None => job.writer.write(comm, particles, &storage),
    };
    result.map_err(|e| e.to_string())
}

/// The writer reports its phase durations, not their start times; the
/// phases run back to back from the call, so lay them out in order.
fn record_writer_phases(probe: &Probe, start: Instant, stats: &WriteStats) {
    let mut at = start;
    for (name, d) in [
        (names::WRITER_SETUP, stats.setup_time),
        (names::WRITER_AGGREGATION, stats.aggregation_time),
        (names::WRITER_SHUFFLE, stats.shuffle_time),
        (names::WRITER_FILE_IO, stats.file_io_time),
        (names::WRITER_META, stats.meta_time),
    ] {
        probe.record(name, at, at + d, 0);
        at += d;
    }
}

/// Give every op a fresh storage: rank 0 swaps it in, both ranks pick it
/// up, and a barrier precedes the write.
fn fresh_storage<C: Comm>(comm: &C, job: &Job) -> MemStorage {
    if comm.rank() == 0 {
        *job.slot.lock().expect("storage slot poisoned") = MemStorage::new();
    }
    comm.barrier();
    let storage = job.slot.lock().expect("storage slot poisoned").clone();
    comm.barrier();
    storage
}

fn rank_main<C: Comm>(comm: &C, job: &Job) -> RankLog {
    let rank = comm.rank() as u32;
    let mut warmup = Ok(());
    for _ in 0..WARMUP_OPS {
        let w = write_once(comm, job, fresh_storage(comm, job)).map(|_| ());
        warmup = warmup.and(w);
    }
    comm.barrier();
    let ready = Instant::now();
    if rank == 0 {
        // Set-up ends here: forget its memory peak and its spans.
        if let Err(e) = measure::reset_peak_rss() {
            eprintln!("warning: {e}");
        }
        if let Some(p) = &job.probe {
            p.clear();
        }
    }
    comm.barrier();
    let mut ops = Vec::with_capacity(job.ops as usize);
    for op in 0..job.ops {
        let storage = fresh_storage(comm, job);
        let (result, start, end) = time_op(job.probe.as_deref(), op, rank, || {
            write_once(comm, job, storage)
        });
        ops.push(OpLog { start, end, result });
    }
    comm.barrier();
    RankLog { ready, warmup, ops }
}

fn check_and_summarise(job: &Job, logs: &[RankLog], out: &mut Outcome) {
    let total = job.particles.iter().map(Vec::len).sum::<usize>() as u64;
    let mut problems: Vec<Option<String>> = Vec::new();
    let mut phase: Option<(Instant, Instant)> = None;
    for op in 0..job.ops as usize {
        // An op spans from the first rank's start to the last rank's end.
        let start = logs
            .iter()
            .map(|l| l.ops[op].start)
            .min()
            .expect("ranks ran");
        let end = logs.iter().map(|l| l.ops[op].end).max().expect("ranks ran");
        phase = Some((phase.map_or(start, |p| p.0), end));
        out.op_ms.push((end - start).as_secs_f64() * 1e3);
        let mut aggregated = Vec::new();
        let mut error = None;
        for (rank, log) in logs.iter().enumerate() {
            match &log.ops[op].result {
                Ok(s) if s.files_written > 0 => aggregated.push(s.particles_aggregated),
                Ok(_) => {}
                Err(e) => error = Some(format!("op {op}: rank {rank} failed: {e}")),
            }
        }
        problems.push(error.or_else(|| {
            (aggregated != [total]).then(|| {
                format!("op {op}: expected one aggregator holding {total} particles, got {aggregated:?}")
            })
        }));
    }
    if let Some((a, b)) = phase {
        out.phase_s = (b - a).as_secs_f64();
    }
    // Read the last dataset back: the same particle count and id set as
    // the inputs. A mismatch fails the last op.
    let storage = job.slot.lock().expect("storage slot poisoned").clone();
    let mut expected: Vec<u64> = job.particles.iter().flatten().map(|p| p.id).collect();
    expected.sort_unstable();
    let read_back = match DatasetReader::open(&storage).and_then(|r| r.read_all(&storage)) {
        Err(e) => Some(format!("reading the last dataset back failed: {e}")),
        Ok((ps, _)) => {
            let mut ids: Vec<u64> = ps.iter().map(|p| p.id).collect();
            ids.sort_unstable();
            (ids != expected).then(|| {
                format!(
                    "the last dataset holds {} particles (expected {total}) or other ids",
                    ids.len()
                )
            })
        }
    };
    if let (Some(problem), Some(last)) = (read_back, problems.last_mut()) {
        last.get_or_insert(problem);
    }
    out.attempted = problems.len() as u64;
    for p in problems.into_iter().flatten() {
        out.fail(p);
    }
}

fn layers(logs: &[RankLog], out: &mut Outcome) {
    let n = out.op_ms.len().max(1) as f64;
    // Only spans inside ops: the benchmark's own barriers between ops
    // are not the writer's communication.
    let spans: Vec<_> = out
        .spans
        .iter()
        .copied()
        .filter(|s| s.op.is_some())
        .collect();
    let l = &mut out.layers;

    let (msgs, bytes) = span_work(&spans, names::COMM_SEND);
    l.exact("comm.msgs_per_op", msgs as f64 / n);
    l.exact("comm.bytes_per_op", bytes as f64 / n);
    l.exact(
        "comm.collectives_per_op",
        span_work(&spans, names::COMM_COLLECTIVE).0 as f64 / n,
    );
    let mut wait_max: f64 = 0.0;
    for (rank, name) in ["comm.wait_ms.rank0", "comm.wait_ms.rank1"]
        .into_iter()
        .enumerate()
    {
        let lane = Some(rank as u32);
        let ms = (span_ms(&spans, names::COMM_WAIT, lane)
            + span_ms(&spans, names::COMM_COLLECTIVE, lane))
            / n;
        l.set(name, ms);
        wait_max = wait_max.max(ms);
    }
    l.set("comm.wait_ms", wait_max);

    // The aggregator's own WriteStats: those of the rank that wrote a
    // data file.
    let agg = logs.iter().position(|log| {
        log.ops
            .iter()
            .any(|o| matches!(&o.result, Ok(s) if s.files_written > 0))
    });
    let mean_ms = |phase: fn(&WriteStats) -> std::time::Duration| -> f64 {
        agg.map_or(0.0, |a| {
            let ops = logs[a].ops.iter().filter_map(|o| o.result.as_ref().ok());
            ops.map(|s| phase(s).as_secs_f64() * 1e3).sum::<f64>() / n
        })
    };
    l.set("writer.aggregation_ms", mean_ms(|s| s.aggregation_time));
    l.set("writer.shuffle_ms", mean_ms(|s| s.shuffle_time));
    let file_io = mean_ms(|s| s.file_io_time);
    l.set("writer.file_io_ms", file_io);
    l.set("writer.meta_ms", mean_ms(|s| s.meta_time));
    // Encode + checksum is the part of the aggregator's file I/O phase not
    // spent inside its storage write.
    let agg_write = span_ms(&spans, names::STORAGE_WRITE, agg.map(|a| a as u32)) / n;
    l.set("format.encode_ms", file_io - agg_write);
    measure::storage_layers(&spans, n, true, l);
}
