//! `read-box`: the paper's §4 spatial box read through
//! `DatasetReader::read_box`, one client, a fixed seeded list of boxes read
//! in steps of four.
//!
//! Every box has side 0.25 of the domain, so a query opens about 8 of the
//! 64 files (6.2 MB) and returns about 6,250 particles. Nearly all of an op
//! is storage read, checksum verify, decode and filter; comm, cache and
//! pool stay idle.

use crate::alloc;
use crate::fixture::{self, Fixture};
use crate::measure::{self, median, Outcome, Plan};
use crate::probe::{time_op, Probe, ProbedStorage};
use spio_core::{DatasetReader, ReadStats, Storage};
use spio_types::Aabb3;
use spio_util::Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// 6,250 particles per file: 400,000 particles, 49.6 MB in 64 files.
const PER_FILE: usize = 6_250;
const SIDE: f64 = 0.25;
const TINY_SIDE: f64 = 0.5;
/// Boxes per op. The client reads its boxes in steps of this many, back to
/// back (a view made of several regions), and an op is one step. Single
/// 22 ms reads put the tail at p98.6, where bursts of interference from
/// other tenants of the reference box, seconds long, moved it by 75%
/// between runs; a step averages over them.
const STEP: usize = 4;
/// Steps per requested second (a step takes about 90 ms on the reference
/// box).
const STEPS_PER_SECOND: u64 = 10;
const TINY_OPS: u64 = 3;

/// `(particle count, wrapping sum of ids)` a box must return.
type Expected = (u64, u64);

pub fn run(plan: &Plan, probe: Option<Arc<Probe>>) -> Result<Outcome, String> {
    let steps = plan.ops(STEPS_PER_SECOND, TINY_OPS) as usize;
    let mut out = Outcome::default();
    for setup in 0..plan.setups {
        // Each set-up starts from a trimmed heap, not from the pages the
        // one before it freed.
        alloc::release_freed_memory();
        let started = Instant::now();
        let fx = fixture::write(plan, PER_FILE)?;
        // The first step is the warm-up op; the timed steps follow it.
        let boxes = boxes(plan, (steps + 1) * STEP);
        let expected: Vec<Expected> = boxes.iter().map(|b| brute_force(&fx, b)).collect();
        let storage = fx.storage;
        // The timed phase holds only what the reader needs.
        drop(fx.particles);
        alloc::release_freed_memory();
        let s = Session {
            started,
            boxes: &boxes,
            expected: &expected,
            probe: probe.as_deref(),
            timed: setup + 1 == plan.setups,
        };
        match &probe {
            Some(p) => s.run(&ProbedStorage::new(storage, Arc::clone(p)), &mut out)?,
            None => s.run(&storage, &mut out)?,
        }
    }
    Ok(out)
}

/// The op list: boxes of fixed side at seeded positions.
fn boxes(plan: &Plan, n: usize) -> Vec<Aabb3> {
    let side = if plan.tiny { TINY_SIDE } else { SIDE };
    let mut rng = Rng::seed_from_u64(plan.seed ^ 0xB0C5_B0C5);
    (0..n)
        .map(|_| {
            let lo = [0, 1, 2].map(|_| rng.f64_in(0.0, 1.0 - side));
            Aabb3::new(lo, lo.map(|v| v + side))
        })
        .collect()
}

/// Filter the generated particles directly. Only patches that intersect
/// the box can hold particles inside it, so the others are skipped.
fn brute_force(fx: &Fixture, b: &Aabb3) -> Expected {
    let mut count = 0u64;
    let mut id_sum = 0u64;
    for (rank, ps) in fx.particles.iter().enumerate() {
        if !fx.decomp.patch_bounds(rank).intersects(b) {
            continue;
        }
        for p in ps.iter().filter(|p| b.contains(p.position)) {
            count += 1;
            id_sum = id_sum.wrapping_add(p.id);
        }
    }
    (count, id_sum)
}

fn found(ps: &[spio_types::Particle]) -> Expected {
    (
        ps.len() as u64,
        ps.iter().fold(0u64, |s, p| s.wrapping_add(p.id)),
    )
}

struct Session<'a> {
    started: Instant,
    boxes: &'a [Aabb3],
    expected: &'a [Expected],
    probe: Option<&'a Probe>,
    /// Run the timed phase after this set-up (the last one).
    timed: bool,
}

impl Session<'_> {
    fn run<S: Storage>(&self, storage: &S, out: &mut Outcome) -> Result<(), String> {
        let reader =
            DatasetReader::open(storage).map_err(|e| format!("opening the fixture: {e}"))?;
        for (b, want) in self.boxes.iter().zip(self.expected).take(STEP) {
            let (warm, _) = reader
                .read_box(storage, b)
                .map_err(|e| format!("warm-up read failed: {e}"))?;
            if found(&warm) != *want {
                return Err("warm-up read returned the wrong particles".into());
            }
        }
        out.setup_s.push(self.started.elapsed().as_secs_f64());
        if !self.timed {
            return Ok(());
        }

        measure::reset_peak_rss()?;
        let memory = measure::memory_now()?;
        if let Some(p) = self.probe {
            p.clear();
        }
        let mut totals = ReadStats::default();
        let mut box_ms = Vec::new();
        let phase = Instant::now();
        for (k, step) in self.boxes.chunks(STEP).enumerate().skip(1) {
            let (results, start, end) = time_op(self.probe, k as u64, 0, || {
                step.iter()
                    .map(|b| {
                        let t = Instant::now();
                        (reader.read_box(storage, b), t.elapsed())
                    })
                    .collect::<Vec<_>>()
            });
            out.op_ms.push((end - start).as_secs_f64() * 1e3);
            for (j, (result, took)) in results.into_iter().enumerate() {
                let i = k * STEP + j;
                box_ms.push(took.as_secs_f64() * 1e3);
                out.attempted += 1;
                match result {
                    Err(e) => out.fail(format!("box {i}: {e}")),
                    Ok((ps, stats)) => {
                        let (got, want) = (found(&ps), self.expected[i]);
                        if got != want {
                            out.fail(format!(
                                "box {i}: got (count, id sum) {got:?}, expected {want:?}"
                            ));
                        }
                        totals.files_opened += stats.files_opened;
                        totals.particles_read += stats.particles_read;
                        totals.particles_discarded += stats.particles_discarded;
                    }
                }
            }
        }
        out.phase_s = phase.elapsed().as_secs_f64();
        out.peak_rss_mb = measure::peak_rss_mb()?;
        out.notes.push(measure::memory_note(memory)?);
        let (pct, tail_ms, _) = measure::tail(&box_ms);
        out.notes.push(format!(
            "per box: p50 {:.4} ms, p{pct:.2} {tail_ms:.4} ms over {} boxes",
            median(&box_ms),
            box_ms.len()
        ));

        if let Some(p) = self.probe {
            // Per-layer values are per box, not per step.
            out.spans = p.take();
            let n = box_ms.len().max(1) as f64;
            let box_mean = box_ms.iter().sum::<f64>() / n;
            let l = &mut out.layers;
            measure::storage_layers(&out.spans, n, true, l);
            let read_ms = l.get("storage.read_ms").map_or(0.0, |v| v.0);
            l.set("reader.self_ms", box_mean - read_ms);
            l.exact("reader.files_per_op", totals.files_opened as f64 / n);
            let decoded = totals.particles_read + totals.particles_discarded;
            l.exact(
                "reader.useful_ratio",
                totals.particles_read as f64 / decoded.max(1) as f64,
            );
            l.set("index.select_us", select_us(&reader, &self.boxes[STEP..]));
        }
        Ok(())
    }
}

/// Mean time of the metadata's file selection on the workload's own boxes,
/// median over five passes.
fn select_us(reader: &DatasetReader, boxes: &[Aabb3]) -> f64 {
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for b in boxes {
                black_box(reader.meta.files_intersecting(black_box(b)));
            }
            t.elapsed().as_secs_f64() * 1e6 / boxes.len().max(1) as f64
        })
        .collect();
    median(&passes)
}
