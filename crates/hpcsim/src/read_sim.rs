//! Read-phase simulation: event-driven replay of a [`ReadPlan`].
//!
//! Each reader executes its file accesses *sequentially* (open, transfer,
//! next file), while all readers run concurrently and contend for the
//! metadata service and data servers. The event loop always advances the
//! reader with the earliest local clock, so cross-reader queueing at the
//! servers emerges naturally — this is what makes the
//! 64 Ki-file file-per-process dataset slow to read on Theta (Fig. 7) while
//! the SSD workstation barely notices the file count.

use crate::filesystem::ReadServers;
use crate::machine::MachineModel;
use spio_core::plan::ReadPlan;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of one simulated parallel read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadSimResult {
    /// Wall time: the last reader's completion.
    pub time: f64,
    /// Mean per-reader completion (load-balance indicator).
    pub mean_reader_time: f64,
    pub total_bytes: u64,
    pub total_opens: u64,
}

/// Replay `plan` on `machine`.
pub fn simulate_read(plan: &ReadPlan, machine: &MachineModel) -> ReadSimResult {
    let fs = &machine.fs;
    // Group accesses per reader, preserving plan order.
    let mut per_reader: Vec<Vec<(usize, u64)>> = vec![Vec::new(); plan.nreaders];
    for r in &plan.reads {
        per_reader[r.rank].push((r.file, r.bytes));
    }
    let mut servers = ReadServers::new(fs, plan.nreaders);
    // Heap of (next-event time, reader, next op index).
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    for (rank, ops) in per_reader.iter().enumerate() {
        if !ops.is_empty() {
            heap.push(Reverse((0, rank, 0)));
        }
    }
    let mut completion = vec![0.0f64; plan.nreaders];
    while let Some(Reverse((now_bits, rank, op))) = heap.pop() {
        let now = f64::from_bits(now_bits);
        let (file, bytes) = per_reader[rank][op];
        let done = servers.file_read(fs, now, file, bytes);
        if op + 1 < per_reader[rank].len() {
            heap.push(Reverse((done.to_bits(), rank, op + 1)));
        } else {
            completion[rank] = done;
        }
    }
    // Global backend cap: the plan's total volume cannot move faster than
    // the storage backend.
    let floor = plan.total_bytes() as f64 / fs.backend_bw;
    let time = completion.iter().cloned().fold(0.0, f64::max).max(floor);
    let active = completion.iter().filter(|&&c| c > 0.0).count().max(1);
    let mean = completion.iter().sum::<f64>() / active as f64;
    ReadSimResult {
        time,
        mean_reader_time: mean.max(floor),
        total_bytes: plan.total_bytes(),
        total_opens: plan.total_opens(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{theta, workstation};
    use spio_core::plan::{plan_box_read, plan_lod_read, DatasetShape};
    use spio_format::LodParams;
    use spio_types::Aabb3;

    /// A dataset of `files` equal files tiling the unit cube along x.
    fn shape(files: usize, particles_per_file: u64) -> DatasetShape {
        let fs = (0..files)
            .map(|i| {
                let lo = i as f64 / files as f64;
                let hi = (i + 1) as f64 / files as f64;
                (
                    Aabb3::new([lo, 0.0, 0.0], [hi, 1.0, 1.0]),
                    particles_per_file,
                )
            })
            .collect();
        DatasetShape {
            domain: Aabb3::new([0.0; 3], [1.0; 3]),
            files: fs,
            total_particles: files as u64 * particles_per_file,
            lod: LodParams::default(),
        }
    }

    #[test]
    fn metadata_reads_strong_scale() {
        let s = shape(512, 100_000);
        let m = theta();
        let t8 = simulate_read(&plan_box_read(&s, 8, true), &m);
        let t64 = simulate_read(&plan_box_read(&s, 64, true), &m);
        assert!(
            t64.time < t8.time,
            "more readers must be faster with metadata: {} vs {}",
            t64.time,
            t8.time
        );
    }

    #[test]
    fn no_metadata_reads_do_not_scale() {
        let s = shape(512, 100_000);
        let m = theta();
        let t8 = simulate_read(&plan_box_read(&s, 8, false), &m);
        let t64 = simulate_read(&plan_box_read(&s, 64, false), &m);
        assert!(
            t64.time >= t8.time * 0.9,
            "full-scan reads cannot strong-scale: {} vs {}",
            t64.time,
            t8.time
        );
        // And they are far slower than metadata-guided reads. (The test
        // dataset tiles files along x only, so a cubic reader query still
        // touches 1/4 of the files — the selectivity gain is ~4x.)
        let meta = simulate_read(&plan_box_read(&s, 64, true), &m);
        assert!(
            t64.time > 3.0 * meta.time,
            "no-meta {} vs meta {}",
            t64.time,
            meta.time
        );
    }

    #[test]
    fn many_small_files_hurt_theta_more_than_workstation() {
        // Same bytes, 8× the files: the slowdown factor must be larger on
        // Theta (expensive opens) than on the SSD box (cheap opens).
        let few = shape(128, 800_000);
        let many = shape(1024, 100_000);
        let ratio = |m: &MachineModel| {
            let a = simulate_read(&plan_box_read(&few, 16, true), m).time;
            let b = simulate_read(&plan_box_read(&many, 16, true), m).time;
            b / a
        };
        assert!(ratio(&theta()) > ratio(&workstation()));
    }

    #[test]
    fn lod_time_grows_with_level() {
        let s = shape(128, 1 << 20);
        let m = workstation();
        let t0 = simulate_read(&plan_lod_read(&s, 64, 0), &m);
        let t5 = simulate_read(&plan_lod_read(&s, 64, 5), &m);
        let t_all = simulate_read(&plan_lod_read(&s, 64, 40), &m);
        assert!(t0.time < t5.time);
        assert!(t5.time < t_all.time);
        // Every particle transferred once, plus each file's one-time
        // header + checksum-footer fetch.
        assert_eq!(
            t_all.total_bytes,
            128 * ((1 << 20) * 124 + spio_format::data_file::lod_open_overhead(1 << 20))
        );
    }

    #[test]
    fn empty_files_cost_only_opens() {
        let s = shape(4, 0);
        let r = simulate_read(&plan_lod_read(&s, 2, 0), &theta());
        assert_eq!(r.total_bytes, 0);
        assert_eq!(r.total_opens, 4);
        // Pure metadata cost: a handful of opens, well under a second.
        assert!(r.time > 0.0 && r.time < 0.1, "{}", r.time);
    }

    #[test]
    fn deterministic_replay() {
        let s = shape(64, 500_000);
        let m = theta();
        let a = simulate_read(&plan_box_read(&s, 16, true), &m);
        let b = simulate_read(&plan_box_read(&s, 16, true), &m);
        assert_eq!(a, b);
    }
}
