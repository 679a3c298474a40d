//! Fig. 8: level-of-detail read performance.
//!
//! 64 processes read progressively more levels of detail from the
//! 2-billion-particle dataset of Fig. 7 (written at (2,2,2), 8 Ki files)
//! with `P = 32`, `S = 2` — up to the 20 levels the paper derives from
//! `l = log2(2^31 / (64·32))`.

use crate::fig7::dataset_shape;
#[cfg(test)]
use crate::fig7::{PARTICLES_PER_WRITER, WRITER_PROCS};
use hpcsim::{simulate_lod_read, MachineModel};
use spio_core::plan::{plan_lod_read, DatasetShape};
use spio_types::{PartitionFactor, SpioError};

/// Readers in the Fig. 8 experiment.
pub const READERS: usize = 64;

/// One plotted point: cumulative time to read levels `0 ..= level`.
#[derive(Debug, Clone)]
pub struct Point {
    pub level: u32,
    pub time: f64,
    pub bytes: u64,
    pub opens: u64,
}

/// The Fig. 8 dataset (same as Fig. 7's aggregated dataset).
pub fn lod_dataset() -> Result<DatasetShape, SpioError> {
    dataset_shape(PartitionFactor::new(2, 2, 2))
}

/// Maximum level index for the paper's configuration.
pub fn max_level(shape: &DatasetShape) -> u32 {
    shape.lod.num_levels(READERS as u64, shape.total_particles) - 1
}

/// Sweep levels 1 ..= max on one machine.
pub fn lod_sweep(machine: &MachineModel) -> Result<Vec<Point>, SpioError> {
    let shape = lod_dataset()?;
    let max = max_level(&shape);
    Ok((1..=max)
        .map(|level| {
            let plan = plan_lod_read(&shape, READERS, level);
            let r = simulate_lod_read(&plan, machine);
            Point {
                level,
                time: r.time,
                bytes: r.total_bytes,
                opens: r.total_opens,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim::{theta, workstation};

    #[test]
    fn paper_level_count() {
        // §5.4: n=64, P=32, S=2, 2^31 particles ⇒ top level l = 20.
        let shape = lod_dataset().unwrap();
        assert_eq!(shape.total_particles, 1 << 31);
        assert_eq!(max_level(&shape), 20);
        assert_eq!(WRITER_PROCS as u64 * PARTICLES_PER_WRITER, 1 << 31);
    }

    #[test]
    fn theta_is_flat_at_low_levels_then_grows() {
        // Fig. 8 (Theta): "the first few levels can be read in about the
        // same time … dominated by file opening"; beyond ~level 8 the time
        // grows with the particle volume.
        let pts = lod_sweep(&theta()).unwrap();
        let t = |l: u32| pts.iter().find(|p| p.level == l).unwrap().time;
        assert!(
            t(6) < t(1) * 1.3,
            "low levels ~flat on theta: {} vs {}",
            t(1),
            t(6)
        );
        assert!(
            t(20) > 2.0 * t(8),
            "high levels grow with volume: {} vs {}",
            t(8),
            t(20)
        );
    }

    #[test]
    fn workstation_grows_earlier_than_theta() {
        // Fig. 8 contrast: on the SSD box time increases with the particle
        // volume well before Theta's open-dominated plateau ends (~level 8)
        // — "for initial lower levels we observe time increasing
        // proportionally with the number of particles being read".
        let ws = lod_sweep(&workstation()).unwrap();
        let th = lod_sweep(&theta()).unwrap();
        let t = |pts: &[Point], l: u32| pts.iter().find(|p| p.level == l).unwrap().time;
        let ws_growth = t(&ws, 12) / t(&ws, 4);
        let th_growth = t(&th, 12) / t(&th, 4);
        assert!(
            ws_growth > 2.0,
            "SSD box must grow by mid levels: {ws_growth}"
        );
        assert!(
            th_growth < 1.5,
            "Theta still open-dominated at level 12: {th_growth}"
        );
        // Low-level reads are fast enough for interactive use (§5.4).
        assert!(
            t(&ws, 5) < 2.0,
            "level-5 read should be interactive: {}",
            t(&ws, 5)
        );
    }

    #[test]
    fn reading_all_levels_equals_full_dataset_read() {
        // §5.4: at the last level "the timing is equivalent to reading the
        // entire dataset using 64 cores (as seen in Figure 7)".
        use crate::fig7::{read_scaling, time_of, Case};
        for machine in [theta(), workstation()] {
            let pts = lod_sweep(&machine).unwrap();
            let full_lod = pts.last().unwrap();
            // Full payload plus each file's header + checksum-footer fetch.
            let expect = (1u64 << 31) * 124
                + 8192 * spio_format::data_file::lod_open_overhead((1 << 31) / 8192);
            assert_eq!(full_lod.bytes, expect, "all particles read");
            let fig7 = read_scaling(&machine, &[64]).unwrap();
            let fig7_time = time_of(&fig7, Case::AggWithMeta, 64);
            let ratio = full_lod.time / fig7_time;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{}: LOD-complete {} vs fig7 full read {}",
                machine.name,
                full_lod.time,
                fig7_time
            );
        }
    }

    #[test]
    fn opens_are_constant_across_levels() {
        let pts = lod_sweep(&theta()).unwrap();
        assert!(pts.windows(2).all(|w| w[0].opens == w[1].opens));
        // 8192 files, one open each.
        assert_eq!(pts[0].opens, 8192);
    }
}
