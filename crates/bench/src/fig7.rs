//! Fig. 7: visualization-read strong scaling.
//!
//! A 2-billion-particle dataset (64 Ki writers × 32 Ki particles) is read
//! by far fewer processes on Theta (64 → 2048) and on the SSD workstation
//! (1 → 64). Three dataset/read variants, as in the paper:
//!
//! 1. written at (2,2,2) **with** the spatial metadata file — readers open
//!    only the files their subdomain query intersects;
//! 2. written at (2,2,2) **without** spatial metadata — every reader must
//!    scan all 8 Ki files;
//! 3. written at (1,1,1) (file-per-process, 64 Ki files) with metadata —
//!    selective, but paying the per-file open cost.

use hpcsim::{simulate_read, MachineModel, ReadSimResult};
use spio_core::grid::AggregationGrid;
use spio_core::plan::{plan_box_read, plan_write_on_grid, DatasetShape};
use spio_types::{Aabb3, DomainDecomposition, PartitionFactor, SpioError};

/// The paper's Fig. 7 dataset: 65 536 writers × 32 768 particles.
pub const WRITER_PROCS: usize = 65_536;
pub const PARTICLES_PER_WRITER: u64 = 32_768;

/// Reader counts per platform.
pub const THETA_READERS: [usize; 6] = [64, 128, 256, 512, 1024, 2048];
pub const WORKSTATION_READERS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The three plotted cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// (2,2,2) aggregation, spatial metadata available.
    AggWithMeta,
    /// (2,2,2) aggregation, no spatial metadata (scan everything).
    AggWithoutMeta,
    /// (1,1,1) file-per-process layout, spatial metadata available.
    FppWithMeta,
}

impl Case {
    pub fn label(&self) -> &'static str {
        match self {
            Case::AggWithMeta => "2x2x2 (with spatial metadata)",
            Case::AggWithoutMeta => "2x2x2 (without spatial metadata)",
            Case::FppWithMeta => "1x1x1 (with spatial metadata)",
        }
    }
}

/// Build the Fig. 7 dataset shape for a factor.
pub fn dataset_shape(factor: PartitionFactor) -> Result<DatasetShape, SpioError> {
    let decomp = DomainDecomposition::for_procs(Aabb3::new([0.0; 3], [1.0; 3]), WRITER_PROCS);
    let grid = AggregationGrid::aligned(&decomp, factor)?;
    let counts = vec![PARTICLES_PER_WRITER; WRITER_PROCS];
    let plan = plan_write_on_grid(&grid, &counts, false)?;
    Ok(DatasetShape::from_write(&grid, &plan))
}

/// One strong-scaling point.
#[derive(Debug, Clone)]
pub struct Point {
    pub case: Case,
    pub readers: usize,
    pub result: ReadSimResult,
}

/// Run the three cases across a reader sweep on one machine.
pub fn read_scaling(machine: &MachineModel, readers: &[usize]) -> Result<Vec<Point>, SpioError> {
    let agg = dataset_shape(PartitionFactor::new(2, 2, 2))?;
    let fpp = dataset_shape(PartitionFactor::new(1, 1, 1))?;
    let mut out = Vec::new();
    for &n in readers {
        out.push(Point {
            case: Case::AggWithMeta,
            readers: n,
            result: simulate_read(&plan_box_read(&agg, n, true), machine),
        });
        out.push(Point {
            case: Case::AggWithoutMeta,
            readers: n,
            result: simulate_read(&plan_box_read(&agg, n, false), machine),
        });
        out.push(Point {
            case: Case::FppWithMeta,
            readers: n,
            result: simulate_read(&plan_box_read(&fpp, n, true), machine),
        });
    }
    Ok(out)
}

/// Lookup helper.
pub fn time_of(points: &[Point], case: Case, readers: usize) -> f64 {
    points
        .iter()
        .find(|p| p.case == case && p.readers == readers)
        .map(|p| p.result.time)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim::{theta, workstation};

    #[test]
    fn dataset_is_two_billion_particles() {
        let s = dataset_shape(PartitionFactor::new(2, 2, 2)).unwrap();
        assert_eq!(s.total_particles, 1 << 31);
        assert_eq!(s.files.len(), 8192, "64Ki/(2·2·2) files");
        let fpp = dataset_shape(PartitionFactor::new(1, 1, 1)).unwrap();
        assert_eq!(fpp.files.len(), 65_536);
    }

    #[test]
    fn theta_with_metadata_strong_scales() {
        let pts = read_scaling(&theta(), &[64, 2048]).unwrap();
        let t64 = time_of(&pts, Case::AggWithMeta, 64);
        let t2048 = time_of(&pts, Case::AggWithMeta, 2048);
        assert!(
            t2048 < t64 / 4.0,
            "32× readers should cut time well: {t64} → {t2048}"
        );
    }

    #[test]
    fn without_metadata_is_worst_and_does_not_scale() {
        // Fig. 7: "the lack of spatial information forces every process to
        // read the entire set of particles … adding more processes does not
        // reduce the per-process I/O load".
        for machine in [theta(), workstation()] {
            let readers = if machine.name == "theta" {
                [64usize, 1024]
            } else {
                [4, 64]
            };
            let pts = read_scaling(&machine, &readers).unwrap();
            for &n in &readers {
                let nometa = time_of(&pts, Case::AggWithoutMeta, n);
                let meta = time_of(&pts, Case::AggWithMeta, n);
                let fpp = time_of(&pts, Case::FppWithMeta, n);
                assert!(
                    nometa > meta && nometa > fpp,
                    "{}@{n}: no-meta {nometa} must be worst (meta {meta}, fpp {fpp})",
                    machine.name
                );
            }
            let early = time_of(&pts, Case::AggWithoutMeta, readers[0]);
            let late = time_of(&pts, Case::AggWithoutMeta, readers[1]);
            assert!(
                late > early * 0.8,
                "{}: no-meta must not strong-scale: {early} → {late}",
                machine.name
            );
        }
    }

    #[test]
    fn file_count_gap_is_much_larger_on_theta_than_ssd() {
        // Fig. 7: reading 64 Ki files "has a stronger impact on Theta as
        // compared to the SSD based workstation", where the times are
        // "almost comparable".
        let theta_pts = read_scaling(&theta(), &[64]).unwrap();
        let t_gap =
            time_of(&theta_pts, Case::FppWithMeta, 64) / time_of(&theta_pts, Case::AggWithMeta, 64);
        let ws_pts = read_scaling(&workstation(), &[16]).unwrap();
        let w_gap =
            time_of(&ws_pts, Case::FppWithMeta, 16) / time_of(&ws_pts, Case::AggWithMeta, 16);
        assert!(
            t_gap > 1.5,
            "Theta must punish the 64Ki-file layout: gap {t_gap}"
        );
        assert!(
            w_gap < 1.3,
            "SSD box should barely notice the file count: gap {w_gap}"
        );
        assert!(t_gap > w_gap);
    }

    #[test]
    fn fpp_with_metadata_still_scales() {
        // Fig. 7: "although the large number of files reduces the overall
        // performance, the spatial information … still allows this approach
        // to scale well".
        let pts = read_scaling(&theta(), &[64, 1024]).unwrap();
        let t64 = time_of(&pts, Case::FppWithMeta, 64);
        let t1024 = time_of(&pts, Case::FppWithMeta, 1024);
        assert!(t1024 < t64, "time must drop with more readers");
    }
}
