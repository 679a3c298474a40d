//! The read-side fixture shared by `read-box` and `serve-mixed`: a 64-file
//! dataset written by the product's own writer.

use crate::measure::Plan;
use spio_comm::{run_threaded_collect, Comm};
use spio_core::{MemStorage, SpatialWriter, WriterConfig};
use spio_types::{Aabb3, DomainDecomposition, GridDims, Particle, PartitionFactor};
use std::sync::Arc;

/// 64 writer ranks (a 4×4×4 grid of patches over the unit cube), each
/// writing one file of its own uniform particles (factor `1x1x1`).
const GRID: usize = 4;
const TINY_GRID: usize = 2;
const TINY_PER_RANK: usize = 500;

pub struct Fixture {
    pub storage: MemStorage,
    pub decomp: DomainDecomposition,
    /// The generated particles, indexed by writer rank.
    pub particles: Arc<Vec<Vec<Particle>>>,
}

/// Write a fixture of `per_rank` particles in each of the 64 files.
pub fn write(plan: &Plan, per_rank: usize) -> Result<Fixture, String> {
    let (grid, per_rank) = if plan.tiny {
        (TINY_GRID, TINY_PER_RANK)
    } else {
        (GRID, per_rank)
    };
    let decomp = DomainDecomposition::uniform(
        Aabb3::new([0.0; 3], [1.0; 3]),
        GridDims::new(grid, grid, grid),
    );
    let particles: Arc<Vec<Vec<Particle>>> = Arc::new(
        (0..decomp.nprocs())
            .map(|r| spio_workloads::uniform_patch_particles(&decomp, r, per_rank, plan.seed))
            .collect(),
    );
    let storage = MemStorage::new();
    let writer = SpatialWriter::new(
        decomp.clone(),
        WriterConfig::new(PartitionFactor::new(1, 1, 1)).with_seed(plan.seed),
    );
    let (s, ps) = (storage.clone(), Arc::clone(&particles));
    let results = run_threaded_collect(decomp.nprocs(), move |comm| {
        writer
            .write(&comm, &ps[comm.rank()], &s)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })
    .map_err(|e| format!("writing the fixture failed: {e}"))?;
    if let Some(Err(e)) = results.into_iter().find(Result::is_err) {
        return Err(format!("writing the fixture failed: {e}"));
    }
    Ok(Fixture {
        storage,
        decomp,
        particles,
    })
}
