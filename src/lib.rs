//! # spatial-particle-io
//!
//! Umbrella crate for the reproduction of *Spatially-aware Parallel I/O for
//! Particle Data* (Kumar, Petruzza, Usher, Pascucci — ICPP 2019).
//!
//! This crate re-exports the workspace members under stable module names and
//! hosts the runnable examples (`examples/`) and cross-crate integration
//! tests (`tests/`). See `DESIGN.md` at the repository root for the system
//! inventory and `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ## Quick start
//!
//! ```no_run
//! use spatial_particle_io::prelude::*;
//!
//! // Run a 8-rank simulated job that writes a spatially-aware dataset.
//! let dir = std::env::temp_dir().join("spio-quickstart");
//! let decomp = DomainDecomposition::uniform(
//!     Aabb3::new([0.0; 3], [1.0; 3]),
//!     GridDims::new(2, 2, 2),
//! );
//! let config = WriterConfig::new(PartitionFactor::new(2, 2, 2));
//! spio_comm::run_threaded(8, move |comm| {
//!     let particles = uniform_patch_particles(&decomp, comm.rank(), 1000, 42);
//!     let writer = SpatialWriter::new(decomp.clone(), config.clone());
//!     writer
//!         .write(&comm, &particles, &FsStorage::new(&dir))
//!         .unwrap();
//! })
//! .unwrap();
//! ```

pub use hpcsim;
pub use spio_analysis as analysis;
pub use spio_baselines as baselines;
pub use spio_comm as comm;
pub use spio_core as core;
pub use spio_format as format;
pub use spio_tools as tools;
pub use spio_types as types;
pub use spio_workloads as workloads;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use spio_comm::{run_threaded, Comm, ThreadComm};
    pub use spio_core::{
        AdaptiveGrid, AggregationGrid, BoxQueryReader, ChaosConfig, ChaosStorage, FsStorage,
        LodCursor, RetryPolicy, RetryStorage, SpatialWriter, Storage, WriterConfig,
    };
    pub use spio_format::{LodParams, SpatialMetadata};
    pub use spio_types::{
        Aabb3, DomainDecomposition, GridDims, Particle, PartitionFactor, Rank, SpioError,
    };
    pub use spio_workloads::uniform_patch_particles;
}
