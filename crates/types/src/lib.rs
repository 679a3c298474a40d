//! # spio-types
//!
//! Foundation types shared by every crate in the workspace: the particle
//! record used throughout the paper's evaluation (15 double-precision values
//! plus one single-precision value, 124 bytes per particle), axis-aligned
//! bounding boxes, the uniform domain decomposition a simulation imposes on
//! its domain, grid index math, and the aggregation partition factor
//! `(Px, Py, Pz)` from §3.1 of the paper.

pub mod aabb;
pub mod domain;
pub mod error;
pub mod grid;
pub mod le;
pub mod particle;
pub mod zorder;

pub use aabb::Aabb3;
pub use domain::DomainDecomposition;
pub use error::SpioError;
pub use grid::{GridDims, PartitionFactor};
pub use particle::{Particle, PARTICLE_BYTES};

/// A process rank, mirroring an MPI rank.
pub type Rank = usize;
