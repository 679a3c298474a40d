//! # spio-analysis
//!
//! Post-processing analysis built on the spatially-aware format — the
//! tasks the paper motivates the layout with ("a range of standard
//! analysis and visualization tasks are dependent on region-based queries,
//! e.g.: nearest neighbour search, vector field integration, stencil
//! operations", §3):
//!
//! * [`neighbors`] — radius queries and k-nearest-neighbour search that
//!   open only the files their search region touches;
//! * [`density`] — density fields sampled onto uniform grids;
//! * [`estimate`] — progressive statistics from LOD prefixes: estimate a
//!   quantity from a cheap low-resolution read, with refinement as more
//!   levels stream in.

pub mod density;
pub mod estimate;
pub mod neighbors;

pub use density::DensityField;
pub use estimate::ProgressiveEstimator;
pub use neighbors::{k_nearest, radius_query};
