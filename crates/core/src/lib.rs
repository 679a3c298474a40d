//! # spio-core
//!
//! The paper's primary contribution: spatially-aware two-phase parallel I/O
//! for particle data (Kumar et al., ICPP 2019).
//!
//! The write path (§3) imposes an *aggregation-grid* on the simulation
//! domain, assigns one aggregator rank per grid partition, exchanges
//! metadata and then particles so that each aggregator holds a spatially
//! compact, disjoint box of the domain, shuffles each aggregated buffer into
//! a level-of-detail order, and writes one data file per partition plus a
//! spatial metadata file. The read path (§4) uses the metadata to open only
//! the files a box query touches, and reads file prefixes to realize
//! progressively refined levels of detail. §6's adaptive aggregation builds
//! the grid over just the occupied portion of the domain for non-uniform
//! particle distributions.
//!
//! The algorithms are generic over the [`spio_comm::Comm`] message-passing
//! trait and the [`Storage`] backend, so the same code runs on the
//! thread-backed runtime against a real filesystem (tests, examples) and is
//! introspected by the `hpcsim` performance simulator through the
//! [`plan`] module.

pub mod adaptive;
pub mod chaos;
pub mod grid;
pub mod plan;
pub mod reader;
pub mod retry;
pub mod shuffle;
pub mod stats;
pub mod storage;
pub mod timeseries;
pub mod writer;

pub use adaptive::AdaptiveGrid;
pub use chaos::{ChaosConfig, ChaosStats, ChaosStorage};
pub use grid::{AggregationGrid, Partition};
pub use plan::{ReadPlan, WritePlan};
pub use reader::{
    fetch_file, BoxQueryReader, DatasetReader, FileOutcome, LodCursor, LodReader, PartialRead,
    Predicate, PrefixFile, RestartReader,
};
pub use retry::{RetryPolicy, RetryStorage};
pub use shuffle::LodOrder;
pub use stats::{ReadStats, WriteStats};
pub use storage::{FsStorage, MemStorage, Storage, TracedStorage};
pub use timeseries::{open_timestep, PrefixedStorage, SeriesManifest, SeriesWriter};
pub use writer::{SpatialWriter, WriteMode, WriterConfig};
