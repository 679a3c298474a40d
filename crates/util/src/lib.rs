//! # spio-util
//!
//! Small, dependency-free building blocks shared across the workspace. The
//! build environment is fully offline, so everything the repo previously
//! pulled from crates.io (seeded RNG streams, property-test harness,
//! temporary directories, JSON for trace reports) lives here instead, as
//! plain-std implementations sized to what the workspace actually uses.

pub mod bench;
pub mod check;
pub mod crc;
pub mod json;
pub mod rng;
pub mod sync;
pub mod tempdir;

pub use check::{cases, cases_seeded, Gen};
pub use crc::{crc32, Crc32};
pub use json::Json;
pub use rng::Rng;
pub use sync::{
    lock_unpoisoned, read_unpoisoned, wait_timeout_unpoisoned, wait_unpoisoned, write_unpoisoned,
};
pub use tempdir::{tempdir, TempDir};
