//! # hpcsim
//!
//! A discrete-event performance simulator for HPC parallel I/O, used to
//! reproduce the paper's leadership-machine experiments (Mira and Theta at
//! up to 262 144 processes) on a workstation.
//!
//! ## How results are produced
//!
//! The *structure* of every experiment — the exact message matrix, file
//! counts, file sizes, and communication group sizes — is computed by the
//! production planner in `spio-core::plan`, the same grid/aggregation logic
//! the real writer executes. This crate assigns *time* to those operations
//! using first-order machine models:
//!
//! * [`network`] — an alpha-beta point-to-point model with group-size
//!   contention, plus collective cost formulas;
//! * [`filesystem`] — queueing models of parallel filesystems: a GPFS-like
//!   system with dedicated I/O nodes (Mira), a Lustre-like system with a
//!   metadata server and striped object storage targets (Theta), and an SSD
//!   workstation;
//! * [`machine`] — calibrated constants for the three platforms, each
//!   documented with the paper observation it is tuned against.
//!
//! Simulated results reproduce the *shape* of the paper's figures (who
//! wins, where file-per-process saturates, where crossovers fall), not the
//! authors' absolute numbers; see `EXPERIMENTS.md` at the repository root.

pub mod event_sim;
pub mod filesystem;
pub mod machine;
pub mod network;
pub mod read_sim;
pub mod write_sim;

pub use event_sim::{simulate_spio_write_events, EventWriteResult, ServerPool};
pub use machine::{mira, theta, workstation, MachineModel};
pub use read_sim::{simulate_read, ReadSimResult};
pub use write_sim::{
    simulate_fpp_write, simulate_hdf5_shared_write, simulate_shared_file_write,
    simulate_spio_write, simulate_spio_write_node_contended, WriteBreakdown,
};
