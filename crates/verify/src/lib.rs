//! # spio-verify
//!
//! Correctness tooling for the spio workspace, in two pillars:
//!
//! * [`CheckedComm`] — a [`Comm`](spio_comm::Comm) wrapper (the semantics
//!   sibling of `TracedComm`) that runtime-verifies MPI rules the way MUST
//!   does on real machines: every rank's collective-call sequence is
//!   cross-checked *before* the collective runs (same op, same root, same
//!   payload arity, with a rank-level diff on mismatch), unwaited
//!   `SendHandle`/`RecvHandle`s and unconsumed mailbox messages are
//!   reported as leaks at [`CheckedComm::finalize`], and a blocked receive
//!   that exceeds the stall timeout dumps a wait-for graph (who blocks on
//!   whose `(src, tag)`) instead of hanging bare.
//! * [`explore`] — a std-only, loom-lite deterministic scheduler: rank
//!   programs run one-at-a-time under a cooperatively passed token, and a
//!   seeded RNG picks which runnable rank proceeds at every communication
//!   yield point. `k` seeds give `k` reproducible interleavings, which is
//!   how the test suite asserts every collective in
//!   `spio_comm::collectives` is schedule-invariant and that known-bad
//!   programs deadlock *detectably* (structural wait-for cycle, not a
//!   wall-clock hang).
//!
//! Source-level rules (no `unwrap`/`expect` in library and binary code, no
//! wall-clock reads) are clippy's job, not this crate's: `ci.sh` runs the
//! clippy gate and the root `clippy.toml` lists the disallowed methods.
//!
//! Verifier findings are first-class trace events
//! ([`TraceEvent::Verify`](spio_trace::TraceEvent)) so `spio report` can
//! aggregate them per rule alongside phases, faults, and the comm matrix.

pub mod checked;
pub mod explorer;
pub mod fixtures;

pub use checked::{CheckedComm, CheckedShared, CheckedWorld};
pub use explorer::{explore, explore_collect, ExplorerComm};

/// Tags at or above this value are reserved for CheckedComm's internal
/// gate exchange. This sits near the top of the collective tag space;
/// collision with `COLLECTIVE_TAG_BASE + 8*seq` would need ~2^28 collective
/// calls in one job, far beyond anything the thread runtime executes.
pub const VERIFY_TAG_BASE: u32 = 0xF000_0000;
