//! # spio-comm
//!
//! A message-passing runtime providing the MPI subset the paper's I/O system
//! uses: non-blocking point-to-point sends/receives matched by `(source,
//! tag)`, barriers, and the collectives (`allgather`, `all-to-all`,
//! `gather`, `broadcast`) used for metadata exchange (§3.3), spatial
//! metadata collection (§3.5) and adaptive-grid construction (§6).
//!
//! The production implementation, [`ThreadComm`], backs each rank with an OS
//! thread and delivers messages through shared mailboxes. This substitutes
//! for MPI on a single node: the algorithm code in `spio-core` is written
//! against the [`Comm`] trait and never learns the difference. Large-scale
//! *timing* is handled separately by the `hpcsim` crate, which replays the
//! communication plans produced by `spio-core` against machine models.
//!
//! For observability, [`TracedComm`] wraps any [`Comm`] and records every
//! point-to-point message into a shared [`spio_trace::Trace`], building the
//! per-`(src, dst, tag)` communication matrix that `spio report` renders.

pub mod collectives;
pub mod mailbox;
pub mod runtime;
pub mod thread_comm;
pub mod traced;

pub use collectives::{allreduce_u64, exclusive_scan_u64, tree_reduce_u64};
pub use runtime::{run_threaded, run_threaded_collect};
pub use thread_comm::ThreadComm;
pub use traced::TracedComm;

use spio_types::{Rank, SpioError};
use std::time::Duration;

/// Message tag. User code may use any value below [`COLLECTIVE_TAG_BASE`];
/// the collective implementations reserve the upper tag space.
pub type Tag = u32;

/// Tags at or above this value are reserved for internal collectives.
pub const COLLECTIVE_TAG_BASE: Tag = 0x8000_0000;

/// Completion handle for a non-blocking send.
///
/// The thread-backed implementation buffers eagerly, so sends complete
/// immediately; the handle exists so algorithm code keeps the MPI structure
/// (post all sends, post all receives, then wait) that a real MPI port would
/// need. Wrappers ([`TracedComm`], `spio-verify`'s `CheckedComm`) attach a
/// completion observer via [`SendHandle::from_fn`].
#[must_use = "a send is only guaranteed complete after wait()"]
pub struct SendHandle {
    on_wait: Option<Box<dyn FnOnce() + Send>>,
}

impl SendHandle {
    pub(crate) fn completed() -> Self {
        SendHandle { on_wait: None }
    }

    /// A handle that runs `f` when waited. Wrapper communicators use this
    /// to observe completion (and, at finalize, to report handles that were
    /// never waited).
    pub fn from_fn(f: impl FnOnce() + Send + 'static) -> Self {
        SendHandle {
            on_wait: Some(Box::new(f)),
        }
    }

    /// Block until the send buffer may be reused. (Immediate for
    /// [`ThreadComm`].)
    pub fn wait(mut self) {
        if let Some(f) = self.on_wait.take() {
            f();
        }
    }
}

/// Completion handle for a non-blocking receive posted with [`Comm::irecv`].
pub struct RecvHandle {
    wait_fn: RecvWaitFn,
}

/// Boxed completion closure for [`RecvHandle`]: blocks, then yields the
/// received payload (or the timeout/teardown error).
type RecvWaitFn = Box<dyn FnOnce() -> Result<Vec<u8>, SpioError> + Send>;

impl RecvHandle {
    /// A handle whose [`RecvHandle::wait`] runs `f`.
    pub fn from_fn(f: impl FnOnce() -> Result<Vec<u8>, SpioError> + Send + 'static) -> Self {
        RecvHandle {
            wait_fn: Box::new(f),
        }
    }

    /// Block until the matching message arrives and return its payload.
    ///
    /// Returns [`SpioError::Comm`] if the receive times out (deadlocked
    /// communication schedule) instead of panicking, so callers can unwind
    /// their collective participation cleanly.
    pub fn wait(self) -> Result<Vec<u8>, SpioError> {
        (self.wait_fn)()
    }
}

/// The MPI subset used by the spatially-aware I/O algorithms.
///
/// Matching follows MPI semantics: a receive posted for `(src, tag)` matches
/// sends from `src` with tag `tag` in program order. All collectives are
/// over the full communicator and must be entered by every rank in the same
/// order.
pub trait Comm {
    /// This process's rank in `0..size()`.
    fn rank(&self) -> Rank;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Non-blocking tagged send of `data` to `dest`.
    fn isend(&self, dest: Rank, tag: Tag, data: Vec<u8>) -> SendHandle;

    /// Non-blocking tagged receive from `src`.
    fn irecv(&self, src: Rank, tag: Tag) -> RecvHandle;

    /// Blocking send (convenience over [`Comm::isend`]).
    fn send(&self, dest: Rank, tag: Tag, data: Vec<u8>) {
        self.isend(dest, tag, data).wait();
    }

    /// Blocking receive (convenience over [`Comm::irecv`]).
    fn recv(&self, src: Rank, tag: Tag) -> Result<Vec<u8>, SpioError> {
        self.irecv(src, tag).wait()
    }

    /// Synchronize all ranks.
    fn barrier(&self);

    /// Every rank contributes `data`; every rank receives all contributions
    /// indexed by rank (MPI_Allgatherv with byte payloads).
    fn allgather(&self, data: &[u8]) -> Vec<Vec<u8>>;

    /// Variable-size all-to-all: `sends[d]` goes to rank `d`; returns the
    /// messages received, indexed by source (MPI_Alltoallv).
    fn alltoall(&self, sends: Vec<Vec<u8>>) -> Vec<Vec<u8>>;

    /// Gather all contributions onto `root`; returns `Some(contributions)`
    /// on the root and `None` elsewhere.
    fn gather_to(&self, root: Rank, data: &[u8]) -> Option<Vec<Vec<u8>>>;

    /// Broadcast `data` (significant only on `root`) to all ranks.
    fn broadcast(&self, root: Rank, data: Vec<u8>) -> Vec<u8>;

    /// Blocking receive that gives up after `timeout` with
    /// [`SpioError::Comm`]. Backends without fine-grained timers may ignore
    /// `timeout` and use their default stall detection.
    fn recv_timeout(&self, src: Rank, tag: Tag, timeout: Duration) -> Result<Vec<u8>, SpioError> {
        let _ = timeout;
        self.recv(src, tag)
    }

    /// Messages delivered to this rank's mailbox but never received, as
    /// `(src, tag, byte_len)` triples. Used by leak detection at finalize;
    /// backends without introspection report nothing.
    fn unconsumed(&self) -> Vec<(Rank, Tag, usize)> {
        Vec::new()
    }
}

/// Communicators the generic collective algorithms in [`collectives`] can
/// run over.
///
/// The algorithms derive their internal message tags from
/// [`CollectiveComm::next_collective_tag`], which must return a fresh block
/// of 8 tags at or above [`COLLECTIVE_TAG_BASE`] and advance identically on
/// every rank — guaranteed when all ranks enter collectives in the same
/// order, which is exactly the invariant `spio-verify`'s `CheckedComm`
/// cross-checks at runtime.
pub trait CollectiveComm: Comm {
    /// Reserve and return the base tag for the next collective's internal
    /// messages (the collective may use `tag..tag + 8`).
    fn next_collective_tag(&self) -> Tag;
}
