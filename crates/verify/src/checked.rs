//! [`CheckedComm`]: runtime verification of MPI semantics.
//!
//! The wrapper enforces three rule families:
//!
//! 1. **Collective agreement.** Before a collective runs, every rank
//!    exchanges a compact descriptor of the call it is about to make (op
//!    kind, root, payload arity) over a reserved tag space, using the same
//!    ring pattern as `ring_allgather`. Every rank therefore sees every
//!    other rank's descriptor and computes the *same* rank-level diff on
//!    mismatch — all ranks fail together with the identical diagnosis,
//!    instead of some ranks hanging inside a half-entered collective.
//! 2. **Leak freedom.** Every `SendHandle`/`RecvHandle` the wrapper hands
//!    out is registered until waited; [`CheckedComm::finalize`] reports
//!    still-registered handles and messages left in the rank's mailbox.
//! 3. **Stall diagnosis.** Blocking receives (including the gate exchange)
//!    publish what they are blocked on into a job-wide wait-for map. When a
//!    receive exceeds the stall timeout, the rank dumps the full graph —
//!    `rank a ← waiting on rank b (tag t, context)` for every blocked rank
//!    — so a deadlock reads as a diagnosis, not a dead terminal.
//!
//! Findings are recorded into the wrapper's [`Trace`] as
//! [`TraceEvent::Verify`](spio_trace::TraceEvent) events before the wrapper
//! panics (collective mismatch, stall) or returns an error (finalize
//! leaks), so even a failed job leaves an analyzable report behind.

use crate::VERIFY_TAG_BASE;
use spio_comm::{CollectiveComm, Comm, RecvHandle, SendHandle, Tag};
use spio_trace::Trace;
use spio_types::{Rank, SpioError};
use spio_util::lock_unpoisoned;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default stall timeout: long enough that a healthy oversubscribed test
/// run never trips it, short enough that a deadlocked CI job fails with a
/// wait-for graph well before the job-level timeout.
pub const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// The collective kinds CheckedComm gates. Descriptors carry the
/// discriminant, so every rank can name the op the others entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollOp {
    Barrier,
    Allgather,
    Alltoall,
    Gather,
    Broadcast,
    Finalize,
}

impl CollOp {
    fn id(self) -> u64 {
        match self {
            CollOp::Barrier => 0,
            CollOp::Allgather => 1,
            CollOp::Alltoall => 2,
            CollOp::Gather => 3,
            CollOp::Broadcast => 4,
            CollOp::Finalize => 5,
        }
    }

    fn from_id(id: u64) -> &'static str {
        match id {
            0 => "barrier",
            1 => "allgather",
            2 => "alltoall",
            3 => "gather",
            4 => "broadcast",
            5 => "finalize",
            _ => "unknown",
        }
    }
}

/// One rank's descriptor of the collective it is about to enter. `root`
/// and `arity` are `u64::MAX` when the op has none; `bytes` is
/// informational (payload sizes legitimately differ across ranks in the
/// `v`-variants) and never part of the mismatch decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CollDesc {
    op: u64,
    root: u64,
    arity: u64,
    bytes: u64,
}

const NONE: u64 = u64::MAX;

impl CollDesc {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        for v in [self.op, self.root, self.arity, self.bytes] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn decode(data: &[u8]) -> Option<CollDesc> {
        match spio_types::le::u64_words(data).ok()?[..] {
            [op, root, arity, bytes] => Some(CollDesc {
                op,
                root,
                arity,
                bytes,
            }),
            _ => None,
        }
    }

    /// The fields that must agree across ranks. Byte sizes are excluded:
    /// allgatherv/alltoallv-style calls legally contribute different sizes.
    fn agreement_key(&self) -> (u64, u64, u64) {
        (self.op, self.root, self.arity)
    }

    fn describe(&self) -> String {
        let mut s = format!("op={}", CollOp::from_id(self.op));
        if self.root != NONE {
            s.push_str(&format!(" root={}", self.root));
        }
        if self.arity != NONE {
            s.push_str(&format!(" arity={}", self.arity));
        }
        s.push_str(&format!(" bytes={}", self.bytes));
        s
    }
}

/// What a blocked rank is waiting on, published into the job-wide wait-for
/// map for the duration of the blocking call.
#[derive(Debug, Clone)]
struct WaitEdge {
    src: Rank,
    tag: Tag,
    context: &'static str,
}

/// Job-wide state shared by every rank's [`CheckedComm`]: the wait-for map
/// that stall diagnosis dumps. Create one per job with
/// [`CheckedShared::new`] and clone the `Arc` into each rank's wrapper
/// (see [`CheckedWorld`] for the ergonomic path).
pub struct CheckedShared {
    waiting: Mutex<HashMap<Rank, WaitEdge>>,
}

impl CheckedShared {
    pub fn new() -> Arc<CheckedShared> {
        Arc::new(CheckedShared {
            waiting: Mutex::new(HashMap::new()),
        })
    }

    fn enter_wait(&self, me: Rank, src: Rank, tag: Tag, context: &'static str) {
        lock_unpoisoned(&self.waiting).insert(me, WaitEdge { src, tag, context });
    }

    fn leave_wait(&self, me: Rank) {
        lock_unpoisoned(&self.waiting).remove(&me);
    }

    /// Render the wait-for graph: one line per blocked rank, sorted by
    /// rank so every reader sees the same text.
    fn wait_graph(&self) -> String {
        let waiting = lock_unpoisoned(&self.waiting);
        if waiting.is_empty() {
            return "  (no ranks currently blocked)".to_string();
        }
        let sorted: BTreeMap<Rank, &WaitEdge> = waiting.iter().map(|(k, v)| (*k, v)).collect();
        sorted
            .iter()
            .map(|(rank, e)| {
                format!(
                    "  rank {rank} <- waiting on rank {} (tag {:#x}, {})",
                    e.src, e.tag, e.context
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Builder for a checked job: one [`CheckedShared`] plus the trace and
/// timeout every rank's wrapper should use. `Clone + Send + Sync`, so a
/// single world value moves into the `run_threaded` closure and each rank
/// calls [`CheckedWorld::wrap`] on its own communicator.
#[derive(Clone)]
pub struct CheckedWorld {
    shared: Arc<CheckedShared>,
    trace: Trace,
    stall_timeout: Duration,
}

impl CheckedWorld {
    pub fn new(trace: Trace) -> CheckedWorld {
        CheckedWorld {
            shared: CheckedShared::new(),
            trace,
            stall_timeout: DEFAULT_STALL_TIMEOUT,
        }
    }

    /// Override the stall timeout (tests use short ones so deadlock
    /// fixtures fail in milliseconds, not seconds).
    pub fn with_stall_timeout(mut self, timeout: Duration) -> CheckedWorld {
        self.stall_timeout = timeout;
        self
    }

    /// Wrap one rank's communicator.
    pub fn wrap<C: CollectiveComm>(&self, inner: C) -> CheckedComm<C> {
        CheckedComm {
            inner,
            shared: Arc::clone(&self.shared),
            trace: self.trace.clone(),
            stall_timeout: self.stall_timeout,
            gate_seq: Cell::new(0),
            handle_seq: Cell::new(0),
            outstanding: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }
}

/// A [`Comm`] that runtime-verifies MPI semantics. See the module docs for
/// the rule families. Collectives delegate to the inner communicator's own
/// algorithms *after* the gate exchange proves every rank agrees on the
/// call.
pub struct CheckedComm<C: CollectiveComm> {
    inner: C,
    shared: Arc<CheckedShared>,
    trace: Trace,
    stall_timeout: Duration,
    /// Gate sequence number; advances identically on every rank because
    /// gates happen in collective-call order.
    gate_seq: Cell<u32>,
    handle_seq: Cell<u64>,
    /// Handles issued but not yet waited: id → description. Shared with
    /// the handle closures via `Arc<Mutex<..>>` (handles are `Send`).
    outstanding: Arc<Mutex<BTreeMap<u64, String>>>,
}

impl<C: CollectiveComm> CheckedComm<C> {
    pub fn inner(&self) -> &C {
        &self.inner
    }

    fn next_gate_tag(&self) -> Tag {
        let seq = self.gate_seq.get();
        self.gate_seq.set(seq.wrapping_add(1));
        VERIFY_TAG_BASE + (seq % 0x00ff_ffff)
    }

    fn register_handle(&self, description: String) -> u64 {
        let id = self.handle_seq.get();
        self.handle_seq.set(id + 1);
        lock_unpoisoned(&self.outstanding).insert(id, description);
        id
    }

    /// Record a finding and panic with the same text. The job runtime
    /// turns the panic into `SpioError::Comm("rank N panicked: ...")`, so
    /// the diagnosis survives into the job result.
    fn fail(&self, rule: &'static str, detail: String) -> ! {
        self.trace
            .verify_finding(self.inner.rank(), rule, detail.clone());
        panic!("[spio-verify {rule}] {detail}");
    }

    /// Blocking receive with wait-for bookkeeping and stall diagnosis.
    fn recv_diagnosed(
        &self,
        src: Rank,
        tag: Tag,
        context: &'static str,
    ) -> Result<Vec<u8>, SpioError> {
        let me = self.inner.rank();
        self.shared.enter_wait(me, src, tag, context);
        let got = self.inner.recv_timeout(src, tag, self.stall_timeout);
        match got {
            Ok(data) => {
                self.shared.leave_wait(me);
                Ok(data)
            }
            Err(e) => {
                // Leave our edge in place while rendering: the dump should
                // show this rank among the blocked.
                let graph = self.shared.wait_graph();
                self.shared.leave_wait(me);
                let detail = format!(
                    "rank {me} stalled receiving from rank {src} tag {tag:#x} ({context}): {e}\n\
                     wait-for graph at timeout:\n{graph}"
                );
                self.trace.verify_finding(me, "stall", detail.clone());
                Err(SpioError::Comm(detail))
            }
        }
    }

    /// The collective gate: ring-allgather every rank's descriptor over
    /// the reserved verify tags, then check agreement. Runs *before* the
    /// real collective, so a mismatched job fails symmetrically on all
    /// ranks with the same rank-level diff instead of deadlocking inside
    /// the op.
    fn gate(&self, desc: CollDesc) {
        let n = self.inner.size();
        if n == 1 {
            return;
        }
        let me = self.inner.rank();
        let tag = self.next_gate_tag();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        // Every slot but `me`'s is overwritten by the ring before use.
        let mut descs = vec![desc; n];
        for s in 0..n - 1 {
            let outgoing_origin = (me + n - s) % n;
            let block = descs[outgoing_origin].encode();
            self.inner.isend(right, tag, block).wait();
            let incoming_origin = (me + n - s - 1) % n;
            match self.recv_diagnosed(left, tag, "collective gate") {
                Ok(data) => match CollDesc::decode(&data) {
                    Some(d) => descs[incoming_origin] = d,
                    None => self.fail(
                        "gate-protocol",
                        format!(
                            "rank {me}: malformed gate descriptor from rank {incoming_origin} \
                             ({} bytes) — user traffic on reserved verify tags?",
                            data.len()
                        ),
                    ),
                },
                // recv_diagnosed already recorded the stall finding with
                // the wait-for graph; propagate it as the panic text.
                Err(e) => panic!("[spio-verify stall] rank {me}: collective gate stalled: {e}"),
            }
        }
        let key = descs[me].agreement_key();
        if descs.iter().any(|d| d.agreement_key() != key) {
            // Every rank holds the same descriptor vector, so every rank
            // renders the same diff and fails with the same text.
            let diff = descs
                .iter()
                .enumerate()
                .map(|(r, d)| format!("  rank {r}: {}", d.describe()))
                .collect::<Vec<_>>()
                .join("\n");
            self.fail(
                "collective-mismatch",
                format!(
                    "ranks disagree on collective #{}: \n{diff}",
                    self.gate_seq.get()
                ),
            );
        }
    }
}

impl<C: CollectiveComm> Comm for CheckedComm<C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn isend(&self, dest: Rank, tag: Tag, data: Vec<u8>) -> SendHandle {
        let me = self.inner.rank();
        let id = self.register_handle(format!(
            "send handle: rank {me} -> rank {dest} tag {tag:#x} ({} bytes)",
            data.len()
        ));
        let handle = self.inner.isend(dest, tag, data);
        let outstanding = Arc::clone(&self.outstanding);
        SendHandle::from_fn(move || {
            lock_unpoisoned(&outstanding).remove(&id);
            handle.wait();
        })
    }

    fn irecv(&self, src: Rank, tag: Tag) -> RecvHandle {
        let me = self.inner.rank();
        let id = self.register_handle(format!("recv handle: rank {me} <- rank {src} tag {tag:#x}"));
        let handle = self.inner.irecv(src, tag);
        let outstanding = Arc::clone(&self.outstanding);
        let shared = Arc::clone(&self.shared);
        RecvHandle::from_fn(move || {
            shared.enter_wait(me, src, tag, "posted receive");
            let got = handle.wait();
            shared.leave_wait(me);
            if got.is_ok() {
                lock_unpoisoned(&outstanding).remove(&id);
            }
            got
        })
        // The handle stays in `outstanding` when dropped unwaited — that
        // is exactly the leak finalize reports. The inner handle's own
        // drop hook releases the mailbox reservation.
    }

    fn recv(&self, src: Rank, tag: Tag) -> Result<Vec<u8>, SpioError> {
        self.recv_diagnosed(src, tag, "blocking receive")
    }

    fn recv_timeout(&self, src: Rank, tag: Tag, timeout: Duration) -> Result<Vec<u8>, SpioError> {
        let me = self.inner.rank();
        self.shared.enter_wait(me, src, tag, "blocking receive");
        let got = self.inner.recv_timeout(src, tag, timeout);
        self.shared.leave_wait(me);
        got
    }

    fn barrier(&self) {
        self.gate(CollDesc {
            op: CollOp::Barrier.id(),
            root: NONE,
            arity: NONE,
            bytes: 0,
        });
        self.inner.barrier();
    }

    fn allgather(&self, data: &[u8]) -> Vec<Vec<u8>> {
        self.gate(CollDesc {
            op: CollOp::Allgather.id(),
            root: NONE,
            arity: NONE,
            bytes: data.len() as u64,
        });
        self.inner.allgather(data)
    }

    fn alltoall(&self, sends: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        self.gate(CollDesc {
            op: CollOp::Alltoall.id(),
            root: NONE,
            arity: sends.len() as u64,
            bytes: sends.iter().map(|b| b.len() as u64).sum(),
        });
        self.inner.alltoall(sends)
    }

    fn gather_to(&self, root: Rank, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        self.gate(CollDesc {
            op: CollOp::Gather.id(),
            root: root as u64,
            arity: NONE,
            bytes: data.len() as u64,
        });
        self.inner.gather_to(root, data)
    }

    fn broadcast(&self, root: Rank, data: Vec<u8>) -> Vec<u8> {
        self.gate(CollDesc {
            op: CollOp::Broadcast.id(),
            root: root as u64,
            arity: NONE,
            bytes: data.len() as u64,
        });
        self.inner.broadcast(root, data)
    }

    fn unconsumed(&self) -> Vec<(Rank, Tag, usize)> {
        self.inner.unconsumed()
    }
}

impl<C: CollectiveComm> CollectiveComm for CheckedComm<C> {
    fn next_collective_tag(&self) -> Tag {
        self.inner.next_collective_tag()
    }
}

impl<C: CollectiveComm> CheckedComm<C> {
    /// End-of-job leak check: every handle issued must have been waited
    /// and the rank's mailbox must be empty. Findings are recorded into
    /// the trace and returned as one combined error. Consumes the wrapper
    /// — a finalized communicator is out of the game.
    pub fn finalize(self) -> Result<C, SpioError> {
        // Finalize is itself a collective (as in MPI): the gate both
        // cross-checks that every rank reached finalize with the same
        // collective count and, because gate completion requires every
        // rank to have entered it, acts as a barrier — any in-flight
        // peer send has landed in our mailbox before the leak check
        // below reads it. A dead peer surfaces as a gate stall with a
        // wait-for graph, not a silent hang.
        self.gate(CollDesc {
            op: CollOp::Finalize.id(),
            root: NONE,
            arity: NONE,
            bytes: 0,
        });
        let me = self.inner.rank();
        let mut problems = Vec::new();
        for (_, description) in lock_unpoisoned(&self.outstanding).iter() {
            let detail = format!("rank {me}: unwaited {description}");
            self.trace.verify_finding(me, "handle-leak", detail.clone());
            problems.push(detail);
        }
        for (src, tag, bytes) in self.inner.unconsumed() {
            let detail = format!(
                "rank {me}: message from rank {src} tag {tag:#x} ({bytes} bytes) \
                 never received"
            );
            self.trace
                .verify_finding(me, "message-leak", detail.clone());
            problems.push(detail);
        }
        if problems.is_empty() {
            Ok(self.inner)
        } else {
            Err(SpioError::Comm(format!(
                "verification failed at finalize: {}",
                problems.join("; ")
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spio_comm::{run_threaded_collect, ThreadComm};

    fn checked_world(
        nprocs: usize,
        trace: Trace,
        f: impl Fn(&CheckedComm<ThreadComm>) + Send + Sync + 'static,
    ) -> Result<Vec<Result<(), String>>, SpioError> {
        let world = CheckedWorld::new(trace).with_stall_timeout(Duration::from_millis(300));
        run_threaded_collect(nprocs, move |comm| {
            let checked = world.wrap(comm);
            f(&checked);
            checked.finalize().map(|_| ()).map_err(|e| e.to_string())
        })
    }

    #[test]
    fn matched_collectives_pass() {
        let results = checked_world(4, Trace::off(), |comm| {
            comm.barrier();
            let g = comm.allgather(&[comm.rank() as u8]);
            assert_eq!(g.len(), 4);
            let sends = vec![vec![comm.rank() as u8]; 4];
            comm.alltoall(sends);
            comm.gather_to(2, &[1]);
            comm.broadcast(1, vec![9]);
        })
        .unwrap();
        assert!(results.iter().all(Result::is_ok), "{results:?}");
    }

    #[test]
    fn root_disagreement_produces_rank_diff() {
        let trace = Trace::collecting();
        let err = checked_world(3, trace.clone(), |comm| {
            let root = if comm.rank() == 2 { 1 } else { 0 };
            comm.broadcast(root, vec![1]);
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("collective-mismatch"), "{msg}");
        assert!(msg.contains("rank 2: op=broadcast root=1"), "{msg}");
        assert!(msg.contains("rank 0: op=broadcast root=0"), "{msg}");
        let report = spio_trace::JobReport::from_snapshot(3, &trace.snapshot());
        assert!(report
            .verify
            .iter()
            .any(|v| v.rule == "collective-mismatch" && v.count >= 1));
    }

    #[test]
    fn op_disagreement_names_both_ops() {
        let err = checked_world(2, Trace::off(), |comm| {
            if comm.rank() == 0 {
                comm.barrier();
            } else {
                comm.allgather(&[1]);
            }
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("op=barrier"), "{msg}");
        assert!(msg.contains("op=allgather"), "{msg}");
    }

    #[test]
    fn skipped_barrier_is_a_mismatch_not_a_hang() {
        let trace = Trace::collecting();
        let err = checked_world(2, trace.clone(), |comm| {
            if comm.rank() == 0 {
                comm.barrier();
            }
            // rank 1 skips straight to finalize; because finalize is
            // itself gated, rank 0's barrier gate meets rank 1's
            // finalize gate and the divergence is diagnosed
            // deterministically — no stall timeout needed.
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("collective-mismatch"), "{msg}");
        assert!(msg.contains("rank 0: op=barrier"), "{msg}");
        assert!(msg.contains("rank 1: op=finalize"), "{msg}");
    }

    #[test]
    fn unwaited_handles_reported_at_finalize() {
        let trace = Trace::collecting();
        let err = checked_world(2, trace.clone(), |comm| {
            if comm.rank() == 0 {
                // Send handle never waited; posted recv dropped unwaited;
                // the matching message from rank 1 is never consumed.
                let send = comm.isend(1, 7, vec![1, 2, 3]);
                let recv = comm.irecv(1, 8);
                std::mem::forget(send); // deliberately leak the wait
                drop(recv);
            } else {
                comm.recv(0, 7).unwrap();
                comm.send(0, 8, vec![9]);
            }
        })
        .unwrap_err();
        // The job-level strict check flags the orphaned tag-8 message.
        assert!(err.to_string().contains("message leak"), "{err}");
        // CheckedComm's finalize recorded the rank-attributed findings.
        let report = spio_trace::JobReport::from_snapshot(2, &trace.snapshot());
        let count = |rule: &str| {
            report
                .verify
                .iter()
                .find(|v| v.rule == rule)
                .map_or(0, |v| v.count)
        };
        assert_eq!(count("handle-leak"), 2, "{:?}", report.verify);
        assert_eq!(count("message-leak"), 1, "{:?}", report.verify);
    }

    #[test]
    fn p2p_recv_without_send_stalls_diagnosed() {
        let err = checked_world(2, Trace::off(), |comm| {
            if comm.rank() == 0 {
                comm.recv(1, 42).unwrap();
            }
        });
        // rank 0 panics on unwrap of the stall error.
        let msg = err.unwrap_err().to_string();
        assert!(msg.contains("stalled receiving from rank 1"), "{msg}");
        assert!(msg.contains("wait-for graph"), "{msg}");
    }
}
