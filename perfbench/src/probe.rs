//! Tracing owned by the benchmark: an in-memory span recorder and wrappers
//! around the public `Storage` and `Comm` traits that record a span per call.
//!
//! Spans are taken only around calls into the library's public API; nothing
//! inside the library is instrumented. The untraced runs use the library's
//! own `MemStorage` and `ThreadComm` directly, so none of this code sits on
//! the measured path of an end-to-end number.

use spio_comm::{Comm, RecvHandle, SendHandle, Tag};
use spio_core::Storage;
use spio_format::META_FILE_NAME;
use spio_types::{Rank, SpioError};
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Span names. One per layer boundary the benchmark can see.
pub mod names {
    pub const OP: &str = "op";
    pub const STORAGE_WRITE: &str = "storage.write";
    pub const STORAGE_WRITE_META: &str = "storage.write_meta";
    pub const STORAGE_READ_FILE: &str = "storage.read_file";
    pub const STORAGE_READ_RANGE: &str = "storage.read_range";
    pub const COMM_SEND: &str = "comm.send";
    pub const COMM_WAIT: &str = "comm.wait";
    pub const COMM_COLLECTIVE: &str = "comm.collective";
    pub const WRITER_SETUP: &str = "writer.setup";
    pub const WRITER_AGGREGATION: &str = "writer.aggregation";
    pub const WRITER_SHUFFLE: &str = "writer.shuffle";
    pub const WRITER_FILE_IO: &str = "writer.file_io";
    pub const WRITER_META: &str = "writer.meta";
}

/// One recorded interval. Spans of one op share `op`; `parent` is the `id`
/// of the op span that caused it. Calls made on library-owned threads (the
/// serve worker pool) carry no op, lane or parent: the benchmark cannot see
/// which query a pool job belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub op: Option<u64>,
    pub parent: Option<u64>,
    /// Rank (write-agg) or client (read-box, serve-mixed) that ran the op.
    pub lane: Option<u32>,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub bytes: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

#[derive(Clone, Copy)]
struct OpContext {
    op: u64,
    span: u64,
    lane: u32,
}

thread_local! {
    static CONTEXT: Cell<Option<OpContext>> = const { Cell::new(None) };
}

/// The span store of one traced run. Spans stay in memory until the run
/// ends and [`Probe::take`] hands them to the writer.
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: std::sync::atomic::AtomicU64,
}

impl Probe {
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: std::sync::atomic::AtomicU64::new(0),
        })
    }

    fn fresh_id(&self) -> u64 {
        // A plain counter: it publishes no other data.
        self.next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Run `f` as op `op` on `lane`: spans recorded on this thread while it
    /// runs become children of the op span. Returns `f`'s value and the
    /// op's start and end.
    pub fn op<T>(&self, op: u64, lane: u32, f: impl FnOnce() -> T) -> (T, Instant, Instant) {
        let id = self.fresh_id();
        CONTEXT.with(|c| c.set(Some(OpContext { op, span: id, lane })));
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        CONTEXT.with(|c| c.set(None));
        self.push(Span {
            id,
            op: Some(op),
            parent: None,
            lane: Some(lane),
            name: names::OP,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            bytes: 0,
        });
        (value, start, end)
    }

    /// Record a span under the op running on this thread, if any.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, bytes: u64) {
        let ctx = CONTEXT.with(|c| c.get());
        self.push(Span {
            id: self.fresh_id(),
            op: ctx.map(|c| c.op),
            parent: ctx.map(|c| c.span),
            lane: ctx.map(|c| c.lane),
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            bytes,
        });
    }

    /// Time `f` and record it as `name`; `bytes` sizes the span from the
    /// result.
    pub fn timed<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> T,
        bytes: impl Fn(&T) -> u64,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.record(name, start, Instant::now(), bytes(&value));
        value
    }

    /// Drop everything recorded so far (the set-up's spans).
    pub fn clear(&self) {
        self.spans.lock().expect("span store poisoned").clear();
    }

    /// Hand over every span recorded since the last clear, in id order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span store poisoned"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Time `f` as op `op`: under the probe when tracing, bare otherwise.
pub fn time_op<T>(
    probe: Option<&Probe>,
    op: u64,
    lane: u32,
    f: impl FnOnce() -> T,
) -> (T, Instant, Instant) {
    match probe {
        Some(p) => p.op(op, lane, f),
        None => {
            let start = Instant::now();
            let value = f();
            (value, start, Instant::now())
        }
    }
}

/// A `Storage` that records one span per data call of the wrapped backend.
#[derive(Clone)]
pub struct ProbedStorage<S> {
    inner: S,
    probe: Arc<Probe>,
}

impl<S> ProbedStorage<S> {
    pub fn new(inner: S, probe: Arc<Probe>) -> Self {
        ProbedStorage { inner, probe }
    }
}

fn len_of(r: &Result<Vec<u8>, SpioError>) -> u64 {
    r.as_ref().map_or(0, |v| v.len() as u64)
}

impl<S: Storage> Storage for ProbedStorage<S> {
    fn write_file(&self, name: &str, data: &[u8]) -> Result<(), SpioError> {
        let span = if name == META_FILE_NAME {
            names::STORAGE_WRITE_META
        } else {
            names::STORAGE_WRITE
        };
        let n = data.len() as u64;
        self.probe
            .timed(span, || self.inner.write_file(name, data), |_| n)
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>, SpioError> {
        self.probe.timed(
            names::STORAGE_READ_FILE,
            || self.inner.read_file(name),
            len_of,
        )
    }

    fn read_range(&self, name: &str, start: u64, end: u64) -> Result<Vec<u8>, SpioError> {
        self.probe.timed(
            names::STORAGE_READ_RANGE,
            || self.inner.read_range(name, start, end),
            len_of,
        )
    }

    fn file_size(&self, name: &str) -> Result<u64, SpioError> {
        self.inner.file_size(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn write_range(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), SpioError> {
        let n = data.len() as u64;
        self.probe.timed(
            names::STORAGE_WRITE,
            || self.inner.write_range(name, offset, data),
            |_| n,
        )
    }
}

/// A `Comm` that records a zero-length span per point-to-point send (with
/// its bytes) and a span for every interval the rank is blocked: waiting on
/// a receive, or inside a collective.
pub struct ProbedComm<C> {
    inner: C,
    probe: Arc<Probe>,
}

impl<C> ProbedComm<C> {
    pub fn new(inner: C, probe: Arc<Probe>) -> Self {
        ProbedComm { inner, probe }
    }
}

impl<C: Comm> Comm for ProbedComm<C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn isend(&self, dest: Rank, tag: Tag, data: Vec<u8>) -> SendHandle {
        let now = Instant::now();
        self.probe
            .record(names::COMM_SEND, now, now, data.len() as u64);
        self.inner.isend(dest, tag, data)
    }

    fn irecv(&self, src: Rank, tag: Tag) -> RecvHandle {
        let handle = self.inner.irecv(src, tag);
        let probe = Arc::clone(&self.probe);
        // The wait runs on the rank's own thread, so the span lands under
        // the op that thread is running. Dropping this handle unwaited drops
        // the inner one, which runs the inner cleanup.
        RecvHandle::from_fn(move || probe.timed(names::COMM_WAIT, || handle.wait(), len_of))
    }

    fn barrier(&self) {
        self.probe
            .timed(names::COMM_COLLECTIVE, || self.inner.barrier(), |_| 0)
    }

    fn allgather(&self, data: &[u8]) -> Vec<Vec<u8>> {
        self.probe
            .timed(names::COMM_COLLECTIVE, || self.inner.allgather(data), |_| 0)
    }

    fn alltoall(&self, sends: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        self.probe
            .timed(names::COMM_COLLECTIVE, || self.inner.alltoall(sends), |_| 0)
    }

    fn gather_to(&self, root: Rank, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        self.probe.timed(
            names::COMM_COLLECTIVE,
            || self.inner.gather_to(root, data),
            |_| 0,
        )
    }

    fn broadcast(&self, root: Rank, data: Vec<u8>) -> Vec<u8> {
        self.probe.timed(
            names::COMM_COLLECTIVE,
            || self.inner.broadcast(root, data),
            |_| 0,
        )
    }

    fn recv_timeout(&self, src: Rank, tag: Tag, timeout: Duration) -> Result<Vec<u8>, SpioError> {
        self.probe.timed(
            names::COMM_WAIT,
            || self.inner.recv_timeout(src, tag, timeout),
            len_of,
        )
    }

    fn unconsumed(&self) -> Vec<(Rank, Tag, usize)> {
        self.inner.unconsumed()
    }
}
