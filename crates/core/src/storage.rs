//! Storage backends.
//!
//! The writer and readers are generic over [`Storage`] so the same algorithm
//! code runs against a real filesystem ([`FsStorage`]) and an in-memory
//! store ([`MemStorage`]) used by tests and by the property suite, while the
//! `hpcsim` crate models storage timing separately from these functional
//! backends. [`TracedStorage`] wraps any backend and emits Darshan-style
//! per-operation records (op, file, bytes, duration) into a
//! [`spio_trace::Trace`].

use spio_trace::Trace;
use spio_types::SpioError;
use spio_util::{read_unpoisoned, write_unpoisoned};
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Reject an inverted byte range before any arithmetic on it. In release
/// builds `(end - start)` would wrap to a near-`u64::MAX` allocation; a
/// corrupted header that yields an inverted range must surface as a format
/// error instead.
fn check_range(name: &str, start: u64, end: u64) -> Result<(), SpioError> {
    if start > end {
        return Err(SpioError::Format(format!(
            "inverted range [{start}, {end}) for '{name}'"
        )));
    }
    Ok(())
}

/// A flat namespace of immutable files, written once and read many times —
/// all the paper's format needs.
pub trait Storage: Send + Sync {
    /// Create (or replace) `name` with `data`.
    fn write_file(&self, name: &str, data: &[u8]) -> Result<(), SpioError>;

    /// Read the entire contents of `name`.
    fn read_file(&self, name: &str) -> Result<Vec<u8>, SpioError>;

    /// Read bytes `[start, end)` of `name`. Reading past the end of the
    /// file is an error (callers compute ranges from headers they trust).
    fn read_range(&self, name: &str, start: u64, end: u64) -> Result<Vec<u8>, SpioError>;

    /// Size of `name` in bytes.
    fn file_size(&self, name: &str) -> Result<u64, SpioError>;

    /// Does `name` exist?
    fn exists(&self, name: &str) -> bool;

    /// Write `data` at byte `offset`, creating or growing the file as
    /// needed (gaps are zero-filled). Concurrent writers to disjoint
    /// ranges of the same file are allowed — this is what shared-file
    /// (collective) baselines use.
    fn write_range(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), SpioError>;
}

/// Filesystem-backed storage rooted at a directory.
#[derive(Debug, Clone)]
pub struct FsStorage {
    root: PathBuf,
}

impl FsStorage {
    /// Open (creating if needed) a dataset directory.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        // Creation is idempotent; failures surface on first write.
        let _ = fs::create_dir_all(&root);
        FsStorage { root }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// The dataset directory.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }
}

/// Distinguishes temp files of concurrent writers within one process; the
/// pid in the temp name distinguishes processes.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Storage for FsStorage {
    fn write_file(&self, name: &str, data: &[u8]) -> Result<(), SpioError> {
        // Write-then-rename so a crash or injected fault mid-write never
        // leaves a truncated file under the final name (a torn
        // `spatial_meta.spm` would permanently block `DatasetReader::open`).
        // The temp file lives in the same directory so the rename cannot
        // cross filesystems.
        let tmp_name = format!(
            ".{name}.{}.{}.tmp",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let tmp = self.path(&tmp_name);
        fs::write(&tmp, data)?;
        fs::rename(&tmp, self.path(name)).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })?;
        Ok(())
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>, SpioError> {
        fs::read(self.path(name)).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => SpioError::NotFound(name.to_string()),
            _ => SpioError::Io(e),
        })
    }

    fn read_range(&self, name: &str, start: u64, end: u64) -> Result<Vec<u8>, SpioError> {
        check_range(name, start, end)?;
        let mut f = fs::File::open(self.path(name)).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => SpioError::NotFound(name.to_string()),
            _ => SpioError::Io(e),
        })?;
        f.seek(SeekFrom::Start(start))?;
        let len = (end - start) as usize;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf).map_err(|e| {
            SpioError::Format(format!(
                "range [{start}, {end}) of '{name}' unreadable: {e}"
            ))
        })?;
        Ok(buf)
    }

    fn file_size(&self, name: &str) -> Result<u64, SpioError> {
        Ok(fs::metadata(self.path(name))
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::NotFound => SpioError::NotFound(name.to_string()),
                _ => SpioError::Io(e),
            })?
            .len())
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).exists()
    }

    fn write_range(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), SpioError> {
        use std::io::Write;
        let mut f = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.path(name))?;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(data)?;
        Ok(())
    }
}

/// In-memory storage, shareable across rank threads.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    files: Arc<RwLock<HashMap<String, Arc<Vec<u8>>>>>,
}

impl MemStorage {
    pub fn new() -> Self {
        Self::default()
    }

    /// Names of all stored files (sorted, for deterministic assertions).
    pub fn file_names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_unpoisoned(&self.files).keys().cloned().collect();
        names.sort();
        names
    }

    /// Total bytes across all files.
    pub fn total_bytes(&self) -> u64 {
        read_unpoisoned(&self.files)
            .values()
            .map(|v| v.len() as u64)
            .sum()
    }
}

impl Storage for MemStorage {
    fn write_file(&self, name: &str, data: &[u8]) -> Result<(), SpioError> {
        write_unpoisoned(&self.files).insert(name.to_string(), Arc::new(data.to_vec()));
        Ok(())
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>, SpioError> {
        read_unpoisoned(&self.files)
            .get(name)
            .map(|v| v.as_ref().clone())
            .ok_or_else(|| SpioError::NotFound(name.to_string()))
    }

    fn read_range(&self, name: &str, start: u64, end: u64) -> Result<Vec<u8>, SpioError> {
        check_range(name, start, end)?;
        let files = read_unpoisoned(&self.files);
        let data = files
            .get(name)
            .ok_or_else(|| SpioError::NotFound(name.to_string()))?;
        if end > data.len() as u64 {
            return Err(SpioError::Format(format!(
                "range [{start}, {end}) beyond '{name}' ({} bytes)",
                data.len()
            )));
        }
        Ok(data[start as usize..end as usize].to_vec())
    }

    fn file_size(&self, name: &str) -> Result<u64, SpioError> {
        read_unpoisoned(&self.files)
            .get(name)
            .map(|v| v.len() as u64)
            .ok_or_else(|| SpioError::NotFound(name.to_string()))
    }

    fn exists(&self, name: &str) -> bool {
        read_unpoisoned(&self.files).contains_key(name)
    }

    fn write_range(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), SpioError> {
        let mut files = write_unpoisoned(&self.files);
        let entry = files.entry(name.to_string()).or_default();
        let buf = Arc::make_mut(entry);
        let end = offset as usize + data.len();
        if buf.len() < end {
            buf.resize(end, 0);
        }
        buf[offset as usize..end].copy_from_slice(data);
        Ok(())
    }
}

/// Trace fault kind for an organic (non-injected) storage error.
pub(crate) fn error_kind(err: &SpioError) -> &'static str {
    match err {
        SpioError::Io(_) => "io_error",
        SpioError::NotFound(_) => "not_found",
        SpioError::Format(_) => "format_error",
        SpioError::Config(_) => "config_error",
        SpioError::Comm(_) => "comm_error",
    }
}

/// Metric handles for one storage-op kind, resolved once at wrapper
/// construction so the per-op cost is atomic adds only.
#[derive(Debug, Clone, Default)]
struct OpMetrics {
    ops: spio_trace::Counter,
    bytes: spio_trace::Counter,
    errors: spio_trace::Counter,
    latency_us: spio_trace::Histogram,
}

impl OpMetrics {
    fn new(
        m: &spio_trace::Metrics,
        names: (&'static str, &'static str, &'static str, &'static str),
    ) -> OpMetrics {
        OpMetrics {
            ops: m.counter(names.0),
            bytes: m.counter(names.1),
            errors: m.counter(names.2),
            latency_us: m.histogram(names.3),
        }
    }

    #[inline]
    fn record(&self, bytes: u64, dur: std::time::Duration, ok: bool) {
        self.ops.inc();
        self.bytes.add(bytes);
        self.latency_us.record_duration(dur);
        if !ok {
            self.errors.inc();
        }
    }
}

/// A [`Storage`] wrapper that emits one Darshan-style record per operation
/// (op kind, file name, payload bytes, wall duration) into a [`Trace`],
/// feeds the trace's metrics registry (`storage.<op>.{ops,bytes,errors,
/// latency_us}`), and records every error as an organic fault event.
///
/// With a disabled trace every method is a plain delegation behind one
/// branch — no clock reads, no allocation — so production code can keep a
/// `TracedStorage` in place permanently and pay only when a job opts in.
#[derive(Debug, Clone)]
pub struct TracedStorage<S: Storage> {
    inner: S,
    trace: Trace,
    rank: usize,
    write_file: OpMetrics,
    read_file: OpMetrics,
    read_range: OpMetrics,
    file_size: OpMetrics,
    write_range: OpMetrics,
}

impl<S: Storage> TracedStorage<S> {
    /// Wrap `inner`, attributing recorded ops to `rank`.
    pub fn new(inner: S, trace: Trace, rank: usize) -> Self {
        let m = trace.metrics();
        TracedStorage {
            inner,
            rank,
            write_file: OpMetrics::new(
                &m,
                (
                    "storage.write_file.ops",
                    "storage.write_file.bytes",
                    "storage.write_file.errors",
                    "storage.write_file.latency_us",
                ),
            ),
            read_file: OpMetrics::new(
                &m,
                (
                    "storage.read_file.ops",
                    "storage.read_file.bytes",
                    "storage.read_file.errors",
                    "storage.read_file.latency_us",
                ),
            ),
            read_range: OpMetrics::new(
                &m,
                (
                    "storage.read_range.ops",
                    "storage.read_range.bytes",
                    "storage.read_range.errors",
                    "storage.read_range.latency_us",
                ),
            ),
            file_size: OpMetrics::new(
                &m,
                (
                    "storage.file_size.ops",
                    "storage.file_size.bytes",
                    "storage.file_size.errors",
                    "storage.file_size.latency_us",
                ),
            ),
            write_range: OpMetrics::new(
                &m,
                (
                    "storage.write_range.ops",
                    "storage.write_range.bytes",
                    "storage.write_range.errors",
                    "storage.write_range.latency_us",
                ),
            ),
            trace,
        }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    pub fn into_inner(self) -> S {
        self.inner
    }

    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Record the per-op trace event, metrics, and — on error — an organic
    /// fault event.
    #[inline]
    fn record<T>(
        &self,
        op: &'static str,
        metrics: &OpMetrics,
        name: &str,
        bytes: u64,
        dur: std::time::Duration,
        result: &Result<T, SpioError>,
    ) {
        self.trace.storage_op(self.rank, op, name, bytes, dur);
        metrics.record(bytes, dur, result.is_ok());
        if let Err(e) = result {
            self.trace.fault(self.rank, error_kind(e), name, false);
        }
    }
}

impl<S: Storage> Storage for TracedStorage<S> {
    fn write_file(&self, name: &str, data: &[u8]) -> Result<(), SpioError> {
        if !self.trace.is_enabled() {
            return self.inner.write_file(name, data);
        }
        let t0 = Instant::now();
        let r = self.inner.write_file(name, data);
        self.record(
            "write_file",
            &self.write_file,
            name,
            data.len() as u64,
            t0.elapsed(),
            &r,
        );
        r
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>, SpioError> {
        if !self.trace.is_enabled() {
            return self.inner.read_file(name);
        }
        let t0 = Instant::now();
        let r = self.inner.read_file(name);
        let bytes = r.as_ref().map(|d| d.len() as u64).unwrap_or(0);
        self.record("read_file", &self.read_file, name, bytes, t0.elapsed(), &r);
        r
    }

    fn read_range(&self, name: &str, start: u64, end: u64) -> Result<Vec<u8>, SpioError> {
        if !self.trace.is_enabled() {
            return self.inner.read_range(name, start, end);
        }
        let t0 = Instant::now();
        let r = self.inner.read_range(name, start, end);
        let bytes = r.as_ref().map(|d| d.len() as u64).unwrap_or(0);
        self.record(
            "read_range",
            &self.read_range,
            name,
            bytes,
            t0.elapsed(),
            &r,
        );
        r
    }

    fn file_size(&self, name: &str) -> Result<u64, SpioError> {
        if !self.trace.is_enabled() {
            return self.inner.file_size(name);
        }
        let t0 = Instant::now();
        let r = self.inner.file_size(name);
        self.record("file_size", &self.file_size, name, 0, t0.elapsed(), &r);
        r
    }

    fn exists(&self, name: &str) -> bool {
        // Existence probes are metadata noise; not recorded.
        self.inner.exists(name)
    }

    fn write_range(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), SpioError> {
        if !self.trace.is_enabled() {
            return self.inner.write_range(name, offset, data);
        }
        let t0 = Instant::now();
        let r = self.inner.write_range(name, offset, data);
        self.record(
            "write_range",
            &self.write_range,
            name,
            data.len() as u64,
            t0.elapsed(),
            &r,
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(storage: &dyn Storage) {
        storage.write_file("a.bin", &[1, 2, 3, 4, 5]).unwrap();
        assert!(storage.exists("a.bin"));
        assert!(!storage.exists("b.bin"));
        assert_eq!(storage.read_file("a.bin").unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(storage.file_size("a.bin").unwrap(), 5);
        assert_eq!(storage.read_range("a.bin", 1, 4).unwrap(), vec![2, 3, 4]);
        assert_eq!(storage.read_range("a.bin", 2, 2).unwrap(), Vec::<u8>::new());
        assert!(storage.read_range("a.bin", 3, 10).is_err());
        // Inverted ranges are a format error, never a wrapped subtraction.
        assert!(matches!(
            storage.read_range("a.bin", 4, 1),
            Err(SpioError::Format(_))
        ));
        assert!(matches!(
            storage.read_file("missing"),
            Err(SpioError::NotFound(_))
        ));
        // Overwrite replaces content.
        storage.write_file("a.bin", &[9]).unwrap();
        assert_eq!(storage.read_file("a.bin").unwrap(), vec![9]);
        // Ranged writes create, grow and zero-fill.
        storage.write_range("r.bin", 4, &[7, 8]).unwrap();
        assert_eq!(storage.read_file("r.bin").unwrap(), vec![0, 0, 0, 0, 7, 8]);
        storage.write_range("r.bin", 0, &[1]).unwrap();
        assert_eq!(storage.read_file("r.bin").unwrap(), vec![1, 0, 0, 0, 7, 8]);
    }

    #[test]
    fn mem_storage_contract() {
        exercise(&MemStorage::new());
    }

    #[test]
    fn fs_storage_contract() {
        let dir = spio_util::tempdir().unwrap();
        exercise(&FsStorage::new(dir.path()));
    }

    #[test]
    fn traced_storage_contract_and_records() {
        let trace = Trace::collecting();
        let storage = TracedStorage::new(MemStorage::new(), trace.clone(), 3);
        exercise(&storage);
        let events = trace.events();
        assert!(!events.is_empty());
        // Every record carries the configured rank and a known op name;
        // failing ops additionally produce organic fault events.
        let mut faults = 0;
        for e in &events {
            match e {
                spio_trace::TraceEvent::StorageOp { rank, op, .. } => {
                    assert_eq!(*rank, 3);
                    assert!(matches!(
                        *op,
                        "write_file" | "read_file" | "read_range" | "file_size" | "write_range"
                    ));
                }
                spio_trace::TraceEvent::Fault {
                    rank,
                    kind,
                    injected,
                    ..
                } => {
                    assert_eq!(*rank, 3);
                    assert!(!injected, "traced errors are organic, not injected");
                    assert!(matches!(*kind, "not_found" | "format_error" | "io_error"));
                    faults += 1;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        // exercise() provokes three errors: an over-long range, an
        // inverted range, and a missing file.
        assert_eq!(faults, 3);
        // The first exercise step wrote 5 bytes to a.bin.
        assert!(matches!(
            &events[0],
            spio_trace::TraceEvent::StorageOp {
                op: "write_file",
                bytes: 5,
                ..
            }
        ));
        // The metrics registry saw the same traffic.
        let m = trace.metrics();
        assert!(m.counter_value("storage.write_file.ops") >= 2);
        assert_eq!(m.counter_value("storage.read_file.errors"), 1);
        assert_eq!(m.counter_value("storage.read_range.errors"), 2);
        assert!(m
            .histogram_snapshot("storage.write_file.latency_us")
            .is_some());
    }

    #[test]
    fn traced_storage_disabled_records_nothing() {
        let trace = Trace::off();
        let storage = TracedStorage::new(MemStorage::new(), trace.clone(), 0);
        exercise(&storage);
        assert!(trace.is_empty());
    }

    #[test]
    fn mem_storage_shared_between_clones() {
        let a = MemStorage::new();
        let b = a.clone();
        a.write_file("x", &[7]).unwrap();
        assert_eq!(b.read_file("x").unwrap(), vec![7]);
        assert_eq!(b.file_names(), vec!["x".to_string()]);
        assert_eq!(b.total_bytes(), 1);
    }

    #[test]
    fn fs_write_file_leaves_no_temp_files() {
        let dir = spio_util::tempdir().unwrap();
        let s = FsStorage::new(dir.path());
        s.write_file("meta.spm", &[1, 2, 3]).unwrap();
        s.write_file("meta.spm", &[4, 5, 6]).unwrap();
        let names: Vec<String> = fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, vec!["meta.spm".to_string()]);
        assert_eq!(s.read_file("meta.spm").unwrap(), vec![4, 5, 6]);
    }

    #[test]
    fn fs_storage_nested_root_created() {
        let dir = spio_util::tempdir().unwrap();
        let nested = dir.path().join("a/b/c");
        let s = FsStorage::new(&nested);
        s.write_file("f", &[1]).unwrap();
        assert!(nested.join("f").exists());
    }
}
