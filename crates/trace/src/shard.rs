//! Sharded event buffers, the file-name string table, and serializable
//! trace snapshots.
//!
//! The original `Trace` funneled every rank's records through one global
//! `Mutex<Vec<TraceEvent>>`, so enabling tracing serialized all ranks on a
//! single lock — the instrumentation perturbed exactly the contention it
//! was supposed to measure. The sharded buffer gives each recording rank
//! its own shard (selected by `rank % SHARD_COUNT`): the owning rank is the
//! only thread that ever pushes to its shard, so its mutex is uncontended
//! in steady state and recording scales with rank count. Shards are merged
//! only at snapshot time.
//!
//! File names are interned into a [`FileTable`]: the hot path stores a
//! small `u32` id per storage op instead of cloning a `String`, and the
//! table travels with the events inside a [`TraceSnapshot`].

use crate::TraceEvent;
use spio_util::{lock_unpoisoned, read_unpoisoned, write_unpoisoned};
use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, OnceLock, RwLock};

/// Number of event shards. Ranks map onto shards by `rank % SHARD_COUNT`,
/// so jobs up to this many rank-threads get a private shard each; larger
/// jobs share shards pairwise, which still bounds contention to
/// `nprocs / SHARD_COUNT` writers per lock.
pub const SHARD_COUNT: usize = 64;

/// The sharded event store.
pub(crate) struct EventShards {
    shards: Vec<Mutex<Vec<TraceEvent>>>,
}

impl EventShards {
    pub(crate) fn new() -> EventShards {
        EventShards {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Append one event to `owner`'s shard. `owner` is the rank doing the
    /// recording, which keeps each shard single-writer.
    #[inline]
    pub(crate) fn push(&self, owner: usize, ev: TraceEvent) {
        lock_unpoisoned(&self.shards[owner % SHARD_COUNT]).push(ev);
    }

    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_unpoisoned(s).len()).sum()
    }

    /// Merge all shards into one vec, leaving the shards intact.
    pub(crate) fn merged(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len());
        for s in &self.shards {
            out.extend(lock_unpoisoned(s).iter().cloned());
        }
        out
    }

    /// Merge all shards into one vec, draining them.
    pub(crate) fn drain(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.append(&mut lock_unpoisoned(s));
        }
        out
    }
}

/// Interned file names: `intern` maps a name to a dense `u32` id; the
/// names vector resolves ids back for reports and exports.
pub(crate) struct FileTable {
    inner: RwLock<FileTableInner>,
}

#[derive(Default)]
struct FileTableInner {
    map: HashMap<String, u32>,
    names: Vec<String>,
}

impl FileTable {
    pub(crate) fn new() -> FileTable {
        FileTable {
            inner: RwLock::new(FileTableInner::default()),
        }
    }

    /// Id for `name`, interning it on first sight. The common case (name
    /// already interned) takes a read lock and performs no allocation.
    pub(crate) fn intern(&self, name: &str) -> u32 {
        if let Some(&id) = read_unpoisoned(&self.inner).map.get(name) {
            return id;
        }
        let mut w = write_unpoisoned(&self.inner);
        if let Some(&id) = w.map.get(name) {
            return id;
        }
        let id = w.names.len() as u32;
        w.names.push(name.to_string());
        w.map.insert(name.to_string(), id);
        id
    }

    pub(crate) fn names(&self) -> Vec<String> {
        read_unpoisoned(&self.inner).names.clone()
    }
}

/// A merged view of everything a trace recorded: the event stream plus the
/// file-name table that resolves the `u32` file ids inside storage-op and
/// fault events. This is the unit the exporters and [`crate::JobReport`]
/// consume, and it serializes to JSON so a traced run can hand its raw
/// timeline to `spio trace` for Chrome-trace conversion.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    pub events: Vec<TraceEvent>,
    /// `files[id]` is the file name interned as `id`.
    pub files: Vec<String>,
}

impl TraceSnapshot {
    /// Resolve a file id to its name (`"file#<id>"` if unknown — only
    /// possible for hand-built snapshots).
    pub fn file_name(&self, id: u32) -> String {
        self.files
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| format!("file#{id}"))
    }

    /// Largest event end-timestamp, in microseconds since the job epoch.
    pub fn end_us(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Phase { start_us, dur, .. }
                | TraceEvent::StorageOp { start_us, dur, .. } => start_us + dur.as_micros() as u64,
                TraceEvent::Message { at_us, .. }
                | TraceEvent::Fault { at_us, .. }
                | TraceEvent::Verify { at_us, .. } => *at_us,
            })
            .max()
            .unwrap_or(0)
    }

    // ---- serialization ----

    /// Serialize to the `spio-trace-snapshot` JSON format: both string
    /// tables (file names and static phase/op/kind names) plus one compact
    /// object per event.
    pub fn to_json(&self) -> String {
        use spio_util::Json;
        let mut names: Vec<&str> = Vec::new();
        let mut name_ids: HashMap<&str, u64> = HashMap::new();
        let mut name_id = |s: &'static str| -> u64 {
            if let Some(&id) = name_ids.get(s) {
                return id;
            }
            let id = names.len() as u64;
            names.push(s);
            name_ids.insert(s, id);
            id
        };
        let events: Vec<Json> = self
            .events
            .iter()
            .map(|e| match *e {
                TraceEvent::Phase {
                    rank,
                    phase,
                    start_us,
                    dur,
                } => Json::Obj(vec![
                    ("t".into(), Json::str("phase")),
                    ("rank".into(), Json::u64(rank as u64)),
                    ("name".into(), Json::u64(name_id(phase))),
                    ("start_us".into(), Json::u64(start_us)),
                    ("dur_us".into(), Json::u64(dur.as_micros() as u64)),
                ]),
                TraceEvent::Message {
                    src,
                    dst,
                    tag,
                    bytes,
                    dir,
                    at_us,
                } => Json::Obj(vec![
                    ("t".into(), Json::str("msg")),
                    ("src".into(), Json::u64(src as u64)),
                    ("dst".into(), Json::u64(dst as u64)),
                    ("tag".into(), Json::u64(tag as u64)),
                    ("bytes".into(), Json::u64(bytes)),
                    (
                        "dir".into(),
                        Json::str(match dir {
                            crate::Dir::Sent => "sent",
                            crate::Dir::Received => "received",
                        }),
                    ),
                    ("at_us".into(), Json::u64(at_us)),
                ]),
                TraceEvent::StorageOp {
                    rank,
                    op,
                    file,
                    bytes,
                    start_us,
                    dur,
                } => Json::Obj(vec![
                    ("t".into(), Json::str("op")),
                    ("rank".into(), Json::u64(rank as u64)),
                    ("name".into(), Json::u64(name_id(op))),
                    ("file".into(), Json::u64(file as u64)),
                    ("bytes".into(), Json::u64(bytes)),
                    ("start_us".into(), Json::u64(start_us)),
                    ("dur_us".into(), Json::u64(dur.as_micros() as u64)),
                ]),
                TraceEvent::Fault {
                    rank,
                    kind,
                    file,
                    injected,
                    at_us,
                } => Json::Obj(vec![
                    ("t".into(), Json::str("fault")),
                    ("rank".into(), Json::u64(rank as u64)),
                    ("name".into(), Json::u64(name_id(kind))),
                    ("file".into(), Json::u64(file as u64)),
                    ("injected".into(), Json::Bool(injected)),
                    ("at_us".into(), Json::u64(at_us)),
                ]),
                TraceEvent::Verify {
                    rank,
                    rule,
                    ref detail,
                    at_us,
                } => Json::Obj(vec![
                    ("t".into(), Json::str("verify")),
                    ("rank".into(), Json::u64(rank as u64)),
                    ("name".into(), Json::u64(name_id(rule))),
                    ("detail".into(), Json::str(detail)),
                    ("at_us".into(), Json::u64(at_us)),
                ]),
            })
            .collect();
        Json::Obj(vec![
            ("format".into(), Json::str("spio-trace-snapshot")),
            ("version".into(), Json::u64(1)),
            (
                "files".into(),
                Json::Arr(self.files.iter().map(Json::str).collect()),
            ),
            (
                "names".into(),
                Json::Arr(names.into_iter().map(Json::str).collect()),
            ),
            ("events".into(), Json::Arr(events)),
        ])
        .to_string()
    }

    /// Parse a snapshot produced by [`TraceSnapshot::to_json`]. Static
    /// phase/op/kind names come back through a process-wide intern cache
    /// (the distinct-name set is small and bounded, so the leaked bytes
    /// are too).
    pub fn from_json(text: &str) -> Result<TraceSnapshot, String> {
        use spio_util::Json;
        let doc = Json::parse(text)?;
        if doc.get("format").and_then(Json::as_str) != Some("spio-trace-snapshot") {
            return Err("not a spio trace snapshot".into());
        }
        let files: Vec<String> = doc
            .get("files")
            .and_then(Json::as_arr)
            .ok_or("missing 'files' array")?
            .iter()
            .map(|j| j.as_str().map(str::to_string).ok_or("non-string file name"))
            .collect::<Result<_, _>>()?;
        let names: Vec<&'static str> = doc
            .get("names")
            .and_then(Json::as_arr)
            .ok_or("missing 'names' array")?
            .iter()
            .map(|j| j.as_str().map(intern_static).ok_or("non-string name"))
            .collect::<Result<_, _>>()?;
        let name_at = |j: &Json| -> Result<&'static str, String> {
            let id = j
                .get("name")
                .and_then(Json::as_u64)
                .ok_or("missing 'name'")? as usize;
            names
                .get(id)
                .copied()
                .ok_or_else(|| format!("name id {id} out of range"))
        };
        let num = |j: &Json, key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric '{key}'"))
        };
        let mut events = Vec::new();
        for ev in doc
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("missing 'events' array")?
        {
            let kind = ev.get("t").and_then(Json::as_str).ok_or("missing 't'")?;
            events.push(match kind {
                "phase" => TraceEvent::Phase {
                    rank: num(ev, "rank")? as usize,
                    phase: name_at(ev)?,
                    start_us: num(ev, "start_us")?,
                    dur: std::time::Duration::from_micros(num(ev, "dur_us")?),
                },
                "msg" => TraceEvent::Message {
                    src: num(ev, "src")? as usize,
                    dst: num(ev, "dst")? as usize,
                    tag: num(ev, "tag")? as u32,
                    bytes: num(ev, "bytes")?,
                    dir: match ev.get("dir").and_then(Json::as_str) {
                        Some("sent") => crate::Dir::Sent,
                        Some("received") => crate::Dir::Received,
                        other => return Err(format!("bad message dir {other:?}")),
                    },
                    at_us: num(ev, "at_us")?,
                },
                "op" => TraceEvent::StorageOp {
                    rank: num(ev, "rank")? as usize,
                    op: name_at(ev)?,
                    file: num(ev, "file")? as u32,
                    bytes: num(ev, "bytes")?,
                    start_us: num(ev, "start_us")?,
                    dur: std::time::Duration::from_micros(num(ev, "dur_us")?),
                },
                "fault" => TraceEvent::Fault {
                    rank: num(ev, "rank")? as usize,
                    kind: name_at(ev)?,
                    file: num(ev, "file")? as u32,
                    injected: matches!(ev.get("injected"), Some(Json::Bool(true))),
                    at_us: num(ev, "at_us")?,
                },
                "verify" => TraceEvent::Verify {
                    rank: num(ev, "rank")? as usize,
                    rule: name_at(ev)?,
                    detail: ev
                        .get("detail")
                        .and_then(Json::as_str)
                        .ok_or("missing 'detail'")?
                        .to_string(),
                    at_us: num(ev, "at_us")?,
                },
                other => return Err(format!("unknown event type '{other}'")),
            });
        }
        Ok(TraceSnapshot { events, files })
    }
}

/// Intern a runtime string as `&'static str`. Only used when parsing
/// serialized snapshots, where phase/op/kind names must come back as the
/// static strings the event structs carry. Each distinct name is leaked at
/// most once, process-wide.
pub(crate) fn intern_static(s: &str) -> &'static str {
    static CACHE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut cache = lock_unpoisoned(CACHE.get_or_init(|| Mutex::new(HashSet::new())));
    if let Some(&interned) = cache.get(s) {
        return interned;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    cache.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dir;
    use std::time::Duration;

    #[test]
    fn file_table_interns_once() {
        let t = FileTable::new();
        let a = t.intern("file_0.spd");
        let b = t.intern("file_1.spd");
        let a2 = t.intern("file_0.spd");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.names(), vec!["file_0.spd", "file_1.spd"]);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let snap = TraceSnapshot {
            events: vec![
                TraceEvent::Phase {
                    rank: 1,
                    phase: "aggregation",
                    start_us: 10,
                    dur: Duration::from_micros(25),
                },
                TraceEvent::Message {
                    src: 0,
                    dst: 1,
                    tag: 2,
                    bytes: 512,
                    dir: Dir::Sent,
                    at_us: 7,
                },
                TraceEvent::StorageOp {
                    rank: 1,
                    op: "write_file",
                    file: 0,
                    bytes: 4096,
                    start_us: 40,
                    dur: Duration::from_micros(9),
                },
                TraceEvent::Fault {
                    rank: 1,
                    kind: "transient",
                    file: 0,
                    injected: true,
                    at_us: 44,
                },
                TraceEvent::Verify {
                    rank: 2,
                    rule: "collective-mismatch",
                    detail: "rank 2 entered barrier, rank 0 entered allgather".to_string(),
                    at_us: 45,
                },
            ],
            files: vec!["file_0.spd".to_string()],
        };
        let back = TraceSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.end_us(), 49);
        assert_eq!(back.file_name(0), "file_0.spd");
        assert_eq!(back.file_name(9), "file#9");
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(TraceSnapshot::from_json("{}").is_err());
        assert!(TraceSnapshot::from_json("not json").is_err());
    }

    #[test]
    fn intern_static_is_stable() {
        let a = intern_static("some-phase-name");
        let b = intern_static("some-phase-name");
        assert!(std::ptr::eq(a, b));
    }
}
