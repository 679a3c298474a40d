//! Merging trace events into a serializable job report.
//!
//! [`JobReport`] is the analysis layer over a [`TraceSnapshot`]: phase
//! accumulation per rank, the communication matrix, Darshan-style storage
//! records (with file names interned through the report's string table),
//! plus the derived Fig. 6 diagnostics — per-op latency percentiles,
//! per-phase max/mean imbalance (the straggler axis), per-rank written-byte
//! skew (the aggregator axis), and the injected-vs-organic fault ledger.

use crate::shard::TraceSnapshot;
use crate::{Dir, TraceEvent};
use spio_util::Json;
use std::collections::BTreeMap;
use std::time::Duration;

/// Accumulated time one rank spent in one phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTotal {
    pub rank: usize,
    pub phase: String,
    pub micros: u64,
}

/// One cell of the communication matrix: all messages from `src` to `dst`
/// with `tag`, with both sides of the ledger so imbalances (messages posted
/// but never received) are visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommEntry {
    pub src: usize,
    pub dst: usize,
    pub tag: u32,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub msgs_received: u64,
    pub bytes_received: u64,
}

/// A Darshan-style storage-operation record. `file` indexes the report's
/// string table ([`JobReport::files`]); resolve with
/// [`JobReport::file_name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageTotal {
    pub rank: usize,
    pub op: String,
    pub file: u32,
    pub bytes: u64,
    pub micros: u64,
}

/// Latency distribution of one storage-op kind, exact nearest-rank
/// percentiles over the individual records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpLatency {
    pub op: String,
    pub count: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

/// Straggler diagnostic for one phase: the slowest rank's accumulated time
/// vs. the mean over ranks that recorded the phase. `max/mean == 1` is
/// perfectly balanced; the paper's Fig. 6 bulk-synchronous model means the
/// job pays `max`, so the gap to `mean` is pure straggler cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImbalanceRow {
    pub phase: String,
    pub max_us: u64,
    pub mean_us: u64,
}

impl ImbalanceRow {
    /// `max / mean` (1.0 for an empty or perfectly balanced phase).
    pub fn ratio(&self) -> f64 {
        if self.mean_us == 0 {
            1.0
        } else {
            self.max_us as f64 / self.mean_us as f64
        }
    }
}

/// Bytes written to storage by one rank — the per-aggregator skew axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggBytes {
    pub rank: usize,
    pub bytes: u64,
}

/// Fault counts for one fault kind, split injected (chaos) vs. organic
/// (real backend errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultTotal {
    pub kind: String,
    pub injected: u64,
    pub organic: u64,
}

/// Verifier findings aggregated per rule ("collective-mismatch",
/// "handle-leak", "stall", …). Any nonzero count means the job violated an
/// MPI-semantics invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyTotal {
    pub rule: String,
    pub count: u64,
}

/// One registry instrument flattened into a report row. Counters and
/// gauges carry `value`; histograms carry `value` (the sum) plus count and
/// percentiles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricRow {
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: String,
    /// Counter total, gauge level, or histogram sum.
    pub value: i64,
    pub count: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
}

/// Everything a traced job produced, merged and ready to serialize.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobReport {
    pub nprocs: usize,
    /// String table resolving [`StorageTotal::file`] ids.
    pub files: Vec<String>,
    pub phases: Vec<PhaseTotal>,
    pub comm: Vec<CommEntry>,
    pub storage: Vec<StorageTotal>,
    pub faults: Vec<FaultTotal>,
    /// Verifier findings per rule, sorted by rule name; empty for a clean
    /// (or unverified) job.
    pub verify: Vec<VerifyTotal>,
    /// Per-op latency percentiles, sorted by op name.
    pub op_latency: Vec<OpLatency>,
    /// Per-phase max/mean straggler table, sorted by phase name.
    pub imbalance: Vec<ImbalanceRow>,
    /// Bytes written per rank (write ops only), sorted by rank.
    pub agg_bytes: Vec<AggBytes>,
    /// Registry instruments captured at report time (see
    /// [`JobReport::with_metrics`]); empty when the job carried none.
    pub metrics: Vec<MetricRow>,
}

impl JobReport {
    /// Merge a snapshot into a report. Phase spans accumulate per
    /// `(rank, phase)`; messages accumulate per `(src, dst, tag)`; storage
    /// ops are kept as individual records in arrival order; faults
    /// accumulate per `(kind, injected)`. Derived tables (latency
    /// percentiles, imbalance, per-rank write bytes) are computed here so
    /// serialized reports carry them verbatim.
    pub fn from_snapshot(nprocs: usize, snapshot: &TraceSnapshot) -> JobReport {
        Self::from_events(nprocs, &snapshot.events, &snapshot.files)
    }

    /// Like [`JobReport::from_snapshot`], from the parts. `files` is the
    /// string table that storage-op and fault `file` ids index.
    pub fn from_events(nprocs: usize, events: &[TraceEvent], files: &[String]) -> JobReport {
        let mut phases: BTreeMap<(usize, &str), u64> = BTreeMap::new();
        let mut comm: BTreeMap<(usize, usize, u32), [u64; 4]> = BTreeMap::new();
        let mut faults: BTreeMap<&str, [u64; 2]> = BTreeMap::new();
        let mut verify: BTreeMap<&str, u64> = BTreeMap::new();
        let mut storage = Vec::new();
        for ev in events {
            match ev {
                TraceEvent::Phase {
                    rank, phase, dur, ..
                } => {
                    *phases.entry((*rank, phase)).or_default() += dur.as_micros() as u64;
                }
                TraceEvent::Message {
                    src,
                    dst,
                    tag,
                    bytes,
                    dir,
                    ..
                } => {
                    let cell = comm.entry((*src, *dst, *tag)).or_default();
                    match dir {
                        Dir::Sent => {
                            cell[0] += 1;
                            cell[1] += *bytes;
                        }
                        Dir::Received => {
                            cell[2] += 1;
                            cell[3] += *bytes;
                        }
                    }
                }
                TraceEvent::StorageOp {
                    rank,
                    op,
                    file,
                    bytes,
                    dur,
                    ..
                } => {
                    storage.push(StorageTotal {
                        rank: *rank,
                        op: op.to_string(),
                        file: *file,
                        bytes: *bytes,
                        micros: dur.as_micros() as u64,
                    });
                }
                TraceEvent::Fault { kind, injected, .. } => {
                    let cell = faults.entry(kind).or_default();
                    cell[if *injected { 0 } else { 1 }] += 1;
                }
                TraceEvent::Verify { rule, .. } => {
                    *verify.entry(rule).or_default() += 1;
                }
            }
        }
        let mut report = JobReport {
            nprocs,
            files: files.to_vec(),
            phases: phases
                .into_iter()
                .map(|((rank, phase), micros)| PhaseTotal {
                    rank,
                    phase: phase.to_string(),
                    micros,
                })
                .collect(),
            comm: comm
                .into_iter()
                .map(|((src, dst, tag), c)| CommEntry {
                    src,
                    dst,
                    tag,
                    msgs_sent: c[0],
                    bytes_sent: c[1],
                    msgs_received: c[2],
                    bytes_received: c[3],
                })
                .collect(),
            storage,
            faults: faults
                .into_iter()
                .map(|(kind, c)| FaultTotal {
                    kind: kind.to_string(),
                    injected: c[0],
                    organic: c[1],
                })
                .collect(),
            verify: verify
                .into_iter()
                .map(|(rule, count)| VerifyTotal {
                    rule: rule.to_string(),
                    count,
                })
                .collect(),
            ..Default::default()
        };
        report.op_latency = report.compute_op_latency();
        report.imbalance = report.compute_imbalance();
        report.agg_bytes = report.compute_agg_bytes();
        report
    }

    /// Exact nearest-rank percentiles over each op kind's recorded
    /// latencies.
    fn compute_op_latency(&self) -> Vec<OpLatency> {
        let mut by_op: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for s in &self.storage {
            by_op.entry(&s.op).or_default().push(s.micros);
        }
        by_op
            .into_iter()
            .map(|(op, mut lats)| {
                lats.sort_unstable();
                let nearest = |p: f64| -> u64 {
                    let rank = ((p * lats.len() as f64).ceil() as usize).clamp(1, lats.len());
                    lats[rank - 1]
                };
                OpLatency {
                    op: op.to_string(),
                    count: lats.len() as u64,
                    p50_us: nearest(0.50),
                    p95_us: nearest(0.95),
                    p99_us: nearest(0.99),
                    max_us: nearest(1.0),
                }
            })
            .collect()
    }

    /// Per-phase max and mean accumulated time. The mean is over ranks
    /// that recorded the phase at all (a phase only two ranks enter should
    /// not look imbalanced because the other ranks skipped it).
    fn compute_imbalance(&self) -> Vec<ImbalanceRow> {
        let mut by_phase: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new(); // max, sum, n
        for p in &self.phases {
            let cell = by_phase.entry(&p.phase).or_default();
            cell.0 = cell.0.max(p.micros);
            cell.1 += p.micros;
            cell.2 += 1;
        }
        by_phase
            .into_iter()
            .map(|(phase, (max, sum, n))| ImbalanceRow {
                phase: phase.to_string(),
                max_us: max,
                mean_us: sum.checked_div(n).unwrap_or(0),
            })
            .collect()
    }

    /// Bytes written per rank (`write_file` + `write_range` ops).
    fn compute_agg_bytes(&self) -> Vec<AggBytes> {
        let mut by_rank: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.storage {
            if s.op.starts_with("write") {
                *by_rank.entry(s.rank).or_default() += s.bytes;
            }
        }
        by_rank
            .into_iter()
            .map(|(rank, bytes)| AggBytes { rank, bytes })
            .collect()
    }

    /// Embed a snapshot of a metrics registry (cache hit rates, in-flight
    /// gauges, latency histograms) so `spio report` shows them alongside
    /// the event-derived tables.
    pub fn with_metrics(mut self, metrics: &crate::Metrics) -> Self {
        self.metrics = metrics.export_rows();
        self
    }

    /// The embedded registry row named `name`, if any.
    pub fn metric(&self, name: &str) -> Option<&MetricRow> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Resolve a storage record's file id to its name.
    pub fn file_name(&self, id: u32) -> String {
        self.files
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| format!("file#{id}"))
    }

    /// Maximum time any rank spent in `phase` — the bulk-synchronous bound
    /// `WriteStats::merge_max` also computes, which is what the fig6
    /// cross-check compares against.
    pub fn phase_max(&self, phase: &str) -> Duration {
        Duration::from_micros(
            self.phases
                .iter()
                .filter(|p| p.phase == phase)
                .map(|p| p.micros)
                .max()
                .unwrap_or(0),
        )
    }

    /// Sorted distinct phase names.
    pub fn phase_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.phases.iter().map(|p| p.phase.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Latency percentiles for one op kind.
    pub fn op_latency(&self, op: &str) -> Option<&OpLatency> {
        self.op_latency.iter().find(|l| l.op == op)
    }

    /// Matrix cells where the sent and received ledgers disagree (messages
    /// posted but never received, or bytes corrupted in flight). Empty for
    /// a conservation-respecting job.
    pub fn comm_imbalances(&self) -> Vec<&CommEntry> {
        self.comm
            .iter()
            .filter(|c| c.msgs_sent != c.msgs_received || c.bytes_sent != c.bytes_received)
            .collect()
    }

    /// Total payload bytes sent (each message counted once).
    pub fn total_bytes_sent(&self) -> u64 {
        self.comm.iter().map(|c| c.bytes_sent).sum()
    }

    /// Total bytes moved through storage by `op`.
    pub fn storage_bytes(&self, op: &str) -> u64 {
        self.storage
            .iter()
            .filter(|s| s.op == op)
            .map(|s| s.bytes)
            .sum()
    }

    /// Number of recorded storage operations of `op` kind.
    pub fn storage_op_count(&self, op: &str) -> usize {
        self.storage.iter().filter(|s| s.op == op).count()
    }

    /// Storage retries recorded by `RetryStorage` wrappers — nonzero means
    /// the job survived transient storage faults.
    pub fn retry_count(&self) -> usize {
        self.storage_op_count("retry")
    }

    // ---- serialization ----

    pub fn to_json(&self) -> String {
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("rank".into(), Json::u64(p.rank as u64)),
                    ("phase".into(), Json::str(&p.phase)),
                    ("micros".into(), Json::u64(p.micros)),
                ])
            })
            .collect();
        let comm = self
            .comm
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("src".into(), Json::u64(c.src as u64)),
                    ("dst".into(), Json::u64(c.dst as u64)),
                    ("tag".into(), Json::u64(c.tag as u64)),
                    ("msgs_sent".into(), Json::u64(c.msgs_sent)),
                    ("bytes_sent".into(), Json::u64(c.bytes_sent)),
                    ("msgs_received".into(), Json::u64(c.msgs_received)),
                    ("bytes_received".into(), Json::u64(c.bytes_received)),
                ])
            })
            .collect();
        let storage = self
            .storage
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("rank".into(), Json::u64(s.rank as u64)),
                    ("op".into(), Json::str(&s.op)),
                    ("file".into(), Json::u64(s.file as u64)),
                    ("bytes".into(), Json::u64(s.bytes)),
                    ("micros".into(), Json::u64(s.micros)),
                ])
            })
            .collect();
        let faults = self
            .faults
            .iter()
            .map(|f| {
                Json::Obj(vec![
                    ("kind".into(), Json::str(&f.kind)),
                    ("injected".into(), Json::u64(f.injected)),
                    ("organic".into(), Json::u64(f.organic)),
                ])
            })
            .collect();
        let verify = self
            .verify
            .iter()
            .map(|v| {
                Json::Obj(vec![
                    ("rule".into(), Json::str(&v.rule)),
                    ("count".into(), Json::u64(v.count)),
                ])
            })
            .collect();
        let op_latency = self
            .op_latency
            .iter()
            .map(|l| {
                Json::Obj(vec![
                    ("op".into(), Json::str(&l.op)),
                    ("count".into(), Json::u64(l.count)),
                    ("p50_us".into(), Json::u64(l.p50_us)),
                    ("p95_us".into(), Json::u64(l.p95_us)),
                    ("p99_us".into(), Json::u64(l.p99_us)),
                    ("max_us".into(), Json::u64(l.max_us)),
                ])
            })
            .collect();
        let imbalance = self
            .imbalance
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("phase".into(), Json::str(&r.phase)),
                    ("max_us".into(), Json::u64(r.max_us)),
                    ("mean_us".into(), Json::u64(r.mean_us)),
                ])
            })
            .collect();
        let agg_bytes = self
            .agg_bytes
            .iter()
            .map(|a| {
                Json::Obj(vec![
                    ("rank".into(), Json::u64(a.rank as u64)),
                    ("bytes".into(), Json::u64(a.bytes)),
                ])
            })
            .collect();
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Json::Obj(vec![
                    ("name".into(), Json::str(&m.name)),
                    ("kind".into(), Json::str(&m.kind)),
                    ("value".into(), Json::Num(m.value as f64)),
                    ("count".into(), Json::u64(m.count)),
                    ("p50".into(), Json::u64(m.p50)),
                    ("p95".into(), Json::u64(m.p95)),
                    ("p99".into(), Json::u64(m.p99)),
                    ("max".into(), Json::u64(m.max)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("format".into(), Json::str("spio-job-report")),
            ("version".into(), Json::u64(2)),
            ("nprocs".into(), Json::u64(self.nprocs as u64)),
            (
                "files".into(),
                Json::Arr(self.files.iter().map(Json::str).collect()),
            ),
            ("phases".into(), Json::Arr(phases)),
            ("comm".into(), Json::Arr(comm)),
            ("storage".into(), Json::Arr(storage)),
            ("faults".into(), Json::Arr(faults)),
            ("verify".into(), Json::Arr(verify)),
            ("op_latency".into(), Json::Arr(op_latency)),
            ("imbalance".into(), Json::Arr(imbalance)),
            ("agg_bytes".into(), Json::Arr(agg_bytes)),
            ("metrics".into(), Json::Arr(metrics)),
        ])
        .to_string()
    }

    pub fn from_json(text: &str) -> Result<JobReport, String> {
        let doc = Json::parse(text)?;
        if doc.get("format").and_then(Json::as_str) != Some("spio-job-report") {
            return Err("not a spio job report".into());
        }
        let version = doc.get("version").and_then(Json::as_u64).unwrap_or(0);
        if version != 1 && version != 2 {
            return Err(format!("unsupported job-report version {version}"));
        }
        let field = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric field '{key}'"))
        };
        let text_field = |obj: &Json, key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{key}'"))
        };
        let arr = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing array '{key}'"))
        };
        // Optional arrays absent in version-1 documents.
        let opt_arr = |key: &str| -> &[Json] { doc.get(key).and_then(Json::as_arr).unwrap_or(&[]) };
        let mut report = JobReport {
            nprocs: field(&doc, "nprocs")? as usize,
            ..Default::default()
        };
        for f in opt_arr("files") {
            report
                .files
                .push(f.as_str().ok_or("non-string file name")?.to_string());
        }
        for p in arr("phases")? {
            report.phases.push(PhaseTotal {
                rank: field(p, "rank")? as usize,
                phase: text_field(p, "phase")?,
                micros: field(p, "micros")?,
            });
        }
        for c in arr("comm")? {
            report.comm.push(CommEntry {
                src: field(c, "src")? as usize,
                dst: field(c, "dst")? as usize,
                tag: field(c, "tag")? as u32,
                msgs_sent: field(c, "msgs_sent")?,
                bytes_sent: field(c, "bytes_sent")?,
                msgs_received: field(c, "msgs_received")?,
                bytes_received: field(c, "bytes_received")?,
            });
        }
        for s in arr("storage")? {
            // Version 1 stored the file name inline; intern it into the
            // report's table so both versions land in the same shape.
            let file = match s.get("file") {
                Some(Json::Str(name)) => match report.files.iter().position(|f| f == name) {
                    Some(i) => i as u32,
                    None => {
                        report.files.push(name.clone());
                        (report.files.len() - 1) as u32
                    }
                },
                _ => field(s, "file")? as u32,
            };
            report.storage.push(StorageTotal {
                rank: field(s, "rank")? as usize,
                op: text_field(s, "op")?,
                file,
                bytes: field(s, "bytes")?,
                micros: field(s, "micros")?,
            });
        }
        for f in opt_arr("faults") {
            report.faults.push(FaultTotal {
                kind: text_field(f, "kind")?,
                injected: field(f, "injected")?,
                organic: field(f, "organic")?,
            });
        }
        // Optional: reports from before the verification layer omit it.
        for v in opt_arr("verify") {
            report.verify.push(VerifyTotal {
                rule: text_field(v, "rule")?,
                count: field(v, "count")?,
            });
        }
        for l in opt_arr("op_latency") {
            report.op_latency.push(OpLatency {
                op: text_field(l, "op")?,
                count: field(l, "count")?,
                p50_us: field(l, "p50_us")?,
                p95_us: field(l, "p95_us")?,
                p99_us: field(l, "p99_us")?,
                max_us: field(l, "max_us")?,
            });
        }
        for r in opt_arr("imbalance") {
            report.imbalance.push(ImbalanceRow {
                phase: text_field(r, "phase")?,
                max_us: field(r, "max_us")?,
                mean_us: field(r, "mean_us")?,
            });
        }
        for a in opt_arr("agg_bytes") {
            report.agg_bytes.push(AggBytes {
                rank: field(a, "rank")? as usize,
                bytes: field(a, "bytes")?,
            });
        }
        // Optional in both versions: reports without a registry omit it.
        for m in opt_arr("metrics") {
            report.metrics.push(MetricRow {
                name: text_field(m, "name")?,
                kind: text_field(m, "kind")?,
                value: m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("missing numeric field 'value'")? as i64,
                count: field(m, "count")?,
                p50: field(m, "p50")?,
                p95: field(m, "p95")?,
                p99: field(m, "p99")?,
                max: field(m, "max")?,
            });
        }
        if version == 1 {
            // Version-1 documents predate the derived tables.
            report.op_latency = report.compute_op_latency();
            report.imbalance = report.compute_imbalance();
            report.agg_bytes = report.compute_agg_bytes();
        }
        Ok(report)
    }

    // ---- rendering (the `spio report` subcommand) ----

    /// Human-readable rendering: Fig. 6-style phase breakdown (max across
    /// ranks, proportional bars), the straggler/imbalance table, the
    /// communication matrix, storage-op summary with latency percentiles,
    /// per-rank written-byte skew, and the fault ledger.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("job report — {} ranks\n\n", self.nprocs));

        out.push_str("phase breakdown (max across ranks):\n");
        let names = self.phase_names();
        let maxima: Vec<(String, u64)> = names
            .iter()
            .map(|n| (n.to_string(), self.phase_max(n).as_micros() as u64))
            .collect();
        let total: u64 = maxima.iter().map(|(_, us)| us).sum();
        let widest = maxima.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, us) in &maxima {
            let frac = if total > 0 {
                *us as f64 / total as f64
            } else {
                0.0
            };
            let bar_len = (frac * 40.0).round() as usize;
            out.push_str(&format!(
                "  {name:widest$}  {:>12}  {:5.1}%  {}\n",
                format_micros(*us),
                frac * 100.0,
                "#".repeat(bar_len),
            ));
        }
        if total > 0 {
            out.push_str(&format!(
                "  {:widest$}  {:>12}\n",
                "total",
                format_micros(total)
            ));
        }

        if !self.imbalance.is_empty() {
            out.push_str("\nphase imbalance (straggler cost = max/mean across ranks):\n");
            out.push_str(&format!(
                "  {:widest$}  {:>12}  {:>12}  {:>7}\n",
                "phase", "max", "mean", "ratio"
            ));
            for row in &self.imbalance {
                out.push_str(&format!(
                    "  {:widest$}  {:>12}  {:>12}  {:>6.2}x\n",
                    row.phase,
                    format_micros(row.max_us),
                    format_micros(row.mean_us),
                    row.ratio(),
                ));
            }
        }

        out.push_str("\ncommunication matrix (src -> dst):\n");
        if self.comm.is_empty() {
            out.push_str("  (no point-to-point messages recorded)\n");
        } else {
            out.push_str("  src  dst    tag        msgs        bytes\n");
            for c in &self.comm {
                out.push_str(&format!(
                    "  {:>3}  {:>3}  {:>5}  {:>10}  {:>11}\n",
                    c.src, c.dst, c.tag, c.msgs_sent, c.bytes_sent
                ));
            }
            let imbalances = self.comm_imbalances();
            if imbalances.is_empty() {
                out.push_str(&format!(
                    "  {} messages, {} bytes; sent == received for every (src, dst, tag)\n",
                    self.comm.iter().map(|c| c.msgs_sent).sum::<u64>(),
                    self.total_bytes_sent(),
                ));
            } else {
                out.push_str(&format!(
                    "  WARNING: {} matrix cells have sent != received\n",
                    imbalances.len()
                ));
            }
        }

        out.push_str("\nstorage operations:\n");
        if self.storage.is_empty() {
            out.push_str("  (none recorded)\n");
        } else {
            // Summarize per op kind; individual records stay in the JSON.
            let mut by_op: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
            for s in &self.storage {
                let e = by_op.entry(&s.op).or_default();
                e.0 += 1;
                e.1 += s.bytes;
                e.2 += s.micros;
            }
            for (op, (count, bytes, micros)) in by_op {
                out.push_str(&format!(
                    "  {op:<12} {count:>6} ops  {bytes:>12} bytes  {}\n",
                    format_micros(micros)
                ));
            }
        }

        if !self.op_latency.is_empty() {
            out.push_str("\nstorage latency percentiles (µs):\n");
            out.push_str("  op             count      p50      p95      p99      max\n");
            for l in &self.op_latency {
                out.push_str(&format!(
                    "  {:<12} {:>7}  {:>7}  {:>7}  {:>7}  {:>7}\n",
                    l.op, l.count, l.p50_us, l.p95_us, l.p99_us, l.max_us
                ));
            }
        }

        if !self.agg_bytes.is_empty() {
            let max = self.agg_bytes.iter().map(|a| a.bytes).max().unwrap_or(0);
            let sum: u64 = self.agg_bytes.iter().map(|a| a.bytes).sum();
            let mean = sum / self.agg_bytes.len() as u64;
            out.push_str(&format!(
                "\naggregator byte skew: {} writing ranks, max {} bytes, mean {} bytes ({:.2}x)\n",
                self.agg_bytes.len(),
                max,
                mean,
                if mean > 0 {
                    max as f64 / mean as f64
                } else {
                    1.0
                },
            ));
        }

        if !self.metrics.is_empty() {
            out.push_str("\nmetrics registry:\n");
            out.push_str(
                "  name                          kind          value    count      p50      p95      p99      max\n",
            );
            for m in &self.metrics {
                if m.kind == "histogram" {
                    out.push_str(&format!(
                        "  {:<28}  {:<9} {:>9}  {:>7}  {:>7}  {:>7}  {:>7}  {:>7}\n",
                        m.name, m.kind, m.value, m.count, m.p50, m.p95, m.p99, m.max
                    ));
                } else {
                    out.push_str(&format!("  {:<28}  {:<9} {:>9}\n", m.name, m.kind, m.value));
                }
            }
        }

        if !self.faults.is_empty() {
            out.push_str("\nfaults (injected vs organic):\n");
            out.push_str("  kind              injected   organic\n");
            for f in &self.faults {
                out.push_str(&format!(
                    "  {:<16} {:>9}  {:>8}\n",
                    f.kind, f.injected, f.organic
                ));
            }
        }

        if !self.verify.is_empty() {
            out.push_str("\nverifier findings (MPI-semantics violations):\n");
            out.push_str("  rule                        count\n");
            for v in &self.verify {
                out.push_str(&format!("  {:<26} {:>6}\n", v.rule, v.count));
            }
        }
        out
    }
}

fn format_micros(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.3} s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.3} ms", us as f64 / 1e3)
    } else {
        format!("{us} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    fn sample_report() -> JobReport {
        let t = Trace::collecting();
        t.phase(0, "aggregation", Duration::from_millis(10));
        t.phase(0, "file_io", Duration::from_millis(30));
        t.phase(1, "aggregation", Duration::from_millis(25));
        t.phase(1, "aggregation", Duration::from_millis(5)); // accumulates
        t.message(1, 0, 2, 512, Dir::Sent);
        t.message(1, 0, 2, 512, Dir::Received);
        t.message(0, 0, 2, 64, Dir::Sent);
        t.storage_op(
            0,
            "write_file",
            "file_0.spd",
            4096,
            Duration::from_millis(2),
        );
        t.fault(0, "transient", "file_0.spd", true);
        t.fault(1, "io_error", "file_0.spd", false);
        JobReport::from_snapshot(2, &t.snapshot())
    }

    #[test]
    fn phases_accumulate_and_max() {
        let r = sample_report();
        assert_eq!(r.phase_max("aggregation"), Duration::from_millis(30));
        assert_eq!(r.phase_max("file_io"), Duration::from_millis(30));
        assert_eq!(r.phase_max("absent"), Duration::ZERO);
    }

    #[test]
    fn comm_matrix_tracks_both_sides() {
        let r = sample_report();
        let cell = r
            .comm
            .iter()
            .find(|c| c.src == 1 && c.dst == 0 && c.tag == 2)
            .unwrap();
        assert_eq!(cell.msgs_sent, 1);
        assert_eq!(cell.bytes_received, 512);
        // The (0,0,2) message was sent but never received.
        assert_eq!(r.comm_imbalances().len(), 1);
        assert_eq!(r.total_bytes_sent(), 576);
    }

    #[test]
    fn storage_op_and_retry_counts() {
        let t = Trace::collecting();
        t.storage_op(0, "read_file", "f", 10, Duration::from_micros(5));
        t.storage_op(0, "retry", "f", 1, Duration::from_micros(9));
        t.storage_op(1, "retry", "f", 1, Duration::from_micros(4));
        let r = JobReport::from_snapshot(2, &t.snapshot());
        assert_eq!(r.storage_op_count("read_file"), 1);
        assert_eq!(r.retry_count(), 2);
        assert!(
            r.render().contains("retry"),
            "retries show in `spio report`"
        );
    }

    #[test]
    fn op_latency_percentiles_are_exact_nearest_rank() {
        let t = Trace::collecting();
        for us in 1..=100u64 {
            t.storage_op(0, "read_range", "f", 8, Duration::from_micros(us));
        }
        let r = JobReport::from_snapshot(1, &t.snapshot());
        let l = r.op_latency("read_range").unwrap();
        assert_eq!(l.count, 100);
        assert_eq!(l.p50_us, 50);
        assert_eq!(l.p95_us, 95);
        assert_eq!(l.p99_us, 99);
        assert_eq!(l.max_us, 100);
        assert!(r.op_latency("absent").is_none());
    }

    #[test]
    fn imbalance_ratio_flags_stragglers() {
        let t = Trace::collecting();
        t.phase(0, "file_io", Duration::from_millis(10));
        t.phase(1, "file_io", Duration::from_millis(10));
        t.phase(2, "file_io", Duration::from_millis(40));
        // A phase only one rank enters is perfectly "balanced".
        t.phase(0, "meta", Duration::from_millis(3));
        let r = JobReport::from_snapshot(3, &t.snapshot());
        let row = r.imbalance.iter().find(|i| i.phase == "file_io").unwrap();
        assert_eq!(row.max_us, 40_000);
        assert_eq!(row.mean_us, 20_000);
        assert!((row.ratio() - 2.0).abs() < 1e-9);
        let meta = r.imbalance.iter().find(|i| i.phase == "meta").unwrap();
        assert!((meta.ratio() - 1.0).abs() < 1e-9);
        assert!(r.imbalance.iter().all(|i| i.phase != "absent"));
    }

    #[test]
    fn agg_bytes_tracks_writes_per_rank() {
        let t = Trace::collecting();
        t.storage_op(0, "write_file", "a", 100, Duration::ZERO);
        t.storage_op(0, "write_range", "a", 50, Duration::ZERO);
        t.storage_op(2, "write_file", "b", 300, Duration::ZERO);
        t.storage_op(1, "read_file", "a", 999, Duration::ZERO); // not a write
        let r = JobReport::from_snapshot(3, &t.snapshot());
        assert_eq!(
            r.agg_bytes,
            vec![
                AggBytes {
                    rank: 0,
                    bytes: 150
                },
                AggBytes {
                    rank: 2,
                    bytes: 300
                },
            ]
        );
    }

    #[test]
    fn fault_ledger_splits_injected_and_organic() {
        let r = sample_report();
        let transient = r.faults.iter().find(|f| f.kind == "transient").unwrap();
        assert_eq!((transient.injected, transient.organic), (1, 0));
        let io_error = r.faults.iter().find(|f| f.kind == "io_error").unwrap();
        assert_eq!((io_error.injected, io_error.organic), (0, 1));
        assert!(r.render().contains("injected"));
    }

    #[test]
    fn verify_findings_aggregate_by_rule_and_render() {
        let t = Trace::collecting();
        t.verify_finding(
            0,
            "collective-mismatch",
            "rank 0: barrier vs allgather".into(),
        );
        t.verify_finding(
            2,
            "collective-mismatch",
            "rank 2: barrier vs allgather".into(),
        );
        t.verify_finding(1, "handle-leak", "1 unwaited recv handle".into());
        let r = JobReport::from_snapshot(3, &t.snapshot());
        assert_eq!(
            r.verify,
            vec![
                VerifyTotal {
                    rule: "collective-mismatch".into(),
                    count: 2
                },
                VerifyTotal {
                    rule: "handle-leak".into(),
                    count: 1
                },
            ]
        );
        let text = r.render();
        assert!(text.contains("verifier findings"));
        assert!(text.contains("collective-mismatch"));
        let back = JobReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        // Clean jobs skip the section.
        assert!(!sample_report().render().contains("verifier findings"));
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let r = sample_report();
        let text = r.to_json();
        let back = JobReport::from_json(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn metrics_embed_roundtrip_and_render() {
        let t = Trace::collecting();
        let m = t.metrics();
        m.counter("serve.cache.hits").add(7);
        m.gauge("serve.inflight").set(-2); // signed survives the roundtrip
        let h = m.histogram("serve.query.latency_us");
        h.record(10);
        h.record(1000);
        let r = JobReport::from_snapshot(1, &t.snapshot()).with_metrics(&m);
        assert_eq!(r.metric("serve.cache.hits").unwrap().value, 7);
        assert_eq!(r.metric("serve.inflight").unwrap().value, -2);
        let lat = r.metric("serve.query.latency_us").unwrap();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.max, 1000);
        assert!(lat.p50 <= lat.p99 && lat.p99 <= lat.max);
        let back = JobReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        let text = r.render();
        assert!(text.contains("metrics registry"));
        assert!(text.contains("serve.cache.hits"));
        assert!(text.contains("serve.query.latency_us"));
        // Reports without metrics skip the section entirely.
        assert!(!sample_report().render().contains("metrics registry"));
    }

    #[test]
    fn from_json_accepts_version_1_documents() {
        // A hand-built v1 report: storage file names inline, no derived
        // tables. Parsing must intern the names and recompute.
        let v1 = r#"{
            "format": "spio-job-report", "version": 1, "nprocs": 2,
            "phases": [
                {"rank": 0, "phase": "file_io", "micros": 10},
                {"rank": 1, "phase": "file_io", "micros": 30}
            ],
            "comm": [],
            "storage": [
                {"rank": 0, "op": "write_file", "file": "a.spd", "bytes": 64, "micros": 7},
                {"rank": 1, "op": "write_file", "file": "a.spd", "bytes": 32, "micros": 9}
            ]
        }"#;
        let r = JobReport::from_json(v1).unwrap();
        assert_eq!(r.files, vec!["a.spd"]);
        assert_eq!(r.storage[0].file, 0);
        assert_eq!(r.storage[1].file, 0);
        assert_eq!(r.op_latency("write_file").unwrap().max_us, 9);
        assert_eq!(r.imbalance[0].max_us, 30);
        assert_eq!(r.agg_bytes.len(), 2);
    }

    #[test]
    fn from_json_rejects_non_reports() {
        assert!(JobReport::from_json("{}").is_err());
        assert!(JobReport::from_json("not json").is_err());
        assert!(JobReport::from_json("{\"format\":\"other\"}").is_err());
        assert!(JobReport::from_json("{\"format\":\"spio-job-report\",\"version\":99}").is_err());
    }

    #[test]
    fn render_mentions_phases_and_matrix() {
        let text = sample_report().render();
        assert!(text.contains("aggregation"));
        assert!(text.contains("file_io"));
        assert!(text.contains("communication matrix"));
        assert!(text.contains("write_file"));
        assert!(text.contains("WARNING"), "imbalance must be called out");
        assert!(text.contains("latency percentiles"));
        assert!(text.contains("phase imbalance"));
        assert!(text.contains("aggregator byte skew"));
    }

    #[test]
    fn empty_report_renders() {
        let r = JobReport::from_events(4, &[], &[]);
        let text = r.render();
        assert!(text.contains("4 ranks"));
        assert!(text.contains("no point-to-point"));
    }
}
