//! What one workload run produces, and the statistics taken over it.

use crate::probe::Span;
use std::collections::BTreeMap;

/// Inputs every workload takes from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub seconds: u64,
    /// A few-particle version of every workload, for the smoke test.
    pub tiny: bool,
    /// Set-ups per run; the timed phase follows the last one, and
    /// `setup_s` is their median.
    pub setups: usize,
}

impl Plan {
    /// Length of a workload's fixed op list: `per_second` ops for each
    /// requested second. The rate is a constant of the workload, never a
    /// measurement, so a seed always yields the same op list.
    pub fn ops(&self, per_second: u64, tiny_ops: u64) -> u64 {
        if self.tiny {
            tiny_ops
        } else {
            per_second * self.seconds.max(1)
        }
    }
}

/// Per-layer values of a traced run, keyed by metric name. Values flagged
/// exact are deterministic work counts: they form the run's fingerprint.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, (f64, bool)>);

impl Layers {
    /// A timing or any other value that may vary between runs.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, (value, false));
    }

    /// A work count that must repeat exactly for the same seed.
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, (value, true));
    }

    pub fn get(&self, name: &str) -> Option<(f64, bool)> {
        self.0.get(name).copied()
    }
}

/// Everything one workload execution measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Duration of each set-up, in seconds; the last one preceded the
    /// timed phase.
    pub setup_s: Vec<f64>,
    /// Latency of every timed op, in op-list order.
    pub op_ms: Vec<f64>,
    /// Wall time of the timed phase.
    pub phase_s: f64,
    /// Resident-set high-water mark over the timed phase.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed correctness check.
    pub problems: Vec<String>,
    /// Facts about the run worth printing that are not metrics.
    pub notes: Vec<String>,
    /// Filled by traced runs only.
    pub layers: Layers,
    /// Spans of the timed phase (traced runs only).
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it:
/// returns `(percentile, value, samples beyond)`. With ten or fewer samples
/// it is the maximum, with none beyond.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let beyond = if n > 10 { 10 } else { 0 };
    let idx = n - 1 - beyond;
    (100.0 * (idx + 1) as f64 / n as f64, v[idx], beyond)
}

/// Reset the process's resident-set high-water mark (Linux `clear_refs`).
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the RSS high-water mark: {e}"))
}

/// The process's resident-set high-water mark since the last reset, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// The process's resident set in MB and its minor page faults so far.
pub fn memory_now() -> Result<(f64, u64), String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let rss_kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmRSS line in /proc/self/status")?;
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // minflt is the 10th field; the 2nd (the command) may hold spaces.
    let minflt = stat
        .rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .ok_or("no minflt field in /proc/self/stat")?;
    Ok((rss_kib * 1024.0 / 1e6, minflt))
}

/// A note on the timed phase's memory: the resident set when it began
/// (`start`, from [`memory_now`]), its high-water mark, and the page faults
/// it took.
pub fn memory_note(start: (f64, u64)) -> Result<String, String> {
    let (_, minflt) = memory_now()?;
    Ok(format!(
        "timed phase memory: resident {:.1} MB at start, peak {:.1} MB, {} minor page faults",
        start.0,
        peak_rss_mb()?,
        minflt - start.1
    ))
}

/// Total milliseconds of the spans called `name` (on `lane`, if given).
pub fn span_ms(spans: &[Span], name: &str, lane: Option<u32>) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && (lane.is_none() || s.lane == lane))
        .map(Span::ms)
        .sum::<f64>()
        + 0.0 // an empty f64 sum is -0.0
}

/// Number of spans called `name`, and the bytes they carried.
pub fn span_work(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(n, b), s| (n + 1, b + s.bytes))
}

/// The storage layer's metrics from the wrapper's spans, per op over `n`
/// ops. Reads repeat exactly only when no cache decides which files are
/// read (`exact_reads`).
pub fn storage_layers(spans: &[Span], n: f64, exact_reads: bool, l: &mut Layers) {
    use crate::probe::names::*;
    let (write_ops, write_bytes) = span_work(spans, STORAGE_WRITE);
    let (meta_ops, meta_bytes) = span_work(spans, STORAGE_WRITE_META);
    let write_ms = span_ms(spans, STORAGE_WRITE, None) + span_ms(spans, STORAGE_WRITE_META, None);
    l.set("storage.write_ms", write_ms / n);
    l.exact(
        "storage.write_bytes_per_op",
        (write_bytes + meta_bytes) as f64 / n,
    );
    l.exact(
        "storage.write_ops_per_op",
        (write_ops + meta_ops) as f64 / n,
    );

    let (file_ops, file_bytes) = span_work(spans, STORAGE_READ_FILE);
    let (range_ops, range_bytes) = span_work(spans, STORAGE_READ_RANGE);
    let read_ms =
        span_ms(spans, STORAGE_READ_FILE, None) + span_ms(spans, STORAGE_READ_RANGE, None);
    l.set("storage.read_ms", read_ms / n);
    let count = if exact_reads {
        Layers::exact
    } else {
        Layers::set
    };
    count(
        l,
        "storage.read_bytes_per_op",
        (file_bytes + range_bytes) as f64 / n,
    );
    count(l, "storage.read_file_ops", file_ops as f64 / n);
    count(l, "storage.read_range_ops", range_ops as f64 / n);
}

/// An order-sensitive digest of a particle list: count plus a hash of each
/// particle's id, position and density, the fields queries select on.
pub fn digest(particles: &[spio_types::Particle]) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in particles {
        for w in [
            p.id,
            p.position[0].to_bits(),
            p.position[1].to_bits(),
            p.position[2].to_bits(),
            p.density.to_bits(),
        ] {
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (particles.len(), h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, value, beyond) = tail(&v);
        assert_eq!((pct, value, beyond), (90.0, 90.0, 10));
        assert_eq!(tail(&[5.0, 7.0]), (100.0, 7.0, 0));
    }
}
