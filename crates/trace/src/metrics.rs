//! Lock-free metrics registry: counters, gauges, and exponential-bucket
//! latency/size histograms with p50/p95/p99.
//!
//! Traces answer "what happened when"; metrics answer "how much, how often,
//! how slow" without retaining per-event storage. Instrument handles are
//! resolved from the registry **once** (at wrapper construction) and then
//! recorded through plain atomics, so the hot path takes no lock and
//! performs no allocation. A disabled registry (the [`crate::Trace::off`]
//! path) hands out inert handles whose record calls are a branch on `None`.
//!
//! Histograms use power-of-two buckets: bucket 0 holds the value `0`,
//! bucket *i* holds `[2^(i-1), 2^i)`. Percentiles are nearest-rank over
//! the buckets and report the bucket's upper bound (clamped to the true
//! observed max), so they are exact to within a factor of two — plenty for
//! "did p99 write latency double", which is what the bench gate asks.

use spio_util::{read_unpoisoned, write_unpoisoned, Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of histogram buckets: bucket 0 plus 63 power-of-two buckets
/// covers the full `u64` range (the last bucket absorbs the tail).
pub const HISTOGRAM_BUCKETS: usize = 64;

#[derive(Clone)]
enum Instrument {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Default)]
struct Registry {
    instruments: RwLock<BTreeMap<&'static str, Instrument>>,
}

impl Registry {
    /// Fetch-or-create under `name`. The read-lock fast path covers every
    /// call after the first registration of a name.
    fn resolve(&self, name: &'static str, make: impl FnOnce() -> Instrument) -> Instrument {
        if let Some(i) = read_unpoisoned(&self.instruments).get(name) {
            return i.clone();
        }
        let mut w = write_unpoisoned(&self.instruments);
        w.entry(name).or_insert_with(make).clone()
    }
}

/// Handle to the job-wide metrics registry. Cheap to clone; clones share
/// the same instruments. Obtained from [`crate::Trace::metrics`] — an
/// enabled trace carries an enabled registry, a disabled trace hands out
/// the inert one.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Registry>>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Metrics {
    /// The inert registry: every handle it hands out is a no-op and no
    /// call allocates.
    pub fn disabled() -> Metrics {
        Metrics { inner: None }
    }

    pub(crate) fn enabled() -> Metrics {
        Metrics {
            inner: Some(Arc::new(Registry::default())),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A monotonically increasing count (ops issued, bytes moved, faults).
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter(self.inner.as_ref().map(|r| {
            match r.resolve(name, || Instrument::Counter(Arc::new(AtomicU64::new(0)))) {
                Instrument::Counter(c) => c,
                _ => panic!("metric '{name}' already registered with a different type"),
            }
        }))
    }

    /// A point-in-time signed value (queue depth, in-flight requests).
    pub fn gauge(&self, name: &'static str) -> Gauge {
        Gauge(self.inner.as_ref().map(|r| {
            match r.resolve(name, || Instrument::Gauge(Arc::new(AtomicI64::new(0)))) {
                Instrument::Gauge(g) => g,
                _ => panic!("metric '{name}' already registered with a different type"),
            }
        }))
    }

    /// A distribution (latency in µs, message/op sizes in bytes).
    pub fn histogram(&self, name: &'static str) -> Histogram {
        Histogram(self.inner.as_ref().map(|r| {
            match r.resolve(name, || {
                Instrument::Histogram(Arc::new(HistogramCore::new()))
            }) {
                Instrument::Histogram(h) => h,
                _ => panic!("metric '{name}' already registered with a different type"),
            }
        }))
    }

    /// Current value of a counter (0 if absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Instrument::Counter(c)) => c.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Current value of a gauge (0 if absent or disabled).
    pub fn gauge_value(&self, name: &str) -> i64 {
        match self.get(name) {
            Some(Instrument::Gauge(g)) => g.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Snapshot of a histogram (`None` if absent or disabled).
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        match self.get(name) {
            Some(Instrument::Histogram(h)) => Some(h.snapshot()),
            _ => None,
        }
    }

    fn get(&self, name: &str) -> Option<Instrument> {
        self.inner
            .as_ref()
            .and_then(|r| read_unpoisoned(&r.instruments).get(name).cloned())
    }

    /// Registered metric names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        match &self.inner {
            Some(r) => read_unpoisoned(&r.instruments).keys().copied().collect(),
            None => Vec::new(),
        }
    }

    /// Export every instrument as one JSON object per line (JSONL), sorted
    /// by name. Counters/gauges carry `value`; histograms carry count,
    /// sum, max, and p50/p95/p99.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let Some(r) = &self.inner else { return out };
        for (name, inst) in read_unpoisoned(&r.instruments).iter() {
            let obj = match inst {
                Instrument::Counter(c) => Json::Obj(vec![
                    ("type".into(), Json::str("counter")),
                    ("name".into(), Json::str(*name)),
                    ("value".into(), Json::u64(c.load(Ordering::Relaxed))),
                ]),
                Instrument::Gauge(g) => Json::Obj(vec![
                    ("type".into(), Json::str("gauge")),
                    ("name".into(), Json::str(*name)),
                    ("value".into(), Json::Num(g.load(Ordering::Relaxed) as f64)),
                ]),
                Instrument::Histogram(h) => {
                    let s = h.snapshot();
                    Json::Obj(vec![
                        ("type".into(), Json::str("histogram")),
                        ("name".into(), Json::str(*name)),
                        ("count".into(), Json::u64(s.count)),
                        ("sum".into(), Json::u64(s.sum)),
                        ("max".into(), Json::u64(s.max)),
                        ("p50".into(), Json::u64(s.percentile(0.50))),
                        ("p95".into(), Json::u64(s.percentile(0.95))),
                        ("p99".into(), Json::u64(s.percentile(0.99))),
                    ])
                }
            };
            out.push_str(&obj.to_string());
            out.push('\n');
        }
        out
    }

    /// Flatten every instrument into [`crate::report::MetricRow`]s, sorted
    /// by name — the shape [`crate::JobReport::with_metrics`] embeds.
    pub(crate) fn export_rows(&self) -> Vec<crate::report::MetricRow> {
        use crate::report::MetricRow;
        let Some(r) = &self.inner else {
            return Vec::new();
        };
        read_unpoisoned(&r.instruments)
            .iter()
            .map(|(name, inst)| match inst {
                Instrument::Counter(c) => MetricRow {
                    name: name.to_string(),
                    kind: "counter".into(),
                    value: c.load(Ordering::Relaxed) as i64,
                    ..Default::default()
                },
                Instrument::Gauge(g) => MetricRow {
                    name: name.to_string(),
                    kind: "gauge".into(),
                    value: g.load(Ordering::Relaxed),
                    ..Default::default()
                },
                Instrument::Histogram(h) => {
                    let s = h.snapshot();
                    MetricRow {
                        name: name.to_string(),
                        kind: "histogram".into(),
                        value: s.sum as i64,
                        count: s.count,
                        p50: s.percentile(0.50),
                        p95: s.percentile(0.95),
                        p99: s.percentile(0.99),
                        max: s.max,
                    }
                }
            })
            .collect()
    }
}

/// Monotonic counter handle. Inert when obtained from a disabled registry.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Signed point-in-time gauge handle.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

impl Gauge {
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(delta, Ordering::Relaxed);
        }
    }

    pub fn value(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// Distribution handle recording into power-of-two buckets.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("max", &s.max)
            .finish()
    }
}

impl Histogram {
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }

    /// Record a duration as microseconds.
    #[inline]
    pub fn record_duration(&self, dur: std::time::Duration) {
        self.record(dur.as_micros() as u64);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.as_ref().map(|h| h.snapshot()).unwrap_or_default()
    }
}

pub(crate) struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Bucket index for `value`: 0 → 0, otherwise `[2^(i-1), 2^i)` → `i`.
#[inline]
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a histogram's state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    /// Nearest-rank percentile estimate, `p` in `(0, 1]`. Returns the
    /// upper bound of the bucket containing the target rank, clamped to
    /// the observed max — exact to within the bucket's factor-of-two
    /// width.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let m = Metrics::enabled();
        let c = m.counter("ops");
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        assert_eq!(m.counter_value("ops"), 5);
        // Re-resolving the same name shares state.
        m.counter("ops").add(1);
        assert_eq!(m.counter_value("ops"), 6);

        let g = m.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(m.gauge_value("depth"), 7);
    }

    #[test]
    fn histogram_percentiles_bracket_the_data() {
        let m = Metrics::enabled();
        let h = m.histogram("lat");
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        // p50 of 1..=100 is 50; the bucket answer must be within 2x.
        let p50 = s.percentile(0.50);
        assert!((50..=127).contains(&p50), "p50 = {p50}");
        let p99 = s.percentile(0.99);
        assert!((99..=100).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn disabled_metrics_are_inert() {
        let m = Metrics::disabled();
        let c = m.counter("ops");
        c.inc();
        m.histogram("lat").record(5);
        m.gauge("g").set(3);
        assert_eq!(c.value(), 0);
        assert_eq!(m.counter_value("ops"), 0);
        assert!(m.histogram_snapshot("lat").is_none());
        assert!(m.to_jsonl().is_empty());
        assert!(m.names().is_empty());
    }

    #[test]
    fn jsonl_export_is_sorted_and_parseable() {
        let m = Metrics::enabled();
        m.counter("z.ops").add(3);
        m.histogram("a.lat").record(7);
        m.gauge("m.depth").set(-2);
        let text = m.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // BTreeMap ordering: a.lat, m.depth, z.ops.
        let parsed: Vec<Json> = lines.iter().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(parsed[0].get("name").and_then(Json::as_str), Some("a.lat"));
        assert_eq!(parsed[0].get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(
            parsed[1].get("name").and_then(Json::as_str),
            Some("m.depth")
        );
        assert_eq!(parsed[2].get("value").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn concurrent_histogram_recording() {
        let m = Metrics::enabled();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let h = m.histogram("lat");
                std::thread::spawn(move || {
                    for v in 0..1000u64 {
                        h.record(v);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let s = m.histogram_snapshot("lat").unwrap();
        assert_eq!(s.count, 8000);
        assert_eq!(s.max, 999);
        assert_eq!(s.buckets.iter().sum::<u64>(), 8000);
    }
}
