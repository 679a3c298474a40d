//! Seeded chaos-injection storage backend.
//!
//! Grown out of the ad-hoc `FaultyStorage` the failure-injection tests
//! used: a first-class [`Storage`] wrapper that injects the fault classes a
//! parallel file system actually exhibits, from a seeded RNG so every
//! schedule is reproducible. Tests and benches wrap any backend in
//! [`ChaosStorage`] to prove the stack degrades instead of corrupting:
//!
//! * **Transient faults** — an op fails once with [`SpioError::Io`]; the
//!   same op retried succeeds. What [`crate::RetryStorage`] absorbs.
//! * **Persistent faults** — a file is *poisoned*: every subsequent op on
//!   it fails. What `read_box_partial` degrades around.
//! * **Torn writes** — a prefix of the data is persisted, then the write
//!   reports failure. What atomic write-then-rename and
//!   `DatasetReader::open` validation must tolerate.
//! * **Bit flips** — a read returns successfully with one bit silently
//!   flipped. What format-v2 checksums must catch.
//! * **Budgets** — the first `n` reads/writes succeed and all later ones
//!   fail: deterministic "storage died mid-job" schedules.
//!
//! Only payload ops (`write_file`, `write_range`, `read_file`,
//! `read_range`) are faultable; `file_size` and `exists` pass through, so
//! fault schedules stay easy to reason about.

use crate::storage::Storage;
use spio_trace::Trace;
use spio_types::SpioError;
use spio_util::{lock_unpoisoned, Rng};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// What to inject, and how often. The default injects nothing.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for all randomized decisions (fault rolls, tear points, flip
    /// positions). Same seed + same op sequence → same chaos.
    pub seed: u64,
    /// Probability an eligible read op faults.
    pub read_fault_rate: f64,
    /// Probability an eligible write op faults.
    pub write_fault_rate: f64,
    /// Of randomly injected faults, the fraction that are transient; the
    /// rest poison the file persistently.
    pub transient_ratio: f64,
    /// Deterministic schedule overriding the random rates: faultable ops
    /// `1, 1+n, 1+2n, …` (1-based) fail with a transient fault. `Some(1)`
    /// makes every op fail — a persistent outage.
    pub transient_every: Option<u64>,
    /// Probability a `write_file` is torn: a random strict prefix is
    /// persisted and the op reports failure.
    pub torn_write_rate: f64,
    /// Probability a successful read comes back with one bit flipped.
    pub bit_flip_rate: f64,
    /// Writes allowed before all writes fail (`None` = unlimited).
    pub write_budget: Option<u64>,
    /// Reads allowed before all reads fail (`None` = unlimited).
    pub read_budget: Option<u64>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            read_fault_rate: 0.0,
            write_fault_rate: 0.0,
            transient_ratio: 1.0,
            transient_every: None,
            torn_write_rate: 0.0,
            bit_flip_rate: 0.0,
            write_budget: None,
            read_budget: None,
        }
    }
}

impl ChaosConfig {
    /// Budget-only config: first `writes` writes and `reads` reads succeed,
    /// later ones fail (the old `FaultyStorage` behaviour).
    pub fn budgets(writes: u64, reads: u64) -> Self {
        ChaosConfig {
            write_budget: Some(writes),
            read_budget: Some(reads),
            ..ChaosConfig::default()
        }
    }
}

/// Counters of everything injected so far — for assertions and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Faults injected by `transient_every` or the transient share of the
    /// random rates.
    pub transient_faults: u64,
    /// Random faults that poisoned a file, plus every op rejected because
    /// its file was already poisoned.
    pub persistent_faults: u64,
    /// Writes that persisted only a prefix.
    pub torn_writes: u64,
    /// Reads returned with a silently flipped bit.
    pub bit_flips: u64,
    /// Ops rejected by an exhausted read/write budget.
    pub budget_faults: u64,
}

#[derive(Debug)]
struct ChaosState {
    rng: Rng,
    /// 1-based index of the next faultable op (for `transient_every`).
    next_op: u64,
    poisoned: HashSet<String>,
    write_budget: Option<u64>,
    read_budget: Option<u64>,
    stats: ChaosStats,
}

enum Verdict {
    Proceed,
    /// Fail with an I/O error; the kind ("transient", "persistent",
    /// "budget") is already counted in the stats.
    Fault(&'static str),
    /// Persist `data[..tear_at]` then fail.
    Tear(usize),
}

/// A [`Storage`] wrapper injecting seeded faults per a [`ChaosConfig`].
///
/// With [`ChaosStorage::with_trace`], every injection is additionally
/// recorded as a first-class *injected* fault event, so `spio report`
/// separates chaos-injected faults from organic backend errors.
#[derive(Debug, Clone)]
pub struct ChaosStorage<S: Storage> {
    inner: S,
    config: ChaosConfig,
    state: Arc<Mutex<ChaosState>>,
    trace: Trace,
    rank: usize,
}

impl<S: Storage> ChaosStorage<S> {
    pub fn new(inner: S, config: ChaosConfig) -> Self {
        let state = ChaosState {
            rng: Rng::seed_from_u64(config.seed),
            next_op: 1,
            poisoned: HashSet::new(),
            write_budget: config.write_budget,
            read_budget: config.read_budget,
            stats: ChaosStats::default(),
        };
        ChaosStorage {
            inner,
            config,
            state: Arc::new(Mutex::new(state)),
            trace: Trace::off(),
            rank: 0,
        }
    }

    /// Record every injected fault into `trace` as a fault event
    /// attributed to `rank` (with `injected == true`).
    pub fn with_trace(mut self, trace: Trace, rank: usize) -> Self {
        self.trace = trace;
        self.rank = rank;
        self
    }

    /// The wrapped backend — handy for seeding files without chaos.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Snapshot of the injection counters.
    pub fn stats(&self) -> ChaosStats {
        lock_unpoisoned(&self.state).stats
    }

    /// Explicitly poison `name`: every subsequent op on it fails. Lets
    /// tests stage "one bad file" scenarios without probabilistic config.
    pub fn poison(&self, name: &str) {
        lock_unpoisoned(&self.state)
            .poisoned
            .insert(name.to_string());
    }

    /// Decide the fate of one faultable op. `write` selects which budget
    /// and rate apply; `len` is the write length (for tear points).
    fn roll(&self, name: &str, write: bool, len: usize) -> Verdict {
        let st = &mut *lock_unpoisoned(&self.state);
        let budget = if write {
            &mut st.write_budget
        } else {
            &mut st.read_budget
        };
        if let Some(b) = budget {
            if *b == 0 {
                st.stats.budget_faults += 1;
                return Verdict::Fault("budget");
            }
            *b -= 1;
        }
        if st.poisoned.contains(name) {
            st.stats.persistent_faults += 1;
            return Verdict::Fault("persistent");
        }
        let op = st.next_op;
        st.next_op += 1;
        if let Some(every) = self.config.transient_every {
            if every > 0 && (op - 1).is_multiple_of(every) {
                st.stats.transient_faults += 1;
                return Verdict::Fault("transient");
            }
        }
        let rate = if write {
            self.config.write_fault_rate
        } else {
            self.config.read_fault_rate
        };
        if rate > 0.0 && st.rng.f64() < rate {
            if st.rng.f64() < self.config.transient_ratio {
                st.stats.transient_faults += 1;
                return Verdict::Fault("transient");
            }
            st.poisoned.insert(name.to_string());
            st.stats.persistent_faults += 1;
            return Verdict::Fault("persistent");
        }
        if write
            && len > 0
            && self.config.torn_write_rate > 0.0
            && st.rng.f64() < self.config.torn_write_rate
        {
            st.stats.torn_writes += 1;
            return Verdict::Tear(st.rng.u64_below(len as u64) as usize);
        }
        Verdict::Proceed
    }

    /// Maybe flip one bit of a successful read's buffer; reports whether a
    /// flip was injected.
    fn maybe_flip(&self, buf: &mut [u8]) -> bool {
        if buf.is_empty() || self.config.bit_flip_rate <= 0.0 {
            return false;
        }
        let st = &mut *lock_unpoisoned(&self.state);
        if st.rng.f64() < self.config.bit_flip_rate {
            let byte = st.rng.u64_below(buf.len() as u64) as usize;
            let bit = (st.rng.next_u64() % 8) as u8;
            buf[byte] ^= 1 << bit;
            st.stats.bit_flips += 1;
            return true;
        }
        false
    }

    /// Record the injection as a fault event (the state lock is already
    /// released) and build the error callers see.
    fn inject(&self, kind: &'static str, name: &str) -> SpioError {
        self.trace.fault(self.rank, kind, name, true);
        SpioError::Io(std::io::Error::other(match kind {
            "budget" => "injected budget fault",
            "persistent" => "injected persistent fault",
            "transient" => "injected transient fault",
            "torn_write" => "injected torn write",
            other => other,
        }))
    }
}

impl<S: Storage> Storage for ChaosStorage<S> {
    fn write_file(&self, name: &str, data: &[u8]) -> Result<(), SpioError> {
        match self.roll(name, true, data.len()) {
            Verdict::Proceed => self.inner.write_file(name, data),
            Verdict::Fault(kind) => Err(self.inject(kind, name)),
            Verdict::Tear(at) => {
                let _ = self.inner.write_file(name, &data[..at]);
                Err(self.inject("torn_write", name))
            }
        }
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>, SpioError> {
        match self.roll(name, false, 0) {
            Verdict::Proceed => {
                let mut buf = self.inner.read_file(name)?;
                if self.maybe_flip(&mut buf) {
                    self.trace.fault(self.rank, "bit_flip", name, true);
                }
                Ok(buf)
            }
            Verdict::Fault(kind) => Err(self.inject(kind, name)),
            Verdict::Tear(_) => unreachable!("reads never tear"),
        }
    }

    fn read_range(&self, name: &str, start: u64, end: u64) -> Result<Vec<u8>, SpioError> {
        match self.roll(name, false, 0) {
            Verdict::Proceed => {
                let mut buf = self.inner.read_range(name, start, end)?;
                if self.maybe_flip(&mut buf) {
                    self.trace.fault(self.rank, "bit_flip", name, true);
                }
                Ok(buf)
            }
            Verdict::Fault(kind) => Err(self.inject(kind, name)),
            Verdict::Tear(_) => unreachable!("reads never tear"),
        }
    }

    fn file_size(&self, name: &str) -> Result<u64, SpioError> {
        self.inner.file_size(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn write_range(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), SpioError> {
        match self.roll(name, true, data.len()) {
            Verdict::Proceed => self.inner.write_range(name, offset, data),
            Verdict::Fault(kind) => Err(self.inject(kind, name)),
            Verdict::Tear(at) => {
                let _ = self.inner.write_range(name, offset, &data[..at]);
                Err(self.inject("torn_write", name))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    #[test]
    fn default_config_is_transparent() {
        let chaos = ChaosStorage::new(MemStorage::new(), ChaosConfig::default());
        chaos.write_file("a", &[1, 2, 3]).unwrap();
        assert_eq!(chaos.read_file("a").unwrap(), vec![1, 2, 3]);
        assert_eq!(chaos.read_range("a", 1, 3).unwrap(), vec![2, 3]);
        assert_eq!(chaos.file_size("a").unwrap(), 3);
        assert_eq!(chaos.stats(), ChaosStats::default());
    }

    #[test]
    fn budgets_exhaust_like_faulty_storage() {
        let chaos = ChaosStorage::new(MemStorage::new(), ChaosConfig::budgets(1, 1));
        chaos.write_file("a", &[1]).unwrap();
        assert!(matches!(chaos.write_file("b", &[2]), Err(SpioError::Io(_))));
        assert_eq!(chaos.read_file("a").unwrap(), vec![1]);
        assert!(chaos.read_file("a").is_err());
        assert_eq!(chaos.stats().budget_faults, 2);
    }

    #[test]
    fn transient_every_schedule_is_exact() {
        let chaos = ChaosStorage::new(
            MemStorage::new(),
            ChaosConfig {
                transient_every: Some(3),
                ..ChaosConfig::default()
            },
        );
        chaos.inner().write_file("a", &[7]).unwrap();
        // Ops 1, 4, 7 fault; 2, 3, 5, 6, 8 succeed.
        let outcomes: Vec<bool> = (0..8).map(|_| chaos.read_file("a").is_ok()).collect();
        assert_eq!(
            outcomes,
            vec![false, true, true, false, true, true, false, true]
        );
        assert_eq!(chaos.stats().transient_faults, 3);
    }

    #[test]
    fn poisoned_files_fail_persistently_others_work() {
        let chaos = ChaosStorage::new(MemStorage::new(), ChaosConfig::default());
        chaos.write_file("good", &[1]).unwrap();
        chaos.write_file("bad", &[2]).unwrap();
        chaos.poison("bad");
        for _ in 0..3 {
            assert!(matches!(chaos.read_file("bad"), Err(SpioError::Io(_))));
            assert_eq!(chaos.read_file("good").unwrap(), vec![1]);
        }
        assert_eq!(chaos.stats().persistent_faults, 3);
    }

    #[test]
    fn torn_writes_persist_a_strict_prefix() {
        let chaos = ChaosStorage::new(
            MemStorage::new(),
            ChaosConfig {
                seed: 11,
                torn_write_rate: 1.0,
                ..ChaosConfig::default()
            },
        );
        let data = vec![0xAB; 100];
        assert!(chaos.write_file("t", &data).is_err());
        let stats = chaos.stats();
        assert_eq!(stats.torn_writes, 1);
        // Whatever landed is shorter than the intended write.
        let on_disk = chaos.inner().read_file("t").map(|d| d.len()).unwrap_or(0);
        assert!(on_disk < data.len(), "torn write persisted {on_disk} bytes");
    }

    #[test]
    fn bit_flips_corrupt_silently() {
        let chaos = ChaosStorage::new(
            MemStorage::new(),
            ChaosConfig {
                seed: 5,
                bit_flip_rate: 1.0,
                ..ChaosConfig::default()
            },
        );
        let data = vec![0u8; 64];
        chaos.write_file("f", &data).unwrap();
        let got = chaos.read_file("f").unwrap(); // Ok — corruption is silent
        let flipped: u32 = got
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit flips per affected read");
        assert_eq!(chaos.stats().bit_flips, 1);
    }

    #[test]
    fn random_faults_are_reproducible_across_seeds() {
        let run = |seed: u64| -> Vec<bool> {
            let chaos = ChaosStorage::new(
                MemStorage::new(),
                ChaosConfig {
                    seed,
                    read_fault_rate: 0.5,
                    transient_ratio: 1.0,
                    ..ChaosConfig::default()
                },
            );
            chaos.inner().write_file("a", &[1]).unwrap();
            (0..32).map(|_| chaos.read_file("a").is_ok()).collect()
        };
        assert_eq!(run(99), run(99), "same seed, same schedule");
        assert_ne!(run(99), run(100), "different seed, different schedule");
        let outcomes = run(99);
        assert!(outcomes.iter().any(|&ok| ok) && outcomes.iter().any(|&ok| !ok));
    }

    #[test]
    fn injections_are_recorded_as_fault_events() {
        let trace = Trace::collecting();
        let chaos = ChaosStorage::new(
            MemStorage::new(),
            ChaosConfig {
                transient_every: Some(2),
                ..ChaosConfig::default()
            },
        )
        .with_trace(trace.clone(), 5);
        chaos.inner().write_file("a", &[1]).unwrap();
        // Ops 1 and 3 fault, op 2 succeeds.
        let outcomes: Vec<bool> = (0..3).map(|_| chaos.read_file("a").is_ok()).collect();
        assert_eq!(outcomes, vec![false, true, false]);
        let faults: Vec<_> = trace
            .events()
            .into_iter()
            .filter(|e| {
                matches!(
                    e,
                    spio_trace::TraceEvent::Fault {
                        rank: 5,
                        kind: "transient",
                        injected: true,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(faults.len(), 2);
        assert_eq!(trace.snapshot().files, vec!["a"]);
    }

    #[test]
    fn torn_and_flip_injections_record_their_kinds() {
        let trace = Trace::collecting();
        let chaos = ChaosStorage::new(
            MemStorage::new(),
            ChaosConfig {
                seed: 11,
                torn_write_rate: 1.0,
                bit_flip_rate: 1.0,
                ..ChaosConfig::default()
            },
        )
        .with_trace(trace.clone(), 0);
        chaos.inner().write_file("f", &[0u8; 64]).unwrap();
        assert!(chaos.write_file("t", &[0xAB; 100]).is_err());
        let _ = chaos.read_file("f").unwrap();
        let kinds: Vec<&str> = trace
            .events()
            .into_iter()
            .filter_map(|e| match e {
                spio_trace::TraceEvent::Fault {
                    kind,
                    injected: true,
                    ..
                } => Some(kind),
                _ => None,
            })
            .collect();
        assert!(kinds.contains(&"torn_write"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"bit_flip"), "kinds: {kinds:?}");
    }

    #[test]
    fn clones_share_state() {
        let a = ChaosStorage::new(MemStorage::new(), ChaosConfig::budgets(1, u64::MAX));
        let b = a.clone();
        a.write_file("x", &[1]).unwrap();
        assert!(b.write_file("y", &[2]).is_err(), "budget is shared");
        assert_eq!(a.stats(), b.stats());
    }
}
