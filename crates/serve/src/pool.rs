//! Std-only worker pool and admission gate for the query executor.
//!
//! The pool fans per-file decode+filter jobs across a fixed set of threads;
//! the gate bounds how many *queries* are in flight at once, so a burst of
//! clients degrades to queueing instead of unbounded memory growth (each
//! admitted query can hold decoded blocks while it assembles its result).
//!
//! Panic containment: a job that panics must not take the server down with
//! it. Workers catch job panics and keep draining the queue (the panicking
//! job's dropped completion channel is how the engine sees the failure),
//! and every lock acquisition is poison-tolerant — a panic observed by one
//! thread never cascades into `PoisonError` unwinds across the rest of the
//! pool.

use spio_trace::Gauge;
use spio_util::{lock_unpoisoned, wait_unpoisoned};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fixed-size thread pool executing boxed jobs from a shared queue.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads (at least one asked for). A thread the OS
    /// refuses is skipped; with none at all, [`WorkerPool::submit`] runs
    /// every job inline.
    pub fn new(workers: usize) -> WorkerPool {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers.max(1))
            .filter_map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("spio-serve-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .ok()
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Queue a job. If the queue is somehow gone (every worker killed from
    /// outside), the job runs inline on the caller instead of panicking the
    /// submitting query thread.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let Some(tx) = self.tx.as_ref() else {
            job();
            return;
        };
        if let Err(returned) = tx.send(Box::new(job)) {
            (returned.0)();
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        // Lock only to dequeue; run the job with the queue unlocked so
        // other workers keep draining.
        let job = match lock_unpoisoned(rx).recv() {
            Ok(job) => job,
            Err(_) => return, // pool dropped its sender: drain done
        };
        // Contain the blast radius of a bad job and go back to serving.
        // The job's own completion channel (if any) drops here, which is
        // how the engine observes the failure.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.tx.take(); // close the queue; workers exit after draining it
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Counting semaphore bounding in-flight queries, with the current depth
/// mirrored into a `serve.inflight` gauge.
pub struct AdmissionGate {
    state: Mutex<usize>,
    cv: std::sync::Condvar,
    max: usize,
    inflight: Gauge,
}

impl AdmissionGate {
    pub fn new(max: usize, inflight: Gauge) -> AdmissionGate {
        AdmissionGate {
            state: Mutex::new(0),
            cv: std::sync::Condvar::new(),
            max: max.max(1),
            inflight,
        }
    }

    /// Block until a slot frees, then take it. The returned permit releases
    /// on drop (also on panic, so a failed query never leaks a slot).
    pub fn acquire(&self) -> Permit<'_> {
        let mut n = lock_unpoisoned(&self.state);
        while *n >= self.max {
            n = wait_unpoisoned(&self.cv, n);
        }
        *n += 1;
        self.inflight.set(*n as i64);
        Permit { gate: self }
    }
}

/// RAII slot in the admission gate.
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut n = lock_unpoisoned(&self.gate.state);
        *n -= 1;
        self.gate.inflight.set(*n as i64);
        drop(n);
        self.gate.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn pool_runs_all_jobs_and_joins_on_drop() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(4);
            assert_eq!(pool.workers(), 4);
            for _ in 0..100 {
                let done = done.clone();
                pool.submit(move || {
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop waits for the queue to drain
        assert_eq!(done.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let (tx, rx) = channel();
        pool.submit(move || tx.send(42).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 42);
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            // One worker: if the panic killed it, every later job would
            // sit in the queue forever and drop-join would deadlock.
            let pool = WorkerPool::new(1);
            pool.submit(|| panic!("bad job"));
            for _ in 0..50 {
                let done = done.clone();
                pool.submit(move || {
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop drains the queue through the surviving worker.
        }
        assert_eq!(done.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn pool_keeps_running_jobs_after_two_panics() {
        // Two workers, two panics: if either panic killed its worker, or
        // both did, the jobs queued behind them would never report.
        let pool = WorkerPool::new(2);
        pool.submit(|| panic!("one"));
        pool.submit(|| panic!("two"));
        let (tx, rx) = channel();
        for i in 0..10 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).unwrap());
        }
        let mut got: Vec<i32> = (0..10)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn gate_bounds_concurrency() {
        let metrics = spio_trace::Trace::collecting().metrics();
        let gate = Arc::new(AdmissionGate::new(3, metrics.gauge("serve.inflight")));
        let active = Arc::new(AtomicUsize::new(0));
        let high_water = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..16)
            .map(|_| {
                let (gate, active, high) = (gate.clone(), active.clone(), high_water.clone());
                std::thread::spawn(move || {
                    let _permit = gate.acquire();
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    high.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                    active.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(high_water.load(Ordering::SeqCst) <= 3);
        assert_eq!(metrics.gauge_value("serve.inflight"), 0);
    }

    #[test]
    fn permit_releases_on_panic() {
        let metrics = spio_trace::Trace::collecting().metrics();
        let gate = Arc::new(AdmissionGate::new(1, metrics.gauge("serve.inflight")));
        let g = gate.clone();
        let _ = std::thread::spawn(move || {
            let _permit = g.acquire();
            panic!("query died");
        })
        .join();
        // The slot must be free again — and the poisoned gate mutex must
        // still be usable by every other query thread.
        let _permit = gate.acquire();
        assert_eq!(metrics.gauge_value("serve.inflight"), 1);
    }
}
