//! A loom-lite deterministic schedule explorer for multi-rank comm
//! programs.
//!
//! The thread runtime (`run_threaded`) gives the OS scheduler free rein, so
//! a test that passes a thousand times can still hide an
//! interleaving-dependent bug. The explorer removes the nondeterminism: all
//! rank threads share a single *run token*, only the token holder executes,
//! and at every communication yield point (message send, blocking receive,
//! rank completion) a seeded RNG picks which runnable rank gets the token
//! next. One seed is one reproducible schedule; `k` seeds are `k`
//! different total orders over the same program.
//!
//! Deadlocks are *structural*, not temporal: when every unfinished rank is
//! blocked on a receive whose message does not exist, no schedule can make
//! progress, and the explorer fails immediately with the wait-for graph —
//! `rank a <- waiting on rank b (tag t)` — instead of letting the test
//! suite hang until a wall-clock timeout.
//!
//! [`ExplorerComm`] implements [`CollectiveComm`], so every collective
//! algorithm in `spio_comm::collectives` runs over the explorer unchanged;
//! the schedule-invariance suite in `tests/schedule_explorer.rs` leans on
//! exactly that.

use spio_comm::COLLECTIVE_TAG_BASE;
use spio_comm::{collectives, CollectiveComm, Comm, RecvHandle, SendHandle, Tag};
use spio_types::{Rank, SpioError};
use spio_util::{lock_unpoisoned, wait_timeout_unpoisoned, Rng};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Wall-clock backstop for scheduler waits. Structural deadlock detection
/// means a *program* deadlock never waits this long; only a bug in the
/// scheduler itself could, and then failing loudly beats hanging CI.
const SCHED_BACKSTOP: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked { src: Rank, tag: Tag },
    Finished,
}

struct SchedState {
    current: usize,
    status: Vec<Status>,
    /// In-flight messages: `(dst, src, tag)` → FIFO payload queue
    /// (non-overtaking per key, same as the thread runtime's mailboxes).
    mail: HashMap<(Rank, Rank, Tag), VecDeque<Vec<u8>>>,
    rng: Rng,
    /// Set when the schedule can no longer make progress (structural
    /// deadlock) or a rank panicked: every thread runs free so the job can
    /// unwind, and blocked receives fail with the diagnosis.
    free_run: bool,
    diagnosis: Option<String>,
}

impl SchedState {
    /// Render the wait-for graph from the blocked set.
    fn wait_graph(&self) -> String {
        let lines: Vec<String> = self
            .status
            .iter()
            .enumerate()
            .filter_map(|(rank, s)| match s {
                Status::Blocked { src, tag } => Some(format!(
                    "  rank {rank} <- waiting on rank {src} (tag {:#x})",
                    tag
                )),
                _ => None,
            })
            .collect();
        if lines.is_empty() {
            "  (no ranks blocked)".to_string()
        } else {
            lines.join("\n")
        }
    }

    /// Hand the token to a randomly chosen runnable rank. When nothing is
    /// runnable: all-finished is a clean end; anything else is a
    /// structural deadlock and flips the state into free-run with the
    /// wait-for graph as diagnosis.
    fn choose_next(&mut self) {
        let runnable: Vec<usize> = self
            .status
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if let Some(&pick) = runnable.get(self.rng.index(runnable.len().max(1))) {
            self.current = pick;
            return;
        }
        if self.status.iter().all(|s| *s == Status::Finished) {
            self.current = usize::MAX;
            return;
        }
        let graph = self.wait_graph();
        self.free_run = true;
        self.diagnosis = Some(format!(
            "structural deadlock: no rank can make progress\nwait-for graph:\n{graph}"
        ));
    }
}

struct Sched {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl Sched {
    fn new(nprocs: usize, seed: u64) -> Arc<Sched> {
        Arc::new(Sched {
            state: Mutex::new(SchedState {
                current: 0,
                status: vec![Status::Runnable; nprocs],
                mail: HashMap::new(),
                rng: Rng::seed_from_u64(seed),
                free_run: false,
                diagnosis: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// Block until `me` holds the token (or the job is in free-run).
    fn wait_for_turn<'a>(
        &'a self,
        me: Rank,
        mut state: std::sync::MutexGuard<'a, SchedState>,
    ) -> std::sync::MutexGuard<'a, SchedState> {
        while !state.free_run && state.current != me {
            let (guard, timed_out) = wait_timeout_unpoisoned(&self.cv, state, SCHED_BACKSTOP);
            state = guard;
            if timed_out.timed_out() && !state.free_run && state.current != me {
                state.free_run = true;
                state.diagnosis = Some(
                    "schedule explorer backstop fired: scheduler wedged (explorer bug)".to_string(),
                );
                self.cv.notify_all();
            }
        }
        state
    }

    fn send(&self, me: Rank, dest: Rank, tag: Tag, data: Vec<u8>) {
        let mut state = lock_unpoisoned(&self.state);
        state
            .mail
            .entry((dest, me, tag))
            .or_default()
            .push_back(data);
        // A rank blocked on exactly this (src, tag) becomes runnable.
        if state.status[dest] == (Status::Blocked { src: me, tag }) {
            state.status[dest] = Status::Runnable;
        }
        if state.free_run {
            self.cv.notify_all();
            return;
        }
        state.choose_next();
        self.cv.notify_all();
        let _state = self.wait_for_turn(me, state);
    }

    fn recv(&self, me: Rank, src: Rank, tag: Tag) -> Result<Vec<u8>, SpioError> {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            if let Some(q) = state.mail.get_mut(&(me, src, tag)) {
                if let Some(msg) = q.pop_front() {
                    if q.is_empty() {
                        state.mail.remove(&(me, src, tag));
                    }
                    return Ok(msg);
                }
            }
            if state.free_run {
                let why = state
                    .diagnosis
                    .clone()
                    .unwrap_or_else(|| "job unwinding after failure".to_string());
                return Err(SpioError::Comm(format!(
                    "rank {me}: receive from rank {src} tag {tag:#x} cannot complete: {why}"
                )));
            }
            state.status[me] = Status::Blocked { src, tag };
            state.choose_next();
            self.cv.notify_all();
            state = self.wait_for_turn(me, state);
        }
    }

    fn finish(&self, me: Rank) {
        let mut state = lock_unpoisoned(&self.state);
        state.status[me] = Status::Finished;
        if !state.free_run {
            state.choose_next();
        }
        self.cv.notify_all();
    }
}

/// One rank's communicator inside an explored schedule. Implements
/// [`CollectiveComm`]: collectives run the *same* algorithms the thread
/// runtime uses (`dissemination_barrier`, `ring_allgather`, …), just over
/// the deterministic scheduler.
pub struct ExplorerComm {
    sched: Arc<Sched>,
    rank: Rank,
    size: usize,
    coll_seq: Cell<u32>,
}

impl Comm for ExplorerComm {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn isend(&self, dest: Rank, tag: Tag, data: Vec<u8>) -> SendHandle {
        assert!(
            dest < self.size,
            "rank {} addressed peer {dest} outside world of size {}",
            self.rank,
            self.size
        );
        self.sched.send(self.rank, dest, tag, data);
        SendHandle::from_fn(|| {})
    }

    fn irecv(&self, src: Rank, tag: Tag) -> RecvHandle {
        assert!(
            src < self.size,
            "rank {} addressed peer {src} outside world of size {}",
            self.rank,
            self.size
        );
        let sched = Arc::clone(&self.sched);
        let me = self.rank;
        RecvHandle::from_fn(move || sched.recv(me, src, tag))
    }

    fn barrier(&self) {
        collectives::dissemination_barrier(self);
    }

    fn allgather(&self, data: &[u8]) -> Vec<Vec<u8>> {
        collectives::ring_allgather(self, data)
    }

    fn alltoall(&self, sends: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        collectives::direct_alltoall(self, sends)
    }

    fn gather_to(&self, root: Rank, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        collectives::gather_to(self, root, data)
    }

    fn broadcast(&self, root: Rank, data: Vec<u8>) -> Vec<u8> {
        collectives::binomial_broadcast(self, root, data)
    }

    /// Timeouts are meaningless under deterministic scheduling — a recv
    /// either completes in some schedule step or the job is structurally
    /// deadlocked, which the scheduler detects without a clock.
    fn recv_timeout(&self, src: Rank, tag: Tag, _timeout: Duration) -> Result<Vec<u8>, SpioError> {
        self.sched.recv(self.rank, src, tag)
    }

    fn unconsumed(&self) -> Vec<(Rank, Tag, usize)> {
        let state = lock_unpoisoned(&self.sched.state);
        let mut out: Vec<(Rank, Tag, usize)> = state
            .mail
            .iter()
            .filter(|((dst, _, _), _)| *dst == self.rank)
            .flat_map(|(&(_, src, tag), q)| q.iter().map(move |m| (src, tag, m.len())))
            .collect();
        out.sort_unstable();
        out
    }
}

impl CollectiveComm for ExplorerComm {
    fn next_collective_tag(&self) -> Tag {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        COLLECTIVE_TAG_BASE + (seq % 0x0fff_ffff) * 8
    }
}

/// Run `f` once per rank under one seeded deterministic schedule,
/// discarding per-rank results.
pub fn explore<F>(nprocs: usize, seed: u64, f: F) -> Result<(), SpioError>
where
    F: Fn(ExplorerComm) + Send + Sync + 'static,
{
    explore_collect(nprocs, seed, f).map(|_| ())
}

/// Run `f` once per rank under one seeded deterministic schedule and
/// collect rank-indexed results.
///
/// Fails with a rank-attributed diagnosis when a rank panics, when the
/// schedule reaches a structural deadlock (the error carries the wait-for
/// graph), or when messages are left undelivered at the end (leak check,
/// mirroring `run_threaded_collect`).
pub fn explore_collect<F, T>(nprocs: usize, seed: u64, f: F) -> Result<Vec<T>, SpioError>
where
    F: Fn(ExplorerComm) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    assert!(nprocs > 0, "world size must be positive");
    let sched = Sched::new(nprocs, seed);
    let f = Arc::new(f);
    let handles: Vec<_> = (0..nprocs)
        .map(|rank| {
            let sched = Arc::clone(&sched);
            let f = Arc::clone(&f);
            #[expect(
                clippy::expect_used,
                reason = "ranks already spawned would wait forever for the missing \
                          rank's turn; returning an error needs their teardown first"
            )]
            let handle = std::thread::Builder::new()
                .name(format!("explore-rank-{rank}"))
                .stack_size(2 * 1024 * 1024)
                .spawn(move || {
                    let comm = ExplorerComm {
                        sched: Arc::clone(&sched),
                        rank,
                        size: nprocs,
                        coll_seq: Cell::new(0),
                    };
                    // Wait for the initial token (rank 0 starts with it).
                    {
                        let state = lock_unpoisoned(&sched.state);
                        let _state = sched.wait_for_turn(rank, state);
                    }
                    let result = catch_unwind(AssertUnwindSafe(|| f(comm)));
                    // Pass the token on even when unwinding, or the
                    // remaining ranks would wait forever.
                    sched.finish(rank);
                    result
                })
                .expect("failed to spawn explorer rank thread");
            handle
        })
        .collect();

    let mut results: Vec<Option<T>> = (0..nprocs).map(|_| None).collect();
    let mut first_panic: Option<(usize, String)> = None;
    for (rank, handle) in handles.into_iter().enumerate() {
        // Rank panics are caught inside the thread; a join error is a panic
        // in the harness itself, re-raised here.
        match handle
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e))
        {
            Ok(v) => results[rank] = Some(v),
            Err(payload) => {
                if first_panic.is_none() {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    first_panic = Some((rank, msg));
                }
            }
        }
    }
    let state = lock_unpoisoned(&sched.state);
    if let Some((rank, msg)) = first_panic {
        let diagnosis = state
            .diagnosis
            .clone()
            .map(|d| format!("\n{d}"))
            .unwrap_or_default();
        return Err(SpioError::Comm(format!(
            "rank {rank} panicked: {msg}{diagnosis}"
        )));
    }
    if let Some(d) = &state.diagnosis {
        return Err(SpioError::Comm(d.clone()));
    }
    let leaks: Vec<String> = {
        let mut sorted: BTreeMap<(Rank, Rank, Tag), usize> = BTreeMap::new();
        for (&(dst, src, tag), q) in &state.mail {
            if !q.is_empty() {
                *sorted.entry((dst, src, tag)).or_default() += q.len();
            }
        }
        sorted
            .into_iter()
            .map(|((dst, src, tag), n)| {
                format!("rank {dst}: {n} unreceived message(s) from rank {src} tag {tag:#x}")
            })
            .collect()
    };
    if !leaks.is_empty() {
        return Err(SpioError::Comm(format!(
            "message leak at end of schedule: {}",
            leaks.join("; ")
        )));
    }
    Ok(results.into_iter().map(Option::unwrap).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_roundtrip_under_many_seeds() {
        for seed in 0..20 {
            let results = explore_collect(2, seed, |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 5, vec![1, 2, 3]);
                    comm.recv(1, 6).unwrap()
                } else {
                    let mut m = comm.recv(0, 5).unwrap();
                    m.reverse();
                    comm.send(0, 6, m);
                    Vec::new()
                }
            })
            .unwrap();
            assert_eq!(results[0], vec![3, 2, 1], "seed {seed}");
        }
    }

    #[test]
    fn recv_without_send_is_structural_deadlock_not_hang() {
        let start = std::time::Instant::now();
        let err = explore(2, 7, |comm| {
            if comm.rank() == 0 {
                comm.recv(1, 42).unwrap();
            }
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("structural deadlock"), "{msg}");
        assert!(msg.contains("rank 0 <- waiting on rank 1"), "{msg}");
        // Structural detection is immediate — no wall-clock timeout.
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn cyclic_wait_dumps_full_graph() {
        let err = explore(2, 3, |comm| {
            // Both ranks receive first: classic head-to-head deadlock.
            let peer = 1 - comm.rank();
            let _ = comm.recv(peer, 1);
            comm.send(peer, 1, vec![1]);
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("rank 0 <- waiting on rank 1"), "{msg}");
        assert!(msg.contains("rank 1 <- waiting on rank 0"), "{msg}");
    }

    #[test]
    fn undelivered_message_is_a_leak() {
        let err = explore(2, 1, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, vec![1]);
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("message leak"), "{}", err);
    }

    #[test]
    fn collectives_run_over_the_explorer() {
        let results = explore_collect(4, 11, |comm| {
            comm.barrier();
            let g = comm.allgather(&[comm.rank() as u8]);
            let b = comm.broadcast(2, if comm.rank() == 2 { vec![7] } else { vec![] });
            (g, b)
        })
        .unwrap();
        for (g, b) in results {
            assert_eq!(g, vec![vec![0], vec![1], vec![2], vec![3]]);
            assert_eq!(b, vec![7]);
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        // The schedule trace (order of receives completing) must be
        // byte-identical across runs with the same seed.
        let order_of = |seed: u64| {
            explore_collect(3, seed, |comm| {
                if comm.rank() == 0 {
                    let a = comm.irecv(1, 1);
                    let b = comm.irecv(2, 1);
                    let x = a.wait().unwrap();
                    let y = b.wait().unwrap();
                    vec![x[0], y[0]]
                } else {
                    comm.send(0, 1, vec![comm.rank() as u8]);
                    vec![]
                }
            })
            .unwrap()
        };
        for seed in [0, 1, 2, 42] {
            assert_eq!(order_of(seed), order_of(seed), "seed {seed}");
        }
    }
}
