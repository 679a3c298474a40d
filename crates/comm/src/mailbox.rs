//! Per-rank message mailboxes with MPI-style `(source, tag)` matching.

use crate::Tag;
use spio_types::{Rank, SpioError};
use spio_util::{lock_unpoisoned, wait_timeout_unpoisoned};
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a blocking receive waits before declaring the job deadlocked.
/// Generous enough for heavily oversubscribed test machines, short enough
/// that a wedged integration test fails with a useful message instead of
/// hanging CI.
pub const RECV_DEADLOCK_TIMEOUT: Duration = Duration::from_secs(120);

/// One rank's incoming-message store. Messages from the same `(src, tag)`
/// are delivered in send order (MPI non-overtaking rule); different keys are
/// independent.
type QueueMap = HashMap<(Rank, Tag), VecDeque<Vec<u8>>>;

#[derive(Default)]
pub struct Mailbox {
    queues: Mutex<QueueMap>,
    arrived: Condvar,
}

impl Mailbox {
    pub fn new() -> Self {
        Self::default()
    }

    /// Deposit a message from `src` with `tag`.
    pub fn push(&self, src: Rank, tag: Tag, data: Vec<u8>) {
        let mut queues = lock_unpoisoned(&self.queues);
        queues.entry((src, tag)).or_default().push_back(data);
        self.arrived.notify_all();
    }

    /// Pop the next message matching `(src, tag)`, blocking until one
    /// arrives.
    ///
    /// A receive blocked longer than [`RECV_DEADLOCK_TIMEOUT`] means the
    /// communication schedule is wrong; it surfaces as
    /// [`SpioError::Comm`] so the calling rank can fail its collective
    /// cleanly instead of dying and poisoning the whole job.
    pub fn pop_blocking(&self, me: Rank, src: Rank, tag: Tag) -> Result<Vec<u8>, SpioError> {
        self.pop_blocking_timeout(me, src, tag, RECV_DEADLOCK_TIMEOUT)
    }

    /// [`Mailbox::pop_blocking`] with an explicit timeout (tests use short
    /// ones to exercise the deadlock path quickly).
    pub fn pop_blocking_timeout(
        &self,
        me: Rank,
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Vec<u8>, SpioError> {
        let deadline = Instant::now() + timeout;
        let mut queues = lock_unpoisoned(&self.queues);
        loop {
            if let Some(queue) = queues.get_mut(&(src, tag)) {
                if let Some(msg) = queue.pop_front() {
                    if queue.is_empty() {
                        queues.remove(&(src, tag));
                    }
                    return Ok(msg);
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(SpioError::Comm(format!(
                    "rank {me}: receive from rank {src} tag {tag:#x} timed out after \
                     {timeout:?} — communication schedule deadlock"
                )));
            }
            let (guard, _) = wait_timeout_unpoisoned(&self.arrived, queues, deadline - now);
            queues = guard;
        }
    }

    /// Messages still sitting in the mailbox, as `(src, tag, byte_len)`
    /// triples sorted by key — the leak report finalize checks.
    pub fn leftovers(&self) -> Vec<(Rank, Tag, usize)> {
        let queues = lock_unpoisoned(&self.queues);
        let mut out: Vec<(Rank, Tag, usize)> = queues
            .iter()
            .flat_map(|(&(src, tag), q)| q.iter().map(move |m| (src, tag, m.len())))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_per_key() {
        let mb = Mailbox::new();
        mb.push(1, 7, vec![1]);
        mb.push(1, 7, vec![2]);
        mb.push(2, 7, vec![99]);
        assert_eq!(mb.pop_blocking(0, 1, 7).unwrap(), vec![1]);
        assert_eq!(mb.pop_blocking(0, 1, 7).unwrap(), vec![2]);
        assert_eq!(mb.pop_blocking(0, 2, 7).unwrap(), vec![99]);
        assert!(mb.leftovers().is_empty());
    }

    #[test]
    fn keys_are_independent() {
        let mb = Mailbox::new();
        mb.push(3, 1, vec![1]);
        mb.push(3, 2, vec![2]);
        // Popping tag 2 first must not disturb tag 1.
        assert_eq!(mb.pop_blocking(0, 3, 2).unwrap(), vec![2]);
        assert_eq!(mb.pop_blocking(0, 3, 1).unwrap(), vec![1]);
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || mb2.pop_blocking(0, 5, 9));
        std::thread::sleep(Duration::from_millis(20));
        mb.push(5, 9, vec![42]);
        assert_eq!(t.join().unwrap().unwrap(), vec![42]);
    }

    #[test]
    fn timeout_surfaces_as_comm_error() {
        let mb = Mailbox::new();
        let err = mb
            .pop_blocking_timeout(3, 1, 0x42, Duration::from_millis(30))
            .unwrap_err();
        match err {
            SpioError::Comm(msg) => {
                assert!(msg.contains("rank 3"), "{msg}");
                assert!(msg.contains("deadlock"), "{msg}");
            }
            other => panic!("expected Comm error, got {other:?}"),
        }
        // The mailbox stays usable after a timed-out receive.
        mb.push(1, 0x42, vec![5]);
        assert_eq!(mb.pop_blocking(3, 1, 0x42).unwrap(), vec![5]);
    }

    #[test]
    fn leftovers_report_unreceived_messages() {
        let mb = Mailbox::new();
        assert!(mb.leftovers().is_empty());
        mb.push(2, 0x10, vec![0; 4]);
        mb.push(0, 0x11, vec![0; 9]);
        mb.push(2, 0x10, vec![0; 6]);
        assert_eq!(
            mb.leftovers(),
            vec![(0, 0x11, 9), (2, 0x10, 4), (2, 0x10, 6)]
        );
        mb.pop_blocking(1, 0, 0x11).unwrap();
        assert_eq!(mb.leftovers(), vec![(2, 0x10, 4), (2, 0x10, 6)]);
    }
}
