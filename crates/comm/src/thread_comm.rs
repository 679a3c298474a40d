//! Thread-backed communicator: one OS thread per rank, shared mailboxes.

use crate::collectives;
use crate::mailbox::Mailbox;
use crate::{CollectiveComm, Comm, RecvHandle, SendHandle, Tag, COLLECTIVE_TAG_BASE};
use spio_types::{Rank, SpioError};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

/// State shared by every rank of one job.
pub(crate) struct Shared {
    pub(crate) size: usize,
    pub(crate) mailboxes: Vec<Arc<Mailbox>>,
}

/// A communicator handle owned by one rank of a thread-backed job.
///
/// Created by [`crate::run_threaded`]; can also be built in batch via
/// [`ThreadComm::create_world`] when the caller wants to manage threads
/// itself.
pub struct ThreadComm {
    shared: Arc<Shared>,
    rank: Rank,
    /// Collective sequence number: all ranks enter collectives in the same
    /// order, so a local counter yields matching reserved tags without any
    /// extra synchronization.
    coll_seq: Cell<u32>,
}

impl ThreadComm {
    /// Build communicators for all `size` ranks of a new world.
    pub fn create_world(size: usize) -> Vec<ThreadComm> {
        assert!(size > 0, "world size must be positive");
        let mailboxes = (0..size).map(|_| Arc::new(Mailbox::new())).collect();
        let shared = Arc::new(Shared { size, mailboxes });
        (0..size)
            .map(|rank| ThreadComm {
                shared: Arc::clone(&shared),
                rank,
                coll_seq: Cell::new(0),
            })
            .collect()
    }

    pub(crate) fn shared_handle(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    fn check_peer(&self, peer: Rank) {
        assert!(
            peer < self.shared.size,
            "rank {} addressed peer {} outside world of size {}",
            self.rank,
            peer,
            self.shared.size
        );
    }
}

impl Comm for ThreadComm {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn isend(&self, dest: Rank, tag: Tag, data: Vec<u8>) -> SendHandle {
        self.check_peer(dest);
        self.shared.mailboxes[dest].push(self.rank, tag, data);
        SendHandle::completed()
    }

    fn irecv(&self, src: Rank, tag: Tag) -> RecvHandle {
        self.check_peer(src);
        let mailbox = Arc::clone(&self.shared.mailboxes[self.rank]);
        let me = self.rank;
        RecvHandle::from_fn(move || mailbox.pop_blocking(me, src, tag))
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

    fn recv_timeout(&self, src: Rank, tag: Tag, timeout: Duration) -> Result<Vec<u8>, SpioError> {
        self.check_peer(src);
        self.shared.mailboxes[self.rank].pop_blocking_timeout(self.rank, src, tag, timeout)
    }

    fn unconsumed(&self) -> Vec<(Rank, Tag, usize)> {
        self.shared.mailboxes[self.rank].leftovers()
    }
}

impl CollectiveComm for ThreadComm {
    fn next_collective_tag(&self) -> Tag {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        // Collectives may need a few distinct tags per invocation; stride by
        // 8 within the reserved space.
        COLLECTIVE_TAG_BASE + (seq % 0x0fff_ffff) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_threaded;

    #[test]
    fn world_has_distinct_ranks() {
        let world = ThreadComm::create_world(4);
        let ranks: Vec<_> = world.iter().map(|c| c.rank()).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
        assert!(world.iter().all(|c| c.size() == 4));
    }

    #[test]
    fn point_to_point_roundtrip() {
        run_threaded(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, vec![10, 20, 30]);
                let back = comm.recv(1, 6).unwrap();
                assert_eq!(back, vec![30, 20, 10]);
            } else {
                let mut msg = comm.recv(0, 5).unwrap();
                msg.reverse();
                comm.send(0, 6, msg);
            }
        })
        .unwrap();
    }

    #[test]
    fn nonblocking_out_of_order_completion() {
        run_threaded(3, |comm| match comm.rank() {
            0 => {
                // Post receives in the opposite order of sends.
                let h2 = comm.irecv(2, 1);
                let h1 = comm.irecv(1, 1);
                assert_eq!(h1.wait().unwrap(), vec![1]);
                assert_eq!(h2.wait().unwrap(), vec![2]);
            }
            r => comm.send(0, 1, vec![r as u8]),
        })
        .unwrap();
    }

    #[test]
    fn messages_non_overtaking_per_key() {
        run_threaded(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100u8 {
                    comm.send(1, 3, vec![i]);
                }
            } else {
                for i in 0..100u8 {
                    assert_eq!(comm.recv(0, 3).unwrap(), vec![i]);
                }
            }
        })
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "outside world")]
    fn send_out_of_range_panics() {
        let world = ThreadComm::create_world(2);
        world[0].isend(5, 0, vec![]).wait();
    }
}
