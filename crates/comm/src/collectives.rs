//! Collective operations built from tagged point-to-point messages.
//!
//! Each collective draws a fresh block of reserved tags from the
//! communicator's collective sequence counter, so back-to-back collectives
//! of the same kind cannot cross-match even when ranks are skewed in time.

use crate::{CollectiveComm, Tag};
use spio_types::Rank;

/// Collective-internal receive. A failed receive here (deadlock timeout)
/// means the collective schedule itself is broken; panicking is correct —
/// the job runtime converts rank panics into `SpioError::Comm` after
/// joining all ranks.
fn recv_or_die<C: CollectiveComm + ?Sized>(comm: &C, src: Rank, tag: Tag) -> Vec<u8> {
    comm.recv(src, tag)
        .unwrap_or_else(|e| panic!("collective receive failed: {e}"))
}

/// Decode a collective's 8-byte `u64` payload. As with [`recv_or_die`], a
/// payload of another length means the schedule itself is broken.
fn u64_or_die(bytes: Vec<u8>) -> u64 {
    #[expect(
        clippy::expect_used,
        reason = "collectives return plain values because the `Comm` trait does; \
                  the job runtime turns this rank panic into `SpioError::Comm`"
    )]
    let word: [u8; 8] = bytes.try_into().expect("collective payload is 8 bytes");
    u64::from_le_bytes(word)
}

/// Dissemination barrier: `ceil(log2 n)` rounds, rank `r` signals
/// `(r + 2^k) mod n` and waits for `(r - 2^k) mod n`.
pub fn dissemination_barrier<C: CollectiveComm + ?Sized>(comm: &C) {
    let n = comm.size();
    if n == 1 {
        return;
    }
    let base = comm.next_collective_tag();
    let me = comm.rank();
    let mut round: Tag = 0;
    let mut dist = 1;
    while dist < n {
        let to = (me + dist) % n;
        let from = (me + n - dist % n) % n;
        comm.isend(to, base + round, Vec::new()).wait();
        recv_or_die(comm, from, base + round);
        dist *= 2;
        round += 1;
    }
}

/// Ring allgather: `n - 1` steps, each rank forwards the newest block to its
/// right neighbour. Variable block sizes are naturally supported because
/// every block travels as its own message.
pub fn ring_allgather<C: CollectiveComm + ?Sized>(comm: &C, data: &[u8]) -> Vec<Vec<u8>> {
    let n = comm.size();
    let me = comm.rank();
    let mut blocks: Vec<Vec<u8>> = vec![Vec::new(); n];
    blocks[me] = data.to_vec();
    if n == 1 {
        return blocks;
    }
    let tag = comm.next_collective_tag();
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    // At step s we forward the block that originated at (me - s) mod n.
    for s in 0..n - 1 {
        let outgoing_origin = (me + n - s) % n;
        comm.isend(right, tag, blocks[outgoing_origin].clone())
            .wait();
        let incoming_origin = (me + n - s - 1) % n;
        blocks[incoming_origin] = recv_or_die(comm, left, tag);
    }
    blocks
}

/// Direct (pairwise) variable-size all-to-all. Every rank posts all sends,
/// then receives one message from every peer. Self-delivery bypasses the
/// mailbox.
pub fn direct_alltoall<C: CollectiveComm + ?Sized>(
    comm: &C,
    mut sends: Vec<Vec<u8>>,
) -> Vec<Vec<u8>> {
    let n = comm.size();
    assert_eq!(
        sends.len(),
        n,
        "alltoall needs exactly one (possibly empty) buffer per rank"
    );
    let me = comm.rank();
    let tag = comm.next_collective_tag();
    let own = std::mem::take(&mut sends[me]);
    for (dest, buf) in sends.into_iter().enumerate() {
        if dest != me {
            comm.isend(dest, tag, buf).wait();
        }
    }
    let mut received = Vec::with_capacity(n);
    for src in 0..n {
        if src == me {
            received.push(own.clone());
        } else {
            received.push(recv_or_die(comm, src, tag));
        }
    }
    received
}

/// Gather onto `root`; linear receive at the root (fine for the rank counts
/// the thread runtime targets; the simulator models tree gathers at scale).
pub fn gather_to<C: CollectiveComm + ?Sized>(
    comm: &C,
    root: Rank,
    data: &[u8],
) -> Option<Vec<Vec<u8>>> {
    let n = comm.size();
    let me = comm.rank();
    let tag = comm.next_collective_tag();
    if me == root {
        let mut out = vec![Vec::new(); n];
        out[root] = data.to_vec();
        for (src, slot) in out.iter_mut().enumerate() {
            if src != root {
                *slot = recv_or_die(comm, src, tag);
            }
        }
        Some(out)
    } else {
        comm.isend(root, tag, data.to_vec()).wait();
        None
    }
}

/// Binomial-tree broadcast rooted at `root`.
pub fn binomial_broadcast<C: CollectiveComm + ?Sized>(
    comm: &C,
    root: Rank,
    data: Vec<u8>,
) -> Vec<u8> {
    let n = comm.size();
    let me = comm.rank();
    let tag = comm.next_collective_tag();
    // Work in a rotated rank space where the root is 0.
    let vrank = (me + n - root) % n;
    let payload = if vrank == 0 {
        data
    } else {
        // Receive from parent: clear the lowest set bit of vrank.
        let parent_v = vrank & (vrank - 1);
        let parent = (parent_v + root) % n;
        recv_or_die(comm, parent, tag)
    };
    // Forward to children: set each bit above the lowest set bit while the
    // result stays in range.
    let lowest = if vrank == 0 {
        n.next_power_of_two()
    } else {
        vrank & vrank.wrapping_neg()
    };
    let mut bit = 1;
    while bit < lowest && vrank + bit < n {
        let child = (vrank + bit + root) % n;
        comm.isend(child, tag, payload.clone()).wait();
        bit <<= 1;
    }
    payload
}

/// Binomial-tree reduction to `root` of `u64` values with operator `op`;
/// returns `Some(result)` on the root.
pub fn tree_reduce_u64<C: CollectiveComm + ?Sized>(
    comm: &C,
    root: Rank,
    value: u64,
    op: fn(u64, u64) -> u64,
) -> Option<u64> {
    let n = comm.size();
    let me = comm.rank();
    let tag = comm.next_collective_tag();
    let vrank = (me + n - root) % n;
    let mut acc = value;
    // Receive from children (vrank + bit for each bit below our lowest set
    // bit), then send to parent.
    let lowest = if vrank == 0 {
        n.next_power_of_two()
    } else {
        vrank & vrank.wrapping_neg()
    };
    let mut bit = 1;
    while bit < lowest && vrank + bit < n {
        let child = (vrank + bit + root) % n;
        let v = u64_or_die(recv_or_die(comm, child, tag));
        acc = op(acc, v);
        bit <<= 1;
    }
    if vrank == 0 {
        Some(acc)
    } else {
        let parent_v = vrank & (vrank - 1);
        let parent = (parent_v + root) % n;
        comm.isend(parent, tag, acc.to_le_bytes().to_vec()).wait();
        None
    }
}

/// All-reduce of `u64` values: reduce to rank 0, then broadcast.
pub fn allreduce_u64<C: CollectiveComm + ?Sized>(
    comm: &C,
    value: u64,
    op: fn(u64, u64) -> u64,
) -> u64 {
    let reduced = tree_reduce_u64(comm, 0, value, op);
    let payload = reduced
        .map(|v| v.to_le_bytes().to_vec())
        .unwrap_or_default();
    let bytes = binomial_broadcast(comm, 0, payload);
    u64_or_die(bytes)
}

/// Exclusive prefix sum of `u64` values (rank 0 gets 0) — the offset
/// computation collective shared-file writers use to place their segments.
/// Implemented as a dissemination scan: log2(n) rounds.
pub fn exclusive_scan_u64<C: CollectiveComm + ?Sized>(comm: &C, value: u64) -> u64 {
    let n = comm.size();
    let me = comm.rank();
    if n == 1 {
        return 0;
    }
    let base = comm.next_collective_tag();
    let mut result = 0u64; // exclusive prefix
    let mut carry = value; // sum of my window
    let mut dist = 1;
    let mut round: Tag = 0;
    while dist < n {
        // Send my running window sum to the rank `dist` to the right;
        // receive from `dist` to the left (if any).
        if me + dist < n {
            comm.isend(me + dist, base + round, carry.to_le_bytes().to_vec())
                .wait();
        }
        if me >= dist {
            let v = u64_or_die(recv_or_die(comm, me - dist, base + round));
            result += v;
            carry += v;
        }
        dist *= 2;
        round += 1;
    }
    result
}

#[cfg(test)]
mod tests {
    use crate::run_threaded_collect;
    use crate::Comm;

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let results = run_threaded_collect(8, move |comm| {
            c2.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must observe all 8 arrivals.
            c2.load(Ordering::SeqCst)
        })
        .unwrap();
        assert!(results.iter().all(|&v| v == 8));
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        for n in [1, 2, 3, 5, 8, 16] {
            let results = run_threaded_collect(n, move |comm| {
                let mine = vec![comm.rank() as u8; comm.rank() + 1]; // variable sizes
                comm.allgather(&mine)
            })
            .unwrap();
            for gathered in results {
                assert_eq!(gathered.len(), n);
                for (r, block) in gathered.iter().enumerate() {
                    assert_eq!(block, &vec![r as u8; r + 1]);
                }
            }
        }
    }

    #[test]
    fn alltoall_routes_and_preserves_sizes() {
        for n in [1, 2, 4, 7] {
            let results = run_threaded_collect(n, move |comm| {
                let me = comm.rank();
                // Message to d: [me, d] repeated (me + d) times.
                let sends: Vec<Vec<u8>> = (0..n)
                    .map(|d| [me as u8, d as u8].repeat(me + d + 1))
                    .collect();
                comm.alltoall(sends)
            })
            .unwrap();
            for (d, received) in results.into_iter().enumerate() {
                for (s, msg) in received.into_iter().enumerate() {
                    assert_eq!(msg, [s as u8, d as u8].repeat(s + d + 1));
                }
            }
        }
    }

    #[test]
    fn gather_collects_on_root_only() {
        let results = run_threaded_collect(6, |comm| {
            comm.gather_to(2, &[comm.rank() as u8])
                .map(|blocks| blocks.into_iter().map(|b| b[0]).collect::<Vec<u8>>())
        })
        .unwrap();
        for (r, res) in results.into_iter().enumerate() {
            if r == 2 {
                assert_eq!(res.unwrap(), vec![0, 1, 2, 3, 4, 5]);
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for n in [1, 2, 5, 8, 13] {
            for root in [0, n / 2, n - 1] {
                let results = run_threaded_collect(n, move |comm| {
                    let data = if comm.rank() == root {
                        vec![7, 7, 7, root as u8]
                    } else {
                        Vec::new()
                    };
                    comm.broadcast(root, data)
                })
                .unwrap();
                assert!(
                    results.iter().all(|r| r == &vec![7, 7, 7, root as u8]),
                    "broadcast failed for n={n} root={root}"
                );
            }
        }
    }

    #[test]
    fn reduce_and_allreduce() {
        use super::{allreduce_u64, tree_reduce_u64};
        for n in [1usize, 2, 5, 8, 13] {
            for root in [0, n - 1] {
                let results = run_threaded_collect(n, move |comm| {
                    let me = comm.rank() as u64;
                    let sum = tree_reduce_u64(&comm, root, me + 1, |a, b| a.wrapping_add(b));
                    let max = allreduce_u64(&comm, me, u64::max);
                    (sum, max)
                })
                .unwrap();
                let expected_sum: u64 = (1..=n as u64).sum();
                for (r, (sum, max)) in results.into_iter().enumerate() {
                    if r == root {
                        assert_eq!(sum, Some(expected_sum), "n={n} root={root}");
                    } else {
                        assert_eq!(sum, None);
                    }
                    assert_eq!(max, n as u64 - 1);
                }
            }
        }
    }

    #[test]
    fn exclusive_scan_computes_offsets() {
        use super::exclusive_scan_u64;
        for n in [1usize, 2, 3, 7, 16] {
            let results = run_threaded_collect(n, move |comm| {
                // Rank r contributes r + 1.
                exclusive_scan_u64(&comm, comm.rank() as u64 + 1)
            })
            .unwrap();
            for (r, got) in results.into_iter().enumerate() {
                let expected: u64 = (1..=r as u64).sum();
                assert_eq!(got, expected, "n={n} rank={r}");
            }
        }
    }

    #[test]
    fn consecutive_collectives_do_not_cross_match() {
        let results = run_threaded_collect(4, |comm| {
            let a = comm.allgather(&[1u8]);
            let b = comm.allgather(&[2u8]);
            comm.barrier();
            let c = comm.allgather(&[3u8]);
            (a, b, c)
        })
        .unwrap();
        for (a, b, c) in results {
            assert!(a.iter().all(|v| v == &[1]));
            assert!(b.iter().all(|v| v == &[2]));
            assert!(c.iter().all(|v| v == &[3]));
        }
    }
}
