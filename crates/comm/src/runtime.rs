//! Job launcher: run one closure per rank on dedicated threads.

use crate::thread_comm::ThreadComm;
use spio_types::SpioError;

/// Run `f(comm)` once per rank on `nprocs` threads and wait for all of them.
///
/// Panics inside any rank are converted into an error naming the rank, after
/// all surviving ranks have been joined (a panicking rank's peers may
/// themselves panic on receive timeout; the first rank's panic wins).
pub fn run_threaded<F>(nprocs: usize, f: F) -> Result<(), SpioError>
where
    F: Fn(ThreadComm) + Send + Sync + 'static,
{
    run_threaded_collect(nprocs, f).map(|_| ())
}

/// Like [`run_threaded`] but collects each rank's return value, indexed by
/// rank. Useful for tests that need to inspect per-rank results.
pub fn run_threaded_collect<F, T>(nprocs: usize, f: F) -> Result<Vec<T>, SpioError>
where
    F: Fn(ThreadComm) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let world = ThreadComm::create_world(nprocs);
    let shared = world[0].shared_handle();
    let f = std::sync::Arc::new(f);
    let handles: Vec<_> = world
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            let f = std::sync::Arc::clone(&f);
            #[expect(
                clippy::expect_used,
                reason = "ranks already spawned would block on the missing one; \
                          returning an error needs their teardown first"
            )]
            let handle = std::thread::Builder::new()
                .name(format!("spio-rank-{rank}"))
                // Rank programs are shallow; a modest stack lets tests run
                // hundreds of ranks without exhausting address space on
                // 32-bit-friendly settings.
                .stack_size(2 * 1024 * 1024)
                .spawn(move || f(comm))
                .expect("failed to spawn rank thread");
            handle
        })
        .collect();

    let mut results = Vec::with_capacity(nprocs);
    let mut first_panic: Option<(usize, String)> = None;
    for (rank, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(v) => results.push(v),
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
    if let Some((rank, msg)) = first_panic {
        return Err(SpioError::Comm(format!("rank {rank} panicked: {msg}")));
    }
    // All ranks returned cleanly — every message sent must have been
    // received. Anything still queued is a leak: an isend whose matching
    // recv never ran, exactly the bug class MPI_Finalize flags on a real
    // machine.
    let mut leaks = Vec::new();
    for (rank, mailbox) in shared.mailboxes.iter().enumerate() {
        for (src, tag, bytes) in mailbox.leftovers() {
            leaks.push(format!(
                "rank {rank}: unreceived message from rank {src} tag {tag:#x} ({bytes} bytes)"
            ));
        }
    }
    if !leaks.is_empty() {
        return Err(SpioError::Comm(format!(
            "message leak at finalize: {}",
            leaks.join("; ")
        )));
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Comm;

    #[test]
    fn collect_returns_rank_indexed_results() {
        let results = run_threaded_collect(16, |comm| comm.rank() * 10).unwrap();
        assert_eq!(results, (0..16).map(|r| r * 10).collect::<Vec<_>>());
    }

    #[test]
    fn rank_panic_becomes_error() {
        let err = run_threaded(4, |comm| {
            if comm.rank() == 3 {
                panic!("boom on 3");
            }
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("rank 3"), "got: {msg}");
        assert!(msg.contains("boom on 3"), "got: {msg}");
    }

    #[test]
    fn single_rank_world_works() {
        let results = run_threaded_collect(1, |comm| {
            comm.barrier();
            let g = comm.allgather(&[9]);
            (comm.size(), g)
        })
        .unwrap();
        assert_eq!(results[0].0, 1);
        assert_eq!(results[0].1, vec![vec![9]]);
    }

    #[test]
    fn large_world_spawns() {
        // 256 ranks exchanging in a ring — smoke test for thread scaling.
        run_threaded(256, |comm| {
            let n = comm.size();
            let right = (comm.rank() + 1) % n;
            let left = (comm.rank() + n - 1) % n;
            comm.send(right, 1, vec![comm.rank() as u8]);
            let got = comm.recv(left, 1).unwrap();
            assert_eq!(got, vec![left as u8]);
        })
        .unwrap();
    }
}
