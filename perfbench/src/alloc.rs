//! Allocator settings of the benchmark process (glibc only; elsewhere these
//! are no-ops).
//!
//! By default glibc serves allocations above a moving threshold with fresh
//! `mmap`s and unmaps them on free, so every write-agg op faults in about
//! 40 MB of fresh pages. On a shared virtual machine the cost of those
//! faults swings with the host's memory state: op latency moved by 30%
//! between otherwise identical runs. With a fixed 32 MiB mmap threshold and
//! no automatic heap trimming, ops after the warm-up reuse warm pages, as a
//! long-running writer or server does in steady state. The price: the
//! benchmark does not see the first-touch page faults a short-lived process
//! pays, so a change that only saves allocations shows less here than it
//! would there.
//!
//! One heap (arena) for all threads: with glibc's default of one per thread,
//! which heap a serve-mixed thread landed on and how the heaps fragmented
//! differed from run to run, and the timed phase's memory high-water mark
//! with it (223 to 341 MB over five seeds; 127 to 160 MB with one heap,
//! at the same op latency).
//!
//! Set-up hands its freed memory back explicitly ([`release_freed_memory`])
//! before the warm-up, so what the process holds in the timed phase is the
//! fixture plus the op working set the warm-up re-establishes, not set-up
//! garbage.

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    pub const M_TRIM_THRESHOLD: i32 = -1;
    pub const M_MMAP_THRESHOLD: i32 = -3;
    pub const M_ARENA_MAX: i32 = -8;
    extern "C" {
        pub fn mallopt(param: i32, value: i32) -> i32;
        pub fn malloc_trim(pad: usize) -> i32;
    }
}

/// Keep freed memory in the process; call first thing in `main`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() {
    // SAFETY: mallopt only changes allocator parameters, and runs before
    // the process starts any thread.
    let ok = unsafe {
        glibc::mallopt(glibc::M_MMAP_THRESHOLD, 32 << 20) == 1
            && glibc::mallopt(glibc::M_TRIM_THRESHOLD, i32::MAX) == 1
            && glibc::mallopt(glibc::M_ARENA_MAX, 1) == 1
    };
    if !ok {
        eprintln!("warning: mallopt refused the allocator settings");
    }
}

/// Return every free page of every heap to the system.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_freed_memory() {
    // SAFETY: malloc_trim only releases memory the allocator holds free; it
    // is thread-safe.
    unsafe {
        glibc::malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() {}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_freed_memory() {}
