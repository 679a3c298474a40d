//! Poison-tolerant locking.
//!
//! A panicking thread poisons every `std::sync::Mutex` it holds, and the
//! conventional `.lock().unwrap()` then turns one rank's panic into a
//! cascade that kills every other thread sharing the lock. For the
//! infrastructure locks in this workspace (mailboxes, caches, worker
//! queues, schedulers) the guarded state is always left consistent — each
//! critical section is a handful of straight-line statements — so the
//! right policy is to keep serving: take the data out of the poison
//! wrapper and carry on.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};
use std::time::Duration;

/// Lock `m`, recovering the guard if a previous holder panicked.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-lock `l`, recovering the guard if a previous writer panicked.
pub fn read_unpoisoned<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock `l`, recovering the guard if a previous holder panicked.
pub fn write_unpoisoned<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] that recovers the guard from a poisoned lock.
pub fn wait_unpoisoned<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`] that recovers the guard from a poisoned lock.
pub fn wait_timeout_unpoisoned<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_survives_poisoning() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_unpoisoned(&m), 7);
        *lock_unpoisoned(&m) = 8;
        assert_eq!(*lock_unpoisoned(&m), 8);
    }

    #[test]
    fn wait_timeout_returns_guard() {
        let m = Mutex::new(1);
        let cv = Condvar::new();
        let g = lock_unpoisoned(&m);
        let (g, res) = wait_timeout_unpoisoned(&cv, g, Duration::from_millis(5));
        assert!(res.timed_out());
        assert_eq!(*g, 1);
    }
}
