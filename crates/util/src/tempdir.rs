//! Self-deleting temporary directories (offline replacement for tempfile).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A directory under the system temp dir, removed (best-effort) on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new() -> std::io::Result<TempDir> {
        #[expect(
            clippy::disallowed_methods,
            reason = "a wall-clock seed only makes the directory name unlikely to \
                      collide across processes; no timing depends on it"
        )]
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        for _ in 0..16 {
            let unique = format!(
                "spio-{}-{}-{nanos:x}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed),
            );
            let path = std::env::temp_dir().join(unique);
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(TempDir { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
        Err(std::io::Error::other("could not create unique temp dir"))
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Create a fresh temporary directory (mirrors `tempfile::tempdir()`).
pub fn tempdir() -> std::io::Result<TempDir> {
    TempDir::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_removes() {
        let kept;
        {
            let dir = tempdir().unwrap();
            kept = dir.path().to_path_buf();
            assert!(kept.is_dir());
            std::fs::write(kept.join("x"), b"y").unwrap();
        }
        assert!(!kept.exists(), "dropped TempDir must vanish");
    }

    #[test]
    fn dirs_are_unique() {
        let a = tempdir().unwrap();
        let b = tempdir().unwrap();
        assert_ne!(a.path(), b.path());
    }
}
