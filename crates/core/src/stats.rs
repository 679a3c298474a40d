//! Per-phase timing and volume statistics reported by the writer and
//! readers. These drive the Fig. 6-style aggregation-vs-I/O breakdowns on
//! the real runtime (the at-scale breakdowns come from `hpcsim`).

use std::time::Duration;

/// One rank's accounting of a write operation.
#[derive(Debug, Clone, Default)]
pub struct WriteStats {
    /// Time in grid setup and (for adaptive mode) the extent/count exchange.
    pub setup_time: Duration,
    /// Time exchanging metadata and particle data over the network
    /// (the paper's "data aggregation" phase).
    pub aggregation_time: Duration,
    /// Time computing the LOD order (§3.4) as an index permutation over the
    /// aggregated records; gathering the records into that order is billed
    /// to `file_io_time`.
    pub shuffle_time: Duration,
    /// Time assembling data files (LOD gather, checksums) and writing them
    /// to storage (the paper's "file I/O" phase).
    pub file_io_time: Duration,
    /// Time writing the spatial metadata file (rank 0 only).
    pub meta_time: Duration,
    /// Particles this rank contributed.
    pub particles_sent: u64,
    /// Particles this rank aggregated (0 for non-aggregators).
    pub particles_aggregated: u64,
    /// Bytes this rank wrote to storage.
    pub bytes_written: u64,
    /// Data files this rank wrote (0 or 1).
    pub files_written: u32,
}

impl WriteStats {
    /// Total wall time of the phases this rank measured.
    pub fn total_time(&self) -> Duration {
        self.setup_time
            + self.aggregation_time
            + self.shuffle_time
            + self.file_io_time
            + self.meta_time
    }

    /// Fraction of measured time spent in aggregation (communication) —
    /// the quantity plotted in Fig. 6.
    pub fn aggregation_fraction(&self) -> f64 {
        let total = self.total_time().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        self.aggregation_time.as_secs_f64() / total
    }

    /// Merge per-rank stats into a job-wide maximum-by-phase summary
    /// (phases are bulk-synchronous, so the slowest rank bounds each).
    pub fn merge_max(stats: &[WriteStats]) -> WriteStats {
        let mut out = WriteStats::default();
        for s in stats {
            out.setup_time = out.setup_time.max(s.setup_time);
            out.aggregation_time = out.aggregation_time.max(s.aggregation_time);
            out.shuffle_time = out.shuffle_time.max(s.shuffle_time);
            out.file_io_time = out.file_io_time.max(s.file_io_time);
            out.meta_time = out.meta_time.max(s.meta_time);
            out.particles_sent += s.particles_sent;
            out.particles_aggregated += s.particles_aggregated;
            out.bytes_written += s.bytes_written;
            out.files_written += s.files_written;
        }
        out
    }
}

/// One rank's accounting of a read operation.
#[derive(Debug, Clone, Default)]
pub struct ReadStats {
    /// Data files opened.
    pub files_opened: u64,
    /// Bytes read from storage.
    pub bytes_read: u64,
    /// Particles returned to the caller.
    pub particles_read: u64,
    /// Particles decoded but discarded by filtering (a measure of wasted
    /// I/O when spatial metadata is absent).
    pub particles_discarded: u64,
    /// Wall time of the read.
    pub time: Duration,
}

impl ReadStats {
    /// Sum per-rank read stats (I/O volumes add; time takes the max since
    /// readers run concurrently).
    pub fn merge(stats: &[ReadStats]) -> ReadStats {
        let mut out = ReadStats::default();
        for s in stats {
            out.files_opened += s.files_opened;
            out.bytes_read += s.bytes_read;
            out.particles_read += s.particles_read;
            out.particles_discarded += s.particles_discarded;
            out.time = out.time.max(s.time);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_fraction() {
        let s = WriteStats {
            aggregation_time: Duration::from_millis(25),
            file_io_time: Duration::from_millis(75),
            ..Default::default()
        };
        assert!((s.aggregation_fraction() - 0.25).abs() < 1e-9);
        assert_eq!(WriteStats::default().aggregation_fraction(), 0.0);
    }

    #[test]
    fn merge_max_takes_slowest_phase_and_sums_volumes() {
        let a = WriteStats {
            aggregation_time: Duration::from_millis(10),
            file_io_time: Duration::from_millis(90),
            bytes_written: 100,
            files_written: 1,
            ..Default::default()
        };
        let b = WriteStats {
            aggregation_time: Duration::from_millis(30),
            file_io_time: Duration::from_millis(50),
            bytes_written: 50,
            ..Default::default()
        };
        let m = WriteStats::merge_max(&[a, b]);
        assert_eq!(m.aggregation_time, Duration::from_millis(30));
        assert_eq!(m.file_io_time, Duration::from_millis(90));
        assert_eq!(m.bytes_written, 150);
        assert_eq!(m.files_written, 1);
    }

    #[test]
    fn read_merge_sums_and_maxes() {
        let a = ReadStats {
            files_opened: 2,
            bytes_read: 10,
            particles_read: 5,
            particles_discarded: 1,
            time: Duration::from_millis(5),
        };
        let b = ReadStats {
            files_opened: 1,
            bytes_read: 20,
            particles_read: 7,
            particles_discarded: 0,
            time: Duration::from_millis(9),
        };
        let m = ReadStats::merge(&[a, b]);
        assert_eq!(m.files_opened, 3);
        assert_eq!(m.bytes_read, 30);
        assert_eq!(m.particles_read, 12);
        assert_eq!(m.time, Duration::from_millis(9));
    }
}
