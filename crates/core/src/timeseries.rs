//! Time-series datasets: one spatially-aware dataset per simulation
//! timestep under a shared storage root.
//!
//! The paper's write path runs once per checkpoint/timestep ("data per
//! core for each timestep", §5.1). This module organizes repeated writes:
//! each timestep's files get a `tNNNNNN.` name prefix via
//! [`PrefixedStorage`], and a small series manifest records which steps
//! exist, so analysis tools can iterate a run's history with the same
//! readers used for single datasets.

use crate::storage::Storage;
use crate::writer::SpatialWriter;
use crate::{DatasetReader, WriteStats};
use spio_comm::Comm;
use spio_types::le::{u64_at, u64_words};
use spio_types::{Particle, SpioError};

/// Name of the series manifest file.
pub const SERIES_FILE_NAME: &str = "series.spt";

const SERIES_MAGIC: [u8; 8] = *b"SPIOSER1";

/// File-name prefix for a timestep's dataset.
pub fn timestep_prefix(step: u64) -> String {
    format!("t{step:06}.")
}

/// A view of a [`Storage`] where every name is prefixed — this is how one
/// directory holds many timesteps without any backend support for
/// subdirectories.
pub struct PrefixedStorage<'a, S: Storage> {
    inner: &'a S,
    prefix: String,
}

impl<'a, S: Storage> PrefixedStorage<'a, S> {
    pub fn new(inner: &'a S, prefix: String) -> Self {
        PrefixedStorage { inner, prefix }
    }

    /// The view of `storage` holding timestep `step`.
    pub fn for_step(inner: &'a S, step: u64) -> Self {
        Self::new(inner, timestep_prefix(step))
    }

    fn full(&self, name: &str) -> String {
        format!("{}{}", self.prefix, name)
    }
}

impl<S: Storage> Storage for PrefixedStorage<'_, S> {
    fn write_file(&self, name: &str, data: &[u8]) -> Result<(), SpioError> {
        self.inner.write_file(&self.full(name), data)
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>, SpioError> {
        self.inner.read_file(&self.full(name))
    }

    fn read_range(&self, name: &str, start: u64, end: u64) -> Result<Vec<u8>, SpioError> {
        self.inner.read_range(&self.full(name), start, end)
    }

    fn file_size(&self, name: &str) -> Result<u64, SpioError> {
        self.inner.file_size(&self.full(name))
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(&self.full(name))
    }

    fn write_range(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), SpioError> {
        self.inner.write_range(&self.full(name), offset, data)
    }
}

/// The series manifest: which timesteps exist, in write order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeriesManifest {
    pub steps: Vec<u64>,
}

impl SeriesManifest {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 8 * self.steps.len());
        out.extend_from_slice(&SERIES_MAGIC);
        out.extend_from_slice(&(self.steps.len() as u64).to_le_bytes());
        for s in &self.steps {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out
    }

    pub fn decode(bytes: &[u8]) -> Result<Self, SpioError> {
        if bytes.len() < 16 || bytes[..8] != SERIES_MAGIC {
            return Err(SpioError::Format("bad series manifest".into()));
        }
        let n = u64_at(bytes, 8)?;
        let steps = u64_words(&bytes[16..])?;
        if steps.len() as u64 != n {
            return Err(SpioError::Format("series manifest length mismatch".into()));
        }
        Ok(SeriesManifest { steps })
    }

    /// Load the manifest, or an empty one if the series is new.
    pub fn load<S: Storage>(storage: &S) -> Result<Self, SpioError> {
        match storage.read_file(SERIES_FILE_NAME) {
            Ok(bytes) => Self::decode(&bytes),
            Err(SpioError::NotFound(_)) => Ok(SeriesManifest::default()),
            Err(e) => Err(e),
        }
    }
}

/// Writes a sequence of timesteps, maintaining the manifest.
pub struct SeriesWriter {
    writer: SpatialWriter,
}

impl SeriesWriter {
    pub fn new(writer: SpatialWriter) -> Self {
        SeriesWriter { writer }
    }

    /// Collective: write `particles` as timestep `step`. Steps may be
    /// written in any order but each step only once.
    pub fn write_timestep<C: Comm, S: Storage>(
        &self,
        comm: &C,
        step: u64,
        particles: &[Particle],
        storage: &S,
    ) -> Result<WriteStats, SpioError> {
        let view = PrefixedStorage::for_step(storage, step);
        let stats = self.writer.write(comm, particles, &view)?;
        // Rank 0 appends to the manifest after its own phases completed;
        // the collective inside write() ordered everyone before this point.
        if comm.rank() == 0 {
            let mut manifest = SeriesManifest::load(storage)?;
            if manifest.steps.contains(&step) {
                return Err(SpioError::Config(format!(
                    "timestep {step} already written"
                )));
            }
            manifest.steps.push(step);
            storage.write_file(SERIES_FILE_NAME, &manifest.encode())?;
        }
        Ok(stats)
    }
}

/// Open one timestep of a series for reading.
pub fn open_timestep<S: Storage>(
    storage: &S,
    step: u64,
) -> Result<(DatasetReader, PrefixedStorage<'_, S>), SpioError> {
    let view = PrefixedStorage::for_step(storage, step);
    let reader = DatasetReader::open(&view)?;
    Ok((reader, view))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use crate::writer::WriterConfig;
    use spio_comm::run_threaded_collect;
    use spio_types::{Aabb3, DomainDecomposition, GridDims, PartitionFactor};

    fn decomp() -> DomainDecomposition {
        DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(2, 2, 1))
    }

    fn particles(rank: usize, step: u64, n: usize) -> Vec<Particle> {
        let b = decomp().patch_bounds(rank);
        (0..n)
            .map(|i| {
                let t = (i as f64 + 0.5) / n as f64;
                Particle::synthetic(
                    [b.lo[0] + t * (b.hi[0] - b.lo[0]) * 0.99, b.center()[1], 0.5],
                    (step << 40) | ((rank as u64) << 32) | i as u64,
                )
            })
            .collect()
    }

    fn write_steps(storage: &MemStorage, steps: &[u64]) {
        for &step in steps {
            let s2 = storage.clone();
            run_threaded_collect(4, move |comm| {
                use spio_comm::Comm;
                let writer = SeriesWriter::new(SpatialWriter::new(
                    decomp(),
                    WriterConfig::new(PartitionFactor::new(2, 1, 1)),
                ));
                writer
                    .write_timestep(&comm, step, &particles(comm.rank(), step, 50), &s2)
                    .unwrap();
            })
            .unwrap();
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = SeriesManifest {
            steps: vec![0, 10, 20],
        };
        assert_eq!(SeriesManifest::decode(&m.encode()).unwrap(), m);
        assert!(SeriesManifest::decode(&m.encode()[..10]).is_err());
    }

    #[test]
    fn manifest_with_huge_count_is_an_error() {
        let mut bytes = SERIES_MAGIC.to_vec();
        bytes.extend_from_slice(&(1u64 << 61).to_le_bytes());
        assert!(SeriesManifest::decode(&bytes).is_err());
    }

    #[test]
    fn multiple_timesteps_coexist() {
        let storage = MemStorage::new();
        write_steps(&storage, &[0, 10, 20]);
        let manifest = SeriesManifest::load(&storage).unwrap();
        assert_eq!(manifest.steps, vec![0, 10, 20]);
        // Each step reads back independently with the right ids.
        for &step in &manifest.steps {
            let (reader, view) = open_timestep(&storage, step).unwrap();
            assert_eq!(reader.meta.total_particles, 200);
            let (all, _) = reader.read_all(&view).unwrap();
            assert!(all.iter().all(|p| p.id >> 40 == step));
        }
    }

    #[test]
    fn duplicate_timestep_is_rejected() {
        let storage = MemStorage::new();
        write_steps(&storage, &[5]);
        let s2 = storage.clone();
        let results = run_threaded_collect(4, move |comm| {
            use spio_comm::Comm;
            let writer = SeriesWriter::new(SpatialWriter::new(
                decomp(),
                WriterConfig::new(PartitionFactor::new(2, 1, 1)),
            ));
            writer
                .write_timestep(&comm, 5, &particles(comm.rank(), 5, 50), &s2)
                .map(|_| ())
        })
        .unwrap();
        assert!(results[0].is_err(), "rank 0 must reject the duplicate");
    }

    #[test]
    fn missing_series_is_empty() {
        let storage = MemStorage::new();
        assert!(SeriesManifest::load(&storage).unwrap().steps.is_empty());
        assert!(open_timestep(&storage, 3).is_err());
    }

    #[test]
    fn prefixed_storage_isolates_names() {
        let storage = MemStorage::new();
        let a = PrefixedStorage::for_step(&storage, 1);
        let b = PrefixedStorage::for_step(&storage, 2);
        a.write_file("x", &[1]).unwrap();
        b.write_file("x", &[2]).unwrap();
        assert_eq!(a.read_file("x").unwrap(), vec![1]);
        assert_eq!(b.read_file("x").unwrap(), vec![2]);
        assert!(a.exists("x") && !a.exists("y"));
        assert_eq!(storage.file_names(), vec!["t000001.x", "t000002.x"]);
        // Ranged ops pass through.
        a.write_range("r", 2, &[9]).unwrap();
        assert_eq!(a.file_size("r").unwrap(), 3);
        assert_eq!(a.read_range("r", 2, 3).unwrap(), vec![9]);
    }
}
