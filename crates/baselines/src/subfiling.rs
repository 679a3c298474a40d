//! HDF5-subfiling-style baseline (§2.1, Byna et al.).
//!
//! Contiguous rank groups of size `subfile_factor` each write one subfile
//! via rank-order two-phase aggregation (the group's first rank
//! aggregates). Subfiles hold rank-order segments, not spatial regions, and
//! — mirroring the restriction the paper quotes — a reader must use the
//! same subfile factor as the writer: the manifest records the factor and
//! [`SubfileWriter::read_group`] refuses a mismatched layout.

use spio_comm::{Comm, Tag};
use spio_core::{Storage, WriteStats};
use spio_types::le::{u64_at, u64_words};
use spio_types::particle::{decode_particles, encode_particles};
use spio_types::{Particle, SpioError, PARTICLE_BYTES};
use std::time::Instant;

const TAG_COUNT: Tag = 21;
const TAG_DATA: Tag = 22;
const MANIFEST: &str = "subfiles.manifest";
const MAGIC: [u8; 8] = *b"SPIOSUB1";

/// Name of subfile `g`.
pub fn subfile_name(group: usize) -> String {
    format!("subfile_{group}.dat")
}

/// The subfiling writer.
#[derive(Debug, Clone)]
pub struct SubfileWriter {
    /// Ranks per subfile.
    pub subfile_factor: usize,
}

impl SubfileWriter {
    pub fn new(subfile_factor: usize) -> Self {
        assert!(subfile_factor > 0);
        SubfileWriter { subfile_factor }
    }

    /// Collective write: one subfile per contiguous rank group, plus a
    /// manifest (rank 0) recording the factor and per-rank counts.
    pub fn write<C: Comm, S: Storage>(
        &self,
        comm: &C,
        particles: &[Particle],
        storage: &S,
    ) -> Result<WriteStats, SpioError> {
        let mut stats = WriteStats {
            particles_sent: particles.len() as u64,
            ..Default::default()
        };
        let n = comm.size();
        let me = comm.rank();
        let f = self.subfile_factor.min(n);
        let group_first = (me / f) * f;

        let t0 = Instant::now();
        let mut sends = Vec::new();
        sends.push(comm.isend(
            group_first,
            TAG_COUNT,
            (particles.len() as u64).to_le_bytes().to_vec(),
        ));
        if !particles.is_empty() {
            sends.push(comm.isend(group_first, TAG_DATA, encode_particles(particles)));
        }
        let mut my_counts: Vec<u64> = Vec::new();
        let mut gathered = Vec::new();
        if me == group_first {
            let members: Vec<usize> = (me..(me + f).min(n)).collect();
            for &m in &members {
                let b = comm.recv(m, TAG_COUNT)?;
                my_counts.push(u64::from_le_bytes(
                    b.as_slice()
                        .try_into()
                        .map_err(|_| SpioError::Comm("bad count message".into()))?,
                ));
            }
            for (i, &m) in members.iter().enumerate() {
                if my_counts[i] > 0 {
                    gathered.extend(comm.recv(m, TAG_DATA)?);
                }
            }
            stats.particles_aggregated = (gathered.len() / PARTICLE_BYTES) as u64;
        }
        for s in sends {
            s.wait();
        }
        stats.aggregation_time = t0.elapsed();

        // Manifest: rank 0 gathers every rank's count plus the factor.
        let all_counts = comm.allgather(&(particles.len() as u64).to_le_bytes());
        if me == 0 {
            let mut bytes = Vec::with_capacity(24 + 8 * n);
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&(f as u64).to_le_bytes());
            bytes.extend_from_slice(&(n as u64).to_le_bytes());
            for b in &all_counts {
                bytes.extend_from_slice(b);
            }
            storage.write_file(MANIFEST, &bytes)?;
        }

        let t0 = Instant::now();
        if me == group_first {
            storage.write_file(&subfile_name(me / f), &gathered)?;
            stats.bytes_written = gathered.len() as u64;
            stats.files_written = 1;
        }
        stats.file_io_time = t0.elapsed();
        Ok(stats)
    }

    /// Parse the manifest: `(subfile_factor, per-rank counts)`.
    pub fn read_manifest<S: Storage>(storage: &S) -> Result<(usize, Vec<u64>), SpioError> {
        let bytes = storage.read_file(MANIFEST)?;
        if bytes.len() < 24 || bytes[..8] != MAGIC {
            return Err(SpioError::Format("bad subfile manifest".into()));
        }
        let f = u64_at(&bytes, 8)? as usize;
        let n = u64_at(&bytes, 16)?;
        let counts = u64_words(&bytes[24..])?;
        if counts.len() as u64 != n {
            return Err(SpioError::Format("manifest length mismatch".into()));
        }
        Ok((f, counts))
    }

    /// Read subfile `group` assuming the reader uses `expected_factor`
    /// ranks per subfile. Errors if the writer used a different factor —
    /// the §2.1 restriction ("the number of reader processes and sub-filing
    /// factor must match the write configuration").
    pub fn read_group<S: Storage>(
        storage: &S,
        group: usize,
        expected_factor: usize,
    ) -> Result<Vec<Particle>, SpioError> {
        let (f, counts) = Self::read_manifest(storage)?;
        if f != expected_factor {
            return Err(SpioError::Config(format!(
                "subfile factor mismatch: dataset was written with {f} ranks per subfile, \
                 reader assumes {expected_factor}"
            )));
        }
        let bytes = storage.read_file(&subfile_name(group))?;
        let expected = counts
            .iter()
            .skip(group.saturating_mul(f))
            .take(f)
            .try_fold(0u64, |sum, &c| sum.checked_add(c))
            .and_then(|n| n.checked_mul(PARTICLE_BYTES as u64));
        if expected != Some(bytes.len() as u64) {
            return Err(SpioError::Format("subfile length mismatch".into()));
        }
        decode_particles(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spio_comm::run_threaded_collect;
    use spio_core::MemStorage;

    fn particles_for(rank: usize, n: usize) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                Particle::synthetic(
                    [(rank as f64 + 0.5) / 8.0, 0.5, 0.5],
                    ((rank as u64) << 32) | i as u64,
                )
            })
            .collect()
    }

    fn write(nprocs: usize, factor: usize, per_rank: usize) -> MemStorage {
        let storage = MemStorage::new();
        let s2 = storage.clone();
        run_threaded_collect(nprocs, move |comm| {
            SubfileWriter::new(factor)
                .write(&comm, &particles_for(comm.rank(), per_rank), &s2)
                .unwrap();
        })
        .unwrap();
        storage
    }

    #[test]
    fn subfile_count_follows_factor() {
        let storage = write(8, 4, 10);
        let names = storage.file_names();
        assert!(names.contains(&"subfile_0.dat".to_string()));
        assert!(names.contains(&"subfile_1.dat".to_string()));
        assert_eq!(names.len(), 3, "2 subfiles + manifest");
    }

    #[test]
    fn groups_hold_rank_order_segments() {
        let storage = write(8, 4, 10);
        let g1 = SubfileWriter::read_group(&storage, 1, 4).unwrap();
        assert_eq!(g1.len(), 40);
        let ranks: Vec<u64> = g1.iter().map(|p| p.id >> 32).collect();
        assert!(ranks.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ranks[0], 4);
        assert_eq!(*ranks.last().unwrap(), 7);
    }

    #[test]
    fn mismatched_reader_factor_is_refused() {
        let storage = write(8, 4, 10);
        let err = SubfileWriter::read_group(&storage, 0, 2).unwrap_err();
        assert!(err.to_string().contains("factor mismatch"), "{err}");
    }

    #[test]
    fn manifest_roundtrip() {
        let storage = write(8, 2, 3);
        let (f, counts) = SubfileWriter::read_manifest(&storage).unwrap();
        assert_eq!(f, 2);
        assert_eq!(counts, vec![3; 8]);
    }

    #[test]
    fn manifest_with_huge_count_is_an_error() {
        let storage = MemStorage::new();
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 61).to_le_bytes());
        storage.write_file(MANIFEST, &bytes).unwrap();
        assert!(SubfileWriter::read_manifest(&storage).is_err());
    }
}
