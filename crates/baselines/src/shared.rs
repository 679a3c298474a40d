//! Single-shared-file collective baseline (IOR-collective / plain PHDF5
//! style).
//!
//! A classic ROMIO-like two-phase write: contiguous *rank-order* groups of
//! processes funnel their data to one aggregator each, and every aggregator
//! writes its group's segment into one shared file at the group's byte
//! offset. The aggregation is spatially unaware — Fig. 1's "grouped by
//! color" middle panel — so the file interleaves distant regions of the
//! domain and reads for a spatial region must scan broadly.

use spio_comm::{Comm, Tag};
use spio_core::{ReadStats, Storage, WriteStats};
use spio_types::le::u64_at;
use spio_types::particle::{decode_particles, encode_particles};
use spio_types::{Aabb3, Particle, SpioError, PARTICLE_BYTES};
use std::time::Instant;

/// Name of the shared data file.
pub const SHARED_FILE_NAME: &str = "shared.dat";

const TAG_COUNT: Tag = 11;
const TAG_DATA: Tag = 12;

/// The shared-file collective writer.
#[derive(Debug, Clone)]
pub struct SharedFileWriter {
    /// Number of aggregator ranks (ROMIO's `cb_nodes`).
    pub naggs: usize,
}

impl SharedFileWriter {
    pub fn new(naggs: usize) -> Self {
        assert!(naggs > 0, "need at least one aggregator");
        SharedFileWriter { naggs }
    }

    /// Collective write of all ranks' particles into one shared file.
    ///
    /// Layout: a 16-byte header (magic + total count), then every rank's
    /// particles concatenated in rank order. Offsets are computed from an
    /// all-gather of per-rank counts — the collective "file view" setup.
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
        let naggs = self.naggs.min(n);
        let group = n.div_ceil(naggs);

        // Offset setup: everyone learns everyone's count.
        let t0 = Instant::now();
        let counts_bytes = comm.allgather(&(particles.len() as u64).to_le_bytes());
        let counts: Vec<u64> = counts_bytes
            .iter()
            .map(|b| {
                b.as_slice()
                    .try_into()
                    .map(u64::from_le_bytes)
                    .map_err(|_| SpioError::Comm("bad count".into()))
            })
            .collect::<Result<_, _>>()?;
        let offsets: Vec<u64> = counts
            .iter()
            .scan(0u64, |acc, &c| {
                let o = *acc;
                *acc += c;
                Some(o)
            })
            .collect();
        let total: u64 = counts.iter().sum();
        stats.setup_time = t0.elapsed();

        // Two-phase exchange: send my buffer to my rank-order aggregator.
        let t0 = Instant::now();
        let my_agg = (me / group) * group;
        let mut sends = Vec::new();
        sends.push(comm.isend(
            my_agg,
            TAG_COUNT,
            (particles.len() as u64).to_le_bytes().to_vec(),
        ));
        if !particles.is_empty() {
            sends.push(comm.isend(my_agg, TAG_DATA, encode_particles(particles)));
        }

        let i_am_agg = me.is_multiple_of(group);
        let mut gathered: Vec<u8> = Vec::new();
        if i_am_agg {
            let members: Vec<usize> = (me..(me + group).min(n)).collect();
            let mut member_counts = Vec::with_capacity(members.len());
            for &m in &members {
                let b = comm.recv(m, TAG_COUNT)?;
                let c = u64::from_le_bytes(
                    b.as_slice()
                        .try_into()
                        .map_err(|_| SpioError::Comm("bad count message".into()))?,
                );
                member_counts.push((m, c));
            }
            for &(m, c) in &member_counts {
                if c > 0 {
                    gathered.extend(comm.recv(m, TAG_DATA)?);
                }
            }
            stats.particles_aggregated = (gathered.len() / PARTICLE_BYTES) as u64;
        }
        for s in sends {
            s.wait();
        }
        stats.aggregation_time = t0.elapsed();

        // File I/O: rank 0 writes the header; every aggregator writes its
        // group's segment at the group offset.
        let t0 = Instant::now();
        if me == 0 {
            let mut header = Vec::with_capacity(16);
            header.extend_from_slice(b"SPIOSHR1");
            header.extend_from_slice(&total.to_le_bytes());
            storage.write_range(SHARED_FILE_NAME, 0, &header)?;
            stats.files_written = 1;
        }
        if i_am_agg && !gathered.is_empty() {
            let offset = 16 + offsets[me] * PARTICLE_BYTES as u64;
            storage.write_range(SHARED_FILE_NAME, offset, &gathered)?;
            stats.bytes_written = gathered.len() as u64;
        }
        stats.file_io_time = t0.elapsed();
        Ok(stats)
    }

    /// Read the entire shared file back (rank-order particles).
    pub fn read_all<S: Storage>(storage: &S) -> Result<Vec<Particle>, SpioError> {
        let bytes = storage.read_file(SHARED_FILE_NAME)?;
        if bytes.len() < 16 || bytes[..8] != *b"SPIOSHR1" {
            return Err(SpioError::Format("bad shared file".into()));
        }
        let total = u64_at(&bytes, 8)?;
        let payload = &bytes[16..];
        if total.checked_mul(PARTICLE_BYTES as u64) != Some(payload.len() as u64) {
            return Err(SpioError::Format("shared payload length mismatch".into()));
        }
        decode_particles(payload)
    }

    /// Box query: the shared file has no spatial index, so the whole file
    /// is read and filtered.
    pub fn read_box<S: Storage>(
        storage: &S,
        query: &Aabb3,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let t0 = Instant::now();
        let mut stats = ReadStats {
            files_opened: 1,
            ..Default::default()
        };
        stats.bytes_read = storage.file_size(SHARED_FILE_NAME)?;
        let all = Self::read_all(storage)?;
        let decoded = all.len();
        let out: Vec<Particle> = all
            .into_iter()
            .filter(|p| query.contains(p.position))
            .collect();
        stats.particles_read = out.len() as u64;
        stats.particles_discarded = (decoded - out.len()) as u64;
        stats.time = t0.elapsed();
        Ok((out, stats))
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
                    [(rank as f64 + 0.5) / 8.0, (i as f64 + 0.5) / n as f64, 0.5],
                    ((rank as u64) << 32) | i as u64,
                )
            })
            .collect()
    }

    fn write_shared(nprocs: usize, naggs: usize, per_rank: usize) -> MemStorage {
        let storage = MemStorage::new();
        let s2 = storage.clone();
        run_threaded_collect(nprocs, move |comm| {
            SharedFileWriter::new(naggs)
                .write(&comm, &particles_for(comm.rank(), per_rank), &s2)
                .unwrap();
        })
        .unwrap();
        storage
    }

    #[test]
    fn single_file_in_rank_order() {
        let storage = write_shared(8, 2, 10);
        assert_eq!(storage.file_names(), vec![SHARED_FILE_NAME.to_string()]);
        let ps = SharedFileWriter::read_all(&storage).unwrap();
        assert_eq!(ps.len(), 80);
        // Rank order: ids are (rank << 32 | i), so the sequence is sorted.
        let ids: Vec<u64> = ps.iter().map(|p| p.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn aggregator_counts_divide_work() {
        for naggs in [1, 2, 4, 8] {
            let storage = write_shared(8, naggs, 5);
            assert_eq!(SharedFileWriter::read_all(&storage).unwrap().len(), 40);
        }
    }

    #[test]
    fn uneven_counts_still_pack_densely() {
        let storage = MemStorage::new();
        let s2 = storage.clone();
        run_threaded_collect(4, move |comm| {
            // Rank r holds r particles (rank 0 holds none).
            SharedFileWriter::new(2)
                .write(&comm, &particles_for(comm.rank(), comm.rank()), &s2)
                .unwrap();
        })
        .unwrap();
        let ps = SharedFileWriter::read_all(&storage).unwrap();
        assert_eq!(ps.len(), 6); // ranks contribute 0 + 1 + 2 + 3 particles
    }

    #[test]
    fn box_query_reads_whole_file() {
        let storage = write_shared(8, 4, 20);
        // Query covering only rank 3's x-slab.
        let q = Aabb3::new([3.0 / 8.0, 0.0, 0.0], [4.0 / 8.0, 1.0, 1.0]);
        let (ps, stats) = SharedFileWriter::read_box(&storage, &q).unwrap();
        assert_eq!(ps.len(), 20);
        assert_eq!(stats.particles_discarded, 140, "7/8 of the data wasted");
        assert_eq!(
            stats.bytes_read,
            storage.file_size(SHARED_FILE_NAME).unwrap()
        );
    }
}
