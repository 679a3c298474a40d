//! File-per-process baseline (IOR-FPP style).
//!
//! Every rank writes its particles, unordered and without any spatial
//! metadata, to `fpp_<rank>.dat`. This is the fastest write pattern on
//! filesystems that tolerate many files (Theta's Lustre at moderate scale)
//! and the worst read pattern: a box query must open *every* file and scan
//! all particles.

use spio_comm::Comm;
use spio_core::{ReadStats, Storage, WriteStats};
use spio_types::le::u64_at;
use spio_types::particle::{decode_particles, encode_particles};
use spio_types::{Aabb3, Particle, SpioError};
use std::time::Instant;

/// Name of rank `r`'s file.
pub fn fpp_file_name(rank: usize) -> String {
    format!("fpp_{rank}.dat")
}

/// The file-per-process writer. A thin header (count) precedes the raw
/// particle records.
#[derive(Debug, Clone, Default)]
pub struct FppWriter;

const FPP_MAGIC: [u8; 8] = *b"SPIOFPP1";

impl FppWriter {
    pub fn new() -> Self {
        FppWriter
    }

    /// Collective write; each rank writes exactly one file.
    pub fn write<C: Comm, S: Storage>(
        &self,
        comm: &C,
        particles: &[Particle],
        storage: &S,
    ) -> Result<WriteStats, SpioError> {
        let t0 = Instant::now();
        let mut bytes = Vec::with_capacity(16 + particles.len() * spio_types::PARTICLE_BYTES);
        bytes.extend_from_slice(&FPP_MAGIC);
        bytes.extend_from_slice(&(particles.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&encode_particles(particles));
        storage.write_file(&fpp_file_name(comm.rank()), &bytes)?;
        Ok(WriteStats {
            particles_sent: particles.len() as u64,
            particles_aggregated: particles.len() as u64,
            bytes_written: bytes.len() as u64,
            files_written: 1,
            file_io_time: t0.elapsed(),
            ..Default::default()
        })
    }

    /// Read one rank file back.
    pub fn read_file<S: Storage>(storage: &S, rank: usize) -> Result<Vec<Particle>, SpioError> {
        let bytes = storage.read_file(&fpp_file_name(rank))?;
        if bytes.len() < 16 || bytes[..8] != FPP_MAGIC {
            return Err(SpioError::Format("bad fpp file".into()));
        }
        let count = u64_at(&bytes, 8)?;
        let payload = &bytes[16..];
        let expected = count.checked_mul(spio_types::PARTICLE_BYTES as u64);
        if expected != Some(payload.len() as u64) {
            return Err(SpioError::Format("fpp payload length mismatch".into()));
        }
        decode_particles(payload)
    }

    /// Box query against an FPP dataset written by `nwriters` ranks: with
    /// no spatial metadata, every file must be opened and scanned.
    pub fn read_box<S: Storage>(
        storage: &S,
        nwriters: usize,
        query: &Aabb3,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let t0 = Instant::now();
        let mut stats = ReadStats::default();
        let mut out = Vec::new();
        for rank in 0..nwriters {
            let particles = Self::read_file(storage, rank)?;
            stats.files_opened += 1;
            stats.bytes_read += 16 + (particles.len() * spio_types::PARTICLE_BYTES) as u64;
            let decoded = particles.len();
            let before = out.len();
            out.extend(particles.into_iter().filter(|p| query.contains(p.position)));
            stats.particles_discarded += (decoded - (out.len() - before)) as u64;
        }
        stats.particles_read = out.len() as u64;
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
                    [(rank as f64 + (i as f64 + 0.5) / n as f64) / 4.0, 0.5, 0.5],
                    ((rank as u64) << 32) | i as u64,
                )
            })
            .collect()
    }

    #[test]
    fn writes_one_file_per_rank() {
        let storage = MemStorage::new();
        let s2 = storage.clone();
        run_threaded_collect(4, move |comm| {
            FppWriter::new()
                .write(&comm, &particles_for(comm.rank(), 10), &s2)
                .unwrap();
        })
        .unwrap();
        assert_eq!(storage.file_names().len(), 4);
        for r in 0..4 {
            let ps = FppWriter::read_file(&storage, r).unwrap();
            assert_eq!(ps, particles_for(r, 10));
        }
    }

    #[test]
    fn box_query_scans_every_file() {
        let storage = MemStorage::new();
        let s2 = storage.clone();
        run_threaded_collect(4, move |comm| {
            FppWriter::new()
                .write(&comm, &particles_for(comm.rank(), 25), &s2)
                .unwrap();
        })
        .unwrap();
        // Query covering only rank 1's x-range.
        let q = Aabb3::new([0.25, 0.0, 0.0], [0.5, 1.0, 1.0]);
        let (ps, stats) = FppWriter::read_box(&storage, 4, &q).unwrap();
        assert_eq!(ps.len(), 25);
        assert!(ps.iter().all(|p| q.contains(p.position)));
        assert_eq!(stats.files_opened, 4, "no metadata ⇒ scan everything");
    }

    #[test]
    fn corrupt_file_is_rejected() {
        let storage = MemStorage::new();
        storage.write_file("fpp_0.dat", &[0u8; 10]).unwrap();
        assert!(FppWriter::read_file(&storage, 0).is_err());
        storage
            .write_file("fpp_1.dat", b"SPIOFPP1........")
            .unwrap();
        assert!(FppWriter::read_file(&storage, 1).is_err());
    }
}
