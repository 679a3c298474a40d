//! Robustness: decoders must return errors, never panic, on arbitrary or
//! corrupted bytes. A reader crashing on a truncated checkpoint would be a
//! production incident; these tests fuzz the attack surface.

use spio_format::data_file::{decode_data_file, encode_data_file, DataFileHeader};
use spio_format::{SpatialMetadata, DATA_MAGIC, META_MAGIC};
use spio_types::{Aabb3, Particle};
use spio_util::check::{cases, Gen};

#[test]
fn data_file_decode_never_panics() {
    cases(512, |g: &mut Gen| {
        let bytes = g.bytes(0, 2048);
        let _ = decode_data_file(&bytes);
        let _ = DataFileHeader::decode(&bytes);
    });
}

#[test]
fn metadata_decode_never_panics() {
    cases(512, |g: &mut Gen| {
        let bytes = g.bytes(0, 2048);
        let _ = SpatialMetadata::decode(&bytes);
    });
}

#[test]
fn magic_prefixed_garbage_still_safe() {
    cases(512, |g: &mut Gen| {
        // Valid magic, garbage after: exercises the deeper parse paths.
        let mut bytes = g.bytes(8, 1024);
        let which = g.index(2);
        let magic = if which == 0 { DATA_MAGIC } else { META_MAGIC };
        bytes[..8].copy_from_slice(&magic);
        if which == 0 {
            let _ = decode_data_file(&bytes);
        } else {
            let _ = SpatialMetadata::decode(&bytes);
        }
    });
}

#[test]
fn bit_flips_in_valid_files_never_panic() {
    cases(512, |g: &mut Gen| {
        let n = g.usize_in(1, 31);
        let ps: Vec<Particle> = (0..n)
            .map(|i| Particle::synthetic([i as f64, 0.0, 0.0], i as u64))
            .collect();
        let header = DataFileHeader::new(n as u64, Aabb3::new([0.0; 3], [n as f64, 1.0, 1.0]), 9);
        let mut bytes = encode_data_file(&header, &ps);
        let pos = g.index(bytes.len());
        let flip_mask = g.u8() | 1; // never zero, so a bit always flips
        bytes[pos] ^= flip_mask;
        // Must either decode (flip hit a benign payload bit) or error —
        // never panic.
        if let Ok((h, got)) = decode_data_file(&bytes) {
            assert_eq!(got.len() as u64, h.particle_count);
        }
    });
}

#[test]
fn truncations_of_valid_metadata_never_panic() {
    use spio_format::{FileEntry, LodParams};
    use spio_types::{GridDims, PartitionFactor};
    cases(512, |g: &mut Gen| {
        let n_entries = g.usize_in(0, 7);
        let meta = SpatialMetadata {
            domain: Aabb3::new([0.0; 3], [1.0; 3]),
            writer_grid: GridDims::new(2, 2, 1),
            partition_factor: PartitionFactor::new(1, 1, 1),
            lod: LodParams::default(),
            total_particles: n_entries as u64 * 5,
            entries: (0..n_entries)
                .map(|i| FileEntry {
                    agg_rank: i as u64,
                    particle_count: 5,
                    bounds: Aabb3::new([i as f64, 0.0, 0.0], [i as f64 + 1.0, 1.0, 1.0]),
                })
                .collect(),
            attr_ranges: None,
        };
        let bytes = meta.encode();
        let cut = g.index(bytes.len() + 1);
        let _ = SpatialMetadata::decode(&bytes[..cut]);
    });
}
