//! Microbench for the LOD reordering (§3.4) as the writer performs it: the
//! seeded index permutation of a partition's encoded records plus the
//! gather of those records, in that order, into a data-file buffer.
//!
//! The paper measures the reordering of 32 Ki particles at 33 ms on Mira
//! and 80 ms on Theta (single core, not parallelized). This bench measures
//! the same operation on the build machine, at the paper's size and at the
//! aggregated-buffer sizes larger partition factors produce. The file uses
//! a v1 header, which carries no checksums, so no CRC is timed here.

use spio_core::shuffle::{lod_permutation, partition_seed, LodOrder};
use spio_format::data_file::{assemble_data_file, DataFileHeader};
use spio_types::particle::{encode_particles, record_table};
use spio_types::{Aabb3, Particle};
use spio_util::bench::{bench, black_box};

fn main() {
    // 32 Ki = the paper's per-core load; 256 Ki and 2 Mi = typical
    // aggregation buffers at factors (2,2,2) and (4,4,4).
    for (label, n) in [
        ("32Ki", 32 * 1024),
        ("256Ki", 256 * 1024),
        ("2Mi", 2048 * 1024),
    ] {
        let particles: Vec<Particle> = (0..n)
            .map(|i| Particle::synthetic([i as f64 / n as f64, 0.5, 0.5], i as u64))
            .collect();
        let messages = [encode_particles(&particles)];
        drop(particles);
        let records = record_table(&messages).unwrap();
        let bounds = Aabb3::new([0.0; 3], [1.0; 3]);
        let seed = partition_seed(1, 7);
        let header = DataFileHeader::new_v1(n as u64, bounds, seed);
        bench(&format!("lod_order/{label}"), || {
            let perm = lod_permutation(LodOrder::Random, &records, &bounds, black_box(seed));
            black_box(assemble_data_file(&header, &records, &perm.unwrap()).unwrap());
        });
    }
}
