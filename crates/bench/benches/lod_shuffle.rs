//! Microbench for the LOD reshuffle (§3.4).
//!
//! The paper measures the reordering of 32 Ki particles at 33 ms on Mira
//! and 80 ms on Theta (single core, not parallelized). This bench measures
//! the same operation on the build machine, at the paper's size and at the
//! aggregated-buffer sizes larger partition factors produce.

use spio_core::shuffle::{lod_shuffle, partition_seed, shuffle_permutation};
use spio_types::Particle;
use spio_util::bench::{bench, black_box};

fn particles(n: usize) -> Vec<Particle> {
    (0..n)
        .map(|i| Particle::synthetic([i as f64, 0.0, 0.0], i as u64))
        .collect()
}

fn main() {
    // 32 Ki = the paper's per-core load; 256 Ki and 2 Mi = typical
    // aggregation buffers at factors (2,2,2) and (4,4,4).
    for n in [32 * 1024usize, 256 * 1024, 2 * 1024 * 1024] {
        let base = particles(n);
        bench(&format!("lod_shuffle/{n}"), || {
            let mut buf = base.clone();
            lod_shuffle(&mut buf, black_box(42));
            black_box(buf.len());
        });
    }
    bench("shuffle_permutation_32k", || {
        black_box(shuffle_permutation(32 * 1024, partition_seed(1, 7)));
    });
}
