//! Microbench for the particle record codec: the serialization on the
//! write path and the decode on the read path (124 B per particle), plus
//! the CRC-32 that checksums those bytes on both paths — the portable
//! slicing-by-16 loop and the dispatched path (the hardware kernel where
//! the CPU has one).

use spio_types::particle::{decode_particles, encode_particles};
use spio_types::Particle;
use spio_util::bench::{bench, black_box};
use spio_util::crc::{crc32, crc32_portable};

fn particles(n: usize) -> Vec<Particle> {
    (0..n)
        .map(|i| Particle::synthetic([i as f64, 1.0, -2.0], i as u64))
        .collect()
}

fn main() {
    for n in [1024usize, 32 * 1024] {
        let ps = particles(n);
        let bytes = encode_particles(&ps);
        bench(&format!("particle_codec/encode/{n}"), || {
            black_box(encode_particles(&ps));
        });
        bench(&format!("particle_codec/decode/{n}"), || {
            let _ = black_box(decode_particles(&bytes));
        });
        if n == 32 * 1024 {
            bench(&format!("particle_codec/crc32/portable/{n}"), || {
                black_box(crc32_portable(black_box(&bytes)));
            });
            bench(&format!("particle_codec/crc32/dispatched/{n}"), || {
                black_box(crc32(black_box(&bytes)));
            });
        }
    }
}
