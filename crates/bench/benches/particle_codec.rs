//! Microbench for the particle record codec: the serialization on the
//! write path and the decode on the read path (124 B per particle).

use spio_types::particle::{decode_particles, encode_particles};
use spio_types::Particle;
use spio_util::bench::{bench, black_box};

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
    }
}
