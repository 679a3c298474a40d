//! Level-of-detail particle reordering (§3.4).
//!
//! After aggregation, each aggregator reorders its particles in place so
//! that any prefix of the stored sequence is a representative subset of the
//! partition. The paper implements the reordering as a random reshuffle —
//! levels of detail are then just nested prefixes, with no storage overhead
//! over the raw data. The shuffle is a seeded Fisher–Yates permutation, so
//! the layout is reproducible and the permutation can be reconstructed from
//! the seed recorded in the data-file header.

use spio_types::{Aabb3, Particle};
use spio_util::Rng;

/// Which reordering heuristic produced a file's LOD layout (§3.4: "the
/// order of particles used to create the levels of detail can be defined
/// using different kinds of heuristics such as density or random").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LodOrder {
    /// Seeded uniform random permutation (the paper's implemented choice).
    #[default]
    Random,
    /// Spatially stratified: particles are binned into a uniform cell grid
    /// and emitted round-robin across cells (shuffled within each cell), so
    /// even tiny prefixes touch every occupied region. Better feature
    /// coverage at very low levels of detail; slightly more work to build.
    Stratified,
}

/// Derive the shuffle seed for one partition's file from the dataset seed
/// and the partition's linear index.
pub fn partition_seed(dataset_seed: u64, partition: usize) -> u64 {
    // splitmix64 avalanche of the combined value.
    let mut z = dataset_seed ^ (partition as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shuffle `particles` in place with the given seed (Fisher–Yates).
pub fn lod_shuffle(particles: &mut [Particle], seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    rng.shuffle(particles);
}

/// Stratified LOD ordering: bin particles into a `cells³` grid over
/// `bounds`, shuffle each cell's list (seeded per cell), then emit one
/// particle per occupied cell per round. Any prefix therefore samples all
/// occupied cells as evenly as possible — the "density" heuristic family
/// of §3.4. Returns a permutation of the input.
pub fn lod_stratify(particles: &mut [Particle], bounds: &Aabb3, seed: u64) {
    let n = particles.len();
    if n < 2 {
        return;
    }
    // Aim for ~64 particles per cell, capped so tiny buffers still work.
    let cells = (((n as f64) / 64.0).cbrt().ceil() as usize).clamp(1, 16);
    let dims = [cells; 3];
    let ncells = cells * cells * cells;
    let mut bins: Vec<Vec<Particle>> = vec![Vec::new(); ncells];
    for p in particles.iter() {
        let c = bounds.cell_of(dims, p.position);
        bins[c[0] + cells * (c[1] + cells * c[2])].push(*p);
    }
    for (i, bin) in bins.iter_mut().enumerate() {
        let mut rng = Rng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
        rng.shuffle(bin);
    }
    // Round-robin drain: one particle per non-empty cell per round.
    let mut cursors = vec![0usize; ncells];
    let mut out_idx = 0;
    while out_idx < n {
        for (bin, cursor) in bins.iter().zip(cursors.iter_mut()) {
            if *cursor < bin.len() {
                particles[out_idx] = bin[*cursor];
                *cursor += 1;
                out_idx += 1;
            }
        }
    }
}

/// Recompute the permutation applied by [`lod_shuffle`] for a buffer of
/// `len` elements: `perm[new_index] = old_index`, so a file's layout can be
/// undone from its header seed.
pub fn shuffle_permutation(len: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..len).collect();
    let mut rng = Rng::seed_from_u64(seed);
    rng.shuffle(&mut perm);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn particles(n: usize) -> Vec<Particle> {
        (0..n)
            .map(|i| Particle::synthetic([i as f64, 0.0, 0.0], i as u64))
            .collect()
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let original = particles(1000);
        let mut shuffled = original.clone();
        lod_shuffle(&mut shuffled, 42);
        let mut ids: Vec<u64> = shuffled.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..1000).collect::<Vec<u64>>());
        assert_ne!(shuffled, original, "1000 elements must actually move");
    }

    #[test]
    fn shuffle_is_deterministic_in_seed() {
        let mut a = particles(100);
        let mut b = particles(100);
        let mut c = particles(100);
        lod_shuffle(&mut a, 7);
        lod_shuffle(&mut b, 7);
        lod_shuffle(&mut c, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn permutation_matches_shuffle() {
        let original = particles(257);
        let mut shuffled = original.clone();
        lod_shuffle(&mut shuffled, 99);
        let perm = shuffle_permutation(257, 99);
        for (new_idx, &old_idx) in perm.iter().enumerate() {
            assert_eq!(shuffled[new_idx], original[old_idx]);
        }
    }

    #[test]
    fn partition_seeds_differ() {
        let s0 = partition_seed(1, 0);
        let s1 = partition_seed(1, 1);
        let t0 = partition_seed(2, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, t0);
        // Deterministic.
        assert_eq!(partition_seed(1, 0), s0);
    }

    #[test]
    fn prefix_is_spatially_representative() {
        // Particles on a line 0..1000; a 10% prefix of the shuffle should
        // span most of the range (crude uniformity check: prefix mean near
        // the middle, min/max near the ends).
        let mut ps = particles(1000);
        lod_shuffle(&mut ps, 5);
        let prefix = &ps[..100];
        let xs: Vec<f64> = prefix.iter().map(|p| p.position[0]).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((350.0..650.0).contains(&mean), "prefix mean {mean}");
        assert!(xs.iter().cloned().fold(f64::MAX, f64::min) < 100.0);
        assert!(xs.iter().cloned().fold(f64::MIN, f64::max) > 900.0);
    }

    #[test]
    fn stratified_is_a_permutation_with_early_coverage() {
        // Particles clustered: 8 groups along x.
        let n = 4096;
        let original: Vec<Particle> = (0..n)
            .map(|i| {
                let group = i % 8;
                let x = group as f64 / 8.0 + (i / 8) as f64 / (n as f64);
                Particle::synthetic([x.min(0.999), 0.5, 0.5], i)
            })
            .collect();
        let bounds = Aabb3::new([0.0; 3], [1.0; 3]);
        let mut strat = original.clone();
        lod_stratify(&mut strat, &bounds, 7);
        // Still a permutation.
        let mut ids: Vec<u64> = strat.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        assert_eq!(ids.len(), n as usize);
        assert_eq!(ids, (0..n).collect::<Vec<u64>>());
        // A tiny prefix touches every 1/8 x-slab.
        let prefix = &strat[..64];
        for g in 0..8 {
            let lo = g as f64 / 8.0;
            assert!(
                prefix
                    .iter()
                    .any(|p| p.position[0] >= lo && p.position[0] < lo + 0.125),
                "slab {g} unsampled by stratified prefix"
            );
        }
    }

    #[test]
    fn stratified_deterministic() {
        let bounds = Aabb3::new([0.0; 3], [10_000.0, 1.0, 1.0]);
        let mut a = particles(1000);
        let mut b = particles(1000);
        lod_stratify(&mut a, &bounds, 5);
        lod_stratify(&mut b, &bounds, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_single_are_noops() {
        let mut none: Vec<Particle> = Vec::new();
        lod_shuffle(&mut none, 1);
        assert!(none.is_empty());
        let mut one = particles(1);
        lod_shuffle(&mut one, 1);
        lod_stratify(&mut one, &Aabb3::new([0.0; 3], [1.0; 3]), 1);
        assert_eq!(one[0].id, 0);
    }
}
