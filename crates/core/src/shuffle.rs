//! Level-of-detail particle ordering (§3.4).
//!
//! After aggregation, each aggregator orders its partition so that any
//! prefix of the stored sequence is a representative subset of the
//! partition. The paper implements the ordering as a random reshuffle —
//! levels of detail are then just nested prefixes, with no storage overhead
//! over the raw data. The shuffle is a seeded Fisher–Yates permutation, so
//! the layout is reproducible and the permutation can be reconstructed from
//! the seed recorded in the data-file header.
//!
//! Records are fixed-size, so the order is computed as an index
//! permutation `perm[new] = old` over the received, still-encoded records;
//! `spio_format::data_file::assemble_data_file` then gathers the records
//! into the file in that order. No record is decoded or moved to order it.

use spio_types::particle::record_position;
use spio_types::{Aabb3, SpioError, PARTICLE_BYTES};
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

/// The `order` permutation `perm[new_index] = old_index` of a partition's
/// encoded records; `bounds` is the partition box and `seed` its
/// [`partition_seed`]. A partition of more than `u32::MAX` records is a
/// [`SpioError::Config`].
pub fn lod_permutation(
    order: LodOrder,
    records: &[&[u8; PARTICLE_BYTES]],
    bounds: &Aabb3,
    seed: u64,
) -> Result<Vec<u32>, SpioError> {
    match order {
        LodOrder::Random => shuffle_permutation(records.len(), seed),
        LodOrder::Stratified => stratified_permutation(records, bounds, seed),
    }
}

/// The seeded Fisher–Yates permutation of `len` records,
/// `perm[new_index] = old_index`, so a file's layout can be undone from its
/// header seed. More than `u32::MAX` records is a [`SpioError::Config`].
pub fn shuffle_permutation(len: usize, seed: u64) -> Result<Vec<u32>, SpioError> {
    let mut perm: Vec<u32> = (0..index_bound(len)?).collect();
    Rng::seed_from_u64(seed).shuffle(&mut perm);
    Ok(perm)
}

/// Stratified LOD ordering: bin records into a `cells³` grid over `bounds`
/// by their positions, shuffle each cell's index list (seeded per cell),
/// then emit one index per occupied cell per round. Any prefix therefore
/// samples all occupied cells as evenly as possible — the "density"
/// heuristic family of §3.4.
fn stratified_permutation(
    records: &[&[u8; PARTICLE_BYTES]],
    bounds: &Aabb3,
    seed: u64,
) -> Result<Vec<u32>, SpioError> {
    let n = index_bound(records.len())?;
    // Aim for ~64 particles per cell, capped so tiny buffers still work.
    let cells = (((n as f64) / 64.0).cbrt().ceil() as usize).clamp(1, 16);
    let dims = [cells; 3];
    let mut bins: Vec<Vec<u32>> = vec![Vec::new(); cells * cells * cells];
    for (i, record) in (0..n).zip(records) {
        let c = bounds.cell_of(dims, record_position(record));
        bins[c[0] + cells * (c[1] + cells * c[2])].push(i);
    }
    for (i, bin) in bins.iter_mut().enumerate() {
        let mut rng = Rng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
        rng.shuffle(bin);
    }
    // Round-robin drain: one index per non-empty cell per round.
    let rounds = bins.iter().map(Vec::len).max().unwrap_or(0);
    let perm = (0..rounds)
        .flat_map(|round| bins.iter().filter_map(move |bin| bin.get(round).copied()))
        .collect();
    Ok(perm)
}

/// `len` as the exclusive bound of a `u32` record index.
fn index_bound(len: usize) -> Result<u32, SpioError> {
    u32::try_from(len).map_err(|_| {
        SpioError::Config(format!(
            "a partition of {len} particles exceeds the {} one data file can index",
            u32::MAX
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spio_types::particle::{encode_particles, record_table};
    use spio_types::Particle;

    fn encoded(positions: impl Iterator<Item = [f64; 3]>) -> Vec<u8> {
        let ps: Vec<Particle> = positions
            .enumerate()
            .map(|(i, pos)| Particle::synthetic(pos, i as u64))
            .collect();
        encode_particles(&ps)
    }

    fn stratify(bytes: &[u8], bounds: &Aabb3, seed: u64) -> Vec<u32> {
        stratified_permutation(&record_table(&[bytes]).unwrap(), bounds, seed).unwrap()
    }

    fn assert_permutation(perm: &[u32]) {
        let mut sorted = perm.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..perm.len() as u32).collect::<Vec<u32>>());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let perm = shuffle_permutation(1000, 42).unwrap();
        assert_permutation(&perm);
        assert_ne!(
            perm,
            (0..1000).collect::<Vec<u32>>(),
            "1000 indices must move"
        );
    }

    #[test]
    fn shuffle_is_deterministic_in_seed() {
        let a = shuffle_permutation(100, 7).unwrap();
        assert_eq!(a, shuffle_permutation(100, 7).unwrap());
        assert_ne!(a, shuffle_permutation(100, 8).unwrap());
    }

    /// Pins the permutation to the one the struct-swapping Fisher–Yates
    /// shuffle produced, so files written before the index permutation
    /// replaced it keep their layout.
    #[test]
    fn shuffle_permutation_is_pinned() {
        assert_eq!(
            shuffle_permutation(12, 99).unwrap(),
            [9, 10, 7, 5, 8, 2, 3, 4, 1, 11, 6, 0]
        );
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
        // Particles on a line 0..1000 (x = index); a 10% prefix of the
        // shuffle should span most of the range (crude uniformity check:
        // prefix mean near the middle, min/max near the ends).
        let perm = shuffle_permutation(1000, 5).unwrap();
        let xs: Vec<f64> = perm[..100].iter().map(|&i| f64::from(i)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((350.0..650.0).contains(&mean), "prefix mean {mean}");
        assert!(xs.iter().cloned().fold(f64::MAX, f64::min) < 100.0);
        assert!(xs.iter().cloned().fold(f64::MIN, f64::max) > 900.0);
    }

    #[test]
    fn stratified_is_a_permutation_with_early_coverage() {
        // Particles clustered: 8 groups along x.
        let n = 4096;
        let xs: Vec<f64> = (0..n)
            .map(|i| {
                let group = i % 8;
                (group as f64 / 8.0 + (i / 8) as f64 / (n as f64)).min(0.999)
            })
            .collect();
        let bytes = encoded(xs.iter().map(|&x| [x, 0.5, 0.5]));
        let perm = stratify(&bytes, &Aabb3::new([0.0; 3], [1.0; 3]), 7);
        assert_eq!(perm.len(), n);
        assert_permutation(&perm);
        // A tiny prefix touches every 1/8 x-slab.
        for g in 0..8 {
            let lo = g as f64 / 8.0;
            assert!(
                perm[..64]
                    .iter()
                    .any(|&i| (lo..lo + 0.125).contains(&xs[i as usize])),
                "slab {g} unsampled by stratified prefix"
            );
        }
    }

    /// Pins the stratified order (2³ cells for 72 records) to the one the
    /// struct-moving implementation produced.
    #[test]
    fn stratified_permutation_is_pinned() {
        let bytes = encoded((0..72).map(|i| {
            let (x, y, z) = ((i * 7 % 72) as f64, (i % 5) as f64, (i % 3) as f64);
            [x / 72.0, y / 5.0, z / 3.0]
        }));
        let perm = stratify(&bytes, &Aabb3::new([0.0; 3], [1.0; 3]), 11);
        assert_eq!(
            perm,
            [
                46, 27, 4, 19, 2, 71, 23, 38, 55, 70, 33, 69, 11, 41, 44, 8, 45, 61, 34, 49, 56,
                17, 14, 29, 25, 51, 54, 9, 62, 26, 53, 68, 31, 40, 3, 18, 5, 20, 59, 0, 16, 13, 28,
                65, 50, 52, 67, 63, 39, 35, 47, 66, 10, 43, 48, 32, 12, 36, 24, 58, 42, 60, 64, 1,
                30, 22, 7, 15, 6, 21, 57, 37
            ]
        );
    }

    #[test]
    fn stratified_deterministic() {
        let bounds = Aabb3::new([0.0; 3], [10_000.0, 1.0, 1.0]);
        let bytes = encoded((0..1000).map(|i| [i as f64, 0.0, 0.0]));
        assert_eq!(stratify(&bytes, &bounds, 5), stratify(&bytes, &bounds, 5));
    }

    #[test]
    fn empty_and_single_are_identity() {
        let bounds = Aabb3::new([0.0; 3], [1.0; 3]);
        assert!(shuffle_permutation(0, 1).unwrap().is_empty());
        assert_eq!(shuffle_permutation(1, 1).unwrap(), [0]);
        assert!(stratify(&[], &bounds, 1).is_empty());
        assert_eq!(stratify(&encoded([[0.5; 3]].into_iter()), &bounds, 1), [0]);
    }

    #[test]
    fn oversized_partition_is_a_config_error() {
        // Checked before anything is allocated.
        let too_many = u32::MAX as usize + 1;
        assert!(matches!(
            shuffle_permutation(too_many, 1),
            Err(SpioError::Config(_))
        ));
    }
}
