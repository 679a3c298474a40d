//! Fig. 9: level-of-detail fidelity on a coal-injection-style dataset.
//!
//! The paper renders a 55 M-particle coal-jet dataset at 25/50/75/100 % of
//! the particles and observes that "most of the features are still visible
//! even using only 25 % of the particle data". As a quantitative proxy for
//! the rendering, this experiment writes a jet dataset with the real
//! spatially-aware writer (thread runtime), reads LOD prefixes of
//! increasing size, and compares the reconstructed density field against
//! the full dataset: normalized RMSE and feature coverage (the fraction of
//! occupied density cells that the prefix also samples).

use spio_comm::{run_threaded_collect, Comm};
use spio_core::{
    DatasetReader, FsStorage, LodOrder, MemStorage, SpatialWriter, Storage, WriterConfig,
};
use spio_types::{Aabb3, DomainDecomposition, GridDims, Particle, PartitionFactor};
use spio_workloads::{jet_patch_particles, JetSpec};

/// Density histogram resolution per axis.
pub const DENSITY_GRID: usize = 24;

/// One fidelity measurement.
#[derive(Debug, Clone)]
pub struct FidelityPoint {
    /// Fraction of the dataset read (0, 1].
    pub fraction: f64,
    pub particles_read: u64,
    /// RMSE of the (prefix-rescaled) density field vs the full data,
    /// normalized by the full field's RMS value.
    pub normalized_rmse: f64,
    /// Fraction of cells occupied in the full dataset that the prefix also
    /// samples — "are the features still visible?".
    pub coverage: f64,
}

/// Accumulate a density histogram over the unit cube.
pub fn density_field(particles: &[Particle], domain: &Aabb3) -> Vec<f64> {
    let mut grid = vec![0.0f64; DENSITY_GRID * DENSITY_GRID * DENSITY_GRID];
    for p in particles {
        let c = domain.cell_of([DENSITY_GRID; 3], p.position);
        grid[c[0] + DENSITY_GRID * (c[1] + DENSITY_GRID * c[2])] += 1.0;
    }
    grid
}

/// Compare a prefix's density field against the full field.
pub fn fidelity(full: &[f64], prefix: &[f64], fraction: f64) -> (f64, f64) {
    debug_assert_eq!(full.len(), prefix.len());
    let scale = 1.0 / fraction;
    let mut se = 0.0;
    let mut ref_sq = 0.0;
    let mut occupied = 0usize;
    let mut covered = 0usize;
    for (f, p) in full.iter().zip(prefix) {
        let diff = f - p * scale;
        se += diff * diff;
        ref_sq += f * f;
        if *f > 0.0 {
            occupied += 1;
            if *p > 0.0 {
                covered += 1;
            }
        }
    }
    let nrmse = if ref_sq > 0.0 {
        (se / ref_sq).sqrt()
    } else {
        0.0
    };
    let coverage = if occupied > 0 {
        covered as f64 / occupied as f64
    } else {
        1.0
    };
    (nrmse, coverage)
}

/// Write a jet dataset with `nprocs` thread-backed ranks and return the
/// storage. Runs the real spatially-aware writer end to end.
pub fn write_jet_dataset(nprocs: usize, total_particles: u64, seed: u64) -> MemStorage {
    write_jet_dataset_ordered(nprocs, total_particles, seed, LodOrder::Random)
}

/// Like [`write_jet_dataset`] but with an explicit LOD ordering heuristic
/// (§3.4 ablation: random vs stratified).
pub fn write_jet_dataset_ordered(
    nprocs: usize,
    total_particles: u64,
    seed: u64,
    order: LodOrder,
) -> MemStorage {
    let storage = MemStorage::new();
    let s2 = storage.clone();
    let decomp =
        DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::near_cubic(nprocs));
    let spec = JetSpec {
        total_particles,
        ..JetSpec::default()
    };
    run_threaded_collect(nprocs, move |comm| {
        let particles = jet_patch_particles(&decomp, comm.rank(), &spec, seed);
        // The jet leaves much of the domain empty: use adaptive aggregation.
        let writer = SpatialWriter::new(
            decomp.clone(),
            WriterConfig::new(PartitionFactor::new(2, 2, 2))
                .with_seed(seed)
                .with_lod_order(order)
                .adaptive(true),
        );
        writer.write(&comm, &particles, &s2).unwrap();
    })
    .unwrap();
    storage
}

/// Run the Fig. 9 sweep: read 25/50/75/100 % LOD prefixes of a jet dataset
/// and measure fidelity.
pub fn lod_quality<S: Storage>(storage: &S, fractions: &[f64]) -> Vec<FidelityPoint> {
    let reader = DatasetReader::open(storage).expect("dataset must exist");
    let domain = reader.meta.domain;
    let total = reader.meta.total_particles;
    let (all, _) = reader.read_all(storage).expect("full read");
    let full_field = density_field(&all, &domain);

    fractions
        .iter()
        .map(|&fraction| {
            // Read a proportional prefix of *every* file, exactly as an
            // application targeting this sampling rate would: the shuffled
            // layout makes each file prefix a uniform subsample of its
            // partition, so the union is a uniform subsample of the domain.
            let target = (total as f64 * fraction).round() as u64;
            let (prefix, _) = reader
                .read_lod_prefix(storage, target)
                .expect("prefix read");
            let actual_fraction = prefix.len() as f64 / total as f64;
            let pf = density_field(&prefix, &domain);
            let (normalized_rmse, coverage) = fidelity(&full_field, &pf, actual_fraction);
            FidelityPoint {
                fraction,
                particles_read: prefix.len() as u64,
                normalized_rmse,
                coverage,
            }
        })
        .collect()
}

/// Render an x–y density projection of `particles` to a binary PPM (P6)
/// image — the closest artifact to the paper's Fig. 9 renderings this
/// repository produces. Uses a perceptually monotone blue→yellow ramp.
pub fn render_ppm(particles: &[Particle], domain: &Aabb3, width: usize, height: usize) -> Vec<u8> {
    let mut hist = vec![0u32; width * height];
    let e = domain.extent();
    for p in particles {
        let cx = (((p.position[0] - domain.lo[0]) / e[0]) * width as f64) as usize;
        let cy = (((p.position[1] - domain.lo[1]) / e[1]) * height as f64) as usize;
        hist[cx.min(width - 1) + width * cy.min(height - 1)] += 1;
    }
    let max = *hist.iter().max().unwrap_or(&1) as f64;
    let mut out = format!("P6\n{width} {height}\n255\n").into_bytes();
    for row in 0..height {
        for col in 0..width {
            let v = (hist[col + width * row] as f64 / max).powf(0.35);
            // Blue (cold) to yellow (hot).
            let r = (v * 255.0) as u8;
            let g = (v * 230.0) as u8;
            let b = ((1.0 - v) * 160.0 + 40.0 * v) as u8;
            out.extend_from_slice(&[r, g, b]);
        }
    }
    out
}

/// Convenience for the binary: write to a directory instead of memory.
pub fn write_jet_dataset_fs(
    dir: &std::path::Path,
    nprocs: usize,
    total_particles: u64,
    seed: u64,
) -> FsStorage {
    let storage = FsStorage::new(dir);
    let s2 = storage.clone();
    let decomp =
        DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::near_cubic(nprocs));
    let spec = JetSpec {
        total_particles,
        ..JetSpec::default()
    };
    run_threaded_collect(nprocs, move |comm| {
        let particles = jet_patch_particles(&decomp, comm.rank(), &spec, seed);
        let writer = SpatialWriter::new(
            decomp.clone(),
            WriterConfig::new(PartitionFactor::new(2, 2, 2))
                .with_seed(seed)
                .adaptive(true),
        );
        writer.write(&comm, &particles, &s2).unwrap();
    })
    .unwrap();
    storage
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_improves_with_fraction() {
        let storage = write_jet_dataset(8, 60_000, 7);
        let pts = lod_quality(&storage, &[0.25, 0.5, 0.75, 1.0]);
        assert_eq!(pts.len(), 4);
        // RMSE decreases monotonically (up to sampling noise) and is ~0 at
        // 100%.
        assert!(pts[3].normalized_rmse < 1e-9, "full read is exact");
        assert!(
            pts[0].normalized_rmse > pts[2].normalized_rmse,
            "25% {} must be noisier than 75% {}",
            pts[0].normalized_rmse,
            pts[2].normalized_rmse
        );
        // The paper's observation: 25% still shows the features.
        assert!(
            pts[0].coverage > 0.5,
            "25% must cover most occupied cells: {}",
            pts[0].coverage
        );
        assert!(pts[3].coverage > 0.999);
    }

    #[test]
    fn stratified_order_covers_at_least_as_well_at_low_fractions() {
        // §3.4 ablation: the stratified heuristic must not lose to the
        // random shuffle on feature coverage at small prefixes.
        let random = write_jet_dataset_ordered(8, 60_000, 7, LodOrder::Random);
        let strat = write_jet_dataset_ordered(8, 60_000, 7, LodOrder::Stratified);
        let r = lod_quality(&random, &[0.05]);
        let s = lod_quality(&strat, &[0.05]);
        assert!(
            s[0].coverage >= r[0].coverage - 0.02,
            "stratified {} vs random {}",
            s[0].coverage,
            r[0].coverage
        );
        // Both remain valid datasets covering everything at 100%.
        let s_full = lod_quality(&strat, &[1.0]);
        assert!(s_full[0].normalized_rmse < 1e-9);
    }

    #[test]
    fn ppm_render_has_correct_header_and_size() {
        let ps: Vec<Particle> = (0..100)
            .map(|i| Particle::synthetic([(i as f64) / 100.0, 0.5, 0.5], i))
            .collect();
        let img = render_ppm(&ps, &Aabb3::new([0.0; 3], [1.0; 3]), 32, 16);
        assert!(img.starts_with(b"P6\n32 16\n255\n"));
        let header_len = b"P6\n32 16\n255\n".len();
        assert_eq!(img.len(), header_len + 32 * 16 * 3);
    }

    #[test]
    fn density_field_counts_all_particles() {
        let storage = write_jet_dataset(8, 10_000, 3);
        let reader = DatasetReader::open(&storage).unwrap();
        let (all, _) = reader.read_all(&storage).unwrap();
        let field = density_field(&all, &reader.meta.domain);
        assert_eq!(field.iter().sum::<f64>() as u64, 10_000);
    }

    #[test]
    fn fidelity_of_identical_fields_is_zero() {
        let f = vec![1.0, 2.0, 0.0, 5.0];
        let (rmse, cov) = fidelity(&f, &f, 1.0);
        assert!(rmse < 1e-12);
        assert_eq!(cov, 1.0);
    }

    #[test]
    fn fidelity_detects_missing_features() {
        let full = vec![4.0, 4.0, 4.0, 4.0];
        let prefix = vec![1.0, 1.0, 0.0, 0.0]; // half the features absent
        let (rmse, cov) = fidelity(&full, &prefix, 0.25);
        assert!(rmse > 0.5);
        assert_eq!(cov, 0.5);
    }
}
