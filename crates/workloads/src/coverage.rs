//! Shrinking-coverage workload (§6.1, Fig. 10d and Fig. 11).
//!
//! The paper's adaptive-aggregation study divides the domain into equal
//! regions and generates particles "distributed over progressively smaller
//! portions of the domain, ranging from covering the entire domain, to 50 %,
//! 25 %, down to only 12.5 %" — with the *total* particle count constant, so
//! occupied patches get denser as coverage shrinks and the rest hold no
//! particles at all.

use crate::{make_particle, rank_rng, sample_in};
use spio_types::{Aabb3, DomainDecomposition, Particle, Rank};

/// Coverage-fraction workload parameters.
#[derive(Debug, Clone)]
pub struct CoverageSpec {
    /// Fraction of the domain (by x-extent) that contains particles, in
    /// (0, 1]. 1.0 reproduces the uniform workload.
    pub fraction: f64,
    /// Total particles across the whole job (constant across fractions).
    pub total_particles: u64,
}

impl CoverageSpec {
    pub fn new(fraction: f64, total_particles: u64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "coverage fraction must be in (0, 1], got {fraction}"
        );
        CoverageSpec {
            fraction,
            total_particles,
        }
    }

    /// The occupied subregion: the leading `fraction` of the domain along x
    /// (Fig. 10d shades a contiguous band of the domain).
    pub fn occupied_region(&self, domain: &Aabb3) -> Aabb3 {
        let e = domain.extent();
        Aabb3::new(
            domain.lo,
            [
                domain.lo[0] + e[0] * self.fraction,
                domain.hi[1],
                domain.hi[2],
            ],
        )
    }
}

/// Generate `rank`'s particles. The global budget is split evenly over the
/// occupied *volume*; a rank whose patch lies outside the region returns an
/// empty vector (and, per §6, will not participate in aggregation at all).
pub fn coverage_patch_particles(
    decomp: &DomainDecomposition,
    rank: Rank,
    spec: &CoverageSpec,
    seed: u64,
) -> Vec<Particle> {
    let region = spec.occupied_region(&decomp.bounds);
    let patch = decomp.patch_bounds(rank);
    let Some(overlap) = patch.intersection(&region) else {
        return Vec::new();
    };
    let share = overlap.volume() / region.volume();
    let count = (spec.total_particles as f64 * share).round() as usize;
    let mut rng = rank_rng(seed, rank);
    (0..count)
        .map(|i| make_particle(sample_in(&mut rng, &overlap), rank, i as u64))
        .collect()
}

/// Per-rank counts for the *constant-density* variant: every occupied
/// patch holds `per_rank` particles and patches outside the region hold
/// none, so the job's total shrinks with coverage. This models simulations
/// where particles are injected over time or represent physical materials
/// occupying part of the domain (§6), and is the workload the Fig. 11 write
/// study uses.
pub fn coverage_counts_density(
    decomp: &DomainDecomposition,
    fraction: f64,
    per_rank: u64,
) -> Vec<u64> {
    let spec = CoverageSpec::new(fraction, 0);
    let region = spec.occupied_region(&decomp.bounds);
    (0..decomp.nprocs())
        .map(|r| {
            if decomp.patch_bounds(r).intersects(&region) {
                per_rank
            } else {
                0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spio_types::GridDims;

    fn decomp() -> DomainDecomposition {
        DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 2, 2))
    }

    #[test]
    fn full_coverage_occupies_every_patch() {
        let d = decomp();
        let spec = CoverageSpec::new(1.0, 16_000);
        let counts: Vec<usize> = (0..d.nprocs())
            .map(|r| coverage_patch_particles(&d, r, &spec, 1).len())
            .collect();
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        let total: usize = counts.iter().sum();
        assert!((15_500..=16_500).contains(&total));
    }

    #[test]
    fn half_coverage_empties_far_patches_but_keeps_total() {
        let d = decomp();
        let spec = CoverageSpec::new(0.5, 16_000);
        // Patches with x-coordinate ≥ 2 (x ≥ 0.5) are empty.
        for r in 0..d.nprocs() {
            let ps = coverage_patch_particles(&d, r, &spec, 1);
            if d.patch_coords(r)[0] >= 2 {
                assert!(ps.is_empty(), "far patch {r} should be empty");
            } else {
                assert!(!ps.is_empty(), "near patch {r} should be occupied");
            }
        }
        let total: usize = (0..d.nprocs())
            .map(|r| coverage_patch_particles(&d, r, &spec, 1).len())
            .sum();
        assert!(
            (15_500..=16_500).contains(&total),
            "total must stay ~constant, got {total}"
        );
    }

    #[test]
    fn occupied_patches_get_denser_as_coverage_shrinks() {
        let d = decomp();
        let full = coverage_patch_particles(&d, 0, &CoverageSpec::new(1.0, 16_000), 1).len();
        let quarter = coverage_patch_particles(&d, 0, &CoverageSpec::new(0.25, 16_000), 1).len();
        assert!(
            quarter > 3 * full,
            "25% coverage should ~4× the density: {full} vs {quarter}"
        );
    }

    #[test]
    fn particles_inside_occupied_region() {
        let d = decomp();
        let spec = CoverageSpec::new(0.125, 8_000);
        let region = spec.occupied_region(&d.bounds);
        for r in 0..d.nprocs() {
            for p in coverage_patch_particles(&d, r, &spec, 3) {
                assert!(region.contains(p.position));
            }
        }
    }

    #[test]
    #[should_panic(expected = "coverage fraction")]
    fn rejects_zero_fraction() {
        CoverageSpec::new(0.0, 100);
    }

    #[test]
    fn density_variant_keeps_per_patch_count_and_shrinks_total() {
        let d = decomp();
        let full = coverage_counts_density(&d, 1.0, 100);
        let half = coverage_counts_density(&d, 0.5, 100);
        assert!(full.iter().all(|&c| c == 100));
        assert_eq!(full.iter().sum::<u64>(), 1600);
        assert_eq!(half.iter().sum::<u64>(), 800, "total shrinks with coverage");
        for (r, &got) in half.iter().enumerate() {
            let expect = if d.patch_coords(r)[0] < 2 { 100 } else { 0 };
            assert_eq!(got, expect);
        }
    }
}
