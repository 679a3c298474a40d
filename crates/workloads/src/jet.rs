//! Injected-jet workload: a conical particle plume entering the domain from
//! one face, mimicking the coal-particle injection simulation rendered in
//! the paper's Fig. 9 (and the "particles injected over time" scenario of
//! §6). Density is highest near the inlet and spreads/decays downstream, so
//! much of the domain is empty — an adaptive-aggregation stress case.

use crate::{make_particle, rank_rng};
use spio_types::{DomainDecomposition, Particle, Rank};
use spio_util::Rng;

/// Parameters of the injection jet. The jet travels along +x from the
/// x = lo face, centered on the (y, z) midpoint of that face.
#[derive(Debug, Clone)]
pub struct JetSpec {
    /// How far into the domain (fraction of the x extent) the plume reaches.
    pub penetration: f64,
    /// Cone half-width at the inlet, as a fraction of the y/z extent.
    pub inlet_radius: f64,
    /// Cone half-width at full penetration, as a fraction of the y/z extent.
    pub outlet_radius: f64,
    /// Global particle budget.
    pub total_particles: u64,
}

impl Default for JetSpec {
    fn default() -> Self {
        JetSpec {
            penetration: 0.7,
            inlet_radius: 0.05,
            outlet_radius: 0.25,
            total_particles: 1 << 20,
        }
    }
}

impl JetSpec {
    /// Sample one plume position in normalized [0,1)³ coordinates.
    /// Axial density decays linearly toward the tip; radial profile is a
    /// truncated Gaussian widening with depth.
    fn sample_unit(&self, rng: &mut Rng) -> [f64; 3] {
        // Axial position: triangular density favouring the inlet.
        let t = 1.0 - (1.0 - rng.f64()).sqrt(); // pdf ∝ (1 - t)
        let x = t * self.penetration;
        let radius = self.inlet_radius + (self.outlet_radius - self.inlet_radius) * t;
        // Radial: Gaussian truncated at the cone wall (rejection).
        loop {
            let dy = (rng.f64() * 2.0 - 1.0) * radius;
            let dz = (rng.f64() * 2.0 - 1.0) * radius;
            let r2 = dy * dy + dz * dz;
            if r2 > radius * radius {
                continue;
            }
            let keep = (-(r2 / (radius * radius)) * 2.0).exp();
            if rng.f64() <= keep {
                let y = (0.5 + dy).clamp(0.0, 1.0 - 1e-12);
                let z = (0.5 + dz).clamp(0.0, 1.0 - 1e-12);
                return [x.min(1.0 - 1e-12), y, z];
            }
        }
    }
}

/// Generate `rank`'s particles for the jet workload.
///
/// Every rank deterministically replays the same global plume stream and
/// keeps the particles that land in its own patch, so the union over ranks
/// is exactly `spec.total_particles` particles with globally consistent ids
/// — without any communication. The replay cost is O(total) per rank, which
/// is fine at the scales the thread runtime targets (the scale experiments
/// run through `hpcsim`, which only needs per-rank counts).
pub fn jet_patch_particles(
    decomp: &DomainDecomposition,
    rank: Rank,
    spec: &JetSpec,
    seed: u64,
) -> Vec<Particle> {
    // One shared stream: rank_rng of a fixed pseudo-rank so all ranks agree.
    let mut rng = rank_rng(seed, usize::MAX >> 1);
    let e = decomp.bounds.extent();
    let lo = decomp.bounds.lo;
    let mut out = Vec::new();
    for i in 0..spec.total_particles {
        let u = spec.sample_unit(&mut rng);
        let p = [
            lo[0] + u[0] * e[0],
            lo[1] + u[1] * e[1],
            lo[2] + u[2] * e[2],
        ];
        if decomp.rank_containing(p) == rank {
            // Ids come from the shared stream index so they are globally
            // unique and stable regardless of which rank keeps the particle.
            out.push(make_particle(p, 0, i));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spio_types::{Aabb3, GridDims};

    fn decomp() -> DomainDecomposition {
        DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(2, 2, 2))
    }

    fn small_spec() -> JetSpec {
        JetSpec {
            total_particles: 5000,
            ..JetSpec::default()
        }
    }

    #[test]
    fn union_over_ranks_is_exactly_total() {
        let d = decomp();
        let spec = small_spec();
        let total: usize = (0..d.nprocs())
            .map(|r| jet_patch_particles(&d, r, &spec, 3).len())
            .sum();
        assert_eq!(total, spec.total_particles as usize);
    }

    #[test]
    fn plume_hugs_the_inlet() {
        let d = decomp();
        let spec = small_spec();
        let counts: Vec<usize> = (0..d.nprocs())
            .map(|r| jet_patch_particles(&d, r, &spec, 7).len())
            .collect();
        // Patches at x < 0.5 (ranks with coord x = 0) must hold the large
        // majority of particles for a penetration-0.7 triangular profile.
        let near: usize = (0..d.nprocs())
            .filter(|&r| d.patch_coords(r)[0] == 0)
            .map(|r| counts[r])
            .sum();
        let total: usize = counts.iter().sum();
        assert!(
            near as f64 > 0.7 * total as f64,
            "inlet half holds {near}/{total}"
        );
    }

    #[test]
    fn ids_unique_across_union() {
        let d = decomp();
        let spec = small_spec();
        let mut ids: Vec<u64> = (0..d.nprocs())
            .flat_map(|r| jet_patch_particles(&d, r, &spec, 1))
            .map(|p| p.id)
            .collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn particles_inside_domain_and_patch() {
        let d = decomp();
        let ps = jet_patch_particles(&d, 0, &small_spec(), 2);
        let b = d.patch_bounds(0);
        assert!(!ps.is_empty());
        assert!(ps.iter().all(|p| b.contains(p.position)));
    }
}
