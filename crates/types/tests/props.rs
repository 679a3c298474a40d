//! Property tests for the foundation types.

use spio_types::particle::{decode_particles, encode_particles};
use spio_types::{Aabb3, DomainDecomposition, GridDims, Particle, PartitionFactor};
use spio_util::check::{cases, Gen};

fn arb_particle(g: &mut Gen) -> Particle {
    let position = [
        g.f64_in(-1e6, 1e6),
        g.f64_in(-1e6, 1e6),
        g.f64_in(-1e6, 1e6),
    ];
    let mut p = Particle::synthetic(position, g.u64());
    p.stress[4] = g.f64_in(-1e3, 1e3);
    p.volume = g.f64_in(0.0, 1e3);
    p.ptype = g.u32_in(0, 15) as f32;
    p
}

fn arb_box(g: &mut Gen) -> Aabb3 {
    let lo = [
        g.f64_in(-100.0, 100.0),
        g.f64_in(-100.0, 100.0),
        g.f64_in(-100.0, 100.0),
    ];
    let ext = [
        g.f64_in(0.1, 50.0),
        g.f64_in(0.1, 50.0),
        g.f64_in(0.1, 50.0),
    ];
    Aabb3::new(lo, [lo[0] + ext[0], lo[1] + ext[1], lo[2] + ext[2]])
}

#[test]
fn particle_codec_roundtrip() {
    cases(256, |g: &mut Gen| {
        let n = g.usize_in(0, 63);
        let ps: Vec<Particle> = (0..n).map(|_| arb_particle(g)).collect();
        let bytes = encode_particles(&ps);
        assert_eq!(bytes.len(), ps.len() * spio_types::PARTICLE_BYTES);
        assert_eq!(decode_particles(&bytes).unwrap(), ps);
    });
}

#[test]
fn grid_linearize_bijective() {
    cases(64, |g: &mut Gen| {
        let grid = GridDims::new(g.usize_in(1, 11), g.usize_in(1, 11), g.usize_in(1, 11));
        let mut seen = vec![false; grid.count()];
        for idx in grid.iter() {
            let lin = grid.linearize(idx);
            assert!(!seen[lin], "duplicate linear index");
            seen[lin] = true;
            assert_eq!(grid.delinearize(lin), idx);
        }
        assert!(seen.into_iter().all(|s| s));
    });
}

#[test]
fn near_cubic_covers_exactly() {
    cases(256, |g: &mut Gen| {
        let n = g.usize_in(1, 4095);
        let grid = GridDims::near_cubic(n);
        assert_eq!(grid.count(), n);
    });
}

#[test]
fn cells_are_disjoint_and_cover() {
    cases(256, |g: &mut Gen| {
        let b = arb_box(g);
        let dims = [g.usize_in(1, 4), g.usize_in(1, 4), g.usize_in(1, 4)];
        let p = [g.f64_in(0.0, 1.0), g.f64_in(0.0, 1.0), g.f64_in(0.0, 1.0)];
        // An interior point lies in exactly one cell, and that cell is the
        // one cell_of reports.
        let point = [
            b.lo[0] + p[0] * (b.hi[0] - b.lo[0]) * 0.999,
            b.lo[1] + p[1] * (b.hi[1] - b.lo[1]) * 0.999,
            b.lo[2] + p[2] * (b.hi[2] - b.lo[2]) * 0.999,
        ];
        let mut containing = 0;
        for i in 0..dims[0] {
            for j in 0..dims[1] {
                for k in 0..dims[2] {
                    if b.cell(dims, [i, j, k]).contains(point) {
                        containing += 1;
                        assert_eq!(b.cell_of(dims, point), [i, j, k]);
                    }
                }
            }
        }
        assert_eq!(containing, 1, "point must be in exactly one cell");
    });
}

#[test]
fn union_contains_both() {
    cases(256, |g: &mut Gen| {
        let a = arb_box(g);
        let b = arb_box(g);
        let u = a.union(&b);
        assert!(u.contains([a.lo[0], a.lo[1], a.lo[2]]) || a.is_empty());
        for axis in 0..3 {
            assert!(u.lo[axis] <= a.lo[axis] && u.lo[axis] <= b.lo[axis]);
            assert!(u.hi[axis] >= a.hi[axis] && u.hi[axis] >= b.hi[axis]);
        }
    });
}

#[test]
fn intersection_symmetric_and_consistent() {
    cases(256, |g: &mut Gen| {
        let a = arb_box(g);
        let b = arb_box(g);
        let ab = a.intersection(&b);
        let ba = b.intersection(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.is_some(), a.intersects(&b));
        if let Some(i) = ab {
            assert!(i.volume() <= a.volume() + 1e-9);
            assert!(i.volume() <= b.volume() + 1e-9);
        }
    });
}

#[test]
fn decomposition_assigns_every_point_once() {
    cases(128, |g: &mut Gen| {
        let dims = [g.usize_in(1, 4), g.usize_in(1, 4), g.usize_in(1, 4)];
        let p = [
            g.f64_in(0.0, 0.999),
            g.f64_in(0.0, 0.999),
            g.f64_in(0.0, 0.999),
        ];
        let d = DomainDecomposition::uniform(
            Aabb3::new([0.0; 3], [1.0; 3]),
            GridDims::new(dims[0], dims[1], dims[2]),
        );
        let rank = d.rank_containing(p);
        assert!(d.patch_bounds(rank).contains(p));
        // No other patch claims it.
        for r in 0..d.nprocs() {
            if r != rank {
                assert!(!d.patch_bounds(r).contains(p));
            }
        }
    });
}

#[test]
fn file_count_formula() {
    cases(256, |g: &mut Gen| {
        let (nx, ny, nz) = (g.usize_in(1, 15), g.usize_in(1, 15), g.usize_in(1, 15));
        // Clamp the factor into the grid rather than rejecting samples.
        let px = g.usize_in(1, 15).min(nx);
        let py = g.usize_in(1, 15).min(ny);
        let pz = g.usize_in(1, 15).min(nz);
        let f = PartitionFactor::new(px, py, pz);
        let procs = GridDims::new(nx, ny, nz);
        let expected = nx.div_ceil(px) * ny.div_ceil(py) * nz.div_ceil(pz);
        assert_eq!(f.file_count(procs), expected);
        assert!(f.file_count(procs) <= procs.count());
    });
}
