//! Property tests for the on-disk format and LOD arithmetic.

use spio_format::data_file::{decode_data_file, encode_data_file, DataFileHeader};
use spio_format::{FileEntry, LodParams, SpatialMetadata};
use spio_types::{Aabb3, GridDims, Particle, PartitionFactor};
use spio_util::check::{cases, Gen};

fn arb_particles(g: &mut Gen, max: usize) -> Vec<Particle> {
    let n = g.usize_in(0, max.saturating_sub(1));
    (0..n)
        .map(|_| {
            let pos = [
                g.f64_in(-1e3, 1e3),
                g.f64_in(-1e3, 1e3),
                g.f64_in(-1e3, 1e3),
            ];
            Particle::synthetic(pos, g.u64())
        })
        .collect()
}

#[test]
fn data_file_roundtrip() {
    cases(128, |g: &mut Gen| {
        let ps = arb_particles(g, 128);
        let seed = g.u64();
        let bounds = Aabb3::new([-1e3; 3], [1e3; 3]);
        let header = DataFileHeader::new(ps.len() as u64, bounds, seed);
        let bytes = encode_data_file(&header, &ps);
        let (h2, ps2) = decode_data_file(&bytes).unwrap();
        assert_eq!(h2, header);
        assert_eq!(ps2, ps);
    });
}

#[test]
fn truncated_data_file_rejected() {
    cases(128, |g: &mut Gen| {
        let mut ps = arb_particles(g, 32);
        if ps.is_empty() {
            ps.push(Particle::synthetic([0.0; 3], 1));
        }
        let header = DataFileHeader::new(ps.len() as u64, Aabb3::new([0.0; 3], [1.0; 3]), 0);
        let mut bytes = encode_data_file(&header, &ps);
        let cut = g.usize_in(1, 49).min(bytes.len() - 1);
        bytes.truncate(bytes.len() - cut);
        assert!(decode_data_file(&bytes).is_err());
    });
}

#[test]
fn metadata_roundtrip() {
    cases(128, |g: &mut Gen| {
        let n_entries = g.usize_in(0, 31);
        let total_scale = g.u64_in(1, 999);
        let p = g.u64_in(1, 255);
        let s = g.u64_in(1, 7);
        let entries: Vec<FileEntry> = (0..n_entries)
            .map(|i| FileEntry {
                agg_rank: (i * 7) as u64,
                particle_count: total_scale * (i as u64 + 1),
                bounds: Aabb3::new([i as f64, 0.0, 0.0], [i as f64 + 0.5, 1.0, 1.0]),
            })
            .collect();
        let total = entries.iter().map(|e| e.particle_count).sum();
        let meta = SpatialMetadata {
            domain: Aabb3::new([0.0; 3], [n_entries as f64 + 1.0, 1.0, 1.0]),
            writer_grid: GridDims::new(4, 2, 1),
            partition_factor: PartitionFactor::new(2, 1, 1),
            lod: LodParams::new(p, s).unwrap(),
            total_particles: total,
            entries,
            attr_ranges: if n_entries.is_multiple_of(2) {
                None
            } else {
                Some(
                    (0..n_entries)
                        .map(|i| {
                            let mut r = spio_format::meta::AttrRange::empty();
                            r.include(i as f64, i as f64 * 2.0);
                            r
                        })
                        .collect(),
                )
            },
        };
        let decoded = SpatialMetadata::decode(&meta.encode()).unwrap();
        assert_eq!(decoded, meta);
    });
}

#[test]
fn lod_levels_partition_any_dataset() {
    cases(256, |g: &mut Gen| {
        let p = g.u64_in(1, 511);
        let s = g.u64_in(1, 5);
        let n = g.u64_in(1, 127);
        let total = g.u64_in(0, 1_999_999);
        let lod = LodParams::new(p, s).unwrap();
        let levels = lod.num_levels(n, total);
        let sum: u64 = (0..levels)
            .map(|l| lod.actual_level_size(n, l, total))
            .sum();
        assert_eq!(sum, total, "levels must partition the dataset");
        // Every interior level is full-size.
        for l in 0..levels.saturating_sub(1) {
            assert_eq!(lod.actual_level_size(n, l, total), lod.level_size(n, l));
        }
        // Prefixes are monotone and clamp at total.
        let mut prev = 0;
        for l in 0..levels {
            let pre = lod.prefix_len(n, l, total);
            assert!(pre >= prev);
            assert!(pre <= total);
            prev = pre;
        }
        if levels > 0 {
            assert_eq!(lod.prefix_len(n, levels - 1, total), total);
        }
    });
}

#[test]
fn file_prefixes_cover_global_prefix() {
    cases(256, |g: &mut Gen| {
        let n_files = g.usize_in(1, 19);
        let file_counts: Vec<u64> = (0..n_files).map(|_| g.u64_in(0, 9_999)).collect();
        let frac = g.f64_in(0.0, 1.0);
        let total: u64 = file_counts.iter().sum();
        let global = (total as f64 * frac) as u64;
        let covered: u64 = file_counts
            .iter()
            .map(|&c| LodParams::file_prefix(c, total, global))
            .sum();
        assert!(covered >= global, "{covered} < {global}");
        // And never reads more than the dataset.
        assert!(covered <= total);
        // Per-file prefixes are clamped.
        for &c in &file_counts {
            assert!(LodParams::file_prefix(c, total, global) <= c);
        }
    });
}

#[test]
fn file_prefix_monotone_in_global() {
    cases(256, |g: &mut Gen| {
        let total = g.u64_in(1, 999_999);
        let file = g.u64_in(1, 9_999).min(total);
        let a = g.u64_in(0, 999_999);
        let b = g.u64_in(0, 999_999);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(LodParams::file_prefix(file, total, lo) <= LodParams::file_prefix(file, total, hi));
    });
}

#[test]
fn box_query_selects_all_intersecting() {
    cases(256, |g: &mut Gen| {
        let qlo = [g.f64_in(0.0, 0.9), g.f64_in(0.0, 0.9), g.f64_in(0.0, 0.9)];
        let qext = [
            g.f64_in(0.05, 0.5),
            g.f64_in(0.05, 0.5),
            g.f64_in(0.05, 0.5),
        ];
        // 4 disjoint slabs along x.
        let entries: Vec<FileEntry> = (0..4)
            .map(|i| FileEntry {
                agg_rank: i as u64,
                particle_count: 10,
                bounds: Aabb3::new(
                    [i as f64 * 0.25, 0.0, 0.0],
                    [(i as f64 + 1.0) * 0.25, 1.0, 1.0],
                ),
            })
            .collect();
        let meta = SpatialMetadata {
            domain: Aabb3::new([0.0; 3], [1.0; 3]),
            writer_grid: GridDims::new(4, 1, 1),
            partition_factor: PartitionFactor::new(1, 1, 1),
            lod: LodParams::default(),
            total_particles: 40,
            entries: entries.clone(),
            attr_ranges: None,
        };
        let q = Aabb3::new(
            qlo,
            [
                (qlo[0] + qext[0]).min(1.0),
                (qlo[1] + qext[1]).min(1.0),
                (qlo[2] + qext[2]).min(1.0),
            ],
        );
        let selected = meta.files_intersecting(&q);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(
                selected.contains(&i),
                e.bounds.intersects(&q),
                "selection must match geometry for file {i}"
            );
        }
    });
}
