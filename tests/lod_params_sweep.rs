//! The LOD machinery must work for non-default (P, S), not just the
//! paper's P = 32, S = 2 — including S = 1 (uniform level sizes) and
//! larger scale factors.

use spatial_particle_io::prelude::*;
use spio_core::{DatasetReader, LodCursor, MemStorage};

fn write_with_lod(p: u64, s: u64, per_rank: usize) -> MemStorage {
    let storage = MemStorage::new();
    let st = storage.clone();
    let d = DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(2, 2, 1));
    spio_comm::run_threaded_collect(4, move |comm| {
        use spio_comm::Comm;
        let ps = uniform_patch_particles(&d, comm.rank(), per_rank, 31);
        SpatialWriter::new(
            d.clone(),
            WriterConfig::new(PartitionFactor::new(2, 1, 1))
                .with_lod(LodParams::new(p, s).unwrap()),
        )
        .write(&comm, &ps, &st)
        .unwrap();
    })
    .unwrap();
    storage
}

#[test]
fn lod_parameter_sweep_roundtrips() {
    for (p, s) in [(8u64, 2u64), (16, 3), (100, 1), (1, 4), (32, 2)] {
        let storage = write_with_lod(p, s, 600);
        let reader = DatasetReader::open(&storage).unwrap();
        assert_eq!(reader.meta.lod, LodParams::new(p, s).unwrap());
        let total = reader.meta.total_particles;
        assert_eq!(total, 2400);
        // Read everything level by level; sizes must follow the formula.
        let indices: Vec<usize> = (0..reader.meta.entries.len()).collect();
        let mut cursor = LodCursor::new(&reader.meta, &indices, 1);
        let levels = cursor.num_levels();
        let mut seen = 0u64;
        for l in 0..levels {
            let (ps, _) = cursor.read_next_level(&storage).unwrap();
            seen += ps.len() as u64;
            // Cumulative reads track prefix_len within per-file rounding
            // (one extra particle per file at most).
            let expect = reader.meta.lod.prefix_len(1, l, total);
            let slack = reader.meta.entries.len() as u64;
            assert!(
                seen >= expect && seen <= expect + slack,
                "P={p} S={s} level {l}: read {seen}, formula {expect}"
            );
        }
        assert_eq!(seen, total, "P={p} S={s}: all particles exactly once");
    }
}

#[test]
fn different_reader_counts_see_consistent_level_structure() {
    let storage = write_with_lod(32, 2, 512);
    let reader = DatasetReader::open(&storage).unwrap();
    let total = reader.meta.total_particles;
    for n in [1usize, 2, 4, 8] {
        // Levels shrink as reader count grows (each level is n·P·S^l).
        let levels = reader.meta.lod.num_levels(n as u64, total);
        assert!(levels >= 1);
        // Union across the reader group covers the dataset exactly.
        let st = storage.clone();
        let counts = spio_comm::run_threaded_collect(n, move |comm| {
            use spio_comm::Comm;
            let meta = DatasetReader::open(&st).unwrap().meta;
            let files = LodCursor::files_for_reader(&meta, comm.size(), comm.rank());
            let mut cursor = LodCursor::new(&meta, &files, comm.size());
            let levels = cursor.num_levels();
            let (ps, _) = cursor.read_through_level(&st, levels - 1).unwrap();
            ps.len()
        })
        .unwrap();
        assert_eq!(counts.iter().sum::<usize>() as u64, total, "n={n}");
    }
}
