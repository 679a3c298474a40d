//! Cross-crate integration tests: full write-then-read cycles on a real
//! filesystem, through the umbrella crate's public API.

use spatial_particle_io::prelude::*;
use spio_core::{DatasetReader, WriteMode};
use spio_types::Particle;
use spio_workloads::{cluster_patch_particles, ClusterSpec};

fn write_uniform(
    dir: &std::path::Path,
    dims: (usize, usize, usize),
    factor: (usize, usize, usize),
    per_rank: usize,
    adaptive: bool,
) -> FsStorage {
    let storage = FsStorage::new(dir);
    let decomp = DomainDecomposition::uniform(
        Aabb3::new([0.0; 3], [1.0; 3]),
        GridDims::new(dims.0, dims.1, dims.2),
    );
    let s = storage.clone();
    let d = decomp.clone();
    run_threaded(decomp.nprocs(), move |comm| {
        let ps = uniform_patch_particles(&d, comm.rank(), per_rank, 2024);
        SpatialWriter::new(
            d.clone(),
            WriterConfig::new(PartitionFactor::new(factor.0, factor.1, factor.2))
                .adaptive(adaptive),
        )
        .write(&comm, &ps, &s)
        .unwrap();
    })
    .unwrap();
    storage
}

#[test]
fn fs_roundtrip_recovers_everything() {
    let dir = spio_util::tempdir().unwrap();
    let storage = write_uniform(dir.path(), (4, 2, 2), (2, 2, 1), 500, false);
    let reader = DatasetReader::open(&storage).unwrap();
    assert_eq!(reader.meta.total_particles, 16 * 500);
    // (4,2,2) patches at factor (2,2,1): (4/2)·(2/2)·(2/1) = 4 files.
    assert_eq!(reader.meta.entries.len(), 4);
    let (all, stats) = reader.read_all(&storage).unwrap();
    assert_eq!(all.len(), 8000);
    assert_eq!(stats.files_opened, 4);
    // Real files exist on disk with the derived names.
    assert!(dir.path().join("spatial_meta.spm").exists());
    for e in &reader.meta.entries {
        assert!(dir.path().join(e.file_name()).exists());
    }
}

#[test]
fn several_factors_produce_identical_datasets() {
    // The same simulation written with different partition factors must
    // contain identical particle sets — layout is the only difference.
    let mut reference: Option<Vec<u64>> = None;
    for factor in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (4, 2, 2)] {
        let dir = spio_util::tempdir().unwrap();
        let storage = write_uniform(dir.path(), (4, 2, 2), factor, 200, false);
        let reader = DatasetReader::open(&storage).unwrap();
        let (all, _) = reader.read_all(&storage).unwrap();
        let mut ids: Vec<u64> = all.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        match &reference {
            None => reference = Some(ids),
            Some(r) => assert_eq!(&ids, r, "factor {factor:?} changed the data"),
        }
    }
}

#[test]
fn parallel_readers_cover_dataset_disjointly() {
    let dir = spio_util::tempdir().unwrap();
    let storage = write_uniform(dir.path(), (4, 4, 1), (2, 2, 1), 300, false);
    for nreaders in [1usize, 2, 4, 8] {
        let s = storage.clone();
        let per_rank = spio_comm::run_threaded_collect(nreaders, move |comm| {
            let (ps, _) = spio_core::BoxQueryReader::read(&comm, &s, true).unwrap();
            ps.iter().map(|p| p.id).collect::<Vec<u64>>()
        })
        .unwrap();
        let mut all: Vec<u64> = per_rank.into_iter().flatten().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 16 * 300, "readers={nreaders}");
    }
}

#[test]
fn lod_read_over_fs_is_progressive_and_complete() {
    let dir = spio_util::tempdir().unwrap();
    let storage = write_uniform(dir.path(), (2, 2, 2), (2, 2, 2), 1000, false);
    let reader = DatasetReader::open(&storage).unwrap();
    let mut cursor = reader.lod_box_cursor(&reader.meta.domain, 1);
    let levels = cursor.num_levels();
    assert!(levels > 3);
    let mut sizes = Vec::new();
    let mut all: Vec<Particle> = Vec::new();
    for _ in 0..levels {
        let (ps, _) = cursor.read_next_level(&storage).unwrap();
        sizes.push(ps.len());
        all.extend(ps);
    }
    assert_eq!(all.len(), 8000);
    // Geometric growth between interior levels (S = 2).
    for w in sizes.windows(2).take(sizes.len().saturating_sub(2)) {
        assert!(
            w[1] as f64 >= w[0] as f64 * 1.6,
            "levels should roughly double: {sizes:?}"
        );
    }
}

#[test]
fn adaptive_cluster_workload_roundtrip() {
    let dir = spio_util::tempdir().unwrap();
    let storage = FsStorage::new(dir.path());
    let decomp =
        DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 2, 2));
    let spec = ClusterSpec {
        clusters: 3,
        sigma_frac: 0.06,
        background: 0.0,
        total_particles: 20_000,
    };
    let s = storage.clone();
    let d = decomp.clone();
    let spec2 = spec.clone();
    let totals = spio_comm::run_threaded_collect(decomp.nprocs(), move |comm| {
        let ps = cluster_patch_particles(&d, comm.rank(), &spec2, 77);
        let n = ps.len();
        SpatialWriter::new(
            d.clone(),
            WriterConfig::new(PartitionFactor::new(2, 2, 2)).adaptive(true),
        )
        .write(&comm, &ps, &s)
        .unwrap();
        n
    })
    .unwrap();
    let written: usize = totals.iter().sum();
    let reader = DatasetReader::open(&storage).unwrap();
    assert_eq!(reader.meta.total_particles as usize, written);
    reader.meta.validate_disjoint().unwrap();
    let (all, _) = reader.read_all(&storage).unwrap();
    assert_eq!(all.len(), written);
}

#[test]
fn general_mode_with_migrated_particles_on_fs() {
    // Simulate a timestep where particles moved out of their owners'
    // patches (no rebalancing yet) — the General path must still produce a
    // valid spatial layout.
    let dir = spio_util::tempdir().unwrap();
    let storage = FsStorage::new(dir.path());
    let decomp =
        DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(2, 2, 1));
    let s = storage.clone();
    let d = decomp.clone();
    run_threaded(4, move |comm| {
        use spio_comm::Comm;
        // Start in-patch, then drift +0.3 in x with wraparound.
        let ps: Vec<Particle> = uniform_patch_particles(&d, comm.rank(), 250, 5)
            .into_iter()
            .map(|mut p| {
                p.position[0] = (p.position[0] + 0.3) % 1.0;
                p
            })
            .collect();
        SpatialWriter::new(
            d.clone(),
            WriterConfig::new(PartitionFactor::new(1, 2, 1)).with_mode(WriteMode::General),
        )
        .write(&comm, &ps, &s)
        .unwrap();
    })
    .unwrap();
    let reader = DatasetReader::open(&storage).unwrap();
    reader.meta.validate_disjoint().unwrap();
    assert_eq!(reader.meta.total_particles, 1000);
    // Every particle in every file is inside the file's box.
    for e in &reader.meta.entries {
        let bytes = storage.read_file(&e.file_name()).unwrap();
        let (_, ps) = spio_format::data_file::decode_data_file(&bytes).unwrap();
        assert!(ps.iter().all(|p| e.bounds.contains(p.position)));
    }
}

#[test]
fn density_range_query_prunes_files_and_matches_scan() {
    // §3.5 extension: per-file scalar ranges prune attribute queries.
    let dir = spio_util::tempdir().unwrap();
    let storage = FsStorage::new(dir.path());
    let decomp =
        DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 1, 1));
    let s = storage.clone();
    let d = decomp.clone();
    run_threaded(4, move |comm| {
        use spio_comm::Comm;
        // Rank r's particles all have density 1000 + r: each file ends up
        // with a narrow, distinct density range.
        let ps: Vec<Particle> = uniform_patch_particles(&d, comm.rank(), 200, 11)
            .into_iter()
            .map(|mut p| {
                p.density = 1000.0 + comm.rank() as f64;
                p
            })
            .collect();
        SpatialWriter::new(d.clone(), WriterConfig::new(PartitionFactor::new(1, 1, 1)))
            .write(&comm, &ps, &s)
            .unwrap();
    })
    .unwrap();

    let reader = DatasetReader::open(&storage).unwrap();
    assert!(reader.meta.attr_ranges.is_some(), "writer records ranges");
    // Density in [1001, 1002] lives in exactly two files.
    let (hits, stats) = reader
        .read_box_density(&storage, &reader.meta.domain.clone(), 1001.0, 1002.0)
        .unwrap();
    assert_eq!(
        stats.files_opened, 2,
        "range pruning must skip 2 of 4 files"
    );
    assert_eq!(hits.len(), 400);
    assert!(hits.iter().all(|p| (1001.0..=1002.0).contains(&p.density)));
    // Same answer as a full scan + filter.
    let (all, _) = reader.read_all(&storage).unwrap();
    let expected = all
        .iter()
        .filter(|p| (1001.0..=1002.0).contains(&p.density))
        .count();
    assert_eq!(hits.len(), expected);
    // An impossible range opens nothing.
    let (none, stats) = reader
        .read_box_density(&storage, &reader.meta.domain.clone(), 5.0, 6.0)
        .unwrap();
    assert!(none.is_empty());
    assert_eq!(stats.files_opened, 0);
}
