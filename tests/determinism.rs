//! Determinism: the same simulation state written twice with the same
//! configuration must produce byte-identical datasets, regardless of
//! thread scheduling — checkpoints are reproducible artifacts.

use spatial_particle_io::prelude::*;
use spio_core::{LodOrder, MemStorage, WriteMode};

fn write_once(
    factor: (usize, usize, usize),
    mode: WriteMode,
    adaptive: bool,
    order: LodOrder,
) -> MemStorage {
    let storage = MemStorage::new();
    let s = storage.clone();
    let d = DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 2, 1));
    spio_comm::run_threaded_collect(8, move |comm| {
        use spio_comm::Comm;
        // Uneven loads to exercise the adaptive path.
        let count = if comm.rank() < 4 { 400 } else { 100 };
        let ps = uniform_patch_particles(&d, comm.rank(), count, 7);
        SpatialWriter::new(
            d.clone(),
            WriterConfig::new(PartitionFactor::new(factor.0, factor.1, factor.2))
                .with_seed(99)
                .with_mode(mode)
                .with_lod_order(order)
                .adaptive(adaptive),
        )
        .write(&comm, &ps, &s)
        .unwrap();
    })
    .unwrap();
    storage
}

fn assert_identical(a: &MemStorage, b: &MemStorage, label: &str) {
    assert_eq!(a.file_names(), b.file_names(), "{label}: file sets differ");
    for name in a.file_names() {
        assert_eq!(
            a.read_file(&name).unwrap(),
            b.read_file(&name).unwrap(),
            "{label}: bytes of {name} differ"
        );
    }
}

#[test]
fn repeated_writes_are_byte_identical() {
    for (factor, mode, adaptive, order, label) in [
        (
            (2, 2, 1),
            WriteMode::Aligned,
            false,
            LodOrder::Random,
            "aligned",
        ),
        (
            (2, 1, 1),
            WriteMode::Aligned,
            true,
            LodOrder::Random,
            "adaptive",
        ),
        (
            (1, 2, 1),
            WriteMode::General,
            false,
            LodOrder::Random,
            "general",
        ),
        (
            (2, 2, 1),
            WriteMode::Aligned,
            false,
            LodOrder::Stratified,
            "stratified",
        ),
    ] {
        // Run several times: thread interleavings must never leak into the
        // output bytes.
        let reference = write_once(factor, mode, adaptive, order);
        for round in 0..3 {
            let again = write_once(factor, mode, adaptive, order);
            assert_identical(&reference, &again, &format!("{label} round {round}"));
        }
    }
}

#[test]
fn different_seeds_produce_different_layouts_same_content() {
    use spio_core::DatasetReader;
    let d = DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 2, 1));
    let write_with_seed = |seed: u64| {
        let storage = MemStorage::new();
        let s = storage.clone();
        let dd = d.clone();
        spio_comm::run_threaded_collect(8, move |comm| {
            use spio_comm::Comm;
            let ps = uniform_patch_particles(&dd, comm.rank(), 200, 7);
            SpatialWriter::new(
                dd.clone(),
                WriterConfig::new(PartitionFactor::new(2, 2, 1)).with_seed(seed),
            )
            .write(&comm, &ps, &s)
            .unwrap();
        })
        .unwrap();
        storage
    };
    let a = write_with_seed(1);
    let b = write_with_seed(2);
    // Same logical dataset…
    let ra = DatasetReader::open(&a).unwrap();
    let rb = DatasetReader::open(&b).unwrap();
    let mut ids_a: Vec<u64> = ra.read_all(&a).unwrap().0.iter().map(|p| p.id).collect();
    let mut ids_b: Vec<u64> = rb.read_all(&b).unwrap().0.iter().map(|p| p.id).collect();
    ids_a.sort_unstable();
    ids_b.sort_unstable();
    assert_eq!(ids_a, ids_b);
    // …different physical layout (the shuffle seed changed).
    let name = ra.meta.entries[0].file_name();
    assert_ne!(a.read_file(&name).unwrap(), b.read_file(&name).unwrap());
}

#[test]
fn aligned_and_general_modes_write_identical_bytes() {
    // On patch-aligned particles the general binning path must route every
    // particle exactly where the aligned fast path sends it, so the two
    // modes write the same dataset.
    for factor in [
        (1, 1, 1),
        (2, 1, 1),
        (1, 2, 1),
        (2, 2, 1),
        (4, 2, 1),
        (4, 1, 1),
    ] {
        for adaptive in [false, true] {
            for order in [LodOrder::Random, LodOrder::Stratified] {
                let aligned = write_once(factor, WriteMode::Aligned, adaptive, order);
                let general = write_once(factor, WriteMode::General, adaptive, order);
                let label = format!("{factor:?} adaptive={adaptive} {order:?}");
                assert_identical(&aligned, &general, &label);
            }
        }
    }
}
