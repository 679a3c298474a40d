//! Determinism: the same simulation state written twice with the same
//! configuration must produce byte-identical datasets, regardless of
//! thread scheduling — checkpoints are reproducible artifacts. Golden
//! digests pin the bytes themselves, so a change that reorders or
//! re-encodes records cannot pass by being merely self-consistent.

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

/// `(file name, byte length, FNV-1a 64 digest)` of one written file.
type Golden = (&'static str, usize, u64);

/// FNV-1a over the whole file. Not the CRC-32: a v2 data file ends its
/// header with the header's CRC and its payload with the payload's chunk
/// CRCs, so the CRC-32 of the whole file depends only on its length.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn assert_golden(storage: &MemStorage, expect: &[Golden], label: &str) {
    let got: Vec<(String, usize, u64)> = storage
        .file_names()
        .into_iter()
        .map(|name| {
            let bytes = storage.read_file(&name).unwrap();
            (name, bytes.len(), fnv1a(&bytes))
        })
        .collect();
    let want: Vec<(String, usize, u64)> = expect
        .iter()
        .map(|&(name, len, digest)| (name.to_string(), len, digest))
        .collect();
    assert_eq!(
        got, want,
        "{label}: written files differ from the golden digests"
    );
}

/// An 8-rank write with uneven loads and an empty x = 3 column of patches,
/// so the adaptive grid differs from the static one.
fn golden_write(mode: WriteMode, adaptive: bool, order: LodOrder) -> MemStorage {
    let storage = MemStorage::new();
    let s = storage.clone();
    let d = DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 2, 1));
    spio_comm::run_threaded_collect(8, move |comm| {
        use spio_comm::Comm;
        let count = [400, 400, 400, 0, 100, 100, 100, 0][comm.rank()];
        let ps = uniform_patch_particles(&d, comm.rank(), count, 7);
        SpatialWriter::new(
            d.clone(),
            WriterConfig::new(PartitionFactor::new(2, 1, 1))
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

#[test]
fn writer_output_matches_golden_digests() {
    // Fixed literals: a change to a permutation, the record encoding, the
    // header, the footer or the metadata fails here even when every run
    // of the changed code agrees with every other.
    const FILES: [[&[Golden]; 2]; 2] = [
        [
            // Random, static grid.
            &[
                ("file_0.spd", 99300, 0x605862BCCA4604C0),
                ("file_2.spd", 49700, 0x09B34B7693CDFA91),
                ("file_4.spd", 24900, 0x570FF02BA9F4DCE8),
                ("file_6.spd", 12500, 0x591CA6BA6B942771),
                ("spatial_meta.spm", 504, 0xC32B0562C7F2E8E3),
            ],
            // Random, adaptive grid.
            &[
                ("file_0.spd", 99300, 0x605862BCCA4604C0),
                ("file_2.spd", 49700, 0x0BF0E119CF733DF8),
                ("file_4.spd", 24900, 0x570FF02BA9F4DCE8),
                ("file_6.spd", 12500, 0x47A3C6EFFCE1FCC8),
                ("spatial_meta.spm", 504, 0x0EFEC03DFEB5CBD3),
            ],
        ],
        [
            // Stratified, static grid.
            &[
                ("file_0.spd", 99300, 0xF01840CE8803961F),
                ("file_2.spd", 49700, 0x0F12E02E273E028E),
                ("file_4.spd", 24900, 0xAE70F968F6E7EF27),
                ("file_6.spd", 12500, 0x3C53CAFA0CEAB595),
                ("spatial_meta.spm", 504, 0xC32B0562C7F2E8E3),
            ],
            // Stratified, adaptive grid.
            &[
                ("file_0.spd", 99300, 0xF01840CE8803961F),
                ("file_2.spd", 49700, 0x5BDD6F1F5CDDA71D),
                ("file_4.spd", 24900, 0xAE70F968F6E7EF27),
                ("file_6.spd", 12500, 0x41CF189C600333F7),
                ("spatial_meta.spm", 504, 0x0EFEC03DFEB5CBD3),
            ],
        ],
    ];
    for (order, by_grid) in [LodOrder::Random, LodOrder::Stratified]
        .into_iter()
        .zip(FILES)
    {
        for (adaptive, expect) in [false, true].into_iter().zip(by_grid) {
            for mode in [WriteMode::Aligned, WriteMode::General] {
                let label = format!("{order:?} {mode:?} adaptive={adaptive}");
                assert_golden(&golden_write(mode, adaptive, order), expect, &label);
            }
        }
    }
}

#[test]
fn convert_fpp_output_matches_golden_digests() {
    let domain = Aabb3::new([0.0; 3], [1.0; 3]);
    let src = MemStorage::new();
    let s = src.clone();
    let d = DomainDecomposition::uniform(domain, GridDims::new(2, 2, 2));
    spio_comm::run_threaded_collect(8, move |comm| {
        use spio_comm::Comm;
        let ps = uniform_patch_particles(&d, comm.rank(), 300, 11);
        spio_baselines::FppWriter::new()
            .write(&comm, &ps, &s)
            .unwrap();
    })
    .unwrap();
    let dst = MemStorage::new();
    spio_tools::convert_fpp(&src, 8, &dst, PartitionFactor::new(2, 1, 1), domain).unwrap();
    assert_golden(
        &dst,
        &[
            ("file_0.spd", 74500, 0xA5324B12E0B11E40),
            ("file_2.spd", 74500, 0x49F3F57A595D2E78),
            ("file_4.spd", 74500, 0xCAD94A41F1AEBF2A),
            ("file_6.spd", 74500, 0x4F30C9EC443F8101),
            ("spatial_meta.spm", 504, 0x9839EFC9A189FE80),
        ],
        "convert_fpp",
    );
}
