//! Failure injection: storage faults and corrupted datasets must surface
//! as errors (never panics or silent corruption) through the full stack,
//! and the resilience layer (retries, checksums, partial reads) must
//! degrade gracefully where the paper's read paths would otherwise abort.
//!
//! All chaos schedules are seeded and deterministic — `ci.sh` runs this
//! suite as its dedicated fault-path step.

use spatial_particle_io::prelude::*;
use spio_core::{ChaosConfig, ChaosStorage, DatasetReader, MemStorage, RetryPolicy, RetryStorage};
use spio_format::data_file::{decode_data_file, DataFileHeader, HEADER_BYTES};
use spio_trace::{JobReport, Trace};
use spio_types::SpioError;

fn decomp() -> DomainDecomposition {
    DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(2, 2, 1))
}

/// A 4-rank dataset with `per_rank` particles each, aggregated into 2 data
/// files.
fn dataset(per_rank: usize) -> MemStorage {
    let storage = MemStorage::new();
    let s = storage.clone();
    spio_comm::run_threaded_collect(4, move |comm| {
        use spio_comm::Comm;
        let ps = uniform_patch_particles(&decomp(), comm.rank(), per_rank, 1);
        SpatialWriter::new(decomp(), WriterConfig::new(PartitionFactor::new(2, 1, 1)))
            .write(&comm, &ps, &s)
            .unwrap();
    })
    .unwrap();
    storage
}

fn good_dataset() -> MemStorage {
    dataset(300)
}

#[test]
fn write_faults_on_every_rank_error_cleanly() {
    // Every rank aggregates its own file under (1,1,1). First all four
    // data-file writes fail, then only rank 1's. Either way every rank must
    // get an error, no panic and no deadlock: a rank whose write failed
    // still joins the metadata gather and reports its failure there, so
    // rank 0 writes no metadata and broadcasts the failure.
    for lone in [false, true] {
        let config = if lone {
            ChaosConfig::default()
        } else {
            ChaosConfig::budgets(0, u64::MAX)
        };
        let chaos = ChaosStorage::new(MemStorage::new(), config);
        if lone {
            chaos.poison("file_1.spd");
        }
        let c2 = chaos.clone();
        let results = spio_comm::run_threaded_collect(4, move |comm| {
            use spio_comm::Comm;
            let ps = uniform_patch_particles(&decomp(), comm.rank(), 100, 1);
            SpatialWriter::new(decomp(), WriterConfig::new(PartitionFactor::new(1, 1, 1)))
                .write(&comm, &ps, &c2)
                .map(|_| ())
        })
        .unwrap();
        assert!(results.iter().all(Result::is_err), "lone={lone}");
        assert!(!chaos.inner().exists("spatial_meta.spm"), "lone={lone}");
        let faults = chaos.stats().budget_faults + chaos.stats().persistent_faults;
        assert_eq!(faults, if lone { 1 } else { 4 });
    }
}

#[test]
fn read_faults_surface_as_errors() {
    let storage = good_dataset();
    // Allow the metadata read, fail the first data-file read.
    let chaos = ChaosStorage::new(storage, ChaosConfig::budgets(u64::MAX, 1));
    let reader = DatasetReader::open(&chaos).unwrap();
    let err = reader.read_all(&chaos).unwrap_err();
    assert!(err.to_string().contains("injected budget fault"), "{err}");
}

#[test]
fn missing_data_file_is_reported_not_panicked() {
    let storage = good_dataset();
    let reader = DatasetReader::open(&storage).unwrap();
    // Delete one data file by overwriting the namespace with a fresh map —
    // simplest: copy all but one file into a new store.
    let crippled = MemStorage::new();
    let victim = reader.meta.entries[0].file_name();
    for name in storage.file_names() {
        if name != victim {
            crippled
                .write_file(&name, &storage.read_file(&name).unwrap())
                .unwrap();
        }
    }
    let reader = DatasetReader::open(&crippled).unwrap();
    let err = reader.read_all(&crippled).unwrap_err();
    assert!(matches!(err, SpioError::NotFound(_)), "{err}");
    // A query that avoids the missing file still succeeds.
    let q = reader.meta.entries[1].bounds;
    let (ps, _) = reader.read_box(&crippled, &q).unwrap();
    assert!(!ps.is_empty());
}

#[test]
fn swapped_data_files_caught_by_validation() {
    // Swap the two data files' contents: every header/bounds check fires.
    let storage = good_dataset();
    let reader = DatasetReader::open(&storage).unwrap();
    let a = reader.meta.entries[0].file_name();
    let b = reader.meta.entries[1].file_name();
    let ab = storage.read_file(&a).unwrap();
    let bb = storage.read_file(&b).unwrap();
    storage.write_file(&a, &bb).unwrap();
    storage.write_file(&b, &ab).unwrap();
    let report = spio_tools::validate(&storage).unwrap();
    assert!(!report.is_ok());
    assert!(
        report.problems.iter().any(|p| p.contains("bounds")),
        "{:?}",
        report.problems
    );
}

#[test]
fn truncated_metadata_blocks_open_gracefully() {
    let storage = good_dataset();
    let meta = storage.read_file("spatial_meta.spm").unwrap();
    storage
        .write_file("spatial_meta.spm", &meta[..meta.len() / 2])
        .unwrap();
    assert!(matches!(
        DatasetReader::open(&storage),
        Err(SpioError::Format(_))
    ));
}

#[test]
fn every_single_bit_flip_in_a_data_file_is_caught() {
    // The acceptance bar for format v2: flip any one bit anywhere in a
    // data file — header, payload, or checksum footer — and decoding
    // fails with SpioError::Format rather than returning wrong particles.
    // A small dataset keeps the quadratic CRC work fast in debug builds.
    let storage = dataset(50);
    let reader = DatasetReader::open(&storage).unwrap();
    let name = reader.meta.entries[0].file_name();
    let good = storage.read_file(&name).unwrap();
    decode_data_file(&good).expect("pristine file decodes");
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 1 << (i % 8);
        match decode_data_file(&bad) {
            Err(SpioError::Format(_)) => {}
            other => panic!("flip at byte {i}: expected Format error, got {other:?}"),
        }
    }
}

#[test]
fn bit_flip_injected_by_chaos_is_caught_end_to_end() {
    // Same property through the whole read path: ChaosStorage silently
    // corrupts one bit of every read, and the reader reports corruption
    // instead of returning a wrong answer.
    let storage = good_dataset();
    let chaos = ChaosStorage::new(
        storage,
        ChaosConfig {
            seed: 77,
            bit_flip_rate: 1.0,
            ..ChaosConfig::default()
        },
    );
    // Open through the clean backend (the metadata file carries no
    // checksum of its own), then read data files through the flipping
    // wrapper: the checksums must turn every silent flip into an error.
    let reader = DatasetReader::open(chaos.inner()).unwrap();
    match reader.read_all(&chaos) {
        Err(SpioError::Format(m)) => assert!(m.contains("checksum"), "{m}"),
        other => panic!("expected checksum Format error, got {other:?}"),
    }
    assert!(chaos.stats().bit_flips > 0);
}

#[test]
fn transient_faults_absorbed_by_retry_with_trace_evidence() {
    let storage = good_dataset();
    // Deterministic schedule: faultable ops 1, 3, 5, … fail once.
    let chaos = ChaosStorage::new(
        storage,
        ChaosConfig {
            transient_every: Some(2),
            ..ChaosConfig::default()
        },
    );
    // Without retries the very first data read aborts the query.
    let reader = DatasetReader::open(chaos.inner()).unwrap();
    assert!(
        matches!(reader.read_all(&chaos), Err(SpioError::Io(_))),
        "bare storage must fail under this schedule"
    );

    // The same schedule through RetryStorage completes, and the retries
    // are visible in the job report.
    let trace = Trace::collecting();
    let retry = RetryStorage::new(chaos.clone(), RetryPolicy::immediate(3), trace.clone(), 0);
    let (ps, _) = reader.read_all(&retry).unwrap();
    assert_eq!(ps.len(), 1200);
    assert!(retry.retries() > 0);
    let report = JobReport::from_snapshot(1, &trace.snapshot());
    assert_eq!(report.retry_count() as u64, retry.retries());
    assert!(report.render().contains("retry"));
    assert!(chaos.stats().transient_faults > 0);
}

#[test]
fn read_box_partial_survives_one_missing_file() {
    let storage = good_dataset();
    let reader = DatasetReader::open(&storage).unwrap();
    let victim = reader.meta.entries[0].file_name();
    let survivor_count = reader.meta.entries[1].particle_count;
    let crippled = MemStorage::new();
    for name in storage.file_names() {
        if name != victim {
            crippled
                .write_file(&name, &storage.read_file(&name).unwrap())
                .unwrap();
        }
    }
    // The strict read aborts; the partial read returns the surviving file's
    // particles plus a per-file account of what failed.
    let domain = reader.meta.domain;
    assert!(reader.read_box(&crippled, &domain).is_err());
    let partial = reader.read_box_partial(&crippled, &domain);
    assert!(!partial.is_complete());
    assert_eq!(partial.particles.len() as u64, survivor_count);
    assert_eq!(partial.outcomes.len(), 2);
    let failures = partial.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].file, victim);
    assert!(matches!(failures[0].error, Some(SpioError::NotFound(_))));
}

#[test]
fn read_box_partial_survives_a_poisoned_file() {
    // Same degradation under injected persistent I/O faults rather than a
    // missing file.
    let storage = good_dataset();
    let chaos = ChaosStorage::new(storage, ChaosConfig::default());
    let reader = DatasetReader::open(&chaos).unwrap();
    let victim = reader.meta.entries[1].file_name();
    chaos.poison(&victim);
    let partial = reader.read_box_partial(&chaos, &reader.meta.domain);
    assert!(!partial.is_complete());
    assert_eq!(
        partial.particles.len() as u64,
        reader.meta.entries[0].particle_count
    );
    let failures = partial.failures();
    assert_eq!(failures.len(), 1);
    assert!(matches!(failures[0].error, Some(SpioError::Io(_))));
    // On a pristine dataset the partial read matches read_box exactly.
    let clean = good_dataset();
    let reader = DatasetReader::open(&clean).unwrap();
    let partial = reader.read_box_partial(&clean, &reader.meta.domain);
    assert!(partial.is_complete());
    assert_eq!(partial.particles.len(), 1200);
}

#[test]
fn tampered_metadata_count_does_not_underflow_scan_reads() {
    // Regression: read_box_without_metadata used to compute
    // `entry.particle_count - kept` from the metadata count, which
    // underflows (panics in debug, wraps in release) when the metadata
    // disagrees with the payload. Discards must come from decoded counts.
    let storage = good_dataset();
    let reader = DatasetReader::open(&storage).unwrap();
    let mut meta = reader.meta.clone();
    meta.entries[0].particle_count = 1; // far below the real payload count
    storage
        .write_file("spatial_meta.spm", &meta.encode())
        .unwrap();

    let reader = DatasetReader::open(&storage).unwrap();
    let (ps, stats) = reader
        .read_box_without_metadata(&storage, &reader.meta.domain)
        .unwrap();
    assert_eq!(ps.len(), 1200, "scan keeps every decoded particle");
    assert_eq!(stats.particles_discarded, 0);
}

#[test]
fn v1_datasets_still_read_back_identically() {
    // Rewrite a freshly written dataset's files as format v1 (no
    // checksums) — standing in for a dataset written before this PR — and
    // check it reads back the same particles through every path.
    let storage = good_dataset();
    let reader = DatasetReader::open(&storage).unwrap();
    let v2_ids = {
        let (mut ps, _) = reader.read_all(&storage).unwrap();
        ps.sort_by_key(|p| p.id);
        ps
    };
    let v1_store = MemStorage::new();
    v1_store
        .write_file(
            "spatial_meta.spm",
            &storage.read_file("spatial_meta.spm").unwrap(),
        )
        .unwrap();
    for entry in &reader.meta.entries {
        let name = entry.file_name();
        let (header, particles) = decode_data_file(&storage.read_file(&name).unwrap()).unwrap();
        let mut v1_header =
            DataFileHeader::new_v1(header.particle_count, header.bounds, header.shuffle_seed);
        v1_header.flags = header.flags & !spio_format::data_file::header_flags::CHECKSUMS;
        let bytes = spio_format::data_file::encode_data_file(&v1_header, &particles);
        // v1 layout: header + payload only, reserved tail zeroed.
        assert_eq!(
            bytes.len(),
            HEADER_BYTES + particles.len() * spio_types::PARTICLE_BYTES
        );
        v1_store.write_file(&name, &bytes).unwrap();
    }
    let reader = DatasetReader::open(&v1_store).unwrap();
    let (mut ps, _) = reader.read_all(&v1_store).unwrap();
    ps.sort_by_key(|p| p.id);
    assert_eq!(ps, v2_ids, "v1 readback is particle-identical");
    // LOD prefix reads work on v1 files too (no footer to fetch).
    let mut cursor = reader.lod_box_cursor(&reader.meta.domain, 1);
    let mut n = 0;
    for _ in 0..cursor.num_levels() {
        let (level, _) = cursor.read_next_level(&v1_store).unwrap();
        n += level.len();
    }
    assert_eq!(n, 1200);
    // And validation passes, reporting zero checksummed files.
    let report = spio_tools::validate(&v1_store).unwrap();
    assert!(report.is_ok(), "{:?}", report.problems);
    assert_eq!(report.checksummed_files, 0);
}

#[test]
fn lod_reads_verify_checksums_incrementally() {
    // Corrupt one payload byte of a v2 file; a progressive LOD read must
    // detect it at the chunk boundary without reading the whole file.
    let storage = good_dataset();
    let reader = DatasetReader::open(&storage).unwrap();
    let name = reader.meta.entries[0].file_name();
    let mut bytes = storage.read_file(&name).unwrap();
    let last = bytes.len() - 8; // inside the final payload chunk
    bytes[last] ^= 0x10;
    storage.write_file(&name, &bytes).unwrap();
    let mut cursor = reader.lod_box_cursor(&reader.meta.domain, 1);
    let mut saw_error = false;
    for _ in 0..cursor.num_levels() {
        match cursor.read_next_level(&storage) {
            Ok(_) => {}
            Err(SpioError::Format(m)) => {
                assert!(m.contains("checksum"), "{m}");
                saw_error = true;
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(
        saw_error,
        "corruption must surface before the cursor drains"
    );
}

#[test]
fn torn_metadata_write_leaves_no_readable_garbage() {
    // A torn write persists a prefix under the final name (ChaosStorage
    // models the tear above the backend). The reader must reject the
    // stump with a clean error rather than parse garbage.
    let storage = good_dataset();
    let meta = storage.read_file("spatial_meta.spm").unwrap();
    let chaos = ChaosStorage::new(
        storage.clone(),
        ChaosConfig {
            seed: 3,
            torn_write_rate: 1.0,
            ..ChaosConfig::default()
        },
    );
    assert!(chaos.write_file("spatial_meta.spm", &meta).is_err());
    assert_eq!(chaos.stats().torn_writes, 1);
    match DatasetReader::open(&storage) {
        // Either the tear left a parseable-length-zero stump (Format) or
        // an empty file; both must error, never panic or succeed with
        // truncated entries.
        Err(SpioError::Format(_)) | Err(SpioError::NotFound(_)) => {}
        Ok(r) => {
            // A zero-byte tear may leave the original file untouched only
            // if the tear point was the whole file — not possible with a
            // strict-prefix tear, so an Ok here means the stump happened
            // to still parse; reject that.
            panic!(
                "torn metadata must not open cleanly ({} entries)",
                r.meta.entries.len()
            );
        }
        Err(e) => panic!("unexpected error {e}"),
    }
}

#[test]
fn inverted_ranges_error_at_the_storage_layer() {
    let storage = good_dataset();
    let name = DatasetReader::open(&storage).unwrap().meta.entries[0].file_name();
    assert!(matches!(
        storage.read_range(&name, 100, 10),
        Err(SpioError::Format(_))
    ));
}
