//! # spio-tools
//!
//! Dataset tooling for the spatially-aware particle format, exposed as the
//! `spio` command-line binary and as a library for tests and scripts:
//!
//! * [`inspect`] — summarize a dataset: the Fig. 4 metadata table, LOD
//!   parameters, per-file particle counts and attribute ranges;
//! * [`validate`] — deep-check a dataset: metadata invariants, file
//!   headers, payload sizes and checksums, spatial containment, attribute
//!   ranges and id uniqueness;
//! * [`query`] — run a box (optionally density-filtered) query and report
//!   counts and I/O statistics;
//! * [`lod_stats`] — show how a level-of-detail read would progress;
//! * [`convert_fpp`] — rewrite a file-per-process dataset into the
//!   spatially-aware format, i.e. the "costly post-process data
//!   conversion step" (§2) that writing natively in this format avoids.

use spio_core::shuffle::partition_seed;
use spio_core::{DatasetReader, FsStorage, Storage};
use spio_format::data_file::{decode_data_file, DataFileHeader};
use spio_format::{data_file_name, FileEntry, LodParams, SpatialMetadata, META_FILE_NAME};
use spio_types::{Aabb3, DomainDecomposition, GridDims, SpioError};

/// Human-readable dataset summary.
pub fn inspect<S: Storage>(storage: &S) -> Result<String, SpioError> {
    let reader = DatasetReader::open(storage)?;
    let m = &reader.meta;
    let mut out = String::new();
    out.push_str(&format!(
        "domain        {:?} .. {:?}\n\
         writer grid   {}x{}x{} ({} ranks)\n\
         factor        {}\n\
         lod           P={} S={}\n\
         particles     {}\n\
         data files    {}\n",
        m.domain.lo,
        m.domain.hi,
        m.writer_grid.nx,
        m.writer_grid.ny,
        m.writer_grid.nz,
        m.writer_grid.count(),
        m.partition_factor,
        m.lod.p,
        m.lod.s,
        m.total_particles,
        m.entries.len(),
    ));
    out.push_str("\nfile             agg  particles   lo                     hi\n");
    for e in &m.entries {
        out.push_str(&format!(
            "{:<16} {:>4} {:>10}   [{:.3},{:.3},{:.3}]   [{:.3},{:.3},{:.3}]\n",
            e.file_name(),
            e.agg_rank,
            e.particle_count,
            e.bounds.lo[0],
            e.bounds.lo[1],
            e.bounds.lo[2],
            e.bounds.hi[0],
            e.bounds.hi[1],
            e.bounds.hi[2],
        ));
    }
    if let Some(ranges) = &m.attr_ranges {
        out.push_str("\nattribute ranges (density / volume):\n");
        for (e, r) in m.entries.iter().zip(ranges) {
            out.push_str(&format!(
                "{:<16} density [{:.4}, {:.4}]  volume [{:.2e}, {:.2e}]\n",
                e.file_name(),
                r.density_min,
                r.density_max,
                r.volume_min,
                r.volume_max
            ));
        }
    }
    Ok(out)
}

/// Outcome of a deep validation pass.
#[derive(Debug, Default)]
pub struct ValidationReport {
    pub files_checked: usize,
    /// Files carrying (and passing) format-v2 payload checksums. v1 files
    /// validate structurally but have no integrity checking, so a dataset
    /// with `checksummed_files < files_checked` is worth rewriting.
    pub checksummed_files: usize,
    pub particles_checked: u64,
    pub problems: Vec<String>,
}

impl ValidationReport {
    pub fn is_ok(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Deep-check every invariant a correctly written dataset must satisfy.
pub fn validate<S: Storage>(storage: &S) -> Result<ValidationReport, SpioError> {
    let mut report = ValidationReport::default();
    let reader = DatasetReader::open(storage)?;
    let m = &reader.meta;
    if let Err(e) = m.validate_disjoint() {
        report.problems.push(format!("metadata: {e}"));
    }
    let mut ids: Vec<u64> = Vec::new();
    let mut total: u64 = 0;
    for (idx, entry) in m.entries.iter().enumerate() {
        let name = entry.file_name();
        let bytes = match storage.read_file(&name) {
            Ok(b) => b,
            Err(e) => {
                report.problems.push(format!("{name}: unreadable: {e}"));
                continue;
            }
        };
        report.files_checked += 1;
        // `decode_data_file` verifies the v2 header CRC and every payload
        // chunk checksum, so any flipped byte lands in `problems` here.
        let (header, particles) = match decode_data_file(&bytes) {
            Ok(v) => v,
            Err(e) => {
                report.problems.push(format!("{name}: corrupt: {e}"));
                continue;
            }
        };
        if header.has_checksums() {
            report.checksummed_files += 1;
        }
        if header.particle_count != entry.particle_count {
            report.problems.push(format!(
                "{name}: header says {} particles, metadata says {}",
                header.particle_count, entry.particle_count
            ));
        }
        if header.bounds != entry.bounds {
            report
                .problems
                .push(format!("{name}: header bounds disagree with metadata"));
        }
        for p in &particles {
            if !entry.bounds.contains(p.position) {
                report.problems.push(format!(
                    "{name}: particle {} at {:?} outside the file box",
                    p.id, p.position
                ));
                break;
            }
        }
        if let Some(ranges) = &m.attr_ranges {
            let r = &ranges[idx];
            if particles
                .iter()
                .any(|p| p.density < r.density_min || p.density > r.density_max)
            {
                report
                    .problems
                    .push(format!("{name}: density outside recorded range"));
            }
        }
        total += particles.len() as u64;
        report.particles_checked += particles.len() as u64;
        ids.extend(particles.iter().map(|p| p.id));
    }
    if total != m.total_particles {
        report.problems.push(format!(
            "files hold {total} particles, metadata says {}",
            m.total_particles
        ));
    }
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    if ids.len() != before {
        report
            .problems
            .push(format!("{} duplicated particle ids", before - ids.len()));
    }
    Ok(report)
}

/// Run a box query (with an optional density filter) and report counts and
/// I/O cost.
pub fn query<S: Storage>(
    storage: &S,
    query_box: &Aabb3,
    density: Option<(f64, f64)>,
) -> Result<String, SpioError> {
    let reader = DatasetReader::open(storage)?;
    let (hits, stats) = match density {
        Some((lo, hi)) => reader.read_box_density(storage, query_box, lo, hi)?,
        None => reader.read_box(storage, query_box)?,
    };
    Ok(format!(
        "matched {} of {} particles\nfiles opened: {} of {}\nbytes read: {}\ndecoded and discarded: {}\n",
        hits.len(),
        reader.meta.total_particles,
        stats.files_opened,
        reader.meta.entries.len(),
        stats.bytes_read,
        stats.particles_discarded,
    ))
}

/// Write a synthetic uniform dataset with `procs` simulated writer ranks
/// (one data file per rank patch), e.g. to seed CLI smoke tests and the
/// serve bench with an on-disk dataset.
pub fn generate_uniform<S: Storage + Clone + 'static>(
    storage: &S,
    procs: usize,
    per_rank: usize,
    seed: u64,
) -> Result<String, SpioError> {
    use spio_comm::{run_threaded_collect, Comm};
    use spio_core::{SpatialWriter, WriterConfig};

    let procs = procs.max(1);
    let decomp =
        DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::near_cubic(procs));
    let s = storage.clone();
    for rank_result in run_threaded_collect(procs, move |comm| {
        let ps = spio_workloads::uniform_patch_particles(&decomp, comm.rank(), per_rank, seed);
        SpatialWriter::new(
            decomp.clone(),
            WriterConfig::new(spio_types::PartitionFactor::new(1, 1, 1)),
        )
        .write(&comm, &ps, &s)
        .map(|_| ())
        .map_err(|e| format!("rank {}: {e}", comm.rank()))
    })? {
        rank_result.map_err(SpioError::Config)?;
    }
    let reader = DatasetReader::open(storage)?;
    Ok(format!(
        "wrote {} particles across {} files\n",
        reader.meta.total_particles,
        reader.meta.entries.len()
    ))
}

/// Run a box query answered from LOD prefixes: read every intersecting
/// file's shuffled prefix through `level` (clamped to the dataset's level
/// count) and filter to the box. Levels are uniform subsamples, so this
/// trades particle count for I/O — the report shows both.
pub fn query_lod<S: Storage>(
    storage: &S,
    query_box: &Aabb3,
    level: u32,
) -> Result<String, SpioError> {
    let reader = DatasetReader::open(storage)?;
    let mut cursor = reader.lod_box_cursor(query_box, 1);
    let levels = cursor.num_levels();
    if levels == 0 {
        return Ok("no files intersect the query box\n".to_string());
    }
    let capped = level.min(levels - 1);
    let files = reader.meta.files_intersecting(query_box).len();
    let (loaded, stats) = cursor.read_through_level(storage, capped)?;
    let matched = loaded
        .iter()
        .filter(|p| query_box.contains(p.position))
        .count();
    // The cursor issues one incremental range read per file per level, so
    // the op count exceeds the file count past level 0.
    Ok(format!(
        "lod level {capped} of {levels}{}\n\
         matched {matched} of {} particles (prefix holds {})\n\
         file reads: {} across {} of {} files\nbytes read: {}\n",
        if capped != level { " (clamped)" } else { "" },
        reader.meta.total_particles,
        loaded.len(),
        stats.files_opened,
        files,
        reader.meta.entries.len(),
        stats.bytes_read,
    ))
}

/// Replay a seeded multi-client query workload through a traced
/// [`spio_serve::QueryEngine`] and render the serving job report: query
/// latency percentiles, cache hit/miss/eviction counters, and per-file
/// degradation faults.
pub fn serve_bench<S: Storage + Clone + 'static>(
    storage: &S,
    clients: usize,
    spec: &spio_serve::WorkloadSpec,
    config: spio_serve::ServeConfig,
) -> Result<(String, spio_trace::JobReport), SpioError> {
    let trace = spio_trace::Trace::collecting();
    let engine = spio_serve::QueryEngine::open_traced(storage.clone(), config, trace.clone())?;
    let clients = clients.max(1);
    let served = spio_bench::read_bench::replay(&engine, clients, spec)?;
    let cache = engine.cache_stats();
    let report = spio_trace::JobReport::from_snapshot(clients, &trace.snapshot())
        .with_metrics(&trace.metrics());
    let mut out = format!(
        "served {} queries from {} clients ({} partial)\n\
         cache: {} hits / {} misses / {} evictions, {} bytes in {} blocks\n\n",
        served.complete + served.partial,
        clients,
        served.partial,
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.bytes,
        cache.blocks,
    );
    out.push_str(&report.render());
    Ok((out, report))
}

/// Describe how a progressive LOD read with `nreaders` would unfold.
pub fn lod_stats<S: Storage>(storage: &S, nreaders: usize) -> Result<String, SpioError> {
    if nreaders == 0 {
        return Err(SpioError::Config(
            "a LOD read needs at least one reader".into(),
        ));
    }
    let reader = DatasetReader::open(storage)?;
    let m = &reader.meta;
    let levels = m.lod.num_levels(nreaders as u64, m.total_particles);
    let mut out = format!(
        "{} particles, {} readers, P={} S={} ⇒ {} levels\n\nlevel  level size  cumulative\n",
        m.total_particles, nreaders, m.lod.p, m.lod.s, levels
    );
    for l in 0..levels {
        out.push_str(&format!(
            "{:>5} {:>11} {:>11}\n",
            l,
            m.lod
                .actual_level_size(nreaders as u64, l, m.total_particles),
            m.lod.prefix_len(nreaders as u64, l, m.total_particles),
        ));
    }
    Ok(out)
}

/// Convert a file-per-process dataset (written by `nwriters` ranks via
/// `spio_baselines::FppWriter`) into the spatially-aware format — the
/// post-process conversion step the paper's native format avoids. Runs
/// single-process: reads every rank file, bins particles by partition,
/// and assembles each partition's data file in LOD order with the
/// writer's permutation and assembler, then writes the metadata file.
pub fn convert_fpp<S1: Storage, S2: Storage>(
    src: &S1,
    nwriters: usize,
    dst: &S2,
    factor: spio_types::PartitionFactor,
    domain: Aabb3,
) -> Result<String, SpioError> {
    use spio_baselines::FppWriter;
    use spio_core::grid::AggregationGrid;
    use spio_core::shuffle::shuffle_permutation;
    use spio_format::data_file::assemble_data_file;
    use spio_types::particle::record_table;

    let decomp = DomainDecomposition::uniform(domain, GridDims::near_cubic(nwriters));
    factor.validate(decomp.dims)?;
    let grid = AggregationGrid::aligned(&decomp, factor)?;
    // Each partition's records, encoded, in rank-file order.
    let mut bins: Vec<Vec<u8>> = vec![Vec::new(); grid.file_count()];
    let mut total_in: u64 = 0;
    for rank in 0..nwriters {
        for p in FppWriter::read_file(src, rank)? {
            let part = grid.partition_of_point(p.position).ok_or_else(|| {
                SpioError::Format(format!(
                    "particle {} at {:?} outside the declared domain",
                    p.id, p.position
                ))
            })?;
            let mut record = [0u8; spio_types::PARTICLE_BYTES];
            p.encode(&mut record);
            bins[part].extend_from_slice(&record);
            total_in += 1;
        }
    }
    let seed = 0x5910_C0DE;
    let mut entries = Vec::with_capacity(bins.len());
    let mut ranges = Vec::with_capacity(bins.len());
    for (part_idx, bin) in bins.iter().enumerate() {
        let pseed = partition_seed(seed, part_idx);
        let records = record_table(std::slice::from_ref(bin))?;
        let perm = shuffle_permutation(records.len(), pseed)?;
        let agg_rank = grid.partitions[part_idx].agg_rank;
        let bounds = grid.partitions[part_idx].bounds;
        let header = DataFileHeader::new(records.len() as u64, bounds, pseed);
        let (bytes, range) = assemble_data_file(&header, &records, &perm)?;
        dst.write_file(&data_file_name(agg_rank), &bytes)?;
        ranges.push(range);
        entries.push(FileEntry {
            agg_rank: agg_rank as u64,
            particle_count: header.particle_count,
            bounds,
        });
    }
    let meta = SpatialMetadata {
        domain,
        writer_grid: decomp.dims,
        partition_factor: factor,
        lod: LodParams::default(),
        total_particles: total_in,
        entries,
        attr_ranges: Some(ranges),
    };
    dst.write_file(META_FILE_NAME, &meta.encode())?;
    Ok(format!(
        "converted {total_in} particles from {nwriters} rank files into {} spatial files\n",
        meta.entries.len()
    ))
}

/// List the timesteps of a series dataset.
pub fn series_info<S: Storage>(storage: &S) -> Result<String, SpioError> {
    use spio_core::timeseries::{open_timestep, SeriesManifest};
    let manifest = SeriesManifest::load(storage)?;
    if manifest.steps.is_empty() {
        return Ok("no series manifest (or empty series) in this directory\n".to_string());
    }
    let mut out = format!(
        "{} timesteps\n\nstep  particles  files\n",
        manifest.steps.len()
    );
    for &step in &manifest.steps {
        let (reader, _) = open_timestep(storage, step)?;
        out.push_str(&format!(
            "{:>4} {:>10} {:>6}\n",
            step,
            reader.meta.total_particles,
            reader.meta.entries.len()
        ));
    }
    Ok(out)
}

/// Render an x–y density projection of a dataset to a binary PPM image.
pub fn render_ppm<S: Storage>(
    storage: &S,
    width: usize,
    height: usize,
) -> Result<Vec<u8>, SpioError> {
    let reader = DatasetReader::open(storage)?;
    let domain = reader.meta.domain;
    let mut hist = vec![0u32; width * height];
    let e = domain.extent();
    for entry in reader.meta.entries.clone() {
        let (ps, _) = reader.read_box(storage, &entry.bounds)?;
        for p in ps {
            let cx = (((p.position[0] - domain.lo[0]) / e[0]) * width as f64) as usize;
            let cy = (((p.position[1] - domain.lo[1]) / e[1]) * height as f64) as usize;
            hist[cx.min(width - 1) + width * cy.min(height - 1)] += 1;
        }
    }
    let max = *hist.iter().max().unwrap_or(&1) as f64;
    let mut out = format!("P6\n{width} {height}\n255\n").into_bytes();
    for v in hist {
        let t = (v as f64 / max).powf(0.35);
        out.extend_from_slice(&[
            (t * 255.0) as u8,
            (t * 230.0) as u8,
            ((1.0 - t) * 160.0 + 40.0 * t) as u8,
        ]);
    }
    Ok(out)
}

/// Render a serialized [`spio_trace::JobReport`] (the JSON produced by
/// `JobReport::to_json`) as the human-readable Fig. 6-style breakdown:
/// per-phase time split, communication matrix, and storage-op totals.
pub fn report(json: &str) -> Result<String, SpioError> {
    let r = spio_trace::JobReport::from_json(json)
        .map_err(|e| SpioError::Format(format!("bad job report: {e}")))?;
    Ok(r.render())
}

/// Open an `FsStorage` for a CLI path argument.
pub fn open_dir(path: &str) -> FsStorage {
    FsStorage::new(path)
}

/// `spio verify-comm`: run the MPI-semantics verification suite — every
/// collective checked for schedule invariance across `seeds` deterministic
/// interleavings of `procs` ranks, then the known-bad fixture corpus run
/// under `CheckedComm` over the explorer, asserting each is *diagnosed*
/// (mismatch diff or structural deadlock), never a hang.
pub fn verify_comm(procs: usize, seeds: u64) -> Result<String, SpioError> {
    use spio_comm::collectives::{
        allreduce_u64, binomial_broadcast, direct_alltoall, dissemination_barrier,
        exclusive_scan_u64, gather_to, ring_allgather, tree_reduce_u64,
    };
    use spio_comm::Comm;
    use spio_verify::{explore_collect, fixtures, CheckedWorld, ExplorerComm};
    use std::fmt::Write as _;

    let procs = procs.max(2);
    let seeds = seeds.max(1);
    let mut out = String::new();
    let mut failures = Vec::new();

    // Part 1: schedule invariance. Each collective must produce identical
    // per-rank results under every seeded interleaving.
    type CollectiveFn = fn(&ExplorerComm) -> Vec<u8>;
    let collectives: &[(&str, CollectiveFn)] = &[
        ("barrier", |c| {
            dissemination_barrier(c);
            vec![c.rank() as u8]
        }),
        ("allgather", |c| {
            ring_allgather(c, &[c.rank() as u8]).concat()
        }),
        ("alltoall", |c| {
            let sends = (0..c.size())
                .map(|d| vec![c.rank() as u8, d as u8])
                .collect();
            direct_alltoall(c, sends).concat()
        }),
        ("gather", |c| {
            gather_to(c, 0, &[c.rank() as u8])
                .map(|v| v.concat())
                .unwrap_or_default()
        }),
        ("broadcast", |c| binomial_broadcast(c, 1, vec![7, 7])),
        ("reduce", |c| {
            tree_reduce_u64(c, 0, c.rank() as u64 + 1, u64::wrapping_add)
                .unwrap_or(0)
                .to_le_bytes()
                .to_vec()
        }),
        ("allreduce", |c| {
            allreduce_u64(c, 1 << c.rank(), |a, b| a | b)
                .to_le_bytes()
                .to_vec()
        }),
        ("scan", |c| {
            exclusive_scan_u64(c, c.rank() as u64 + 1)
                .to_le_bytes()
                .to_vec()
        }),
    ];
    for (name, f) in collectives {
        let f = *f;
        let mut reference: Option<Vec<Vec<u8>>> = None;
        let mut verdict = format!("ok ({seeds} seeds)");
        for seed in 0..seeds {
            match explore_collect(procs, seed, move |comm| f(&comm)) {
                Ok(results) => match &reference {
                    None => reference = Some(results),
                    Some(expected) if *expected != results => {
                        verdict = format!("DIVERGED at seed {seed}");
                        failures.push(format!("{name}: results depend on the schedule"));
                        break;
                    }
                    Some(_) => {}
                },
                Err(e) => {
                    verdict = format!("FAILED at seed {seed}: {e}");
                    failures.push(format!("{name}: {e}"));
                    break;
                }
            }
        }
        let _ = writeln!(out, "  invariance {name:<10} {verdict}");
    }

    // Part 2: every known-bad program must be diagnosed, not hung.
    type FixtureFn = fn(&spio_verify::CheckedComm<ExplorerComm>);
    let bad: &[(&str, FixtureFn)] = &[
        ("skipped-barrier", |c| fixtures::skipped_barrier(c)),
        ("tag-mismatch", |c| fixtures::tag_mismatch(c)),
        ("recv-without-send", |c| fixtures::recv_without_send(c)),
        ("root-disagreement", |c| fixtures::root_disagreement(c)),
        ("unequal-collectives", |c| {
            fixtures::unequal_collective_counts(c)
        }),
    ];
    // The fixtures panic by design (that's the diagnostic mechanism);
    // silence the default hook so the run prints verdicts, not five
    // backtraces. Restored before returning.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for (name, f) in bad {
        let f = *f;
        let world = CheckedWorld::new(spio_trace::Trace::off())
            .with_stall_timeout(std::time::Duration::from_millis(200));
        let outcome = explore_collect(procs, 0, move |comm| {
            let checked = world.wrap(comm);
            f(&checked);
            checked.finalize().map(|_| ()).map_err(|e| e.to_string())
        });
        match outcome {
            Err(e) => {
                let first = e.to_string();
                let first = first.lines().next().unwrap_or_default().to_string();
                let _ = writeln!(out, "  fixture    {name:<20} diagnosed: {first}");
            }
            Ok(_) => {
                failures.push(format!("{name}: known-bad program was NOT diagnosed"));
                let _ = writeln!(out, "  fixture    {name:<20} NOT DIAGNOSED");
            }
        }
    }
    std::panic::set_hook(prev_hook);

    if failures.is_empty() {
        let _ = writeln!(out, "verify-comm PASS ({procs} ranks)");
        Ok(out)
    } else {
        Err(SpioError::Comm(format!(
            "verify-comm FAIL:\n{out}\n{}",
            failures.join("\n")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spio_comm::{run_threaded_collect, Comm};
    use spio_core::{MemStorage, SpatialWriter, WriterConfig};
    use spio_types::PartitionFactor;
    use spio_workloads::uniform_patch_particles;

    fn sample_dataset() -> MemStorage {
        let storage = MemStorage::new();
        let s = storage.clone();
        let d =
            DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(2, 2, 1));
        run_threaded_collect(4, move |comm| {
            let ps = uniform_patch_particles(&d, comm.rank(), 100, 3);
            SpatialWriter::new(d.clone(), WriterConfig::new(PartitionFactor::new(1, 2, 1)))
                .write(&comm, &ps, &s)
                .unwrap();
        })
        .unwrap();
        storage
    }

    #[test]
    fn inspect_summarizes_dataset() {
        let s = sample_dataset();
        let text = inspect(&s).unwrap();
        assert!(text.contains("particles     400"), "{text}");
        assert!(text.contains("data files    2"), "{text}");
        assert!(text.contains("file_0.spd"), "{text}");
        assert!(text.contains("attribute ranges"), "{text}");
    }

    #[test]
    fn validate_passes_good_dataset() {
        let s = sample_dataset();
        let report = validate(&s).unwrap();
        assert!(report.is_ok(), "{:?}", report.problems);
        assert_eq!(report.files_checked, 2);
        assert_eq!(report.checksummed_files, 2, "v2 writes carry checksums");
        assert_eq!(report.particles_checked, 400);
    }

    #[test]
    fn validate_catches_single_bit_flip_via_checksums() {
        let s = sample_dataset();
        // Flip one bit deep in the payload — structurally still a valid
        // file, caught only by the v2 chunk checksums.
        let mut bytes = s.read_file("file_0.spd").unwrap();
        let mid = spio_format::data_file::HEADER_BYTES + bytes.len() / 2;
        bytes[mid] ^= 0x01;
        s.write_file("file_0.spd", &bytes).unwrap();
        let report = validate(&s).unwrap();
        assert!(
            report.problems.iter().any(|p| p.contains("checksum")),
            "{:?}",
            report.problems
        );
    }

    #[test]
    fn validate_catches_corruption() {
        let s = sample_dataset();
        // Overwrite the first particle's x coordinate with 99.0 — far
        // outside the file's box.
        let mut bytes = s.read_file("file_0.spd").unwrap();
        let off = spio_format::data_file::HEADER_BYTES;
        bytes[off..off + 8].copy_from_slice(&99.0f64.to_le_bytes());
        s.write_file("file_0.spd", &bytes).unwrap();
        let report = validate(&s).unwrap();
        assert!(!report.is_ok());
    }

    #[test]
    fn validate_catches_truncation() {
        let s = sample_dataset();
        let bytes = s.read_file("file_0.spd").unwrap();
        s.write_file("file_0.spd", &bytes[..bytes.len() - 5])
            .unwrap();
        let report = validate(&s).unwrap();
        assert!(report.problems.iter().any(|p| p.contains("corrupt")));
    }

    #[test]
    fn query_reports_counts() {
        let s = sample_dataset();
        let text = query(&s, &Aabb3::new([0.0; 3], [0.5, 1.0, 1.0]), None).unwrap();
        assert!(text.contains("matched 200 of 400"), "{text}");
        assert!(text.contains("files opened: 1 of 2"), "{text}");
    }

    #[test]
    fn query_lod_answers_from_prefixes() {
        let s = sample_dataset();
        let q = Aabb3::new([0.0; 3], [0.5, 1.0, 1.0]);
        // Level 0 reads only the intersecting file's share of the P=32
        // global prefix: 32 * (200/400) = 16 particles.
        let text = query_lod(&s, &q, 0).unwrap();
        assert!(text.contains("lod level 0"), "{text}");
        assert!(text.contains("prefix holds 16"), "{text}");
        assert!(text.contains("file reads: 1 across 1 of 2 files"), "{text}");
        // A too-deep level clamps to the last and recovers every particle.
        let text = query_lod(&s, &q, 99).unwrap();
        assert!(text.contains("(clamped)"), "{text}");
        assert!(text.contains("matched 200"), "{text}");
    }

    #[test]
    fn serve_bench_replays_and_reports() {
        let s = sample_dataset();
        let spec = spio_serve::WorkloadSpec {
            queries_per_client: 8,
            ..Default::default()
        };
        let (text, report) = serve_bench(&s, 2, &spec, spio_serve::ServeConfig::default()).unwrap();
        assert!(text.contains("served 16 queries from 2 clients"), "{text}");
        assert!(text.contains("(0 partial)"), "{text}");
        assert!(text.contains("serve.query.count"), "{text}");
        assert!(report.op_latency("serve.query").is_some());
        assert!(
            report
                .metric(spio_serve::cache::metric_names::HITS)
                .is_some(),
            "cache counters in the report"
        );
    }

    #[test]
    fn lod_stats_lists_levels() {
        let s = sample_dataset();
        let text = lod_stats(&s, 1).unwrap();
        assert!(text.contains("400 particles"), "{text}");
        // P=32, S=2: 32, 64, 128, 176.
        assert!(text.contains("4 levels"), "{text}");
        // Zero readers is an error, not an endless level walk.
        assert!(lod_stats(&s, 0).is_err());
    }

    #[test]
    fn series_info_lists_steps() {
        use spio_core::timeseries::SeriesWriter;
        let storage = MemStorage::new();
        for step in [3u64, 9] {
            let s = storage.clone();
            run_threaded_collect(4, move |comm| {
                let d = DomainDecomposition::uniform(
                    Aabb3::new([0.0; 3], [1.0; 3]),
                    GridDims::new(2, 2, 1),
                );
                let ps = uniform_patch_particles(&d, comm.rank(), 50, step);
                SeriesWriter::new(SpatialWriter::new(
                    d.clone(),
                    WriterConfig::new(PartitionFactor::new(2, 1, 1)),
                ))
                .write_timestep(&comm, step, &ps, &s)
                .unwrap();
            })
            .unwrap();
        }
        let text = series_info(&storage).unwrap();
        assert!(text.contains("2 timesteps"), "{text}");
        assert!(text.contains("   3        200"), "{text}");
        assert!(text.contains("   9        200"), "{text}");
        // A non-series directory reports gracefully.
        let empty = MemStorage::new();
        assert!(series_info(&empty).unwrap().contains("no series"));
    }

    #[test]
    fn render_ppm_produces_valid_image() {
        let s = sample_dataset();
        let img = render_ppm(&s, 40, 20).unwrap();
        assert!(img.starts_with(b"P6\n40 20\n255\n"));
        assert_eq!(img.len(), b"P6\n40 20\n255\n".len() + 40 * 20 * 3);
    }

    #[test]
    fn traced_job_report_renders_end_to_end() {
        use spio_comm::TracedComm;
        use spio_core::{TracedStorage, WriteStats};
        use spio_trace::{JobReport, Trace};

        // Full pipeline with every instrumentation layer attached: traced
        // communicator, traced storage, phase-span-recording writer and
        // reader, all feeding one shared trace.
        let storage = MemStorage::new();
        let trace = Trace::collecting();
        let s = storage.clone();
        let t = trace.clone();
        let d =
            DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(2, 2, 1));
        let d2 = d.clone();
        let stats = run_threaded_collect(4, move |comm| {
            let me = comm.rank();
            let comm = TracedComm::new(comm, t.clone());
            let storage = TracedStorage::new(s.clone(), t.clone(), me);
            let ps = uniform_patch_particles(&d2, me, 200, 11);
            let stats =
                SpatialWriter::new(d2.clone(), WriterConfig::new(PartitionFactor::new(2, 1, 1)))
                    .with_trace(t.clone())
                    .write(&comm, &ps, &storage)
                    .unwrap();
            let reader = DatasetReader::open_traced(&storage, t.clone(), me).unwrap();
            let patch = d2.patch_bounds(me);
            let (got, _) = reader.read_box(&storage, &patch).unwrap();
            assert!(!got.is_empty());
            stats
        })
        .unwrap();

        let report = JobReport::from_snapshot(4, &trace.snapshot());
        // Comm matrix balances and covers the §3.3 exchange.
        assert!(report.comm_imbalances().is_empty());
        assert!(report.total_bytes_sent() > 0);
        // Trace-derived write phases agree with WriteStats (same clock).
        let merged = WriteStats::merge_max(&stats);
        let agg_us = merged.aggregation_time.as_micros() as u64;
        let got_us = report.phase_max("aggregation").as_micros() as u64;
        assert!(got_us.abs_diff(agg_us) <= 1, "{got_us} vs {agg_us}");

        // JSON roundtrip through the CLI-facing `report` renderer.
        let rendered = super::report(&report.to_json()).unwrap();
        assert!(rendered.contains("job report — 4 ranks"), "{rendered}");
        assert!(rendered.contains("phase breakdown"), "{rendered}");
        assert!(rendered.contains("aggregation"), "{rendered}");
        assert!(rendered.contains("read:box"), "{rendered}");
        assert!(rendered.contains("communication matrix"), "{rendered}");
        assert!(
            rendered.contains("sent == received for every (src, dst, tag)"),
            "{rendered}"
        );
        assert!(rendered.contains("write_file"), "{rendered}");
        // Malformed input errors cleanly.
        assert!(super::report("not json").is_err());
    }

    #[test]
    fn verify_comm_passes_on_healthy_collectives() {
        let text = verify_comm(3, 4).unwrap();
        assert!(text.contains("invariance barrier"), "{text}");
        assert!(text.contains("invariance scan"), "{text}");
        assert!(text.contains("fixture    skipped-barrier"), "{text}");
        assert!(text.contains("diagnosed"), "{text}");
        assert!(text.contains("verify-comm PASS"), "{text}");
        assert!(!text.contains("NOT DIAGNOSED"), "{text}");
    }

    #[test]
    fn convert_fpp_produces_valid_spatial_dataset() {
        use spio_baselines::FppWriter;
        // Build an FPP dataset with 4 writers.
        let src = MemStorage::new();
        let s = src.clone();
        let d =
            DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(2, 2, 1));
        run_threaded_collect(4, move |comm| {
            let ps = uniform_patch_particles(&d, comm.rank(), 150, 8);
            FppWriter::new().write(&comm, &ps, &s).unwrap();
        })
        .unwrap();

        let dst = MemStorage::new();
        // near_cubic(4) = 1x2x2, so split along z with factor (1,2,1).
        let msg = convert_fpp(
            &src,
            4,
            &dst,
            PartitionFactor::new(1, 2, 1),
            Aabb3::new([0.0; 3], [1.0; 3]),
        )
        .unwrap();
        assert!(msg.contains("600 particles"), "{msg}");
        // The converted dataset passes deep validation and box queries.
        let report = validate(&dst).unwrap();
        assert!(report.is_ok(), "{:?}", report.problems);
        let reader = DatasetReader::open(&dst).unwrap();
        assert_eq!(reader.meta.total_particles, 600);
        let (all, _) = reader.read_all(&dst).unwrap();
        assert_eq!(all.len(), 600);
    }
}
