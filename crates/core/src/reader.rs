//! Scalable parallel reads for analysis and visualization (§4).
//!
//! Three mechanisms make reads fast: (1) aggregation produces few, large
//! files, so readers open fewer files than file-per-process layouts; (2)
//! files are spatially coherent, so a box query touches few of them; (3)
//! the spatial metadata file tells every reader exactly which files its
//! query needs — without it, a reader must scan *all* files and discard
//! most particles. LOD reads exploit the shuffled layout: a file prefix is
//! a uniform subsample, and appending the next level is a further
//! sequential read.
//!
//! Every data-file read in the workspace — box, scan, density, partial,
//! LOD cursor, proportional prefix, and `spio-serve`'s block loads — is one
//! per-file kernel: fetch → verify → decode → filter. Callers choose which
//! files to touch and what to do when one fails; this module owns the rest:
//!
//! * [`fetch_file`] reads a file whole, verifying its header and every
//!   payload chunk;
//! * [`PrefixFile`] extends a file's verified LOD prefix by one ranged
//!   payload read;
//! * [`Predicate`] is the one box / box + density particle filter.

use crate::stats::ReadStats;
use crate::storage::Storage;
use spio_comm::Comm;
use spio_format::data_file::{
    decode_checksum_footer, decode_data_file, footer_range, payload_range, DataFileHeader,
    HEADER_BYTES,
};
use spio_format::{LodParams, SpatialMetadata, META_FILE_NAME};
use spio_trace::Trace;
use spio_types::{Aabb3, GridDims, Particle, Rank, SpioError, PARTICLE_BYTES};
use spio_util::Crc32;
use std::time::Instant;

/// Phase-span names the read path records into an attached [`Trace`].
pub mod phases {
    pub const META: &str = "read:meta";
    pub const BOX: &str = "read:box";
    pub const SCAN: &str = "read:scan";
    pub const RANGE: &str = "read:range";
    pub const LOD: &str = "read:lod";
    pub const PARTIAL: &str = "read:partial";
}

/// Fetch one data file whole and decode it, verifying the v2 header CRC
/// and every payload chunk against the checksum footer. The file counts
/// toward `stats` once its bytes arrive, even if they then fail to decode.
pub fn fetch_file<S: Storage>(
    storage: &S,
    name: &str,
    stats: &mut ReadStats,
) -> Result<Vec<Particle>, SpioError> {
    let bytes = storage.read_file(name)?;
    stats.files_opened += 1;
    stats.bytes_read += bytes.len() as u64;
    Ok(decode_data_file(&bytes)?.1)
}

/// One data file read as a growing LOD prefix whose completed checksum
/// chunks have all been verified.
///
/// Each [`PrefixFile::extend_to`] is one contiguous ranged payload read,
/// preceded on first touch by the header and (v2) checksum-footer reads —
/// far cheaper than reading the file whole, which is the point of LOD
/// prefix reads. A single running CRC covers the prefix: every fetched
/// byte is fed in, and at each chunk boundary it is compared against the
/// footer and reset. The final partial chunk is verified when the prefix
/// reaches the end of the file; a prefix that stops mid-chunk leaves only
/// that chunk's tail unverified — without re-reading anything, that is the
/// strongest guarantee available.
pub struct PrefixFile {
    name: String,
    total: u64,
    loaded: u64,
    /// Header (and footer) fetched and checked against `total`.
    opened: bool,
    /// Payload bytes per checksum chunk; 0 for files without checksums (v1).
    chunk_bytes: u64,
    crcs: Vec<u32>,
    running: Crc32,
    bytes_in_chunk: u64,
    next_chunk: usize,
}

impl PrefixFile {
    /// A file of `total` records (as the metadata declares) with nothing
    /// read yet.
    pub fn new(name: String, total: u64) -> Self {
        PrefixFile {
            name,
            total,
            loaded: 0,
            opened: false,
            chunk_bytes: 0,
            crcs: Vec::new(),
            running: Crc32::new(),
            bytes_in_chunk: 0,
            next_chunk: 0,
        }
    }

    /// Extend the verified prefix to `target` records (clamped to the
    /// file), appending the newly loaded particles to `out`. A target at or
    /// below the current prefix reads nothing.
    pub fn extend_to<S: Storage>(
        &mut self,
        storage: &S,
        target: u64,
        stats: &mut ReadStats,
        out: &mut Vec<Particle>,
    ) -> Result<(), SpioError> {
        let target = target.min(self.total);
        if target <= self.loaded {
            return Ok(());
        }
        if !self.opened {
            self.open(storage, stats)?;
        }
        let (start, end) = payload_range(self.loaded, target);
        let bytes = storage.read_range(&self.name, start, end)?;
        stats.files_opened += 1;
        stats.bytes_read += bytes.len() as u64;
        if bytes.len() as u64 != end - start {
            return Err(SpioError::Format(format!(
                "'{}': ranged read of [{start}, {end}) returned {} bytes",
                self.name,
                bytes.len()
            )));
        }
        self.absorb(&bytes)?;
        if target == self.total && self.bytes_in_chunk > 0 {
            self.close_chunk()?;
        }
        out.extend(spio_types::particle::decode_particles(&bytes)?);
        self.loaded = target;
        Ok(())
    }

    /// First touch: fetch and validate the header, and for checksummed
    /// (v2) files the tiny checksum footer.
    fn open<S: Storage>(&mut self, storage: &S, stats: &mut ReadStats) -> Result<(), SpioError> {
        let header_bytes = storage.read_range(&self.name, 0, HEADER_BYTES as u64)?;
        stats.bytes_read += header_bytes.len() as u64;
        let header = DataFileHeader::decode(&header_bytes)?;
        if header.particle_count != self.total {
            return Err(SpioError::Format(format!(
                "'{}' header declares {} particles but metadata says {}",
                self.name, header.particle_count, self.total
            )));
        }
        // Checked first for every version: it rejects a count whose file
        // size overflows, before any payload range arithmetic runs.
        let (start, end) = footer_range(&header)?;
        if header.has_checksums() {
            let footer = storage.read_range(&self.name, start, end)?;
            stats.bytes_read += footer.len() as u64;
            self.crcs = decode_checksum_footer(&header, &footer)?;
            self.chunk_bytes = header.checksum_chunk as u64 * PARTICLE_BYTES as u64;
        }
        self.opened = true;
        Ok(())
    }

    /// Feed the next contiguous slice of payload, checking every chunk it
    /// completes.
    fn absorb(&mut self, mut bytes: &[u8]) -> Result<(), SpioError> {
        if self.chunk_bytes == 0 {
            return Ok(());
        }
        while !bytes.is_empty() {
            let take = ((self.chunk_bytes - self.bytes_in_chunk) as usize).min(bytes.len());
            self.running.update(&bytes[..take]);
            self.bytes_in_chunk += take as u64;
            bytes = &bytes[take..];
            if self.bytes_in_chunk == self.chunk_bytes {
                self.close_chunk()?;
            }
        }
        Ok(())
    }

    /// Compare the running CRC against the footer's entry for the current
    /// chunk and start the next one.
    fn close_chunk(&mut self) -> Result<(), SpioError> {
        if self.crcs.get(self.next_chunk) != Some(&self.running.finalize()) {
            return Err(SpioError::Format(format!(
                "payload checksum mismatch in chunk {} of '{}'",
                self.next_chunk, self.name
            )));
        }
        self.running.reset();
        self.bytes_in_chunk = 0;
        self.next_chunk += 1;
        Ok(())
    }
}

/// Which particles of a fetched file a read keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// Particles inside the region (the paper's §4 box read).
    Box(Aabb3),
    /// Particles inside the region whose density lies in `[lo, hi]` (§3.5
    /// attribute-range extension).
    BoxDensity { region: Aabb3, lo: f64, hi: f64 },
}

impl Predicate {
    /// Append the particles of one decoded file that pass, returning how
    /// many were kept. When `file_bounds` is given and lies fully inside a
    /// [`Predicate::Box`] region, the per-particle test is skipped.
    ///
    /// This is the single filter of every read path — the serial reader,
    /// the metadata-less scan, and the `spio-serve` concurrent executor —
    /// which is what makes the concurrent engine's results byte-identical
    /// to the serial ones.
    pub fn append_hits(
        &self,
        file_bounds: Option<&Aabb3>,
        particles: &[Particle],
        out: &mut Vec<Particle>,
    ) -> usize {
        let before = out.len();
        match *self {
            Predicate::Box(region) if file_bounds.is_some_and(|b| box_contains(&region, b)) => {
                out.extend_from_slice(particles);
            }
            Predicate::Box(region) => out.extend(
                particles
                    .iter()
                    .filter(|p| region.contains(p.position))
                    .copied(),
            ),
            Predicate::BoxDensity { region, lo, hi } => out.extend(
                particles
                    .iter()
                    .filter(|p| region.contains(p.position) && p.density >= lo && p.density <= hi)
                    .copied(),
            ),
        }
        out.len() - before
    }
}

fn box_contains(outer: &Aabb3, inner: &Aabb3) -> bool {
    (0..3).all(|a| outer.lo[a] <= inner.lo[a] && inner.hi[a] <= outer.hi[a])
}

/// A handle to a written dataset: the parsed spatial metadata.
#[derive(Debug, Clone)]
pub struct DatasetReader {
    pub meta: SpatialMetadata,
    trace: Trace,
    rank: Rank,
}

impl DatasetReader {
    /// Open a dataset by reading and parsing its spatial metadata file
    /// ("a lightweight I/O task", §4).
    pub fn open<S: Storage>(storage: &S) -> Result<Self, SpioError> {
        let bytes = storage.read_file(META_FILE_NAME)?;
        Ok(DatasetReader {
            meta: SpatialMetadata::decode(&bytes)?,
            trace: Trace::off(),
            rank: 0,
        })
    }

    /// Like [`DatasetReader::open`], but records read-phase spans
    /// ([`phases`]) into `trace` attributed to `rank` — including a
    /// `read:meta` span for the metadata fetch itself.
    pub fn open_traced<S: Storage>(
        storage: &S,
        trace: Trace,
        rank: Rank,
    ) -> Result<Self, SpioError> {
        let t0 = Instant::now();
        let reader = Self::open(storage)?;
        trace.phase(rank, phases::META, t0.elapsed());
        Ok(DatasetReader {
            trace,
            rank,
            ..reader
        })
    }

    /// Box query using spatial metadata: open only the files whose bounds
    /// intersect `query`, filter particles to the query box. Files fully
    /// contained in the query skip the per-particle filter.
    pub fn read_box<S: Storage>(
        &self,
        storage: &S,
        query: &Aabb3,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let files = self.meta.files_intersecting(query);
        self.read_files(storage, files, Predicate::Box(*query), true, phases::BOX)
    }

    /// The spatially unaware baseline read (Fig. 7's "without spatial
    /// metadata" case): scan *every* data file, keeping only particles in
    /// the query box. The file names still come from the metadata (we need
    /// to enumerate them somehow) but the per-file bounds are deliberately
    /// ignored.
    pub fn read_box_without_metadata<S: Storage>(
        &self,
        storage: &S,
        query: &Aabb3,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let files = 0..self.meta.entries.len();
        self.read_files(storage, files, Predicate::Box(*query), false, phases::SCAN)
    }

    /// Attribute range-query (§3.5 extension): return particles inside
    /// `query` whose density lies in `[density_lo, density_hi]`. Files are
    /// pruned by both the spatial metadata and the per-file attribute
    /// ranges, so files that cannot contain matching particles are never
    /// opened.
    pub fn read_box_density<S: Storage>(
        &self,
        storage: &S,
        query: &Aabb3,
        density_lo: f64,
        density_hi: f64,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let files = self
            .meta
            .files_for_range_query(query, density_lo, density_hi);
        let pred = Predicate::BoxDensity {
            region: *query,
            lo: density_lo,
            hi: density_hi,
        };
        self.read_files(storage, files, pred, true, phases::RANGE)
    }

    /// Read the entire dataset.
    pub fn read_all<S: Storage>(
        &self,
        storage: &S,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        self.read_box(storage, &self.meta.domain.clone())
    }

    /// Fail-fast whole-file read: fetch each of `files` in order and keep
    /// what `pred` passes; the first unreadable or corrupt file fails the
    /// read. `use_bounds` lets files inside a box query skip the
    /// per-particle test. Discards are counted from what was actually
    /// decoded, so a tampered metadata count cannot underflow them.
    fn read_files<S: Storage>(
        &self,
        storage: &S,
        files: impl IntoIterator<Item = usize>,
        pred: Predicate,
        use_bounds: bool,
        phase: &'static str,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let t0 = Instant::now();
        let mut stats = ReadStats::default();
        let mut out = Vec::new();
        for idx in files {
            let entry = &self.meta.entries[idx];
            let particles = fetch_file(storage, &entry.file_name(), &mut stats)?;
            let kept = pred.append_hits(use_bounds.then_some(&entry.bounds), &particles, &mut out);
            stats.particles_discarded += (particles.len() - kept) as u64;
        }
        self.finish(phase, t0, &mut stats, out.len());
        Ok((out, stats))
    }

    /// Close out a read's stats and record its phase span.
    fn finish(&self, phase: &'static str, t0: Instant, stats: &mut ReadStats, particles: usize) {
        stats.particles_read = particles as u64;
        stats.time = t0.elapsed();
        self.trace.phase(self.rank, phase, stats.time);
    }

    /// Box query with graceful degradation: like [`DatasetReader::read_box`]
    /// but one unreadable or corrupt file does not fail the whole query.
    /// Every intersecting file gets a [`FileOutcome`]; particles from the
    /// files that *did* read land in [`PartialRead::particles`]. A
    /// visualization client renders what arrived and reports the holes.
    pub fn read_box_partial<S: Storage>(&self, storage: &S, query: &Aabb3) -> PartialRead {
        let t0 = Instant::now();
        let pred = Predicate::Box(*query);
        let mut stats = ReadStats::default();
        let mut out = Vec::new();
        let mut outcomes = Vec::new();
        for idx in self.meta.files_intersecting(query) {
            let entry = &self.meta.entries[idx];
            let name = entry.file_name();
            match fetch_file(storage, &name, &mut stats) {
                Ok(particles) => {
                    let kept = pred.append_hits(Some(&entry.bounds), &particles, &mut out);
                    stats.particles_discarded += (particles.len() - kept) as u64;
                    outcomes.push(FileOutcome {
                        file: name,
                        particles: kept as u64,
                        error: None,
                    });
                }
                Err(e) => {
                    // Degraded-file events let `spio report` count how many
                    // holes a partial query tolerated.
                    self.trace.fault(self.rank, "partial_read", &name, false);
                    outcomes.push(FileOutcome {
                        file: name,
                        particles: 0,
                        error: Some(e),
                    });
                }
            }
        }
        self.finish(phases::PARTIAL, t0, &mut stats, out.len());
        PartialRead {
            particles: out,
            outcomes,
            stats,
        }
    }

    /// A LOD prefix of about `target` particles of the whole dataset: the
    /// proportional prefix ([`LodParams::file_prefix`]) of every file, each
    /// read as one verified ranged read. The shuffled layout makes each
    /// file prefix a uniform subsample of its partition, so the union is a
    /// uniform subsample of the domain at any sampling rate, not just at
    /// level boundaries.
    pub fn read_lod_prefix<S: Storage>(
        &self,
        storage: &S,
        target: u64,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let t0 = Instant::now();
        let mut stats = ReadStats::default();
        let mut out = Vec::new();
        let total = self.meta.total_particles;
        for entry in &self.meta.entries {
            let take = LodParams::file_prefix(entry.particle_count, total, target);
            PrefixFile::new(entry.file_name(), entry.particle_count)
                .extend_to(storage, take, &mut stats, &mut out)?;
        }
        self.finish(phases::LOD, t0, &mut stats, out.len());
        Ok((out, stats))
    }
}

/// Per-file result of a [`DatasetReader::read_box_partial`] query.
#[derive(Debug)]
pub struct FileOutcome {
    /// Data-file name.
    pub file: String,
    /// Particles this file contributed to the result.
    pub particles: u64,
    /// Why the file contributed nothing (`None` = read fine).
    pub error: Option<SpioError>,
}

impl FileOutcome {
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Result of a degraded box query: whatever could be read, plus what
/// couldn't and why.
#[derive(Debug)]
pub struct PartialRead {
    /// Particles from every file that read and decoded cleanly.
    pub particles: Vec<Particle>,
    /// One entry per file the query touched, in metadata order.
    pub outcomes: Vec<FileOutcome>,
    /// I/O stats over the successful reads.
    pub stats: ReadStats,
}

impl PartialRead {
    /// Did every touched file read cleanly? If so the result is identical
    /// to [`DatasetReader::read_box`].
    pub fn is_complete(&self) -> bool {
        self.outcomes.iter().all(FileOutcome::is_ok)
    }

    /// The outcomes that failed.
    pub fn failures(&self) -> Vec<&FileOutcome> {
        self.outcomes.iter().filter(|o| !o.is_ok()).collect()
    }
}

/// Parallel visualization-style reads (§5.3): `n` readers (usually far
/// fewer than the writers) each take one cell of a near-cubic split of the
/// domain and box-query it.
pub struct BoxQueryReader;

impl BoxQueryReader {
    /// The subdomain assigned to `rank` of `nreaders`.
    pub fn reader_query(domain: &Aabb3, nreaders: usize, rank: usize) -> Aabb3 {
        let dims = GridDims::near_cubic(nreaders);
        domain.cell(dims.as_array(), dims.delinearize(rank))
    }

    /// Collective distributed read: every rank reads its subdomain.
    /// Returns this rank's particles and stats.
    pub fn read<C: Comm, S: Storage>(
        comm: &C,
        storage: &S,
        use_metadata: bool,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let reader = DatasetReader::open(storage)?;
        let query = Self::reader_query(&reader.meta.domain, comm.size(), comm.rank());
        if use_metadata {
            reader.read_box(storage, &query)
        } else {
            reader.read_box_without_metadata(storage, &query)
        }
    }
}

/// Progressive level-of-detail reads over a set of files (§4, §5.4).
///
/// The cursor tracks a per-file prefix offset. Each level extends every
/// file's prefix to the proportional share of the global level boundary, so
/// after reading through level `l` the union across all readers is a
/// uniform subsample of `prefix_len(n, l)` particles.
pub struct LodCursor {
    files: Vec<PrefixFile>,
    /// Total particles in the dataset (not just this cursor's files).
    dataset_total: u64,
    lod: LodParams,
    /// Number of reader processes `n` in the LOD formula.
    nreaders: u64,
    /// Levels available (dataset-wide), fixed when the cursor is built.
    num_levels: u32,
    next_level: u32,
    trace: Trace,
    rank: Rank,
}

impl LodCursor {
    /// Build a cursor over the metadata entries at `file_indices`
    /// (typically this reader's share of the files).
    pub fn new(meta: &SpatialMetadata, file_indices: &[usize], nreaders: usize) -> Self {
        let files = file_indices
            .iter()
            .map(|&i| {
                let e = &meta.entries[i];
                PrefixFile::new(e.file_name(), e.particle_count)
            })
            .collect();
        LodCursor {
            files,
            dataset_total: meta.total_particles,
            lod: meta.lod,
            nreaders: nreaders as u64,
            num_levels: meta.lod.num_levels(nreaders as u64, meta.total_particles),
            next_level: 0,
            trace: Trace::off(),
            rank: 0,
        }
    }

    /// Record a `read:lod` phase span per level read into `trace`,
    /// attributed to `rank`.
    pub fn with_trace(mut self, trace: Trace, rank: Rank) -> Self {
        self.trace = trace;
        self.rank = rank;
        self
    }

    /// Round-robin assignment of files to a reader: reader `rank` of
    /// `nreaders` handles entries `rank, rank + nreaders, …`.
    pub fn files_for_reader(meta: &SpatialMetadata, nreaders: usize, rank: usize) -> Vec<usize> {
        (rank..meta.entries.len()).step_by(nreaders).collect()
    }

    /// Number of levels available (dataset-wide).
    pub fn num_levels(&self) -> u32 {
        self.num_levels
    }

    /// The next level this cursor would read.
    pub fn next_level(&self) -> u32 {
        self.next_level
    }

    /// Read the next level: extend every file prefix to its share of the
    /// cumulative level boundary, returning the newly loaded particles.
    /// Returns an empty vector once all levels are consumed.
    pub fn read_next_level<S: Storage>(
        &mut self,
        storage: &S,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let t0 = Instant::now();
        let mut stats = ReadStats::default();
        let mut out = Vec::new();
        if self.next_level >= self.num_levels {
            stats.time = t0.elapsed();
            return Ok((out, stats));
        }
        let global_prefix = self
            .lod
            .prefix_len(self.nreaders, self.next_level, self.dataset_total);
        for f in &mut self.files {
            let target = LodParams::file_prefix(f.total, self.dataset_total, global_prefix);
            f.extend_to(storage, target, &mut stats, &mut out)?;
        }
        self.next_level += 1;
        stats.particles_read = out.len() as u64;
        stats.time = t0.elapsed();
        self.trace.phase(self.rank, phases::LOD, stats.time);
        Ok((out, stats))
    }

    /// Read levels `0 ..= level` (from the cursor's current position),
    /// returning everything loaded.
    pub fn read_through_level<S: Storage>(
        &mut self,
        storage: &S,
        level: u32,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let mut out = Vec::new();
        let mut all_stats = Vec::new();
        while self.next_level <= level && self.next_level < self.num_levels {
            let (ps, stats) = self.read_next_level(storage)?;
            out.extend(ps);
            all_stats.push(stats);
        }
        let mut merged = ReadStats::merge(&all_stats);
        merged.time = all_stats.iter().map(|s| s.time).sum();
        Ok((out, merged))
    }
}

impl DatasetReader {
    /// A LOD cursor restricted to the files intersecting `query`:
    /// progressive refinement *within a region* (e.g. a view frustum) —
    /// each level touches only the relevant files, and within them only
    /// prefix bytes.
    pub fn lod_box_cursor(&self, query: &Aabb3, nreaders: usize) -> LodCursor {
        let files = self.meta.files_intersecting(query);
        LodCursor::new(&self.meta, &files, nreaders).with_trace(self.trace.clone(), self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use crate::writer::{SpatialWriter, WriterConfig};
    use spio_comm::run_threaded_collect;
    use spio_types::{DomainDecomposition, PartitionFactor};

    /// Write a 4×4×1 dataset with 2×2 aggregation, `per_rank` particles per
    /// rank laid out deterministically inside each patch.
    fn build_dataset(per_rank: usize) -> MemStorage {
        let storage = MemStorage::new();
        let s2 = storage.clone();
        let d =
            DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 4, 1));
        run_threaded_collect(16, move |comm| {
            let b = d.patch_bounds(comm.rank());
            let e = b.extent();
            let particles: Vec<Particle> = (0..per_rank)
                .map(|i| {
                    let t = (i as f64 + 0.5) / per_rank as f64;
                    let u = ((i * 13 + 5) % per_rank) as f64 / per_rank as f64;
                    Particle::synthetic(
                        [b.lo[0] + t * e[0] * 0.99, b.lo[1] + u * e[1] * 0.99, 0.5],
                        ((comm.rank() as u64) << 32) | i as u64,
                    )
                })
                .collect();
            let writer =
                SpatialWriter::new(d.clone(), WriterConfig::new(PartitionFactor::new(2, 2, 1)));
            writer.write(&comm, &particles, &s2).unwrap();
        })
        .unwrap();
        storage
    }

    #[test]
    fn open_parses_metadata() {
        let storage = build_dataset(20);
        let r = DatasetReader::open(&storage).unwrap();
        assert_eq!(r.meta.entries.len(), 4);
        assert_eq!(r.meta.total_particles, 320);
    }

    #[test]
    fn box_query_reads_only_needed_files() {
        let storage = build_dataset(20);
        let r = DatasetReader::open(&storage).unwrap();
        // Query strictly inside the lower-left quadrant.
        let q = Aabb3::new([0.05, 0.05, 0.0], [0.4, 0.4, 1.0]);
        let (ps, stats) = r.read_box(&storage, &q).unwrap();
        assert_eq!(stats.files_opened, 1, "one quadrant ⇒ one file");
        assert!(ps.iter().all(|p| q.contains(p.position)));
        assert!(!ps.is_empty());
    }

    #[test]
    fn without_metadata_reads_everything() {
        let storage = build_dataset(20);
        let r = DatasetReader::open(&storage).unwrap();
        let q = Aabb3::new([0.05, 0.05, 0.0], [0.4, 0.4, 1.0]);
        let (with, s_with) = r.read_box(&storage, &q).unwrap();
        let (without, s_without) = r.read_box_without_metadata(&storage, &q).unwrap();
        // Same answer…
        let mut a: Vec<u64> = with.iter().map(|p| p.id).collect();
        let mut b: Vec<u64> = without.iter().map(|p| p.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // …but the metadata-less read opened all 4 files and discarded most
        // of what it decoded.
        assert_eq!(s_without.files_opened, 4);
        assert!(s_without.bytes_read > s_with.bytes_read);
        assert!(s_without.particles_discarded > 0);
    }

    #[test]
    fn full_domain_read_recovers_every_particle() {
        let storage = build_dataset(25);
        let r = DatasetReader::open(&storage).unwrap();
        let (ps, _) = r.read_all(&storage).unwrap();
        assert_eq!(ps.len(), 400);
        let mut ids: Vec<u64> = ps.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400, "no duplicates");
    }

    #[test]
    fn parallel_box_readers_partition_the_domain() {
        // Written by 16 ranks, read back by fewer: the dataset redistributes
        // onto each reader count's near-cubic split of the domain.
        let storage = build_dataset(20);
        for nreaders in [2usize, 4, 8] {
            let s = storage.clone();
            let results = run_threaded_collect(nreaders, move |comm| {
                let (ps, _) = BoxQueryReader::read(&comm, &s, true).unwrap();
                let domain = DatasetReader::open(&s).unwrap().meta.domain;
                let query = BoxQueryReader::reader_query(&domain, comm.size(), comm.rank());
                // Everything landed in this reader's subdomain.
                assert!(ps.iter().all(|p| query.contains(p.position)));
                ps.iter().map(|p| p.id).collect::<Vec<u64>>()
            })
            .unwrap();
            let total: usize = results.iter().map(Vec::len).sum();
            assert_eq!(
                total, 320,
                "{nreaders} readers together recover the dataset"
            );
            // Reader subdomains are disjoint: no particle appears twice.
            let mut ids: Vec<u64> = results.into_iter().flatten().collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 320, "{nreaders} readers");
        }
    }

    #[test]
    fn lod_levels_accumulate_to_full_dataset() {
        let storage = build_dataset(32); // total 512
        let r = DatasetReader::open(&storage).unwrap();
        let indices: Vec<usize> = (0..r.meta.entries.len()).collect();
        let mut cursor = LodCursor::new(&r.meta, &indices, 1);
        // P=32, S=2, n=1, total=512 ⇒ levels 32, 64, 128, 256, 32.
        assert_eq!(cursor.num_levels(), 5);
        let mut all = Vec::new();
        let mut level_sizes = Vec::new();
        for _ in 0..cursor.num_levels() {
            let (ps, _) = cursor.read_next_level(&storage).unwrap();
            level_sizes.push(ps.len());
            all.extend(ps);
        }
        assert_eq!(all.len(), 512);
        let mut ids: Vec<u64> = all.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 512, "levels are disjoint and complete");
        // Level sizes follow the geometric progression (up to proportional-
        // split rounding across 4 files).
        assert!((30..=36).contains(&level_sizes[0]), "{level_sizes:?}");
        assert!((60..=70).contains(&level_sizes[1]), "{level_sizes:?}");
        // Exhausted cursor returns nothing.
        let (ps, _) = cursor.read_next_level(&storage).unwrap();
        assert!(ps.is_empty());
    }

    #[test]
    fn lod_prefix_is_spatially_representative() {
        let storage = build_dataset(64); // total 1024
        let r = DatasetReader::open(&storage).unwrap();
        let indices: Vec<usize> = (0..r.meta.entries.len()).collect();
        let mut cursor = LodCursor::new(&r.meta, &indices, 1);
        let (ps, _) = cursor.read_through_level(&storage, 1).unwrap(); // ~96 particles
                                                                       // All four quadrants must be represented.
        for (qx, qy) in [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)] {
            let q = Aabb3::new([qx, qy, 0.0], [qx + 0.5, qy + 0.5, 1.0]);
            assert!(
                ps.iter().any(|p| q.contains(p.position)),
                "quadrant ({qx},{qy}) unrepresented in LOD prefix"
            );
        }
    }

    #[test]
    fn multi_reader_lod_covers_all_files() {
        let storage = build_dataset(32);
        let results = run_threaded_collect(2, move |comm| {
            let meta = DatasetReader::open(&storage).unwrap().meta;
            let files = LodCursor::files_for_reader(&meta, 2, comm.rank());
            let mut cursor = LodCursor::new(&meta, &files, 2);
            let levels = cursor.num_levels();
            let (ps, _) = cursor.read_through_level(&storage, levels - 1).unwrap();
            ps
        })
        .unwrap();
        let total: usize = results.iter().map(Vec::len).sum();
        assert_eq!(total, 512);
    }

    #[test]
    fn windowed_lod_refines_only_the_query_region() {
        let storage = build_dataset(64); // 1024 particles over 4 quadrant files
        let r = DatasetReader::open(&storage).unwrap();
        // Window covering only the lower-left quadrant.
        let q = Aabb3::new([0.05, 0.05, 0.0], [0.4, 0.4, 1.0]);
        let mut cursor = r.lod_box_cursor(&q, 1);
        let mut loaded = Vec::new();
        let mut bytes = 0;
        for _ in 0..cursor.num_levels() {
            let (ps, stats) = cursor.read_next_level(&storage).unwrap();
            loaded.extend(ps);
            bytes += stats.bytes_read;
        }
        // Only that quadrant's file was consumed: 256 of 1024 particles.
        assert_eq!(loaded.len(), 256);
        let quadrant = Aabb3::new([0.0, 0.0, 0.0], [0.5, 0.5, 1.0]);
        assert!(loaded.iter().all(|p| quadrant.contains(p.position)));
        // Far less I/O than the full dataset.
        assert!(bytes < storage.total_bytes() / 3);
    }

    #[test]
    fn reader_queries_tile_domain() {
        let domain = Aabb3::new([0.0; 3], [2.0; 3]);
        for n in [1, 2, 4, 8, 6] {
            let vol: f64 = (0..n)
                .map(|r| BoxQueryReader::reader_query(&domain, n, r).volume())
                .sum();
            assert!((vol - domain.volume()).abs() < 1e-9, "n={n}");
        }
    }

    /// Delegates to `inner`, except that a ranged read starting at the
    /// first payload byte comes back `short` bytes short.
    struct ShortPayloadRead {
        inner: MemStorage,
        short: usize,
    }

    impl Storage for ShortPayloadRead {
        fn write_file(&self, name: &str, data: &[u8]) -> Result<(), SpioError> {
            self.inner.write_file(name, data)
        }
        fn read_file(&self, name: &str) -> Result<Vec<u8>, SpioError> {
            self.inner.read_file(name)
        }
        fn read_range(&self, name: &str, start: u64, end: u64) -> Result<Vec<u8>, SpioError> {
            let mut bytes = self.inner.read_range(name, start, end)?;
            if start == HEADER_BYTES as u64 {
                bytes.truncate(bytes.len().saturating_sub(self.short));
            }
            Ok(bytes)
        }
        fn file_size(&self, name: &str) -> Result<u64, SpioError> {
            self.inner.file_size(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.inner.exists(name)
        }
        fn write_range(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), SpioError> {
            self.inner.write_range(name, offset, data)
        }
    }

    #[test]
    fn short_ranged_read_is_an_error() {
        let storage = build_dataset(1000);
        let meta = DatasetReader::open(&storage).unwrap().meta;
        let entry = meta.entries[0];
        let total = meta.total_particles;
        let level0 = LodParams::file_prefix(
            entry.particle_count,
            total,
            meta.lod.prefix_len(1, 0, total),
        );
        // Level 0 ends inside the file's only checksum chunk, so no chunk
        // CRC can catch the missing bytes.
        assert_eq!(entry.particle_count, 4000);
        assert!(level0 > 1 && level0 < entry.particle_count);
        for short in [1, PARTICLE_BYTES] {
            let storage = ShortPayloadRead {
                inner: storage.clone(),
                short,
            };
            let mut out = Vec::new();
            let res = PrefixFile::new(entry.file_name(), entry.particle_count).extend_to(
                &storage,
                level0,
                &mut ReadStats::default(),
                &mut out,
            );
            assert!(
                matches!(res, Err(SpioError::Format(_))),
                "{short} bytes short: {res:?}, {} particles",
                out.len()
            );
        }
    }

    #[test]
    fn crafted_header_count_that_overflows_is_an_error() {
        // A valid v2 header (its CRC passes) whose count agrees with the
        // metadata but whose encoded length overflows u64.
        let count = u64::MAX / 100;
        let header = DataFileHeader::new(count, Aabb3::new([0.0; 3], [1.0; 3]), 1);
        assert_eq!(header.encoded_len(), None);
        let storage = MemStorage::new();
        storage.write_file("crafted", &header.encode()).unwrap();
        let res = PrefixFile::new("crafted".into(), count).extend_to(
            &storage,
            1,
            &mut ReadStats::default(),
            &mut Vec::new(),
        );
        assert!(matches!(res, Err(SpioError::Format(_))), "{res:?}");
    }

    #[test]
    fn open_missing_dataset_errors() {
        let storage = MemStorage::new();
        assert!(matches!(
            DatasetReader::open(&storage),
            Err(SpioError::NotFound(_))
        ));
    }
}
