//! The spatially-aware two-phase write path (§3).
//!
//! Steps, mirroring the paper's enumeration:
//!
//! 1. set up the aggregation-grid (§3.1) — static, or adaptive (§6);
//! 2. select aggregators uniformly in rank space (§3.2);
//! 3. exchange metadata — particle counts so aggregators can size their
//!    receive buffers (§3.3); the adaptive path exchanges extents up front
//!    (§6) and the general path exchanges declared particle boxes;
//! 4. allocate aggregation buffers: an aggregator's buffer is its data
//!    file, sized from the declared counts, which every data message it
//!    receives must match;
//! 5. exchange particles with non-blocking point-to-point messages (§3.3),
//!    kept as the encoded records they arrive as — an aggregator never
//!    decodes them;
//! 6. compute each partition's level-of-detail order (§3.4) as an index
//!    permutation over the received records;
//! 7. gather the records in that order straight into the data file's
//!    buffer, which is the aggregation buffer, and write one data file per
//!    partition (§3.4);
//! 8. gather per-file bounding boxes and write the spatial metadata file on
//!    rank 0 (§3.5), then broadcast the outcome so no rank reports success
//!    for a dataset whose metadata never landed.
//!
//! Steps 3-5 are one exchange for both [`WriteMode`]s; the mode only
//! decides where a rank's particles go and whom an aggregator hears from.
//! Sends follow the MPI structure the paper assumes: the exchange posts
//! *all* of its non-blocking sends first and only then waits on the batch,
//! so a real-MPI port gets genuine send/receive overlap instead of
//! serialized rendezvous.
//!
//! A rank that fails locally (a stray particle, a failed data-file write)
//! still takes part in every send and collective its peers expect, and
//! carries its error into the step-8 gather, so every rank returns the
//! failure instead of waiting on the missing rank.
//!
//! When a [`spio_trace::Trace`] is attached ([`SpatialWriter::with_trace`]),
//! the writer records one phase span per step from the *same* clock
//! measurements that feed [`WriteStats`], so trace-derived breakdowns agree
//! with the stats by construction.

use crate::adaptive::AdaptiveGrid;
use crate::grid::AggregationGrid;
use crate::shuffle::{lod_permutation, partition_seed, LodOrder};
use crate::stats::WriteStats;
use crate::storage::Storage;
use spio_comm::{Comm, Tag};
use spio_format::data_file::{assemble_data_file, DataFileHeader};
use spio_format::meta::AttrRange;
use spio_format::{data_file_name, FileEntry, LodParams, SpatialMetadata, META_FILE_NAME};
use spio_trace::Trace;
use spio_types::le::{aabb_at, f64_at, u64_at};
use spio_types::particle::{encode_particles, record_table};
use spio_types::{Aabb3, DomainDecomposition, Particle, Rank, SpioError, PARTICLE_BYTES};
use std::borrow::Cow;
use std::time::Instant;

/// Data-file header flag bits recording which LOD ordering produced the
/// layout (any ordering still makes prefixes valid subsamples; the flags
/// let verification tooling know which permutation to reconstruct).
pub mod flags {
    /// Payload is in stratified (round-robin-over-cells) order.
    pub const STRATIFIED_ORDER: u32 = 1;
}

/// Phase-span names the writer records into an attached [`Trace`]. One
/// name per [`WriteStats`] duration field, so report consumers can
/// cross-check the two.
pub mod phases {
    pub const SETUP: &str = "setup";
    pub const AGGREGATION: &str = "aggregation";
    pub const SHUFFLE: &str = "shuffle";
    pub const FILE_IO: &str = "file_io";
    pub const META: &str = "meta";
}

/// Tag used for count metadata messages.
const TAG_META: Tag = 1;
/// Tag used for particle payload messages.
const TAG_DATA: Tag = 2;

/// How a rank's particles relate to the aggregation grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteMode {
    /// Every particle lies within its rank's own patch, and the
    /// aggregation-grid is aligned with the simulation grid — each rank
    /// sends all particles to a single aggregator with no per-particle
    /// scan (§3.1's fast path). Violations are detected and reported.
    #[default]
    Aligned,
    /// Particles may lie anywhere in the domain; ranks first exchange their
    /// particle bounding boxes (all-gather), then bin particles per
    /// partition and send to every aggregator they intersect (§3.3's
    /// non-aligned path).
    General,
}

/// Writer configuration.
#[derive(Debug, Clone)]
pub struct WriterConfig {
    /// Aggregation partition factor (§3.1) — the main tuning parameter.
    pub factor: spio_types::PartitionFactor,
    /// LOD parameters recorded in the metadata file.
    pub lod: LodParams,
    /// Dataset seed for the LOD shuffles.
    pub seed: u64,
    /// Aligned fast path vs general binning path.
    pub mode: WriteMode,
    /// Build the grid adaptively over the occupied region (§6).
    pub adaptive: bool,
    /// With `adaptive`, rebalance partition rectangles by particle weight
    /// (§7's future-work extension) instead of imposing a uniform grid on
    /// the occupied bounding box.
    pub balanced: bool,
    /// LOD reordering heuristic (§3.4: random or stratified).
    pub lod_order: LodOrder,
}

impl WriterConfig {
    /// Default configuration for a partition factor: aligned, non-adaptive,
    /// paper-default LOD parameters (P = 32, S = 2).
    pub fn new(factor: spio_types::PartitionFactor) -> Self {
        WriterConfig {
            factor,
            lod: LodParams::default(),
            seed: 0x5910_CAFE,
            mode: WriteMode::Aligned,
            adaptive: false,
            balanced: false,
            lod_order: LodOrder::Random,
        }
    }

    pub fn with_lod(mut self, lod: LodParams) -> Self {
        self.lod = lod;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_mode(mut self, mode: WriteMode) -> Self {
        self.mode = mode;
        self
    }

    pub fn adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Enable §7-style weight-rebalanced adaptive aggregation (implies
    /// adaptive mode).
    pub fn balanced(mut self, balanced: bool) -> Self {
        self.balanced = balanced;
        if balanced {
            self.adaptive = true;
        }
        self
    }

    pub fn with_lod_order(mut self, order: LodOrder) -> Self {
        self.lod_order = order;
        self
    }
}

/// The spatially-aware parallel writer. One instance is shared (by clone)
/// across ranks; [`SpatialWriter::write`] is called collectively.
#[derive(Debug, Clone)]
pub struct SpatialWriter {
    decomp: DomainDecomposition,
    config: WriterConfig,
    trace: Trace,
}

impl SpatialWriter {
    pub fn new(decomp: DomainDecomposition, config: WriterConfig) -> Self {
        SpatialWriter {
            decomp,
            config,
            trace: Trace::off(),
        }
    }

    /// Attach a trace sink; the writer will record per-rank phase spans
    /// ([`phases`]) into it. Pass a clone of the job-wide trace so spans
    /// from all ranks merge into one stream.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Collective write: every rank passes its local particles; data files
    /// and the spatial metadata file appear in `storage`.
    pub fn write<C: Comm, S: Storage>(
        &self,
        comm: &C,
        particles: &[Particle],
        storage: &S,
    ) -> Result<WriteStats, SpioError> {
        let mut stats = WriteStats {
            particles_sent: particles.len() as u64,
            ..Default::default()
        };
        let me = comm.rank();
        if comm.size() != self.decomp.nprocs() {
            return Err(SpioError::Config(format!(
                "communicator size {} != decomposition {}",
                comm.size(),
                self.decomp.nprocs()
            )));
        }

        // ---- Step 1-2: aggregation-grid setup + aggregator selection. ----
        let t0 = Instant::now();
        let (grid, global_counts) = self.setup_grid(comm, particles)?;
        stats.setup_time = t0.elapsed();
        self.trace.phase(me, phases::SETUP, stats.setup_time);

        // ---- Steps 3-5: metadata + particle exchange. ----
        let t0 = Instant::now();
        let aggregated = self.exchange(comm, &grid, particles, global_counts.as_deref());
        stats.aggregation_time = t0.elapsed();
        self.trace
            .phase(me, phases::AGGREGATION, stats.aggregation_time);

        // ---- Steps 6-7: LOD order + data file assembly and write. ----
        let my_entry =
            aggregated.and_then(|agg| self.write_partition(me, &grid, agg, storage, &mut stats));

        // ---- Step 8: spatial metadata (gathered on rank 0, §3.5). ----
        let t0 = Instant::now();
        let meta_result = self.write_metadata(comm, &grid, my_entry, storage);
        stats.meta_time = t0.elapsed();
        self.trace.phase(me, phases::META, stats.meta_time);
        meta_result?;
        Ok(stats)
    }

    /// Steps 6-7 on an aggregator (nothing elsewhere): compute the LOD
    /// permutation of the received records, gather them in that order into
    /// the partition's data file, write it, and return its metadata
    /// contribution.
    fn write_partition<S: Storage>(
        &self,
        me: Rank,
        grid: &AggregationGrid,
        aggregated: Option<Aggregated>,
        storage: &S,
        stats: &mut WriteStats,
    ) -> Result<Option<Contribution>, SpioError> {
        let Some((part_idx, messages)) = aggregated else {
            return Ok(None);
        };

        let t0 = Instant::now();
        let records = record_table(&messages)?;
        stats.particles_aggregated = records.len() as u64;
        let seed = partition_seed(self.config.seed, part_idx);
        let bounds = grid.partitions[part_idx].bounds;
        let perm = lod_permutation(self.config.lod_order, &records, &bounds, seed)?;
        stats.shuffle_time = t0.elapsed();
        self.trace.phase(me, phases::SHUFFLE, stats.shuffle_time);

        let t0 = Instant::now();
        let mut header = DataFileHeader::new(records.len() as u64, bounds, seed);
        // OR, don't assign: `new` already set the format-owned bits
        // (CHECKSUMS); the writer only owns the LOD-order bits.
        if self.config.lod_order == LodOrder::Stratified {
            header.flags |= flags::STRATIFIED_ORDER;
        }
        // §3.5 extension: the assembler also returns the scalar ranges of
        // this file so readers can prune attribute range-queries.
        let (bytes, range) = assemble_data_file(&header, &records, &perm)?;
        drop(messages);
        storage.write_file(&data_file_name(me), &bytes)?;
        stats.bytes_written = bytes.len() as u64;
        stats.files_written = 1;
        stats.file_io_time = t0.elapsed();
        self.trace.phase(me, phases::FILE_IO, stats.file_io_time);

        Ok(Some((
            part_idx,
            FileEntry {
                agg_rank: me as u64,
                particle_count: header.particle_count,
                bounds,
            },
            range,
        )))
    }

    /// Gather per-file entries (or local failures), write the metadata file
    /// on rank 0, and broadcast the outcome. Every rank returns `Err` when
    /// any rank failed locally or rank 0's validation or write fails — a
    /// dataset without its metadata file is unreadable, so no rank may
    /// report the write as successful. A failed rank returns its own error.
    fn write_metadata<C: Comm, S: Storage>(
        &self,
        comm: &C,
        grid: &AggregationGrid,
        my_entry: Result<Option<Contribution>, SpioError>,
        storage: &S,
    ) -> Result<(), SpioError> {
        let gathered = comm.allgather(&encode_meta_contribution(&my_entry));
        let outcome = if comm.rank() == 0 {
            let outcome = self.assemble_and_write_meta(grid, &gathered, storage);
            let payload = match &outcome {
                Ok(()) => vec![0u8],
                Err(e) => [[1u8].as_slice(), e.to_string().as_bytes()].concat(),
            };
            comm.broadcast(0, payload);
            outcome
        } else {
            let payload = comm.broadcast(0, Vec::new());
            match payload.split_first() {
                Some((0, _)) => Ok(()),
                Some((_, msg)) => Err(SpioError::Comm(format!(
                    "dataset write failed: {}",
                    String::from_utf8_lossy(msg)
                ))),
                None => Err(SpioError::Comm(
                    "empty metadata-outcome broadcast".to_string(),
                )),
            }
        };
        my_entry.and(outcome)
    }

    /// Rank 0 only: validate the gathered contributions and write the
    /// spatial metadata file. Writes nothing if any rank reported a
    /// failure.
    fn assemble_and_write_meta<S: Storage>(
        &self,
        grid: &AggregationGrid,
        gathered: &[Vec<u8>],
        storage: &S,
    ) -> Result<(), SpioError> {
        let mut entries: Vec<Contribution> = Vec::new();
        for (rank, bytes) in gathered.iter().enumerate() {
            let entry = decode_meta_contribution(bytes)
                .map_err(|msg| SpioError::Comm(format!("rank {rank} failed: {msg}")))?;
            entries.extend(entry);
        }
        entries.sort_by_key(|(part_idx, _, _)| *part_idx);
        if entries.len() != grid.partitions.len() {
            return Err(SpioError::Comm(format!(
                "metadata gather produced {} entries for {} partitions",
                entries.len(),
                grid.partitions.len()
            )));
        }
        let attr_ranges: Vec<AttrRange> = entries.iter().map(|(_, _, r)| *r).collect();
        let entries: Vec<FileEntry> = entries.into_iter().map(|(_, e, _)| e).collect();
        let total_particles = entries.iter().map(|e| e.particle_count).sum();
        let meta = SpatialMetadata {
            domain: self.decomp.bounds,
            writer_grid: self.decomp.dims,
            partition_factor: grid.factor,
            lod: self.config.lod,
            total_particles,
            entries,
            attr_ranges: Some(attr_ranges),
        };
        storage.write_file(META_FILE_NAME, &meta.encode())
    }

    /// Build the aggregation grid; for adaptive mode this performs the §6
    /// extent/count exchange and returns the gathered global counts.
    fn setup_grid<C: Comm>(
        &self,
        comm: &C,
        particles: &[Particle],
    ) -> Result<(AggregationGrid, Option<Vec<u64>>), SpioError> {
        if self.config.adaptive {
            // §6: all-to-all exchange of extents and particle counts. With
            // patch-aligned data the extent is implied by the rank, so the
            // count is the payload.
            let counts_bytes = comm.allgather(&(particles.len() as u64).to_le_bytes());
            let counts: Vec<u64> = counts_bytes
                .iter()
                .map(|b| decode_count(b))
                .collect::<Result<_, _>>()?;
            let grid = if self.config.balanced {
                AdaptiveGrid::build_balanced(&self.decomp, self.config.factor, &counts)?
            } else {
                AdaptiveGrid::build(&self.decomp, self.config.factor, &counts)?
            };
            Ok((grid, Some(counts)))
        } else {
            Ok((
                AggregationGrid::aligned(&self.decomp, self.config.factor)?,
                None,
            ))
        }
    }

    /// Steps 3-5, the §3.3 two-phase exchange, for both [`WriteMode`]s. The
    /// mode decides only the routes (where my particles go) and the senders
    /// (whom my partition hears from). Then every count and data send is
    /// posted, an aggregator receives the counts and then the data in
    /// sender order, and the sends are waited on. Returns `(partition
    /// index, received data messages in sender order)` on aggregators.
    ///
    /// A local fault — including a data message whose length is not its
    /// sender's declared count of records — is returned only after the
    /// exchange has run, so no peer waits on a message this rank never
    /// sent.
    fn exchange<C: Comm>(
        &self,
        comm: &C,
        grid: &AggregationGrid,
        particles: &[Particle],
        global_counts: Option<&[u64]>,
    ) -> Result<Option<Aggregated>, SpioError> {
        let me = comm.rank();
        let my_partition = grid.aggregated_partition(me);
        let (routes, senders, known_counts, mut fault) = match self.config.mode {
            WriteMode::Aligned => {
                // §3.1's fast path: the whole slice goes to my partition's
                // aggregator, with no binning and no copy. With
                // `global_counts` (adaptive mode), the §6 extent/count
                // all-gather already served as the metadata exchange, so
                // count messages are skipped and empty ranks sit out.
                let route = grid
                    .partition_of_rank(me)
                    .map(|p| (grid.partitions[p].agg_rank, Cow::Borrowed(particles)));
                let patch = self.decomp.patch_bounds(me);
                let fault = match particles.iter().find(|p| !patch.contains(p.position)) {
                    Some(bad) => Some(SpioError::Config(format!(
                        "rank {me}: particle {} at {:?} outside its patch {:?} — use WriteMode::General",
                        bad.id, bad.position, patch
                    ))),
                    // The adaptive grid covers every occupied patch, so this
                    // is a logic error.
                    None if route.is_none() && !particles.is_empty() => {
                        Some(SpioError::Config(format!(
                            "rank {me} holds particles but lies outside the aggregation grid"
                        )))
                    }
                    None => None,
                };
                let senders =
                    my_partition.map_or_else(Vec::new, |p| grid.partitions[p].members.clone());
                (Vec::from_iter(route), senders, global_counts, fault)
            }
            WriteMode::General => {
                let (routes, senders, fault) = general_routing(comm, grid, particles, my_partition);
                (routes, senders, None, fault)
            }
        };

        // Post (not complete) my sends: count metadata, then particle data
        // if there is any. Waiting happens after the receive side has
        // drained, preserving the post-all-then-wait MPI structure.
        let mut sends: Vec<spio_comm::SendHandle> = Vec::new();
        for (dest, bundle) in &routes {
            if known_counts.is_none() {
                let count = (bundle.len() as u64).to_le_bytes().to_vec();
                sends.push(comm.isend(*dest, TAG_META, count));
            }
            if !bundle.is_empty() {
                sends.push(comm.isend(*dest, TAG_DATA, encode_particles(bundle)));
            }
        }

        // Receive (senders are empty unless I aggregate): learn each
        // sender's count (known, or from its count message), then receive
        // the particle data in sender order, checking each message against
        // its declared count.
        let counts: Vec<u64> = match known_counts {
            Some(counts) => senders.iter().map(|&s| counts[s]).collect(),
            None => {
                let handles: Vec<spio_comm::RecvHandle> =
                    senders.iter().map(|&s| comm.irecv(s, TAG_META)).collect();
                handles
                    .into_iter()
                    .map(|h| decode_count(&h.wait()?))
                    .collect::<Result<_, _>>()?
            }
        };
        let handles: Vec<(Rank, u64, spio_comm::RecvHandle)> = senders
            .iter()
            .zip(&counts)
            .filter(|&(_, &count)| count > 0)
            .map(|(&s, &count)| (s, count, comm.irecv(s, TAG_DATA)))
            .collect();
        let mut messages = Vec::with_capacity(handles.len());
        for (sender, count, h) in handles {
            let data = h.wait()?;
            if count.checked_mul(PARTICLE_BYTES as u64) != Some(data.len() as u64) {
                fault = fault.or(Some(SpioError::Comm(format!(
                    "rank {sender} declared {count} particles but sent {} bytes",
                    data.len()
                ))));
            }
            messages.push(data);
        }

        // Complete the posted sends (batch wait).
        for s in sends {
            s.wait();
        }
        fault.map_or(Ok(my_partition.map(|p| (p, messages))), Err)
    }
}

/// An aggregator's partition index and the data messages it received, in
/// sender order.
type Aggregated = (usize, Vec<Vec<u8>>);

/// A contribution to the step-8 metadata gather: `(partition index, file
/// entry, scalar ranges)`.
type Contribution = (usize, FileEntry, AttrRange);

/// Prefix of a failed rank's metadata contribution; the error text
/// follows. No partition index (a contribution's first word) reaches
/// `u64::MAX`, and success contributions are empty or 104 bytes.
const FAILED_CONTRIBUTION: [u8; 8] = u64::MAX.to_le_bytes();

/// One exchange route: an aggregator and the particles sent to it.
type Route<'a> = (Rank, Cow<'a, [Particle]>);

/// General routing (§3.3's non-aligned path): ranks declare their particle
/// bounding boxes via an all-gather and bin particles by partition. A rank
/// routes one bundle to every partition its declared box intersects; an
/// aggregator hears from the holding ranks whose declared boxes intersect
/// its partition. Returns the routes, the senders and any local fault.
fn general_routing<'a, C: Comm>(
    comm: &C,
    grid: &AggregationGrid,
    particles: &'a [Particle],
    my_partition: Option<usize>,
) -> (Vec<Route<'a>>, Vec<Rank>, Option<SpioError>) {
    let me = comm.rank();
    // Declared extent: the actual bounding box of my particles (§3.1: "the
    // I/O system can easily compute this information by finding the
    // bounding box of the particles on the process").
    let mut bbox = Aabb3::empty();
    for p in particles {
        bbox.expand_to(p.position);
    }
    let all_declared = comm.allgather(&encode_declared(particles.len() as u64, &bbox));

    let mut fault = None;
    let mut bins: Vec<Vec<Particle>> = vec![Vec::new(); grid.partitions.len()];
    for p in particles {
        match grid.partition_of_point(p.position) {
            Some(part) => bins[part].push(*p),
            None if fault.is_none() => {
                fault = Some(SpioError::Config(format!(
                    "rank {me}: particle {} at {:?} outside the aggregation grid",
                    p.id, p.position
                )))
            }
            None => {}
        }
    }
    // The declared box contains all my particles, so any partition actually
    // receiving data is among those it intersects.
    let routes = grid
        .partitions
        .iter()
        .zip(bins)
        .filter(|(part, _)| declared_intersects(&bbox, &part.bounds))
        .map(|(part, bin)| (part.agg_rank, Cow::Owned(bin)))
        .collect();
    let mut senders = Vec::new();
    if let Some(part_idx) = my_partition {
        let bounds = grid.partitions[part_idx].bounds;
        for (rank, bytes) in all_declared.iter().enumerate() {
            match decode_declared(bytes) {
                Ok((count, rank_box)) if count > 0 && declared_intersects(&rank_box, &bounds) => {
                    senders.push(rank)
                }
                Ok(_) => {}
                Err(e) => fault = fault.or(Some(e)),
            }
        }
    }
    (routes, senders, fault)
}

/// Decode a particle-count message: one little-endian `u64`.
fn decode_count(bytes: &[u8]) -> Result<u64, SpioError> {
    let word = bytes
        .try_into()
        .map_err(|_| SpioError::Comm(format!("bad count message of {} bytes", bytes.len())))?;
    Ok(u64::from_le_bytes(word))
}

/// Intersection test between a particle bounding box (closed, from
/// `expand_to`) and a half-open partition box: treat the particle box's hi
/// face as inclusive.
fn declared_intersects(particle_box: &Aabb3, partition: &Aabb3) -> bool {
    if particle_box.lo[0] > particle_box.hi[0] {
        return false; // empty declared box
    }
    (0..3).all(|a| particle_box.lo[a] < partition.hi[a] && partition.lo[a] <= particle_box.hi[a])
}

fn encode_declared(count: u64, bbox: &Aabb3) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 48);
    out.extend_from_slice(&count.to_le_bytes());
    for v in bbox.lo.iter().chain(&bbox.hi) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_declared(bytes: &[u8]) -> Result<(u64, Aabb3), SpioError> {
    if bytes.len() != 56 {
        return Err(SpioError::Comm("bad declared-extent message".into()));
    }
    Ok((u64_at(bytes, 0)?, aabb_at(bytes, 8)?))
}

/// Encode a rank's contribution to the metadata gather: empty for
/// non-aggregators, `(partition_index, entry, scalar ranges)` for
/// aggregators, [`FAILED_CONTRIBUTION`] and the error text for a rank that
/// failed locally.
fn encode_meta_contribution(entry: &Result<Option<Contribution>, SpioError>) -> Vec<u8> {
    match entry {
        Err(e) => [FAILED_CONTRIBUTION.as_slice(), e.to_string().as_bytes()].concat(),
        Ok(None) => Vec::new(),
        Ok(Some((part_idx, e, r))) => {
            let mut out = Vec::with_capacity(8 + 8 + 8 + 48 + 32);
            out.extend_from_slice(&(*part_idx as u64).to_le_bytes());
            out.extend_from_slice(&e.agg_rank.to_le_bytes());
            out.extend_from_slice(&e.particle_count.to_le_bytes());
            for v in e.bounds.lo.iter().chain(&e.bounds.hi) {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for v in [r.density_min, r.density_max, r.volume_min, r.volume_max] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out
        }
    }
}

/// Decode one gathered contribution; `Err` carries a failed rank's error
/// text, and a malformed contribution decodes as none.
fn decode_meta_contribution(bytes: &[u8]) -> Result<Option<Contribution>, String> {
    if let Some(msg) = bytes.strip_prefix(FAILED_CONTRIBUTION.as_slice()) {
        return Err(String::from_utf8_lossy(msg).into_owned());
    }
    if bytes.len() != 104 {
        return Ok(None);
    }
    let decode = || -> Result<_, SpioError> {
        Ok((
            u64_at(bytes, 0)? as usize,
            FileEntry {
                agg_rank: u64_at(bytes, 8)?,
                particle_count: u64_at(bytes, 16)?,
                bounds: aabb_at(bytes, 24)?,
            },
            AttrRange {
                density_min: f64_at(bytes, 72)?,
                density_max: f64_at(bytes, 80)?,
                volume_min: f64_at(bytes, 88)?,
                volume_max: f64_at(bytes, 96)?,
            },
        ))
    };
    Ok(decode().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use spio_comm::run_threaded_collect;
    use spio_format::data_file::decode_data_file;
    use spio_types::{GridDims, PartitionFactor};

    fn decomp(nx: usize, ny: usize, nz: usize) -> DomainDecomposition {
        DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(nx, ny, nz))
    }

    fn write_job(
        decomp: DomainDecomposition,
        config: WriterConfig,
        per_rank: usize,
    ) -> (MemStorage, Vec<WriteStats>) {
        let storage = MemStorage::new();
        let s2 = storage.clone();
        let n = decomp.nprocs();
        let stats = run_threaded_collect(n, move |comm| {
            let particles = spio_workloads_shim::uniform(&decomp, comm.rank(), per_rank, 77);
            let writer = SpatialWriter::new(decomp.clone(), config.clone());
            writer.write(&comm, &particles, &s2).unwrap()
        })
        .unwrap();
        (storage, stats)
    }

    /// Minimal local generator to avoid a dev-dependency cycle with
    /// spio-workloads (which depends on spio-types only, but keeping core's
    /// tests self-contained is simpler).
    mod spio_workloads_shim {
        use spio_types::{DomainDecomposition, Particle, Rank};

        pub fn uniform(
            decomp: &DomainDecomposition,
            rank: Rank,
            count: usize,
            seed: u64,
        ) -> Vec<Particle> {
            let b = decomp.patch_bounds(rank);
            let e = b.extent();
            // Low-discrepancy fill: deterministic, stays inside the patch.
            (0..count)
                .map(|i| {
                    let t = (i as f64 + 0.5) / count as f64;
                    let u = ((i as u64).wrapping_mul(seed | 1) % 1000) as f64 / 1000.0;
                    let v = ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0;
                    let pos = [
                        b.lo[0] + t * e[0] * 0.999,
                        b.lo[1] + u * e[1] * 0.999,
                        b.lo[2] + v * e[2] * 0.999,
                    ];
                    Particle::synthetic(pos, ((rank as u64) << 32) | i as u64)
                })
                .collect()
        }
    }

    #[test]
    fn aligned_write_produces_expected_files() {
        let d = decomp(4, 4, 1);
        let config = WriterConfig::new(PartitionFactor::new(2, 2, 1));
        let (storage, stats) = write_job(d, config, 50);
        let names = storage.file_names();
        // 4 data files from aggregators 0, 4, 8, 12 plus the metadata file.
        assert_eq!(
            names,
            vec![
                "file_0.spd",
                "file_12.spd",
                "file_4.spd",
                "file_8.spd",
                META_FILE_NAME
            ]
        );
        let total_written: u32 = stats.iter().map(|s| s.files_written).sum();
        assert_eq!(total_written, 4);
        let total_aggregated: u64 = stats.iter().map(|s| s.particles_aggregated).sum();
        assert_eq!(total_aggregated, 16 * 50);
    }

    #[test]
    fn data_files_contain_only_partition_particles() {
        let d = decomp(4, 4, 1);
        let config = WriterConfig::new(PartitionFactor::new(2, 2, 1));
        let (storage, _) = write_job(d.clone(), config, 40);
        let meta = SpatialMetadata::decode(&storage.read_file(META_FILE_NAME).unwrap()).unwrap();
        meta.validate_disjoint().unwrap();
        assert_eq!(meta.total_particles, 16 * 40);
        for entry in &meta.entries {
            let bytes = storage.read_file(&entry.file_name()).unwrap();
            let (header, particles) = decode_data_file(&bytes).unwrap();
            assert_eq!(header.particle_count, entry.particle_count);
            assert_eq!(header.bounds, entry.bounds);
            assert!(
                particles.iter().all(|p| entry.bounds.contains(p.position)),
                "particles must lie inside their file's box"
            );
        }
    }

    #[test]
    fn no_particle_lost_or_duplicated() {
        let d = decomp(2, 2, 2);
        let config = WriterConfig::new(PartitionFactor::new(2, 1, 1));
        let (storage, _) = write_job(d, config, 30);
        let meta = SpatialMetadata::decode(&storage.read_file(META_FILE_NAME).unwrap()).unwrap();
        let mut ids = Vec::new();
        for entry in &meta.entries {
            let (_, ps) =
                decode_data_file(&storage.read_file(&entry.file_name()).unwrap()).unwrap();
            ids.extend(ps.iter().map(|p| p.id));
        }
        ids.sort_unstable();
        let expected: Vec<u64> = (0..8u64)
            .flat_map(|r| (0..30u64).map(move |i| (r << 32) | i))
            .collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn file_payload_is_lod_shuffled_with_header_seed() {
        let d = decomp(4, 4, 1);
        let config = WriterConfig::new(PartitionFactor::new(2, 2, 1)).with_seed(123);
        let (storage, _) = write_job(d, config, 100);
        let (header, particles) =
            decode_data_file(&storage.read_file("file_0.spd").unwrap()).unwrap();
        assert_eq!(header.shuffle_seed, partition_seed(123, 0));
        // Undo the permutation: the result must be sorted by (sender rank,
        // local index) i.e. by id within sender groups, since senders are
        // concatenated in rank order before shuffling.
        let perm =
            crate::shuffle::shuffle_permutation(particles.len(), header.shuffle_seed).unwrap();
        let mut unshuffled = vec![None; particles.len()];
        for (new_idx, &old_idx) in perm.iter().enumerate() {
            unshuffled[old_idx as usize] = Some(particles[new_idx]);
        }
        let ids: Vec<u64> = unshuffled.iter().map(|p| p.unwrap().id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "pre-shuffle buffer is sender-rank ordered");
    }

    #[test]
    fn file_per_process_and_shared_file_extremes() {
        let d = decomp(2, 2, 1);
        // (1,1,1): file per process.
        let (storage, _) = write_job(
            d.clone(),
            WriterConfig::new(PartitionFactor::new(1, 1, 1)),
            10,
        );
        assert_eq!(storage.file_names().len(), 4 + 1);
        // Whole-domain factor: single shared file.
        let (storage, _) = write_job(d, WriterConfig::new(PartitionFactor::new(2, 2, 1)), 10);
        assert_eq!(storage.file_names(), vec!["file_0.spd", META_FILE_NAME]);
        let meta = SpatialMetadata::decode(&storage.read_file(META_FILE_NAME).unwrap()).unwrap();
        assert_eq!(meta.entries.len(), 1);
        assert_eq!(meta.total_particles, 40);
    }

    #[test]
    fn aligned_mode_rejects_stray_particles() {
        // A rank holding a particle inside another rank's patch fails
        // locally, yet still completes the exchange and the metadata
        // gather, so every rank returns the error: first with both ranks
        // holding a stray, then with rank 1 alone.
        for stray_ranks in [vec![0, 1], vec![1]] {
            let storage = MemStorage::new();
            let results = run_threaded_collect(2, move |comm| {
                // x = [0.1, 0.9][r] lies in rank r's patch; a stray rank
                // takes the other rank's.
                let me = comm.rank();
                let x = [0.1, 0.9][me ^ usize::from(stray_ranks.contains(&me))];
                let p = Particle::synthetic([x, 0.5, 0.5], me as u64);
                let writer = SpatialWriter::new(
                    decomp(2, 1, 1),
                    WriterConfig::new(PartitionFactor::new(1, 1, 1)),
                );
                writer.write(&comm, &[p], &storage.clone()).map(|_| ())
            })
            .unwrap();
            for res in &results {
                let msg = format!("{}", res.as_ref().unwrap_err());
                assert!(msg.contains("WriteMode::General"), "got: {msg}");
            }
        }
    }

    #[test]
    fn general_mode_handles_stray_particles() {
        let d = decomp(2, 2, 1);
        let storage = MemStorage::new();
        let s2 = storage.clone();
        let dd = d.clone();
        run_threaded_collect(4, move |comm| {
            // Every rank generates particles spread over the WHOLE domain.
            let me = comm.rank();
            let particles: Vec<Particle> = (0..40)
                .map(|i| {
                    let t = (i as f64 + 0.5) / 40.0;
                    Particle::synthetic(
                        [t * 0.999, ((i * 7 + me) % 40) as f64 / 40.0, 0.5],
                        ((me as u64) << 32) | i as u64,
                    )
                })
                .collect();
            let writer = SpatialWriter::new(
                dd.clone(),
                WriterConfig::new(PartitionFactor::new(1, 2, 1)).with_mode(WriteMode::General),
            );
            writer.write(&comm, &particles, &s2).unwrap();
        })
        .unwrap();
        let meta = SpatialMetadata::decode(&storage.read_file(META_FILE_NAME).unwrap()).unwrap();
        assert_eq!(meta.total_particles, 4 * 40);
        meta.validate_disjoint().unwrap();
        // Every particle must be in the file whose box contains it.
        for entry in &meta.entries {
            let (_, ps) =
                decode_data_file(&storage.read_file(&entry.file_name()).unwrap()).unwrap();
            assert_eq!(ps.len() as u64, entry.particle_count);
            assert!(ps.iter().all(|p| entry.bounds.contains(p.position)));
        }
    }

    #[test]
    fn adaptive_mode_skips_empty_regions() {
        let d = decomp(4, 1, 1);
        let storage = MemStorage::new();
        let s2 = storage.clone();
        let dd = d.clone();
        run_threaded_collect(4, move |comm| {
            let me = comm.rank();
            // Only ranks 0 and 1 (x < 0.5) hold particles.
            let particles = if me < 2 {
                spio_workloads_shim::uniform(&dd, me, 25, 3)
            } else {
                Vec::new()
            };
            let writer = SpatialWriter::new(
                dd.clone(),
                WriterConfig::new(PartitionFactor::new(2, 1, 1)).adaptive(true),
            );
            writer.write(&comm, &particles, &s2).unwrap();
        })
        .unwrap();
        let meta = SpatialMetadata::decode(&storage.read_file(META_FILE_NAME).unwrap()).unwrap();
        // One partition over the two occupied patches — not two partitions.
        assert_eq!(meta.entries.len(), 1);
        assert_eq!(meta.total_particles, 50);
        // The file box covers only the occupied half.
        assert!(meta.entries[0].bounds.hi[0] <= 0.5 + 1e-12);
    }

    #[test]
    fn stratified_order_writes_valid_dataset() {
        let d = decomp(4, 4, 1);
        let storage = MemStorage::new();
        let s2 = storage.clone();
        run_threaded_collect(16, move |comm| {
            let particles = spio_workloads_shim::uniform(&d, comm.rank(), 60, 4);
            let writer = SpatialWriter::new(
                d.clone(),
                WriterConfig::new(PartitionFactor::new(2, 2, 1))
                    .with_lod_order(LodOrder::Stratified),
            );
            writer.write(&comm, &particles, &s2).unwrap();
        })
        .unwrap();
        let meta = SpatialMetadata::decode(&storage.read_file(META_FILE_NAME).unwrap()).unwrap();
        assert_eq!(meta.total_particles, 16 * 60);
        for entry in &meta.entries {
            let bytes = storage.read_file(&entry.file_name()).unwrap();
            let (header, ps) = decode_data_file(&bytes).unwrap();
            assert_ne!(header.flags & flags::STRATIFIED_ORDER, 0);
            assert!(header.has_checksums(), "v2 writes are checksummed");
            assert_eq!(ps.len() as u64, entry.particle_count);
            assert!(ps.iter().all(|p| entry.bounds.contains(p.position)));
        }
    }

    #[test]
    fn balanced_adaptive_write_roundtrips_skewed_load() {
        let d = decomp(4, 4, 1);
        let storage = MemStorage::new();
        let s2 = storage.clone();
        run_threaded_collect(16, move |comm| {
            // Left column of patches holds 10x the particles.
            let me = comm.rank();
            let count = if d.patch_coords(me)[0] == 0 { 200 } else { 20 };
            let particles = spio_workloads_shim::uniform(&d, me, count, 6);
            let writer = SpatialWriter::new(
                d.clone(),
                WriterConfig::new(PartitionFactor::new(2, 2, 1)).balanced(true),
            );
            writer.write(&comm, &particles, &s2).unwrap();
        })
        .unwrap();
        let meta = SpatialMetadata::decode(&storage.read_file(META_FILE_NAME).unwrap()).unwrap();
        meta.validate_disjoint().unwrap();
        assert_eq!(meta.total_particles, 4 * 200 + 12 * 20);
        // Rebalancing: the heaviest file must hold well under the bbox
        // grid's worst case (which would put 2 heavy patches + 2 light in
        // one partition: 440 of 1040).
        let max_file = meta.entries.iter().map(|e| e.particle_count).max().unwrap();
        assert!(max_file < 440, "balanced max file {max_file}");
        // Everything reads back.
        for entry in &meta.entries {
            let bytes = storage.read_file(&entry.file_name()).unwrap();
            let (_, ps) = decode_data_file(&bytes).unwrap();
            assert!(ps.iter().all(|p| entry.bounds.contains(p.position)));
        }
    }

    /// Delivers rank 1's particle data `delta` bytes longer or shorter
    /// than its count message declares.
    struct MisCount<C> {
        inner: C,
        delta: isize,
    }

    impl<C: Comm> Comm for MisCount<C> {
        fn rank(&self) -> Rank {
            self.inner.rank()
        }
        fn size(&self) -> usize {
            self.inner.size()
        }
        fn isend(&self, dest: Rank, tag: Tag, mut data: Vec<u8>) -> spio_comm::SendHandle {
            if tag == TAG_DATA && self.rank() == 1 {
                data.resize(data.len().checked_add_signed(self.delta).unwrap(), 0);
            }
            self.inner.isend(dest, tag, data)
        }
        fn irecv(&self, src: Rank, tag: Tag) -> spio_comm::RecvHandle {
            self.inner.irecv(src, tag)
        }
        fn barrier(&self) {
            self.inner.barrier()
        }
        fn allgather(&self, data: &[u8]) -> Vec<Vec<u8>> {
            self.inner.allgather(data)
        }
        fn alltoall(&self, sends: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
            self.inner.alltoall(sends)
        }
        fn gather_to(&self, root: Rank, data: &[u8]) -> Option<Vec<Vec<u8>>> {
            self.inner.gather_to(root, data)
        }
        fn broadcast(&self, root: Rank, data: Vec<u8>) -> Vec<u8> {
            self.inner.broadcast(root, data)
        }
    }

    #[test]
    fn data_message_disagreeing_with_its_count_fails_every_rank() {
        // A short message, a long one, and one that ends mid-record: the
        // aggregator (rank 0) reports a comm error instead of writing a
        // wrong file or panicking, and the step-8 gather carries it to the
        // sender too.
        let short_record = -(PARTICLE_BYTES as isize);
        for delta in [short_record, PARTICLE_BYTES as isize, -1] {
            let storage = MemStorage::new();
            let s2 = storage.clone();
            let results = run_threaded_collect(2, move |comm| {
                let d = decomp(2, 1, 1);
                let particles = spio_workloads_shim::uniform(&d, comm.rank(), 10, 3);
                let comm = MisCount { inner: comm, delta };
                SpatialWriter::new(d, WriterConfig::new(PartitionFactor::new(2, 1, 1)))
                    .write(&comm, &particles, &s2)
                    .map(|_| ())
            })
            .unwrap();
            for (rank, res) in results.iter().enumerate() {
                let err = res
                    .as_ref()
                    .expect_err("a mis-sized message must fail the write");
                assert!(matches!(err, SpioError::Comm(_)), "rank {rank}: {err}");
                assert!(
                    err.to_string().contains("rank 1 declared 10 particles"),
                    "rank {rank} got: {err}"
                );
            }
            assert!(
                storage.file_names().is_empty(),
                "delta {delta}: nothing may be written"
            );
        }
    }

    #[test]
    fn wrong_world_size_is_reported() {
        let storage = MemStorage::new();
        let res = run_threaded_collect(2, move |comm| {
            let writer = SpatialWriter::new(
                decomp(4, 1, 1), // needs 4 ranks
                WriterConfig::new(PartitionFactor::new(1, 1, 1)),
            );
            writer.write(&comm, &[], &storage.clone()).map(|_| ())
        })
        .unwrap();
        assert!(res.iter().all(|r| r.is_err()));
    }

    #[test]
    fn meta_write_failure_reaches_every_rank() {
        use crate::{ChaosConfig, ChaosStorage};
        // Storage that accepts data files but refuses the metadata file —
        // models rank 0 hitting a full or failed filesystem at the last
        // step.
        let storage = ChaosStorage::new(MemStorage::new(), ChaosConfig::default());
        storage.poison(META_FILE_NAME);
        let results = run_threaded_collect(4, move |comm| {
            let d = decomp(2, 2, 1);
            let particles = spio_workloads_shim::uniform(&d, comm.rank(), 10, 5);
            let writer = SpatialWriter::new(d, WriterConfig::new(PartitionFactor::new(1, 1, 1)));
            writer
                .write(&comm, &particles, &storage.clone())
                .map(|_| ())
        })
        .unwrap();
        // EVERY rank must see the failure, not just rank 0 — a dataset
        // without its metadata file is unreadable.
        for (rank, res) in results.iter().enumerate() {
            let err = res.as_ref().expect_err("rank must report meta failure");
            assert!(
                err.to_string().contains("injected persistent fault"),
                "rank {rank} got: {err}"
            );
        }
    }

    #[test]
    fn traced_write_records_phases_matching_stats() {
        let d = decomp(2, 2, 1);
        let storage = MemStorage::new();
        let trace = Trace::collecting();
        let t2 = trace.clone();
        let s2 = storage.clone();
        let stats = run_threaded_collect(4, move |comm| {
            let particles = spio_workloads_shim::uniform(&d, comm.rank(), 50, 9);
            let writer =
                SpatialWriter::new(d.clone(), WriterConfig::new(PartitionFactor::new(2, 2, 1)))
                    .with_trace(t2.clone());
            writer.write(&comm, &particles, &s2).unwrap()
        })
        .unwrap();
        let report = spio_trace::JobReport::from_snapshot(4, &trace.snapshot());
        // Phase totals derive from the same Instant reads as WriteStats, so
        // the max-over-ranks must agree exactly (to microsecond rounding).
        let merged = WriteStats::merge_max(&stats);
        for (phase, expect) in [
            (phases::SETUP, merged.setup_time),
            (phases::AGGREGATION, merged.aggregation_time),
            (phases::SHUFFLE, merged.shuffle_time),
            (phases::FILE_IO, merged.file_io_time),
            (phases::META, merged.meta_time),
        ] {
            let got = report.phase_max(phase).as_micros() as u64;
            let want = expect.as_micros() as u64;
            assert!(
                got.abs_diff(want) <= 1,
                "phase {phase}: trace {got}µs vs stats {want}µs"
            );
        }
    }
}
