//! The spatially-aware two-phase write path (§3).
//!
//! Steps, mirroring the paper's enumeration:
//!
//! 1. set up the aggregation-grid (§3.1) — static, or adaptive (§6);
//! 2. select aggregators uniformly in rank space (§3.2);
//! 3. exchange metadata — particle counts (and, for the adaptive and
//!    general paths, spatial extents) so aggregators can size their
//!    receive buffers (§3.3);
//! 4. allocate aggregation buffers;
//! 5. exchange particles with non-blocking point-to-point messages (§3.3);
//! 6. reshuffle each aggregated buffer into level-of-detail order (§3.4);
//! 7. write one data file per partition (§3.4);
//! 8. gather per-file bounding boxes and write the spatial metadata file on
//!    rank 0 (§3.5), then broadcast the outcome so no rank reports success
//!    for a dataset whose metadata never landed.
//!
//! Sends follow the MPI structure the paper assumes: each exchange posts
//! *all* of its non-blocking sends first and only then waits on the batch,
//! so a real-MPI port gets genuine send/receive overlap instead of
//! serialized rendezvous.
//!
//! When a [`spio_trace::Trace`] is attached ([`SpatialWriter::with_trace`]),
//! the writer records one phase span per step from the *same* clock
//! measurements that feed [`WriteStats`], so trace-derived breakdowns agree
//! with the stats by construction.

use crate::adaptive::AdaptiveGrid;
use crate::grid::AggregationGrid;
use crate::shuffle::{lod_shuffle, lod_shuffle_parallel, lod_stratify, partition_seed, LodOrder};
use crate::stats::WriteStats;
use crate::storage::Storage;
use spio_comm::{Comm, Tag};
use spio_format::data_file::{encode_data_file, DataFileHeader};
use spio_format::meta::AttrRange;
use spio_format::{data_file_name, FileEntry, LodParams, SpatialMetadata, META_FILE_NAME};
use spio_trace::Trace;
use spio_types::le::{aabb_at, f64_at, u64_at};
use spio_types::{Aabb3, DomainDecomposition, Particle, Rank, SpioError};
use std::time::Instant;

/// Data-file header flag bits recording which LOD ordering produced the
/// layout (any ordering still makes prefixes valid subsamples; the flags
/// let verification tooling know which permutation to reconstruct).
pub mod flags {
    /// Payload is in stratified (round-robin-over-cells) order.
    pub const STRATIFIED_ORDER: u32 = 1;
    /// Payload was permuted by the keyed parallel shuffle, not Fisher–Yates.
    pub const KEYED_SHUFFLE: u32 = 2;
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
    /// Use the threaded keyed shuffle instead of serial Fisher–Yates
    /// (only meaningful for [`LodOrder::Random`]).
    pub parallel_shuffle: bool,
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
            parallel_shuffle: false,
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

    pub fn with_parallel_shuffle(mut self, parallel: bool) -> Self {
        self.parallel_shuffle = parallel;
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

    pub fn config(&self) -> &WriterConfig {
        &self.config
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
        let aggregated = match self.config.mode {
            WriteMode::Aligned => {
                self.exchange_aligned(comm, &grid, particles, global_counts.as_deref())?
            }
            WriteMode::General => self.exchange_general(comm, &grid, particles)?,
        };
        stats.aggregation_time = t0.elapsed();
        self.trace
            .phase(me, phases::AGGREGATION, stats.aggregation_time);

        // ---- Steps 6-7: LOD shuffle + data file write. ----
        let my_partition = grid.aggregated_partition(me);
        let mut my_entry: Option<(usize, FileEntry, AttrRange)> = None;
        if let Some(part_idx) = my_partition {
            let mut buffer = aggregated.ok_or_else(|| {
                SpioError::Comm(format!("aggregator rank {me} received no particle buffer"))
            })?;
            stats.particles_aggregated = buffer.len() as u64;

            let t0 = Instant::now();
            let seed = partition_seed(self.config.seed, part_idx);
            let bounds = grid.partitions[part_idx].bounds;
            let mut file_flags = 0u32;
            match (self.config.lod_order, self.config.parallel_shuffle) {
                (LodOrder::Stratified, _) => {
                    lod_stratify(&mut buffer, &bounds, seed);
                    file_flags |= flags::STRATIFIED_ORDER;
                }
                (LodOrder::Random, true) => {
                    lod_shuffle_parallel(&mut buffer, seed);
                    file_flags |= flags::KEYED_SHUFFLE;
                }
                (LodOrder::Random, false) => lod_shuffle(&mut buffer, seed),
            }
            stats.shuffle_time = t0.elapsed();
            self.trace.phase(me, phases::SHUFFLE, stats.shuffle_time);

            // §3.5 extension: record the scalar ranges of this file so
            // readers can prune attribute range-queries.
            let mut range = AttrRange::empty();
            for p in &buffer {
                range.include(p.density, p.volume);
            }

            let t0 = Instant::now();
            let mut header = DataFileHeader::new(buffer.len() as u64, bounds, seed);
            // OR, don't assign: `new` already set the format-owned bits
            // (CHECKSUMS); the writer only owns the LOD-order bits.
            header.flags |= file_flags;
            let bytes = encode_data_file(&header, &buffer);
            storage.write_file(&data_file_name(me), &bytes)?;
            stats.bytes_written = bytes.len() as u64;
            stats.files_written = 1;
            stats.file_io_time = t0.elapsed();
            self.trace.phase(me, phases::FILE_IO, stats.file_io_time);

            my_entry = Some((
                part_idx,
                FileEntry {
                    agg_rank: me as u64,
                    particle_count: buffer.len() as u64,
                    bounds,
                },
                range,
            ));
        }

        // ---- Step 8: spatial metadata (gathered on rank 0, §3.5). ----
        let t0 = Instant::now();
        let meta_result = self.write_metadata(comm, &grid, &my_entry, storage);
        stats.meta_time = t0.elapsed();
        self.trace.phase(me, phases::META, stats.meta_time);
        meta_result?;
        Ok(stats)
    }

    /// Gather per-file entries, write the metadata file on rank 0, and
    /// broadcast the outcome. Every rank returns `Err` when rank 0's
    /// validation or write fails — a dataset without its metadata file is
    /// unreadable, so no rank may report the write as successful.
    fn write_metadata<C: Comm, S: Storage>(
        &self,
        comm: &C,
        grid: &AggregationGrid,
        my_entry: &Option<(usize, FileEntry, AttrRange)>,
        storage: &S,
    ) -> Result<(), SpioError> {
        let me = comm.rank();
        let mine = encode_meta_contribution(my_entry);
        let gathered = comm.allgather(&mine);
        if me == 0 {
            let outcome = self.assemble_and_write_meta(grid, &gathered, storage);
            let payload = match &outcome {
                Ok(()) => vec![0u8],
                Err(e) => {
                    let mut p = vec![1u8];
                    p.extend_from_slice(e.to_string().as_bytes());
                    p
                }
            };
            comm.broadcast(0, payload);
            outcome
        } else {
            let payload = comm.broadcast(0, Vec::new());
            match payload.split_first() {
                Some((0, _)) => Ok(()),
                Some((_, msg)) => Err(SpioError::Comm(format!(
                    "metadata write failed on rank 0: {}",
                    String::from_utf8_lossy(msg)
                ))),
                None => Err(SpioError::Comm(
                    "empty metadata-outcome broadcast".to_string(),
                )),
            }
        }
    }

    /// Rank 0 only: validate the gathered contributions and write the
    /// spatial metadata file.
    fn assemble_and_write_meta<S: Storage>(
        &self,
        grid: &AggregationGrid,
        gathered: &[Vec<u8>],
        storage: &S,
    ) -> Result<(), SpioError> {
        let mut entries: Vec<(usize, FileEntry, AttrRange)> = gathered
            .iter()
            .filter_map(|b| decode_meta_contribution(b))
            .collect();
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
                .map(|b| {
                    b.as_slice()
                        .try_into()
                        .map(u64::from_le_bytes)
                        .map_err(|_| SpioError::Comm("bad count in extent exchange".into()))
                })
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

    /// Aligned exchange: every rank sends its whole buffer to the single
    /// aggregator owning its patch's partition. Returns the aggregation
    /// buffer if this rank is an aggregator.
    ///
    /// With `global_counts` present (adaptive mode), the §6 extent/count
    /// all-gather already served as the metadata exchange, so per-rank
    /// count messages are skipped and empty ranks do not participate.
    fn exchange_aligned<C: Comm>(
        &self,
        comm: &C,
        grid: &AggregationGrid,
        particles: &[Particle],
        global_counts: Option<&[u64]>,
    ) -> Result<Option<Vec<Particle>>, SpioError> {
        let me = comm.rank();
        let patch = self.decomp.patch_bounds(me);
        if let Some(bad) = particles.iter().find(|p| !patch.contains(p.position)) {
            return Err(SpioError::Config(format!(
                "rank {me}: particle {} at {:?} outside its patch {:?} — use WriteMode::General",
                bad.id, bad.position, patch
            )));
        }

        // Post (not complete) my sends: count metadata then particle data,
        // both to my partition's aggregator. Waiting happens after the
        // receive side has drained, preserving the post-all-then-wait MPI
        // structure.
        let mut sends: Vec<spio_comm::SendHandle> = Vec::new();
        let my_partition = grid.partition_of_rank(me);
        match (my_partition, particles.is_empty()) {
            (Some(part_idx), _) => {
                let dest = grid.partitions[part_idx].agg_rank;
                if global_counts.is_none() {
                    sends.push(comm.isend(
                        dest,
                        TAG_META,
                        (particles.len() as u64).to_le_bytes().to_vec(),
                    ));
                }
                if !particles.is_empty() {
                    sends.push(comm.isend(
                        dest,
                        TAG_DATA,
                        spio_types::particle::encode_particles(particles),
                    ));
                }
            }
            (None, false) => {
                // Outside an adaptive grid yet holding particles — the grid
                // covers all occupied patches, so this is a logic error.
                return Err(SpioError::Config(format!(
                    "rank {me} holds particles but lies outside the aggregation grid"
                )));
            }
            (None, true) => {} // §6: empty ranks sit out.
        }

        // Receive if I am an aggregator.
        let buffer = if let Some(part_idx) = grid.aggregated_partition(me) {
            let part = &grid.partitions[part_idx];
            // Metadata phase: learn how many particles each member sends.
            let sender_counts: Vec<(Rank, u64)> = if let Some(counts) = global_counts {
                part.members.iter().map(|&m| (m, counts[m])).collect()
            } else {
                let handles: Vec<(Rank, spio_comm::RecvHandle)> = part
                    .members
                    .iter()
                    .map(|&m| (m, comm.irecv(m, TAG_META)))
                    .collect();
                handles
                    .into_iter()
                    .map(|(m, h)| {
                        let b = h.wait()?;
                        let count = b
                            .as_slice()
                            .try_into()
                            .map(u64::from_le_bytes)
                            .map_err(|_| SpioError::Comm("bad metadata message".into()))?;
                        Ok((m, count))
                    })
                    .collect::<Result<_, SpioError>>()?
            };
            // Allocate the aggregation buffer now that sizes are known
            // (§3.3 step 4), then run the particle exchange.
            let total: u64 = sender_counts.iter().map(|&(_, c)| c).sum();
            let mut buffer = Vec::with_capacity(total as usize);
            let handles: Vec<spio_comm::RecvHandle> = sender_counts
                .iter()
                .filter(|&&(_, c)| c > 0)
                .map(|&(m, _)| comm.irecv(m, TAG_DATA))
                .collect();
            for h in handles {
                let bytes = h.wait()?;
                buffer.extend(spio_types::particle::decode_particles(&bytes)?);
            }
            Some(buffer)
        } else {
            None
        };

        // Complete the posted sends (batch wait).
        for s in sends {
            s.wait();
        }
        Ok(buffer)
    }

    /// General exchange: ranks declare their particle bounding boxes via an
    /// all-gather, bin particles by partition, and send one bundle per
    /// intersected partition (§3.3's non-aligned path).
    fn exchange_general<C: Comm>(
        &self,
        comm: &C,
        grid: &AggregationGrid,
        particles: &[Particle],
    ) -> Result<Option<Vec<Particle>>, SpioError> {
        let me = comm.rank();
        // Declared extent: the actual bounding box of my particles (§3.1:
        // "the I/O system can easily compute this information by finding
        // the bounding box of the particles on the process").
        let mut bbox = Aabb3::empty();
        for p in particles {
            bbox.expand_to(p.position);
        }
        let declared = encode_declared(particles.len() as u64, &bbox);
        let all_declared = comm.allgather(&declared);

        // Bin my particles by partition.
        let npart = grid.partitions.len();
        let mut bins: Vec<Vec<Particle>> = vec![Vec::new(); npart];
        for p in particles {
            let part = grid.partition_of_point(p.position).ok_or_else(|| {
                SpioError::Config(format!(
                    "rank {me}: particle {} at {:?} outside the aggregation grid",
                    p.id, p.position
                ))
            })?;
            bins[part].push(*p);
        }

        // Post metadata + data sends to every partition my declared box
        // intersects (the box contains all my particles, so any partition
        // actually receiving data is in this set). All sends are posted
        // before any is waited on.
        let mut sends: Vec<spio_comm::SendHandle> = Vec::new();
        if !particles.is_empty() {
            for (part_idx, part) in grid.partitions.iter().enumerate() {
                if !declared_intersects(&bbox, &part.bounds) {
                    continue;
                }
                let bin = &bins[part_idx];
                sends.push(comm.isend(
                    part.agg_rank,
                    TAG_META,
                    (bin.len() as u64).to_le_bytes().to_vec(),
                ));
                if !bin.is_empty() {
                    sends.push(comm.isend(
                        part.agg_rank,
                        TAG_DATA,
                        spio_types::particle::encode_particles(bin),
                    ));
                }
            }
        }

        // Receive if I am an aggregator: expected senders are ranks whose
        // declared boxes intersect my partition and that hold particles.
        let buffer = if let Some(part_idx) = grid.aggregated_partition(me) {
            let bounds = grid.partitions[part_idx].bounds;
            let mut senders: Vec<Rank> = Vec::new();
            for (rank, bytes) in all_declared.iter().enumerate() {
                let (count, rank_box) = decode_declared(bytes)?;
                if count > 0 && declared_intersects(&rank_box, &bounds) {
                    senders.push(rank);
                }
            }
            let meta_handles: Vec<(Rank, spio_comm::RecvHandle)> = senders
                .iter()
                .map(|&s| (s, comm.irecv(s, TAG_META)))
                .collect();
            let mut data_senders = Vec::new();
            let mut total: u64 = 0;
            for (s, h) in meta_handles {
                let b = h.wait()?;
                let count = b
                    .as_slice()
                    .try_into()
                    .map(u64::from_le_bytes)
                    .map_err(|_| SpioError::Comm("bad metadata message".into()))?;
                if count > 0 {
                    data_senders.push(s);
                    total += count;
                }
            }
            let mut buffer = Vec::with_capacity(total as usize);
            let handles: Vec<spio_comm::RecvHandle> = data_senders
                .iter()
                .map(|&s| comm.irecv(s, TAG_DATA))
                .collect();
            for h in handles {
                buffer.extend(spio_types::particle::decode_particles(&h.wait()?)?);
            }
            Some(buffer)
        } else {
            None
        };

        // Complete the posted sends (batch wait).
        for s in sends {
            s.wait();
        }
        Ok(buffer)
    }
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
/// aggregators.
fn encode_meta_contribution(entry: &Option<(usize, FileEntry, AttrRange)>) -> Vec<u8> {
    match entry {
        None => Vec::new(),
        Some((part_idx, e, r)) => {
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

fn decode_meta_contribution(bytes: &[u8]) -> Option<(usize, FileEntry, AttrRange)> {
    if bytes.len() != 104 {
        return None;
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
    decode().ok()
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
        let perm = crate::shuffle::shuffle_permutation(particles.len(), header.shuffle_seed);
        let mut unshuffled = vec![None; particles.len()];
        for (new_idx, &old_idx) in perm.iter().enumerate() {
            unshuffled[old_idx] = Some(particles[new_idx]);
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
        let storage = MemStorage::new();
        // Every rank fabricates a particle inside the *other* rank's patch,
        // so both fail fast before any collective (a lone failing rank
        // would hang its peers, just like real MPI).
        let err = run_threaded_collect(2, move |comm| {
            let x = if comm.rank() == 0 { 0.9 } else { 0.1 };
            let p = Particle::synthetic([x, 0.5, 0.5], comm.rank() as u64);
            let writer = SpatialWriter::new(
                decomp(2, 1, 1),
                WriterConfig::new(PartitionFactor::new(1, 1, 1)),
            );
            writer.write(&comm, &[p], &storage.clone()).map(|_| ())
        })
        .unwrap();
        assert!(
            err.iter().all(Result::is_err),
            "stray particles must be caught"
        );
        let msg = format!("{}", err[0].as_ref().unwrap_err());
        assert!(msg.contains("WriteMode::General"), "got: {msg}");
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
    fn stratified_and_parallel_orders_write_valid_datasets() {
        use crate::shuffle::LodOrder;
        for (order, parallel, expect_flags) in [
            (LodOrder::Stratified, false, super::flags::STRATIFIED_ORDER),
            (LodOrder::Random, true, super::flags::KEYED_SHUFFLE),
        ] {
            let d = decomp(4, 4, 1);
            let storage = MemStorage::new();
            let s2 = storage.clone();
            run_threaded_collect(16, move |comm| {
                let particles = spio_workloads_shim::uniform(&d, comm.rank(), 60, 4);
                let writer = SpatialWriter::new(
                    d.clone(),
                    WriterConfig::new(PartitionFactor::new(2, 2, 1))
                        .with_lod_order(order)
                        .with_parallel_shuffle(parallel),
                );
                writer.write(&comm, &particles, &s2).unwrap();
            })
            .unwrap();
            let meta =
                SpatialMetadata::decode(&storage.read_file(META_FILE_NAME).unwrap()).unwrap();
            assert_eq!(meta.total_particles, 16 * 60);
            for entry in &meta.entries {
                let bytes = storage.read_file(&entry.file_name()).unwrap();
                let (header, ps) = decode_data_file(&bytes).unwrap();
                let order_bits = super::flags::STRATIFIED_ORDER | super::flags::KEYED_SHUFFLE;
                assert_eq!(header.flags & order_bits, expect_flags);
                assert!(header.has_checksums(), "v2 writes are checksummed");
                assert_eq!(ps.len() as u64, entry.particle_count);
                assert!(ps.iter().all(|p| entry.bounds.contains(p.position)));
            }
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
        use crate::storage::MemStorage;
        use spio_types::SpioError;

        /// Storage that accepts data files but refuses the metadata file —
        /// models rank 0 hitting a full or failed filesystem at the last
        /// step.
        #[derive(Clone)]
        struct FailMeta(MemStorage);
        impl Storage for FailMeta {
            fn write_file(&self, name: &str, data: &[u8]) -> Result<(), SpioError> {
                if name == META_FILE_NAME {
                    return Err(SpioError::Io(std::io::Error::other("disk full")));
                }
                self.0.write_file(name, data)
            }
            fn read_file(&self, name: &str) -> Result<Vec<u8>, SpioError> {
                self.0.read_file(name)
            }
            fn read_range(&self, name: &str, s: u64, e: u64) -> Result<Vec<u8>, SpioError> {
                self.0.read_range(name, s, e)
            }
            fn file_size(&self, name: &str) -> Result<u64, SpioError> {
                self.0.file_size(name)
            }
            fn exists(&self, name: &str) -> bool {
                self.0.exists(name)
            }
            fn write_range(&self, name: &str, o: u64, d: &[u8]) -> Result<(), SpioError> {
                self.0.write_range(name, o, d)
            }
        }

        let storage = FailMeta(MemStorage::new());
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
                err.to_string().contains("disk full"),
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
