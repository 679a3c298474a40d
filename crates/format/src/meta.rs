//! The spatial metadata file (§3.5, Fig. 4).
//!
//! One row per data file: the aggregator rank that wrote it (the data file
//! name is derived from this rank), the number of particles it holds, and
//! the bounding box of those particles. The aggregation scheme guarantees
//! the boxes are unique and non-overlapping, so a box query can select
//! exactly the files it needs. A small global header carries the domain
//! bounds, the writer configuration and the dataset's LOD parameters.

use crate::data_file_name;
use crate::lod::LodParams;
use spio_types::le::{aabb_at, f64_at, u32_at, u64_at};
use spio_types::{Aabb3, GridDims, PartitionFactor, SpioError};

/// Magic bytes opening the metadata file.
pub const META_MAGIC: [u8; 8] = *b"SPIOMET1";
/// Current metadata format version. Version 1 files (no attribute-range
/// section) remain readable.
pub const META_VERSION: u32 = 2;
/// Flag bit: an attribute-range section follows the entry table.
pub const FLAG_ATTR_RANGES: u32 = 1;

const ENTRY_BYTES: usize = 8 + 8 + 48;
const RANGE_BYTES: usize = 4 * 8;
const HEADER_BYTES: usize = 8 + 4 + 4 + 48 + 12 + 12 + 16 + 8 + 8;

/// One Fig. 4 row: a data file's aggregator rank, particle count and bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileEntry {
    /// Rank of the aggregator that wrote the file; determines the file name.
    pub agg_rank: u64,
    /// Particles stored in the file.
    pub particle_count: u64,
    /// Bounding box of the particles (the partition box, half-open).
    pub bounds: Aabb3,
}

impl FileEntry {
    /// The data file's name, derived from the aggregator rank (Fig. 4).
    pub fn file_name(&self) -> String {
        data_file_name(self.agg_rank as usize)
    }
}

/// Per-file min/max of the non-spatial scalar attributes — the §3.5
/// extension the paper plans ("storing, e.g., the minimum and maximum
/// values of scalar fields of the region as well. Such metadata can be
/// used to narrow down range-queries on these non-spatial attributes").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrRange {
    pub density_min: f64,
    pub density_max: f64,
    pub volume_min: f64,
    pub volume_max: f64,
}

impl AttrRange {
    /// The empty range (identity for [`AttrRange::merge`]).
    pub fn empty() -> Self {
        AttrRange {
            density_min: f64::INFINITY,
            density_max: f64::NEG_INFINITY,
            volume_min: f64::INFINITY,
            volume_max: f64::NEG_INFINITY,
        }
    }

    /// Grow to include one particle's attributes.
    pub fn include(&mut self, density: f64, volume: f64) {
        self.density_min = self.density_min.min(density);
        self.density_max = self.density_max.max(density);
        self.volume_min = self.volume_min.min(volume);
        self.volume_max = self.volume_max.max(volume);
    }

    /// Union of two ranges.
    pub fn merge(&self, other: &AttrRange) -> AttrRange {
        AttrRange {
            density_min: self.density_min.min(other.density_min),
            density_max: self.density_max.max(other.density_max),
            volume_min: self.volume_min.min(other.volume_min),
            volume_max: self.volume_max.max(other.volume_max),
        }
    }

    /// Could a particle with density inside `[lo, hi]` live in this file?
    pub fn density_overlaps(&self, lo: f64, hi: f64) -> bool {
        self.density_min <= hi && lo <= self.density_max
    }
}

/// The spatial metadata file: global dataset description plus one
/// [`FileEntry`] per data file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialMetadata {
    /// Bounds of the full simulation domain.
    pub domain: Aabb3,
    /// Process grid the dataset was written with.
    pub writer_grid: GridDims,
    /// Aggregation partition factor used at write time.
    pub partition_factor: PartitionFactor,
    /// LOD parameters baked in at write time (readers may override `n`).
    pub lod: LodParams,
    /// Total particles across all files.
    pub total_particles: u64,
    /// One row per data file, in aggregation-partition order.
    pub entries: Vec<FileEntry>,
    /// Optional per-file scalar attribute ranges (parallel to `entries`),
    /// the §3.5 range-query extension. `None` for version-1 datasets.
    pub attr_ranges: Option<Vec<AttrRange>>,
}

impl SpatialMetadata {
    /// Serialize to the on-disk binary layout.
    pub fn encode(&self) -> Vec<u8> {
        if let Some(r) = &self.attr_ranges {
            assert_eq!(
                r.len(),
                self.entries.len(),
                "attribute ranges must parallel the entry table"
            );
        }
        let mut out = Vec::with_capacity(
            HEADER_BYTES
                + self.entries.len() * ENTRY_BYTES
                + self
                    .attr_ranges
                    .as_ref()
                    .map_or(0, |r| r.len() * RANGE_BYTES),
        );
        out.extend_from_slice(&META_MAGIC);
        out.extend_from_slice(&META_VERSION.to_le_bytes());
        let flags = if self.attr_ranges.is_some() {
            FLAG_ATTR_RANGES
        } else {
            0
        };
        out.extend_from_slice(&flags.to_le_bytes());
        for v in self.domain.lo.iter().chain(&self.domain.hi) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for d in self.writer_grid.as_array() {
            out.extend_from_slice(&(d as u32).to_le_bytes());
        }
        for d in self.partition_factor.as_array() {
            out.extend_from_slice(&(d as u32).to_le_bytes());
        }
        out.extend_from_slice(&self.lod.p.to_le_bytes());
        out.extend_from_slice(&self.lod.s.to_le_bytes());
        out.extend_from_slice(&self.total_particles.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.agg_rank.to_le_bytes());
            out.extend_from_slice(&e.particle_count.to_le_bytes());
            for v in e.bounds.lo.iter().chain(&e.bounds.hi) {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        if let Some(ranges) = &self.attr_ranges {
            for r in ranges {
                for v in [r.density_min, r.density_max, r.volume_min, r.volume_max] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out
    }

    /// Parse the on-disk binary layout.
    pub fn decode(bytes: &[u8]) -> Result<Self, SpioError> {
        if bytes.len() < HEADER_BYTES {
            return Err(SpioError::Format("metadata file truncated".into()));
        }
        if bytes[..8] != META_MAGIC {
            return Err(SpioError::Format("bad metadata magic".into()));
        }
        let version = u32_at(bytes, 8)?;
        if version == 0 || version > META_VERSION {
            return Err(SpioError::Format(format!(
                "unsupported metadata version {version}"
            )));
        }
        let flags = u32_at(bytes, 12)?;
        let domain = aabb_at(bytes, 16)?;
        // Three positive u32 fields from `at`: a zero would violate the
        // `GridDims`/`PartitionFactor` invariant.
        let dims_at = |at: usize| -> Result<[usize; 3], SpioError> {
            let mut d = [0; 3];
            for (i, v) in d.iter_mut().enumerate() {
                *v = u32_at(bytes, at + 4 * i)? as usize;
            }
            if d.contains(&0) {
                return Err(SpioError::Format(format!(
                    "metadata grid field at offset {at} has a zero dimension: {d:?}"
                )));
            }
            Ok(d)
        };
        let [nx, ny, nz] = dims_at(64)?;
        let writer_grid = GridDims::new(nx, ny, nz);
        let [px, py, pz] = dims_at(76)?;
        let partition_factor = PartitionFactor::new(px, py, pz);
        let lod = LodParams::new(u64_at(bytes, 88)?, u64_at(bytes, 96)?)
            .map_err(|e| SpioError::Format(format!("bad LOD params in metadata: {e}")))?;
        let total_particles = u64_at(bytes, 104)?;
        let n_entries = u64_at(bytes, 112)?;
        // Checked: a corrupted count must be an error, not an overflow or a
        // huge allocation.
        let section = |record_bytes: usize| {
            usize::try_from(n_entries)
                .ok()
                .and_then(|n| n.checked_mul(record_bytes))
        };
        let entries_end = section(ENTRY_BYTES).and_then(|len| len.checked_add(HEADER_BYTES));
        let Some(entries_end) = entries_end.filter(|&end| end <= bytes.len()) else {
            return Err(SpioError::Format(format!(
                "metadata declares {n_entries} entries but file has {} bytes",
                bytes.len()
            )));
        };
        let entries = (HEADER_BYTES..entries_end)
            .step_by(ENTRY_BYTES)
            .map(|o| {
                Ok(FileEntry {
                    agg_rank: u64_at(bytes, o)?,
                    particle_count: u64_at(bytes, o + 8)?,
                    bounds: aabb_at(bytes, o + 16)?,
                })
            })
            .collect::<Result<Vec<_>, SpioError>>()?;
        let attr_ranges = if version >= 2 && flags & FLAG_ATTR_RANGES != 0 {
            let ranges_end = section(RANGE_BYTES).and_then(|len| len.checked_add(entries_end));
            let Some(ranges_end) = ranges_end.filter(|&end| end <= bytes.len()) else {
                return Err(SpioError::Format(
                    "metadata attribute-range section truncated".into(),
                ));
            };
            let ranges = (entries_end..ranges_end)
                .step_by(RANGE_BYTES)
                .map(|o| {
                    Ok(AttrRange {
                        density_min: f64_at(bytes, o)?,
                        density_max: f64_at(bytes, o + 8)?,
                        volume_min: f64_at(bytes, o + 16)?,
                        volume_max: f64_at(bytes, o + 24)?,
                    })
                })
                .collect::<Result<Vec<_>, SpioError>>()?;
            Some(ranges)
        } else {
            None
        };
        Ok(SpatialMetadata {
            domain,
            writer_grid,
            partition_factor,
            lod,
            total_particles,
            entries,
            attr_ranges,
        })
    }

    /// Indices of entries whose bounds intersect `query` — the file
    /// selection step of a box query (§4). A reader then opens only these
    /// data files.
    pub fn files_intersecting(&self, query: &Aabb3) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.bounds.intersects(query))
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of entries that intersect `query` *and* could contain a
    /// particle with density in `[density_lo, density_hi]`, using the §3.5
    /// attribute-range extension to prune files. Datasets without ranges
    /// fall back to spatial pruning only (conservative, still correct).
    pub fn files_for_range_query(
        &self,
        query: &Aabb3,
        density_lo: f64,
        density_hi: f64,
    ) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(i, e)| {
                e.bounds.intersects(query) && self.may_hold_density(*i, density_lo, density_hi)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Could entry `i` hold a particle with density in `[lo, hi]`? Always
    /// true for datasets written without §3.5 attribute ranges.
    pub fn may_hold_density(&self, i: usize, lo: f64, hi: f64) -> bool {
        self.attr_ranges
            .as_ref()
            .is_none_or(|r| r[i].density_overlaps(lo, hi))
    }

    /// Sanity-check the §3.5 guarantee that file boxes are unique and
    /// non-overlapping. Used by verification tooling and tests.
    ///
    /// Builds the z-order [`crate::SpatialIndex`] once and probes each box
    /// against it: O(n log n) for valid (disjoint) metadata, instead of the
    /// pairwise O(n²) scan — the difference between instant and minutes for
    /// `spio validate` on many-thousand-file datasets. The pair reported on
    /// failure is the same lowest-(i, j) pair the pairwise scan would find.
    pub fn validate_disjoint(&self) -> Result<(), SpioError> {
        let index = crate::index::SpatialIndex::build(self);
        for (i, a) in self.entries.iter().enumerate() {
            // The probe returns ascending indices; a hit above `i` is the
            // smallest overlapping partner (pairs below `i` were already
            // checked from the other side on an earlier iteration).
            if let Some(j) = index.query(&a.bounds).into_iter().find(|&j| j > i) {
                let b = &self.entries[j];
                return Err(SpioError::Format(format!(
                    "file boxes overlap: rank {} {:?} vs rank {} {:?}",
                    a.agg_rank, a.bounds, b.agg_rank, b.bounds
                )));
            }
        }
        let sum: u64 = self.entries.iter().map(|e| e.particle_count).sum();
        if sum != self.total_particles {
            return Err(SpioError::Format(format!(
                "entry particle counts sum to {sum}, header says {}",
                self.total_particles
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 4 example: 16 ranks, 2×2 aggregation of the unit square,
    /// aggregators 0, 4, 8, 12.
    fn fig4_metadata() -> SpatialMetadata {
        let domain = Aabb3::new([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]);
        let boxes = [
            ([0.0, 0.0], [0.5, 0.5], 0u64),
            ([0.5, 0.0], [1.0, 0.5], 4),
            ([0.0, 0.5], [0.5, 1.0], 8),
            ([0.5, 0.5], [1.0, 1.0], 12),
        ];
        let entries = boxes
            .iter()
            .map(|&(lo2, hi2, rank)| FileEntry {
                agg_rank: rank,
                particle_count: 100,
                bounds: Aabb3::new([lo2[0], lo2[1], 0.0], [hi2[0], hi2[1], 1.0]),
            })
            .collect();
        SpatialMetadata {
            domain,
            writer_grid: GridDims::new(4, 4, 1),
            partition_factor: PartitionFactor::new(2, 2, 1),
            lod: LodParams::default(),
            total_particles: 400,
            entries,
            attr_ranges: None,
        }
    }

    #[test]
    fn fig4_file_names() {
        let m = fig4_metadata();
        let names: Vec<String> = m.entries.iter().map(FileEntry::file_name).collect();
        assert_eq!(
            names,
            vec!["file_0.spd", "file_4.spd", "file_8.spd", "file_12.spd"]
        );
    }

    #[test]
    fn roundtrip() {
        let m = fig4_metadata();
        let bytes = m.encode();
        assert_eq!(SpatialMetadata::decode(&bytes).unwrap(), m);
    }

    #[test]
    fn rejects_corruption() {
        let m = fig4_metadata();
        let mut bytes = m.encode();
        bytes[3] = b'?';
        assert!(SpatialMetadata::decode(&bytes).is_err());
        let bytes = m.encode();
        assert!(SpatialMetadata::decode(&bytes[..bytes.len() - 10]).is_err());
    }

    #[test]
    fn box_query_selects_only_intersecting_files() {
        let m = fig4_metadata();
        // Query inside the lower-left quadrant.
        let q = Aabb3::new([0.1, 0.1, 0.2], [0.3, 0.3, 0.8]);
        assert_eq!(m.files_intersecting(&q), vec![0]);
        // Query straddling x = 0.5 touches two quadrants.
        let q = Aabb3::new([0.4, 0.1, 0.2], [0.6, 0.3, 0.8]);
        assert_eq!(m.files_intersecting(&q), vec![0, 1]);
        // Whole domain touches all.
        assert_eq!(m.files_intersecting(&m.domain.clone()).len(), 4);
        // Outside the domain touches none.
        let q = Aabb3::new([2.0; 3], [3.0; 3]);
        assert!(m.files_intersecting(&q).is_empty());
    }

    #[test]
    fn validate_disjoint_accepts_fig4_and_catches_overlap() {
        let mut m = fig4_metadata();
        m.validate_disjoint().unwrap();
        m.entries[1].bounds = m.entries[0].bounds;
        assert!(m.validate_disjoint().is_err());
    }

    #[test]
    fn validate_disjoint_matches_pairwise_oracle_on_random_boxes() {
        // The index-backed check must agree with the O(n²) pairwise scan it
        // replaced, on boxes that sometimes overlap and sometimes don't.
        spio_util::cases(64, |g| {
            let n = g.usize_in(1, 32);
            let entries: Vec<FileEntry> = (0..n)
                .map(|i| {
                    let lo = g.f64x3(0.0, 1.0);
                    let ext = g.f64x3(0.0, 0.12);
                    FileEntry {
                        agg_rank: i as u64,
                        particle_count: 1,
                        bounds: Aabb3::new(lo, [lo[0] + ext[0], lo[1] + ext[1], lo[2] + ext[2]]),
                    }
                })
                .collect();
            let naive_ok = entries.iter().enumerate().all(|(i, a)| {
                entries[i + 1..]
                    .iter()
                    .all(|b| !a.bounds.intersects(&b.bounds))
            });
            let m = SpatialMetadata {
                domain: Aabb3::new([0.0; 3], [2.0; 3]),
                writer_grid: GridDims::new(1, 1, 1),
                partition_factor: PartitionFactor::new(1, 1, 1),
                lod: LodParams::default(),
                total_particles: n as u64,
                entries,
                attr_ranges: None,
            };
            assert_eq!(m.validate_disjoint().is_ok(), naive_ok);
        });
    }

    #[test]
    fn attr_ranges_roundtrip_and_prune() {
        let mut m = fig4_metadata();
        let mut ranges: Vec<AttrRange> = Vec::new();
        for i in 0..m.entries.len() {
            let mut r = AttrRange::empty();
            // File i holds densities in [i, i + 0.5].
            r.include(i as f64, 1e-6);
            r.include(i as f64 + 0.5, 2e-6);
            ranges.push(r);
        }
        m.attr_ranges = Some(ranges);
        let decoded = SpatialMetadata::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        // Range query: density in [1.2, 2.1] over the whole domain hits
        // files 1 and 2 only.
        let hits = m.files_for_range_query(&m.domain.clone(), 1.2, 2.1);
        assert_eq!(hits, vec![1, 2]);
        // Spatial pruning still applies on top.
        let q = Aabb3::new([0.0, 0.0, 0.0], [0.4, 0.4, 1.0]);
        let hits = m.files_for_range_query(&q, 0.0, 10.0);
        assert_eq!(hits, vec![0]);
    }

    #[test]
    fn version1_dataset_without_ranges_still_reads() {
        // Hand-build a version-1 file: same layout, version field = 1,
        // flags = 0, no range section.
        let m = fig4_metadata();
        let mut bytes = m.encode();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let decoded = SpatialMetadata::decode(&bytes).unwrap();
        assert_eq!(decoded.entries, m.entries);
        assert!(decoded.attr_ranges.is_none());
        // Range queries degrade to spatial-only pruning.
        let hits = decoded.files_for_range_query(&m.domain.clone(), 100.0, 200.0);
        assert_eq!(hits.len(), 4, "no ranges ⇒ cannot prune by density");
    }

    #[test]
    fn truncated_range_section_rejected() {
        let mut m = fig4_metadata();
        m.attr_ranges = Some(vec![AttrRange::empty(); 4]);
        let bytes = m.encode();
        assert!(SpatialMetadata::decode(&bytes[..bytes.len() - 8]).is_err());
    }

    #[test]
    fn attr_range_math() {
        let mut r = AttrRange::empty();
        r.include(2.0, 5.0);
        r.include(-1.0, 3.0);
        assert_eq!(r.density_min, -1.0);
        assert_eq!(r.density_max, 2.0);
        assert_eq!(r.volume_min, 3.0);
        assert_eq!(r.volume_max, 5.0);
        assert!(r.density_overlaps(1.5, 9.0));
        assert!(!r.density_overlaps(2.5, 9.0));
        let other = {
            let mut o = AttrRange::empty();
            o.include(10.0, 1.0);
            o
        };
        let merged = r.merge(&other);
        assert_eq!(merged.density_max, 10.0);
        assert_eq!(merged.volume_min, 1.0);
    }

    #[test]
    fn validate_catches_count_mismatch() {
        let mut m = fig4_metadata();
        m.total_particles = 999;
        assert!(m.validate_disjoint().is_err());
    }
}
