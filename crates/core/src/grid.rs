//! Aggregation-grid setup (§3.1) and aggregator selection (§3.2).
//!
//! The aggregation-grid partitions the simulation domain into axis-aligned
//! boxes (*aggregation partitions*), each an integer multiple of the
//! per-process patch size, aligned with the simulation's decomposition so
//! that — for uniform-resolution runs — every process sends all of its
//! particles to exactly one aggregator. Aggregators are chosen uniformly
//! from the rank space for even network utilization (16 processes and 4
//! partitions ⇒ aggregators 0, 4, 8, 12).
//!
//! The same type also represents §6's *adaptive* grid: a grid imposed on a
//! sub-rectangle of the patch space (the occupied region), built by
//! [`crate::adaptive`].

use spio_types::{Aabb3, DomainDecomposition, GridDims, PartitionFactor, Rank, SpioError};

/// One aggregation partition: a box of whole patches, owned by one
/// aggregator rank, written to one data file.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Partition coordinates within the aggregation grid (all zero for
    /// irregular, rebalanced grids, which have no lattice structure).
    pub index: [usize; 3],
    /// Patch-space rectangle `[patch_lo, patch_hi)` this partition covers.
    pub patch_lo: [usize; 3],
    pub patch_hi: [usize; 3],
    /// Spatial bounds: the union of the member patches' boxes (half-open).
    pub bounds: Aabb3,
    /// The rank that aggregates and writes this partition.
    pub agg_rank: Rank,
    /// Ranks whose patches lie inside this partition (its senders in the
    /// aligned write path).
    pub members: Vec<Rank>,
}

impl Partition {
    /// Does this partition cover patch-space coordinates `patch`?
    pub fn covers_patch(&self, patch: [usize; 3]) -> bool {
        (0..3).all(|a| self.patch_lo[a] <= patch[a] && patch[a] < self.patch_hi[a])
    }
}

/// An aggregation grid over (a sub-rectangle of) the patch space.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationGrid {
    /// The simulation decomposition the grid is aligned with.
    pub decomp: DomainDecomposition,
    /// The user's partition factor (patches per partition per axis).
    pub factor: PartitionFactor,
    /// Patch-space origin of the gridded region (`[0,0,0]` for the static
    /// full-domain grid; the occupied corner for adaptive grids).
    pub origin: [usize; 3],
    /// Extent of the gridded region in patches.
    pub extent: [usize; 3],
    /// Partition-grid dimensions: `ceil(extent / factor)` per axis (for
    /// irregular grids this only records the partition count as `nx`).
    pub dims: GridDims,
    /// Whether the partitions form a regular lattice (constant-time patch
    /// lookup) or an irregular set of rectangles (§7's rebalanced grids;
    /// lookups scan the rectangle list).
    pub regular: bool,
    /// All partitions, in linear (x-fastest) order of `dims` for regular
    /// grids, in construction order for irregular ones.
    pub partitions: Vec<Partition>,
}

impl AggregationGrid {
    /// The static grid of §3.1: the full patch space, partitioned by
    /// `factor`, with aggregators spread uniformly over all ranks.
    pub fn aligned(
        decomp: &DomainDecomposition,
        factor: PartitionFactor,
    ) -> Result<Self, SpioError> {
        factor.validate(decomp.dims)?;
        Self::over_region(
            decomp,
            factor,
            [0, 0, 0],
            decomp.dims.as_array(),
            decomp.nprocs(),
        )
    }

    /// Build a grid over the patch-space rectangle `[origin, origin+extent)`
    /// with aggregators drawn uniformly from `0..agg_rank_space` (the full
    /// world size, per §6: "the adaptive grid places aggregators uniformly
    /// across the entire rank space").
    pub fn over_region(
        decomp: &DomainDecomposition,
        factor: PartitionFactor,
        origin: [usize; 3],
        extent: [usize; 3],
        agg_rank_space: usize,
    ) -> Result<Self, SpioError> {
        let patch_dims = decomp.dims.as_array();
        for a in 0..3 {
            if extent[a] == 0 || origin[a] + extent[a] > patch_dims[a] {
                return Err(SpioError::Config(format!(
                    "grid region origin {origin:?} extent {extent:?} exceeds patch grid {patch_dims:?}"
                )));
            }
        }
        let f = factor.as_array();
        let dims = GridDims::new(
            extent[0].div_ceil(f[0]),
            extent[1].div_ceil(f[1]),
            extent[2].div_ceil(f[2]),
        );
        let npart = dims.count();
        let mut partitions = Vec::with_capacity(npart);
        for lin in 0..npart {
            let idx = dims.delinearize(lin);
            // Patch-coordinate range covered by this partition (clipped at
            // the region edge for ragged extents).
            let mut lo_patch = [0usize; 3];
            let mut hi_patch = [0usize; 3];
            for a in 0..3 {
                lo_patch[a] = origin[a] + idx[a] * f[a];
                hi_patch[a] = (lo_patch[a] + f[a]).min(origin[a] + extent[a]);
            }
            // Spatial bounds: lo corner of the first patch, hi corner of the
            // last patch.
            let lo_box = decomp.bounds.cell(patch_dims, lo_patch);
            let hi_box = decomp.bounds.cell(
                patch_dims,
                [hi_patch[0] - 1, hi_patch[1] - 1, hi_patch[2] - 1],
            );
            let bounds = Aabb3::new(lo_box.lo, hi_box.hi);
            // Aggregators uniformly over the rank space (§3.2): partition i
            // of k gets rank floor(i * n / k).
            let agg_rank = lin * agg_rank_space / npart;
            // Member ranks: all patches in the covered range.
            let mut members = Vec::with_capacity(
                (hi_patch[0] - lo_patch[0])
                    * (hi_patch[1] - lo_patch[1])
                    * (hi_patch[2] - lo_patch[2]),
            );
            for k in lo_patch[2]..hi_patch[2] {
                for j in lo_patch[1]..hi_patch[1] {
                    for i in lo_patch[0]..hi_patch[0] {
                        members.push(decomp.rank_of([i, j, k]));
                    }
                }
            }
            partitions.push(Partition {
                index: idx,
                patch_lo: lo_patch,
                patch_hi: hi_patch,
                bounds,
                agg_rank,
                members,
            });
        }
        Ok(AggregationGrid {
            decomp: decomp.clone(),
            factor,
            origin,
            extent,
            dims,
            regular: true,
            partitions,
        })
    }

    /// Build an *irregular* grid from explicit patch-space rectangles
    /// `[lo, hi)` — the §7 rebalanced-adaptive construction. Rectangles
    /// must be non-empty and pairwise disjoint (checked by
    /// [`AggregationGrid::validate`]); aggregators are spread uniformly
    /// over `agg_rank_space`.
    pub fn from_patch_rects(
        decomp: &DomainDecomposition,
        factor: PartitionFactor,
        rects: &[([usize; 3], [usize; 3])],
        agg_rank_space: usize,
    ) -> Result<Self, SpioError> {
        if rects.is_empty() {
            return Err(SpioError::Config("irregular grid needs rectangles".into()));
        }
        let patch_dims = decomp.dims.as_array();
        let npart = rects.len();
        let mut partitions = Vec::with_capacity(npart);
        for (lin, &(lo_patch, hi_patch)) in rects.iter().enumerate() {
            for a in 0..3 {
                if lo_patch[a] >= hi_patch[a] || hi_patch[a] > patch_dims[a] {
                    return Err(SpioError::Config(format!(
                        "bad partition rectangle {lo_patch:?}..{hi_patch:?} in patch grid {patch_dims:?}"
                    )));
                }
            }
            let lo_box = decomp.bounds.cell(patch_dims, lo_patch);
            let hi_box = decomp.bounds.cell(
                patch_dims,
                [hi_patch[0] - 1, hi_patch[1] - 1, hi_patch[2] - 1],
            );
            let bounds = Aabb3::new(lo_box.lo, hi_box.hi);
            let agg_rank = lin * agg_rank_space / npart;
            let mut members = Vec::new();
            for k in lo_patch[2]..hi_patch[2] {
                for j in lo_patch[1]..hi_patch[1] {
                    for i in lo_patch[0]..hi_patch[0] {
                        members.push(decomp.rank_of([i, j, k]));
                    }
                }
            }
            partitions.push(Partition {
                index: [0, 0, 0],
                patch_lo: lo_patch,
                patch_hi: hi_patch,
                bounds,
                agg_rank,
                members,
            });
        }
        Ok(AggregationGrid {
            decomp: decomp.clone(),
            factor,
            origin: [0, 0, 0],
            extent: patch_dims,
            dims: GridDims::new(npart, 1, 1),
            regular: false,
            partitions,
        })
    }

    /// Number of partitions — and of output data files (§3.1's
    /// `f = (nx/Px)·(ny/Py)·(nz/Pz)`).
    pub fn file_count(&self) -> usize {
        self.partitions.len()
    }

    /// Linear partition index containing patch-space coordinates `patch`,
    /// or `None` if the patch lies outside the gridded region.
    pub fn partition_of_patch(&self, patch: [usize; 3]) -> Option<usize> {
        if !self.regular {
            return self.partitions.iter().position(|p| p.covers_patch(patch));
        }
        let f = self.factor.as_array();
        let mut idx = [0usize; 3];
        for a in 0..3 {
            if patch[a] < self.origin[a] || patch[a] >= self.origin[a] + self.extent[a] {
                return None;
            }
            idx[a] = (patch[a] - self.origin[a]) / f[a];
        }
        Some(self.dims.linearize(idx))
    }

    /// Linear partition index for `rank`'s patch.
    pub fn partition_of_rank(&self, rank: Rank) -> Option<usize> {
        self.partition_of_patch(self.decomp.patch_coords(rank))
    }

    /// Linear partition index containing point `p`, or `None` if `p` is
    /// outside the gridded region.
    pub fn partition_of_point(&self, p: [f64; 3]) -> Option<usize> {
        let patch = self.decomp.bounds.cell_of(self.decomp.dims.as_array(), p);
        self.partition_of_patch(patch)
    }

    /// The partition this rank aggregates, if it is an aggregator.
    pub fn aggregated_partition(&self, rank: Rank) -> Option<usize> {
        // Aggregator ranks are strictly increasing with the partition index
        // only when npart <= n; duplicate assignments cannot happen because
        // floor(i·n/k) is injective for k ≤ n. A linear scan is fine at the
        // rank counts the thread runtime sees; the simulator uses the plan.
        self.partitions.iter().position(|p| p.agg_rank == rank)
    }

    /// All aggregator ranks in partition order.
    pub fn aggregator_ranks(&self) -> Vec<Rank> {
        self.partitions.iter().map(|p| p.agg_rank).collect()
    }

    /// Switch to *partition-local* aggregator placement: each partition is
    /// aggregated by its own first member instead of a rank drawn
    /// uniformly from the whole rank space. This is the alternative §3.2
    /// argues against ("spatially neighboring processes may not be close
    /// in the network topology, and hence, we choose a scheme which
    /// ensures a more even utilization of the network") — provided for the
    /// placement ablation study.
    pub fn use_partition_local_aggregators(&mut self) {
        for part in &mut self.partitions {
            if let Some(&first) = part.members.first() {
                part.agg_rank = first;
            }
        }
    }

    /// Validate structural invariants (every rank in exactly one partition
    /// for full-domain grids; aggregators unique; bounds disjoint). Used by
    /// tests and debug assertions.
    pub fn validate(&self) -> Result<(), SpioError> {
        let mut seen = vec![0usize; self.decomp.nprocs()];
        for part in &self.partitions {
            for &m in &part.members {
                seen[m] += 1;
            }
        }
        if seen.iter().any(|&c| c > 1) {
            return Err(SpioError::Config("rank in multiple partitions".into()));
        }
        let mut aggs: Vec<Rank> = self.aggregator_ranks();
        aggs.sort_unstable();
        let before = aggs.len();
        aggs.dedup();
        if aggs.len() != before {
            return Err(SpioError::Config(
                "duplicate aggregator assignment (more partitions than ranks?)".into(),
            ));
        }
        for (i, a) in self.partitions.iter().enumerate() {
            for b in &self.partitions[i + 1..] {
                if a.bounds.intersects(&b.bounds) {
                    return Err(SpioError::Config(format!(
                        "partition bounds overlap: {:?} vs {:?}",
                        a.index, b.index
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decomp_4x4() -> DomainDecomposition {
        DomainDecomposition::uniform(
            Aabb3::new([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
            GridDims::new(4, 4, 1),
        )
    }

    #[test]
    fn paper_aggregator_selection_example() {
        // §3.2: 16 processes, 4 partitions ⇒ aggregators 0, 4, 8, 12.
        let g = AggregationGrid::aligned(&decomp_4x4(), PartitionFactor::new(2, 2, 1)).unwrap();
        assert_eq!(g.file_count(), 4);
        assert_eq!(g.aggregator_ranks(), vec![0, 4, 8, 12]);
        g.validate().unwrap();
    }

    #[test]
    fn fig4_partition_bounds() {
        // Fig. 4: 2×2 partitions of the unit square with boxes
        // (0,0)-(.5,.5), (.5,0)-(1,.5), (0,.5)-(.5,1), (.5,.5)-(1,1).
        let g = AggregationGrid::aligned(&decomp_4x4(), PartitionFactor::new(2, 2, 1)).unwrap();
        let boxes: Vec<(Vec<f64>, Vec<f64>)> = g
            .partitions
            .iter()
            .map(|p| (p.bounds.lo[..2].to_vec(), p.bounds.hi[..2].to_vec()))
            .collect();
        assert_eq!(
            boxes,
            vec![
                (vec![0.0, 0.0], vec![0.5, 0.5]),
                (vec![0.5, 0.0], vec![1.0, 0.5]),
                (vec![0.0, 0.5], vec![0.5, 1.0]),
                (vec![0.5, 0.5], vec![1.0, 1.0]),
            ]
        );
    }

    #[test]
    fn file_per_process_factor() {
        let g = AggregationGrid::aligned(&decomp_4x4(), PartitionFactor::new(1, 1, 1)).unwrap();
        assert_eq!(g.file_count(), 16);
        // Every rank aggregates its own patch.
        for r in 0..16 {
            assert_eq!(
                g.partitions[g.partition_of_rank(r).unwrap()].members,
                vec![r]
            );
        }
        // Uniform selection over 16 ranks and 16 partitions: identity.
        assert_eq!(g.aggregator_ranks(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn shared_file_factor() {
        let g = AggregationGrid::aligned(&decomp_4x4(), PartitionFactor::new(4, 4, 1)).unwrap();
        assert_eq!(g.file_count(), 1);
        assert_eq!(g.partitions[0].members.len(), 16);
        assert_eq!(g.partitions[0].bounds, decomp_4x4().bounds);
    }

    #[test]
    fn members_partition_rank_space() {
        let d =
            DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 4, 4));
        let g = AggregationGrid::aligned(&d, PartitionFactor::new(2, 2, 4)).unwrap();
        assert_eq!(g.file_count(), 4);
        let mut all: Vec<Rank> = g
            .partitions
            .iter()
            .flat_map(|p| p.members.clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
        g.validate().unwrap();
    }

    #[test]
    fn partition_lookup_consistency() {
        let d =
            DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 2, 2));
        let g = AggregationGrid::aligned(&d, PartitionFactor::new(2, 2, 1)).unwrap();
        for r in 0..d.nprocs() {
            let part = g.partition_of_rank(r).unwrap();
            assert!(g.partitions[part].members.contains(&r));
            // Points inside the patch resolve to the same partition.
            let c = d.patch_bounds(r).center();
            assert_eq!(g.partition_of_point(c), Some(part));
        }
    }

    #[test]
    fn ragged_process_grid_rounds_up() {
        let d =
            DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(5, 4, 1));
        let g = AggregationGrid::aligned(&d, PartitionFactor::new(2, 2, 1)).unwrap();
        // ceil(5/2) * ceil(4/2) = 3 * 2 = 6 partitions.
        assert_eq!(g.file_count(), 6);
        g.validate().unwrap();
        // The ragged partitions at x-edge hold 1×2 patches.
        let edge = g.partitions.iter().find(|p| p.index == [2, 0, 0]).unwrap();
        assert_eq!(edge.members.len(), 2);
        // Bounds still tile: total member count = 20.
        let total: usize = g.partitions.iter().map(|p| p.members.len()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn sub_region_grid_excludes_outside_ranks() {
        let d = decomp_4x4();
        // Grid only over the left half (x patches 0..2).
        let g = AggregationGrid::over_region(
            &d,
            PartitionFactor::new(2, 2, 1),
            [0, 0, 0],
            [2, 4, 1],
            16,
        )
        .unwrap();
        assert_eq!(g.file_count(), 2);
        // A rank in the right half is outside.
        let right = d.rank_of([3, 0, 0]);
        assert_eq!(g.partition_of_rank(right), None);
        let left = d.rank_of([1, 1, 0]);
        assert!(g.partition_of_rank(left).is_some());
        // Aggregators still drawn from the full 16-rank space.
        assert_eq!(g.aggregator_ranks(), vec![0, 8]);
    }

    #[test]
    fn rejects_factor_larger_than_grid() {
        let d = decomp_4x4();
        assert!(AggregationGrid::aligned(&d, PartitionFactor::new(8, 1, 1)).is_err());
    }

    #[test]
    fn rejects_empty_region() {
        let d = decomp_4x4();
        assert!(AggregationGrid::over_region(
            &d,
            PartitionFactor::new(1, 1, 1),
            [0, 0, 0],
            [0, 4, 1],
            16
        )
        .is_err());
        assert!(AggregationGrid::over_region(
            &d,
            PartitionFactor::new(1, 1, 1),
            [3, 0, 0],
            [2, 4, 1],
            16
        )
        .is_err());
    }

    #[test]
    fn irregular_grid_from_rects() {
        let d = decomp_4x4();
        // Two uneven rectangles: left quarter and the rest.
        let rects = [([0, 0, 0], [1, 4, 1]), ([1, 0, 0], [4, 4, 1])];
        let g = AggregationGrid::from_patch_rects(&d, PartitionFactor::new(1, 1, 1), &rects, 16)
            .unwrap();
        assert!(!g.regular);
        assert_eq!(g.file_count(), 2);
        g.validate().unwrap();
        assert_eq!(g.partitions[0].members.len(), 4);
        assert_eq!(g.partitions[1].members.len(), 12);
        // Patch lookup routes through the rectangle scan.
        assert_eq!(g.partition_of_patch([0, 3, 0]), Some(0));
        assert_eq!(g.partition_of_patch([2, 1, 0]), Some(1));
        // Aggregators uniform over 16 ranks: 0 and 8.
        assert_eq!(g.aggregator_ranks(), vec![0, 8]);
        // Spatial bounds split at x = 0.25.
        assert!((g.partitions[0].bounds.hi[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn irregular_grid_rejects_bad_rects() {
        let d = decomp_4x4();
        assert!(
            AggregationGrid::from_patch_rects(&d, PartitionFactor::new(1, 1, 1), &[], 16).is_err()
        );
        assert!(AggregationGrid::from_patch_rects(
            &d,
            PartitionFactor::new(1, 1, 1),
            &[([0, 0, 0], [5, 4, 1])],
            16
        )
        .is_err());
        assert!(AggregationGrid::from_patch_rects(
            &d,
            PartitionFactor::new(1, 1, 1),
            &[([2, 0, 0], [2, 4, 1])],
            16
        )
        .is_err());
        // Overlapping rects are caught by validate().
        let g = AggregationGrid::from_patch_rects(
            &d,
            PartitionFactor::new(1, 1, 1),
            &[([0, 0, 0], [2, 4, 1]), ([1, 0, 0], [4, 4, 1])],
            16,
        )
        .unwrap();
        assert!(g.validate().is_err());
    }

    #[test]
    fn partition_local_placement() {
        let mut g = AggregationGrid::aligned(&decomp_4x4(), PartitionFactor::new(2, 2, 1)).unwrap();
        g.use_partition_local_aggregators();
        // First member of each 2x2 block: ranks 0, 2, 8, 10.
        assert_eq!(g.aggregator_ranks(), vec![0, 2, 8, 10]);
        g.validate().unwrap();
        for p in &g.partitions {
            assert!(p.members.contains(&p.agg_rank));
        }
    }

    #[test]
    fn aggregated_partition_inverse() {
        let g = AggregationGrid::aligned(&decomp_4x4(), PartitionFactor::new(2, 2, 1)).unwrap();
        assert_eq!(g.aggregated_partition(4), Some(1));
        assert_eq!(g.aggregated_partition(5), None);
    }
}
