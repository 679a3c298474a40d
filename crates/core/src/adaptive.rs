//! Adaptive aggregation (§6).
//!
//! Simulations often have non-uniform particle distributions: regions of
//! low density, or regions with no particles at all. A layout-agnostic
//! aggregation grid would assign aggregators to empty regions (Fig. 10e),
//! underutilizing the I/O system. The adaptive grid is built from an
//! all-to-all exchange of per-rank spatial extents and particle counts: it
//! determines the sub-rectangle of the patch space that actually contains
//! particles, imposes the aggregation grid on just that region (Fig. 10f),
//! and spreads aggregators uniformly across the *entire* rank space so all
//! I/O nodes stay evenly utilized. Ranks without particles do not
//! participate in the subsequent phases at all.

use crate::grid::AggregationGrid;
use spio_types::{DomainDecomposition, PartitionFactor, Rank, SpioError};

/// Builder for §6's adaptive aggregation grid (and the §7 rebalanced
/// variant).
pub struct AdaptiveGrid;

impl AdaptiveGrid {
    /// Build the adaptive grid from global per-rank particle counts
    /// (obtained at runtime via the extent/count all-gather).
    ///
    /// The occupied region is the tightest patch-space rectangle covering
    /// every rank with a nonzero count. Returns an error if no rank has
    /// particles.
    pub fn build(
        decomp: &DomainDecomposition,
        factor: PartitionFactor,
        counts: &[u64],
    ) -> Result<AggregationGrid, SpioError> {
        if counts.len() != decomp.nprocs() {
            return Err(SpioError::Config(format!(
                "counts length {} != nprocs {}",
                counts.len(),
                decomp.nprocs()
            )));
        }
        let mut lo = [usize::MAX; 3];
        let mut hi = [0usize; 3];
        let mut any = false;
        for (rank, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            any = true;
            let p = decomp.patch_coords(rank);
            for a in 0..3 {
                lo[a] = lo[a].min(p[a]);
                hi[a] = hi[a].max(p[a]);
            }
        }
        if !any {
            return Err(SpioError::Config(
                "adaptive grid: no rank holds particles".into(),
            ));
        }
        let extent = [hi[0] - lo[0] + 1, hi[1] - lo[1] + 1, hi[2] - lo[2] + 1];
        // Clamp the factor so it never exceeds the occupied extent (a 2×2×2
        // factor over a 1-patch-thick occupied slab degrades to 2×2×1).
        let f = PartitionFactor::new(
            factor.px.min(extent[0]),
            factor.py.min(extent[1]),
            factor.pz.min(extent[2]),
        );
        AggregationGrid::over_region(decomp, f, lo, extent, decomp.nprocs())
    }

    /// Build a *rebalanced* adaptive grid (§7's future-work direction:
    /// "creating an adaptive grid on the fly, which can re-balance the
    /// grid partition size and placement based on the particle
    /// distribution"). The occupied patch rectangle is split by recursive
    /// weighted bisection — each cut halves the remaining particle weight
    /// as closely as a patch boundary allows — into (about) as many
    /// partitions as the §6 grid would produce, so heavily loaded regions
    /// get more, smaller partitions and sparse regions fewer, larger ones.
    pub fn build_balanced(
        decomp: &DomainDecomposition,
        factor: PartitionFactor,
        counts: &[u64],
    ) -> Result<AggregationGrid, SpioError> {
        // Reuse the §6 construction to find the occupied region and the
        // target partition count.
        let bbox_grid = Self::build(decomp, factor, counts)?;
        let target = bbox_grid.file_count();
        let lo = bbox_grid.origin;
        let hi = [
            lo[0] + bbox_grid.extent[0],
            lo[1] + bbox_grid.extent[1],
            lo[2] + bbox_grid.extent[2],
        ];
        let weight = |rect_lo: [usize; 3], rect_hi: [usize; 3]| -> u64 {
            let mut w = 0;
            for k in rect_lo[2]..rect_hi[2] {
                for j in rect_lo[1]..rect_hi[1] {
                    for i in rect_lo[0]..rect_hi[0] {
                        w += counts[decomp.rank_of([i, j, k])];
                    }
                }
            }
            w
        };
        // Recursive bisection: repeatedly split the heaviest splittable
        // rectangle until the target count is reached.
        let mut rects = vec![(lo, hi, weight(lo, hi))];
        while rects.len() < target {
            // Pick the heaviest rectangle with more than one patch, and
            // its longest splittable axis.
            let Some((pos, axis, _)) = rects
                .iter()
                .enumerate()
                .filter_map(|(i, (l, h, w))| {
                    (0..3)
                        .filter(|&a| h[a] - l[a] > 1)
                        .max_by_key(|&a| h[a] - l[a])
                        .map(|axis| (i, axis, *w))
                })
                .max_by_key(|&(_, _, w)| w)
            else {
                break; // everything is single-patch; cannot split further
            };
            let (rlo, rhi, rw) = rects.swap_remove(pos);
            // Split along that axis at the weight median.
            let mut best_cut = rlo[axis] + 1;
            let mut best_diff = u64::MAX;
            let mut acc = 0u64;
            for cut in rlo[axis] + 1..rhi[axis] {
                // Weight of the slab [cut-1, cut) along `axis`.
                let mut slab_lo = rlo;
                let mut slab_hi = rhi;
                slab_lo[axis] = cut - 1;
                slab_hi[axis] = cut;
                acc += weight(slab_lo, slab_hi);
                let other = rw - acc;
                let diff = acc.abs_diff(other);
                if diff < best_diff {
                    best_diff = diff;
                    best_cut = cut;
                }
            }
            let mut left_hi = rhi;
            left_hi[axis] = best_cut;
            let mut right_lo = rlo;
            right_lo[axis] = best_cut;
            let lw = weight(rlo, left_hi);
            rects.push((rlo, left_hi, lw));
            rects.push((right_lo, rhi, rw - lw));
        }
        // Deterministic ordering: by patch-space position.
        rects.sort_by_key(|&(l, _, _)| (l[2], l[1], l[0]));
        let rect_list: Vec<([usize; 3], [usize; 3])> =
            rects.iter().map(|&(l, h, _)| (l, h)).collect();
        AggregationGrid::from_patch_rects(decomp, factor, &rect_list, decomp.nprocs())
    }

    /// Load-balance metric: the largest partition's particle share divided
    /// by the ideal share (1.0 = perfectly balanced).
    pub fn imbalance(grid: &AggregationGrid, counts: &[u64]) -> f64 {
        let loads: Vec<u64> = grid
            .partitions
            .iter()
            .map(|p| p.members.iter().map(|&m| counts[m]).sum())
            .collect();
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let ideal = total as f64 / loads.len() as f64;
        loads.iter().copied().max().unwrap_or(0) as f64 / ideal
    }

    /// Does `rank` participate in the write at all? (§6: "processes without
    /// particles do not participate in the subsequent stages".) A rank
    /// participates if it holds particles or aggregates a partition.
    pub fn participates(grid: &AggregationGrid, rank: Rank, count: u64) -> bool {
        count > 0 || grid.aggregated_partition(rank).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spio_types::{Aabb3, GridDims};

    fn decomp() -> DomainDecomposition {
        DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(8, 4, 1))
    }

    #[test]
    fn full_occupancy_matches_static_grid() {
        let d = decomp();
        let counts = vec![10u64; d.nprocs()];
        let adaptive = AdaptiveGrid::build(&d, PartitionFactor::new(2, 2, 1), &counts).unwrap();
        let fixed = AggregationGrid::aligned(&d, PartitionFactor::new(2, 2, 1)).unwrap();
        assert_eq!(adaptive.dims, fixed.dims);
        assert_eq!(adaptive.partitions.len(), fixed.partitions.len());
        assert_eq!(adaptive.aggregator_ranks(), fixed.aggregator_ranks());
    }

    #[test]
    fn half_occupancy_covers_only_occupied_patches() {
        let d = decomp();
        // Only patches with x < 4 hold particles.
        let counts: Vec<u64> = (0..d.nprocs())
            .map(|r| if d.patch_coords(r)[0] < 4 { 100 } else { 0 })
            .collect();
        let g = AdaptiveGrid::build(&d, PartitionFactor::new(2, 2, 1), &counts).unwrap();
        assert_eq!(g.origin, [0, 0, 0]);
        assert_eq!(g.extent, [4, 4, 1]);
        // 2x2 factor over 4x4 occupied patches ⇒ 4 files instead of 8.
        assert_eq!(g.file_count(), 4);
        // Every empty rank is outside the grid.
        for (r, &c) in counts.iter().enumerate() {
            let inside = g.partition_of_rank(r).is_some();
            assert_eq!(inside, c > 0, "rank {r}");
        }
        g.validate().unwrap();
    }

    #[test]
    fn aggregators_spread_over_full_rank_space() {
        let d = decomp();
        // Occupied region: left quarter (x < 2): 8 ranks of 32.
        let counts: Vec<u64> = (0..d.nprocs())
            .map(|r| if d.patch_coords(r)[0] < 2 { 50 } else { 0 })
            .collect();
        let g = AdaptiveGrid::build(&d, PartitionFactor::new(2, 2, 1), &counts).unwrap();
        assert_eq!(g.file_count(), 2);
        // §6: aggregators uniform over the *entire* 32-rank space, not just
        // the 8 occupied ranks: partitions 0,1 of 2 ⇒ ranks 0 and 16.
        assert_eq!(g.aggregator_ranks(), vec![0, 16]);
    }

    #[test]
    fn interior_island_is_covered() {
        let d = decomp();
        // Particles only in the patch rectangle x∈[2,5], y∈[1,2].
        let counts: Vec<u64> = (0..d.nprocs())
            .map(|r| {
                let p = d.patch_coords(r);
                if (2..=5).contains(&p[0]) && (1..=2).contains(&p[1]) {
                    10
                } else {
                    0
                }
            })
            .collect();
        let g = AdaptiveGrid::build(&d, PartitionFactor::new(2, 2, 1), &counts).unwrap();
        assert_eq!(g.origin, [2, 1, 0]);
        assert_eq!(g.extent, [4, 2, 1]);
        assert_eq!(g.file_count(), 2);
        for (r, &c) in counts.iter().enumerate() {
            if c > 0 {
                assert!(g.partition_of_rank(r).is_some(), "rank {r}");
            }
        }
    }

    #[test]
    fn factor_clamps_to_thin_regions() {
        let d = decomp();
        // One row of patches occupied (y = 0 only).
        let counts: Vec<u64> = (0..d.nprocs())
            .map(|r| if d.patch_coords(r)[1] == 0 { 10 } else { 0 })
            .collect();
        // 2×2 factor cannot fit a 1-patch-high region; it must clamp to 2×1.
        let g = AdaptiveGrid::build(&d, PartitionFactor::new(2, 2, 1), &counts).unwrap();
        assert_eq!(g.factor, PartitionFactor::new(2, 1, 1));
        assert_eq!(g.extent, [8, 1, 1]);
        assert_eq!(g.file_count(), 4);
    }

    #[test]
    fn balanced_grid_evens_out_skewed_loads() {
        let d = decomp();
        // Left quarter of the occupied patches is 8x denser.
        let counts: Vec<u64> = (0..d.nprocs())
            .map(|r| {
                let p = d.patch_coords(r);
                if p[0] < 2 {
                    800
                } else {
                    100
                }
            })
            .collect();
        let bbox = AdaptiveGrid::build(&d, PartitionFactor::new(2, 2, 1), &counts).unwrap();
        let balanced =
            AdaptiveGrid::build_balanced(&d, PartitionFactor::new(2, 2, 1), &counts).unwrap();
        balanced.validate().unwrap();
        assert_eq!(balanced.file_count(), bbox.file_count());
        // Every rank with particles is covered.
        for r in 0..d.nprocs() {
            assert!(balanced.partition_of_rank(r).is_some());
        }
        let before = AdaptiveGrid::imbalance(&bbox, &counts);
        let after = AdaptiveGrid::imbalance(&balanced, &counts);
        assert!(
            after < before,
            "rebalancing must reduce imbalance: {before:.2} → {after:.2}"
        );
        assert!(after < 1.6, "should be near-balanced, got {after:.2}");
    }

    #[test]
    fn balanced_grid_conserves_members() {
        let d = decomp();
        let counts: Vec<u64> = (0..d.nprocs()).map(|r| (r as u64 % 7) * 50).collect();
        let g = AdaptiveGrid::build_balanced(&d, PartitionFactor::new(2, 2, 1), &counts).unwrap();
        g.validate().unwrap();
        let mut members: Vec<usize> = g
            .partitions
            .iter()
            .flat_map(|p| p.members.clone())
            .collect();
        members.sort_unstable();
        members.dedup();
        // All occupied ranks covered, each exactly once (dedup is a no-op).
        for (r, &c) in counts.iter().enumerate() {
            if c > 0 {
                assert!(members.contains(&r));
            }
        }
    }

    #[test]
    fn balanced_on_uniform_load_matches_bbox_partition_count() {
        let d = decomp();
        let counts = vec![100u64; d.nprocs()];
        let bbox = AdaptiveGrid::build(&d, PartitionFactor::new(2, 2, 1), &counts).unwrap();
        let bal = AdaptiveGrid::build_balanced(&d, PartitionFactor::new(2, 2, 1), &counts).unwrap();
        assert_eq!(bal.file_count(), bbox.file_count());
        let imb = AdaptiveGrid::imbalance(&bal, &counts);
        assert!(imb < 1.01, "uniform load stays balanced: {imb}");
    }

    #[test]
    fn empty_world_is_an_error() {
        let d = decomp();
        let counts = vec![0u64; d.nprocs()];
        assert!(AdaptiveGrid::build(&d, PartitionFactor::new(2, 2, 1), &counts).is_err());
    }

    #[test]
    fn wrong_count_length_is_an_error() {
        let d = decomp();
        assert!(AdaptiveGrid::build(&d, PartitionFactor::new(2, 2, 1), &[1, 2, 3]).is_err());
    }

    #[test]
    fn participation_rule() {
        let d = decomp();
        let counts: Vec<u64> = (0..d.nprocs())
            .map(|r| if d.patch_coords(r)[0] < 2 { 50 } else { 0 })
            .collect();
        let g = AdaptiveGrid::build(&d, PartitionFactor::new(2, 2, 1), &counts).unwrap();
        // Rank 16 holds no particles but aggregates partition 1.
        assert!(AdaptiveGrid::participates(&g, 16, 0));
        // Rank 31 holds nothing and aggregates nothing.
        assert!(!AdaptiveGrid::participates(&g, 31, 0));
        // Rank 0 both holds particles and aggregates.
        assert!(AdaptiveGrid::participates(&g, 0, 50));
    }
}
