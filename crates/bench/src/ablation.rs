//! Ablation studies for the design choices DESIGN.md calls out — beyond
//! the paper's own figures.
//!
//! * [`balanced_aggregation`] — §7's rebalanced adaptive grid vs the §6
//!   bounding-box grid, under increasingly skewed particle distributions;
//! * LOD ordering — §3.4's "density or random" reordering heuristics:
//!   feature coverage of small prefixes for the random shuffle vs the
//!   stratified order (run by `fig9::lod_quality` on real datasets);
//! * [`partition_factor_sensitivity`] — how sharply throughput responds to
//!   the tuning knob on each machine (why the paper exposes it to users).

use hpcsim::{simulate_spio_write, simulate_spio_write_node_contended, MachineModel};
use spio_core::adaptive::AdaptiveGrid;
use spio_core::grid::AggregationGrid;
use spio_core::plan::plan_write_on_grid;
use spio_types::{Aabb3, DomainDecomposition, PartitionFactor, SpioError};

/// One row of the balanced-aggregation ablation.
#[derive(Debug, Clone)]
pub struct BalanceRow {
    /// Fraction of ranks holding the heavy load.
    pub skew: f64,
    pub bbox_imbalance: f64,
    pub balanced_imbalance: f64,
    pub bbox_time: f64,
    pub balanced_time: f64,
}

/// Compare §6 bounding-box adaptivity against §7 weight rebalancing at
/// `procs` ranks: a fraction `skew` of the ranks (a contiguous x-band)
/// holds `heavy_factor`× the base load.
pub fn balanced_aggregation(
    machine: &MachineModel,
    procs: usize,
    skews: &[f64],
    heavy_factor: u64,
) -> Result<Vec<BalanceRow>, SpioError> {
    let decomp = DomainDecomposition::for_procs(Aabb3::new([0.0; 3], [1.0; 3]), procs);
    let factor = PartitionFactor::new(2, 2, 2);
    let base = 32 * 1024u64;
    skews
        .iter()
        .map(|&skew| {
            let heavy_x = ((decomp.dims.nx as f64) * skew).max(1.0) as usize;
            let counts: Vec<u64> = (0..procs)
                .map(|r| {
                    if decomp.patch_coords(r)[0] < heavy_x {
                        base * heavy_factor
                    } else {
                        base
                    }
                })
                .collect();
            let bbox = AdaptiveGrid::build(&decomp, factor, &counts)?;
            let balanced = AdaptiveGrid::build_balanced(&decomp, factor, &counts)?;
            let bbox_plan = plan_write_on_grid(&bbox, &counts, true)?;
            let bal_plan = plan_write_on_grid(&balanced, &counts, true)?;
            Ok(BalanceRow {
                skew,
                bbox_imbalance: AdaptiveGrid::imbalance(&bbox, &counts),
                balanced_imbalance: AdaptiveGrid::imbalance(&balanced, &counts),
                bbox_time: simulate_spio_write(&bbox_plan, machine).total(),
                balanced_time: simulate_spio_write(&bal_plan, machine).total(),
            })
        })
        .collect()
}

/// One row of the §3.2 aggregator-placement ablation.
#[derive(Debug, Clone)]
pub struct PlacementRow {
    pub factor: PartitionFactor,
    /// Aggregation time with aggregators uniform in rank space (§3.2).
    pub uniform_agg: f64,
    /// Aggregation time with partition-local aggregators.
    pub local_agg: f64,
}

/// Compare the paper's uniform-rank-space aggregator selection against
/// partition-local placement, under a node-contention-aware network model:
/// local placement can pack several aggregators onto one compute node's
/// NIC ("spatially neighboring processes may not be close in the network
/// topology … we choose a scheme which ensures a more even utilization of
/// the network", §3.2).
pub fn aggregator_placement(
    machine: &MachineModel,
    procs: usize,
    per_core: u64,
) -> Result<Vec<PlacementRow>, SpioError> {
    let decomp = DomainDecomposition::for_procs(Aabb3::new([0.0; 3], [1.0; 3]), procs);
    let counts = vec![per_core; procs];
    crate::fig5::configs_for(machine)
        .into_iter()
        .filter(|f| f.group_size() > 1)
        .map(|factor| {
            let uniform = AggregationGrid::aligned(&decomp, factor)?;
            let mut local = uniform.clone();
            local.use_partition_local_aggregators();
            let up = plan_write_on_grid(&uniform, &counts, false)?;
            let lp = plan_write_on_grid(&local, &counts, false)?;
            Ok(PlacementRow {
                factor,
                uniform_agg: simulate_spio_write_node_contended(&up, machine).aggregation,
                local_agg: simulate_spio_write_node_contended(&lp, machine).aggregation,
            })
        })
        .collect()
}

/// One row of the partition-factor sensitivity sweep.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    pub factor: PartitionFactor,
    pub throughput_gbs: f64,
}

/// Throughput across the full factor ladder at one scale — quantifies how
/// much a user loses by picking the wrong knob value on each machine.
pub fn partition_factor_sensitivity(
    machine: &MachineModel,
    procs: usize,
    per_core: u64,
) -> Result<Vec<SensitivityRow>, SpioError> {
    crate::fig5::configs_for(machine)
        .into_iter()
        .map(|factor| {
            let p = crate::fig5::spio_point(machine, procs, per_core, factor)?;
            Ok(SensitivityRow {
                factor,
                throughput_gbs: p.throughput_gbs(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim::{mira, theta};

    #[test]
    fn rebalancing_helps_more_as_skew_grows() {
        let rows = balanced_aggregation(&theta(), 4096, &[0.5, 0.25, 0.125], 8).unwrap();
        for r in &rows {
            assert!(
                r.balanced_imbalance <= r.bbox_imbalance + 1e-9,
                "skew {}: balanced {} vs bbox {}",
                r.skew,
                r.balanced_imbalance,
                r.bbox_imbalance
            );
        }
        // At the sharpest skew, rebalancing must clearly win on balance.
        let sharpest = rows.last().unwrap();
        assert!(sharpest.bbox_imbalance > 1.5);
        assert!(sharpest.balanced_imbalance < sharpest.bbox_imbalance * 0.75);
    }

    #[test]
    fn rebalancing_never_slows_the_simulated_write_much() {
        for m in [mira(), theta()] {
            let rows = balanced_aggregation(&m, 4096, &[0.25], 8).unwrap();
            let r = &rows[0];
            assert!(
                r.balanced_time <= r.bbox_time * 1.1,
                "{}: balanced {} vs bbox {}",
                m.name,
                r.balanced_time,
                r.bbox_time
            );
        }
    }

    #[test]
    fn uniform_placement_wins_once_aggregators_are_sparse() {
        // §3.2's claim: uniform rank-space placement utilizes the network
        // more evenly. The ablation shows *when*: with sparse aggregators
        // (group size ≥ 8), partition-local placement packs several
        // aggregators onto one node's NIC and loses clearly; at tiny
        // factors (half the ranks aggregate), uniform placement needlessly
        // turns every rank's contribution into a remote message and the
        // trade-off reverses — matching the paper's practice of treating
        // (1,1,1) as plain file-per-process (trivially local).
        for m in [mira(), theta()] {
            let rows = aggregator_placement(&m, 4096, 32 * 1024).unwrap();
            for r in rows.iter().filter(|r| r.factor.group_size() >= 8) {
                assert!(
                    r.uniform_agg < r.local_agg,
                    "{} {}: uniform {} vs local {}",
                    m.name,
                    r.factor,
                    r.uniform_agg,
                    r.local_agg
                );
            }
            // The sparsest configuration shows a pronounced gap.
            let sparsest = rows.iter().max_by_key(|r| r.factor.group_size()).unwrap();
            assert!(
                sparsest.local_agg > 1.5 * sparsest.uniform_agg,
                "{}: local {} vs uniform {}",
                m.name,
                sparsest.local_agg,
                sparsest.uniform_agg
            );
        }
    }

    #[test]
    fn factor_sensitivity_shows_machine_contrast() {
        // The best and worst factors differ by a large margin on both
        // machines — the reason the paper exposes the knob.
        for m in [mira(), theta()] {
            let rows = partition_factor_sensitivity(&m, 65_536, 32 * 1024).unwrap();
            let best = rows.iter().map(|r| r.throughput_gbs).fold(0.0f64, f64::max);
            let worst = rows
                .iter()
                .map(|r| r.throughput_gbs)
                .fold(f64::MAX, f64::min);
            assert!(best > 2.0 * worst, "{}: best {best} worst {worst}", m.name);
        }
    }
}
