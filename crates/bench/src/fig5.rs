//! Fig. 5: parallel-write weak scaling on Mira and Theta.
//!
//! For each process count (512 … 262 144) and each aggregation
//! configuration the paper plots, build the exact write plan with the
//! production planner and replay it on the machine model; IOR
//! file-per-process, IOR collective (shared file) and Parallel HDF5 run as
//! the baseline patterns. The series reported here correspond one-to-one
//! to the trend lines of Fig. 5.

use hpcsim::{
    simulate_fpp_write, simulate_hdf5_shared_write, simulate_shared_file_write,
    simulate_spio_write, MachineModel, WriteBreakdown,
};
use spio_core::plan::plan_write;
use spio_types::{Aabb3, DomainDecomposition, PartitionFactor, SpioError, PARTICLE_BYTES};

/// One plotted point.
#[derive(Debug, Clone)]
pub struct Point {
    pub procs: usize,
    /// Series label: a partition factor ("2x2x4") or a baseline name.
    pub series: String,
    pub breakdown: WriteBreakdown,
}

impl Point {
    pub fn throughput_gbs(&self) -> f64 {
        self.breakdown.throughput() / 1e9
    }
}

/// The partition-factor series the paper plots for each machine (§5.2:
/// Mira skips (1,1,2) and (1,2,2) after preliminary runs showed larger
/// factors win there).
pub fn configs_for(machine: &MachineModel) -> Vec<PartitionFactor> {
    let mut v = vec![PartitionFactor::new(1, 1, 1)];
    if machine.name == "theta" {
        v.push(PartitionFactor::new(1, 1, 2));
        v.push(PartitionFactor::new(1, 2, 2));
    }
    v.push(PartitionFactor::new(2, 2, 2));
    v.push(PartitionFactor::new(2, 2, 4));
    v.push(PartitionFactor::new(2, 4, 4));
    if machine.name == "theta" {
        v.push(PartitionFactor::new(4, 4, 4));
    }
    v
}

/// Simulate one spatially-aware configuration.
pub fn spio_point(
    machine: &MachineModel,
    procs: usize,
    per_core: u64,
    factor: PartitionFactor,
) -> Result<Point, SpioError> {
    let decomp = DomainDecomposition::for_procs(Aabb3::new([0.0; 3], [1.0; 3]), procs);
    let counts = vec![per_core; procs];
    let plan = plan_write(&decomp, factor, &counts, false)?;
    Ok(Point {
        procs,
        series: factor.to_string(),
        breakdown: simulate_spio_write(&plan, machine),
    })
}

/// Simulate the full Fig. 5 panel for one machine and workload.
pub fn weak_scaling(
    machine: &MachineModel,
    procs_list: &[usize],
    per_core: u64,
) -> Result<Vec<Point>, SpioError> {
    let bytes_per_rank = per_core * PARTICLE_BYTES as u64;
    let mut points = Vec::new();
    for &procs in procs_list {
        for factor in configs_for(machine) {
            points.push(spio_point(machine, procs, per_core, factor)?);
        }
        points.push(Point {
            procs,
            series: "IOR-FPP".into(),
            breakdown: simulate_fpp_write(procs, bytes_per_rank, machine),
        });
        points.push(Point {
            procs,
            series: "IOR-collective".into(),
            breakdown: simulate_shared_file_write(procs, bytes_per_rank, machine),
        });
        points.push(Point {
            procs,
            series: "PHDF5".into(),
            breakdown: simulate_hdf5_shared_write(procs, bytes_per_rank, machine),
        });
    }
    Ok(points)
}

/// Best spatially-aware throughput at a process count (helper for the
/// paper's headline numbers); `None` if no configuration ran there.
pub fn best_spio_throughput(points: &[Point], procs: usize) -> Option<(String, f64)> {
    points
        .iter()
        .filter(|p| p.procs == procs && p.series.contains('x'))
        .map(|p| (p.series.clone(), p.throughput_gbs()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// Throughput of a named series at a process count.
pub fn series_throughput(points: &[Point], series: &str, procs: usize) -> f64 {
    points
        .iter()
        .find(|p| p.procs == procs && p.series == series)
        .map(|p| p.throughput_gbs())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SCALING_PROCS;
    use hpcsim::{mira, theta};

    // Shape assertions distilled from Fig. 5 and §5.2's narrative. These
    // use a reduced process list to keep test time low; the binaries print
    // the full sweep.

    #[test]
    fn mira_fpp_saturates_but_aggregated_configs_keep_scaling() {
        let m = mira();
        let pts = weak_scaling(&m, &SCALING_PROCS, 32 * 1024).unwrap();
        // FPP throughput gains flatten: the last doubling buys < 35%.
        let fpp_128k = series_throughput(&pts, "IOR-FPP", 131_072);
        let fpp_256k = series_throughput(&pts, "IOR-FPP", 262_144);
        assert!(
            fpp_256k < fpp_128k * 1.35,
            "Mira FPP must saturate: {fpp_128k} → {fpp_256k}"
        );
        // (2,4,4) keeps scaling to the top and beats FPP at 256 Ki by a lot.
        let agg_256k = series_throughput(&pts, "2x4x4", 262_144);
        assert!(
            agg_256k > 2.0 * fpp_256k,
            "2x4x4 {agg_256k} must beat FPP {fpp_256k} at 256Ki"
        );
        let agg_128k = series_throughput(&pts, "2x4x4", 131_072);
        assert!(agg_256k > agg_128k, "still scaling at the top end");
    }

    #[test]
    fn mira_larger_factors_win_at_scale() {
        let m = mira();
        let pts = weak_scaling(&m, &[262_144], 32 * 1024).unwrap();
        let (best, _) = best_spio_throughput(&pts, 262_144).unwrap();
        assert!(
            best == "2x4x4" || best == "2x2x4",
            "Mira prefers large factors at scale, got {best}"
        );
    }

    #[test]
    fn theta_fpp_strong_early_then_overtaken() {
        let m = theta();
        let pts = weak_scaling(&m, &SCALING_PROCS, 32 * 1024).unwrap();
        // Early on, FPP is at least competitive with (1,2,2).
        let fpp_4k = series_throughput(&pts, "IOR-FPP", 4096);
        let agg_4k = series_throughput(&pts, "1x2x2", 4096);
        assert!(
            fpp_4k >= agg_4k * 0.9,
            "FPP should be strong early on Theta: {fpp_4k} vs {agg_4k}"
        );
        // §5.2: (1,2,2) finally outperforms FPP at 65 536 processes.
        let fpp_64k = series_throughput(&pts, "IOR-FPP", 65_536);
        let agg_64k = series_throughput(&pts, "1x2x2", 65_536);
        assert!(
            agg_64k > fpp_64k,
            "(1,2,2) must overtake FPP at 64Ki: {agg_64k} vs {fpp_64k}"
        );
        let fpp_256k = series_throughput(&pts, "IOR-FPP", 262_144);
        let agg_256k = series_throughput(&pts, "1x2x2", 262_144);
        assert!(agg_256k > 1.2 * fpp_256k);
    }

    #[test]
    fn theta_small_factors_beat_large_ones() {
        let m = theta();
        let pts = weak_scaling(&m, &[262_144], 32 * 1024).unwrap();
        let small = series_throughput(&pts, "1x2x2", 262_144);
        let large = series_throughput(&pts, "4x4x4", 262_144);
        assert!(
            small > large,
            "Theta prefers small factors: 1x2x2 {small} vs 4x4x4 {large}"
        );
    }

    #[test]
    fn collective_io_never_scales() {
        for m in [mira(), theta()] {
            let pts = weak_scaling(&m, &[512, 32_768, 262_144], 32 * 1024).unwrap();
            let c_small = series_throughput(&pts, "IOR-collective", 512);
            let c_large = series_throughput(&pts, "IOR-collective", 262_144);
            // Collective gains far less than the 512× resource increase.
            assert!(
                c_large < c_small * 32.0,
                "{}: collective must not scale: {c_small} → {c_large}",
                m.name
            );
            // And is far below the best aggregated configuration at scale.
            let (_, best) = best_spio_throughput(&pts, 262_144).unwrap();
            assert!(best > 4.0 * c_large, "{}: {best} vs {c_large}", m.name);
            // PHDF5 tracks collective but slower.
            let h = series_throughput(&pts, "PHDF5", 262_144);
            assert!(h <= c_large);
        }
    }

    #[test]
    fn headline_throughputs_roughly_match_paper() {
        // §5.2: ~98 GB/s on Mira; 216 (32Ki) / 243 (64Ki) GB/s on Theta at
        // 262 144 processes. We require the same order of magnitude
        // (within ~2×) and the Theta > Mira ordering.
        let mira_pts = weak_scaling(&mira(), &[262_144], 32 * 1024).unwrap();
        let (_, mira_best) = best_spio_throughput(&mira_pts, 262_144).unwrap();
        assert!(
            mira_best > 49.0 && mira_best < 196.0,
            "Mira best ≈98 GB/s, got {mira_best}"
        );
        let theta_pts = weak_scaling(&theta(), &[262_144], 32 * 1024).unwrap();
        let (_, theta_best) = best_spio_throughput(&theta_pts, 262_144).unwrap();
        assert!(
            theta_best > 108.0 && theta_best < 432.0,
            "Theta best ≈216 GB/s, got {theta_best}"
        );
        assert!(theta_best > mira_best);
    }

    #[test]
    fn sixtyfour_ki_workload_also_simulates() {
        let pts = weak_scaling(&theta(), &[512, 262_144], 64 * 1024).unwrap();
        assert!(pts.iter().all(|p| p.breakdown.total() > 0.0));
        // 64 Ki particles/core at 262 144 ranks ⇒ ~2 TB per timestep.
        let p = pts
            .iter()
            .find(|p| p.procs == 262_144 && p.series == "1x2x2")
            .unwrap();
        assert!(p.breakdown.bytes > 2_000_000_000_000);
    }
}
