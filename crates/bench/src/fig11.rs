//! Fig. 11: adaptive vs non-adaptive aggregation under shrinking particle
//! coverage.
//!
//! 4096 cores; particles occupy 100 % → 50 % → 25 % → 12.5 % of the domain
//! (occupied patches keep their per-patch load, per §6's injected-particle
//! framing). The non-adaptive grid assigns aggregators to empty regions
//! (Fig. 10e) and writes empty files for them; the adaptive grid covers
//! only the occupied region (Fig. 10f).

use hpcsim::{simulate_spio_write, MachineModel, WriteBreakdown};
use spio_core::plan::plan_write;
use spio_types::{Aabb3, DomainDecomposition, PartitionFactor, SpioError};
use spio_workloads::coverage_counts_density;

/// The paper's Fig. 11 job size.
pub const PROCS: usize = 4096;
/// Particles per occupied process (the paper's smaller weak-scaling load).
pub const PER_RANK: u64 = 32 * 1024;
/// Coverage fractions swept in the paper.
pub const COVERAGES: [f64; 4] = [1.0, 0.5, 0.25, 0.125];

/// One plotted point.
#[derive(Debug, Clone)]
pub struct Point {
    pub coverage: f64,
    pub adaptive: bool,
    pub breakdown: WriteBreakdown,
    pub files: usize,
}

/// Run the sweep on one machine.
pub fn adaptive_sweep(machine: &MachineModel) -> Result<Vec<Point>, SpioError> {
    let decomp = DomainDecomposition::for_procs(Aabb3::new([0.0; 3], [1.0; 3]), PROCS);
    let factor = PartitionFactor::new(2, 2, 2);
    let mut out = Vec::new();
    for &coverage in &COVERAGES {
        let counts = coverage_counts_density(&decomp, coverage, PER_RANK);
        for adaptive in [false, true] {
            let plan = plan_write(&decomp, factor, &counts, adaptive)?;
            out.push(Point {
                coverage,
                adaptive,
                breakdown: simulate_spio_write(&plan, machine),
                files: plan.partition_count,
            });
        }
    }
    Ok(out)
}

/// Lookup helper.
pub fn time_of(points: &[Point], coverage: f64, adaptive: bool) -> f64 {
    points
        .iter()
        .find(|p| (p.coverage - coverage).abs() < 1e-9 && p.adaptive == adaptive)
        .map(|p| p.breakdown.total())
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim::{mira, theta};

    #[test]
    fn file_counts_follow_the_grids() {
        let pts = adaptive_sweep(&mira()).unwrap();
        let files = |cov: f64, ad: bool| {
            pts.iter()
                .find(|p| (p.coverage - cov).abs() < 1e-9 && p.adaptive == ad)
                .unwrap()
                .files
        };
        // Non-adaptive always builds the full 8×8×8 partition grid.
        for cov in COVERAGES {
            assert_eq!(files(cov, false), 512);
        }
        // Adaptive covers only the occupied band.
        assert_eq!(files(1.0, true), 512);
        assert_eq!(files(0.5, true), 256);
        assert_eq!(files(0.25, true), 128);
        assert_eq!(files(0.125, true), 64);
    }

    #[test]
    fn adaptive_wins_on_both_machines_below_full_coverage() {
        // Fig. 11: "overall we find that adaptive aggregation yields
        // improvement over non-adaptive aggregation" on both machines.
        for m in [mira(), theta()] {
            let pts = adaptive_sweep(&m).unwrap();
            for cov in [0.5, 0.25, 0.125] {
                let a = time_of(&pts, cov, true);
                let n = time_of(&pts, cov, false);
                assert!(
                    a < n,
                    "{} cov {cov}: adaptive {a} must beat non-adaptive {n}",
                    m.name
                );
            }
            // At full coverage the two grids coincide.
            let a = time_of(&pts, 1.0, true);
            let n = time_of(&pts, 1.0, false);
            assert!((a - n).abs() / n < 0.05, "{}: {a} vs {n}", m.name);
        }
    }

    #[test]
    fn mira_adaptive_improves_markedly_as_coverage_shrinks() {
        // Fig. 11 (Mira): "as the domain occupied by particles decreases
        // from 100% to 50%, I/O time reduces significantly with adaptive
        // aggregation. The reduction … with non-adaptive aggregation is not
        // as significant."
        let pts = adaptive_sweep(&mira()).unwrap();
        let a100 = time_of(&pts, 1.0, true);
        let a50 = time_of(&pts, 0.5, true);
        assert!(
            a50 < 0.75 * a100,
            "adaptive must drop significantly: {a100} → {a50}"
        );
        let n100 = time_of(&pts, 1.0, false);
        let n50 = time_of(&pts, 0.5, false);
        let adaptive_drop = (a100 - a50) / a100;
        let nonadaptive_drop = (n100 - n50) / n100;
        assert!(
            adaptive_drop > nonadaptive_drop,
            "adaptive drop {adaptive_drop} vs non-adaptive {nonadaptive_drop}"
        );
        // And the relative gap keeps widening toward 12.5 % coverage.
        let gap50 = time_of(&pts, 0.5, false) / time_of(&pts, 0.5, true);
        let gap125 = time_of(&pts, 0.125, false) / time_of(&pts, 0.125, true);
        assert!(gap125 > gap50, "gap grows: {gap50} → {gap125}");
    }

    #[test]
    fn theta_adaptive_is_roughly_flat() {
        // Fig. 11 (Theta): "we observe almost constant performance on
        // Theta (green line)" — the OSTs are shared and placement of
        // aggregators matters less.
        let pts = adaptive_sweep(&theta()).unwrap();
        let times: Vec<f64> = COVERAGES.iter().map(|&c| time_of(&pts, c, true)).collect();
        let max = times.iter().cloned().fold(0.0, f64::max);
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 3.0,
            "Theta adaptive should vary little: {times:?}"
        );
        // Coverage effects on Theta are much milder than on Mira.
        let mira_pts = adaptive_sweep(&mira()).unwrap();
        let mira_ratio = time_of(&mira_pts, 1.0, true) / time_of(&mira_pts, 0.125, true);
        let theta_ratio = time_of(&pts, 1.0, true) / time_of(&pts, 0.125, true);
        assert!(mira_ratio > theta_ratio);
    }
}
