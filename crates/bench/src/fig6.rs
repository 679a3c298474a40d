//! Fig. 6: time split between data aggregation (communication) and file
//! I/O for different aggregation configurations, at 32 Ki processes, on
//! both machines and both workloads.

use hpcsim::{simulate_spio_write, MachineModel};
use spio_comm::{Comm, TracedComm};
use spio_core::plan::plan_write;
use spio_core::writer::phases;
use spio_core::{MemStorage, SpatialWriter, TracedStorage, WriteStats, WriterConfig};
use spio_trace::{JobReport, Trace};
use spio_types::{Aabb3, DomainDecomposition, PartitionFactor, SpioError};
use spio_workloads::uniform_patch_particles;

/// One bar of Fig. 6.
#[derive(Debug, Clone)]
pub struct Bar {
    pub config: PartitionFactor,
    /// Fraction of (aggregation + file I/O) spent aggregating.
    pub aggregation_fraction: f64,
    pub aggregation_secs: f64,
    pub file_io_secs: f64,
}

/// The paper's Fig. 6 experiment: 32 768 processes.
pub const FIG6_PROCS: usize = 32_768;

/// Compute the breakdown bars for one machine/workload.
pub fn time_breakdown(machine: &MachineModel, per_core: u64) -> Result<Vec<Bar>, SpioError> {
    crate::fig5::configs_for(machine)
        .into_iter()
        .map(|factor| {
            let decomp = DomainDecomposition::for_procs(Aabb3::new([0.0; 3], [1.0; 3]), FIG6_PROCS);
            let counts = vec![per_core; FIG6_PROCS];
            let plan = plan_write(&decomp, factor, &counts, false)?;
            let b = simulate_spio_write(&plan, machine);
            Ok(Bar {
                config: factor,
                aggregation_fraction: b.aggregation_fraction(),
                aggregation_secs: b.aggregation,
                file_io_secs: b.create + b.data_io,
            })
        })
        .collect()
}

/// One bar of the real-execution breakdown: the [`Bar`] derived from
/// [`spio_core::WriteStats`], plus the same split derived independently
/// from the job's trace phase spans. The two must agree — the writer
/// records both from the same clock reads — so any drift flags an
/// instrumentation bug.
#[derive(Debug, Clone)]
pub struct RealBar {
    pub bar: Bar,
    /// Max-across-ranks aggregation time from the trace's phase spans.
    pub trace_aggregation_secs: f64,
    /// Max-across-ranks file-I/O time from the trace's phase spans.
    pub trace_file_io_secs: f64,
}

impl RealBar {
    /// Relative disagreement between the trace- and stats-derived
    /// aggregation/file-I/O split (0.0 = identical).
    pub fn trace_disagreement(&self) -> f64 {
        let rel = |a: f64, b: f64| {
            if a.max(b) > 0.0 {
                (a - b).abs() / a.max(b)
            } else {
                0.0
            }
        };
        rel(self.trace_aggregation_secs, self.bar.aggregation_secs)
            .max(rel(self.trace_file_io_secs, self.bar.file_io_secs))
    }
}

/// The partition factors the desk-scale Fig. 6 runs sweep, in record
/// order, keeping those valid for the decomposition at `procs` ranks.
pub fn fig6_factors(procs: usize) -> Vec<PartitionFactor> {
    let dims = DomainDecomposition::for_procs(Aabb3::new([0.0; 3], [1.0; 3]), procs).dims;
    [
        PartitionFactor::new(1, 1, 1),
        PartitionFactor::new(2, 2, 1),
        PartitionFactor::new(2, 2, 2),
        PartitionFactor::new(4, 2, 2),
    ]
    .into_iter()
    .filter(|f| f.validate(dims).is_ok())
    .collect()
}

/// Write the desk-scale Fig. 6 dataset on the thread runtime: `per_rank`
/// uniform particles (seed 42) on each of `procs` ranks, aggregated by
/// `factor` into fresh in-memory storage. Ranks exchange through
/// [`TracedComm`], write through [`TracedStorage`] and record their writer
/// phases, all into `trace`; pass [`Trace::off`] for an untraced job.
/// Returns the storage and the max-across-ranks [`WriteStats`].
pub fn write_job(
    procs: usize,
    per_rank: usize,
    factor: PartitionFactor,
    trace: &Trace,
) -> Result<(MemStorage, WriteStats), SpioError> {
    let decomp = DomainDecomposition::for_procs(Aabb3::new([0.0; 3], [1.0; 3]), procs);
    let storage = MemStorage::new();
    let (s, t) = (storage.clone(), trace.clone());
    let stats = crate::run_ranks(procs, move |comm| {
        let rank = comm.rank();
        let comm = TracedComm::new(comm, t.clone());
        let traced = TracedStorage::new(s.clone(), t.clone(), rank);
        let ps = uniform_patch_particles(&decomp, rank, per_rank, 42);
        SpatialWriter::new(decomp.clone(), WriterConfig::new(factor))
            .with_trace(t.clone())
            .write(&comm, &ps, &traced)
    })?;
    Ok((storage, WriteStats::merge_max(&stats)))
}

/// Supplementary desk-scale *real execution*: run the actual writer on the
/// thread runtime at `procs` ranks and report measured per-phase wall
/// times. Absolute values reflect the build machine, but the qualitative
/// Fig. 6 trend — aggregation share grows with the partition factor — is
/// observable in real message traffic, not just the model. Each job runs
/// with a [`Trace`] attached, and the returned bars carry the
/// trace-derived split for cross-checking against `WriteStats`.
pub fn time_breakdown_real(procs: usize, per_rank: usize) -> Result<Vec<RealBar>, SpioError> {
    fig6_factors(procs)
        .into_iter()
        .map(|factor| {
            let trace = Trace::collecting();
            let (_, merged) = write_job(procs, per_rank, factor, &trace)?;
            let agg = merged.aggregation_time.as_secs_f64();
            let io = merged.file_io_time.as_secs_f64();
            let report = JobReport::from_snapshot(procs, &trace.take_snapshot());
            Ok(RealBar {
                bar: Bar {
                    config: factor,
                    aggregation_fraction: if agg + io > 0.0 {
                        agg / (agg + io)
                    } else {
                        0.0
                    },
                    aggregation_secs: agg,
                    file_io_secs: io,
                },
                trace_aggregation_secs: report.phase_max(phases::AGGREGATION).as_secs_f64(),
                trace_file_io_secs: report.phase_max(phases::FILE_IO).as_secs_f64(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim::{mira, theta};

    fn frac(bars: &[Bar], cfg: (usize, usize, usize)) -> f64 {
        bars.iter()
            .find(|b| b.config == PartitionFactor::new(cfg.0, cfg.1, cfg.2))
            .unwrap()
            .aggregation_fraction
    }

    #[test]
    fn aggregation_share_grows_with_partition_size() {
        // Fig. 6: "we observe an increase in aggregation time with more
        // aggregation partitions" — on both machines and both workloads.
        for m in [mira(), theta()] {
            for per_core in [32 * 1024, 64 * 1024] {
                let bars = time_breakdown(&m, per_core).unwrap();
                assert!(frac(&bars, (2, 2, 2)) <= frac(&bars, (2, 2, 4)) + 1e-9);
                assert!(frac(&bars, (2, 2, 4)) <= frac(&bars, (2, 4, 4)) + 1e-9);
                assert_eq!(frac(&bars, (1, 1, 1)), 0.0, "FPP has no aggregation");
            }
        }
    }

    #[test]
    fn mira_aggregation_stays_a_small_share() {
        // Fig. 6a/b: "this percentage remains small compared to the actual
        // file I/O time" on Mira.
        let bars = time_breakdown(&mira(), 32 * 1024).unwrap();
        assert!(
            frac(&bars, (2, 4, 4)) < 0.4,
            "Mira 2x4x4 aggregation share too large: {}",
            frac(&bars, (2, 4, 4))
        );
    }

    #[test]
    fn trace_breakdown_agrees_with_write_stats() {
        // The trace phase spans and WriteStats come from the same clock
        // reads, so the two derivations of the Fig. 6 split must agree to
        // well within 5%.
        for rb in time_breakdown_real(16, 4_000).unwrap() {
            assert!(
                rb.trace_disagreement() <= 0.05,
                "{}: trace ({:.6}s agg / {:.6}s io) vs stats ({:.6}s / {:.6}s)",
                rb.bar.config,
                rb.trace_aggregation_secs,
                rb.trace_file_io_secs,
                rb.bar.aggregation_secs,
                rb.bar.file_io_secs
            );
        }
    }

    #[test]
    fn theta_spends_relatively_more_time_aggregating() {
        // Fig. 6c/d: "on Theta … the aggregation of data over the network
        // is far more expensive than on Mira" for the same configuration.
        for cfg in [(2, 2, 2), (2, 2, 4), (2, 4, 4)] {
            let m = frac(&time_breakdown(&mira(), 32 * 1024).unwrap(), cfg);
            let t = frac(&time_breakdown(&theta(), 32 * 1024).unwrap(), cfg);
            assert!(t > m, "theta {t:.3} must exceed mira {m:.3} for {cfg:?}");
        }
    }
}
