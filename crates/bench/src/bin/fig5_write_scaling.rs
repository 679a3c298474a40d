//! Regenerates Fig. 5: parallel-write weak scaling on Mira and Theta for
//! 32 Ki and 64 Ki particles per core, across every aggregation
//! configuration the paper plots plus the IOR-FPP, IOR-collective and
//! PHDF5 baselines.
//!
//! Usage: `fig5_write_scaling [--quick]` (`--quick` sweeps fewer process
//! counts).

use spio_bench::table::print_table;
use spio_bench::{fig5, PARTICLES_PER_CORE, SCALING_PROCS};
use spio_types::SpioError;

fn main() -> Result<(), SpioError> {
    let quick = std::env::args().any(|a| a == "--quick");
    let procs: Vec<usize> = if quick {
        vec![512, 4096, 32_768, 262_144]
    } else {
        SCALING_PROCS.to_vec()
    };

    for machine in [hpcsim::mira(), hpcsim::theta()] {
        for &per_core in &PARTICLES_PER_CORE {
            println!(
                "\nFig. 5 — {} — {} particles per core — write throughput (GB/s)",
                machine.name,
                per_core / 1024 * 1024
            );
            let points = fig5::weak_scaling(&machine, &procs, per_core)?;
            let mut series: Vec<String> = Vec::new();
            for p in &points {
                if !series.contains(&p.series) {
                    series.push(p.series.clone());
                }
            }
            let mut header = vec!["procs".to_string()];
            header.extend(series.iter().cloned());
            let rows: Vec<Vec<String>> = procs
                .iter()
                .map(|&n| {
                    let mut row = vec![n.to_string()];
                    for s in &series {
                        row.push(format!("{:.2}", fig5::series_throughput(&points, s, n)));
                    }
                    row
                })
                .collect();
            print_table(&header, &rows);
            let largest = procs.last().copied().unwrap_or_default();
            if let Some((best_cfg, best)) = fig5::best_spio_throughput(&points, largest) {
                println!(
                    "max spatially-aware throughput at {largest} procs: {best:.1} GB/s with {best_cfg}"
                );
            }
        }
    }
    println!(
        "\nPaper reference (§5.2): ~98 GB/s max on Mira; 216 / 243 GB/s on Theta \
         (32 Ki / 64 Ki) at 262,144 processes; FPP 83 / 160 GB/s on Theta."
    );
    Ok(())
}
