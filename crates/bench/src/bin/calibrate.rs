//! Internal calibration probe: prints the numbers behind every shape test
//! so machine constants can be tuned. Not part of the paper's figure set.

use spio_bench::{fig11, fig5, fig7, fig8, SCALING_PROCS};
use spio_types::SpioError;

fn main() -> Result<(), SpioError> {
    for machine in [hpcsim::mira(), hpcsim::theta()] {
        println!("== fig5 {} 32Ki ==", machine.name);
        let pts = fig5::weak_scaling(&machine, &SCALING_PROCS, 32 * 1024)?;
        let mut series: Vec<String> = pts.iter().map(|p| p.series.clone()).collect();
        series.dedup();
        let uniq: Vec<String> = {
            let mut s = series.clone();
            s.sort();
            s.dedup();
            s
        };
        print!("{:>8}", "procs");
        for s in &uniq {
            print!("{s:>16}");
        }
        println!();
        for &procs in &SCALING_PROCS {
            print!("{procs:>8}");
            for s in &uniq {
                print!("{:>16.2}", fig5::series_throughput(&pts, s, procs));
            }
            println!();
        }
        println!();
    }

    for machine in [hpcsim::mira(), hpcsim::theta()] {
        println!(
            "== fig6 {} 32Ki breakdown at 32768 (agg frac | agg s | io s) ==",
            machine.name
        );
        for b in spio_bench::fig6::time_breakdown(&machine, 32 * 1024)? {
            println!(
                "{:>8}  {:>6.3}  {:>8.3}  {:>8.3}",
                b.config.to_string(),
                b.aggregation_fraction,
                b.aggregation_secs,
                b.file_io_secs
            );
        }
        println!();
    }

    println!("== fig7 theta ==");
    let pts = fig7::read_scaling(&hpcsim::theta(), &fig7::THETA_READERS)?;
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "readers", "meta", "no-meta", "fpp+meta"
    );
    for &n in &fig7::THETA_READERS {
        println!(
            "{n:>8} {:>14.2} {:>14.2} {:>14.2}",
            fig7::time_of(&pts, fig7::Case::AggWithMeta, n),
            fig7::time_of(&pts, fig7::Case::AggWithoutMeta, n),
            fig7::time_of(&pts, fig7::Case::FppWithMeta, n)
        );
    }
    println!("== fig7 workstation ==");
    let pts = fig7::read_scaling(&hpcsim::workstation(), &fig7::WORKSTATION_READERS)?;
    for &n in &fig7::WORKSTATION_READERS {
        println!(
            "{n:>8} {:>14.2} {:>14.2} {:>14.2}",
            fig7::time_of(&pts, fig7::Case::AggWithMeta, n),
            fig7::time_of(&pts, fig7::Case::AggWithoutMeta, n),
            fig7::time_of(&pts, fig7::Case::FppWithMeta, n)
        );
    }

    for machine in [hpcsim::theta(), hpcsim::workstation()] {
        println!("== fig8 {} (level: time bytes/reader) ==", machine.name);
        for p in fig8::lod_sweep(&machine)? {
            println!(
                "{:>4} {:>10.3}s {:>12.1}MB",
                p.level,
                p.time,
                p.bytes as f64 / 64.0 / 1e6
            );
        }
    }

    for machine in [hpcsim::mira(), hpcsim::theta()] {
        println!(
            "== fig11 {} (coverage: nonadaptive adaptive) ==",
            machine.name
        );
        let pts = fig11::adaptive_sweep(&machine)?;
        for &cov in &fig11::COVERAGES {
            println!(
                "{cov:>6}: {:>8.3} {:>8.3}",
                fig11::time_of(&pts, cov, false),
                fig11::time_of(&pts, cov, true)
            );
        }
    }
    Ok(())
}
