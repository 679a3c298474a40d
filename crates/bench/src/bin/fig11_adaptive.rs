//! Regenerates Fig. 11: write time of adaptive vs non-adaptive aggregation
//! as the fraction of the domain containing particles shrinks from 100 %
//! to 12.5 %, at 4096 cores, on Mira and Theta.

use spio_bench::fig11;
use spio_bench::table::{print_table, secs};
use spio_types::SpioError;

fn main() -> Result<(), SpioError> {
    for machine in [hpcsim::mira(), hpcsim::theta()] {
        println!(
            "\nFig. 11 — {} — {} cores, factor 2x2x2, {}K particles per occupied core",
            machine.name,
            fig11::PROCS,
            fig11::PER_RANK / 1024
        );
        let points = fig11::adaptive_sweep(&machine)?;
        let header = vec![
            "coverage".to_string(),
            "non-adaptive (s)".to_string(),
            "adaptive (s)".to_string(),
            "non-adaptive files".to_string(),
            "adaptive files".to_string(),
        ];
        let rows: Vec<Vec<String>> = fig11::COVERAGES
            .iter()
            .map(|&cov| {
                let files = |ad: bool| {
                    points
                        .iter()
                        .find(|p| (p.coverage - cov).abs() < 1e-9 && p.adaptive == ad)
                        .map_or("-".to_string(), |p| p.files.to_string())
                };
                vec![
                    format!("{:.1}%", cov * 100.0),
                    secs(fig11::time_of(&points, cov, false)),
                    secs(fig11::time_of(&points, cov, true)),
                    files(false),
                    files(true),
                ]
            })
            .collect();
        print_table(&header, &rows);
    }
    println!(
        "\nPaper reference (Fig. 11): adaptive aggregation improves on the \
         non-adaptive scheme on both machines; on Mira the improvement grows \
         markedly as coverage shrinks, on Theta performance is nearly constant."
    );
    Ok(())
}
