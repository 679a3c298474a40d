//! Regenerates Fig. 8: time to read progressively more levels of detail
//! from the 2-billion-particle dataset with 64 readers (P = 32, S = 2,
//! up to level 20), on Theta and the SSD workstation.

use spio_bench::fig8;
use spio_bench::table::{print_table, secs};
use spio_types::SpioError;

fn main() -> Result<(), SpioError> {
    for machine in [hpcsim::theta(), hpcsim::workstation()] {
        println!(
            "\nFig. 8 — {} — LOD read time with {} readers",
            machine.name,
            fig8::READERS
        );
        let header = vec![
            "levels".to_string(),
            "time (s)".to_string(),
            "MB/reader".to_string(),
        ];
        let rows: Vec<Vec<String>> = fig8::lod_sweep(&machine)?
            .into_iter()
            .map(|p| {
                vec![
                    p.level.to_string(),
                    secs(p.time),
                    format!("{:.1}", p.bytes as f64 / fig8::READERS as f64 / 1e6),
                ]
            })
            .collect();
        print_table(&header, &rows);
    }
    println!(
        "\nPaper reference (Fig. 8): on Theta the first ~8 levels cost about the \
         same (file opens dominate), then time grows with the particle volume; \
         on the SSD workstation time grows with volume from early levels, and \
         low-LOD reads are fast enough for interactive use."
    );
    Ok(())
}
