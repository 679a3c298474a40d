//! Regenerates Fig. 7: visualization-style read strong scaling of a
//! 2-billion-particle dataset (written at 64 Ki cores) on Theta
//! (64 → 2048 readers) and an SSD workstation (1 → 64 readers), for the
//! three dataset variants the paper compares.

use spio_bench::fig7::{self, Case};
use spio_bench::table::{print_table, secs};
use spio_types::SpioError;

fn main() -> Result<(), SpioError> {
    let cases = [Case::AggWithMeta, Case::AggWithoutMeta, Case::FppWithMeta];
    for (machine, readers) in [
        (hpcsim::theta(), fig7::THETA_READERS.to_vec()),
        (hpcsim::workstation(), fig7::WORKSTATION_READERS.to_vec()),
    ] {
        println!(
            "\nFig. 7 — {} — read time (s) for a {} particle dataset",
            machine.name,
            (fig7::WRITER_PROCS as u64) * fig7::PARTICLES_PER_WRITER
        );
        let points = fig7::read_scaling(&machine, &readers)?;
        let mut header = vec!["readers".to_string()];
        header.extend(cases.iter().map(|c| c.label().to_string()));
        let rows: Vec<Vec<String>> = readers
            .iter()
            .map(|&n| {
                let mut row = vec![n.to_string()];
                for &c in &cases {
                    row.push(secs(fig7::time_of(&points, c, n)));
                }
                row
            })
            .collect();
        print_table(&header, &rows);
    }
    println!(
        "\nPaper reference (Fig. 7): with spatial metadata reads strong-scale; \
         without it every reader scans all files and performance is worst and \
         non-scaling; the 64Ki-file FPP layout pays heavily on Theta but is \
         almost comparable on the SSD workstation."
    );
    Ok(())
}
