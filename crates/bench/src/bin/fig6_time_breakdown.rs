//! Regenerates Fig. 6: percentage of write time spent in data aggregation
//! (communication) vs file I/O, for each aggregation configuration, at
//! 32 768 processes, on Mira and Theta with both workloads.

use spio_bench::fig6;
use spio_bench::table::{pct, print_table, secs};
use spio_types::SpioError;

fn main() -> Result<(), SpioError> {
    for machine in [hpcsim::mira(), hpcsim::theta()] {
        for per_core in [32 * 1024u64, 64 * 1024] {
            println!(
                "\nFig. 6 — {} — {}K particles per core — {} processes",
                machine.name,
                per_core / 1024,
                fig6::FIG6_PROCS
            );
            let header = vec![
                "config".to_string(),
                "aggregation".to_string(),
                "file I/O".to_string(),
                "agg (s)".to_string(),
                "io (s)".to_string(),
            ];
            let rows: Vec<Vec<String>> = fig6::time_breakdown(&machine, per_core)?
                .into_iter()
                .map(|b| {
                    vec![
                        b.config.to_string(),
                        pct(b.aggregation_fraction),
                        pct(1.0 - b.aggregation_fraction),
                        secs(b.aggregation_secs),
                        secs(b.file_io_secs),
                    ]
                })
                .collect();
            print_table(&header, &rows);
        }
    }
    println!(
        "\nSupplementary: REAL execution on this machine (64 thread-ranks, 20k \
         particles/rank, in-memory storage). Note the trade-off flips here: on a \
         shared-memory \"network\", aggregation is nearly free while large \
         factors serialize buffer assembly on single aggregator threads — a \
         third data point for the paper's argument that the best factor is \
         machine-dependent and must stay user-tunable."
    );
    let header = vec![
        "config".to_string(),
        "aggregation".to_string(),
        "agg (s)".to_string(),
        "io (s)".to_string(),
        "trace agg (s)".to_string(),
        "trace io (s)".to_string(),
        "drift".to_string(),
    ];
    let real = fig6::time_breakdown_real(64, 20_000)?;
    let rows: Vec<Vec<String>> = real
        .iter()
        .map(|rb| {
            vec![
                rb.bar.config.to_string(),
                pct(rb.bar.aggregation_fraction),
                secs(rb.bar.aggregation_secs),
                secs(rb.bar.file_io_secs),
                secs(rb.trace_aggregation_secs),
                secs(rb.trace_file_io_secs),
                pct(rb.trace_disagreement()),
            ]
        })
        .collect();
    print_table(&header, &rows);
    let worst = real
        .iter()
        .map(|rb| rb.trace_disagreement())
        .fold(0.0f64, f64::max);
    if worst > 0.05 {
        return Err(SpioError::Config(format!(
            "trace-derived breakdown drifted {:.1}% from WriteStats",
            worst * 100.0
        )));
    }
    println!(
        "trace cross-check: phase spans agree with WriteStats within {} (<= 5% required)",
        pct(worst)
    );

    println!(
        "\nPaper reference (Fig. 6): aggregation share grows with the partition \
         factor, stays small on Mira, and is much larger on Theta — favouring \
         smaller factors there."
    );
    Ok(())
}
