//! Ablation studies beyond the paper's figures: §7 weight-rebalanced
//! adaptive aggregation, and partition-factor sensitivity.

use spio_bench::ablation;
use spio_bench::table::{print_table, secs};
use spio_types::SpioError;

fn main() -> Result<(), SpioError> {
    println!("Ablation 1 — §7 rebalanced adaptive grid vs §6 bounding-box grid");
    println!("(4096 ranks, heavy x-band holds 8x the base load)\n");
    for machine in [hpcsim::mira(), hpcsim::theta()] {
        println!("{}:", machine.name);
        let rows = ablation::balanced_aggregation(&machine, 4096, &[0.5, 0.25, 0.125], 8)?;
        let header = vec![
            "heavy band".to_string(),
            "bbox imbalance".to_string(),
            "balanced imbalance".to_string(),
            "bbox time (s)".to_string(),
            "balanced time (s)".to_string(),
        ];
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.1}%", r.skew * 100.0),
                    format!("{:.2}x", r.bbox_imbalance),
                    format!("{:.2}x", r.balanced_imbalance),
                    secs(r.bbox_time),
                    secs(r.balanced_time),
                ]
            })
            .collect();
        print_table(&header, &table);
        println!();
    }

    println!("Ablation 2 — §3.2 aggregator placement under node contention");
    println!("(4096 ranks, aggregation-phase seconds)\n");
    for machine in [hpcsim::mira(), hpcsim::theta()] {
        println!("{}:", machine.name);
        let rows = spio_bench::ablation::aggregator_placement(&machine, 4096, 32 * 1024)?;
        let header = vec![
            "factor".to_string(),
            "uniform rank-space".to_string(),
            "partition-local".to_string(),
        ];
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| vec![r.factor.to_string(), secs(r.uniform_agg), secs(r.local_agg)])
            .collect();
        print_table(&header, &table);
        println!();
    }

    println!("Ablation 3 — partition-factor sensitivity at 65,536 ranks, 32Ki/core\n");
    for machine in [hpcsim::mira(), hpcsim::theta()] {
        println!("{}:", machine.name);
        let rows = ablation::partition_factor_sensitivity(&machine, 65_536, 32 * 1024)?;
        let header = vec!["factor".to_string(), "GB/s".to_string()];
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| vec![r.factor.to_string(), format!("{:.2}", r.throughput_gbs)])
            .collect();
        print_table(&header, &table);
        let best = rows.iter().map(|r| r.throughput_gbs).fold(0.0f64, f64::max);
        let worst = rows
            .iter()
            .map(|r| r.throughput_gbs)
            .fold(f64::MAX, f64::min);
        println!("best/worst ratio: {:.1}x\n", best / worst);
    }
    println!(
        "Takeaways: weight rebalancing (a §7 future-work item, implemented here) \
         removes the load imbalance bounding-box adaptivity leaves behind at no \
         simulated cost; and the partition factor is worth several-fold \
         throughput on both machines, justifying its exposure as a tuning knob."
    );
    Ok(())
}
