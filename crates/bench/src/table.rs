//! Tiny fixed-width table printer for the experiment binaries.

/// Print a header row followed by data rows, all columns right-aligned to
/// the widest cell.
pub fn print_table(header: &[String], rows: &[Vec<String>]) {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i.min(widths.len() - 1)]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format seconds with 3 significant decimals.
pub fn secs(t: f64) -> String {
    format!("{t:.3}")
}

/// Format a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(1.23456), "1.235");
        assert_eq!(pct(0.256), "25.6%");
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            &["a".into(), "b".into()],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
    }
}
