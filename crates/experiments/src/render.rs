//! ASCII rendering of figures for terminal reports.

use crate::series::Figure;

/// Renders a figure as an aligned ASCII table: one row per x, one
/// column per series.
pub fn to_table(fig: &Figure) -> String {
    let mut xs: Vec<f64> = fig
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.x))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN x"));
    xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

    let mut out = String::new();
    out.push_str(&format!("# {} — {}\n", fig.id, fig.title));
    let mut header = format!("{:>12}", fig.x_label);
    for s in &fig.series {
        header.push_str(&format!(" | {:>24}", s.label));
    }
    out.push_str(&header);
    out.push('\n');
    out.push_str(&"-".repeat(header.len()));
    out.push('\n');
    for &x in &xs {
        let mut row = format!("{x:>12.0}");
        for s in &fig.series {
            match s.y_at(x) {
                Some(y) => row.push_str(&format!(" | {y:>24.3}")),
                None => row.push_str(&format!(" | {:>24}", "-")),
            }
        }
        out.push_str(&row);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{Figure, Series};

    fn fig() -> Figure {
        Figure::new("figX", "demo", "nodes", "GB/s")
            .with_series(Series::from_xy("VAST", [(1.0, 1.0), (2.0, 2.0)]))
            .with_series(Series::from_xy("GPFS", [(1.0, 14.5)]))
    }

    #[test]
    fn table_contains_all_labels_and_rows() {
        let t = to_table(&fig());
        assert!(t.contains("VAST"));
        assert!(t.contains("GPFS"));
        assert!(t.contains("14.5"));
        assert!(t.lines().count() >= 5);
        // Missing point renders as '-'.
        assert!(t.contains('-'));
    }
}
