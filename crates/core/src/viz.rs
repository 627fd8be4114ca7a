//! Visualization: ASCII charts and CSV export.
//!
//! stream2gym's visualization module "presents a rich set of statistics to
//! the user, which includes per-port throughput, message latency, and event
//! ordering". We render the same artifacts as terminal-friendly ASCII plots
//! and machine-readable CSV, which is what the figure-regeneration harness
//! writes under `target/figures/`.

use std::fmt::Write as _;

/// Renders an XY line chart as ASCII. Multiple series share the canvas;
/// each uses its own glyph, listed in the legend.
///
/// # Examples
///
/// ```
/// use s2g_core::ascii_chart;
///
/// let s1: Vec<(f64, f64)> = (0..20).map(|x| (x as f64, (x * x) as f64)).collect();
/// let out = ascii_chart("quadratic", &[("x^2", &s1)], 40, 10, "x", "y");
/// assert!(out.contains("quadratic"));
/// assert!(out.contains("x^2"));
/// ```
pub fn ascii_chart(
    title: &str,
    series: &[(&str, &[(f64, f64)])],
    width: usize,
    height: usize,
    x_label: &str,
    y_label: &str,
) -> String {
    const GLYPHS: &[char] = &['*', 'o', '+', 'x', '#', '@', '%', '&'];
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .collect();
    if all.is_empty() {
        let _ = writeln!(out, "(no data)");
        return out;
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for (x, y) in &all {
        x_min = x_min.min(*x);
        x_max = x_max.max(*x);
        y_min = y_min.min(*y);
        y_max = y_max.max(*y);
    }
    if (x_max - x_min).abs() < f64::EPSILON {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < f64::EPSILON {
        y_max = y_min + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for (x, y) in pts.iter() {
            let cx = (((x - x_min) / (x_max - x_min)) * (width - 1) as f64).round() as usize;
            let cy = (((y - y_min) / (y_max - y_min)) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = glyph;
        }
    }
    let _ = writeln!(out, "{y_label}");
    for (i, row) in grid.iter().enumerate() {
        let y_val = y_max - (y_max - y_min) * i as f64 / (height - 1) as f64;
        let line: String = row.iter().collect();
        let _ = writeln!(out, "{y_val:>10.2} |{line}");
    }
    let _ = writeln!(out, "{:>10} +{}", "", "-".repeat(width));
    let _ = writeln!(
        out,
        "{:>12}{x_min:<12.2}{: >pad$}{x_max:.2}  ({x_label})",
        "",
        "",
        pad = width.saturating_sub(24)
    );
    for (si, (name, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "    {} {name}", GLYPHS[si % GLYPHS.len()]);
    }
    out
}

/// Renders a delivery matrix (consumers × messages) as an ASCII heatmap,
/// downsampling the message axis to `width` columns. A cell is dark (`#`)
/// when any message in its bucket was missed — the Fig. 6b artifact.
pub fn ascii_matrix(title: &str, rows: &[(String, &[bool])], width: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "('.' delivered, '#' lost; message order left to right)"
    );
    for (label, cells) in rows {
        if cells.is_empty() {
            let _ = writeln!(out, "{label:>12} | (no messages)");
            continue;
        }
        let mut line = String::with_capacity(width);
        let per_bucket = (cells.len() as f64 / width as f64).max(1.0);
        for b in 0..width.min(cells.len()) {
            let lo = (b as f64 * per_bucket) as usize;
            let hi = (((b + 1) as f64 * per_bucket) as usize).min(cells.len());
            let all_ok = cells[lo..hi.max(lo + 1)].iter().all(|c| *c);
            line.push(if all_ok { '.' } else { '#' });
        }
        let _ = writeln!(out, "{label:>12} |{line}|");
    }
    out
}

/// Serializes series to CSV with an `x` column and one column per series
/// (empty cell when a series has no point at that x).
pub fn csv_series(header_x: &str, series: &[(&str, &[(f64, f64)])]) -> String {
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|(x, _)| *x))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN x"));
    xs.dedup();
    let mut out = String::new();
    let names: Vec<&str> = series.iter().map(|(n, _)| *n).collect();
    let _ = writeln!(out, "{header_x},{}", names.join(","));
    // Each series' point indices by x. `px - x` grows with `px`, so the
    // points within 1e-12 of `x` are one run of this order, found by binary
    // search; the cell is the run's first point in series order.
    let by_x: Vec<Vec<usize>> = (series.iter())
        .map(|(_, pts)| {
            let mut order: Vec<usize> = (0..pts.len()).collect();
            order.sort_by(|a, b| pts[*a].0.total_cmp(&pts[*b].0));
            order
        })
        .collect();
    for x in xs {
        let mut row = format!("{x}");
        for ((_, pts), order) in series.iter().zip(&by_x) {
            let from = order.partition_point(|i| pts[*i].0 - x <= -1e-12);
            let near = order[from..].iter().take_while(|i| pts[**i].0 - x < 1e-12);
            match near.min().map(|i| pts[*i]) {
                Some((_, y)) => {
                    let _ = write!(row, ",{y}");
                }
                None => row.push(','),
            }
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Formats a two-column table (e.g. the Table II inventory).
pub fn ascii_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let _ = writeln!(out, "{}", fmt_row(&header_cells));
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1))
    );
    for row in rows {
        let _ = writeln!(out, "{}", fmt_row(row));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_renders_all_series() {
        let a: Vec<(f64, f64)> = vec![(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)];
        let b: Vec<(f64, f64)> = vec![(0.0, 4.0), (1.0, 2.0), (2.0, 0.0)];
        let out = ascii_chart("t", &[("up", &a), ("down", &b)], 30, 8, "x", "y");
        assert!(out.contains("== t =="));
        assert!(out.contains('*'));
        assert!(out.contains('o'));
        assert!(out.contains("up"));
        assert!(out.contains("down"));
    }

    #[test]
    fn chart_handles_empty() {
        let out = ascii_chart("empty", &[("s", &[])], 10, 5, "x", "y");
        assert!(out.contains("(no data)"));
    }

    #[test]
    fn chart_handles_constant_series() {
        let flat: Vec<(f64, f64)> = vec![(0.0, 1.0), (1.0, 1.0)];
        let out = ascii_chart("flat", &[("s", &flat)], 10, 5, "x", "y");
        assert!(out.contains('*'));
    }

    #[test]
    fn matrix_marks_losses() {
        let row0 = vec![true, true, false, true];
        let row1 = vec![true; 4];
        let out = ascii_matrix("m", &[("c0".into(), &row0), ("c1".into(), &row1)], 4);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[2].contains('#'));
        assert!(!lines[3].contains('#'));
    }

    #[test]
    fn csv_aligns_on_x() {
        let a: Vec<(f64, f64)> = vec![(1.0, 10.0), (2.0, 20.0)];
        let b: Vec<(f64, f64)> = vec![(2.0, 200.0)];
        let csv = csv_series("x", &[("a", &a), ("b", &b)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert_eq!(lines[1], "1,10,");
        assert_eq!(lines[2], "2,20,200");
    }

    #[test]
    fn csv_cell_is_the_first_point_in_series_order_within_tolerance() {
        // Unsorted, with a repeated x and an x 1e-13 from another.
        let a: Vec<(f64, f64)> = vec![(3.0, 30.0), (1.0, 10.0), (3.0, 31.0), (1.0 + 1e-13, 11.0)];
        let csv = csv_series("x", &[("a", &a)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines, ["x,a", "1,10", "1.0000000000001,10", "3,30"]);
    }

    #[test]
    fn table_aligns_columns() {
        let out = ascii_table(
            "apps",
            &["Application", "LoC"],
            &[
                vec!["word count".into(), "167".into()],
                vec!["fraud".into(), "185".into()],
            ],
        );
        assert!(out.contains("Application"));
        assert!(out.contains("word count"));
    }
}
