//! Plain-text table formatting for the experiment harness (no external
//! table crates; the benches and examples share these helpers).

/// Renders an aligned ASCII table. `headers.len()` must match every row.
///
/// ```
/// let t = icgmm::report::format_table(
///     &["benchmark", "miss %"],
///     &[vec!["parsec".into(), "1.47".into()]],
/// );
/// assert!(t.contains("parsec"));
/// assert!(t.contains("benchmark"));
/// ```
///
/// # Panics
///
/// Panics when a row's length differs from the header's.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(
            r.len(),
            headers.len(),
            "row {i} has {} cells, expected {}",
            r.len(),
            headers.len()
        );
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (w, cell) in widths.iter_mut().zip(r) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let sep: String = widths
        .iter()
        .map(|w| format!("-{}-", "-".repeat(*w)))
        .collect::<Vec<_>>()
        .join("+");
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect::<Vec<_>>()
            .join("|")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with fixed precision (sugar for table cells).
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = format_table(
            &["a", "bench"],
            &[
                vec!["1".into(), "x".into()],
                vec!["222".into(), "yy".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[1].contains('+'));
    }

    #[test]
    #[should_panic(expected = "row 0")]
    fn ragged_rows_panic() {
        let _ = format_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn numeric_helpers() {
        assert_eq!(f(1.2345, 2), "1.23");
    }
}
