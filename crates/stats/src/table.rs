//! Plain-text table formatting for experiment output.

use std::fmt::Write as _;

/// A right-aligned plain-text table builder.
///
/// # Examples
///
/// ```
/// use stats::Table;
///
/// let mut t = Table::new(&["N", "EDF (µs)", "PD2 (µs)"]);
/// t.row_owned(vec!["15".into(), "0.53".into(), "1.02".into()]);
/// t.row_owned(vec!["1000".into(), "2.48".into(), "7.91".into()]);
/// let s = t.render();
/// assert!(s.contains("N"));
/// assert!(s.lines().count() == 4); // header + rule + 2 rows
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header count.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// True iff no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with right-aligned columns, a header rule, and two-space
    /// separators.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[i]);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        for (i, w) in widths.iter().enumerate().take(cols) {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&"-".repeat(*w));
        }
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders as CSV (no quoting — experiment cells are numeric).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["x", "value"]);
        t.row_owned(row(&["1", "10.5"]))
            .row_owned(row(&["100", "3.25"]));
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        // Right-aligned: "  1" under "  x".
        assert!(lines[2].starts_with("  1"));
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new(&["a", "b"]);
        t.row_owned(row(&["1", "2"]));
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row_owned(row(&["only one"]));
    }

    #[test]
    fn empty_table() {
        let t = Table::new(&["h"]);
        assert!(t.is_empty());
        assert_eq!(t.render().lines().count(), 2);
    }
}
