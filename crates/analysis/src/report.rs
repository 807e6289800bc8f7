//! Plain-text table formatting for the experiment harnesses.
//!
//! Every bench target prints the rows/series the corresponding paper table or
//! figure reports; this module provides the small fixed-width table writer
//! they share so the output is uniform and diffable.

use std::fmt::Write as _;

/// A simple fixed-width text table.
#[derive(Debug, Clone)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        TextTable {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header list are padded with
    /// empty cells; longer rows are truncated.
    pub fn add_row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.iter().take(self.headers.len()).cloned().collect();
        while row.len() < self.headers.len() {
            row.push(String::new());
        }
        self.rows.push(row);
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut parts = Vec::with_capacity(cells.len());
            for (i, c) in cells.iter().enumerate() {
                parts.push(format!("{:<width$}", c, width = widths[i]));
            }
            let _ = writeln!(out, "| {} |", parts.join(" | "));
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = TextTable::new("Table 1", &["state", "power"]);
        t.add_row(&["PC0idle".to_owned(), "49.50 W".to_owned()]);
        t.add_row(&["PC1A".to_owned(), "29.10 W".to_owned()]);
        let s = t.render();
        assert!(s.contains("== Table 1 =="));
        assert!(s.contains("| PC0idle | 49.50 W |"));
        assert!(s.contains("| PC1A    | 29.10 W |"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new("x", &["a", "b", "c"]);
        t.add_row(&["1".to_owned()]);
        let s = t.render();
        assert!(s.contains("| 1 |"));
    }

    #[test]
    fn long_rows_are_truncated() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.add_row(&["1".to_owned(), "2".to_owned(), "dropped".to_owned()]);
        let s = t.render();
        assert!(s.contains("| 1 | 2 |"));
        assert!(!s.contains("dropped"));
    }

    #[test]
    fn wide_cells_widen_their_column() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.add_row(&["wide cell".to_owned(), "2".to_owned()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1], "| a         | b |");
        assert_eq!(lines[2], "-".repeat(lines[1].len()));
        assert_eq!(lines[3], "| wide cell | 2 |");
    }
}
