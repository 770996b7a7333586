//! Plain-text table formatting for experiment output.

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; the number of cells should match the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let columns = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < columns {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i >= widths.len() {
                    break;
                }
                line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("Demo", &["Graph", "Time (s)"]);
        t.row(vec!["Amazon".into(), "0.008".into()]);
        t.row(vec!["BerkStan-long-name".into(), "12.5".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("Amazon"));
        assert!(s.contains("BerkStan-long-name"));
        assert_eq!(t.rows.len(), 2);
        // Header and rows share alignment: every line containing data starts
        // at column 0 and the second column starts at the same offset.
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines.len() >= 4);
    }

    #[test]
    fn tolerates_ragged_rows() {
        let mut t = Table::new("Ragged", &["a", "b"]);
        t.row(vec!["only-one".into()]);
        let s = t.render();
        assert!(s.contains("only-one"));
    }
}
