//! Minimal aligned-table printer for experiment output.

/// An aligned text table: headers plus rows of strings.
///
/// # Examples
///
/// ```
/// use isgc_bench::table::Table;
///
/// let mut t = Table::new(vec!["scheme", "time/step"]);
/// t.add_row(vec!["IS-GC".to_string(), "0.42".to_string()]);
/// let rendered = t.render();
/// assert!(rendered.contains("IS-GC"));
/// assert!(rendered.contains("scheme"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header count.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != column count {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for c in 0..cols {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<w$}", cells[c], w = widths[c]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.add_row(vec!["xxxxxxx".into(), "1".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a        long-header"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].starts_with("xxxxxxx"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(vec!["only"]);
        t.add_row(vec!["a".into(), "b".into()]);
    }
}
