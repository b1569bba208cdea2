//! Fixed-width text tables for the `reproduce` harness.
//!
//! Every figure regeneration prints its rows/series through this renderer
//! so the harness output is uniform and diffable across runs.

/// A simple fixed-width text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// One column of a table whose every row reduces a `T`: the header and
/// the cell formatter.
pub type Column<T> = (&'static str, fn(&T) -> String);

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Create a table of `keys` label columns followed by `columns` of a `T`.
    pub fn keyed<T>(title: impl Into<String>, keys: &[&str], columns: &[Column<T>]) -> Table {
        let headers: Vec<&str> = keys.iter().copied().chain(columns.iter().map(|c| c.0)).collect();
        Table::new(title, &headers)
    }

    /// Append a row; must match the header arity.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Append the row of `item`: its `keys`, then each column's cell.
    pub fn keyed_row<T>(&mut self, keys: &[&str], columns: &[Column<T>], item: &T) -> &mut Self {
        let keys = keys.iter().map(|k| k.to_string());
        self.row(keys.chain(columns.iter().map(|c| (c.1)(item))).collect())
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (k, cell) in row.iter().enumerate() {
                widths[k] = widths[k].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for k in 0..cols {
                if k > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[k], width = widths[k]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a float with the given decimals — shorthand for table cells.
pub fn fnum(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Format a fraction as a percentage string.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Format a bits-per-second rate in Mbps.
pub fn mbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["scheme", "PSNR (dB)"]);
        t.row(vec!["POI360".into(), "38.2".into()]);
        t.row(vec!["Conduit".into(), "25.90".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
        // Columns align: "POI360 " pads to the width of "Conduit".
        assert!(lines[3].starts_with("POI360 "));
    }

    #[test]
    fn keyed_rows_render_like_hand_built_ones() {
        let columns: &[Column<f64>] = &[("double", |v| fnum(v * 2.0, 1)), ("share", |v| pct(*v))];
        let mut keyed = Table::keyed("Demo", &["cell", "flow"], columns);
        keyed.keyed_row(&["a", "0"], columns, &0.5);
        let mut plain = Table::new("Demo", &["cell", "flow", "double", "share"]);
        plain.row(vec!["a".into(), "0".into(), "1.0".into(), "50.0%".into()]);
        assert_eq!(keyed.render(), plain.render());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fnum(4.5678, 2), "4.57");
        assert_eq!(pct(0.047), "4.7%");
        assert_eq!(mbps(2_500_000.0), "2.50");
    }

    #[test]
    fn empty_table_renders_headers() {
        let t = Table::new("Empty", &["a"]);
        assert!(t.is_empty());
        assert!(t.render().contains('a'));
    }
}
