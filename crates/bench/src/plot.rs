//! Minimal ASCII line charts, so experiment binaries can render
//! figure-shaped output (loss curves, recovery-vs-w series) directly in the
//! terminal.

/// An ASCII line chart over a shared x-axis.
///
/// # Examples
///
/// ```
/// use isgc_bench::plot::AsciiChart;
///
/// let mut chart = AsciiChart::new(40, 10);
/// chart.add_series('a', &[3.0, 2.0, 1.0, 0.5, 0.3]);
/// let rendered = chart.render();
/// assert!(rendered.contains('a'));
/// ```
#[derive(Debug, Clone)]
pub struct AsciiChart {
    width: usize,
    height: usize,
    series: Vec<(char, Vec<f64>)>,
}

impl AsciiChart {
    /// Creates an empty chart of the given plot-area size (in characters).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width >= 2 && height >= 2, "chart too small");
        Self {
            width,
            height,
            series: Vec::new(),
        }
    }

    /// Adds a named series; values are resampled to the chart width.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains non-finite numbers.
    pub fn add_series(&mut self, marker: char, values: &[f64]) {
        assert!(!values.is_empty(), "empty series");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "non-finite value in series"
        );
        self.series.push((marker, values.to_vec()));
    }

    /// Renders the chart with a y-axis legend.
    ///
    /// # Panics
    ///
    /// Panics if no series were added.
    pub fn render(&self) -> String {
        assert!(!self.series.is_empty(), "no series to plot");
        let lo = self
            .series
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .series
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .fold(f64::NEG_INFINITY, f64::max);
        let span = if hi > lo { hi - lo } else { 1.0 };

        let mut grid = vec![vec![' '; self.width]; self.height];
        #[allow(clippy::needless_range_loop)] // x indexes both values and grid columns
        for (marker, values) in &self.series {
            for x in 0..self.width {
                // Nearest-sample resampling onto the chart width.
                let idx = if values.len() == 1 {
                    0
                } else {
                    (x * (values.len() - 1) + (self.width - 1) / 2) / (self.width - 1)
                };
                let v = values[idx.min(values.len() - 1)];
                let frac = (v - lo) / span;
                let y = ((1.0 - frac) * (self.height - 1) as f64).round() as usize;
                grid[y.min(self.height - 1)][x] = *marker;
            }
        }

        let mut out = String::new();
        for (row_idx, row) in grid.iter().enumerate() {
            let label = if row_idx == 0 {
                format!("{hi:>9.3} ")
            } else if row_idx == self.height - 1 {
                format!("{lo:>9.3} ")
            } else {
                " ".repeat(10)
            };
            out.push_str(&label);
            out.push('|');
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&" ".repeat(10));
        out.push('+');
        out.push_str(&"-".repeat(self.width));
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_monotone_series_descending() {
        let mut chart = AsciiChart::new(20, 6);
        chart.add_series('x', &[10.0, 8.0, 6.0, 4.0, 2.0, 0.0]);
        let r = chart.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 7); // 6 rows + axis
                                    // Highest value appears at the top-left, lowest at the bottom-right.
        assert!(lines[0].contains('x'));
        assert!(lines[5].contains('x'));
        assert!(lines[0].contains("10.000"));
        assert!(lines[5].contains("0.000"));
    }

    #[test]
    fn multiple_series_coexist() {
        let mut chart = AsciiChart::new(10, 5);
        chart.add_series('a', &[1.0, 1.0]);
        chart.add_series('b', &[0.0, 0.0]);
        let r = chart.render();
        assert!(r.contains('a'));
        assert!(r.contains('b'));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let mut chart = AsciiChart::new(8, 4);
        chart.add_series('c', &[5.0; 3]);
        let r = chart.render();
        assert!(r.contains('c'));
    }

    #[test]
    fn single_point_series() {
        let mut chart = AsciiChart::new(8, 4);
        chart.add_series('p', &[2.5]);
        assert!(chart.render().contains('p'));
    }

    #[test]
    #[should_panic(expected = "empty series")]
    fn empty_series_panics() {
        AsciiChart::new(8, 4).add_series('e', &[]);
    }

    #[test]
    #[should_panic(expected = "no series")]
    fn render_without_series_panics() {
        let _ = AsciiChart::new(8, 4).render();
    }
}
