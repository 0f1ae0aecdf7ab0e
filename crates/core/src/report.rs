//! Plain-text report rendering.
//!
//! The figure-regeneration binaries print the series the paper's
//! figures plot; this module gives them one consistent, aligned table
//! format so EXPERIMENTS.md diffs stay readable.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells, long rows
    /// are truncated to the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with space-padded columns and a rule under the header.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}", width = widths[i]);
            }
            // Trim per-line trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// One chart series: label, marker character, `(x, cdf)` points.
type ChartSeries = (String, char, Vec<(f64, f64)>);

/// Renders a set of named CDF curves as a log-x ASCII chart — the
/// terminal rendition of the paper's Figs. 5/6. Each series is drawn
/// with its own marker; rows are CDF levels (100 % at the top), columns
/// are log-spaced RTT values between `x_min` and `x_max`.
pub struct AsciiCdfChart {
    x_min: f64,
    x_max: f64,
    width: usize,
    height: usize,
    series: Vec<ChartSeries>,
}

impl AsciiCdfChart {
    /// Creates a chart for the x-range `[x_min, x_max]` (log scale).
    ///
    /// # Panics
    /// Panics unless `0 < x_min < x_max`.
    pub fn new(x_min: f64, x_max: f64) -> Self {
        assert!(
            x_min > 0.0 && x_min < x_max,
            "need 0 < x_min < x_max for a log axis"
        );
        Self {
            x_min,
            x_max,
            width: 64,
            height: 16,
            series: Vec::new(),
        }
    }

    /// Adds a named series of `(x, cdf)` points with a marker character.
    pub fn series(&mut self, name: &str, marker: char, points: Vec<(f64, f64)>) -> &mut Self {
        self.series.push((name.to_string(), marker, points));
        self
    }

    fn col_of(&self, x: f64) -> Option<usize> {
        if x < self.x_min || x > self.x_max {
            return None;
        }
        let f = (x / self.x_min).ln() / (self.x_max / self.x_min).ln();
        Some(((f * (self.width - 1) as f64).round() as usize).min(self.width - 1))
    }

    /// Renders the chart with axes and a legend.
    pub fn render(&self) -> String {
        let mut grid = vec![vec![' '; self.width]; self.height];
        for (_, marker, points) in &self.series {
            for &(x, y) in points {
                let Some(col) = self.col_of(x) else { continue };
                let y = y.clamp(0.0, 1.0);
                let row = ((1.0 - y) * (self.height - 1) as f64).round() as usize;
                let cell = &mut grid[row.min(self.height - 1)][col];
                // First writer wins; overlaps become '+'.
                *cell = if *cell == ' ' || *cell == *marker {
                    *marker
                } else {
                    '+'
                };
            }
        }
        let mut out = String::new();
        for (i, row) in grid.iter().enumerate() {
            let level = 100.0 * (1.0 - i as f64 / (self.height - 1) as f64);
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{level:>4.0}% |"));
            out.extend(row.iter());
            // Trim per-row trailing spaces.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        }
        out.push_str("      +");
        out.push_str(&"-".repeat(self.width));
        out.push('\n');
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "       {:<width$.0}{:>8.0} ms (log scale)\n",
                self.x_min,
                self.x_max,
                width = self.width - 7
            ),
        );
        out.push_str("legend:");
        for (name, marker, _) in &self.series {
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!(" {marker}={name}"));
        }
        out.push('\n');
        out
    }
}

/// An equirectangular ASCII world map: callers place one character per
/// geographic point (e.g. a Fig. 4 latency-bucket digit at each country
/// centroid) and render a terminal choropleth.
pub struct AsciiWorldMap {
    width: usize,
    height: usize,
    grid: Vec<Vec<char>>,
}

impl Default for AsciiWorldMap {
    fn default() -> Self {
        Self::new()
    }
}

impl AsciiWorldMap {
    /// A 72×24 map (5°/column, 7.5°/row).
    pub fn new() -> Self {
        let (width, height) = (72, 24);
        Self {
            width,
            height,
            grid: vec![vec![' '; width]; height],
        }
    }

    /// Places `marker` at the cell containing `(lat, lon)`. Later
    /// placements overwrite earlier ones in the same cell (callers
    /// should plot small countries first if that matters).
    pub fn place(&mut self, lat: f64, lon: f64, marker: char) -> &mut Self {
        let col = (((lon + 180.0) / 360.0 * self.width as f64) as usize).min(self.width - 1);
        let row = (((90.0 - lat) / 180.0 * self.height as f64) as usize).min(self.height - 1);
        self.grid[row][col] = marker;
        self
    }

    /// Renders the map in a frame.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity((self.width + 3) * (self.height + 2));
        out.push('+');
        out.push_str(&"-".repeat(self.width));
        out.push_str("+\n");
        for row in &self.grid {
            out.push('|');
            out.extend(row.iter());
            out.push_str("|\n");
        }
        out.push('+');
        out.push_str(&"-".repeat(self.width));
        out.push_str("+\n");
        out
    }
}

/// Formats a millisecond value for tables (one decimal).
pub fn ms(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats an optional millisecond value.
pub fn ms_opt(v: Option<f64>) -> String {
    v.map(ms).unwrap_or_else(|| "-".into())
}

/// Formats a fraction as a percentage (one decimal).
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["continent", "median"]);
        t.row(vec!["EU", "17.2"]);
        t.row(vec!["Africa", "212.9"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("continent  median"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("EU"));
        // Columns align: "median" starts at the same offset everywhere.
        let col = lines[0].find("median").unwrap();
        assert_eq!(&lines[3][col..col + 3], "212");
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
        t.row(vec!["x", "y", "z-dropped"]);
        let s = t.render();
        assert!(!s.contains("z-dropped"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn ascii_chart_places_points_monotonically() {
        let mut chart = AsciiCdfChart::new(1.0, 1000.0);
        chart.series(
            "EU",
            'e',
            vec![(2.0, 0.1), (10.0, 0.5), (100.0, 0.9), (900.0, 1.0)],
        );
        let s = chart.render();
        let lines: Vec<&str> = s.lines().collect();
        // 16 grid rows + axis + labels + legend.
        assert_eq!(lines.len(), 16 + 3);
        assert!(lines[0].starts_with(" 100% |"));
        assert!(s.contains("e=EU"));
        // The 100% row carries the right-most point, the 10% row an
        // early one: markers appear at both extremes.
        assert!(lines[0].contains('e'), "top row: {}", lines[0]);
        // Row for ~10%: index 14 of 0..16 grid rows ≈ 6.7% -> nearest
        // to 10% is row 14 (level ≈ 6.7) or 13 (13.3): accept either.
        assert!(
            lines[13].contains('e') || lines[14].contains('e'),
            "low rows missing marker"
        );
    }

    #[test]
    fn ascii_chart_marks_overlaps() {
        let mut chart = AsciiCdfChart::new(1.0, 100.0);
        chart.series("a", 'a', vec![(10.0, 0.5)]);
        chart.series("b", 'b', vec![(10.0, 0.5)]);
        let s = chart.render();
        assert!(
            s.contains('+'),
            "overlap marker missing:
{s}"
        );
    }

    #[test]
    #[should_panic(expected = "log axis")]
    fn ascii_chart_rejects_bad_range() {
        let _ = AsciiCdfChart::new(0.0, 10.0);
    }

    #[test]
    fn world_map_places_markers_geographically() {
        let mut map = AsciiWorldMap::new();
        map.place(52.5, 13.4, 'B'); // Berlin: north-east quadrant
        map.place(-33.9, 151.2, 'S'); // Sydney: south-east
        map.place(40.7, -74.0, 'N'); // New York: north-west
        let s = map.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 24 + 2);
        let find = |c: char| {
            lines
                .iter()
                .enumerate()
                .find_map(|(r, l)| l.find(c).map(|col| (r, col)))
                .unwrap_or_else(|| panic!("{c} not on map"))
        };
        let (berlin_r, berlin_c) = find('B');
        let (sydney_r, sydney_c) = find('S');
        let (ny_r, ny_c) = find('N');
        assert!(berlin_r < sydney_r, "Berlin north of Sydney");
        assert!(ny_c < berlin_c, "New York west of Berlin");
        assert!(berlin_c < sydney_c, "Berlin west of Sydney");
        assert!(ny_r < sydney_r);
    }

    #[test]
    fn world_map_clamps_extremes() {
        let mut map = AsciiWorldMap::new();
        map.place(90.0, 180.0, 'x');
        map.place(-90.0, -180.0, 'y');
        let s = map.render();
        assert!(s.contains('x') && s.contains('y'));
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(12.345), "12.3");
        assert_eq!(ms_opt(None), "-");
        assert_eq!(ms_opt(Some(1.0)), "1.0");
        assert_eq!(pct(0.805), "80.5%");
    }
}
