//! Structured experiment output: named series over a swept parameter.

use std::fmt::Write as _;

/// One line/series of a figure: (x, y) points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// The points, in sweep order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    #[must_use]
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Series {
        Series {
            name: name.into(),
            points,
        }
    }

    /// The y value at the given x, if present.
    #[must_use]
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|(_, y)| *y)
    }
}

/// A reproduced table/figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Identifier, e.g. `"fig9"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the swept x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
    /// Free-form notes (expected paper values, interpretation).
    pub notes: Vec<String>,
}

impl Figure {
    /// Creates an empty figure.
    #[must_use]
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Figure {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a series (builder style).
    #[must_use]
    pub fn with_series(mut self, s: Series) -> Figure {
        self.series.push(s);
        self
    }

    /// Adds a note (builder style).
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Figure {
        self.notes.push(note.into());
        self
    }

    /// Finds a series by name.
    #[must_use]
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// The x axis both renderers print: every series' x values, each
    /// once, in first-seen order.
    fn xs(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = Vec::new();
        for &(x, _) in self.series.iter().flat_map(|s| &s.points) {
            if !xs.iter().any(|&a| (a - x).abs() < 1e-9) {
                xs.push(x);
            }
        }
        xs
    }

    /// Renders an aligned text table: one row per x value, one column per
    /// series.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        if self.series.is_empty() {
            for n in &self.notes {
                let _ = writeln!(out, "note: {n}");
            }
            return out;
        }
        let _ = write!(out, "{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(out, "  {:>22}", truncate(&s.name, 22));
        }
        out.push('\n');
        for x in self.xs() {
            let _ = write!(out, "{x:>14.2}");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, "  {y:>22.4}");
                    }
                    None => {
                        let _ = write!(out, "  {:>22}", "-");
                    }
                }
            }
            out.push('\n');
        }
        let _ = writeln!(out, "(y axis: {})", self.y_label);
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Renders the figure as CSV (`x,series1,series2,...`): the text
    /// table's rows, an empty field where a series has no point.
    #[must_use]
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label.replace(',', ";"));
        for s in &self.series {
            let _ = write!(out, ",{}", s.name.replace(',', ";"));
        }
        out.push('\n');
        for x in self.xs() {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, ",{y}");
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        Figure::new("figX", "Demo", "x", "Mb/s")
            .with_series(Series::new("a", vec![(1.0, 2.0), (2.0, 3.0)]))
            .with_series(Series::new("b", vec![(1.0, 5.0)]))
            .with_note("hello")
    }

    #[test]
    fn y_lookup() {
        let f = fig();
        assert_eq!(f.series_named("a").unwrap().y_at(2.0), Some(3.0));
        assert_eq!(f.series_named("b").unwrap().y_at(2.0), None);
        assert!(f.series_named("c").is_none());
    }

    #[test]
    fn text_rendering() {
        let t = fig().render_text();
        assert!(t.contains("figX"));
        assert!(t.contains("hello"));
        assert!(t.contains('-'), "missing-point marker");
    }

    #[test]
    fn csv_rendering() {
        let c = fig().render_csv();
        let mut lines = c.lines();
        assert_eq!(lines.next(), Some("x,a,b"));
        assert_eq!(lines.next(), Some("1,2,5"));
    }

    #[test]
    fn csv_rows_are_the_text_rows_for_disjoint_series() {
        let f = Figure::new("figY", "Disjoint", "x", "y")
            .with_series(Series::new("a", vec![(1.0, 2.0)]))
            .with_series(Series::new("b", vec![(10.0, 3.0), (20.0, 4.0)]))
            .with_series(Series::new("c", vec![(20.0, 5.0), (1.0, 6.0)]));
        assert_eq!(
            f.render_csv(),
            "x,a,b,c\n1,2,,6\n10,,3,\n20,,4,5\n",
            "every series' points, on the text table's x axis"
        );
        // Header, one row per x value and the y-axis line.
        assert_eq!(f.render_text().lines().count(), 1 + 1 + 3 + 1);
    }
}
