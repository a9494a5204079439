//! Figure data containers.

use serde::{Deserialize, Serialize};

/// One measured point of a series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// The x coordinate (node count, process count...).
    pub x: f64,
    /// Mean of the measured quantity across repetitions.
    pub y: f64,
    /// Standard deviation across repetitions (0 for single runs).
    pub y_std: f64,
}

impl Point {
    /// A noise-free point.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y, y_std: 0.0 }
    }
}

/// One line of a figure.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label ("VAST", "GPFS", "VAST non-overlapping I/O"...).
    pub label: String,
    /// Points, ascending in x.
    pub points: Vec<Point>,
}

impl Series {
    /// Creates a series from `(x, y)` pairs.
    pub fn from_xy(label: impl Into<String>, xy: impl IntoIterator<Item = (f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points: xy.into_iter().map(|(x, y)| Point::new(x, y)).collect(),
        }
    }

    /// The y value at a given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.y)
    }

    /// Largest y.
    pub fn y_max(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.y)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// One figure (or one panel of a multi-panel figure).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Stable identifier ("fig2a.scientific", "fig5b", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series (builder style).
    pub fn with_series(mut self, s: Series) -> Self {
        self.series.push(s);
        self
    }

    /// Finds a series by label.
    pub fn series_named(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_lookup() {
        let s = Series::from_xy("a", [(1.0, 10.0), (2.0, 20.0)]);
        assert_eq!(s.y_at(2.0), Some(20.0));
        assert_eq!(s.y_at(3.0), None);
        assert_eq!(s.y_max(), 20.0);
    }

    #[test]
    fn figure_builder() {
        let f = Figure::new("f", "t", "x", "y")
            .with_series(Series::from_xy("a", [(1.0, 1.0)]))
            .with_series(Series::from_xy("b", [(1.0, 2.0)]));
        assert_eq!(f.series.len(), 2);
        assert!(f.series_named("b").is_some());
        assert!(f.series_named("c").is_none());
    }
}
