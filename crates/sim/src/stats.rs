//! Online statistics and figure series used by the reproduction harness.

use std::fmt;

/// Welford online mean/variance plus min/max.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, `None` when empty (never `±INFINITY`,
    /// which would serialize as invalid JSON).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// One (x, y) series of a figure, e.g. "bandwidth vs message size".
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label, matching the paper's curve names.
    pub label: String,
    /// The data points, in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// New empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Linear interpolation of y at `x` (requires sorted x, ≥ 1 point).
    pub fn interpolate(&self, x: f64) -> f64 {
        assert!(!self.points.is_empty());
        if x <= self.points[0].0 {
            return self.points[0].1;
        }
        for w in self.points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if x <= x1 {
                let f = (x - x0) / (x1 - x0);
                return y0 + f * (y1 - y0);
            }
        }
        self.points.last().unwrap().1
    }

    /// Maximum y value.
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|&(_, y)| y).fold(f64::MIN, f64::max)
    }

    /// The first x at which this series' y falls at or below `other`'s
    /// (both evaluated on this series' x grid) — crossover detection.
    pub fn crossover_below(&self, other: &Series) -> Option<f64> {
        for &(x, y) in &self.points {
            if y <= other.interpolate(x) {
                return Some(x);
            }
        }
        None
    }
}

/// An ASCII rendering of a set of series: one row per x on a shared grid.
/// Used by the figure binaries to print gnuplot-ready columns.
pub fn render_table(series: &[Series], x_name: &str, y_name: &str) -> String {
    use fmt::Write;
    let mut out = String::new();
    let _ = write!(out, "# {x_name:>12}");
    for s in series {
        let _ = write!(out, " {:>24}", s.label);
    }
    let _ = writeln!(out, "   ({y_name})");
    if series.is_empty() {
        return out;
    }
    for (i, &(x, _)) in series[0].points.iter().enumerate() {
        let _ = write!(out, "{x:>14.0}");
        for s in series {
            match s.points.get(i) {
                Some(&(_, y)) => {
                    let _ = write!(out, " {y:>24.1}");
                }
                None => {
                    let _ = write!(out, " {:>24}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_online_stats_have_no_min_max() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), None, "empty min must not be +INFINITY");
        assert_eq!(s.max(), None, "empty max must not be -INFINITY");
        assert_eq!(s.mean(), 0.0);
        // One observation makes min == max == the observation.
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }

    #[test]
    fn crossover_with_non_overlapping_grids() {
        // a's grid [1, 4] sits entirely left of b's [10, 20]:
        // interpolate clamps to b's first point, so the comparison is
        // well-defined instead of extrapolating garbage.
        let mut a = Series::new("a");
        a.push(1.0, 5.0);
        a.push(4.0, 3.0);
        let mut b = Series::new("b");
        b.push(10.0, 4.0);
        b.push(20.0, 8.0);
        // b clamps to y=4 on a's grid; a first dips to/below 4 at x=4.
        assert_eq!(a.crossover_below(&b), Some(4.0));
        // b (y >= 4) never falls below a's clamped tail (y=3).
        assert_eq!(b.crossover_below(&a), None);

        // Disjoint the other way round: a entirely right of b.
        let mut right = Series::new("right");
        right.push(100.0, 1.0);
        assert_eq!(right.crossover_below(&b), Some(100.0), "b clamps to 8");
    }

    #[test]
    fn series_interpolation_and_crossover() {
        let mut a = Series::new("a");
        let mut b = Series::new("b");
        for x in [1.0, 2.0, 4.0, 8.0] {
            a.push(x, 10.0 - x); // falling
            b.push(x, x); // rising
        }
        assert!((a.interpolate(3.0) - 7.0).abs() < 1e-12);
        assert!((a.interpolate(0.5) - 9.0).abs() < 1e-12);
        assert!((a.interpolate(99.0) - 2.0).abs() < 1e-12);
        // a falls below b somewhere after x=4 (a(8)=2 <= b(8)=8 → first grid x is 8)
        assert_eq!(a.crossover_below(&b), Some(8.0));
        assert_eq!(b.crossover_below(&a), Some(1.0));
        assert_eq!(a.peak(), 9.0);
    }

    #[test]
    fn table_rendering_has_all_columns() {
        let mut a = Series::new("H-H");
        a.push(32.0, 100.0);
        a.push(64.0, 200.0);
        let t = render_table(&[a], "size", "MB/s");
        assert!(t.contains("H-H"));
        assert!(t.contains("size"));
        assert_eq!(t.lines().count(), 3);
    }
}
