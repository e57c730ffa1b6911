//! Summary statistics across experiment days.
//!
//! The paper's summary tables (Tables 2, 4, 5, 6) report the minimum,
//! average and maximum of *daily mean* times over all "on" days or all
//! "off" days. [`Summary`] accumulates exactly that.

/// Min / average / max of a sequence of daily values (the shape of every
/// summary row in the paper's tables).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one daily value. Non-finite values are a logic error upstream
    /// and are rejected.
    ///
    /// # Panics
    /// Panics if `v` is NaN or infinite.
    pub fn add(&mut self, v: f64) {
        assert!(v.is_finite(), "non-finite summary value {v}");
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Minimum, or NaN if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Average, or NaN if empty.
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Maximum, or NaN if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Format as the paper's `min avg max` triple with two decimals.
    pub fn triple(&self) -> String {
        format!("{:6.2} {:6.2} {:6.2}", self.min(), self.avg(), self.max())
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for v in iter {
            s.add(v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_min_avg_max() {
        let s: Summary = [3.0, 1.0, 2.0].into_iter().collect();
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.avg(), 2.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn summary_empty_is_nan() {
        let s = Summary::new();
        assert!(s.min().is_nan());
        assert!(s.avg().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn summary_rejects_nan() {
        Summary::new().add(f64::NAN);
    }

    #[test]
    fn summary_triple_format() {
        let s: Summary = [18.70, 19.46, 21.51].into_iter().collect();
        assert_eq!(s.triple(), " 18.70  19.89  21.51");
    }
}
