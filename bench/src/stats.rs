//! Order statistics over a handful of samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the driver that
//! judges this benchmark computes: a spread printed here is the spread
//! it will see.

use abr_sim::{jsn, JsonValue};

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise `values`. One sample is its own median and quartiles.
    ///
    /// # Panics
    /// Panics on an empty slice or a NaN.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "no samples to summarise");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        let (q1, median, q3) = if v.len() == 1 {
            (v[0], v[0], v[0])
        } else {
            (quartile(&v, 1), quartile(&v, 2), quartile(&v, 3))
        };
        Summary {
            n: v.len(),
            min: v[0],
            q1,
            median,
            q3,
            max: v[v.len() - 1],
        }
    }

    /// Interquartile distance as a share of the median: the run-to-run
    /// spread the bounds in `BENCHMARK.json` are compared with.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> JsonValue {
        jsn!({
            "n": self.n as u64,
            "min": self.min,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.max,
        })
    }
}

/// The `i`-th of the three quartile cut points of sorted `v` (len ≥ 2),
/// "exclusive" method: position `i·(len+1)/4`, linear interpolation,
/// clamped to the data.
fn quartile(v: &[f64], i: usize) -> f64 {
    let ld = v.len();
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Median of `values` (see [`Summary::of`]).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25, 37.5]
        let s = Summary::of(&[40.0, 10.0, 30.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
    }

    #[test]
    fn single_sample_and_spread() {
        let s = Summary::of(&[4.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (1, 4.0, 4.0, 4.0));
        assert_eq!(s.spread(), 0.0);
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.spread(), 1.0);
    }
}
