//! Histograms and distribution tables.
//!
//! Mirrors the paper's driver instrumentation (§4.1.5): "time
//! distributions are recorded with a resolution of one millisecond...
//! Cumulative service times and queueing times are recorded as well, using
//! the full resolution of the measurements."
//!
//! * [`Histogram`] — fixed-width bucket histogram over durations, 1 ms
//!   buckets by default, *plus* a full-resolution cumulative sum so means
//!   are exact.
//! * [`DistTable`] — a sparse table of discrete values (e.g. seek distance
//!   in cylinders) to counts.
//! * [`TimeStats`] — the pair of (histogram, exact cumulative) the driver
//!   keeps for each measured quantity.

use crate::time::SimDuration;
use std::collections::BTreeMap;

/// Fixed-bucket-width histogram of durations with an exact cumulative sum.
#[derive(Debug, Clone)]
pub struct Histogram {
    bucket_width_us: u64,
    buckets: Vec<u64>,
    /// Count of samples beyond the last bucket.
    overflow: u64,
    count: u64,
    /// Exact sum at microsecond resolution.
    total_us: u64,
    max_us: u64,
}

impl Histogram {
    /// A histogram with 1 ms buckets covering `[0, range_ms)` ms, like the
    /// driver's monitor tables.
    pub fn millis(range_ms: usize) -> Self {
        Histogram::new(1_000, range_ms)
    }

    /// A histogram with `bucket_width_us`-wide buckets, `n_buckets` of
    /// them; samples beyond the range go to an overflow counter but are
    /// still reflected exactly in the mean.
    ///
    /// # Panics
    /// Panics if the width or count is zero.
    pub fn new(bucket_width_us: u64, n_buckets: usize) -> Self {
        assert!(bucket_width_us > 0 && n_buckets > 0);
        Histogram {
            bucket_width_us,
            buckets: vec![0; n_buckets],
            overflow: 0,
            count: 0,
            total_us: 0,
            max_us: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, d: SimDuration) {
        let us = d.as_micros();
        let idx = (us / self.bucket_width_us) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean (microsecond resolution), or `None` if empty.
    pub fn mean(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_micros(self.total_us / self.count))
    }

    /// Exact mean in fractional milliseconds, or NaN if empty (convenient
    /// for report tables).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.total_us as f64 / self.count as f64 / 1_000.0
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_micros(self.max_us)
    }

    /// Exact sum of all samples.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_micros(self.total_us)
    }

    /// Fraction of samples strictly below `d` (computed from buckets, so
    /// resolution is one bucket; overflow samples count as below only
    /// when `d` exceeds the largest recorded sample). Returns NaN if
    /// empty.
    pub fn fraction_below(&self, d: SimDuration) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let limit = (d.as_micros() / self.bucket_width_us) as usize;
        let mut below: u64 = self.buckets.iter().take(limit).sum();
        if limit >= self.buckets.len() && d.as_micros() > self.max_us {
            below += self.overflow;
        }
        below as f64 / self.count as f64
    }

    /// CDF sample points `(upper_edge, cumulative_fraction)` per bucket,
    /// for plotting (Figures 4 and 6 in the paper). Trailing empty buckets
    /// are trimmed; the overflow mass appears as a final point at the
    /// histogram range.
    pub fn cdf_points(&self) -> Vec<(SimDuration, f64)> {
        if self.count == 0 {
            return Vec::new();
        }
        let mut pts = Vec::new();
        let mut acc = 0u64;
        let last_used = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        for (i, &c) in self.buckets.iter().take(last_used).enumerate() {
            acc += c;
            pts.push((
                SimDuration::from_micros((i as u64 + 1) * self.bucket_width_us),
                acc as f64 / self.count as f64,
            ));
        }
        if self.overflow > 0 {
            // Place the overflow point past the histogram range (at the
            // largest sample) so x stays strictly increasing.
            pts.push((
                SimDuration::from_micros(
                    self.max_us
                        .max(self.buckets.len() as u64 * self.bucket_width_us),
                ),
                1.0,
            ));
        }
        pts
    }

    /// Approximate quantile (bucket upper edge containing it); `q` in
    /// `[0,1]`. Returns `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(SimDuration::from_micros(
                    (i as u64 + 1) * self.bucket_width_us,
                ));
            }
        }
        Some(SimDuration::from_micros(self.max_us))
    }

    /// Merge another histogram into this one.
    ///
    /// # Panics
    /// Panics if the bucket geometry differs.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bucket_width_us, other.bucket_width_us);
        assert_eq!(self.buckets.len(), other.buckets.len());
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.total_us += other.total_us;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Reset to empty (the driver's read-and-clear ioctl).
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.overflow = 0;
        self.count = 0;
        self.total_us = 0;
        self.max_us = 0;
    }
}

/// Values below this use the dense count array; larger values spill to
/// the ordered map. Seek distances are bounded by the disk's cylinder
/// count (≈2000 for the paper's disks), so in practice every observation
/// lands in the dense half and recording is a single array increment.
const DIST_DENSE_LIMIT: u64 = 4096;

/// A table of discrete value → count, used for seek-distance
/// distributions (value = distance in cylinders).
///
/// Layout is dense-first: small values (the common case) count into a
/// flat array indexed by value, anything `>= DIST_DENSE_LIMIT` falls
/// back to an ordered map. Iteration is ascending by value across both
/// halves — the same order the previous all-`BTreeMap` layout produced,
/// so order-sensitive consumers ([`DistTable::mean_by`] sums `f64`s in
/// iteration order) observe identical results.
#[derive(Debug, Clone, Default)]
pub struct DistTable {
    dense: Vec<u64>,
    spill: BTreeMap<u64, u64>,
    count: u64,
    total: u128,
}

impl DistTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `value`.
    pub fn record(&mut self, value: u64) {
        if value < DIST_DENSE_LIMIT {
            let idx = value as usize;
            if idx >= self.dense.len() {
                self.dense.resize(idx + 1, 0);
            }
            self.dense[idx] += 1;
        } else {
            *self.spill.entry(value).or_insert(0) += 1;
        }
        self.count += 1;
        self.total += u128::from(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean value, or NaN if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Number of observations of exactly `value`.
    pub fn count_of(&self, value: u64) -> u64 {
        if value < DIST_DENSE_LIMIT {
            self.dense.get(value as usize).copied().unwrap_or(0)
        } else {
            self.spill.get(&value).copied().unwrap_or(0)
        }
    }

    /// Fraction of observations of exactly `value` (NaN if empty). The
    /// paper reports "Zero-length Seeks (%)" = `fraction_of(0) * 100`.
    pub fn fraction_of(&self, value: u64) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.count_of(value) as f64 / self.count as f64
        }
    }

    /// Iterate `(value, count)` in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(v, &c)| (v as u64, c))
            .chain(self.spill.iter().map(|(&v, &c)| (v, c)))
    }

    /// Apply a function to every observed value, producing the mean of the
    /// transformed values (used to turn a seek-*distance* distribution into
    /// a mean seek *time* via the disk's seek curve, exactly as the paper
    /// computes its seek times). Returns NaN if empty.
    pub fn mean_by<F: Fn(u64) -> f64>(&self, f: F) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let sum: f64 = self.iter().map(|(v, c)| f(v) * c as f64).sum();
        sum / self.count as f64
    }

    /// Merge another table into this one.
    pub fn merge(&mut self, other: &DistTable) {
        if other.dense.len() > self.dense.len() {
            self.dense.resize(other.dense.len(), 0);
        }
        for (slot, &c) in self.dense.iter_mut().zip(&other.dense) {
            *slot += c;
        }
        for (&v, &c) in &other.spill {
            *self.spill.entry(v).or_insert(0) += c;
        }
        self.count += other.count;
        self.total += other.total;
    }

    /// Reset to empty, keeping the dense array's allocation for reuse.
    pub fn clear(&mut self) {
        self.dense.fill(0);
        self.spill.clear();
        self.count = 0;
        self.total = 0;
    }
}

/// The (1 ms histogram, exact cumulative) pair the driver keeps per
/// measured time quantity (§4.1.5).
#[derive(Debug, Clone)]
pub struct TimeStats {
    hist: Histogram,
}

impl TimeStats {
    /// Stats with a 1 ms histogram covering `[0, range_ms)` ms.
    pub fn new(range_ms: usize) -> Self {
        TimeStats {
            hist: Histogram::millis(range_ms),
        }
    }

    /// Record one measurement.
    pub fn record(&mut self, d: SimDuration) {
        self.hist.record(d);
    }

    /// The 1 ms-resolution histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Exact mean in milliseconds (NaN if empty).
    pub fn mean_ms(&self) -> f64 {
        self.hist.mean_ms()
    }

    /// Number of measurements.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Exact cumulative total.
    pub fn total(&self) -> SimDuration {
        self.hist.total()
    }

    /// Merge another stats object.
    pub fn merge(&mut self, other: &TimeStats) {
        self.hist.merge(&other.hist);
    }

    /// Reset (read-and-clear).
    pub fn clear(&mut self) {
        self.hist.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::millis(100);
        h.record(SimDuration::from_micros(1_500));
        h.record(SimDuration::from_micros(2_500));
        // Mean is exact (2000 us) even though buckets are 1 ms wide.
        assert_eq!(h.mean().unwrap().as_micros(), 2_000);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn histogram_overflow_counted_in_mean() {
        let mut h = Histogram::millis(10);
        h.record(ms(5));
        h.record(ms(50)); // beyond range
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean().unwrap(), SimDuration::from_micros(27_500));
        let cdf = h.cdf_points();
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn fraction_below_matches_paper_usage() {
        // Fig. 4 reads like: "only 50% of requests completed in < 20 ms".
        let mut h = Histogram::millis(100);
        for i in 0..100 {
            h.record(ms(i));
        }
        let f = h.fraction_below(ms(20));
        assert!((f - 0.20).abs() < 1e-9);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = Histogram::millis(50);
        for i in [1u64, 1, 2, 3, 5, 8, 13, 21, 34] {
            h.record(ms(i));
        }
        let pts = h.cdf_points();
        for w in pts.windows(2) {
            assert!(w[0].1 <= w[1].1);
            assert!(w[0].0 < w[1].0);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_brackets_median() {
        let mut h = Histogram::millis(100);
        for i in 1..=99 {
            h.record(ms(i));
        }
        let med = h.quantile(0.5).unwrap();
        assert!(med >= ms(49) && med <= ms(51), "median {med}");
    }

    #[test]
    fn histogram_merge_and_clear() {
        let mut a = Histogram::millis(10);
        let mut b = Histogram::millis(10);
        a.record(ms(1));
        b.record(ms(2));
        b.record(ms(3));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean().unwrap(), ms(2));
        a.clear();
        assert_eq!(a.count(), 0);
        assert!(a.mean().is_none());
    }

    #[test]
    fn dist_table_zero_fraction() {
        let mut d = DistTable::new();
        for _ in 0..88 {
            d.record(0);
        }
        for _ in 0..12 {
            d.record(100);
        }
        assert!((d.fraction_of(0) - 0.88).abs() < 1e-12);
        assert_eq!(d.mean(), 12.0);
    }

    #[test]
    fn dist_table_mean_by_transform() {
        let mut d = DistTable::new();
        d.record(0);
        d.record(4);
        d.record(16);
        // Transform via sqrt: (0 + 2 + 4) / 3 = 2
        let m = d.mean_by(|v| (v as f64).sqrt());
        assert!((m - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dist_table_merge() {
        let mut a = DistTable::new();
        let mut b = DistTable::new();
        a.record(5);
        b.record(5);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.count_of(5), 2);
        assert_eq!(a.count_of(7), 1);
    }

    #[test]
    fn dist_table_iter_sorted() {
        let mut d = DistTable::new();
        for v in [9, 1, 5, 1] {
            d.record(v);
        }
        let vals: Vec<_> = d.iter().collect();
        assert_eq!(vals, vec![(1, 2), (5, 1), (9, 1)]);
    }

    #[test]
    fn time_stats_roundtrip() {
        let mut t = TimeStats::new(1000);
        t.record(ms(10));
        t.record(ms(30));
        assert_eq!(t.mean_ms(), 20.0);
        assert_eq!(t.total(), ms(40));
        t.clear();
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn empty_stats_are_nan_or_none() {
        let h = Histogram::millis(10);
        assert!(h.mean().is_none());
        assert!(h.mean_ms().is_nan());
        assert!(h.fraction_below(ms(1)).is_nan());
        assert!(h.quantile(0.5).is_none());
        let d = DistTable::new();
        assert!(d.mean().is_nan());
        assert!(d.fraction_of(0).is_nan());
    }
}
