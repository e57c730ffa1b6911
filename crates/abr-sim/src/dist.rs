//! Random distributions for workload modelling.
//!
//! The paper's workloads are characterized by *highly skewed* block request
//! distributions (§5.4: "fewer than 2000 blocks absorbed all of the
//! requests, and the 100 hottest blocks absorbed about 90%"). [`Zipf`]
//! provides a rank-frequency law with a numeric calibration routine
//! ([`Zipf::fit_top_share`]) that solves for the exponent reproducing a
//! target top-k share, so workload profiles can be pinned directly to the
//! paper's measured skew. [`Weighted`] samples from an arbitrary discrete
//! weight table. Both invert a [`Cdf`].

use crate::rng::SimRng;

/// A normalized cumulative table, inverted by a guide-table search
/// (Chen & Asau, 1974).
///
/// `guide[j]` is the first index whose cumulative value reaches `j / m`,
/// with `m` the table's length, so a uniform `u` starts at
/// `guide[⌊u·m⌋]`, on average under two entries from its answer — one or
/// two loads on the skewed tables the workloads draw from, where a
/// binary search makes a chain of dependent ones.
#[derive(Debug, Clone)]
pub struct Cdf {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl Cdf {
    /// The table of `weights`, each divided by their sum, its last entry
    /// set to exactly 1.
    ///
    /// # Panics
    /// Panics if there are no weights, any weight is negative or not
    /// finite, or all are zero.
    pub fn new(weights: impl IntoIterator<Item = f64>) -> Self {
        let weights = weights.into_iter();
        let mut cdf = Vec::with_capacity(weights.size_hint().0);
        let mut acc = 0.0;
        for w in weights {
            assert!(w.is_finite() && w >= 0.0, "bad weight {w}");
            acc += w;
            cdf.push(acc);
        }
        assert!(!cdf.is_empty(), "empty weight table");
        assert!(acc > 0.0, "all weights zero");
        for c in &mut cdf {
            *c /= acc;
        }
        // Guard against floating point leaving the last entry below 1.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Cdf::from_cumulative(cdf)
    }

    /// The guide over a non-empty, non-decreasing table ending in 1.
    fn from_cumulative(cdf: Vec<f64>) -> Self {
        // One merge pass: both `j / m` and the table rise.
        let m = cdf.len();
        let mut i = 0;
        let guide = (0..m)
            .map(|j| {
                let t = j as f64 / m as f64;
                while cdf[i] < t {
                    i += 1;
                }
                i as u32
            })
            .collect();
        Cdf { cdf, guide }
    }

    /// The first index whose cumulative value reaches `u` — exactly
    /// `partition_point(|c| c < u)` over the table — for `u` in `[0, 1]`.
    /// The guide only picks where to start: the walk back and then
    /// forward makes the answer exact whatever `⌊u·m⌋` rounded to.
    #[inline]
    pub fn search(&self, u: f64) -> usize {
        let m = self.guide.len();
        let mut i = self.guide[((u * m as f64) as usize).min(m - 1)] as usize;
        while i > 0 && self.cdf[i - 1] >= u {
            i -= 1;
        }
        while self.cdf[i] < u {
            i += 1;
        }
        i
    }
}

/// A Zipf-like rank-frequency distribution over ranks `0..n`.
///
/// Rank `r` (0-based) has weight `1 / (r + 1)^s`. Sampling inverts the
/// cumulative table ([`Cdf`]): exact (no rejection), and deterministic
/// given the RNG stream.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Cdf,
    s: f64,
}

impl Zipf {
    /// Create a Zipf distribution over `n` ranks with exponent `s >= 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative/not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        assert!(s.is_finite() && s >= 0.0, "bad Zipf exponent {s}");
        let cdf = Cdf::new((0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)));
        Zipf { cdf, s }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.cdf.len()
    }

    /// The exponent.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Sample a rank in `0..n` (0 is the most popular).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        self.cdf.search(rng.f64())
    }

    /// Fraction of probability mass on the `k` most popular ranks.
    pub fn top_share(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else if k >= self.n() {
            1.0
        } else {
            self.cdf.cdf[k - 1]
        }
    }

    /// Find the exponent `s` such that the top `k` ranks of `n` carry
    /// (approximately) `share` of the mass, by bisection on `s`.
    ///
    /// Used to pin synthetic workloads to the paper's measured skew
    /// (e.g. `fit_top_share(2000, 100, 0.90)` for the *system* file
    /// system). Returns the fitted distribution.
    ///
    /// ```
    /// use abr_sim::dist::Zipf;
    /// // SS5.4 of the paper: top 100 of <2000 blocks absorb ~90%.
    /// let z = Zipf::fit_top_share(2000, 100, 0.90);
    /// assert!((z.top_share(100) - 0.90).abs() < 1e-6);
    /// ```
    ///
    /// # Panics
    /// Panics on degenerate arguments (`k == 0`, `k >= n`, share outside
    /// `(0, 1)`).
    pub fn fit_top_share(n: usize, k: usize, share: f64) -> Self {
        assert!(k > 0 && k < n, "need 0 < k < n");
        assert!(share > 0.0 && share < 1.0, "share must be in (0,1)");
        let uniform_share = k as f64 / n as f64;
        assert!(
            share > uniform_share,
            "target share {share} below uniform share {uniform_share}; not Zipf-representable"
        );
        let (mut lo, mut hi) = (0.0_f64, 16.0_f64);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if Zipf::new(n, mid).top_share(k) < share {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Zipf::new(n, 0.5 * (lo + hi))
    }
}

/// A discrete distribution over arbitrary weights.
#[derive(Debug, Clone)]
pub struct Weighted {
    cdf: Cdf,
}

impl Weighted {
    /// Build from a slice of non-negative weights (at least one positive).
    ///
    /// # Panics
    /// Panics if the slice is empty, any weight is negative or non-finite,
    /// or all weights are zero.
    pub fn new(weights: &[f64]) -> Self {
        Weighted {
            cdf: Cdf::new(weights.iter().copied()),
        }
    }

    /// Sample an index in `0..len`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        self.cdf.search(rng.f64())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.cdf.cdf.len()
    }

    /// Whether the table is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.cdf.cdf.is_empty()
    }
}

/// A bounded Pareto-ish discrete size distribution, used for file sizes.
///
/// Real file-size distributions are heavy-tailed with many small files
/// ([Ousterhout 85] measured BSD traces). This helper samples sizes in
/// `[min, max]` bytes with density proportional to `size^-alpha`, over a
/// logarithmic grid (64 buckets), which reproduces the "most files are
/// small, a few are huge" shape without needing floating-point pow per
/// draw.
#[derive(Debug, Clone)]
pub struct FileSizes {
    bucket_lo: Vec<u64>,
    bucket_hi: Vec<u64>,
    weights: Weighted,
}

impl FileSizes {
    /// Build the distribution over `[min, max]` bytes with tail exponent
    /// `alpha` (typical: 1.0–1.5).
    ///
    /// # Panics
    /// Panics unless `0 < min < max`.
    pub fn new(min: u64, max: u64, alpha: f64) -> Self {
        assert!(min > 0 && min < max, "need 0 < min < max");
        const BUCKETS: usize = 64;
        let lmin = (min as f64).ln();
        let lmax = (max as f64).ln();
        let mut bucket_lo = Vec::with_capacity(BUCKETS);
        let mut bucket_hi = Vec::with_capacity(BUCKETS);
        let mut w = Vec::with_capacity(BUCKETS);
        for i in 0..BUCKETS {
            let a = (lmin + (lmax - lmin) * i as f64 / BUCKETS as f64).exp();
            let b = (lmin + (lmax - lmin) * (i + 1) as f64 / BUCKETS as f64).exp();
            let lo = a.round().max(min as f64) as u64;
            let hi = (b.round() as u64).min(max).max(lo);
            bucket_lo.push(lo);
            bucket_hi.push(hi);
            // Weight = width x density at the geometric midpoint.
            let mid = (a * b).sqrt();
            w.push((b - a).max(1.0) * mid.powf(-alpha));
        }
        FileSizes {
            bucket_lo,
            bucket_hi,
            weights: Weighted::new(&w),
        }
    }

    /// Sample a file size in bytes.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let i = self.weights.sample(rng);
        let (lo, hi) = (self.bucket_lo[i], self.bucket_hi[i]);
        if lo == hi {
            lo
        } else {
            lo + rng.below(hi - lo + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(z: &Zipf, rng: &mut SimRng, draws: usize) -> Vec<usize> {
        let mut h = vec![0usize; z.n()];
        for _ in 0..draws {
            h[z.sample(rng)] += 1;
        }
        h
    }

    /// `Cdf::search` against the binary search it replaces, at `u` drawn
    /// uniformly and at the values where an off-by-one would show.
    fn check_search(cdf: &Cdf, rng: &mut SimRng) {
        let m = cdf.cdf.len();
        let mut us = vec![0.0, 1.0 - f64::EPSILON / 2.0, 1.0];
        for &c in &cdf.cdf {
            us.extend([c, c.next_up(), c.next_down()]);
        }
        us.extend((0..64).map(|_| rng.f64()));
        for u in us.into_iter().filter(|u| (0.0..=1.0).contains(u)) {
            let want = cdf.cdf.partition_point(|&c| c < u);
            assert_eq!(cdf.search(u), want, "u {u:e} over {m} entries");
        }
    }

    #[test]
    fn cdf_search_is_a_binary_search() {
        let mut rng = SimRng::new(0xCDF);
        for round in 0..300 {
            let n = 1 + rng.index(if round % 10 == 0 { 5_000 } else { 300 });
            check_search(&Zipf::new(n, rng.f64() * 3.0).cdf, &mut rng);
            // Weight tables with runs of zeroes: flat steps in the table.
            let weights: Vec<f64> = (0..n)
                .map(|_| match rng.index(3) {
                    0 => 0.0,
                    1 => rng.f64(),
                    _ => rng.f64() * 1e-9,
                })
                .chain([1.0])
                .collect();
            check_search(&Weighted::new(&weights).cdf, &mut rng);
        }
    }

    #[test]
    fn cdf_search_steps_back_and_clamps() {
        // `p` is below 5/6, yet `p * 6` rounds to 5: the guide starts one
        // entry past the answer, and the walk back must find it.
        let p = (5.0_f64 / 6.0).next_down();
        assert_eq!((p * 6.0) as usize, 5);
        let cdf = Cdf::from_cumulative(vec![0.1, 0.2, 0.3, 0.4, p, 1.0]);
        assert_eq!(cdf.guide[5], 5);
        assert_eq!(cdf.search(p), 4);
        // No `u` below 1 has `u * m` round up to `m`; 1 itself does, and
        // the guide index is clamped to the last.
        assert_eq!((1.0 * 6.0) as usize, 6);
        assert_eq!(cdf.search(1.0), 5);
        check_search(&cdf, &mut SimRng::new(6));
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SimRng::new(1);
        let h = histogram(&z, &mut rng, 100_000);
        assert!(h[0] > h[10]);
        assert!(h[10] > h[90]);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 1..=10 {
            assert!((z.top_share(k) - k as f64 / 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_samples_within_range() {
        let z = Zipf::new(17, 1.3);
        let mut rng = SimRng::new(2);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 17);
        }
    }

    #[test]
    fn fit_top_share_hits_paper_skew() {
        // §5.4: top 100 of <2000 active blocks absorb ~90% of requests.
        let z = Zipf::fit_top_share(2000, 100, 0.90);
        let got = z.top_share(100);
        assert!((got - 0.90).abs() < 1e-6, "top-100 share {got}");
        // And empirically, from samples:
        let mut rng = SimRng::new(3);
        let h = histogram(&z, &mut rng, 200_000);
        let top: usize = h[..100].iter().sum();
        let frac = top as f64 / 200_000.0;
        assert!((frac - 0.90).abs() < 0.01, "sampled top-100 share {frac}");
    }

    #[test]
    fn fit_rejects_sub_uniform_target() {
        let r = std::panic::catch_unwind(|| Zipf::fit_top_share(100, 50, 0.4));
        assert!(r.is_err());
    }

    #[test]
    fn weighted_respects_weights() {
        let w = Weighted::new(&[1.0, 0.0, 3.0]);
        let mut rng = SimRng::new(4);
        let mut h = [0usize; 3];
        for _ in 0..40_000 {
            h[w.sample(&mut rng)] += 1;
        }
        assert_eq!(h[1], 0);
        let ratio = h[2] as f64 / h[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "all weights zero")]
    fn weighted_rejects_all_zero() {
        let _ = Weighted::new(&[0.0, 0.0]);
    }

    #[test]
    fn file_sizes_in_range_and_skewed_small() {
        let fs = FileSizes::new(512, 4 << 20, 1.2);
        let mut rng = SimRng::new(5);
        let mut small = 0;
        for _ in 0..10_000 {
            let s = fs.sample(&mut rng);
            assert!((512..=4 << 20).contains(&s));
            if s < 64 << 10 {
                small += 1;
            }
        }
        // Most files should be small.
        assert!(small > 6_000, "only {small} of 10000 below 64K");
    }
}
