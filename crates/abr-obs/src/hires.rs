//! High-resolution log-bucketed latency histogram ([`LogHistogram`]).
//!
//! The paper's claims are distributional — the value of rearrangement
//! lives in the tail of the seek/service-time distribution, not the
//! mean — so a handful of coarse fixed buckets cannot answer "what
//! happened to p999". `LogHistogram` is the registry's one histogram
//! type, used on the driver, array and serving latency paths (see the
//! crate docs for how it divides the work with `abr_sim::hist`): an
//! HDR-style log2 layout with 32 linear sub-buckets
//! per octave, giving a bounded ~3.1% relative error per bucket over
//! the full `[0, 2^32)` µs range while staying a plain dense array —
//! deterministic, mergeable (for the parallel engine's batched
//! flushes), and cheap to snapshot.
//!
//! ## Bucket scheme (`log2m32`)
//!
//! * Values `0..32` are exact: bucket index = value.
//! * A value `v >= 32` with bit length `e+1` (i.e. `2^e <= v < 2^(e+1)`)
//!   lands in one of 32 sub-buckets of width `2^(e-5)`:
//!   `index = (e - 4) * 32 + ((v >> (e - 5)) & 31)`.
//! * The largest representable value is `2^32 - 1` µs (~71.6 minutes —
//!   far beyond any simulated request latency); larger observations go
//!   to an explicit overflow bucket.
//!
//! Exact `count`, `sum`, and `max` ride alongside, so means never
//! quantize and the overflow quantile is exact. Snapshots are sparse
//! (`[index, count]` pairs) because a latency distribution touches a
//! few dozen of the 896 buckets.

use abr_sim::jsn;
use abr_sim::json::JsonValue;

/// Linear sub-buckets per octave = `2^SUB_BITS`.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave (32).
const SUBS: u64 = 1 << SUB_BITS;
/// First exponent that uses the log layout (values below `2^(SUB_BITS)`
/// are exact).
const FIRST_EXP: u32 = SUB_BITS;
/// Exclusive upper limit of the bucketed range: `2^32` µs.
const LIMIT_EXP: u32 = 32;
/// Total regular buckets: 32 exact + 27 octaves × 32 sub-buckets = 896.
const NUM_BUCKETS: usize = (SUBS as usize) * (LIMIT_EXP - FIRST_EXP + 1) as usize;

/// Bucket index for a value inside the representable range.
fn index_of(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    ((e - FIRST_EXP + 1) as usize) * SUBS as usize + ((v >> (e - SUB_BITS)) & (SUBS - 1)) as usize
}

/// Inclusive upper edge of bucket `i` — the value reported for any
/// quantile that lands in the bucket (mirrors the upper-edge convention
/// of `abr_sim::hist::Histogram::quantile`).
fn upper_edge(i: usize) -> u64 {
    let i = i as u64;
    if i < SUBS {
        return i;
    }
    let e = (i >> SUB_BITS) as u32 + FIRST_EXP - 1;
    let m = i & (SUBS - 1);
    let lower = (SUBS + m) << (e - SUB_BITS);
    lower + (1u64 << (e - SUB_BITS)) - 1
}

/// A deterministic high-resolution histogram (see module docs for the
/// bucket scheme). All operations are integer-only and order-free:
/// merging per-worker histograms in any order yields identical bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
    overflow: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            overflow: 0,
        }
    }

    /// Record one observation (typically microseconds).
    pub fn observe(&mut self, value: u64) {
        if value >> LIMIT_EXP == 0 {
            self.buckets[index_of(value)] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Total observations (including overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Observations at or above `2^32`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Zero everything (the bucket layout is fixed, nothing to keep).
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.max = 0;
        self.overflow = 0;
    }

    /// Fold another histogram into this one. Bucket layouts are global
    /// constants, so any two `LogHistogram`s merge; merging is
    /// associative and commutative bucket-wise.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.overflow += other.overflow;
    }

    /// The observations recorded here but not in `baseline` — the
    /// per-day delta used by the day series. `baseline` must be an
    /// earlier state of this histogram (bucket-wise `<=`); counts
    /// subtract saturating so a violated precondition degrades to an
    /// undercount instead of a panic.
    ///
    /// `max` is not recoverable from a subtraction; the delta reports
    /// the upper edge of its highest non-empty bucket (exact to the
    /// bucket's ~3.1% width), or the lifetime max if the delta includes
    /// overflow observations.
    pub fn diff(&self, baseline: &LogHistogram) -> LogHistogram {
        let mut d = LogHistogram::new();
        let mut top: Option<usize> = None;
        for (i, (cur, base)) in self.buckets.iter().zip(&baseline.buckets).enumerate() {
            let delta = cur.saturating_sub(*base);
            d.buckets[i] = delta;
            if delta > 0 {
                top = Some(i);
            }
        }
        d.count = self.count.saturating_sub(baseline.count);
        d.sum = self.sum.saturating_sub(baseline.sum);
        d.overflow = self.overflow.saturating_sub(baseline.overflow);
        d.max = if d.overflow > 0 {
            self.max
        } else {
            top.map(upper_edge).unwrap_or(0)
        };
        d
    }

    /// Quantile by bucket upper edge, matching the semantics of
    /// `abr_sim::hist::Histogram::quantile`: the target rank is
    /// `ceil(q * count)`, the cumulative scan returns the inclusive
    /// upper edge of the bucket holding that rank (capped at the exact
    /// `max`, so q=1.0 is exact), and ranks in the overflow bucket
    /// report the exact `max`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return upper_edge(i).min(self.max);
            }
        }
        self.max
    }

    /// The standard quantile set reported in snapshots and day series.
    pub fn quantiles_json(&self) -> JsonValue {
        jsn!({
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        })
    }

    /// Sparse deterministic snapshot:
    /// `{"scheme","count","sum","max","overflow","buckets":[[i,n],...],"quantiles":{...}}`.
    pub fn to_json(&self) -> JsonValue {
        let mut sparse = Vec::new();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                sparse.push(JsonValue::from(vec![i as u64, c]));
            }
        }
        jsn!({
            "scheme": "log2m32",
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "overflow": self.overflow,
            "buckets": JsonValue::from(sparse),
            "quantiles": self.quantiles_json(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_sim::SimRng;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..32 {
            h.observe(v);
        }
        for v in 0..32usize {
            assert_eq!(h.buckets[v], 1, "value {v} must land in its own bucket");
            assert_eq!(upper_edge(v), v as u64);
        }
    }

    #[test]
    fn index_and_edge_are_consistent() {
        // Every bucket's upper edge must map back into that bucket, and
        // edge+1 into the next one.
        for i in 0..NUM_BUCKETS {
            let hi = upper_edge(i);
            assert_eq!(index_of(hi), i, "upper edge of bucket {i}");
            if hi + 1 < (1u64 << LIMIT_EXP) {
                assert_eq!(index_of(hi + 1), i + 1, "value after bucket {i}");
            }
        }
        assert_eq!(upper_edge(NUM_BUCKETS - 1), (1u64 << LIMIT_EXP) - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        // For any value, the bucket upper edge overestimates by at most
        // one sub-bucket width, i.e. < 2^-SUB_BITS relative.
        for &v in &[33u64, 100, 999, 4096, 65_537, 1_000_000, u32::MAX as u64] {
            let edge = upper_edge(index_of(v));
            assert!(edge >= v);
            let err = (edge - v) as f64 / v as f64;
            assert!(err < 1.0 / SUBS as f64, "value {v}: edge {edge}, err {err}");
        }
    }

    #[test]
    fn overflow_and_max() {
        let mut h = LogHistogram::new();
        h.observe(10);
        h.observe(1u64 << 33);
        assert_eq!(h.count(), 2);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.max(), 1u64 << 33);
        assert_eq!(h.sum(), 10 + (1u64 << 33));
        // p99 rank falls in the overflow bucket -> exact max.
        assert_eq!(h.quantile(0.99), 1u64 << 33);
        assert_eq!(h.quantile(0.25), 10);
    }

    #[test]
    fn quantile_semantics_match_hist_rs() {
        // ceil-rank + upper-edge, as in abr_sim::hist::Histogram.
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 4] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.5), 2); // rank ceil(0.5*4)=2 -> value 2
        assert_eq!(h.quantile(0.75), 3);
        assert_eq!(h.quantile(1.0), 4);
        assert_eq!(LogHistogram::new().quantile(0.5), 0);
    }

    #[test]
    fn diff_subtracts_a_baseline() {
        let mut h = LogHistogram::new();
        h.observe(100);
        let baseline = h.clone();
        h.observe(500);
        h.observe(7);
        let d = h.diff(&baseline);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 507);
        assert_eq!(d.quantile(1.0), d.max());
        // Delta max is the highest delta bucket's edge: >= 500, < 500*1.04.
        assert!(d.max() >= 500 && d.max() < 520);
    }

    #[test]
    fn merge_with_both_sides_overflowed() {
        // Overflow observations must combine like any bucket: counts
        // add, the merged max is the larger lifetime max, and overflow
        // ranks still report the exact max.
        let big_a = 1u64 << 33;
        let big_b = (1u64 << 34) + 17;
        let mut a = LogHistogram::new();
        a.observe(10);
        a.observe(big_a);
        let mut b = LogHistogram::new();
        b.observe(big_b);
        b.observe(big_b);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.overflow(), 3);
        assert_eq!(a.max(), big_b);
        assert_eq!(a.sum(), 10 + big_a + 2 * big_b);
        assert_eq!(a.quantile(1.0), big_b);
        // Merging an empty histogram in either direction is identity.
        let before = a.clone();
        a.merge(&LogHistogram::new());
        assert_eq!(a, before);
        let mut empty = LogHistogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn diff_against_empty_baseline_is_identity_modulo_max() {
        // The day series' first boundary diffs against a fresh
        // histogram: every count must survive, and the only permitted
        // difference is `max` quantizing up to its bucket edge.
        let mut h = LogHistogram::new();
        for v in [3u64, 700, 123_456] {
            h.observe(v);
        }
        let d = h.diff(&LogHistogram::new());
        assert_eq!(d.count(), h.count());
        assert_eq!(d.sum(), h.sum());
        assert_eq!(d.overflow(), 0);
        assert_eq!(d.quantile(0.5), h.quantile(0.5));
        assert!(d.max() >= h.max() && d.max() <= h.max() + (h.max() >> SUB_BITS) + 1);
        // Two degenerate corners: empty-vs-empty is empty with max 0,
        // and diffing a histogram against itself is empty.
        let zero = LogHistogram::new().diff(&LogHistogram::new());
        assert!(zero.is_empty());
        assert_eq!(zero.max(), 0);
        let selfdiff = h.diff(&h);
        assert!(selfdiff.is_empty());
        assert_eq!(selfdiff.max(), 0);
        assert_eq!(selfdiff.sum(), 0);
    }

    #[test]
    fn diff_with_overflow_delta_reports_lifetime_max() {
        // When the delta includes overflow observations, no bucket edge
        // can describe them — the diff must fall back to the lifetime
        // max rather than the top regular bucket's edge.
        let mut h = LogHistogram::new();
        h.observe(50);
        let baseline = h.clone();
        let huge = (1u64 << 35) + 5;
        h.observe(huge);
        let d = h.diff(&baseline);
        assert_eq!(d.count(), 1);
        assert_eq!(d.overflow(), 1);
        assert_eq!(d.max(), huge, "overflow delta must report the exact max");
        assert_eq!(d.quantile(1.0), huge);
        // Conversely, when overflow cancels out (both sides saw it),
        // the delta's max comes from its highest regular bucket.
        let mut base2 = LogHistogram::new();
        base2.observe(huge);
        let mut cur2 = base2.clone();
        cur2.observe(200);
        let d2 = cur2.diff(&base2);
        assert_eq!(d2.overflow(), 0);
        assert!(d2.max() >= 200 && d2.max() < 210);
    }

    #[test]
    fn snapshot_is_sparse() {
        let mut h = LogHistogram::new();
        h.observe(5);
        h.observe(5);
        h.observe(1_000_000);
        let j = h.to_json();
        assert_eq!(j["scheme"], "log2m32");
        assert_eq!(j["count"], 3);
        assert_eq!(j["buckets"][0][0], 5);
        assert_eq!(j["buckets"][0][1], 2);
        assert_eq!(j["quantiles"]["p50"], 5);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut rng = SimRng::new(1);
        for _ in 0..256 {
            let mut vals = || -> Vec<u64> { (0..rng.index(64)).map(|_| rng.next_u64()).collect() };
            let (a, b, c) = (vals(), vals(), vals());
            // Keep sums far from u64 overflow.
            let obs = |vals: &[u64]| {
                let mut h = LogHistogram::new();
                for &v in vals {
                    h.observe(v % (1u64 << 40));
                }
                h
            };
            let (ha, hb, hc) = (obs(&a), obs(&b), obs(&c));
            // (a+b)+c == a+(b+c)
            let mut ab = ha.clone();
            ab.merge(&hb);
            let mut ab_c = ab.clone();
            ab_c.merge(&hc);
            let mut bc = hb.clone();
            bc.merge(&hc);
            let mut a_bc = ha.clone();
            a_bc.merge(&bc);
            assert_eq!(&ab_c, &a_bc);
            // a+b == b+a
            let mut ba = hb.clone();
            ba.merge(&ha);
            assert_eq!(&ab, &ba);
            // Merge of everything equals observing everything.
            let mut all: Vec<u64> = Vec::new();
            all.extend(&a);
            all.extend(&b);
            all.extend(&c);
            assert_eq!(&ab_c, &obs(&all));
        }
    }

    #[test]
    fn quantile_brackets_sorted_reference() {
        let mut rng = SimRng::new(2);
        for _ in 0..256 {
            let vals: Vec<u64> = (0..1 + rng.index(199))
                .map(|_| rng.below(100_000_000))
                .collect();
            let qs: Vec<f64> = (0..1 + rng.index(7)).map(|_| rng.f64()).collect();
            let mut h = LogHistogram::new();
            for &v in &vals {
                h.observe(v);
            }
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            for &q in &qs {
                // Reference: the exact value at ceil-rank in sorted order.
                let target = ((q * sorted.len() as f64).ceil() as usize).max(1);
                let exact = sorted[target - 1];
                let got = h.quantile(q);
                // Upper-edge convention: never below the exact value,
                // and within one sub-bucket width above it.
                assert!(got >= exact, "q={q}: got {got} < exact {exact}");
                let bound = exact + (exact >> SUB_BITS) + 1;
                assert!(
                    got <= bound,
                    "q={q}: got {got} > bound {bound} (exact {exact})"
                );
            }
        }
    }
}
