//! The reference stream analyzer (§4.2).
//!
//! "The reference stream analyzer maintains a list of block
//! number/reference count pairs. ... the analyzer can guess at the
//! hottest blocks using a much smaller amount of memory ... by limiting
//! the size of the list. In case a block that does not appear on the list
//! is referenced, a replacement heuristic is used to make room for it."
//!
//! Two implementations:
//!
//! * [`FullAnalyzer`] — exact per-block counts (the configuration the
//!   paper ran: "a list of several thousand reference counts, enough so
//!   that replacement was rarely necessary").
//! * [`BoundedAnalyzer`] — a fixed-capacity list with the Space-Saving
//!   replacement heuristic, the space-efficient estimation the paper
//!   cites from [Salem 92, Salem 93]: when a new block arrives and the
//!   list is full, the minimum-count entry is replaced and the new entry
//!   inherits its count plus one (an upper bound with bounded error).

use abr_sim::{jsn, FromJson, JsonError, JsonValue};
use std::collections::{BTreeMap, BTreeSet};

/// A block and its (estimated) reference count, as produced in a hot
/// list (descending count order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotBlock {
    /// Virtual block number.
    pub block: u64,
    /// Reference count (exact or estimated, by analyzer).
    pub count: u64,
}

impl HotBlock {
    /// Persisted form: one entry of `abrctl`'s counts sidecar.
    pub fn to_json(&self) -> JsonValue {
        jsn!({ "block": self.block, "count": self.count })
    }
}

impl FromJson for HotBlock {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(HotBlock {
            block: v.at("block")?,
            count: v.at("count")?,
        })
    }
}

/// A reference stream analyzer: consumes block observations, produces a
/// ranked hot list.
///
/// Analyzers are `Send` so a whole [`crate::Experiment`] can run on a
/// worker thread of the parallel benchmark engine.
pub trait ReferenceAnalyzer: Send {
    /// Record `weight` references to `block`.
    fn observe(&mut self, block: u64, weight: u64);

    /// Record one reference to each block in `blocks` — the batched form
    /// the daemon's monitor drain uses, so a collection window costs one
    /// virtual call instead of one per record. Implementations with a
    /// dense layout override this with a single pass.
    fn observe_each(&mut self, blocks: &[u64]) {
        for &b in blocks {
            self.observe(b, 1);
        }
    }

    /// The `n` most-referenced blocks, descending by count (ties broken
    /// by ascending block number, deterministically).
    fn hot_list(&self, n: usize) -> Vec<HotBlock>;

    /// Number of blocks currently tracked.
    fn tracked(&self) -> usize;

    /// Total observations recorded since the last reset.
    fn total_observations(&self) -> u64;

    /// Forget everything (the daily cycle: each day's rearrangement uses
    /// that day's counts).
    fn reset(&mut self);
}

/// Exact counting with unbounded memory.
///
/// ```
/// use abr_core::analyzer::{FullAnalyzer, ReferenceAnalyzer};
///
/// let mut a = FullAnalyzer::new();
/// for block in [7, 7, 7, 3, 3, 9] {
///     a.observe(block, 1);
/// }
/// let hot = a.hot_list(2);
/// assert_eq!(hot[0].block, 7);
/// assert_eq!(hot[1].block, 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FullAnalyzer {
    /// Count per virtual block, indexed by block number. Virtual block
    /// numbers are bounded by the filesystem size (a few thousand), so
    /// counting is a single array increment; out-of-range blocks spill.
    dense: Vec<u64>,
    spill: BTreeMap<u64, u64>,
    tracked: usize,
    total: u64,
}

/// Blocks below this number count into the dense array.
const ANALYZER_DENSE_BLOCKS: u64 = 1 << 20;

impl FullAnalyzer {
    /// A fresh analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// All counts, descending (the full daily block request distribution
    /// — Figures 5 and 7 of the paper).
    pub fn distribution(&self) -> Vec<HotBlock> {
        self.hot_list(self.tracked)
    }

    /// The exact count for one block.
    pub fn count_of(&self, block: u64) -> u64 {
        if block < ANALYZER_DENSE_BLOCKS {
            self.dense.get(block as usize).copied().unwrap_or(0)
        } else {
            self.spill.get(&block).copied().unwrap_or(0)
        }
    }
}

/// The count cell of `block`: its slot in `dense`, grown on demand, or
/// past the dense range its entry in `spill`. A zero cell is untracked;
/// the caller bumps its `tracked`.
#[inline]
fn count_cell<'a, C: Copy + Default>(
    dense: &'a mut Vec<C>,
    spill: &'a mut BTreeMap<u64, C>,
    block: u64,
) -> &'a mut C {
    if block < ANALYZER_DENSE_BLOCKS {
        let idx = block as usize;
        if idx >= dense.len() {
            dense.resize(idx + 1, C::default());
        }
        &mut dense[idx]
    } else {
        spill.entry(block).or_default()
    }
}

/// Sort (block, count) pairs into canonical hot-list order and truncate.
/// The blocks are distinct, so the order is total and an unstable sort
/// of the top `n`, selected first, is exact.
fn ranked(mut v: Vec<HotBlock>, n: usize) -> Vec<HotBlock> {
    let order = |a: &HotBlock, b: &HotBlock| b.count.cmp(&a.count).then(a.block.cmp(&b.block));
    if n < v.len() {
        v.select_nth_unstable_by(n, order);
        v.truncate(n);
    }
    v.sort_unstable_by(order);
    v
}

impl ReferenceAnalyzer for FullAnalyzer {
    fn observe(&mut self, block: u64, weight: u64) {
        let cell = count_cell(&mut self.dense, &mut self.spill, block);
        if *cell == 0 {
            self.tracked += 1;
        }
        *cell += weight;
        self.total += weight;
    }

    fn observe_each(&mut self, blocks: &[u64]) {
        // One pass, one bump of `total`: the whole collection window
        // lands with a single virtual dispatch.
        for &block in blocks {
            let cell = count_cell(&mut self.dense, &mut self.spill, block);
            if *cell == 0 {
                self.tracked += 1;
            }
            *cell += 1;
        }
        self.total += blocks.len() as u64;
    }

    fn hot_list(&self, n: usize) -> Vec<HotBlock> {
        let mut v = Vec::with_capacity(self.tracked);
        v.extend(
            self.dense
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(block, &count)| HotBlock {
                    block: block as u64,
                    count,
                }),
        );
        v.extend(
            self.spill
                .iter()
                .filter(|&(_, &count)| count > 0)
                .map(|(&block, &count)| HotBlock { block, count }),
        );
        ranked(v, n)
    }

    fn tracked(&self) -> usize {
        self.tracked
    }

    fn total_observations(&self) -> u64 {
        self.total
    }

    /// Resets in one pass over the dense array, keeping its allocation —
    /// the day-boundary batching the daily protocol relies on.
    fn reset(&mut self) {
        self.dense.fill(0);
        self.spill.clear();
        self.tracked = 0;
        self.total = 0;
    }
}

/// Fixed-capacity counting with the Space-Saving replacement heuristic.
#[derive(Debug, Clone)]
pub struct BoundedAnalyzer {
    capacity: usize,
    counts: BTreeMap<u64, u64>,
    /// (count, block) index for O(log n) minimum lookup.
    by_count: BTreeSet<(u64, u64)>,
    total: u64,
    replacements: u64,
}

impl BoundedAnalyzer {
    /// An analyzer tracking at most `capacity` blocks.
    ///
    /// # Panics
    /// Panics if capacity is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity analyzer");
        BoundedAnalyzer {
            capacity,
            counts: BTreeMap::new(),
            by_count: BTreeSet::new(),
            total: 0,
            replacements: 0,
        }
    }

    /// How many times the replacement heuristic fired (the paper sized
    /// its list "so that replacement was rarely necessary").
    pub fn replacements(&self) -> u64 {
        self.replacements
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl ReferenceAnalyzer for BoundedAnalyzer {
    fn observe(&mut self, block: u64, weight: u64) {
        self.total += weight;
        if let Some(c) = self.counts.get_mut(&block) {
            self.by_count.remove(&(*c, block));
            *c += weight;
            self.by_count.insert((*c, block));
            return;
        }
        let mut base = 0;
        if self.counts.len() >= self.capacity {
            // Replace the minimum-count entry; inherit its count (the
            // Space-Saving over-estimate guarantee).
            #[expect(clippy::expect_used, reason = "the table is full, so not empty")]
            let &(min_count, victim) = self.by_count.iter().next().expect("non-empty");
            self.by_count.remove(&(min_count, victim));
            self.counts.remove(&victim);
            self.replacements += 1;
            base = min_count;
        }
        let c = base + weight;
        self.counts.insert(block, c);
        self.by_count.insert((c, block));
    }

    fn hot_list(&self, n: usize) -> Vec<HotBlock> {
        ranked(
            self.counts
                .iter()
                .map(|(&block, &count)| HotBlock { block, count })
                .collect(),
            n,
        )
    }

    fn tracked(&self) -> usize {
        self.counts.len()
    }

    fn total_observations(&self) -> u64 {
        self.total
    }

    fn reset(&mut self) {
        self.counts.clear();
        self.by_count.clear();
        self.total = 0;
    }
}

/// Exponentially-decayed counting (extension).
///
/// The paper's daily protocol discards each day's counts after
/// rearranging ("block reference counts measured during one day were
/// used (at the end of the day) to rearrange blocks for the next day").
/// A decaying analyzer instead carries history: at each day boundary
/// ([`ReferenceAnalyzer::reset`]) every count is multiplied by `decay`
/// rather than cleared, so the hot list reflects an exponentially
/// weighted average of past days. More robust when one day's sample is
/// noisy; slower to adapt when the workload genuinely shifts — the
/// trade-off `ablate-decay` measures.
#[derive(Debug, Clone)]
pub struct DecayingAnalyzer {
    /// Decayed weight per virtual block (same dense-plus-spill layout as
    /// [`FullAnalyzer`]); zero means untracked.
    dense: Vec<f64>,
    spill: BTreeMap<u64, f64>,
    tracked: usize,
    decay: f64,
    total: u64,
}

impl DecayingAnalyzer {
    /// An analyzer whose counts are scaled by `decay` (in `(0, 1)`) at
    /// each reset. Entries that fall below 0.5 are dropped.
    ///
    /// # Panics
    /// Panics unless `0 < decay < 1`.
    pub fn new(decay: f64) -> Self {
        assert!(decay > 0.0 && decay < 1.0, "decay must be in (0,1)");
        DecayingAnalyzer {
            dense: Vec::new(),
            spill: BTreeMap::new(),
            tracked: 0,
            decay,
            total: 0,
        }
    }

    /// The configured decay factor.
    pub fn decay(&self) -> f64 {
        self.decay
    }
}

impl ReferenceAnalyzer for DecayingAnalyzer {
    fn observe(&mut self, block: u64, weight: u64) {
        let cell = count_cell(&mut self.dense, &mut self.spill, block);
        if *cell == 0.0 {
            self.tracked += 1;
        }
        *cell += weight as f64;
        self.total += weight;
    }

    fn observe_each(&mut self, blocks: &[u64]) {
        for &block in blocks {
            let cell = count_cell(&mut self.dense, &mut self.spill, block);
            if *cell == 0.0 {
                self.tracked += 1;
            }
            *cell += 1.0;
        }
        self.total += blocks.len() as u64;
    }

    fn hot_list(&self, n: usize) -> Vec<HotBlock> {
        // Quantize the decayed weights (x1024 to keep fractional order)
        // so the common HotBlock type carries them.
        let mut v = Vec::with_capacity(self.tracked);
        v.extend(
            self.dense
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0.0)
                .map(|(block, &count)| HotBlock {
                    block: block as u64,
                    count: (count * 1024.0) as u64,
                }),
        );
        v.extend(
            self.spill
                .iter()
                .filter(|&(_, &count)| count > 0.0)
                .map(|(&block, &count)| HotBlock {
                    block,
                    count: (count * 1024.0) as u64,
                }),
        );
        ranked(v, n)
    }

    fn tracked(&self) -> usize {
        self.tracked
    }

    fn total_observations(&self) -> u64 {
        self.total
    }

    /// Decays rather than clears (see the type docs) — one pass over the
    /// dense array at the day boundary.
    fn reset(&mut self) {
        let decay = self.decay;
        let mut tracked = 0;
        for c in &mut self.dense {
            if *c == 0.0 {
                continue;
            }
            *c *= decay;
            if *c < 0.5 {
                *c = 0.0;
            } else {
                tracked += 1;
            }
        }
        self.spill.retain(|_, c| {
            *c *= decay;
            *c >= 0.5
        });
        self.tracked = tracked + self.spill.len();
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_sim::dist::Zipf;
    use abr_sim::SimRng;

    #[test]
    fn ranked_equals_a_stable_sort_of_tied_counts() {
        let mut rng = SimRng::new(0x4A4E);
        for _ in 0..200 {
            let len = rng.below(300) as usize;
            // Distinct blocks in random order; few counts, so most tie.
            let mut blocks: Vec<u64> = (0..len as u64).map(|b| b * 7 + rng.below(7)).collect();
            for i in (1..blocks.len()).rev() {
                blocks.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let v: Vec<HotBlock> = (blocks.into_iter())
                .map(|block| HotBlock {
                    block,
                    count: 1 + rng.below(5),
                })
                .collect();
            for n in [0, 1, len / 3, len.saturating_sub(1), len, len + 5] {
                let mut want = v.clone();
                want.sort_by(|a, b| b.count.cmp(&a.count).then(a.block.cmp(&b.block)));
                want.truncate(n);
                assert_eq!(ranked(v.clone(), n), want, "len {len}, n {n}");
            }
        }
    }

    #[test]
    fn full_analyzer_exact_counts() {
        let mut a = FullAnalyzer::new();
        for _ in 0..5 {
            a.observe(10, 1);
        }
        a.observe(20, 3);
        assert_eq!(a.count_of(10), 5);
        assert_eq!(a.count_of(20), 3);
        assert_eq!(a.count_of(99), 0);
        assert_eq!(a.total_observations(), 8);
        let hot = a.hot_list(10);
        assert_eq!(
            hot[0],
            HotBlock {
                block: 10,
                count: 5
            }
        );
        assert_eq!(
            hot[1],
            HotBlock {
                block: 20,
                count: 3
            }
        );
    }

    #[test]
    fn hot_list_tie_break_deterministic() {
        let mut a = FullAnalyzer::new();
        a.observe(30, 2);
        a.observe(10, 2);
        a.observe(20, 2);
        let hot = a.hot_list(3);
        assert_eq!(
            hot.iter().map(|h| h.block).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn reset_clears() {
        let mut a = FullAnalyzer::new();
        a.observe(1, 1);
        a.reset();
        assert_eq!(a.tracked(), 0);
        assert_eq!(a.total_observations(), 0);
        assert!(a.hot_list(5).is_empty());
    }

    #[test]
    fn bounded_tracks_up_to_capacity() {
        let mut a = BoundedAnalyzer::new(3);
        for b in 0..3 {
            a.observe(b, 1);
        }
        assert_eq!(a.tracked(), 3);
        assert_eq!(a.replacements(), 0);
        a.observe(99, 1);
        assert_eq!(a.tracked(), 3);
        assert_eq!(a.replacements(), 1);
    }

    #[test]
    fn bounded_never_loses_a_heavy_hitter() {
        // Space-Saving guarantee: any block with count > total/capacity is
        // tracked.
        let mut a = BoundedAnalyzer::new(10);
        let mut rng = SimRng::new(1);
        // Heavy: block 7 gets 30% of 10_000 observations.
        for i in 0..10_000u64 {
            if rng.chance(0.3) {
                a.observe(7, 1);
            } else {
                a.observe(1000 + i % 500, 1); // light noise
            }
        }
        let hot = a.hot_list(1);
        assert_eq!(hot[0].block, 7);
        // Estimated count is an over-estimate of the true count.
        assert!(hot[0].count >= 2_800);
    }

    #[test]
    fn bounded_estimates_match_exact_on_skewed_stream() {
        // The paper's claim: short lists still find the hot blocks under
        // skew. Compare top-20 sets from a 200-entry bounded analyzer and
        // the exact analyzer on a Zipf stream over 2000 blocks.
        let z = Zipf::new(2000, 1.4);
        let mut rng = SimRng::new(2);
        let mut exact = FullAnalyzer::new();
        let mut bounded = BoundedAnalyzer::new(200);
        for _ in 0..100_000 {
            let b = z.sample(&mut rng) as u64;
            exact.observe(b, 1);
            bounded.observe(b, 1);
        }
        let top_exact: Vec<u64> = exact.hot_list(20).iter().map(|h| h.block).collect();
        let top_bounded: Vec<u64> = bounded.hot_list(20).iter().map(|h| h.block).collect();
        let overlap = top_exact.iter().filter(|b| top_bounded.contains(b)).count();
        assert!(overlap >= 18, "only {overlap}/20 of true hot set found");
    }

    #[test]
    fn bounded_weighted_observations() {
        let mut a = BoundedAnalyzer::new(4);
        a.observe(1, 10);
        a.observe(2, 5);
        a.observe(1, 10);
        assert_eq!(a.hot_list(1)[0].count, 20);
        assert_eq!(a.total_observations(), 25);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_rejected() {
        BoundedAnalyzer::new(0);
    }

    #[test]
    fn decaying_analyzer_carries_history() {
        let mut a = DecayingAnalyzer::new(0.5);
        a.observe(10, 8);
        a.reset(); // 10 -> 4
        a.observe(20, 5);
        let hot = a.hot_list(2);
        // Yesterday's block 10 (decayed to 4) still ranks below today's
        // 20 (5), but is present.
        assert_eq!(hot[0].block, 20);
        assert_eq!(hot[1].block, 10);
        assert_eq!(hot[1].count, 4 * 1024);
    }

    #[test]
    fn decaying_analyzer_eventually_forgets() {
        let mut a = DecayingAnalyzer::new(0.5);
        a.observe(10, 8);
        for _ in 0..5 {
            a.reset(); // 8 -> 4 -> 2 -> 1 -> 0.5 -> dropped
        }
        assert_eq!(a.tracked(), 0);
    }

    #[test]
    fn decaying_analyzer_smooths_noise() {
        // A steady block observed every day outranks a one-day spike.
        let mut a = DecayingAnalyzer::new(0.7);
        for _ in 0..5 {
            a.observe(1, 10);
            a.reset();
        }
        a.observe(1, 10);
        a.observe(99, 13); // today's noise spike
        let hot = a.hot_list(1);
        assert_eq!(hot[0].block, 1, "steady block must outrank the spike");
    }

    #[test]
    #[should_panic(expected = "decay must be in")]
    fn decaying_analyzer_rejects_bad_decay() {
        DecayingAnalyzer::new(1.0);
    }

    #[test]
    fn hot_list_truncates() {
        let mut a = FullAnalyzer::new();
        for b in 0..100 {
            a.observe(b, b + 1);
        }
        let hot = a.hot_list(5);
        assert_eq!(hot.len(), 5);
        assert_eq!(hot[0].block, 99);
    }
}
