//! Per-day experiment metrics, in the shape of the paper's tables.
//!
//! All seek *times* are computed by pushing the measured seek-*distance*
//! distributions through the disk's Table 1 seek curve — exactly the
//! paper's method ("All table entries are measured values except for seek
//! times. These were computed using the measured seek distance
//! distribution and the seek time functions shown in Table 1").

use crate::analyzer::HotBlock;
use abr_disk::SeekCurve;
use abr_driver::monitor::{DirStats, FaultStats, PerfSnapshot};
use abr_sim::{jsn, FromJson, JsonError, JsonValue};
use std::iter::{FlatMap, RepeatN};

/// Metrics for one request direction (or all requests combined) over one
/// day — one column of Tables 3, 8 and 9.
#[derive(Debug, Clone, Copy)]
pub struct DirMetrics {
    /// Requests measured.
    pub n: u64,
    /// Mean seek distance in arrival order with no rearrangement
    /// (cylinders) — the FCFS baseline.
    pub fcfs_seek_dist: f64,
    /// Mean seek distance in scheduled order (cylinders).
    pub seek_dist: f64,
    /// Percentage of zero-length seeks (scheduled order).
    pub zero_seek_pct: f64,
    /// FCFS baseline mean seek time (ms), through the seek curve.
    pub fcfs_seek_ms: f64,
    /// Mean seek time (ms), through the seek curve.
    pub seek_ms: f64,
    /// Mean service time (ms), measured.
    pub service_ms: f64,
    /// Mean queue waiting time (ms), measured.
    pub waiting_ms: f64,
    /// Mean rotational latency (ms), measured (Table 10).
    pub rotation_ms: f64,
    /// Mean transfer + fixed overhead (ms), measured (Table 10).
    pub transfer_ms: f64,
    /// Fraction of dispatches whose target lay inside the reserved area.
    pub reserved_frac: f64,
}

impl DirMetrics {
    /// Extract from the driver's per-direction statistics using the
    /// disk's seek curve. A direction with no measured requests yields
    /// all-zero metrics (not NaN), so day records always serialize.
    pub fn from_stats(stats: &DirStats, curve: &SeekCurve) -> Self {
        if stats.service.count() == 0 && stats.arrival_seek.count() == 0 {
            return DirMetrics {
                n: 0,
                fcfs_seek_dist: 0.0,
                seek_dist: 0.0,
                zero_seek_pct: 0.0,
                fcfs_seek_ms: 0.0,
                seek_ms: 0.0,
                service_ms: 0.0,
                waiting_ms: 0.0,
                rotation_ms: 0.0,
                transfer_ms: 0.0,
                reserved_frac: 0.0,
            };
        }
        let z = |x: f64| if x.is_nan() { 0.0 } else { x };
        DirMetrics {
            n: stats.service.count(),
            fcfs_seek_dist: z(stats.arrival_seek.mean()),
            seek_dist: z(stats.sched_seek.mean()),
            zero_seek_pct: z(stats.sched_seek.fraction_of(0) * 100.0),
            fcfs_seek_ms: z(stats.arrival_seek.mean_by(|d| curve.time_ms(d))),
            seek_ms: z(stats.sched_seek.mean_by(|d| curve.time_ms(d))),
            service_ms: z(stats.service.mean_ms()),
            waiting_ms: z(stats.queueing.mean_ms()),
            rotation_ms: z(stats.rotation.mean_ms()),
            transfer_ms: z(stats.transfer.mean_ms()),
            reserved_frac: if stats.sched_seek.count() == 0 {
                0.0
            } else {
                stats.reserved_dispatches as f64 / stats.sched_seek.count() as f64
            },
        }
    }

    /// Percentage reduction of mean seek time relative to the FCFS /
    /// no-rearrangement baseline (Table 7, Figure 8).
    pub fn seek_time_reduction_pct(&self) -> f64 {
        (1.0 - self.seek_ms / self.fcfs_seek_ms) * 100.0
    }

    /// Percentage reduction of mean seek distance relative to the FCFS /
    /// no-rearrangement baseline (Figure 8).
    pub fn seek_dist_reduction_pct(&self) -> f64 {
        (1.0 - self.seek_dist / self.fcfs_seek_dist) * 100.0
    }

    /// Persisted form (inside a stats sidecar's day record).
    pub fn to_json(&self) -> JsonValue {
        jsn!({
            "fcfs_seek_dist": self.fcfs_seek_dist,
            "fcfs_seek_ms": self.fcfs_seek_ms,
            "n": self.n,
            "reserved_frac": self.reserved_frac,
            "rotation_ms": self.rotation_ms,
            "seek_dist": self.seek_dist,
            "seek_ms": self.seek_ms,
            "service_ms": self.service_ms,
            "transfer_ms": self.transfer_ms,
            "waiting_ms": self.waiting_ms,
            "zero_seek_pct": self.zero_seek_pct,
        })
    }
}

impl FromJson for DirMetrics {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(DirMetrics {
            n: v.at("n")?,
            fcfs_seek_dist: v.at("fcfs_seek_dist")?,
            seek_dist: v.at("seek_dist")?,
            zero_seek_pct: v.at("zero_seek_pct")?,
            fcfs_seek_ms: v.at("fcfs_seek_ms")?,
            seek_ms: v.at("seek_ms")?,
            service_ms: v.at("service_ms")?,
            waiting_ms: v.at("waiting_ms")?,
            rotation_ms: v.at("rotation_ms")?,
            transfer_ms: v.at("transfer_ms")?,
            reserved_frac: v.at("reserved_frac")?,
        })
    }
}

/// A day's per-block request counts in descending order (Figures 5 and
/// 7), held as runs of equal counts: the tens of thousands of blocks a
/// day references take only tens of distinct counts. It reads back as
/// the plain descending sequence: `len`, `get`, iteration, top-k sums
/// and the JSON array are those of the `Vec<u64>` it stands for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockCounts {
    /// `(count, blocks)`: `blocks` blocks were referenced `count` times.
    /// Counts strictly decrease and `blocks` is never 0, so equal
    /// sequences have equal runs.
    runs: Vec<(u64, usize)>,
}

impl BlockCounts {
    /// The counts of a hot list (every analyzer lists blocks by
    /// non-increasing count).
    pub fn from_hot(hot: &[HotBlock]) -> Self {
        hot.iter().map(|h| h.count).collect()
    }

    /// The distribution of several members' blocks taken together: what
    /// concatenating their sequences and sorting descending gives.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a BlockCounts>) -> Self {
        let mut runs: Vec<(u64, usize)> = parts
            .into_iter()
            .flat_map(|p| p.runs.iter().copied())
            .collect();
        runs.sort_unstable_by_key(|r| std::cmp::Reverse(r.0));
        runs.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        runs.shrink_to_fit();
        BlockCounts { runs }
    }

    /// Append one block referenced `count` times; `false` (and nothing
    /// appended) when `count` exceeds the last count.
    fn push(&mut self, count: u64) -> bool {
        match self.runs.last_mut() {
            Some(last) if last.0 == count => last.1 += 1,
            Some(last) if last.0 < count => return false,
            _ => self.runs.push((count, 1)),
        }
        true
    }

    /// Number of blocks referenced.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.1).sum()
    }

    /// Whether no block was referenced.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The `i`-th largest count.
    pub fn get(&self, mut i: usize) -> Option<u64> {
        for &(count, blocks) in &self.runs {
            if i < blocks {
                return Some(count);
            }
            i -= blocks;
        }
        None
    }

    /// The counts, largest first.
    pub fn iter(&self) -> <&Self as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// Sum of the `k` largest counts.
    pub fn top_sum(&self, k: usize) -> u64 {
        let mut left = k;
        let mut sum = 0;
        for &(count, blocks) in &self.runs {
            let take = blocks.min(left);
            sum += count * take as u64;
            left -= take;
        }
        sum
    }

    /// Sum of all counts: the day's requests over these blocks.
    pub fn total(&self) -> u64 {
        self.top_sum(usize::MAX)
    }

    /// Bytes of heap behind the runs.
    pub fn heap_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<(u64, usize)>()
    }

    /// Persisted form: the array of counts, largest first.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(|&c| JsonValue::from(c)).collect())
    }
}

impl<'a> IntoIterator for &'a BlockCounts {
    type Item = &'a u64;
    type IntoIter = FlatMap<
        std::slice::Iter<'a, (u64, usize)>,
        RepeatN<&'a u64>,
        fn(&'a (u64, usize)) -> RepeatN<&'a u64>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.runs
            .iter()
            .flat_map(|(count, blocks)| std::iter::repeat_n(count, *blocks))
    }
}

impl FromIterator<u64> for BlockCounts {
    /// # Panics
    /// If the counts increase anywhere.
    fn from_iter<I: IntoIterator<Item = u64>>(counts: I) -> Self {
        let mut out = BlockCounts::default();
        for count in counts {
            let pushed = out.push(count);
            assert!(pushed, "block counts must not increase");
        }
        out
    }
}

impl FromJson for BlockCounts {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let mut out = BlockCounts::default();
        for count in Vec::<u64>::from_json(v)? {
            if !out.push(count) {
                return Err(JsonError::new("block counts must not increase"));
            }
        }
        Ok(out)
    }
}

/// Everything measured in one experiment day.
#[derive(Debug, Clone)]
pub struct DayMetrics {
    /// Day index within the run.
    pub day: u64,
    /// Whether blocks were rearranged *during* this day (i.e. placed at
    /// the end of the previous day).
    pub rearranged: bool,
    /// How many blocks were in the reserved area this day.
    pub n_rearranged: u32,
    /// All requests.
    pub all: DirMetrics,
    /// Read requests only.
    pub reads: DirMetrics,
    /// Write requests only.
    pub writes: DirMetrics,
    /// Service-time CDF over all requests: `(ms, cumulative fraction)`
    /// points (Figures 4 and 6).
    pub service_cdf: Vec<(f64, f64)>,
    /// Per-block request counts, descending (Figures 5 and 7), all
    /// requests.
    pub block_counts: BlockCounts,
    /// Per-block request counts, descending, reads only.
    pub block_counts_reads: BlockCounts,
    /// Error-path counters for the day (all zero on a healthy device;
    /// absent in records written before fault injection existed).
    pub faults: FaultStats,
}

impl DayMetrics {
    /// Build from a performance snapshot plus daily request
    /// distributions.
    pub fn new(
        day: u64,
        rearranged: bool,
        n_rearranged: u32,
        snapshot: &PerfSnapshot,
        curve: &SeekCurve,
        block_counts: BlockCounts,
        block_counts_reads: BlockCounts,
    ) -> Self {
        let all_stats = snapshot.all();
        DayMetrics {
            day,
            rearranged,
            n_rearranged,
            all: DirMetrics::from_stats(&all_stats, curve),
            reads: DirMetrics::from_stats(&snapshot.reads, curve),
            writes: DirMetrics::from_stats(&snapshot.writes, curve),
            service_cdf: all_stats
                .service
                .histogram()
                .cdf_points()
                .into_iter()
                .map(|(d, f)| (d.as_millis_f64(), f))
                .collect(),
            block_counts,
            block_counts_reads,
            faults: snapshot.faults,
        }
    }

    /// Fraction of all requests absorbed by the `k` hottest blocks
    /// (the §5.4 skew measure).
    pub fn top_k_share(&self, k: usize) -> f64 {
        let total = self.block_counts.total();
        if total == 0 {
            return f64::NAN;
        }
        self.block_counts.top_sum(k) as f64 / total as f64
    }

    /// Number of distinct blocks referenced this day.
    pub fn active_blocks(&self) -> usize {
        self.block_counts.len()
    }

    /// Persisted form: the record of `abrctl`'s stats sidecar.
    pub fn to_json(&self) -> JsonValue {
        jsn!({
            "all": self.all.to_json(),
            "block_counts": self.block_counts.to_json(),
            "block_counts_reads": self.block_counts_reads.to_json(),
            "day": self.day,
            "faults": self.faults.to_json(),
            "n_rearranged": self.n_rearranged,
            "reads": self.reads.to_json(),
            "rearranged": self.rearranged,
            "service_cdf": &self.service_cdf,
            "writes": self.writes.to_json(),
        })
    }
}

impl FromJson for DayMetrics {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(DayMetrics {
            day: v.at("day")?,
            rearranged: v.at("rearranged")?,
            n_rearranged: v.at("n_rearranged")?,
            all: v.at("all")?,
            reads: v.at("reads")?,
            writes: v.at("writes")?,
            service_cdf: v.at("service_cdf")?,
            block_counts: v.at("block_counts")?,
            block_counts_reads: v.at("block_counts_reads")?,
            faults: match v.get("faults") {
                Some(_) => v.at("faults")?,
                None => FaultStats::default(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_disk::models;
    use abr_driver::monitor::PerfMonitor;
    use abr_driver::request::IoDir;
    use abr_sim::SimDuration;

    fn counts(c: &[u64]) -> BlockCounts {
        c.iter().copied().collect()
    }

    fn snapshot() -> PerfSnapshot {
        let mut p = PerfMonitor::new();
        // Two reads: one long FCFS arrival distance, short scheduled.
        p.record_arrival_seek(IoDir::Read, 200);
        p.record_arrival_seek(IoDir::Read, 300);
        p.record_dispatch(IoDir::Read, 0, SimDuration::from_millis(5), true);
        p.record_dispatch(IoDir::Read, 10, SimDuration::from_millis(15), false);
        p.record_completion(
            IoDir::Read,
            SimDuration::from_millis(20),
            SimDuration::from_millis(8),
            SimDuration::from_millis(10),
        );
        p.record_completion(
            IoDir::Read,
            SimDuration::from_millis(30),
            SimDuration::from_millis(6),
            SimDuration::from_millis(12),
        );
        p.snapshot()
    }

    #[test]
    fn dir_metrics_from_stats() {
        let curve = models::toshiba_mk156f().seek;
        let s = snapshot();
        let m = DirMetrics::from_stats(&s.reads, &curve);
        assert_eq!(m.n, 2);
        assert_eq!(m.fcfs_seek_dist, 250.0);
        assert_eq!(m.seek_dist, 5.0);
        assert_eq!(m.zero_seek_pct, 50.0);
        // Seek times through the curve.
        let expect_fcfs = (curve.time_ms(200) + curve.time_ms(300)) / 2.0;
        assert!((m.fcfs_seek_ms - expect_fcfs).abs() < 1e-9);
        let expect_sched = (curve.time_ms(0) + curve.time_ms(10)) / 2.0;
        assert!((m.seek_ms - expect_sched).abs() < 1e-9);
        assert_eq!(m.service_ms, 25.0);
        assert_eq!(m.waiting_ms, 10.0);
        assert_eq!(m.rotation_ms, 7.0);
        assert_eq!(m.transfer_ms, 11.0);
    }

    #[test]
    fn reductions_relative_to_fcfs() {
        let curve = models::toshiba_mk156f().seek;
        let s = snapshot();
        let m = DirMetrics::from_stats(&s.reads, &curve);
        assert!(m.seek_time_reduction_pct() > 50.0);
        assert!((m.seek_dist_reduction_pct() - 98.0).abs() < 0.1);
    }

    #[test]
    fn day_metrics_shares() {
        let curve = models::toshiba_mk156f().seek;
        let s = snapshot();
        let d = DayMetrics::new(
            0,
            true,
            100,
            &s,
            &curve,
            counts(&[90, 5, 3, 1, 1]),
            counts(&[50, 2]),
        );
        assert!((d.top_k_share(1) - 0.9).abs() < 1e-12);
        assert_eq!(d.active_blocks(), 5);
        assert!(!d.service_cdf.is_empty());
        let last = d.service_cdf.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn serde_roundtrip() {
        let curve = models::toshiba_mk156f().seek;
        let s = snapshot();
        let d = DayMetrics::new(3, false, 0, &s, &curve, counts(&[1]), counts(&[1]));
        let json = JsonValue::parse(&d.to_json().to_string()).unwrap();
        let back = DayMetrics::from_json(&json).unwrap();
        assert_eq!(back.day, 3);
        assert!(!back.rearranged);
        assert_eq!(back.to_json(), d.to_json());
    }
}
