//! Request and performance monitoring (§4.1.4, §4.1.5).
//!
//! The request monitor is the adaptive mechanism's only input: "the driver
//! records information about each I/O request in a small internal table.
//! The information recorded includes the block number and the request
//! size. An ioctl call enables user processes to read the contents of the
//! table and to clear it. In the event that the table fills completely
//! before being cleared, request recording is temporarily suspended."
//!
//! The performance monitor exists "for the purpose of evaluation only":
//! per-direction seek-distance distributions in arrival order and in
//! scheduled order, service-time and queueing-time distributions at 1 ms
//! resolution with exact cumulative sums.

use abr_disk::disk::IoDir;
use abr_obs::{with_registry, CounterId, GaugeId, HiresId, LogHistogram};
use abr_sim::{jsn, DistTable, FromJson, JsonError, JsonValue, SimDuration, TimeStats};

/// One record in the request monitor's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// The *virtual* (pre-remapping) block number: stable identity for
    /// reference counting across rearrangements.
    pub block: u64,
    /// Request size in sectors.
    pub n_sectors: u32,
    /// Read or write.
    pub dir: IoDir,
}

/// The bounded in-driver request table.
#[derive(Debug, Clone)]
pub struct RequestMonitor {
    records: Vec<RequestRecord>,
    capacity: usize,
    /// Requests dropped while the table was full.
    suspended: u64,
    /// Lifetime count of suspension episodes (for reporting).
    suspension_episodes: u64,
    full: bool,
    /// Unified-registry mirrors of the two counters above (static
    /// handles; the thread-local registry is the single sink every
    /// subsystem's tallies flow into).
    dropped_ctr: CounterId,
    suspensions_ctr: CounterId,
}

impl RequestMonitor {
    /// A monitor holding at most `capacity` records between reads.
    ///
    /// # Panics
    /// Panics if capacity is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        let (dropped_ctr, suspensions_ctr) = with_registry(|r| {
            (
                r.counter("driver.monitor.dropped"),
                r.counter("driver.monitor.suspensions"),
            )
        });
        RequestMonitor {
            records: Vec::with_capacity(capacity.min(4096)),
            capacity,
            suspended: 0,
            suspension_episodes: 0,
            full: false,
            dropped_ctr,
            suspensions_ctr,
        }
    }

    /// Record one request; silently drops (and counts) it if the table is
    /// full — "request recording is temporarily suspended".
    ///
    /// A suspension episode starts the moment the table *becomes* full:
    /// recording of the next request is already suspended whether or not
    /// one arrives before the table is read. (Counting on the first drop
    /// instead would report zero episodes for an exactly-full window,
    /// under-reporting how often the monitor saturated.)
    pub fn record(&mut self, rec: RequestRecord) {
        if self.records.len() >= self.capacity {
            self.suspended += 1;
            with_registry(|r| r.inc(self.dropped_ctr, 1));
        } else {
            self.records.push(rec);
            if self.records.len() == self.capacity && !self.full {
                self.full = true;
                self.suspension_episodes += 1;
                with_registry(|r| r.inc(self.suspensions_ctr, 1));
            }
        }
    }

    /// The read-and-clear ioctl: returns all records and the number of
    /// requests that went unrecorded since the last read, resuming
    /// recording.
    pub fn read_and_clear(&mut self) -> (Vec<RequestRecord>, u64) {
        let dropped = self.suspended;
        self.suspended = 0;
        self.full = false;
        (std::mem::take(&mut self.records), dropped)
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total suspension episodes over the monitor's lifetime.
    pub fn suspension_episodes(&self) -> u64 {
        self.suspension_episodes
    }

    /// The records currently held, without clearing (diagnostics like
    /// `abrctl monitor-dump`; the ioctl path uses
    /// [`RequestMonitor::read_and_clear`]).
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Requests dropped since the last read, without clearing.
    pub fn dropped(&self) -> u64 {
        self.suspended
    }
}

/// Statistics for one direction (reads or writes).
#[derive(Debug, Clone)]
pub struct DirStats {
    /// Seek distances in *arrival order* with *no rearrangement*: the
    /// distance between the pre-remap cylinder of consecutive arriving
    /// requests. This is the paper's "FCFS, no block rearrangement"
    /// baseline (Table 3).
    pub arrival_seek: DistTable,
    /// Seek distances in *scheduled order*: the arm movements actually
    /// performed.
    pub sched_seek: DistTable,
    /// Service time: dispatch → completion.
    pub service: TimeStats,
    /// Queueing time: strategy receipt → dispatch.
    pub queueing: TimeStats,
    /// Rotational latency component of service (for Table 10).
    pub rotation: TimeStats,
    /// Transfer + overhead component of service (for Table 10).
    pub transfer: TimeStats,
    /// Dispatches whose target sector lay inside the reserved area
    /// (diagnostic: what fraction of this direction's traffic was
    /// actually redirected).
    pub reserved_dispatches: u64,
}

impl DirStats {
    fn new(range_ms: usize) -> Self {
        DirStats {
            arrival_seek: DistTable::new(),
            sched_seek: DistTable::new(),
            service: TimeStats::new(range_ms),
            queueing: TimeStats::new(range_ms),
            rotation: TimeStats::new(range_ms),
            transfer: TimeStats::new(range_ms),
            reserved_dispatches: 0,
        }
    }

    fn clear(&mut self) {
        self.arrival_seek.clear();
        self.sched_seek.clear();
        self.service.clear();
        self.queueing.clear();
        self.rotation.clear();
        self.transfer.clear();
        self.reserved_dispatches = 0;
    }

    /// Accumulate another window's statistics into this one (used to
    /// combine read+write views, and per-disk views across an array).
    pub fn merge(&mut self, other: &DirStats) {
        self.arrival_seek.merge(&other.arrival_seek);
        self.sched_seek.merge(&other.sched_seek);
        self.service.merge(&other.service);
        self.queueing.merge(&other.queueing);
        self.rotation.merge(&other.rotation);
        self.transfer.merge(&other.transfer);
        self.reserved_dispatches += other.reserved_dispatches;
    }
}

/// Error-path counters: what the retry loop, quarantine logic, and
/// degraded mode did during the measurement window. All zero on a
/// fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient disk faults absorbed by the bounded retry loop.
    pub retries: u64,
    /// Read requests that failed after exhausting retries.
    pub read_failures: u64,
    /// Write requests that failed after exhausting retries.
    pub write_failures: u64,
    /// Reserved-area slots blacklisted after hard media errors.
    pub quarantines: u64,
    /// Blocks whose most recent data became unrecoverable (dirty reserved
    /// copy lost to a hard error before it could be copied home).
    pub lost_blocks: u64,
    /// Block-table persists that fell back after a disk error (the
    /// in-memory change was rolled back).
    pub table_write_failures: u64,
}

impl FaultStats {
    fn clear(&mut self) {
        *self = FaultStats::default();
    }

    /// Whether any fault activity was recorded.
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }

    /// Accumulate another window's fault counters into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.retries += other.retries;
        self.read_failures += other.read_failures;
        self.write_failures += other.write_failures;
        self.quarantines += other.quarantines;
        self.lost_blocks += other.lost_blocks;
        self.table_write_failures += other.table_write_failures;
    }

    /// Persisted form (inside a stats sidecar's day record).
    pub fn to_json(&self) -> JsonValue {
        jsn!({
            "lost_blocks": self.lost_blocks,
            "quarantines": self.quarantines,
            "read_failures": self.read_failures,
            "retries": self.retries,
            "table_write_failures": self.table_write_failures,
            "write_failures": self.write_failures,
        })
    }
}

impl FromJson for FaultStats {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(FaultStats {
            retries: v.at("retries")?,
            read_failures: v.at("read_failures")?,
            write_failures: v.at("write_failures")?,
            quarantines: v.at("quarantines")?,
            lost_blocks: v.at("lost_blocks")?,
            table_write_failures: v.at("table_write_failures")?,
        })
    }
}

/// A point-in-time copy of the monitor contents, as returned by the
/// read-stats ioctl.
#[derive(Debug, Clone)]
pub struct PerfSnapshot {
    /// Read-request statistics.
    pub reads: DirStats,
    /// Write-request statistics.
    pub writes: DirStats,
    /// Error-path counters for the window.
    pub faults: FaultStats,
}

impl PerfSnapshot {
    /// Combined (reads + writes) statistics.
    pub fn all(&self) -> DirStats {
        let mut all = self.reads.clone();
        all.merge(&self.writes);
        all
    }

    /// Requests measured in total.
    pub fn count(&self) -> u64 {
        self.reads.service.count() + self.writes.service.count()
    }

    /// Accumulate another snapshot into this one — how an array folds N
    /// per-disk measurement windows into one volume-level window. All
    /// fields are sums or histogram merges, so the fold is
    /// order-insensitive: volume metrics cannot depend on how disk
    /// completions interleaved.
    pub fn merge(&mut self, other: &PerfSnapshot) {
        self.reads.merge(&other.reads);
        self.writes.merge(&other.writes);
        self.faults.merge(&other.faults);
    }
}

/// Static registry handles mirroring the performance monitor's tallies
/// into the unified thread-local registry (resolved once per monitor).
#[derive(Debug, Clone, Copy)]
struct PerfHandles {
    retries: CounterId,
    read_failures: CounterId,
    write_failures: CounterId,
    quarantines: CounterId,
    lost_blocks: CounterId,
    table_write_failures: CounterId,
    reserved_dispatches: CounterId,
    service_us: HiresId,
    queueing_us: HiresId,
    starved_total: CounterId,
    queue_age_max_us: GaugeId,
}

impl PerfHandles {
    fn resolve() -> Self {
        with_registry(|r| PerfHandles {
            retries: r.counter("driver.faults.retries"),
            read_failures: r.counter("driver.faults.read_failures"),
            write_failures: r.counter("driver.faults.write_failures"),
            quarantines: r.counter("driver.faults.quarantines"),
            lost_blocks: r.counter("driver.faults.lost_blocks"),
            table_write_failures: r.counter("driver.faults.table_write_failures"),
            reserved_dispatches: r.counter("driver.dispatch.reserved"),
            service_us: r.hires("driver.service_us"),
            queueing_us: r.hires("driver.queueing_us"),
            starved_total: r.counter("driver.starved_total"),
            queue_age_max_us: r.gauge("driver.queue_age_max_us"),
        })
    }
}

/// The in-driver performance monitor.
#[derive(Debug, Clone)]
pub struct PerfMonitor {
    reads: DirStats,
    writes: DirStats,
    faults: FaultStats,
    handles: PerfHandles,
    /// Queue age (receipt → dispatch) at or above which a request
    /// counts as starved (µs). See `DriverConfig::starvation_age`.
    starvation_age_us: u64,
    /// Per-request registry observations accumulated locally and merged
    /// in one pass at the day-boundary read-and-clear — the hot path
    /// (dispatch/completion, hundreds of thousands per day) never takes
    /// the registry borrow. Rare events (faults, quarantines) still
    /// mirror immediately.
    pending: PendingObs,
}

/// Locally-buffered registry deltas (see [`PerfMonitor::pending`]).
#[derive(Debug, Clone)]
struct PendingObs {
    service_us: LogHistogram,
    queueing_us: LogHistogram,
    reserved_dispatches: u64,
    /// Largest queue age seen at dispatch since the last flush (µs).
    queue_age_max_us: u64,
    /// Dispatches whose queue age reached the starvation threshold.
    starved: u64,
}

impl PendingObs {
    fn new() -> Self {
        PendingObs {
            service_us: LogHistogram::new(),
            queueing_us: LogHistogram::new(),
            reserved_dispatches: 0,
            queue_age_max_us: 0,
            starved: 0,
        }
    }
}

/// Default starvation-age threshold: a request waiting 2 simulated
/// seconds for the arm is starving under any of the paper's loads.
pub const DEFAULT_STARVATION_AGE: SimDuration = SimDuration::from_millis(2_000);

/// Histogram range: times at or beyond this many ms land in the overflow
/// bucket (they still count exactly toward means).
const RANGE_MS: usize = 4000;

impl Default for PerfMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl PerfMonitor {
    /// A fresh, empty monitor with the default starvation threshold.
    pub fn new() -> Self {
        Self::with_starvation_age(DEFAULT_STARVATION_AGE)
    }

    /// A fresh, empty monitor counting dispatches whose queue age
    /// reached `starvation_age` as starved.
    pub fn with_starvation_age(starvation_age: SimDuration) -> Self {
        PerfMonitor {
            reads: DirStats::new(RANGE_MS),
            writes: DirStats::new(RANGE_MS),
            faults: FaultStats::default(),
            handles: PerfHandles::resolve(),
            starvation_age_us: starvation_age.as_micros(),
            pending: PendingObs::new(),
        }
    }

    /// Count one absorbed (retried) transient disk fault.
    pub fn record_retry(&mut self) {
        self.faults.retries += 1;
        with_registry(|r| r.inc(self.handles.retries, 1));
    }

    /// Count one request that failed after exhausting retries.
    pub fn record_failure(&mut self, dir: IoDir) {
        let h = &self.handles;
        match dir {
            IoDir::Read => {
                self.faults.read_failures += 1;
                with_registry(|r| r.inc(h.read_failures, 1));
            }
            IoDir::Write => {
                self.faults.write_failures += 1;
                with_registry(|r| r.inc(h.write_failures, 1));
            }
        }
    }

    /// Count one reserved slot quarantined after a hard media error.
    pub fn record_quarantine(&mut self) {
        self.faults.quarantines += 1;
        with_registry(|r| r.inc(self.handles.quarantines, 1));
    }

    /// Count one block whose latest data became unrecoverable.
    pub fn record_lost_block(&mut self) {
        self.faults.lost_blocks += 1;
        with_registry(|r| r.inc(self.handles.lost_blocks, 1));
    }

    /// Count one failed (rolled-back) block-table persist.
    pub fn record_table_write_failure(&mut self) {
        self.faults.table_write_failures += 1;
        with_registry(|r| r.inc(self.handles.table_write_failures, 1));
    }

    fn dir_mut(&mut self, dir: IoDir) -> &mut DirStats {
        match dir {
            IoDir::Read => &mut self.reads,
            IoDir::Write => &mut self.writes,
        }
    }

    /// Record the arrival-order (FCFS, no-rearrangement) seek distance of
    /// an arriving request.
    pub fn record_arrival_seek(&mut self, dir: IoDir, distance: u64) {
        self.dir_mut(dir).arrival_seek.record(distance);
    }

    /// Record the dispatch of a request: the scheduled-order seek distance
    /// and the queueing time it accumulated. `in_reserved` marks targets
    /// inside the reserved area.
    pub fn record_dispatch(
        &mut self,
        dir: IoDir,
        distance: u64,
        queueing: SimDuration,
        in_reserved: bool,
    ) {
        let d = self.dir_mut(dir);
        d.sched_seek.record(distance);
        d.queueing.record(queueing);
        let age_us = queueing.as_micros();
        self.pending.queueing_us.observe(age_us);
        self.pending.queue_age_max_us = self.pending.queue_age_max_us.max(age_us);
        if age_us >= self.starvation_age_us {
            self.pending.starved += 1;
        }
        if in_reserved {
            self.dir_mut(dir).reserved_dispatches += 1;
            self.pending.reserved_dispatches += 1;
        }
    }

    /// Record a completion: total service time plus its rotational and
    /// transfer(+overhead) components.
    pub fn record_completion(
        &mut self,
        dir: IoDir,
        service: SimDuration,
        rotation: SimDuration,
        transfer_and_overhead: SimDuration,
    ) {
        let d = self.dir_mut(dir);
        d.service.record(service);
        d.rotation.record(rotation);
        d.transfer.record(transfer_and_overhead);
        self.pending.service_us.observe(service.as_micros());
    }

    /// Snapshot without clearing.
    pub fn snapshot(&self) -> PerfSnapshot {
        PerfSnapshot {
            reads: self.reads.clone(),
            writes: self.writes.clone(),
            faults: self.faults,
        }
    }

    /// The read-and-clear ioctl. Also flushes the locally-buffered
    /// registry observations (see [`PerfMonitor::flush_obs`]).
    pub fn read_and_clear(&mut self) -> PerfSnapshot {
        let snap = self.snapshot();
        self.reads.clear();
        self.writes.clear();
        self.faults.clear();
        self.flush_obs();
        snap
    }

    /// Merge the buffered per-request observations into the registry in
    /// one pass. Called at the day-boundary read-and-clear; harmless (and
    /// cheap) when nothing is buffered.
    pub fn flush_obs(&mut self) {
        let p = &mut self.pending;
        if p.service_us.is_empty() && p.queueing_us.is_empty() && p.reserved_dispatches == 0 {
            return;
        }
        let h = self.handles;
        with_registry(|r| {
            r.merge_hires(h.service_us, &p.service_us);
            r.merge_hires(h.queueing_us, &p.queueing_us);
            r.inc(h.reserved_dispatches, p.reserved_dispatches);
            if p.starved > 0 {
                r.inc(h.starved_total, p.starved);
            }
            // The gauge is the run-wide maximum: only ever raised.
            let prev = r.gauge_value(h.queue_age_max_us);
            let cur = i64::try_from(p.queue_age_max_us).unwrap_or(i64::MAX);
            if cur > prev {
                r.set_gauge(h.queue_age_max_us, cur);
            }
        });
        p.service_us.reset();
        p.queueing_us.reset();
        p.reserved_dispatches = 0;
        p.queue_age_max_us = 0;
        p.starved = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(block: u64) -> RequestRecord {
        RequestRecord {
            block,
            n_sectors: 16,
            dir: IoDir::Read,
        }
    }

    #[test]
    fn request_monitor_records_until_full() {
        let mut m = RequestMonitor::new(3);
        for b in 0..5 {
            m.record(rec(b));
        }
        assert_eq!(m.len(), 3);
        let (recs, dropped) = m.read_and_clear();
        assert_eq!(recs.len(), 3);
        assert_eq!(dropped, 2);
        assert_eq!(m.suspension_episodes(), 1);
        // Recording resumes after the read.
        m.record(rec(9));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn request_monitor_exactly_full_counts_one_suspension() {
        // Regression: a window that fills the table exactly — with no
        // overflow arrivals before the clear — is still a suspension
        // episode (recording *was* suspended); it used to count zero.
        let mut m = RequestMonitor::new(3);
        for b in 0..3 {
            m.record(rec(b));
        }
        let (recs, dropped) = m.read_and_clear();
        assert_eq!(recs.len(), 3);
        assert_eq!(dropped, 0, "nothing was dropped in an exactly-full window");
        assert_eq!(m.suspension_episodes(), 1);
        // Each saturated window counts exactly one more episode.
        for b in 0..4 {
            m.record(rec(b));
        }
        let (_, dropped) = m.read_and_clear();
        assert_eq!(dropped, 1);
        assert_eq!(m.suspension_episodes(), 2);
    }

    #[test]
    fn request_monitor_registry_mirrors_drops_and_suspensions() {
        abr_obs::registry_reset();
        let mut m = RequestMonitor::new(2);
        for b in 0..5 {
            m.record(rec(b));
        }
        let snap = abr_obs::registry_snapshot();
        assert_eq!(snap["counters"]["driver.monitor.dropped"], 3);
        assert_eq!(snap["counters"]["driver.monitor.suspensions"], 1);
    }

    #[test]
    fn request_monitor_no_suspension_when_drained() {
        let mut m = RequestMonitor::new(100);
        for round in 0..10 {
            for b in 0..50 {
                m.record(rec(round * 50 + b));
            }
            let (recs, dropped) = m.read_and_clear();
            assert_eq!(recs.len(), 50);
            assert_eq!(dropped, 0);
        }
        assert_eq!(m.suspension_episodes(), 0);
    }

    #[test]
    fn perf_monitor_separates_directions() {
        let mut p = PerfMonitor::new();
        p.record_completion(
            IoDir::Read,
            SimDuration::from_millis(10),
            SimDuration::from_millis(4),
            SimDuration::from_millis(6),
        );
        p.record_completion(
            IoDir::Write,
            SimDuration::from_millis(30),
            SimDuration::from_millis(8),
            SimDuration::from_millis(22),
        );
        let s = p.snapshot();
        assert_eq!(s.reads.service.mean_ms(), 10.0);
        assert_eq!(s.writes.service.mean_ms(), 30.0);
        assert_eq!(s.all().service.mean_ms(), 20.0);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn perf_monitor_seek_tables() {
        let mut p = PerfMonitor::new();
        p.record_arrival_seek(IoDir::Read, 200);
        p.record_arrival_seek(IoDir::Read, 0);
        p.record_dispatch(IoDir::Read, 0, SimDuration::from_millis(1), false);
        p.record_dispatch(IoDir::Read, 10, SimDuration::from_millis(2), true);
        let s = p.snapshot();
        assert_eq!(s.reads.arrival_seek.mean(), 100.0);
        assert_eq!(s.reads.sched_seek.mean(), 5.0);
        assert_eq!(s.reads.sched_seek.fraction_of(0), 0.5);
        assert_eq!(s.reads.queueing.mean_ms(), 1.5);
    }

    #[test]
    fn read_and_clear_resets() {
        let mut p = PerfMonitor::new();
        p.record_arrival_seek(IoDir::Write, 5);
        let first = p.read_and_clear();
        assert_eq!(first.writes.arrival_seek.count(), 1);
        let second = p.snapshot();
        assert_eq!(second.writes.arrival_seek.count(), 0);
    }

    #[test]
    fn fault_counters_accumulate_and_clear() {
        let mut p = PerfMonitor::new();
        assert!(!p.snapshot().faults.any());
        p.record_retry();
        p.record_retry();
        p.record_failure(IoDir::Read);
        p.record_failure(IoDir::Write);
        p.record_quarantine();
        p.record_lost_block();
        p.record_table_write_failure();
        let s = p.read_and_clear();
        assert!(s.faults.any());
        assert_eq!(s.faults.retries, 2);
        assert_eq!(s.faults.read_failures, 1);
        assert_eq!(s.faults.write_failures, 1);
        assert_eq!(s.faults.quarantines, 1);
        assert_eq!(s.faults.lost_blocks, 1);
        assert_eq!(s.faults.table_write_failures, 1);
        // Cleared with the rest of the stats.
        assert!(!p.snapshot().faults.any());
    }

    #[test]
    fn starvation_and_queue_age_metrics() {
        abr_obs::registry_clear();
        let mut p = PerfMonitor::with_starvation_age(SimDuration::from_millis(10));
        p.record_dispatch(IoDir::Read, 1, SimDuration::from_millis(2), false);
        p.record_dispatch(IoDir::Read, 1, SimDuration::from_millis(50), false);
        // Exactly at the threshold counts as starved (>=).
        p.record_dispatch(IoDir::Write, 1, SimDuration::from_millis(10), false);
        p.flush_obs();
        let snap = abr_obs::registry_snapshot();
        assert_eq!(snap["counters"]["driver.starved_total"], 2);
        assert_eq!(snap["gauges"]["driver.queue_age_max_us"], 50_000);
        assert_eq!(snap["hires"]["driver.queueing_us"]["count"], 3);
        // The gauge is a run-wide max: a later, quieter flush keeps it.
        p.record_dispatch(IoDir::Read, 1, SimDuration::from_millis(1), false);
        p.flush_obs();
        let snap = abr_obs::registry_snapshot();
        assert_eq!(snap["gauges"]["driver.queue_age_max_us"], 50_000);
        assert_eq!(snap["counters"]["driver.starved_total"], 2);
    }

    #[test]
    fn latency_histograms_are_high_resolution() {
        abr_obs::registry_clear();
        let mut p = PerfMonitor::new();
        p.record_completion(
            IoDir::Read,
            SimDuration::from_micros(12_345),
            SimDuration::from_millis(4),
            SimDuration::from_millis(6),
        );
        p.flush_obs();
        let snap = abr_obs::registry_snapshot();
        let h = &snap["hires"]["driver.service_us"];
        assert_eq!(h["scheme"], "log2m32");
        assert_eq!(h["count"], 1);
        assert_eq!(h["sum"], 12_345);
        assert_eq!(h["max"], 12_345);
        // ~3.1% bucket resolution: p99 lands within one sub-bucket.
        let p99 = h["quantiles"]["p99"].as_u64().unwrap();
        assert!((12_345..=12_345 + 12_345 / 32 + 1).contains(&p99));
    }

    #[test]
    fn merged_all_keeps_component_counts() {
        let mut p = PerfMonitor::new();
        for _ in 0..3 {
            p.record_dispatch(IoDir::Read, 7, SimDuration::ZERO, false);
        }
        for _ in 0..2 {
            p.record_dispatch(IoDir::Write, 9, SimDuration::ZERO, false);
        }
        let all = p.snapshot().all();
        assert_eq!(all.sched_seek.count(), 5);
    }
}
