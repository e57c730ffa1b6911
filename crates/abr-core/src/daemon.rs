//! The rearrangement daemon.
//!
//! Combines the user-level processes of §4.2: every `read_period` (two
//! minutes in the paper) it reads and clears the driver's request-monitor
//! table and feeds the records to the reference stream analyzer; at the
//! end of each day it produces the hot list, optionally rearranges, and
//! resets the counts ("block reference counts measured during one day
//! were used (at the end of the day) to rearrange blocks for the next
//! day's requests", §5.1).

use crate::analyzer::{HotBlock, ReferenceAnalyzer};
use crate::arranger::{BlockArranger, RearrangeReport};
use abr_driver::{AdaptiveDriver, DriverError, Ioctl, IoctlReply};
use abr_obs::{record_with, time_scope, ObsEvent, RearrangePhase};
use abr_sim::{SimDuration, SimTime};

/// The periodic monitoring + daily rearrangement controller.
pub struct RearrangementDaemon {
    /// Analyzer over *all* requests.
    analyzer: Box<dyn ReferenceAnalyzer>,
    /// A parallel analyzer over read requests only (for the paper's
    /// read-only distributions, Figures 5 and 7).
    read_analyzer: crate::analyzer::FullAnalyzer,
    arranger: BlockArranger,
    read_period: SimDuration,
    /// Requests that went unrecorded because the monitor table filled.
    dropped: u64,
    /// Use incremental rearrangement (evict/copy only the differences)
    /// instead of the paper's full clean-and-recopy cycle.
    incremental: bool,
    /// Reused per-collect block buffers (all requests / reads only), so
    /// a collection window feeds each analyzer in one batched call.
    collect_scratch: Vec<u64>,
    read_scratch: Vec<u64>,
}

impl std::fmt::Debug for RearrangementDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RearrangementDaemon")
            .field("policy", &self.arranger.policy_name())
            .field("tracked", &self.analyzer.tracked())
            .finish_non_exhaustive()
    }
}

impl RearrangementDaemon {
    /// A daemon reading the request table every `read_period` (the paper
    /// used two minutes) and rearranging with `arranger`.
    pub fn new(
        analyzer: Box<dyn ReferenceAnalyzer>,
        arranger: BlockArranger,
        read_period: SimDuration,
    ) -> Self {
        assert!(read_period > SimDuration::ZERO);
        RearrangementDaemon {
            analyzer,
            read_analyzer: crate::analyzer::FullAnalyzer::new(),
            arranger,
            read_period,
            dropped: 0,
            incremental: false,
            collect_scratch: Vec::new(),
            read_scratch: Vec::new(),
        }
    }

    /// Switch between the paper's full clean-and-recopy cycle (default)
    /// and incremental rearrangement.
    pub fn set_incremental(&mut self, incremental: bool) {
        self.incremental = incremental;
    }

    /// The monitor read period.
    pub fn read_period(&self) -> SimDuration {
        self.read_period
    }

    /// Requests dropped by the monitor so far today.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Read and clear the driver's request table, feeding the analyzer.
    /// Call every [`RearrangementDaemon::read_period`].
    #[expect(clippy::expect_used, reason = "read-and-clear ioctls cannot fail")]
    pub fn collect(&mut self, driver: &mut AdaptiveDriver, now: SimTime) {
        let _t = time_scope("analyzer");
        match driver
            .ioctl(Ioctl::ReadRequestTable, now)
            .expect("monitor reads are infallible")
        {
            IoctlReply::RequestTable { records, dropped } => {
                self.dropped += dropped;
                self.collect_scratch.clear();
                self.read_scratch.clear();
                for r in &records {
                    self.collect_scratch.push(r.block);
                    if r.dir.is_read() {
                        self.read_scratch.push(r.block);
                    }
                }
                self.analyzer.observe_each(&self.collect_scratch);
                self.read_analyzer.observe_each(&self.read_scratch);
            }
            _ => unreachable!("ReadRequestTable replies RequestTable"),
        }
    }

    /// Today's hot list (all requests), ranked.
    pub fn hot_list(&self, n: usize) -> Vec<HotBlock> {
        self.analyzer.hot_list(n)
    }

    /// Today's full block request distribution — all requests and
    /// reads-only — for Figures 5 and 7.
    pub fn distributions(&self) -> (Vec<HotBlock>, Vec<HotBlock>) {
        (
            self.analyzer.hot_list(self.analyzer.tracked()),
            self.read_analyzer.distribution(),
        )
    }

    /// Total requests observed today.
    pub fn observed(&self) -> u64 {
        self.analyzer.total_observations()
    }

    /// Online rearrangement step (extension; see
    /// `ExperimentConfig::online`): incrementally re-place the hottest
    /// `n_blocks` from the counts accumulated *so far today*, without
    /// resetting them. Intended for idle moments — an intelligent
    /// controller (the paper's Loge comparison, §1.1) would do exactly
    /// this below the host. Returns `Err(Busy)` if requests are
    /// outstanding; callers simply skip the tick.
    pub fn rearrange_online(
        &mut self,
        driver: &mut AdaptiveDriver,
        n_blocks: usize,
        now: SimTime,
    ) -> Result<RearrangeReport, DriverError> {
        let hot = self.analyzer.hot_list(n_blocks);
        if hot.is_empty() {
            return Ok(RearrangeReport::default());
        }
        let _t = time_scope("placement");
        self.arranger
            .rearrange_incremental(driver, &hot, n_blocks, now)
    }

    /// End the day without touching the reserved area (online mode keeps
    /// its placement warm across days); daily counts are still
    /// reset/decayed per the analyzer.
    pub fn end_day_keep_placement(&mut self) {
        self.analyzer.reset();
        self.read_analyzer.reset();
        self.dropped = 0;
    }

    /// End the day: rearrange the hottest `n_blocks` blocks for tomorrow
    /// (or clean the reserved area if `n_blocks == 0`), then reset the
    /// daily counts.
    pub fn end_day(
        &mut self,
        driver: &mut AdaptiveDriver,
        n_blocks: usize,
        now: SimTime,
    ) -> Result<RearrangeReport, DriverError> {
        let hot = self.analyzer.hot_list(n_blocks);
        self.end_day_with(driver, &hot, n_blocks, now)
    }

    /// Like [`RearrangementDaemon::end_day`] but with an externally
    /// supplied hot list — used for selection-strategy ablations (e.g.
    /// cylinder-granularity selection) that rank blocks differently from
    /// plain reference counting.
    pub fn end_day_with(
        &mut self,
        driver: &mut AdaptiveDriver,
        hot: &[HotBlock],
        n_blocks: usize,
        now: SimTime,
    ) -> Result<RearrangeReport, DriverError> {
        let _t = time_scope("placement");
        let moving = driver.layout().is_some();
        if moving {
            // A `Start` with no matching `Stop` in a trace marks a pass
            // that failed outright (the error path below returns early).
            record_with(|| ObsEvent::Rearrange {
                phase: RearrangePhase::Start,
                at_us: now.as_micros(),
                placed: 0,
                failed: 0,
                io_ops: 0,
                busy_us: 0,
            });
        }
        let report = if !moving {
            // No reserved area (plain disk, or the cylinder-shuffling
            // baseline): nothing to move, just roll the day over.
            RearrangeReport::default()
        } else if n_blocks == 0 {
            self.arranger.clean(driver, now)?
        } else if self.incremental {
            self.arranger
                .rearrange_incremental(driver, hot, n_blocks, now)?
        } else {
            self.arranger.rearrange(driver, hot, n_blocks, now)?
        };
        if moving {
            record_with(|| ObsEvent::Rearrange {
                phase: RearrangePhase::Stop,
                at_us: (now + report.busy).as_micros(),
                placed: report.blocks_placed,
                failed: report.blocks_failed,
                io_ops: report.io_ops,
                busy_us: report.busy.as_micros(),
            });
        }
        self.analyzer.reset();
        self.read_analyzer.reset();
        self.dropped = 0;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::FullAnalyzer;
    use crate::placement::PolicyKind;
    use abr_disk::{models, DiskLabel};
    use abr_driver::request::IoRequest;
    use abr_driver::{DriverConfig, SchedulerKind};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn driver() -> AdaptiveDriver {
        let model = models::tiny_test_disk();
        let label = DiskLabel::rearranged_aligned(model.geometry, 10, 8);
        let cfg = DriverConfig {
            block_size: 4096,
            scheduler: SchedulerKind::Scan,
            monitor_capacity: 1000,
            table_max_entries: 64,
            ..DriverConfig::default()
        };
        AdaptiveDriver::on_blank_disk(model, &label, cfg)
    }

    fn daemon() -> RearrangementDaemon {
        RearrangementDaemon::new(
            Box::new(FullAnalyzer::new()),
            BlockArranger::new(PolicyKind::OrganPipe.make(1)),
            SimDuration::from_mins(2),
        )
    }

    #[test]
    fn collect_feeds_analyzer() {
        let mut d = driver();
        let mut dm = daemon();
        // 10 requests to block 2, 3 to block 7.
        let mut clk = 0u64;
        for _ in 0..10 {
            d.submit(IoRequest::read(0, 16, 8), t(clk)).unwrap();
            d.drain();
            clk += 100_000;
        }
        for _ in 0..3 {
            d.submit(IoRequest::read(0, 56, 8), t(clk)).unwrap();
            d.drain();
            clk += 100_000;
        }
        dm.collect(&mut d, t(clk));
        assert_eq!(dm.observed(), 13);
        let hot = dm.hot_list(2);
        assert_eq!(hot[0].block, 2);
        assert_eq!(hot[0].count, 10);
        assert_eq!(hot[1].block, 7);
        // Read distribution matches (all were reads).
        let (all, reads) = dm.distributions();
        assert_eq!(all.len(), reads.len());
    }

    #[test]
    fn end_day_rearranges_and_resets() {
        let mut d = driver();
        let mut dm = daemon();
        let mut clk = 0u64;
        for _ in 0..5 {
            d.submit(IoRequest::read(0, 16, 8), t(clk)).unwrap();
            d.drain();
            clk += 100_000;
        }
        dm.collect(&mut d, t(clk));
        let report = dm.end_day(&mut d, 1, t(clk + 1_000_000)).unwrap();
        assert_eq!(report.blocks_placed, 1);
        assert_eq!(d.block_table().len(), 1);
        assert_eq!(dm.observed(), 0, "counts reset for the new day");
    }

    #[test]
    fn end_day_zero_blocks_cleans() {
        let mut d = driver();
        let mut dm = daemon();
        let mut clk = 0u64;
        for _ in 0..5 {
            d.submit(IoRequest::read(0, 16, 8), t(clk)).unwrap();
            d.drain();
            clk += 100_000;
        }
        dm.collect(&mut d, t(clk));
        dm.end_day(&mut d, 1, t(clk + 1_000_000)).unwrap();
        assert_eq!(d.block_table().len(), 1);
        // Off day: clean everything.
        let report = dm.end_day(&mut d, 0, t(clk + 60_000_000)).unwrap();
        assert_eq!(report.blocks_placed, 0);
        assert!(d.block_table().is_empty());
    }

    #[test]
    fn writes_count_toward_all_but_not_reads() {
        let mut d = driver();
        let mut dm = daemon();
        d.submit(IoRequest::write_zeroes(0, 16, 8), t(0)).unwrap();
        d.drain();
        dm.collect(&mut d, t(1_000_000));
        let (all, reads) = dm.distributions();
        assert_eq!(all.len(), 1);
        assert!(reads.is_empty());
    }
}
