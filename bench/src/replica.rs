//! A traced replica of `abr_core::Experiment`.
//!
//! `Experiment` is a closed box: its day loop calls the workload, the
//! file system, the driver and the daemon, and nothing outside can time
//! one of those calls. The replica assembles the same stack from the
//! same public constructors and runs the same loop — statement for
//! statement after `Experiment::new`, `run_day` and
//! `rearrange_for_next_day` — with a span around every call into a
//! layer. Its days must fingerprint exactly like the untraced
//! `Experiment`'s for the same seed; if they do not, the loop here has
//! fallen behind the real one and the layer numbers are invalid.
//!
//! Only what the paper-shaped workloads use is replicated: no online
//! rearrangement, no fault plan, no request trace.

use crate::span::{SpanDef, Tracer};
use abr_core::analyzer::{BoundedAnalyzer, DecayingAnalyzer, FullAnalyzer, ReferenceAnalyzer};
use abr_core::arranger::{BlockArranger, RearrangeReport};
use abr_core::placement::{PlacementPolicy, SlotMap};
use abr_core::{run_meter_add, DayMetrics, ExperimentConfig, RearrangementDaemon, OVERNIGHT};
use abr_disk::disk::IoDir;
use abr_disk::{Disk, DiskLabel};
use abr_driver::{AdaptiveDriver, DriverConfig, IoRequest, Ioctl, IoctlReply, RequestId};
use abr_fs::{FileSystem, FsConfig, MountMode};
use abr_sim::{EventQueue, SimDuration, SimRng, SimTime};
use abr_workload::WorkloadState;
use std::collections::HashMap;

pub const SETUP: usize = 0;
pub const FORMAT_ATTACH: usize = 1;
pub const NEWFS: usize = 2;
pub const WORKLOAD_SETUP: usize = 3;
pub const POPULATE: usize = 4;
pub const DAY: usize = 5;
pub const NEXT_OP: usize = 6;
pub const APPLY: usize = 7;
pub const PENDING: usize = 8;
pub const SUBMIT: usize = 9;
pub const COMPLETE: usize = 10;
pub const SYNC: usize = 11;
pub const COLLECT: usize = 12;
pub const READ_STATS: usize = 13;
pub const DISTRIBUTIONS: usize = 14;
pub const DAY_METRICS: usize = 15;
pub const DAY_SERIES: usize = 16;
pub const NIGHT: usize = 17;
pub const HOT_LIST: usize = 18;
pub const POLICY_PLACE: usize = 19;
pub const END_DAY: usize = 20;
pub const ADVANCE_DAY: usize = 21;
pub const STATS_CLEAR: usize = 22;

/// Span names are `<crate>.<call>`; `replica.*` is the loop itself.
pub const SPANS: [SpanDef; 23] = [
    SpanDef {
        name: "replica.setup",
        parent: None,
    },
    SpanDef {
        name: "abr-driver.format_attach",
        parent: Some(SETUP),
    },
    SpanDef {
        name: "abr-fs.newfs",
        parent: Some(SETUP),
    },
    SpanDef {
        name: "abr-workload.setup",
        parent: Some(SETUP),
    },
    SpanDef {
        name: "replica.populate",
        parent: Some(SETUP),
    },
    SpanDef {
        name: "replica.day",
        parent: None,
    },
    SpanDef {
        name: "abr-workload.next_op",
        parent: Some(DAY),
    },
    SpanDef {
        name: "abr-workload.apply",
        parent: Some(DAY),
    },
    SpanDef {
        name: "abr-sim.pending",
        parent: Some(DAY),
    },
    SpanDef {
        name: "abr-driver.submit",
        parent: Some(DAY),
    },
    SpanDef {
        name: "abr-driver.complete_next",
        parent: Some(DAY),
    },
    SpanDef {
        name: "abr-fs.sync",
        parent: Some(DAY),
    },
    SpanDef {
        name: "abr-core.collect",
        parent: Some(DAY),
    },
    SpanDef {
        name: "abr-driver.read_stats",
        parent: Some(DAY),
    },
    SpanDef {
        name: "abr-core.distributions",
        parent: Some(DAY),
    },
    SpanDef {
        name: "abr-core.day_metrics",
        parent: Some(DAY),
    },
    SpanDef {
        name: "abr-obs.day_series",
        parent: Some(DAY),
    },
    SpanDef {
        name: "replica.night",
        parent: None,
    },
    SpanDef {
        name: "abr-core.hot_list",
        parent: Some(NIGHT),
    },
    SpanDef {
        name: "abr-core.policy_place",
        parent: Some(NIGHT),
    },
    SpanDef {
        name: "abr-core.end_day",
        parent: Some(NIGHT),
    },
    SpanDef {
        name: "abr-workload.advance_day",
        parent: Some(NIGHT),
    },
    SpanDef {
        name: "abr-driver.stats_clear",
        parent: Some(NIGHT),
    },
];

/// One request as the disk served it, in service order.
#[derive(Debug, Clone, Copy)]
pub struct DiskOp {
    pub dir: IoDir,
    pub sector: u64,
    pub n_sectors: u32,
    pub start: SimTime,
}

/// The log of what the disk served: where each request still queued
/// will land, and the served ones in service order.
#[derive(Default)]
struct Recording {
    queued: HashMap<RequestId, (IoDir, u64, u32)>,
    served: Vec<DiskOp>,
}

/// Queue depth seen by arriving requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct DepthStats {
    pub submits: u64,
    pub sum: u64,
    pub max: u64,
}

pub struct Replica {
    config: ExperimentConfig,
    driver: AdaptiveDriver,
    fs: FileSystem,
    workload: WorkloadState,
    daemon: RearrangementDaemon,
    clock: SimTime,
    day_index: u64,
    placed: u32,
    rearrange_failures: u64,
    /// The configured policy again, to time placement on its own.
    policy: Box<dyn PlacementPolicy>,
    /// Movement I/O of every night since set-up.
    pub io_ops: u64,
    pub depth: DepthStats,
    /// When set, every request the disk serves is logged.
    recording: Option<Recording>,
}

impl Replica {
    /// `Experiment::new`, traced. Set-up and the warm-up day land in the
    /// tracer's current scope.
    pub fn new(config: ExperimentConfig, t: &mut Tracer) -> Replica {
        assert!(
            config.online.is_none() && config.fault_plan.is_none(),
            "the replica covers the paper protocol only"
        );
        let setup_start = t.now();
        let _unmeasured = abr_obs::trace_pause();
        let model = config.disk.clone();
        let spb = 16; // 8 KB blocks
        let label = if config.reserved_cylinders > 0 {
            if config.reserved_at_edge {
                DiskLabel::rearranged_at_edge(model.geometry, config.reserved_cylinders, spb)
            } else {
                DiskLabel::rearranged_aligned(model.geometry, config.reserved_cylinders, spb)
            }
        } else {
            DiskLabel::whole_disk(model.geometry)
        };
        let driver_cfg = DriverConfig {
            block_size: 8192,
            scheduler: config.scheduler,
            monitor_capacity: 1 << 20,
            table_max_entries: 8192,
            ..DriverConfig::default()
        };
        let mut driver = t.time(FORMAT_ATTACH, || {
            let mut disk = Disk::new(model);
            AdaptiveDriver::format(&mut disk, &label, &driver_cfg);
            AdaptiveDriver::attach(disk, driver_cfg).expect("fresh format attaches")
        });
        driver.set_deliver_read_data(false);

        let part_sectors = driver.label().partitions[0].n_sectors;
        let spc = driver.label().physical.sectors_per_cylinder();
        let fs_cfg = FsConfig {
            partition: 0,
            cache_blocks: config.cache_blocks,
            mode: MountMode::ReadWrite,
            write_through: config.profile.nfs_write_through,
            ..FsConfig::default()
        };
        let mut fs = t.time(NEWFS, || FileSystem::newfs(fs_cfg, part_sectors, spc));

        let mut rng = SimRng::new(config.seed);
        let mut clock = SimTime::ZERO;
        let (workload, setup_reqs) = t.time(WORKLOAD_SETUP, || {
            WorkloadState::setup(config.profile.clone(), &mut fs, &mut rng)
                .expect("workload population fits the file system")
        });
        t.time(POPULATE, || {
            for req in setup_reqs {
                driver.submit(req, clock).expect("setup requests are valid");
                if driver.queue_len() > 64 {
                    if let Some(at) = driver.next_completion() {
                        clock = at;
                        driver.complete_next(at);
                    }
                }
            }
            while let Some(at) = driver.next_completion() {
                clock = at;
                driver.complete_next(at);
            }
        });

        if !config.profile.is_mutating() {
            fs.remount(MountMode::ReadOnly);
        }

        let analyzer: Box<dyn ReferenceAnalyzer> =
            match (config.analyzer_decay, config.analyzer_capacity) {
                (Some(decay), _) => Box::new(DecayingAnalyzer::new(decay)),
                (None, Some(cap)) => Box::new(BoundedAnalyzer::new(cap)),
                (None, None) => Box::new(FullAnalyzer::new()),
            };
        let interleave = fs.layout().interleave;
        let arranger = BlockArranger::new(config.policy.make(interleave));
        let mut daemon = RearrangementDaemon::new(analyzer, arranger, config.monitor_period);
        daemon.set_incremental(config.incremental_rearrange);

        driver.ioctl(Ioctl::ReadStats, clock).expect("stats read");
        driver
            .ioctl(Ioctl::ReadRequestTable, clock)
            .expect("table read");

        let mut r = Replica {
            policy: config.policy.make(interleave),
            config,
            driver,
            fs,
            workload,
            daemon,
            clock: clock + SimDuration::from_mins(10),
            day_index: 0,
            placed: 0,
            rearrange_failures: 0,
            io_ops: 0,
            depth: DepthStats::default(),
            recording: None,
        };
        for _ in 0..r.config.warmup_days {
            r.run_day(t);
            r.rearrange_for_next_day(0, t);
        }
        r.day_index = 0;
        r.io_ops = 0;
        r.depth = DepthStats::default();
        t.lap(SETUP, setup_start);
        r
    }

    /// Log every request the disk serves from now on.
    pub fn start_recording(&mut self) {
        self.recording = Some(Recording::default());
    }

    pub fn take_recording(&mut self) -> Vec<DiskOp> {
        self.recording.take().map(|r| r.served).unwrap_or_default()
    }

    pub fn driver(&self) -> &AdaptiveDriver {
        &self.driver
    }

    pub fn fs(&self) -> &FileSystem {
        &self.fs
    }

    pub fn rearrange_failures(&self) -> u64 {
        self.rearrange_failures
    }

    fn submit_untimed(&mut self, req: IoRequest, at: SimTime) {
        let depth = self.driver.queue_len() as u64;
        self.depth.submits += 1;
        self.depth.sum += depth;
        self.depth.max = self.depth.max.max(depth);
        let target = self.recording.as_ref().map(|_| {
            let segments = self
                .driver
                .physical_segments(req.partition, req.sector_in_partition, req.n_sectors)
                .expect("workload request valid");
            (req.dir, segments[0].0, req.n_sectors)
        });
        let id = self.driver.submit(req, at).expect("workload request valid");
        if let (Some(recording), Some(target)) = (&mut self.recording, target) {
            recording.queued.insert(id, target);
        }
    }

    /// Submit one request; `mark` is where the previous lap ended.
    fn submit(&mut self, req: IoRequest, at: SimTime, mark: u64, t: &mut Tracer) -> u64 {
        self.submit_untimed(req, at);
        t.fine_lap(SUBMIT, mark)
    }

    fn complete_untimed(&mut self, at: SimTime) {
        let done = self.driver.complete_next(at);
        if let Some(recording) = &mut self.recording {
            if let Some((dir, sector, n_sectors)) = recording.queued.remove(&done.id) {
                recording.served.push(DiskOp {
                    dir,
                    sector,
                    n_sectors,
                    start: done.dispatched,
                });
            }
        }
    }

    fn complete(&mut self, at: SimTime, mark: u64, t: &mut Tracer) -> u64 {
        self.complete_untimed(at);
        t.fine_lap(COMPLETE, mark)
    }

    /// Complete everything outstanding; returns the last completion time.
    fn drain(&mut self, mut at: SimTime, mark: &mut u64, t: &mut Tracer) -> SimTime {
        while let Some(c) = self.driver.next_completion() {
            at = c;
            *mark = self.complete(c, *mark, t);
        }
        at
    }

    /// `Experiment::run_day`, traced. The spans of a day are laps: each
    /// ends where the next begins, so a boundary costs one clock read
    /// and the day's self time is only what no lap covers (its first
    /// and last statements). The loop's poll of `next_completion` and
    /// its bookkeeping have no lap of their own — every iteration polls,
    /// and a read there costs a tenth of the run — so they are charged
    /// to the lap that is open when they run: the previous iteration's
    /// last one, which is a driver call four times in five. The laps up
    /// to the day's last `collect` are fine spans (see `span`).
    pub fn run_day(&mut self, t: &mut Tracer) -> DayMetrics {
        let day_span = t.now();
        let day_start = self.clock;
        let day_end = day_start + self.config.profile.day_length;
        let mut next_sync = day_start + self.config.sync_period;
        let mut next_monitor = day_start + self.config.monitor_period;
        let (mut op_at, mut op) = self.workload.next_op(day_start, &self.fs);
        let mut pending: EventQueue<IoRequest> = EventQueue::new();
        // The lap that is open, and where it began.
        let mut open = NEXT_OP;
        let mut mark = day_span;

        loop {
            let next_completion = self.driver.next_completion().unwrap_or(SimTime::MAX);
            let next_pending = pending.peek_time().unwrap_or(SimTime::MAX);
            let at = op_at
                .min(next_sync)
                .min(next_monitor)
                .min(next_completion)
                .min(next_pending);
            if at > day_end && pending.is_empty() {
                break;
            }
            mark = t.fine_lap(open, mark);
            if at == next_completion {
                self.complete_untimed(at);
                open = COMPLETE;
            } else if at == next_pending {
                let (_, r) = pending.pop().expect("non-empty");
                mark = t.fine_lap(PENDING, mark);
                self.submit_untimed(r, at);
                open = SUBMIT;
            } else if at == op_at {
                let reqs = self.workload.apply(op, &mut self.fs);
                mark = t.fine_lap(APPLY, mark);
                let pace = self.config.request_pacing;
                for (i, r) in reqs.into_iter().enumerate() {
                    pending.schedule(at + pace * i as u64, r);
                }
                mark = t.fine_lap(PENDING, mark);
                let (next_at, next) = self.workload.next_op(at, &self.fs);
                open = NEXT_OP;
                op_at = if next_at > day_end {
                    SimTime::MAX
                } else {
                    next_at
                };
                op = next;
            } else if at == next_sync {
                let reqs = self.fs.sync();
                mark = t.fine_lap(SYNC, mark);
                for r in reqs {
                    self.submit_untimed(r, at);
                }
                open = SUBMIT;
                next_sync = at + self.config.sync_period;
            } else {
                self.daemon.collect(&mut self.driver, at);
                open = COLLECT;
                next_monitor = at + self.config.monitor_period;
            }
        }
        mark = t.fine_lap(open, mark);

        let mut at = self.drain(day_end, &mut mark, t);
        let reqs = self.fs.sync();
        mark = t.fine_lap(SYNC, mark);
        for r in reqs {
            mark = self.submit(r, at, mark, t);
        }
        at = self.drain(at, &mut mark, t);
        self.daemon.collect(&mut self.driver, at);
        t.fine_lap(COLLECT, mark);

        // Once a day: always recorded.
        let mut mark = t.now();
        let snapshot = match self.driver.ioctl(Ioctl::ReadStats, at).expect("stats read") {
            IoctlReply::Stats(s) => s,
            _ => unreachable!(),
        };
        mark = t.lap(READ_STATS, mark);
        let (all_dist, read_dist) = self.daemon.distributions();
        mark = t.lap(DISTRIBUTIONS, mark);
        let metrics = DayMetrics::new(
            self.day_index,
            self.placed > 0,
            self.placed,
            &snapshot,
            &self.config.disk.seek,
            all_dist.iter().map(|h| h.count).collect(),
            read_dist.iter().map(|h| h.count).collect(),
        );
        mark = t.lap(DAY_METRICS, mark);
        self.clock = at.max(day_end);
        run_meter_add(self.clock - day_start);
        t.lap(DAY_SERIES, mark);
        t.lap(DAY, day_span);
        metrics
    }

    /// `Experiment::rearrange_for_next_day`, traced. On a night that
    /// places blocks the configured policy is also run once more on the
    /// same hot list, on its own span and with its result thrown away:
    /// `end_day` hides placement inside the movement, and this is the
    /// only way to tell the two apart from outside.
    pub fn rearrange_for_next_day(&mut self, n_blocks: usize, t: &mut Tracer) -> RearrangeReport {
        let night = t.now();
        let hot = self.daemon.hot_list(n_blocks);
        let listed = t.now();
        t.add(HOT_LIST, night, listed);
        if n_blocks > 0 {
            if let Some(layout) = self.driver.layout() {
                let slots = SlotMap::new(layout, &self.driver.label().physical);
                let take = n_blocks.min(hot.len());
                let start = t.now();
                std::hint::black_box(self.policy.place(&hot[..take], &slots));
                t.lap(POLICY_PLACE, start);
            }
        }
        let start = t.now();
        let result = self
            .daemon
            .end_day_with(&mut self.driver, &hot, n_blocks, self.clock);
        t.lap(END_DAY, start);
        let report = match result {
            Ok(report) => report,
            Err(_) => {
                self.rearrange_failures += 1;
                self.daemon.end_day_keep_placement();
                RearrangeReport::default()
            }
        };
        self.io_ops += u64::from(report.io_ops);
        self.placed = self.driver.block_table().len() as u32;
        let start = t.now();
        self.workload.advance_day();
        t.lap(ADVANCE_DAY, start);
        self.day_index += 1;
        self.clock += OVERNIGHT.max(report.busy + SimDuration::from_mins(1));
        let start = t.now();
        self.driver
            .ioctl(Ioctl::ReadStats, self.clock)
            .expect("stats clear");
        t.lap(STATS_CLEAR, start);
        t.lap(NIGHT, night);
        report
    }

    /// `Experiment::run_on_off`, one tracer scope per day (days count
    /// from 1; scope day 0 is set-up and warm-up). Per-call spans are
    /// recorded on the days of pair `fine_pair` only.
    pub fn run_on_off(
        &mut self,
        pairs: usize,
        n_blocks: usize,
        sample: u32,
        fine_pair: usize,
        t: &mut Tracer,
    ) -> Vec<DayMetrics> {
        let mut out = Vec::with_capacity(pairs * 2);
        for pair in 0..pairs {
            t.set_fine(pair == fine_pair);
            t.scope(sample, 2 * pair as u32 + 1);
            out.push(self.run_day(t));
            self.rearrange_for_next_day(n_blocks, t);
            t.scope(sample, 2 * pair as u32 + 2);
            out.push(self.run_day(t));
            self.rearrange_for_next_day(0, t);
        }
        t.set_fine(true);
        out
    }
}
