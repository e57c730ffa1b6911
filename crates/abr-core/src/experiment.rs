//! The experiment harness: a simulated file server running multi-day
//! measured workloads, reproducing the paper's experimental method (§5).
//!
//! One [`Experiment`] assembles the full stack — disk mechanism, adaptive
//! driver, FFS-lite file system, synthetic workload, rearrangement daemon
//! — and runs *days*: 15 hours of request traffic (7am–10pm in the
//! paper), with the update daemon flushing dirty buffers every 30 s and
//! the monitoring process reading the request table every 2 minutes. At
//! the end of each day the caller decides how many blocks to place for
//! the next day (0 = an "off" day), exactly like the paper's alternating
//! on/off protocol.
//!
//! Variants that differ only in the device share one workload stream
//! (see [`crate::stream`]): [`share_stream`] runs the first live while
//! recording it and replays it into the rest.

use crate::analyzer::{
    BoundedAnalyzer, DecayingAnalyzer, FullAnalyzer, HotBlock, ReferenceAnalyzer,
};
use crate::arranger::{BlockArranger, RearrangeReport};
use crate::daemon::RearrangementDaemon;
use crate::dayloop::{DayLoop, DayReport};
use crate::metrics::DayMetrics;
use crate::placement::PolicyKind;
use crate::producer::{FsProducer, FsTraffic};
use crate::stream::{DaySource, Recorded, Requests, Stream, StreamKey, TraceTraffic};
use abr_disk::fault::FaultPlan;
use abr_disk::{DiskLabel, DiskModel};
use abr_driver::{AdaptiveDriver, BlockDevice, DriverConfig, Ioctl, IoctlReply, SchedulerKind};
use abr_sim::{SimDuration, SimTime};
use abr_workload::{TraceLog, WorkloadProfile};
use std::sync::Arc;

/// Simulated progress of the current thread's run: how much simulated
/// time [`DayLoop::run_day`] has advanced and how many days completed
/// since the last [`run_meter_reset`].
///
/// The parallel benchmark engine executes each run entirely on one
/// worker thread and reads the meter after it, attributing a
/// simulated-time/real-time ratio to every run even when the
/// experiments are constructed deep inside a regenerator. The meter is
/// a reading of the registry's `engine.sim_us` and `engine.days`
/// counters, so it restarts whenever the registry is cleared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunMeter {
    /// Simulated time advanced by completed `run_day` calls.
    pub sim: SimDuration,
    /// Number of completed measured days (warm-up days included).
    pub days: u64,
}

const SIM_US: &str = "engine.sim_us";
const DAYS: &str = "engine.days";

/// Zero the current thread's [`RunMeter`].
pub fn run_meter_reset() {
    abr_obs::with_registry(|r| {
        r.zero_counter(SIM_US);
        r.zero_counter(DAYS);
    });
}

/// Read the current thread's [`RunMeter`] off the registry.
pub fn run_meter() -> RunMeter {
    abr_obs::with_registry(|r| {
        let value = |name: &str| {
            r.iter_counters()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| v)
        };
        RunMeter {
            sim: SimDuration::from_micros(value(SIM_US)),
            days: value(DAYS),
        }
    })
}

/// Credit one completed day of `sim` simulated time to the current
/// thread's [`RunMeter`] (the registry's `engine.*` counters) and close
/// the day in the metric time series. Called by [`DayLoop::run_day`] at
/// the end of every day or epoch; public so an outside replica of the
/// loop meters identically.
pub fn run_meter_add(sim: SimDuration) {
    abr_obs::with_registry(|r| {
        let sim_us = r.counter(SIM_US);
        let days = r.counter(DAYS);
        r.inc(sim_us, sim.as_micros());
        r.inc(days, 1);
    });
    // This runs after the day-end stats ioctl flushed the driver's
    // batched observations, so the recorded deltas are exactly this
    // day's traffic. SLOs installed for the run are evaluated on the
    // same deltas.
    abr_obs::day_series_record();
}

/// The reserved region the paper gave a disk: 80 cylinders on the
/// Fujitsu-sized disk (1,200 cylinders or more), 48 on the Toshiba-sized
/// one.
pub fn paper_reserved_cylinders(disk: &DiskModel) -> u32 {
    if disk.geometry.cylinders >= 1200 {
        80
    } else {
        48
    }
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The disk under test.
    pub disk: DiskModel,
    /// Reserved cylinders for rearrangement (paper: 48 on the Toshiba,
    /// 80 on the Fujitsu). 0 disables rearrangement entirely.
    pub reserved_cylinders: u32,
    /// Put the reserved region at the edge of the disk instead of the
    /// middle (ablation: organ-pipe theory says the middle is optimal).
    pub reserved_at_edge: bool,
    /// Workload to run.
    pub profile: WorkloadProfile,
    /// Placement policy for rearranged blocks.
    pub policy: PolicyKind,
    /// Disk queueing policy (the measured system ran SCAN).
    pub scheduler: SchedulerKind,
    /// Buffer cache capacity in blocks.
    pub cache_blocks: usize,
    /// Update-daemon period (classic: 30 s).
    pub sync_period: SimDuration,
    /// Request-monitor read period (paper: 2 minutes).
    pub monitor_period: SimDuration,
    /// Reference-analyzer list capacity; `None` = unbounded exact counts
    /// (the paper's configuration).
    pub analyzer_capacity: Option<usize>,
    /// Carry counts across days with this decay factor instead of the
    /// paper's nightly reset (extension; overrides `analyzer_capacity`).
    pub analyzer_decay: Option<f64>,
    /// Spacing between successive block requests of one file-level
    /// operation. An NFS client walks a file one 8 KB read RPC at a time,
    /// so a whole-file read reaches the server as a paced train, not an
    /// instantaneous burst — and trains from different clients interleave,
    /// which is what makes hot blocks from different files alternate in
    /// the request stream (§1.1). Sync-daemon write bursts are *not*
    /// paced (the update daemon queues all dirty buffers at once).
    pub request_pacing: SimDuration,
    /// Use incremental rearrangement (evict/copy only day-over-day
    /// differences) instead of the paper's full clean-and-recopy cycle.
    pub incremental_rearrange: bool,
    /// Online (continuous) rearrangement: every `period`, if the driver
    /// is idle, incrementally re-place the hottest `n_blocks` from the
    /// counts gathered so far today — the intelligent-controller variant
    /// the paper sketches against Loge. `None` = the paper's
    /// overnight-only protocol.
    pub online: Option<OnlineConfig>,
    /// Unmeasured warm-up days run at construction, so measured days see
    /// a steady-state buffer cache rather than a cold one (the paper
    /// measured a long-running production server).
    pub warmup_days: u32,
    /// Seeded fault injection (extension): install a [`abr_disk::fault::FaultInjector`]
    /// with this plan on the disk once setup and warm-up finish, so the
    /// measured days run against a flaky device. `None` (the default)
    /// leaves the fault layer entirely out of the I/O path.
    pub fault_plan: Option<FaultPlan>,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Paper-shaped defaults for a disk and workload: organ-pipe
    /// placement, SCAN scheduling, reserved region sized like the paper
    /// (48 cylinders on the Toshiba-sized disk, 80 on the Fujitsu-sized
    /// one), 30 s sync, 2 min monitoring.
    pub fn new(disk: DiskModel, profile: WorkloadProfile) -> Self {
        let cache_blocks = profile.cache_blocks;
        ExperimentConfig {
            reserved_cylinders: paper_reserved_cylinders(&disk),
            disk,
            reserved_at_edge: false,
            profile,
            policy: PolicyKind::OrganPipe,
            scheduler: SchedulerKind::Scan,
            cache_blocks,
            sync_period: SimDuration::from_secs(30),
            monitor_period: SimDuration::from_mins(2),
            analyzer_capacity: None,
            analyzer_decay: None,
            request_pacing: SimDuration::from_millis(150),
            incremental_rearrange: false,
            online: None,
            warmup_days: 1,
            fault_plan: None,
            seed: 0x5eed,
        }
    }

    /// The fields the workload's disk-level stream is a function of, as
    /// the file system sees them: the partition's sectors and the
    /// cylinder size, not the label fields that shape them. Every other
    /// field only configures the device and its rearrangement. The
    /// destructure is exhaustive, so a new field does not compile until
    /// it is classified here.
    pub fn stream_key(&self) -> StreamKey {
        let ExperimentConfig {
            disk,
            reserved_cylinders,
            reserved_at_edge,
            profile,
            cache_blocks,
            sync_period,
            request_pacing,
            warmup_days,
            seed,
            policy: _,
            scheduler: _,
            monitor_period: _,
            analyzer_capacity: _,
            analyzer_decay: _,
            incremental_rearrange: _,
            online: _,
            fault_plan: _,
        } = self;
        let label = experiment_label(disk, *reserved_cylinders, *reserved_at_edge);
        StreamKey {
            part_sectors: label.partitions[0].n_sectors,
            sectors_per_cylinder: label.physical.sectors_per_cylinder(),
            profile: profile.clone(),
            cache_blocks: *cache_blocks,
            sync_period: *sync_period,
            request_pacing: *request_pacing,
            warmup_days: *warmup_days,
            seed: *seed,
        }
    }
}

/// Online rearrangement parameters (see `ExperimentConfig::online`).
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// How often to attempt an online step.
    pub period: SimDuration,
    /// Hot-list size to keep placed.
    pub n_blocks: usize,
}

/// Overnight gap between measured days (7am–10pm measured, then 9 hours
/// of quiet during which the arranger runs).
pub const OVERNIGHT: SimDuration = SimDuration::from_hours(9);

/// Format one experiment member: a blank disk of `disk` with 8 KB
/// blocks, `reserved_cylinders` set aside for rearrangement in the
/// middle of the disk (or at its edge; 0 = a plain disk), the
/// experiment-sized monitor and block table, and completions that carry
/// timing only.
pub fn experiment_member(
    disk: &DiskModel,
    reserved_cylinders: u32,
    reserved_at_edge: bool,
    scheduler: SchedulerKind,
) -> AdaptiveDriver {
    let label = experiment_label(disk, reserved_cylinders, reserved_at_edge);
    let driver_cfg = DriverConfig {
        block_size: 8192,
        scheduler,
        monitor_capacity: 1 << 20,
        table_max_entries: 8192,
        ..DriverConfig::default()
    };
    let mut member = AdaptiveDriver::on_blank_disk(disk.clone(), &label, driver_cfg);
    // The loop consumes only completion timing.
    member.set_deliver_read_data(false);
    member
}

/// The label [`experiment_member`] formats its disk with.
fn experiment_label(
    disk: &DiskModel,
    reserved_cylinders: u32,
    reserved_at_edge: bool,
) -> DiskLabel {
    const SECTORS_PER_BLOCK: u32 = 16;
    match (reserved_cylinders, reserved_at_edge) {
        (0, _) => DiskLabel::whole_disk(disk.geometry),
        (n, true) => DiskLabel::rearranged_at_edge(disk.geometry, n, SECTORS_PER_BLOCK),
        (n, false) => DiskLabel::rearranged_aligned(disk.geometry, n, SECTORS_PER_BLOCK),
    }
}

/// Setup and warm-up are unmeasured: span and event recording pause so
/// an active trace holds only measured-day traffic, and the wall time
/// goes to `wall.setup`. (Wall-clock timers keep running; they feed
/// `wall.*` metrics, which never enter traces.)
fn unmeasured() -> impl Sized {
    let pause = abr_obs::trace_pause();
    (abr_obs::time_scope("setup"), pause)
}

/// The paper's measured-day protocol over any device: the day loop fed
/// by a file system under a synthetic workload, made ahead on a producer
/// thread (see [`crate::producer`]).
pub type FsLoop<D> = DayLoop<D, TraceTraffic<FsProducer>>;

impl<D: BlockDevice> FsLoop<D> {
    /// Build the stack above an already formatted `device` exposing
    /// `vol_sectors` sectors: create the file system, build the
    /// workload's file population (pushing its I/O through the device
    /// before measurement starts), give every member its rearrangement
    /// daemon, run the warm-up days, and only then install
    /// `fault_plans` (indexed by member) — the measured days see the
    /// flaky devices, the setup does not.
    pub fn with_file_system(
        mut device: D,
        vol_sectors: u64,
        config: &ExperimentConfig,
        fault_plans: &[Option<FaultPlan>],
    ) -> Self {
        let spc = device.member_mut(0).label().physical.sectors_per_cylinder();
        let (traffic, setup) = FsTraffic::set_up(vol_sectors, spc, config);
        let interleave = traffic.interleave();
        let traffic = TraceTraffic::new(FsProducer::spawn(traffic));
        Self::start(device, traffic, &setup, interleave, config, fault_plans)
    }
}

impl<D: BlockDevice, S: DaySource> DayLoop<D, TraceTraffic<S>> {
    /// Bring `device` up under `traffic`: push the population's `setup`
    /// writes through it (unmeasured), after each one retiring member
    /// sub-requests until at most 64 are queued, then drain it. A
    /// redundant volume queues two sub-requests per write (data and copy
    /// or parity), so it may retire two. Then give every member its
    /// rearrangement daemon (the interleaved policy keeps the file
    /// system's `interleave`), run the warm-up days, and only then
    /// install `fault_plans`.
    fn start(
        mut device: D,
        traffic: TraceTraffic<S>,
        setup: &Requests,
        interleave: u64,
        config: &ExperimentConfig,
        fault_plans: &[Option<FaultPlan>],
    ) -> Self {
        let mut clock = SimTime::ZERO;
        for (_, _, req) in setup.iter() {
            #[expect(clippy::expect_used, reason = "set-up requests lie inside the volume")]
            device.submit(req, clock).expect("setup requests are valid");
            while device.queue_len() > 64 {
                let Some(t) = device.next_completion() else {
                    break;
                };
                clock = t;
                device.complete_next(t);
            }
        }
        while let Some(t) = device.next_completion() {
            clock = t;
            device.complete_next(t);
        }

        // The rearrangement machinery, one daemon per member.
        let daemons = (0..device.n_members())
            .map(|_| {
                let analyzer: Box<dyn ReferenceAnalyzer> =
                    match (config.analyzer_decay, config.analyzer_capacity) {
                        (Some(decay), _) => Box::new(DecayingAnalyzer::new(decay)),
                        (None, Some(cap)) => Box::new(BoundedAnalyzer::new(cap)),
                        (None, None) => Box::new(FullAnalyzer::new()),
                    };
                let arranger = BlockArranger::new(config.policy.make(interleave));
                let mut daemon =
                    RearrangementDaemon::new(analyzer, arranger, config.monitor_period);
                daemon.set_incremental(config.incremental_rearrange);
                daemon
            })
            .collect();

        let mut h = DayLoop::new(
            device,
            traffic,
            daemons,
            config.online,
            clock + SimDuration::from_mins(10),
        );
        for _ in 0..config.warmup_days {
            h.run_day();
            h.rearrange_for_next_day(0);
        }
        h.day_index = 0;
        h.install_fault_plans(config.seed, fault_plans);
        h
    }

    /// End the day: each member places its own `n_blocks` hottest
    /// blocks for tomorrow (0 = "off" day, reserved area emptied) unless
    /// deferred, then the workload drifts and the clock jumps the
    /// overnight gap.
    pub fn rearrange_for_next_day(&mut self, n_blocks: usize) -> RearrangeReport {
        let total = self.rearrange_members(n_blocks);
        self.finish_night(total.busy);
        total
    }

    /// After the overnight passes took `busy`: power-cycle the members
    /// that worked (a device cut mid-movement is back for the morning;
    /// its media faults and quarantines persist) and advance to the
    /// next morning, at least [`OVERNIGHT`] later.
    fn finish_night(&mut self, busy: SimDuration) {
        for i in 0..self.device.n_members() {
            if (self.defer_rearrangement)(&self.device, i) {
                continue;
            }
            if let Some(inj) = self.device.member_mut(i).disk_mut().injector_mut() {
                if inj.is_dead() {
                    inj.revive();
                }
            }
        }
        self.end_night(OVERNIGHT.max(busy + SimDuration::from_mins(1)));
    }

    /// The paper's alternating protocol — `pairs` pairs of (off day, on
    /// day with `n_blocks` placed per member) — returning every day's
    /// metrics, as `metrics` reads them off the day's report, in order.
    pub fn run_on_off<M>(
        &mut self,
        pairs: usize,
        n_blocks: usize,
        mut metrics: impl FnMut(DayReport) -> M,
    ) -> Vec<M> {
        self.traffic.plan(pairs * 2);
        let mut out = Vec::with_capacity(pairs * 2);
        for _ in 0..pairs {
            // Off day.
            out.push(metrics(self.run_day()));
            self.rearrange_for_next_day(n_blocks);
            // On day.
            out.push(metrics(self.run_day()));
            self.rearrange_for_next_day(0);
        }
        out
    }
}

/// The assembled simulated file server: the day loop over one
/// [`AdaptiveDriver`]. Its day metrics are the roll-up of its single
/// member, so a one-disk volume under the same loop reproduces them by
/// construction.
#[derive(Debug)]
pub struct Experiment {
    config: ExperimentConfig,
    h: DayLoop<AdaptiveDriver, TraceTraffic>,
    /// The set-up writes and the file system's interleave, kept by
    /// [`Self::recording`] for [`Self::into_stream`].
    recorded: Option<(Requests, u64)>,
}

/// Run `protocol` on an experiment of each configuration in turn,
/// handing it the configuration's index. The configurations must share
/// one [`StreamKey`]: the first runs live and records its stream, the
/// others replay it, and the stream is freed after the last. One
/// configuration alone runs live and records nothing. Results come back
/// in configuration order.
pub fn share_stream<R>(
    configs: impl IntoIterator<Item = ExperimentConfig>,
    mut protocol: impl FnMut(usize, &mut Experiment) -> R,
) -> Vec<R> {
    let mut configs = configs.into_iter().peekable();
    let Some(first) = configs.next() else {
        return Vec::new();
    };
    let mut live = match configs.peek() {
        Some(_) => Experiment::recording(first),
        None => Experiment::new(first),
    };
    let mut out = vec![protocol(0, &mut live)];
    if let Some(stream) = live.into_stream() {
        for (i, config) in configs.enumerate() {
            out.push(protocol(i + 1, &mut Experiment::replaying(config, &stream)));
        }
    }
    out
}

impl Experiment {
    /// Build the whole stack: format the disk (with the reserved region
    /// if configured), attach the driver, create the file system, build
    /// the workload's file population, and run the warm-up days.
    pub fn new(config: ExperimentConfig) -> Self {
        Self::live(config, false)
    }

    /// [`Self::new`], recording the stream for [`Self::into_stream`].
    pub fn recording(config: ExperimentConfig) -> Self {
        Self::live(config, true)
    }

    /// The stack of [`Self::new`] with no file system or workload: the
    /// device takes `stream`'s set-up and days instead, which a live run
    /// of any configuration with the same [`ExperimentConfig::stream_key`]
    /// recorded. Its days are bit for bit those of a live run.
    ///
    /// # Panics
    /// Panics if `config`'s stream key is not the stream's.
    pub fn replaying(config: ExperimentConfig, stream: &Stream) -> Self {
        assert!(
            config.stream_key() == stream.key,
            "the stream was recorded under another stream key"
        );
        let _setup = unmeasured();
        let driver = Self::member(&config);
        let days = Recorded::new(Arc::clone(&stream.days));
        let traffic = TraceTraffic::new(Box::new(days) as Box<dyn DaySource>);
        let plans = [config.fault_plan];
        let h = DayLoop::start(
            driver,
            traffic,
            &stream.setup,
            stream.interleave,
            &config,
            &plans,
        );
        Experiment {
            config,
            h,
            recorded: None,
        }
    }

    /// The stack of [`Self::new`]: its file system and workload make the
    /// stream on a producer thread, and the device replays it as it is
    /// made, keeping every day if `record`.
    fn live(config: ExperimentConfig, record: bool) -> Self {
        let _setup = unmeasured();
        let driver = Self::member(&config);
        let label = driver.label();
        let part_sectors = label.partitions[0].n_sectors;
        let spc = label.physical.sectors_per_cylinder();
        let (traffic, setup) = FsTraffic::set_up(part_sectors, spc, &config);
        let interleave = traffic.interleave();
        let producer = FsProducer::spawn(traffic);
        let mut traffic = TraceTraffic::new(Box::new(producer) as Box<dyn DaySource>);
        if record {
            traffic = traffic.keeping();
        }
        let plans = [config.fault_plan];
        let h = DayLoop::start(driver, traffic, &setup, interleave, &config, &plans);
        Experiment {
            config,
            h,
            recorded: record.then_some((setup, interleave)),
        }
    }

    /// The formatted, attached driver `config` describes.
    fn member(config: &ExperimentConfig) -> AdaptiveDriver {
        experiment_member(
            &config.disk,
            config.reserved_cylinders,
            config.reserved_at_edge,
            config.scheduler,
        )
    }

    /// The stream recorded so far — the set-up and every day run — if
    /// this experiment was built by [`Self::recording`].
    pub fn into_stream(self) -> Option<Stream> {
        let (setup, interleave) = self.recorded?;
        Some(Stream {
            key: self.config.stream_key(),
            interleave,
            setup,
            days: self.h.traffic.into_days().into(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Blocks currently placed in the reserved area.
    pub fn placed(&self) -> u32 {
        self.h.placed()
    }

    /// Direct access to the driver (inspection in tests and benches).
    pub fn driver(&self) -> &AdaptiveDriver {
        &self.h.device
    }

    /// Direct access to the rearrangement daemon (inspection).
    pub fn daemon(&self) -> &RearrangementDaemon {
        &self.h.daemons[0]
    }

    /// Fraction of today's (all, read) request counts that landed on
    /// currently-rearranged blocks — the coverage that determines how
    /// much of the day benefits. Call before `rearrange_for_next_day`.
    pub fn remap_coverage(&self) -> (f64, f64) {
        let driver = self.driver();
        let spb = u64::from(driver.sectors_per_block());
        let cover = |dist: &[HotBlock]| {
            let mut hit = 0u64;
            let mut total = 0u64;
            for h in dist {
                total += h.count;
                let phys = driver.label().virtual_to_physical(h.block * spb);
                if driver.block_table().lookup(phys).is_some() {
                    hit += h.count;
                }
            }
            if total == 0 {
                0.0
            } else {
                hit as f64 / total as f64
            }
        };
        let (all, reads) = self.daemon().distributions();
        (cover(&all), cover(&reads))
    }

    /// Run one measured day of workload and return its metrics.
    pub fn run_day(&mut self) -> DayMetrics {
        self.h.run_day().volume(&self.config.disk.seek)
    }

    /// Run one measured day while recording the block-level request
    /// stream (timestamps relative to the day start), for trace-driven
    /// replay (see the [`mod@crate::replay`] module).
    #[expect(clippy::expect_used, reason = "tracing is switched on above")]
    pub fn run_day_traced(&mut self) -> (DayMetrics, TraceLog) {
        self.h.traffic.trace();
        let metrics = self.run_day();
        let trace = self.h.traffic.take_trace();
        (metrics, trace.expect("set above"))
    }

    /// Movement I/O performed by online rearrangement during the last
    /// day (zero when `config.online` is `None`).
    pub fn last_online_io(&self) -> RearrangeReport {
        self.h.last_online_io()
    }

    /// End the day Vongsathorn & Carson-style: aggregate today's counts
    /// per cylinder and install the organ-pipe *cylinder* permutation for
    /// tomorrow (the baseline the paper's Related Work contrasts with).
    /// Requires a disk without a reserved area
    /// (`config.reserved_cylinders == 0`).
    pub fn shuffle_cylinders_for_next_day(&mut self) -> RearrangeReport {
        use abr_driver::cylmap::CylinderMap;
        let _t = abr_obs::time_scope("shuffle");
        let g = self.driver().label().physical;
        let spb = u64::from(self.driver().sectors_per_block());
        let (all, _) = self.daemon().distributions();
        let mut counts = vec![0u64; g.cylinders as usize];
        for h in &all {
            let cyl = g.cylinder_of((h.block * spb).min(g.total_sectors() - 1));
            counts[cyl as usize] += h.count;
        }
        let map = CylinderMap::organ_pipe(&counts);
        #[expect(clippy::expect_used, reason = "an idle plain disk takes the shuffle")]
        let reply = self
            .h
            .device
            .ioctl(Ioctl::ShuffleCylinders { map }, self.h.clock)
            .expect("shuffle on idle plain disk");
        let report = match reply {
            IoctlReply::Moved { ops, busy } => RearrangeReport {
                blocks_placed: 0,
                blocks_failed: 0,
                io_ops: ops,
                busy,
            },
            _ => unreachable!(),
        };
        self.h.daemons[0].end_day_keep_placement();
        self.h
            .end_night(OVERNIGHT.max(report.busy + SimDuration::from_mins(1)));
        report
    }

    /// Advance to the next day WITHOUT touching the reserved area —
    /// online mode carries its placement across days. Drift still
    /// applies and counts reset/decay per the analyzer.
    pub fn advance_day_keep_placement(&mut self) {
        self.h.daemons[0].end_day_keep_placement();
        self.h.end_night(OVERNIGHT);
    }

    /// End the day: use today's reference counts to place `n_blocks`
    /// blocks for tomorrow (0 = "off" day, reserved area emptied), apply
    /// workload drift, and advance the clock over the overnight gap.
    pub fn rearrange_for_next_day(&mut self, n_blocks: usize) -> RearrangeReport {
        self.h.rearrange_for_next_day(n_blocks)
    }

    /// [`Experiment::rearrange_for_next_day`] with an externally supplied
    /// hot list — for selection-strategy ablations.
    pub fn rearrange_for_next_day_with(
        &mut self,
        hot: &[HotBlock],
        n_blocks: usize,
    ) -> RearrangeReport {
        let report = self.h.rearrange_member(0, hot, n_blocks);
        self.h.finish_night(report.busy);
        report
    }

    /// Overnight rearrangement passes that failed and were skipped.
    pub fn rearrange_failures(&self) -> u64 {
        self.h.rearrange_failures()
    }

    /// Convenience: run the paper's alternating protocol — `days` pairs
    /// of (off day, on day with `n_blocks` placed) — returning all
    /// metrics in order.
    pub fn run_on_off(&mut self, pairs: usize, n_blocks: usize) -> Vec<DayMetrics> {
        let curve = &self.config.disk.seek;
        self.h.run_on_off(pairs, n_blocks, |day| day.volume(curve))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_disk::models;

    fn tiny_experiment_config() -> ExperimentConfig {
        let mut profile = WorkloadProfile::tiny_test();
        profile.day_length = SimDuration::from_mins(20);
        let mut cfg = ExperimentConfig::new(models::toshiba_mk156f(), profile);
        cfg.cache_blocks = 192;
        cfg.seed = 12345;
        cfg
    }

    /// A fast experiment: tiny workload on the small test disk.
    fn tiny_experiment() -> Experiment {
        Experiment::new(tiny_experiment_config())
    }

    #[test]
    fn device_only_fields_share_a_stream_key_and_stream_fields_split_it() {
        let base = tiny_experiment_config();
        let key = base.stream_key();
        let device_only: [fn(&mut ExperimentConfig); 11] = [
            |c| c.policy = PolicyKind::Serial,
            |c| c.scheduler = SchedulerKind::Fcfs,
            |c| c.monitor_period = SimDuration::from_mins(7),
            |c| c.analyzer_capacity = Some(100),
            |c| c.analyzer_decay = Some(0.5),
            |c| c.incremental_rearrange = true,
            |c| {
                c.online = Some(OnlineConfig {
                    period: SimDuration::from_mins(3),
                    n_blocks: 10,
                })
            },
            |c| c.fault_plan = Some(FaultPlan::with_error_rate(1e-3)),
            // Where the region sits leaves the partition's size alone.
            |c| c.reserved_at_edge = true,
            // The mechanism's timing is the device's; only its geometry
            // reaches the file system.
            |c| c.disk.overhead = SimDuration::from_millis(3),
            |c| c.disk.track_buffer = models::fujitsu_m2266().track_buffer,
        ];
        for (i, change) in device_only.iter().enumerate() {
            let mut c = base.clone();
            change(&mut c);
            assert_eq!(c.stream_key(), key, "device-only change {i}");
        }
        let stream: [fn(&mut ExperimentConfig); 9] = [
            |c| c.disk = models::fujitsu_m2266(),
            |c| c.reserved_cylinders = 40,
            |c| c.profile.daily_drift = 0.3,
            |c| c.profile.day_length = SimDuration::from_mins(21),
            |c| c.cache_blocks = 100,
            |c| c.sync_period = SimDuration::from_secs(10),
            |c| c.request_pacing = SimDuration::from_millis(1),
            |c| c.warmup_days = 2,
            |c| c.seed = 1,
        ];
        for (i, change) in stream.iter().enumerate() {
            let mut c = base.clone();
            change(&mut c);
            assert_ne!(c.stream_key(), key, "stream change {i}");
        }
    }

    #[test]
    fn a_replayed_experiment_needs_its_own_key() {
        let mut e = Experiment::recording(tiny_experiment_config());
        e.run_day();
        let stream = e.into_stream().unwrap();
        assert_eq!(stream.days.len(), 2, "warm-up and one measured day");
        assert!(Experiment::new(tiny_experiment_config())
            .into_stream()
            .is_none());
        let mut other = tiny_experiment_config();
        other.seed += 1;
        let replay = std::panic::catch_unwind(|| Experiment::replaying(other, &stream));
        assert!(replay.is_err(), "a stream of another key must not replay");
    }

    #[test]
    fn day_produces_traffic_and_metrics() {
        let mut e = tiny_experiment();
        let m = e.run_day();
        assert!(m.all.n > 100, "day produced only {} requests", m.all.n);
        assert!(m.reads.n > 0);
        assert!(m.writes.n > 0, "sync bursts must produce writes");
        assert!(m.all.service_ms > 0.0);
        assert!(m.all.fcfs_seek_dist > 0.0);
        assert!(!m.service_cdf.is_empty());
        assert!(m.active_blocks() > 10);
    }

    #[test]
    fn rearrangement_reduces_seek_times() {
        // Rearrange enough blocks to absorb most of the tiny workload's
        // active set — with too small a hot set the head ping-pongs
        // between the reserved region and the rest, which is exactly why
        // the paper sizes the region to the skew knee (Fig. 8).
        let mut e = tiny_experiment();
        let off = e.run_day();
        e.rearrange_for_next_day(400);
        let on = e.run_day();
        assert!(on.rearranged);
        assert!(
            on.all.seek_ms < off.all.seek_ms,
            "on-day seek {} !< off-day {}",
            on.all.seek_ms,
            off.all.seek_ms
        );
        assert!(
            on.all.seek_dist < 0.6 * off.all.seek_dist,
            "seek distance {} not well below {}",
            on.all.seek_dist,
            off.all.seek_dist
        );
    }

    #[test]
    fn off_day_after_on_day_cleans_up() {
        let mut e = tiny_experiment();
        e.run_day();
        e.rearrange_for_next_day(40);
        e.run_day();
        e.rearrange_for_next_day(0);
        assert_eq!(e.placed(), 0);
        assert!(e.driver().block_table().is_empty());
        let m = e.run_day();
        assert!(!m.rearranged);
    }

    #[test]
    fn run_on_off_alternates() {
        let mut e = tiny_experiment();
        let days = e.run_on_off(2, 40);
        assert_eq!(days.len(), 4);
        assert!(!days[0].rearranged);
        assert!(days[1].rearranged);
        assert!(!days[2].rearranged);
        assert!(days[3].rearranged);
    }

    #[test]
    fn experiments_are_deterministic() {
        let run = || {
            let mut e = tiny_experiment();
            let m = e.run_day();
            (
                m.all.n,
                m.all.service_ms.to_bits(),
                m.all.seek_dist.to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn online_mode_adapts_within_the_first_day() {
        let mut cfg_off = tiny_experiment_config();
        cfg_off.warmup_days = 0;
        let baseline = Experiment::new(cfg_off).run_day();

        let mut cfg_on = tiny_experiment_config();
        cfg_on.warmup_days = 0;
        cfg_on.analyzer_decay = Some(0.5);
        cfg_on.online = Some(crate::experiment::OnlineConfig {
            period: SimDuration::from_mins(3),
            n_blocks: 400,
        });
        let mut e = Experiment::new(cfg_on);
        let day1 = e.run_day();
        assert!(
            e.last_online_io().io_ops > 0,
            "online mode must move blocks"
        );
        assert!(e.placed() > 0);
        assert!(
            day1.all.seek_ms < baseline.all.seek_ms,
            "online day-1 {:.2} !< baseline {:.2}",
            day1.all.seek_ms,
            baseline.all.seek_ms
        );
        // Placement persists across days without overnight work.
        e.advance_day_keep_placement();
        assert!(e.placed() > 0);
        assert!(!e.driver().block_table().is_empty());
    }

    #[test]
    fn zero_fault_plan_is_bit_identical() {
        let run = |plan: Option<FaultPlan>| {
            let mut cfg = tiny_experiment_config();
            cfg.fault_plan = plan;
            let mut e = Experiment::new(cfg);
            let m = e.run_day();
            (
                m.all.n,
                m.all.service_ms.to_bits(),
                m.all.seek_dist.to_bits(),
            )
        };
        assert_eq!(run(None), run(Some(FaultPlan::none())));
    }

    #[test]
    fn faulty_device_degrades_gracefully() {
        let mut cfg = tiny_experiment_config();
        cfg.fault_plan = Some(FaultPlan {
            power_cut_after_ops: Some(4_000),
            ..FaultPlan::with_error_rate(1e-3)
        });
        let mut e = Experiment::new(cfg);
        let days = e.run_on_off(1, 40);
        assert_eq!(days.len(), 2);
        for d in &days {
            assert!(d.all.n > 100, "day still serves traffic: {}", d.all.n);
        }
        let faults: u64 = days
            .iter()
            .map(|d| d.faults.retries + d.faults.read_failures + d.faults.write_failures)
            .sum();
        assert!(faults > 0, "the seeded plan must actually fire");
        // The injector survives with its history; the experiment is
        // still standing regardless of what the power cut interrupted.
        assert!(e.driver().disk().injector().is_some());
    }

    #[test]
    fn experiment_is_send() {
        // The parallel benchmark engine moves whole experiments onto
        // worker threads; keep the stack `Send` end to end.
        fn assert_send<T: Send>() {}
        assert_send::<Experiment>();
        assert_send::<ExperimentConfig>();
    }

    #[test]
    fn run_meter_accumulates_per_thread() {
        run_meter_reset();
        let mut e = tiny_experiment();
        let before = run_meter();
        e.run_day();
        let after = run_meter();
        assert_eq!(after.days, before.days + 1);
        assert!(after.sim > before.sim);
        run_meter_reset();
        assert_eq!(run_meter(), RunMeter::default());
    }

    #[test]
    fn setup_and_warmup_are_not_traced() {
        abr_obs::trace_start(abr_obs::DEFAULT_TRACE_CAPACITY);
        let _e = tiny_experiment();
        let buf = abr_obs::trace_take().expect("tracing was started");
        assert!(
            buf.events.is_empty(),
            "setup/warmup leaked {} events into the trace",
            buf.events.len()
        );
        assert_eq!(buf.dropped, 0);
    }

    #[test]
    fn spans_reconcile_with_day_metrics() {
        use abr_obs::{ObsEvent, RearrangePhase};
        abr_obs::trace_start(abr_obs::DEFAULT_TRACE_CAPACITY);
        let mut e = tiny_experiment();
        let m = e.run_day();
        e.rearrange_for_next_day(40);
        let buf = abr_obs::trace_take().expect("tracing was started");
        assert_eq!(buf.dropped, 0);

        let spans: Vec<&abr_obs::RequestSpan> = buf
            .events
            .iter()
            .filter_map(|ev| match ev {
                ObsEvent::Request(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len() as u64, m.all.n, "one span per measured request");

        // Per-phase means reconcile with the day's DirMetrics: both
        // sides hold exact integer-microsecond sums and divide the same
        // way, so they agree to float round-off. (Fault-free day, so
        // every span's breakdown covers its whole service time.)
        let n = spans.len() as f64;
        let mean_ms = |sum_us: u64| sum_us as f64 / n / 1_000.0;
        let service: u64 = spans.iter().map(|s| s.service_us()).sum();
        let waiting: u64 = spans.iter().map(|s| s.waiting_us()).sum();
        let rotation: u64 = spans.iter().map(|s| s.rotation_us).sum();
        let transfer: u64 = spans.iter().map(|s| s.transfer_us).sum();
        for (name, got, want) in [
            ("service", mean_ms(service), m.all.service_ms),
            ("waiting", mean_ms(waiting), m.all.waiting_ms),
            ("rotation", mean_ms(rotation), m.all.rotation_ms),
            ("transfer", mean_ms(transfer), m.all.transfer_ms),
        ] {
            assert!(
                (got - want).abs() < 1e-9,
                "{name}: spans say {got} ms, DirMetrics say {want} ms"
            );
        }
        assert!(spans.iter().all(|s| s.retries == 0 && s.error.is_none()));

        // The overnight pass traced one rearrange start/stop pair, and
        // the movement ioctls it issued account for its reported I/O.
        let starts = buf
            .events
            .iter()
            .filter(|ev| {
                matches!(
                    ev,
                    ObsEvent::Rearrange {
                        phase: RearrangePhase::Start,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(starts, 1);
        let stop = buf
            .events
            .iter()
            .find_map(|ev| match ev {
                ObsEvent::Rearrange {
                    phase: RearrangePhase::Stop,
                    placed,
                    io_ops,
                    ..
                } => Some((*placed, *io_ops)),
                _ => None,
            })
            .expect("successful pass records a stop event");
        assert!(stop.0 > 0, "blocks were placed");
        let move_ops: u32 = buf
            .events
            .iter()
            .filter_map(|ev| match ev {
                ObsEvent::Move { ops, .. } => Some(*ops),
                _ => None,
            })
            .sum();
        assert_eq!(move_ops, stop.1, "move events account for the pass's I/O");
    }

    #[test]
    fn clock_advances_across_days() {
        let mut e = tiny_experiment();
        let c0 = e.h.clock;
        e.run_day();
        e.rearrange_for_next_day(10);
        assert!(e.h.clock > c0 + SimDuration::from_hours(9));
        assert_eq!(e.h.day_index, 1);
    }
}
