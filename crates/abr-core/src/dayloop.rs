//! The one measured-day loop.
//!
//! The paper's system is one driver under one request stream with a
//! nightly pass. [`DayLoop`] is that system with two seams:
//!
//! * the **device** ([`BlockDevice`]): a bare `AdaptiveDriver` or a
//!   volume over several of them. Each member has its own
//!   [`RearrangementDaemon`], fed from that member's request monitor.
//! * the **traffic source** ([`Traffic`]): where requests come from —
//!   a file system under a synthetic workload, or open-loop clients.
//!
//! `Experiment`, `abr_array::ArrayExperiment` and
//! `abr_serve::ServeExperiment` are configurations of this loop; none of
//! them has an event loop or an overnight per-member pass of its own.
//!
//! # Event order
//!
//! Every step takes the minimum over the next-event times. When several
//! events fall on the same microsecond, exactly one is handled per step,
//! in this fixed priority:
//!
//! 1. a device **completion**;
//! 2. a device **maintenance** window (rebuild/scrub; redundant volumes);
//! 3. an **online** rearrangement tick (when configured);
//! 4. a **source** event — the source orders its own events: the
//!    file-system source pops a paced request, then issues the next
//!    file operation, then runs the periodic sync; the client source
//!    has arrivals only;
//! 5. a **monitor** read of every member's request table.
//!
//! The loop stops at the first step that would fall after the end of
//! the day once the source reports itself drained (the file-system
//! source lets already-issued request trains finish; clients stop
//! dead). It then drains the device, lets the source flush (the final
//! sync), drains again, reads every monitor a last time, and reads and
//! clears every member's statistics — the day's [`DayReport`].

use crate::analyzer::HotBlock;
use crate::arranger::RearrangeReport;
use crate::daemon::RearrangementDaemon;
use crate::experiment::{run_meter_add, OnlineConfig};
use crate::metrics::{BlockCounts, DayMetrics};
use abr_disk::fault::{FaultInjector, FaultPlan};
use abr_disk::seek::SeekCurve;
use abr_driver::{BlockDevice, Ioctl, PerfSnapshot};
use abr_sim::{SimDuration, SimRng, SimTime};

/// Where a day's requests come from. All methods but the first three
/// default to "nothing to do".
pub trait Traffic<D: BlockDevice> {
    /// A measured day (or serving epoch) begins at `start`: schedule its
    /// first events and say when it ends.
    fn begin_day(&mut self, start: SimTime) -> SimTime;
    /// When this source's next event is due (`SimTime::MAX` = never).
    fn next_event(&self) -> SimTime;
    /// Handle the source event due at `t`.
    fn on_event(&mut self, dev: &mut D, t: SimTime);
    /// The device retired `done` at `t`.
    fn on_completion(&mut self, _dev: &mut D, _done: D::Completion, _t: SimTime) {}
    /// Whether nothing already issued still waits to be submitted; the
    /// loop runs past the end of the day until this holds.
    fn drained(&self) -> bool {
        true
    }
    /// The day is over and the device idle at `t`: submit what must
    /// still reach the disk today.
    fn flush(&mut self, _dev: &mut D, _t: SimTime) {}
    /// Every member's statistics have been read; publish whatever else
    /// belongs in the day's metric point before it is recorded.
    fn close_day(&mut self, _dev: &mut D) {}
    /// The night is over; `clock` is the start of the next day.
    fn next_day(&mut self, _clock: SimTime) {}
}

/// One member's share of a measured day.
#[derive(Debug)]
struct MemberDay {
    stats: Box<PerfSnapshot>,
    placed: u32,
    all_counts: BlockCounts,
    read_counts: BlockCounts,
}

/// What one measured day produced: every member's read-and-cleared
/// statistics and block request distributions.
#[derive(Debug)]
pub struct DayReport {
    day: u64,
    placed: u32,
    members: Vec<MemberDay>,
}

impl DayReport {
    /// The day's metrics per member.
    pub fn per_member(&self, curve: &SeekCurve) -> Vec<DayMetrics> {
        let day = |m: &MemberDay| {
            DayMetrics::new(
                self.day,
                m.placed > 0,
                m.placed,
                &m.stats,
                curve,
                m.all_counts.clone(),
                m.read_counts.clone(),
            )
        };
        self.members.iter().map(day).collect()
    }

    /// The day's metrics over the whole device: statistics windows merge
    /// by summation (order-insensitive), block count distributions
    /// merge as the members' sequences concatenated and re-sorted
    /// descending would. For a single member both steps are the
    /// identity and the roll-up *is* the member's metrics.
    pub fn volume(self, curve: &SeekCurve) -> DayMetrics {
        let all = BlockCounts::merge(self.members.iter().map(|m| &m.all_counts));
        let reads = BlockCounts::merge(self.members.iter().map(|m| &m.read_counts));
        let mut members = self.members.into_iter();
        #[expect(
            clippy::expect_used,
            reason = "run_day reports every member and BlockDevice guarantees one"
        )]
        let mut stats = members
            .next()
            .expect("a device has at least one member")
            .stats;
        for m in members {
            stats.merge(&m.stats);
        }
        DayMetrics::new(
            self.day,
            self.placed > 0,
            self.placed,
            &stats,
            curve,
            all,
            reads,
        )
    }
}

/// A device, its traffic source, one rearrangement daemon per member,
/// and the clock that runs them through measured days and nights.
pub struct DayLoop<D: BlockDevice, T: Traffic<D>> {
    /// The device under test.
    pub device: D,
    /// The request source.
    pub traffic: T,
    /// One daemon per member; empty when the members have no reserved
    /// region to rearrange into (nothing is monitored then).
    pub(crate) daemons: Vec<RearrangementDaemon>,
    online: Option<OnlineConfig>,
    pub(crate) clock: SimTime,
    pub(crate) day_index: u64,
    placed: u32,
    last_online_io: RearrangeReport,
    rearrange_failures: u64,
    /// Which members sit out the overnight pass and keep their placement
    /// (default: none). A volume sets this to hold back members that
    /// are busy with something rearrangement I/O must not compete with.
    pub defer_rearrangement: fn(&D, usize) -> bool,
}

impl<D: BlockDevice, T: Traffic<D>> std::fmt::Debug for DayLoop<D, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DayLoop")
            .field("members", &self.device.n_members())
            .field("day", &self.day_index)
            .field("clock", &self.clock)
            .field("placed", &self.placed)
            .finish_non_exhaustive()
    }
}

impl<D: BlockDevice, T: Traffic<D>> DayLoop<D, T> {
    /// Assemble a loop starting its first day at `clock`. `daemons` holds
    /// one daemon per member (all with the same read period), or none at
    /// all for a device that is only served, never monitored or
    /// rearranged. Every member's monitors are zeroed so the first day
    /// starts clean.
    pub fn new(
        mut device: D,
        traffic: T,
        daemons: Vec<RearrangementDaemon>,
        online: Option<OnlineConfig>,
        clock: SimTime,
    ) -> Self {
        assert!(daemons.is_empty() || daemons.len() == device.n_members());
        for i in 0..device.n_members() {
            let member = device.member_mut(i);
            member.read_stats();
            #[expect(
                clippy::expect_used,
                reason = "the read-and-clear ioctls have no error path"
            )]
            member
                .ioctl(Ioctl::ReadRequestTable, clock)
                .expect("monitor reads are infallible");
        }
        DayLoop {
            device,
            traffic,
            daemons,
            online,
            clock,
            day_index: 0,
            placed: 0,
            last_online_io: RearrangeReport::default(),
            rearrange_failures: 0,
            defer_rearrangement: |_, _| false,
        }
    }

    /// The current simulated clock (start of the next day).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Blocks currently placed across all reserved areas.
    pub fn placed(&self) -> u32 {
        self.placed
    }

    /// Overnight per-member passes that failed and were skipped (the
    /// member kept its previous placement).
    pub fn rearrange_failures(&self) -> u64 {
        self.rearrange_failures
    }

    /// Movement I/O performed by online rearrangement during the last
    /// day (zero unless online rearrangement is configured).
    pub fn last_online_io(&self) -> RearrangeReport {
        self.last_online_io
    }

    /// Install a seeded fault injector with `plan` on member `i`.
    /// Member 0 draws from the `"faults"` substream of `seed`, exactly
    /// as a single disk does; member `i > 0` gets an independent
    /// indexed substream.
    pub fn install_fault_plan(&mut self, seed: u64, i: usize, plan: FaultPlan) {
        let root = SimRng::new(seed);
        let rng = if i == 0 {
            root.substream("faults")
        } else {
            root.substream_idx("faults", i as u64)
        };
        self.device
            .member_mut(i)
            .disk_mut()
            .set_injector(Some(FaultInjector::new(plan, rng)));
    }

    /// [`Self::install_fault_plan`] for every member with a plan in
    /// `plans` (indexed by member; missing entries mean no injector).
    pub fn install_fault_plans(&mut self, seed: u64, plans: &[Option<FaultPlan>]) {
        for (i, plan) in plans.iter().take(self.device.n_members()).enumerate() {
            if let Some(plan) = plan {
                self.install_fault_plan(seed, i, *plan);
            }
        }
    }

    /// Read every member's request table into its daemon.
    fn collect_all(&mut self, now: SimTime) {
        for (i, daemon) in self.daemons.iter_mut().enumerate() {
            daemon.collect(self.device.member_mut(i), now);
        }
    }

    /// Recount the blocks sitting in the members' reserved areas.
    fn recount_placed(&mut self) {
        self.placed = (0..self.device.n_members())
            .map(|i| self.device.member_mut(i).block_table().len() as u32)
            .sum();
    }

    /// Retire every outstanding request; returns the time of the last
    /// completion (`t` when the device was already idle).
    fn drain(&mut self, mut t: SimTime) -> SimTime {
        while let Some(c) = self.device.next_completion() {
            t = c;
            let done = self.device.complete_next(c);
            self.traffic.on_completion(&mut self.device, done, c);
        }
        t
    }

    /// Run one measured day (see the module docs for the event order)
    /// and return what the members measured.
    pub fn run_day(&mut self) -> DayReport {
        let loop_scope = abr_obs::time_scope("event_loop");
        let day_start = self.clock;
        let day_end = self.traffic.begin_day(day_start);
        // Every daemon reads its member's monitor on the same period.
        let monitor_period = self.daemons.first().map(|d| d.read_period());
        let mut next_monitor = monitor_period.map_or(SimTime::MAX, |p| day_start + p);
        let mut next_maint = self
            .device
            .next_maintenance(day_start)
            .unwrap_or(SimTime::MAX);
        let mut next_online = self.online.map_or(SimTime::MAX, |o| day_start + o.period);
        self.last_online_io = RearrangeReport::default();

        loop {
            let next_completion = self.device.next_completion().unwrap_or(SimTime::MAX);
            let next_source = self.traffic.next_event();
            let t = next_completion
                .min(next_maint)
                .min(next_online)
                .min(next_source)
                .min(next_monitor);
            if t > day_end && self.traffic.drained() {
                break;
            }
            if t == next_completion {
                let done = self.device.complete_next(t);
                self.traffic.on_completion(&mut self.device, done, t);
            } else if t == next_maint {
                self.device.maintenance_tick(t);
                next_maint = self.device.next_maintenance(t).unwrap_or(SimTime::MAX);
            } else if let Some(online) = self.online.filter(|_| t == next_online) {
                // Keep the freshest counts, then re-place on every idle
                // member. A failed step (faulty device) just skips this
                // tick; the placement on disk stays consistent either way.
                self.collect_all(t);
                for (i, daemon) in self.daemons.iter_mut().enumerate() {
                    let member = self.device.member_mut(i);
                    if member.is_idle() && member.layout().is_some() {
                        if let Ok(report) = daemon.rearrange_online(member, online.n_blocks, t) {
                            self.last_online_io.io_ops += report.io_ops;
                            self.last_online_io.busy += report.busy;
                        }
                    }
                }
                self.recount_placed();
                next_online = t + online.period;
            } else if t == next_source {
                self.traffic.on_event(&mut self.device, t);
            } else {
                self.collect_all(t);
                next_monitor = monitor_period.map_or(SimTime::MAX, |p| t + p);
            }
        }

        // Day end, timed as its own phase so `wall.event_loop` and
        // `wall.day_end` partition the day cleanly.
        drop(loop_scope);
        let _wall = abr_obs::time_scope("day_end");
        let t = self.drain(day_end);
        self.traffic.flush(&mut self.device, t);
        let t = self.drain(t);
        self.collect_all(t);

        let members = (0..self.device.n_members())
            .map(|i| {
                let member = self.device.member_mut(i);
                let stats = member.read_stats();
                let placed = member.block_table().len() as u32;
                let (all, reads) = match self.daemons.get(i) {
                    Some(daemon) => daemon.distributions(),
                    None => Default::default(),
                };
                MemberDay {
                    stats,
                    placed,
                    all_counts: BlockCounts::from_hot(&all),
                    read_counts: BlockCounts::from_hot(&reads),
                }
            })
            .collect();
        self.traffic.close_day(&mut self.device);
        self.clock = t.max(day_end);
        run_meter_add(self.clock - day_start);
        DayReport {
            day: self.day_index,
            placed: self.placed,
            members,
        }
    }

    /// Member `i`'s overnight pass: place `hot` (at most `n_blocks`
    /// blocks; 0 empties the reserved area) for tomorrow and reset the
    /// daily counts. A pass that fails outright (power cut, degraded
    /// device, table region unwritable after retries) is counted and
    /// skipped: the driver's copy-then-commit ordering guarantees that
    /// whatever placement is on disk is consistent, so the member keeps
    /// it and carries on.
    pub fn rearrange_member(
        &mut self,
        i: usize,
        hot: &[HotBlock],
        n_blocks: usize,
    ) -> RearrangeReport {
        let member = self.device.member_mut(i);
        match self.daemons[i].end_day_with(member, hot, n_blocks, self.clock) {
            Ok(report) => report,
            Err(_) => {
                self.rearrange_failures += 1;
                self.daemons[i].end_day_keep_placement();
                RearrangeReport::default()
            }
        }
    }

    /// The overnight pass over all members: each places its own
    /// `n_blocks` hottest blocks, except the deferred ones (see
    /// [`Self::defer_rearrangement`]), which keep their placement and
    /// only roll their counts over. The members work in parallel, so
    /// the returned report sums the work and takes the *slowest*
    /// member's busy time.
    pub fn rearrange_members(&mut self, n_blocks: usize) -> RearrangeReport {
        let mut total = RearrangeReport::default();
        for i in 0..self.daemons.len() {
            if (self.defer_rearrangement)(&self.device, i) {
                self.daemons[i].end_day_keep_placement();
                continue;
            }
            let hot = self.daemons[i].hot_list(n_blocks);
            let report = self.rearrange_member(i, &hot, n_blocks);
            total.blocks_placed += report.blocks_placed;
            total.blocks_failed += report.blocks_failed;
            total.io_ops += report.io_ops;
            total.busy = total.busy.max(report.busy);
        }
        total
    }

    /// Finish the night: recount the placed blocks, jump the clock by
    /// `gap`, clear every member's statistics (the block movement
    /// polluted them) and tell the source a new day starts.
    pub fn end_night(&mut self, gap: SimDuration) {
        self.recount_placed();
        self.day_index += 1;
        self.clock += gap;
        for i in 0..self.device.n_members() {
            self.device.member_mut(i).read_stats();
        }
        self.traffic.next_day(self.clock);
    }
}
