//! The array experiment harness: the single-disk measured-day protocol
//! of `abr_core::Experiment`, run against an [`ArrayVolume`].
//!
//! Both harnesses are the same `abr_core::DayLoop` under the same
//! file-system traffic source; this one hands the loop a volume instead
//! of a bare driver. A one-disk striped volume therefore executes
//! exactly the same sequence of driver calls at exactly the same
//! simulated times as `Experiment`, and its `DayMetrics` serialize to
//! identical bytes — by construction, not by parallel maintenance.
//!
//! Each member disk runs its own `RearrangementDaemon`: monitors are
//! read per disk every `monitor_period`, hot lists are computed per
//! disk, and overnight passes run independently — hot blocks migrate
//! into *each spindle's* reserved region based on the traffic that
//! spindle saw.

use crate::stripe::{Redundancy, StripePolicy};
use crate::volume::{ArrayHealth, ArrayVolume};
use abr_core::arranger::RearrangeReport;
use abr_core::recovery::MaintenanceConfig;
use abr_core::{experiment_member, DayMetrics, DayReport, ExperimentConfig, FsLoop};
use abr_disk::fault::FaultPlan;
use abr_disk::SeekCurve;
use abr_sim::SimTime;

/// Array experiment configuration: the single-disk configuration
/// applied to every member, plus the array shape.
#[derive(Debug, Clone)]
pub struct ArrayConfig {
    /// Per-disk configuration (disk model, workload, policy, periods,
    /// seed). `base.fault_plan` is ignored — use [`ArrayConfig::fault_plans`].
    pub base: ExperimentConfig,
    /// Number of member disks.
    pub n_disks: usize,
    /// How volume blocks are laid out over the members.
    pub stripe: StripePolicy,
    /// Optional per-disk fault plans, indexed by disk; missing entries
    /// mean no injector on that disk. Installed after setup and
    /// warm-up, exactly like the single-disk harness.
    pub fault_plans: Vec<Option<FaultPlan>>,
    /// The redundancy scheme woven into the stripe map.
    pub redundancy: Redundancy,
    /// Rebuild/scrub pacing (only consulted when `redundancy` is a
    /// redundant scheme).
    pub maintenance: MaintenanceConfig,
}

impl ArrayConfig {
    /// An array of `n_disks` members each configured like `base`,
    /// without redundancy.
    pub fn new(base: ExperimentConfig, n_disks: usize, stripe: StripePolicy) -> Self {
        Self::redundant(base, n_disks, stripe, Redundancy::None)
    }

    /// An array with an explicit redundancy scheme; redundant schemes
    /// run the background rebuild/scrub engine with default pacing.
    pub fn redundant(
        base: ExperimentConfig,
        n_disks: usize,
        stripe: StripePolicy,
        redundancy: Redundancy,
    ) -> Self {
        assert!(n_disks >= 1, "an array needs at least one disk");
        assert!(
            base.online.is_none(),
            "online rearrangement is single-disk only"
        );
        ArrayConfig {
            base,
            n_disks,
            stripe,
            fault_plans: Vec::new(),
            redundancy,
            maintenance: MaintenanceConfig::default(),
        }
    }
}

/// One measured day of an array run: the volume-level roll-up plus the
/// per-disk breakdown (the per-disk label dimension of the results).
#[derive(Debug, Clone)]
pub struct ArrayDayMetrics {
    /// Metrics over all requests the volume served, with per-disk
    /// performance windows merged order-insensitively.
    pub volume: DayMetrics,
    /// The same metrics computed per member disk.
    pub per_disk: Vec<DayMetrics>,
}

/// The assembled simulated file server over an N-disk volume.
#[derive(Debug)]
pub struct ArrayExperiment {
    config: ArrayConfig,
    h: FsLoop<ArrayVolume>,
}

/// A member that is still re-silvering defers its overnight pass:
/// rearrangement I/O would compete with the rebuild, and moving blocks
/// under an incomplete redundancy window is exactly when placement
/// churn is least affordable.
fn resilvering(volume: &ArrayVolume, i: usize) -> bool {
    volume.stale_blocks(i) > 0
}

/// The volume-level roll-up and per-disk breakdown of one day.
fn day_metrics(curve: &SeekCurve, report: DayReport) -> ArrayDayMetrics {
    ArrayDayMetrics {
        per_disk: report.per_member(curve),
        volume: report.volume(curve),
    }
}

impl ArrayExperiment {
    /// Build the whole stack: format N disks, assemble the volume,
    /// create one file system over it, build the workload population,
    /// run warm-up, and install any per-disk fault injectors.
    pub fn new(config: ArrayConfig) -> Self {
        // Setup and warm-up are unmeasured, exactly as in the
        // single-disk harness.
        let _unmeasured = abr_obs::trace_pause();
        let _wall = abr_obs::time_scope("setup");
        let base = &config.base;
        let members = (0..config.n_disks)
            .map(|_| {
                experiment_member(
                    &base.disk,
                    base.reserved_cylinders,
                    base.reserved_at_edge,
                    base.scheduler,
                )
            })
            .collect();
        let volume = ArrayVolume::with_redundancy(
            members,
            config.stripe,
            config.redundancy,
            config.maintenance,
        );
        let vol_sectors = volume.vol_sectors();
        let mut h = FsLoop::with_file_system(volume, vol_sectors, base, &config.fault_plans);
        h.defer_rearrangement = resilvering;
        ArrayExperiment { config, h }
    }

    /// The configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.config
    }

    /// The current simulated clock (start of the next day).
    pub fn clock(&self) -> SimTime {
        self.h.clock()
    }

    /// Install (or replace) disk `i`'s fault plan after construction —
    /// for scenarios whose fault times are expressed relative to the
    /// post-setup clock (e.g. "dies halfway through day 1"). Uses the
    /// same per-disk seeded substreams as construction-time plans.
    pub fn install_fault_plan(&mut self, i: usize, plan: FaultPlan) {
        self.h.install_fault_plan(self.config.base.seed, i, plan);
    }

    /// Blocks currently placed across all reserved areas.
    pub fn placed(&self) -> u32 {
        self.h.placed()
    }

    /// The volume (inspection in tests and benches).
    pub fn volume(&self) -> &ArrayVolume {
        &self.h.device
    }

    /// The volume, mutably.
    pub fn volume_mut(&mut self) -> &mut ArrayVolume {
        &mut self.h.device
    }

    /// Overnight per-disk rearrangement passes that failed and were
    /// skipped.
    pub fn rearrange_failures(&self) -> u64 {
        self.h.rearrange_failures()
    }

    /// Snapshot array health (and publish the `array.*` gauges).
    pub fn health(&mut self) -> ArrayHealth {
        self.h.device.health()
    }

    /// Run one measured day of workload and return its metrics.
    pub fn run_day(&mut self) -> ArrayDayMetrics {
        day_metrics(&self.config.base.disk.seek, self.h.run_day())
    }

    /// End the day: each member places its own `n_blocks_per_disk`
    /// hottest blocks for tomorrow (0 = "off" day), then the workload
    /// drifts and the clock jumps the overnight gap. The members
    /// rearrange in parallel overnight, so the gap is driven by the
    /// *slowest* member's movement time.
    pub fn rearrange_for_next_day(&mut self, n_blocks_per_disk: usize) -> RearrangeReport {
        self.h.rearrange_for_next_day(n_blocks_per_disk)
    }

    /// Convenience: the paper's alternating protocol — `pairs` pairs of
    /// (off day, on day with `n_blocks_per_disk` placed per member).
    pub fn run_on_off(&mut self, pairs: usize, n_blocks_per_disk: usize) -> Vec<ArrayDayMetrics> {
        let curve = &self.config.base.disk.seek;
        self.h
            .run_on_off(pairs, n_blocks_per_disk, |day| day_metrics(curve, day))
    }
}
