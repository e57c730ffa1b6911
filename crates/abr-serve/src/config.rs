//! Serving-run configuration.

use abr_array::{Redundancy, StripePolicy};
use abr_core::recovery::MaintenanceConfig;
use abr_disk::fault::FaultPlan;
use abr_disk::models::DiskModel;
use abr_driver::SchedulerKind;
use abr_sim::SimDuration;

/// Shape of each client's open-loop arrival process. Every client's
/// long-run rate is the aggregate rate divided by the client count;
/// the kind decides how those arrivals cluster in time.
#[derive(Debug, Clone, Copy)]
pub enum ArrivalKind {
    /// Memoryless arrivals (baseline).
    Poisson,
    /// ON/OFF bursts: while ON the client issues at `burst` times its
    /// long-run rate; ON periods last `mean_on` on average and the OFF
    /// gaps are sized so the long-run rate still matches. §5.2 of the
    /// paper: "the request arrival pattern was very bursty".
    Bursty {
        /// ON-period rate as a multiple of the long-run rate (> 1).
        burst: f64,
        /// Mean ON-period length.
        mean_on: SimDuration,
    },
}

/// Configuration of a serving run: the volume underneath, the client
/// population on top, and the admission/fairness knobs in between.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Member disk model.
    pub disk: DiskModel,
    /// Number of member disks.
    pub n_disks: usize,
    /// How volume blocks are laid out over the members.
    pub stripe: StripePolicy,
    /// Redundancy scheme woven into the stripe map.
    pub redundancy: Redundancy,
    /// Rebuild/scrub pacing (consulted for redundant schemes).
    pub maintenance: MaintenanceConfig,
    /// Optional per-disk fault plans, indexed by disk.
    pub fault_plans: Vec<Option<FaultPlan>>,
    /// Member disk scheduler.
    pub scheduler: SchedulerKind,
    /// Reserved cylinders per member; `> 0` runs the adaptive protocol
    /// (per-disk monitors + between-epoch rearrangement).
    pub reserved_cylinders: u32,
    /// Hot blocks each member places between epochs (adaptive only).
    pub place_blocks: usize,
    /// How often each member's request table is read into its analyzer
    /// (adaptive only; the paper used two minutes).
    pub monitor_period: SimDuration,

    /// Number of simulated clients.
    pub n_clients: usize,
    /// Aggregate long-run arrival rate over all clients, requests/s.
    pub aggregate_rate_per_sec: f64,
    /// Per-client arrival process shape.
    pub arrivals: ArrivalKind,
    /// Fraction of requests that are reads (the rest write).
    pub read_fraction: f64,
    /// Working-set size in file-system blocks; client block popularity
    /// is Zipf (exponent 1.1) over this set, scattered across the volume.
    pub working_set_blocks: usize,

    /// Hard bound on the shared accept queue; arrivals beyond it shed.
    pub accept_queue_cap: usize,
    /// Per-client token-bucket refill rate, requests/s.
    pub bucket_rate_per_sec: f64,
    /// Per-client token-bucket capacity, whole requests.
    pub bucket_burst: u32,
    /// Requests the front end keeps in flight at the volume at once.
    pub max_inflight: usize,

    /// Length of one serving epoch (the day-series granularity).
    pub epoch: SimDuration,
    /// Number of epochs [`crate::ServeExperiment::run`] serves.
    pub epochs: usize,
    /// Master seed; clients draw from indexed substreams of it.
    pub seed: u64,
}

impl ServeConfig {
    /// A small single-disk baseline: 16 Poisson clients, moderate
    /// load, no reserved region. Start here and override fields.
    pub fn new(disk: DiskModel) -> Self {
        ServeConfig {
            disk,
            n_disks: 1,
            stripe: StripePolicy::Striped { chunk_blocks: 8 },
            redundancy: Redundancy::None,
            maintenance: MaintenanceConfig::default(),
            fault_plans: Vec::new(),
            scheduler: SchedulerKind::Scan,
            reserved_cylinders: 0,
            place_blocks: 0,
            monitor_period: SimDuration::from_mins(2),
            n_clients: 16,
            aggregate_rate_per_sec: 15.0,
            arrivals: ArrivalKind::Poisson,
            read_fraction: 0.7,
            working_set_blocks: 2048,
            accept_queue_cap: 256,
            bucket_rate_per_sec: 4.0,
            bucket_burst: 16,
            max_inflight: 16,
            epoch: SimDuration::from_mins(10),
            epochs: 1,
            seed: 0x5E12_7E00,
        }
    }

    /// Long-run arrival rate of one client.
    pub fn per_client_rate(&self) -> f64 {
        self.aggregate_rate_per_sec / self.n_clients as f64
    }
}
