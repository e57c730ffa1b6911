//! The serving harness: open-loop clients over an [`ArrayVolume`].
//!
//! One instance is a discrete-event simulation of a block server:
//! per-client arrivals, each already past or refused by its client's
//! token bucket, feed the bounded accept queue, a DRR scan dispatches
//! accepted requests to the volume, and completions flow back to the
//! clients. The arrivals are open loop, so a producer thread draws them
//! ahead (the `arrivals` module); everything else runs on the caller's
//! thread. The event loop merges arrivals, volume completions, monitor
//! reads, and array maintenance into one time-ordered stream with fixed
//! tie-breaking, so a configuration maps to exactly one execution.
//!
//! Epochs play the role the measured day plays in the paper harnesses:
//! each [`ServeExperiment::run_epoch`] serves one epoch, drains, and
//! records a day-series point; with a reserved region configured,
//! [`ServeExperiment::rearrange`] runs the paper's overnight protocol
//! between epochs — per-member hot lists from the epoch's monitor
//! reads, placed into each member's reserved cylinders.

use crate::arrivals::{Arrival, Arrivals, ClientArrivals, Epoch, SECTORS_PER_BLOCK};
use crate::config::ServeConfig;
use crate::drr::Drr;
use abr_array::{ArrayHealth, ArrayVolume, VolCompletion, VolRequestId};
use abr_core::analyzer::FullAnalyzer;
use abr_core::arranger::{BlockArranger, RearrangeReport};
use abr_core::daemon::RearrangementDaemon;
use abr_core::{experiment_member, DayLoop, PolicyKind, Producer, Traffic};
use abr_driver::IoRequest;
use abr_obs::registry::{CounterId, GaugeId, HiresId};
use abr_obs::with_registry;
use abr_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// DRR credit per ring visit, in sectors.
const DRR_QUANTUM: u64 = 16;

/// `serve.*` registry handles, resolved once at construction.
struct ServeObs {
    arrivals: CounterId,
    accepted: CounterId,
    shed: CounterId,
    throttled: CounterId,
    completed: CounterId,
    errors: CounterId,
    clients: GaugeId,
    queue_depth: GaugeId,
    queue_depth_max: GaugeId,
    inflight: GaugeId,
    request_us: HiresId,
    queue_us: HiresId,
}

impl ServeObs {
    fn resolve() -> ServeObs {
        with_registry(|r| ServeObs {
            arrivals: r.counter("serve.arrivals"),
            accepted: r.counter("serve.accepted"),
            shed: r.counter("serve.shed_total"),
            throttled: r.counter("serve.throttled_total"),
            completed: r.counter("serve.completed"),
            errors: r.counter("serve.errors"),
            clients: r.gauge("serve.clients"),
            queue_depth: r.gauge("serve.queue_depth"),
            queue_depth_max: r.gauge("serve.queue_depth_max"),
            inflight: r.gauge("serve.inflight"),
            request_us: r.hires("serve.request_us"),
            queue_us: r.hires("serve.queue_us"),
        })
    }
}

/// An accepted request waiting in its client's queue for dispatch.
struct Queued {
    arrived: SimTime,
    sector: u64,
    write: bool,
}

/// One simulated client's side of the server: its accept queue and
/// what it got served.
#[derive(Default)]
struct Client {
    queue: VecDeque<Queued>,
    completions: u64,
}

/// A request in flight at the volume.
struct Pending {
    client: usize,
    arrived: SimTime,
}

/// Counters for one epoch (deltas, not lifetime totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Requests the clients offered.
    pub arrivals: u64,
    /// Requests past both admission gates.
    pub accepted: u64,
    /// Requests refused because the accept queue was full.
    pub shed: u64,
    /// Requests refused by their client's token bucket.
    pub throttled: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests that failed (submit reject or completion error).
    pub errors: u64,
}

/// Lifetime totals of a serving run.
#[derive(Debug, Clone, Default)]
pub struct ServeSummary {
    /// Requests the clients offered.
    pub arrivals: u64,
    /// Requests past both admission gates.
    pub accepted: u64,
    /// Requests refused because the accept queue was full.
    pub shed: u64,
    /// Requests refused by their client's token bucket.
    pub throttled: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests that failed (submit reject or completion error).
    pub errors: u64,
    /// Requests still in flight when the run ended (a degraded member
    /// that never completed them — bounded by `max_inflight`).
    pub stranded: u64,
    /// Deepest the accept queue ever got (bounded by the cap).
    pub queue_depth_max: u64,
    /// Blocks sitting in reserved regions at the end of the run.
    pub placed: u32,
    /// Per-client completion counts — the fairness evidence.
    pub per_client_completions: Vec<u64>,
}

impl ServeSummary {
    /// Max/min ratio of per-client completions (∞ when some client
    /// completed nothing); ≤ 2 is the acceptance bar under DRR.
    pub fn fairness_ratio(&self) -> f64 {
        let max = self
            .per_client_completions
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        let min = self
            .per_client_completions
            .iter()
            .copied()
            .min()
            .unwrap_or(0);
        if min == 0 {
            if max == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max as f64 / min as f64
        }
    }
}

/// The client traffic source: the arrivals drawn on the producer, the
/// bounded accept queue, the DRR dispatch pump and the completion
/// bookkeeping.
struct Clients {
    config: ServeConfig,
    arrivals: Producer<ClientArrivals>,
    /// The piece of the epoch's arrivals being served.
    piece: Arrivals,
    /// The next arrival in `piece`.
    next: usize,
    clients: Vec<Client>,
    drr: Drr,
    /// Total accepted-but-undispatched requests across clients.
    backlog: usize,
    inflight: BTreeMap<VolRequestId, Pending>,
    obs: ServeObs,
    totals: ServeSummary,
    epoch_stats: EpochStats,
    queue_depth_max: usize,
}

/// The assembled block server: the day loop over an [`ArrayVolume`],
/// fed by open-loop clients instead of a file system.
#[derive(Debug)]
pub struct ServeExperiment {
    h: DayLoop<ArrayVolume, Clients>,
}

impl ServeExperiment {
    /// Build the stack: format the members, assemble the volume, seed
    /// the client population, and install any fault injectors.
    ///
    /// # Panics
    /// Panics when the configuration is degenerate (no clients, no
    /// capacity, a working set larger than the volume).
    pub fn new(config: ServeConfig) -> ServeExperiment {
        let _unmeasured = abr_obs::trace_pause();
        let _wall = abr_obs::time_scope("setup");
        assert!(config.n_clients > 0, "a server needs clients");
        assert!(config.accept_queue_cap > 0, "accept queue needs capacity");
        assert!(config.max_inflight > 0, "need at least one dispatch slot");
        assert!(
            (0.0..=1.0).contains(&config.read_fraction),
            "read fraction is a probability"
        );
        let members = (0..config.n_disks)
            .map(|_| {
                experiment_member(
                    &config.disk,
                    config.reserved_cylinders,
                    false,
                    config.scheduler,
                )
            })
            .collect();
        let volume = ArrayVolume::with_redundancy(
            members,
            config.stripe,
            config.redundancy,
            config.maintenance,
        );

        // The clients are built here, on the caller's thread, and only
        // drawn from on the producer.
        let total_blocks = volume.vol_sectors() / u64::from(SECTORS_PER_BLOCK);
        let arrivals = Producer::spawn(ClientArrivals::new(&config, total_blocks));

        // One rearrangement daemon per member when a reserved region
        // exists. Raw block traffic has no file-system interleave, so
        // the organ-pipe arrangement uses interleave 1.
        let daemons: Vec<RearrangementDaemon> = if config.reserved_cylinders > 0 {
            (0..config.n_disks)
                .map(|_| {
                    RearrangementDaemon::new(
                        Box::new(FullAnalyzer::new()),
                        BlockArranger::new(PolicyKind::OrganPipe.make(1)),
                        config.monitor_period,
                    )
                })
                .collect()
        } else {
            Vec::new()
        };

        let obs = ServeObs::resolve();
        with_registry(|r| r.set_gauge(obs.clients, config.n_clients as i64));

        let (seed, fault_plans) = (config.seed, config.fault_plans.clone());
        let mut traffic = Clients {
            arrivals,
            piece: Arrivals::default(),
            next: 0,
            clients: (0..config.n_clients).map(|_| Client::default()).collect(),
            drr: Drr::new(config.n_clients, DRR_QUANTUM),
            backlog: 0,
            inflight: BTreeMap::new(),
            obs,
            totals: ServeSummary::default(),
            epoch_stats: EpochStats::default(),
            queue_depth_max: 0,
            config,
        };
        // The first epoch starts at time zero: its arrivals are drawn
        // while the rest is set up.
        traffic.order(Some(SimTime::ZERO), SimTime::ZERO);
        let mut h = DayLoop::new(volume, traffic, daemons, None, SimTime::ZERO);
        h.install_fault_plans(seed, &fault_plans);
        ServeExperiment { h }
    }

    /// The configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.h.traffic.config
    }

    /// The volume (inspection in tests and benches).
    pub fn volume(&self) -> &ArrayVolume {
        &self.h.device
    }

    /// Snapshot array health (and publish the `array.*` gauges).
    pub fn health(&mut self) -> ArrayHealth {
        self.h.device.health()
    }

    /// Overnight rearrangement passes that failed and were skipped.
    pub fn rearrange_failures(&self) -> u64 {
        self.h.rearrange_failures()
    }

    /// Serve one epoch, drain, and record a day-series point. Returns
    /// the epoch's admission/service counters.
    pub fn run_epoch(&mut self) -> EpochStats {
        self.h.run_day();
        self.h.traffic.epoch_stats
    }

    /// The overnight protocol between epochs (adaptive members only):
    /// each member places its `place_blocks` hottest blocks, the clock
    /// jumps the movement gap, and clients re-prime. A no-op without a
    /// reserved region.
    ///
    /// # Panics
    /// Panics before the first epoch and right after another night: the
    /// next epoch's arrivals are drawn as soon as its start is known.
    pub fn rearrange(&mut self) -> RearrangeReport {
        if self.config().reserved_cylinders == 0 {
            return RearrangeReport::default();
        }
        let total = self.h.rearrange_members(self.config().place_blocks);
        self.h.end_night(total.busy + SimDuration::from_mins(1));
        total
    }

    /// Serve `config.epochs` epochs with rearrangement between them
    /// (when a reserved region is configured) and return the totals.
    pub fn run(&mut self) -> ServeSummary {
        for e in 0..self.config().epochs {
            self.run_epoch();
            if e + 1 < self.config().epochs {
                self.rearrange();
            }
        }
        self.summary()
    }

    /// Lifetime totals so far.
    pub fn summary(&self) -> ServeSummary {
        let t = &self.h.traffic;
        let mut s = t.totals.clone();
        s.stranded = t.inflight.len() as u64;
        s.queue_depth_max = t.queue_depth_max as u64;
        s.placed = self.h.placed();
        s.per_client_completions = t.clients.iter().map(|c| c.completions).collect();
        s
    }
}

impl Clients {
    /// Order the arrivals of the epoch that starts at `start`, re-priming
    /// every client at `reprime` first if given.
    fn order(&mut self, reprime: Option<SimTime>, start: SimTime) {
        let end = start + self.config.epoch;
        self.arrivals.order(Epoch { reprime, end });
    }

    /// Move on to the producer's next piece, handing the last one back.
    fn take_piece(&mut self) {
        let piece = self.arrivals.next_piece();
        let spent = std::mem::replace(&mut self.piece, piece);
        self.arrivals.recycle(spent);
        self.next = 0;
    }

    /// Take pieces until one has arrivals left or the epoch has no more.
    fn settle(&mut self) {
        while self.piece.more && self.next == self.piece.list.len() {
            self.take_piece();
        }
    }

    /// One client arrival through the rest of the admission path: the
    /// client's bucket has ruled on it already; then the bounded queue,
    /// then accept.
    fn on_arrival(&mut self, volume: &mut ArrayVolume, a: Arrival, now: SimTime) {
        self.epoch_stats.arrivals += 1;
        with_registry(|r| r.inc(self.obs.arrivals, 1));
        if a.throttled {
            self.epoch_stats.throttled += 1;
            with_registry(|r| r.inc(self.obs.throttled, 1));
            return;
        }
        if self.backlog >= self.config.accept_queue_cap {
            self.epoch_stats.shed += 1;
            with_registry(|r| r.inc(self.obs.shed, 1));
            return;
        }
        let c = a.client;
        self.clients[c].queue.push_back(Queued {
            arrived: now,
            sector: a.sector,
            write: a.write,
        });
        self.backlog += 1;
        self.queue_depth_max = self.queue_depth_max.max(self.backlog);
        self.epoch_stats.accepted += 1;
        with_registry(|r| {
            r.inc(self.obs.accepted, 1);
            r.set_gauge(self.obs.queue_depth_max, self.queue_depth_max as i64);
        });
        self.drr.activate(c);
        self.pump(volume, now);
    }

    /// Fill free dispatch slots from the accept queues via DRR.
    fn pump(&mut self, volume: &mut ArrayVolume, now: SimTime) {
        while self.inflight.len() < self.config.max_inflight && self.backlog > 0 {
            let clients = &self.clients;
            let Some(c) = self.drr.next(|c| {
                clients[c]
                    .queue
                    .front()
                    .map(|_| u64::from(SECTORS_PER_BLOCK))
            }) else {
                break;
            };
            #[expect(clippy::expect_used, reason = "DRR picks a client with queued work")]
            let q = self.clients[c]
                .queue
                .pop_front()
                .expect("DRR picked a client with queued work");
            self.backlog -= 1;
            let waited = (now - q.arrived).as_micros();
            with_registry(|r| r.observe_hires(self.obs.queue_us, waited));
            let req = if q.write {
                IoRequest::write_zeroes(0, q.sector, SECTORS_PER_BLOCK)
            } else {
                IoRequest::read(0, q.sector, SECTORS_PER_BLOCK)
            };
            match volume.submit(req, now) {
                Ok(id) => {
                    self.inflight.insert(
                        id,
                        Pending {
                            client: c,
                            arrived: q.arrived,
                        },
                    );
                }
                Err(_) => {
                    // Rejected before reaching any member queue (e.g. a
                    // dead unredundant member): an explicit failure.
                    self.epoch_stats.errors += 1;
                    with_registry(|r| r.inc(self.obs.errors, 1));
                }
            }
        }
        with_registry(|r| {
            r.set_gauge(self.obs.queue_depth, self.backlog as i64);
            r.set_gauge(self.obs.inflight, self.inflight.len() as i64);
        });
    }
}

/// Epochs play the role of days. Arrivals stop dead at the epoch end;
/// the drain that follows still pumps the backlog through. A member
/// that strands requests (dead, unredundant) stops producing
/// completions; whatever it stranded stays in `inflight` — bounded by
/// `max_inflight` — and is reported.
impl Traffic<ArrayVolume> for Clients {
    fn begin_day(&mut self, start: SimTime) -> SimTime {
        self.epoch_stats = EpochStats::default();
        if self.arrivals.ordered() == self.arrivals.taken() {
            // No night: each client's pending arrival carries over.
            self.order(None, start);
        }
        self.take_piece();
        self.settle();
        start + self.config.epoch
    }

    fn next_event(&self) -> SimTime {
        self.piece
            .list
            .get(self.next)
            .map_or(SimTime::MAX, |a| a.at)
    }

    fn on_event(&mut self, volume: &mut ArrayVolume, t: SimTime) {
        if let Some(&a) = self.piece.list.get(self.next) {
            self.next += 1;
            self.on_arrival(volume, a, t);
        }
        self.settle();
    }

    fn on_completion(
        &mut self,
        volume: &mut ArrayVolume,
        done: Option<VolCompletion>,
        now: SimTime,
    ) {
        if let Some(done) = done {
            if let Some(p) = self.inflight.remove(&done.id) {
                let latency = (done.completed - p.arrived).as_micros();
                with_registry(|r| r.observe_hires(self.obs.request_us, latency));
                if done.error.is_some() {
                    self.epoch_stats.errors += 1;
                    with_registry(|r| r.inc(self.obs.errors, 1));
                } else {
                    self.epoch_stats.completed += 1;
                    self.clients[p.client].completions += 1;
                    with_registry(|r| r.inc(self.obs.completed, 1));
                }
            }
        }
        self.pump(volume, now);
    }

    fn close_day(&mut self, volume: &mut ArrayVolume) {
        volume.health();
        self.totals.arrivals += self.epoch_stats.arrivals;
        self.totals.accepted += self.epoch_stats.accepted;
        self.totals.shed += self.epoch_stats.shed;
        self.totals.throttled += self.epoch_stats.throttled;
        self.totals.completed += self.epoch_stats.completed;
        self.totals.errors += self.epoch_stats.errors;
    }

    /// Clients pause over the movement window and restart their arrival
    /// processes from the new clock, where the next epoch starts.
    ///
    /// # Panics
    /// Panics if the epoch ordered last has not begun: its arrivals may
    /// be drawn already, so a second night cannot re-prime them.
    fn next_day(&mut self, clock: SimTime) {
        assert!(
            self.arrivals.ordered() == self.arrivals.taken(),
            "a night must follow an epoch"
        );
        self.order(Some(clock), clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_disk::models;
    use abr_sim::SimDuration;

    fn tiny_config() -> ServeConfig {
        let mut c = ServeConfig::new(models::tiny_test_disk());
        c.n_clients = 4;
        c.aggregate_rate_per_sec = 8.0;
        c.bucket_rate_per_sec = 8.0;
        c.bucket_burst = 16;
        c.working_set_blocks = 64;
        c.epoch = SimDuration::from_secs(30);
        c.accept_queue_cap = 32;
        c.max_inflight = 4;
        c
    }

    #[test]
    fn serves_requests_and_accounts_exactly() {
        abr_obs::registry_clear();
        abr_obs::day_series_reset();
        let mut e = ServeExperiment::new(tiny_config());
        let s = e.run();
        assert!(s.arrivals > 100, "open-loop clients offered load");
        assert_eq!(
            s.arrivals,
            s.accepted + s.shed + s.throttled,
            "every arrival is accepted, shed, or throttled"
        );
        assert_eq!(
            s.accepted,
            s.completed + s.errors + s.stranded,
            "every accepted request completes, errors, or strands (backlog drained)"
        );
        assert_eq!(s.errors, 0);
        assert_eq!(s.stranded, 0);
        assert!(s.queue_depth_max <= 32);
    }

    #[test]
    fn overload_sheds_with_bounded_queue() {
        abr_obs::registry_clear();
        abr_obs::day_series_reset();
        let mut c = tiny_config();
        // Far beyond the tiny disk's service rate, with generous
        // buckets so the bound — not the buckets — does the shedding.
        c.aggregate_rate_per_sec = 2000.0;
        c.bucket_rate_per_sec = 600.0;
        c.bucket_burst = 64;
        c.accept_queue_cap = 24;
        c.epoch = SimDuration::from_secs(20);
        let mut e = ServeExperiment::new(c);
        let s = e.run();
        assert!(s.shed > 0, "overload must shed");
        assert!(s.queue_depth_max <= 24, "accept queue exceeded its bound");
        assert!(s.completed > 0, "the server still made progress");
        // The registry carries the same story.
        let snap = abr_obs::registry_snapshot();
        assert_eq!(snap["counters"]["serve.shed_total"].as_u64(), Some(s.shed));
        assert!(
            snap["hires"]["serve.request_us"]["count"]
                .as_u64()
                .unwrap_or(0)
                > 0
        );
    }

    #[test]
    fn token_bucket_throttles_hot_clients() {
        abr_obs::registry_clear();
        abr_obs::day_series_reset();
        let mut c = tiny_config();
        // Offered rate far above the per-client bucket refill.
        c.aggregate_rate_per_sec = 400.0;
        c.bucket_rate_per_sec = 2.0;
        c.bucket_burst = 4;
        let mut e = ServeExperiment::new(c);
        let s = e.run();
        assert!(s.throttled > 0, "dry buckets must throttle");
        // Bucket admission is bounded by refill + burst over the epoch.
        let ceiling = (30.0 * 2.0 + 4.0) * 4.0;
        assert!(
            (s.accepted + s.shed) as f64 <= ceiling + 1.0,
            "bucket ceiling exceeded: {} > {ceiling}",
            s.accepted + s.shed
        );
    }

    #[test]
    fn drr_keeps_backlogged_clients_fair() {
        abr_obs::registry_clear();
        abr_obs::day_series_reset();
        let mut c = tiny_config();
        c.aggregate_rate_per_sec = 800.0;
        c.bucket_rate_per_sec = 250.0;
        c.bucket_burst = 32;
        c.accept_queue_cap = 64;
        c.epoch = SimDuration::from_secs(20);
        let mut e = ServeExperiment::new(c);
        let s = e.run();
        assert!(s.completed > 50);
        let ratio = s.fairness_ratio();
        assert!(ratio <= 2.0, "per-client completion ratio {ratio} > 2");
    }

    #[test]
    fn identical_configs_reproduce_bit_identical_summaries() {
        abr_obs::registry_clear();
        abr_obs::day_series_reset();
        let run = || {
            abr_obs::registry_clear();
            abr_obs::day_series_reset();
            let mut e = ServeExperiment::new(tiny_config());
            let s = e.run();
            // Wall-clock `wall.*` counters are measurement noise, not
            // results; drop their lines before the byte-compare.
            let snap: String = abr_obs::registry_snapshot()
                .pretty()
                .lines()
                .filter(|l| !l.contains("\"wall."))
                .collect::<Vec<_>>()
                .join("\n");
            (
                s.arrivals,
                s.accepted,
                s.shed,
                s.throttled,
                s.completed,
                s.per_client_completions.clone(),
                snap,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn adaptive_members_place_blocks_between_epochs() {
        abr_obs::registry_clear();
        abr_obs::day_series_reset();
        let mut c = tiny_config();
        c.reserved_cylinders = 10;
        c.place_blocks = 32;
        c.epochs = 2;
        c.monitor_period = SimDuration::from_secs(10);
        let mut e = ServeExperiment::new(c);
        let s = e.run();
        assert!(s.placed > 0, "no blocks reached the reserved region");
        assert_eq!(s.errors, 0);
        assert_eq!(abr_obs::day_series_len(), 2, "one day point per epoch");
    }
}
