//! Model test for the driver's ordered request queue: the dispatch
//! order and every tie-break must be those of the flat arrival-ordered
//! queue it replaced.
//!
//! The reference below *is* that old implementation — the four linear
//! `pick` bodies over an `eligible` index view and the
//! filter/`min_by_key`/`Vec::remove` dispatch, copied from `sched.rs` and
//! `driver.rs` as they stood before the ordered queue, over a record
//! that keeps only what they read. It lives here and not under
//! `src/` because it needs nothing private: a request's target cylinder
//! is `physical_segments` + the label geometry, and every dispatch shows
//! up as a [`Completion`]'s `(id, dispatched, completed)`.
//!
//! Both sides see the same seeded stream: duplicate cylinders, requests
//! on the head's own cylinder, bursts at one instant, future-dated
//! batches submitted out of arrival order, back-dated submits,
//! submit/complete interleavings and repeated depth 0 → 1 → 0
//! transitions (the idle fast path, including SCAN turning around on
//! it). The reference predicts `(id, dispatched)` of every dispatch;
//! `completed` then follows from the unchanged disk model, and the
//! whole `(id, dispatched, completed)` stream is pinned by a fingerprint
//! recorded by running this same file against the flat-queue driver.

use abr_disk::{models, Disk, DiskLabel};
use abr_driver::{AdaptiveDriver, DriverConfig, IoRequest, RequestId, SchedulerKind};
use abr_sim::rng::splitmix64;
use abr_sim::{SimDuration, SimRng, SimTime};

const SEEDS: u64 = 256;
const KINDS: [SchedulerKind; 4] = [
    SchedulerKind::Fcfs,
    SchedulerKind::Scan,
    SchedulerKind::CScan,
    SchedulerKind::Sstf,
];
/// Sectors per block on the tiny disk (4 KB blocks, 8 to a cylinder).
const SPB: u64 = 8;

/// What the old queue kept of a request, as far as scheduling read it.
struct Queued {
    id: RequestId,
    target_cylinder: u32,
    arrived: SimTime,
}

trait Scheduler {
    fn pick(&mut self, queue: &[Queued], eligible: &[usize], head_cylinder: u32) -> usize;
}

struct Fcfs;

impl Scheduler for Fcfs {
    fn pick(&mut self, _queue: &[Queued], eligible: &[usize], _head: u32) -> usize {
        eligible[0]
    }
}

struct Scan {
    upward: bool,
}

impl Scheduler for Scan {
    fn pick(&mut self, queue: &[Queued], eligible: &[usize], head: u32) -> usize {
        let best_in_dir = |up: bool| -> Option<usize> {
            eligible
                .iter()
                .filter(|&&i| {
                    if up {
                        queue[i].target_cylinder >= head
                    } else {
                        queue[i].target_cylinder <= head
                    }
                })
                .min_by_key(|&&i| (queue[i].target_cylinder.abs_diff(head), i))
                .copied()
        };
        if let Some(i) = best_in_dir(self.upward) {
            return i;
        }
        self.upward = !self.upward;
        best_in_dir(self.upward).expect("non-empty eligible set")
    }
}

struct CScan;

impl Scheduler for CScan {
    fn pick(&mut self, queue: &[Queued], eligible: &[usize], head: u32) -> usize {
        eligible
            .iter()
            .filter(|&&i| queue[i].target_cylinder >= head)
            .min_by_key(|&&i| (queue[i].target_cylinder - head, i))
            .copied()
            .unwrap_or_else(|| {
                eligible
                    .iter()
                    .min_by_key(|&&i| (queue[i].target_cylinder, i))
                    .copied()
                    .expect("non-empty eligible set")
            })
    }
}

struct Sstf;

impl Scheduler for Sstf {
    fn pick(&mut self, queue: &[Queued], eligible: &[usize], head: u32) -> usize {
        eligible
            .iter()
            .min_by_key(|&&i| (queue[i].target_cylinder.abs_diff(head), i))
            .copied()
            .expect("non-empty eligible set")
    }
}

/// The old driver's queue half: a flat vector in submit order, a
/// scheduler, the request in service and the address-based head.
struct Reference {
    queue: Vec<Queued>,
    scheduler: Box<dyn Scheduler>,
    /// `(id, dispatched)` of the request in service.
    active: Option<(RequestId, SimTime)>,
    head: u32,
}

impl Reference {
    fn new(kind: SchedulerKind, head: u32) -> Self {
        let scheduler: Box<dyn Scheduler> = match kind {
            SchedulerKind::Fcfs => Box::new(Fcfs),
            SchedulerKind::Scan => Box::new(Scan { upward: true }),
            SchedulerKind::CScan => Box::new(CScan),
            SchedulerKind::Sstf => Box::new(Sstf),
        };
        Reference {
            queue: Vec::new(),
            scheduler,
            active: None,
            head,
        }
    }

    fn submit(&mut self, q: Queued) {
        let now = q.arrived;
        self.queue.push(q);
        if self.active.is_none() {
            self.dispatch_next(now);
        }
    }

    fn dispatch_next(&mut self, now: SimTime) {
        if self.queue.is_empty() {
            return;
        }
        let eligible: Vec<usize> = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, q)| q.arrived <= now)
            .map(|(i, _)| i)
            .collect();
        let (idx, now) = if eligible.is_empty() {
            let idx = self
                .queue
                .iter()
                .enumerate()
                .min_by_key(|(i, q)| (q.arrived, *i))
                .map(|(i, _)| i)
                .expect("non-empty queue");
            (idx, self.queue[idx].arrived)
        } else {
            (self.scheduler.pick(&self.queue, &eligible, self.head), now)
        };
        let q = self.queue.remove(idx);
        self.head = q.target_cylinder;
        self.active = Some((q.id, now));
    }

    /// The request in service completed at `now`.
    fn complete(&mut self, now: SimTime) -> (RequestId, SimTime) {
        let done = self.active.take().expect("a request in service");
        self.dispatch_next(now);
        done
    }
}

fn driver(kind: SchedulerKind) -> AdaptiveDriver {
    let model = models::tiny_test_disk();
    let label = DiskLabel::whole_disk(model.geometry);
    let config = DriverConfig {
        block_size: 4096,
        scheduler: kind,
        ..DriverConfig::default()
    };
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &config);
    let mut d = AdaptiveDriver::attach(disk, config).expect("fresh format attaches");
    d.set_deliver_read_data(false);
    d
}

/// Both queues under one seeded stream.
struct Pair {
    d: AdaptiveDriver,
    model: Reference,
    rng: SimRng,
    /// The few cylinders this stream draws from, so that they repeat.
    cylinders: Vec<u32>,
    /// The latest instant the caller has reached.
    now: SimTime,
    checked: u64,
}

impl Pair {
    fn new(kind: SchedulerKind, seed: u64) -> Self {
        let d = driver(kind);
        let mut rng = SimRng::new(seed);
        let n_cyl = u64::from(d.label().physical.cylinders);
        let head = d.disk().head_cylinder();
        // The head's own cylinder is always a candidate; so is each one
        // drawn (a dispatch moves the head onto it).
        let mut cylinders = vec![head];
        for _ in 0..2 + rng.index(8) {
            cylinders.push(rng.below(n_cyl) as u32);
        }
        Pair {
            model: Reference::new(kind, head),
            d,
            rng,
            cylinders,
            now: SimTime::ZERO,
            checked: 0,
        }
    }

    fn submit(&mut self, at: SimTime) {
        let cyl = self.cylinders[self.rng.index(self.cylinders.len())];
        let spc = self.d.label().physical.sectors_per_cylinder();
        // Block 0 holds the label; everything else is fair game.
        let block = (u64::from(cyl) * spc / SPB + self.rng.below(spc / SPB)).max(1);
        let sector = block * SPB;
        let req = if self.rng.chance(0.25) {
            IoRequest::write_seeded(0, sector, SPB as u32, self.rng.below(u64::MAX))
        } else {
            IoRequest::read(0, sector, SPB as u32)
        };
        let first = self
            .d
            .physical_segments(0, sector, SPB as u32)
            .expect("in range")[0]
            .0;
        let target_cylinder = self.d.label().physical.cylinder_of(first);
        let id = self.d.submit(req, at).expect("valid request");
        self.model.submit(Queued {
            id,
            target_cylinder,
            arrived: at,
        });
        self.agree();
    }

    /// Retire one completion, if a request is in service.
    fn complete(&mut self, fp: &mut u64) -> bool {
        let Some(at) = self.d.next_completion() else {
            assert!(
                self.model.active.is_none(),
                "model still has a request in service"
            );
            return false;
        };
        let c = self.d.complete_next(at);
        let (id, dispatched) = self.model.complete(at);
        assert_eq!((c.id, c.dispatched), (id, dispatched), "dispatch diverged");
        assert!(c.dispatched >= c.arrived, "dispatched before it arrived");
        assert_eq!(c.completed, at);
        for x in [c.id.0, c.dispatched.as_micros(), c.completed.as_micros()] {
            *fp = splitmix64(*fp ^ x);
        }
        self.now = self.now.max(at);
        self.checked += 1;
        self.agree();
        true
    }

    fn agree(&self) {
        assert_eq!(self.d.queue_len(), self.model.queue.len(), "queue length");
        assert_eq!(self.d.is_idle(), self.model.active.is_none(), "idleness");
    }

    fn run(&mut self, fp: &mut u64) {
        for _ in 0..40 {
            match self.rng.index(6) {
                // A burst at one instant.
                0 => {
                    for _ in 0..1 + self.rng.index(12) {
                        self.submit(self.now);
                    }
                }
                // A future-dated batch, submitted out of arrival order;
                // offsets repeat, so arrivals tie.
                1 => {
                    let mut at: Vec<SimTime> = (0..1 + self.rng.index(8))
                        .map(|_| self.now + SimDuration::from_micros(self.rng.below(6) * 9_000))
                        .collect();
                    self.rng.shuffle(&mut at);
                    for t in at {
                        self.submit(t);
                    }
                }
                // A back-dated submit: it has "arrived" whatever the
                // clock says.
                2 => {
                    let back = self.rng.below(20_000);
                    self.submit(SimTime::from_micros(
                        self.now.as_micros().saturating_sub(back),
                    ));
                }
                // Depth 0 -> 1 -> 0, a few times over: the idle fast path.
                3 => {
                    while self.complete(fp) {}
                    for _ in 0..1 + self.rng.index(4) {
                        self.now += SimDuration::from_micros(self.rng.below(30_000));
                        self.submit(self.now);
                        while self.complete(fp) {}
                    }
                }
                // Interleave: retire a few, leaving the rest queued.
                _ => {
                    for _ in 0..1 + self.rng.index(6) {
                        self.complete(fp);
                    }
                }
            }
        }
        while self.complete(fp) {}
        assert!(self.d.is_idle() && self.d.queue_len() == 0, "drains dry");
    }
}

#[test]
fn ordered_queue_dispatches_like_the_flat_queue() {
    // Folds every `(id, dispatched, completed)`, in order.
    let mut fp = 0;
    let mut checked = 0;
    for kind in KINDS {
        for seed in 0..SEEDS {
            let mut pair = Pair::new(kind, seed);
            pair.run(&mut fp);
            checked += pair.checked;
        }
    }
    assert!(checked > 100_000, "only {checked} dispatches compared");
    // Recorded by running this file against the flat-queue driver (the
    // commit before the ordered queue): `completed` times included, the
    // streams are the same.
    assert_eq!(
        (checked, fp),
        (100_212, 10_866_387_783_372_047_235),
        "(dispatches, fingerprint) differ from the flat-queue record"
    );
}

/// SCAN must turn around for a request that meets an idle drive behind
/// the head, exactly as if it had been picked from a queue of one: the
/// *next* pick depends on the direction it left behind.
#[test]
fn scan_turns_around_on_the_idle_fast_path() {
    let mut d = driver(SchedulerKind::Scan);
    let spc = d.label().physical.sectors_per_cylinder();
    let read = |cyl: u64| IoRequest::read(0, cyl * spc + SPB, SPB as u32);
    let t0 = SimTime::ZERO;
    // Sweep up to cylinder 50, then drain to idle.
    d.submit(read(50), t0).unwrap();
    let t1 = d.drain()[0].completed;
    // Idle, head at 50, sweeping up: a request at 40 is behind the head.
    let low = d.submit(read(40), t1).unwrap();
    // Queued while 40 is in service: one above and one below the head.
    let above = d.submit(read(45), t1).unwrap();
    let below = d.submit(read(35), t1).unwrap();
    let order: Vec<RequestId> = d.drain().iter().map(|c| c.id).collect();
    // Still sweeping down after the turn: 35 before 45.
    assert_eq!(order, vec![low, below, above]);
}
