//! The driver's request queue, ordered so that dispatch is O(log n).
//!
//! Two ordered maps hold every submitted, not yet dispatched request:
//!
//! * **ready** — every request with `arrived <=` the dispatch clock,
//!   keyed `(index cylinder, submit sequence)`. A [`Scheduler`] reads it
//!   through two range probes ([`Ready::at_or_above`],
//!   [`Ready::at_or_below`]), each of which lands on the *oldest* request
//!   of the cylinder it finds, so age breaks every tie.
//! * **future** — requests a batch or a trace replay submitted ahead of
//!   the clock, keyed `(arrived, submit sequence)` and read only from the
//!   front: a request moves to the ready index once the clock reaches
//!   its arrival, and when nothing is ready the front one is dispatched
//!   *at its arrival time* — the disk was idle until then.
//!
//! The submit sequence is the [`RequestId`](crate::request::RequestId):
//! the driver issues ids in submit order and never reuses one.
//!
//! **Monotone clock.** The dispatch clock is the time of the latest
//! dispatch. It only moves forward while the queue holds anything (each
//! dispatch happens at the previous request's completion time or at a
//! later arrival), which is what lets a request be filed once, at
//! submit, as ready or future; [`RequestQueue::pop`] asserts it. A
//! request that meets an idle drive never enters the queue
//! ([`RequestQueue::bypass`]); with nothing queued the clock may be set
//! anywhere.

use crate::request::Queued;
use crate::sched::{Scheduler, SchedulerKind};
use abr_sim::SimTime;
use std::collections::BTreeMap;

/// Ready-index key: `(index cylinder, submit sequence)`.
pub(crate) type Key = (u32, u64);

/// The arrived requests in cylinder order, oldest first within one
/// cylinder: the view a [`Scheduler`] picks from.
#[derive(Default)]
pub(crate) struct Ready(BTreeMap<Key, Queued>);

impl Ready {
    /// The oldest request on the lowest cylinder at or above `cyl`.
    pub fn at_or_above(&self, cyl: u32) -> Option<Key> {
        self.0.range((cyl, 0)..).next().map(|(&k, _)| k)
    }

    /// The oldest request on the highest cylinder at or below `cyl`.
    pub fn at_or_below(&self, cyl: u32) -> Option<Key> {
        let (&(found, _), _) = self.0.range(..=(cyl, u64::MAX)).next_back()?;
        self.at_or_above(found)
    }
}

/// Every queued request of one driver, and the policy that orders them.
pub(crate) struct RequestQueue {
    ready: Ready,
    future: BTreeMap<(SimTime, u64), Queued>,
    scheduler: Box<dyn Scheduler>,
    /// Time of the latest dispatch.
    clock: SimTime,
    /// Requests held, counted at push and pop (the maps' sizes must add
    /// up to it: a colliding key would lose a request silently).
    len: usize,
}

impl RequestQueue {
    pub fn new(kind: SchedulerKind) -> Self {
        RequestQueue {
            ready: Ready::default(),
            future: BTreeMap::new(),
            scheduler: kind.make(),
            clock: SimTime::ZERO,
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue a request behind the one in service.
    pub fn push(&mut self, q: Queued) {
        self.len += 1;
        if q.arrived <= self.clock {
            self.file_ready(q);
        } else {
            self.future.insert((q.arrived, q.id.0), q);
        }
    }

    fn file_ready(&mut self, q: Queued) {
        let cyl = self.scheduler.index_cylinder(q.target_cylinder);
        self.ready.0.insert((cyl, q.id.0), q);
    }

    /// A request for cylinder `target` met an idle drive at `now` and
    /// was dispatched without being queued. The policy still sees it as
    /// picked (SCAN may turn around for it).
    pub fn bypass(&mut self, target: u32, now: SimTime, head: u32) {
        debug_assert!(self.is_empty(), "bypassed a non-empty queue");
        self.clock = now;
        self.scheduler.bypassed(target, head);
    }

    /// Take the request to dispatch at `now` with the head at `head`,
    /// and the time its service starts: `now`, or its own later arrival
    /// when nothing has arrived yet.
    ///
    /// # Panics
    /// Panics if `now` is before the previous dispatch.
    pub fn pop(&mut self, now: SimTime, head: u32) -> Option<(Queued, SimTime)> {
        assert!(now >= self.clock, "dispatch clock ran backwards");
        self.promote(now);
        let (q, at) = match self.scheduler.pick(&self.ready, head) {
            Some(key) => (self.ready.0.remove(&key)?, now),
            None => {
                // Idle until the earliest arrival; whatever arrives with
                // it is ready from then on.
                let ((at, _), q) = self.future.pop_first()?;
                self.promote(at);
                (q, at)
            }
        };
        self.clock = at;
        self.len -= 1;
        Some((q, at))
    }

    /// Move every future request that has arrived by `now` to the ready
    /// index.
    fn promote(&mut self, now: SimTime) {
        while let Some(due) = self.future.first_entry().filter(|e| e.key().0 <= now) {
            let q = due.remove();
            self.file_ready(q);
        }
    }
}

/// Ways [`RequestQueue::corrupt_for_sanitizer_test`] breaks the queue,
/// one per invariant [`RequestQueue::check`] holds. Sanitize builds only.
#[cfg(feature = "sanitize")]
#[derive(Debug, Clone, Copy)]
pub enum QueueCorruption {
    /// Drop the first ready request without counting it out.
    Lost,
    /// Re-file the first ready request under the next cylinder.
    WrongCylinder,
    /// Move the first ready request, long arrived, to the future map.
    ArrivedButFuture,
    /// Queue the first ready request a second time, on another cylinder.
    Twice,
}

#[cfg(feature = "sanitize")]
impl RequestQueue {
    /// Check what the two-map split depends on: the maps hold exactly
    /// the counted requests; each sits under the key its cylinder (or
    /// arrival) and id say; ready requests have arrived and future ones
    /// have not, by the dispatch clock; and no id is queued twice.
    pub fn check(&self) -> Result<(), String> {
        let held = self.ready.0.len() + self.future.len();
        if held != self.len {
            return Err(format!("{held} requests indexed, {} counted", self.len));
        }
        let ready = self.ready.0.iter().map(|(&(cyl, seq), q)| {
            let index = self.scheduler.index_cylinder(q.target_cylinder);
            (seq, q, cyl == index && q.arrived <= self.clock)
        });
        let future = self
            .future
            .iter()
            .map(|(&(at, seq), q)| (seq, q, at == q.arrived && at > self.clock));
        let mut seen = std::collections::BTreeSet::new();
        for (seq, q, filed_right) in ready.chain(future) {
            if !filed_right || seq != q.id.0 || !seen.insert(seq) {
                let clock = self.clock;
                return Err(format!("misfiled or queued twice at {clock:?}: {q:?}"));
            }
        }
        Ok(())
    }

    /// Deliberately break one invariant — a test hook proving the
    /// sanitizer trips. Does nothing when no request is ready.
    pub fn corrupt_for_sanitizer_test(&mut self, how: QueueCorruption) {
        let Some(((cyl, seq), q)) = self.ready.0.pop_first() else {
            return;
        };
        match how {
            QueueCorruption::Lost => {}
            QueueCorruption::WrongCylinder => {
                self.ready.0.insert((cyl + 1, seq), q);
            }
            QueueCorruption::ArrivedButFuture => {
                self.future.insert((q.arrived, seq), q);
            }
            QueueCorruption::Twice => {
                let mut twin = q.clone();
                twin.target_cylinder += 1;
                self.len += 1;
                self.ready.0.insert((cyl + 1, seq), twin);
                self.ready.0.insert((cyl, seq), q);
            }
        }
    }
}
