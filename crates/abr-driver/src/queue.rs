//! The driver's request queue: a pick is two bit scans at any depth.
//!
//! Every submitted, not yet dispatched request is in one of two places:
//!
//! * **ready** — every request with `arrived <=` the dispatch clock, in
//!   an index sized to the disk at attach: one bit per index cylinder, a
//!   list per cylinder in ascending submit sequence, and one slab of
//!   slots the lists are linked through. A [`Scheduler`] reads it through
//!   two probes ([`Ready::at_or_above`], [`Ready::at_or_below`]) — a
//!   masked `trailing_zeros` / `leading_zeros` over at most 13 words on
//!   the paper's Toshiba, 26 on its Fujitsu — each of which lands on the
//!   *oldest* request of the cylinder it finds, so age breaks every tie.
//!   Filing is an append (a walk only for a promoted future request
//!   older than what its cylinder holds); taking is a pop of the
//!   cylinder's head, and a pick of anything else panics.
//! * **future** — requests a batch or a trace replay submitted ahead of
//!   the clock, in an ordered map keyed `(arrived, submit sequence)` and
//!   read only from the front: a request moves to the ready index once
//!   the clock reaches its arrival, and when nothing is ready the front
//!   one is dispatched *at its arrival time* — the disk was idle until
//!   then.
//!
//! The submit sequence is the [`RequestId`](crate::request::RequestId):
//! the driver issues ids in submit order and never reuses one.
//!
//! **Storage.** The slab is a list of 256-slot chunks with a free list
//! through them; a drained index keeps one chunk. Both obvious
//! alternatives were measured and lost on the benchmark's host metrics
//! (DESIGN §13): a `VecDeque` per cylinder (+7 to +17 % peak RSS on the
//! shallow workloads) and the slab as one growing `Vec` (512 KB at
//! depth 4,096; freeing it moves the allocator's thresholds and cost the
//! next run +25 % set-up time). Hence no allocation per cylinder and
//! none above 64 KB.
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
use abr_sim::narrow::u32_from_usize;
use abr_sim::SimTime;
use std::collections::BTreeMap;

/// Ready-index key: `(index cylinder, submit sequence)`.
pub(crate) type Key = (u32, u64);

/// "No slot": the end of a list, an empty cylinder, an empty free list.
const NIL: u32 = u32::MAX;

/// Slots per slab chunk (30 KB): the slab grows by the chunk, never by
/// reallocation (see **Storage** in the module docs).
const CHUNK: usize = 256;

/// One slab slot: a ready request and the next younger one on its
/// cylinder, or a free slot (`q` empty) and the next free one.
struct Slot {
    q: Option<Queued>,
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() * CHUNK <= 64 << 10);

/// The arrived requests in cylinder order, oldest first within one
/// cylinder: the view a [`Scheduler`] picks from.
pub(crate) struct Ready {
    /// Bit `c % 64` of word `c / 64` is set iff cylinder `c` holds a
    /// request.
    bits: Vec<u64>,
    /// `(oldest, youngest)` slot of every cylinder's list.
    lists: Vec<(u32, u32)>,
    slab: Vec<Vec<Slot>>,
    free: u32,
    /// Requests held.
    live: usize,
}

impl Ready {
    fn new(cylinders: u32) -> Self {
        Ready {
            bits: vec![0; (cylinders as usize).div_ceil(64)],
            lists: vec![(NIL, NIL); cylinders as usize],
            slab: Vec::new(),
            free: NIL,
            live: 0,
        }
    }

    fn slot(&self, i: u32) -> &Slot {
        &self.slab[i as usize / CHUNK][i as usize % CHUNK]
    }

    fn slot_mut(&mut self, i: u32) -> &mut Slot {
        &mut self.slab[i as usize / CHUNK][i as usize % CHUNK]
    }

    /// Submit sequence of the request in slot `i`.
    fn seq(&self, i: u32) -> Option<u64> {
        self.slot(i).q.as_ref().map(|q| q.id.0)
    }

    /// Key of the oldest request on `cyl`, if it holds any.
    fn head(&self, cyl: usize) -> Option<Key> {
        let first = self.lists.get(cyl)?.0;
        let seq = if first == NIL { None } else { self.seq(first) };
        Some((u32_from_usize(cyl), seq?))
    }

    /// The oldest request on the lowest cylinder at or above `cyl`.
    pub fn at_or_above(&self, cyl: u32) -> Option<Key> {
        let mut w = cyl as usize / 64;
        let mut word = self.bits.get(w)? & (!0 << (cyl % 64));
        while word == 0 {
            w += 1;
            word = *self.bits.get(w)?;
        }
        self.head(w * 64 + word.trailing_zeros() as usize)
    }

    /// The oldest request on the highest cylinder at or below `cyl`.
    pub fn at_or_below(&self, cyl: u32) -> Option<Key> {
        let mut w = cyl as usize / 64;
        let mut word = self.bits[w] & (!0 >> (63 - cyl % 64));
        while word == 0 {
            w = w.checked_sub(1)?;
            word = self.bits[w];
        }
        self.head(w * 64 + 63 - word.leading_zeros() as usize)
    }

    /// File `q` under `cyl`, behind every older request there.
    fn insert(&mut self, cyl: usize, q: Queued) {
        let seq = Some(q.id.0);
        let slot = Slot {
            q: Some(q),
            next: NIL,
        };
        let new = if self.free != NIL {
            let reused = self.free;
            self.free = std::mem::replace(self.slot_mut(reused), slot).next;
            reused
        } else {
            if self.slab.last().is_none_or(|c| c.len() == CHUNK) {
                self.slab.push(Vec::with_capacity(CHUNK));
            }
            let filled = self.slab.len() - 1;
            self.slab[filled].push(slot);
            u32_from_usize(filled * CHUNK + self.slab[filled].len() - 1)
        };
        self.live += 1;
        self.bits[cyl / 64] |= 1 << (cyl % 64);
        // Submit order is append order, except for a promoted future
        // request older than some that were ready when submitted: that
        // one walks to its place.
        let (first, last) = self.lists[cyl];
        let (mut before, mut at) = (last, NIL);
        if first != NIL && self.seq(last) > seq {
            (before, at) = (NIL, first);
            while self.seq(at) < seq {
                (before, at) = (at, self.slot(at).next);
            }
        }
        self.slot_mut(new).next = at;
        if at == NIL {
            self.lists[cyl].1 = new;
        }
        if before == NIL {
            self.lists[cyl].0 = new;
        } else {
            self.slot_mut(before).next = new;
        }
    }

    /// Take the request a scheduler picked: the oldest on its cylinder.
    ///
    /// # Panics
    /// Panics if `key` is anything else: a scheduler bug, which would
    /// otherwise strand the queue behind an idle drive.
    fn remove(&mut self, key: Key) -> Queued {
        let cyl = key.0 as usize;
        let first = self.lists.get(cyl).map_or(NIL, |l| l.0);
        let picked = (first != NIL).then(|| self.slot_mut(first).q.take_if(|q| q.id.0 == key.1));
        let Some(Some(q)) = picked else {
            let head = self.head(cyl);
            panic!("scheduler picked {key:?}; the head of its cylinder is {head:?}");
        };
        let free = std::mem::replace(&mut self.free, first);
        let next = std::mem::replace(&mut self.slot_mut(first).next, free);
        self.lists[cyl].0 = next;
        if next == NIL {
            self.lists[cyl].1 = NIL;
            self.bits[cyl / 64] &= !(1 << (cyl % 64));
        }
        self.live -= 1;
        // A drained index gives back what a deep burst grew, as a tree
        // gives back its nodes.
        if self.live == 0 && self.slab.len() > 1 {
            self.slab.truncate(1);
            self.slab[0].clear();
            self.free = NIL;
        }
        q
    }
}

/// Every queued request of one driver, and the policy that orders them.
pub(crate) struct RequestQueue {
    ready: Ready,
    future: BTreeMap<(SimTime, u64), Queued>,
    scheduler: Box<dyn Scheduler>,
    /// Time of the latest dispatch.
    clock: SimTime,
}

impl RequestQueue {
    /// An empty queue for a disk of `cylinders` cylinders.
    pub fn new(kind: SchedulerKind, cylinders: u32) -> Self {
        RequestQueue {
            ready: Ready::new(cylinders),
            future: BTreeMap::new(),
            scheduler: kind.make(),
            clock: SimTime::ZERO,
        }
    }

    pub fn len(&self) -> usize {
        self.ready.live + self.future.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue a request behind the one in service.
    pub fn push(&mut self, q: Queued) {
        if q.arrived <= self.clock {
            self.file_ready(q);
        } else {
            self.future.insert((q.arrived, q.id.0), q);
        }
    }

    fn file_ready(&mut self, q: Queued) {
        let cyl = self.scheduler.index_cylinder(q.target_cylinder);
        self.ready.insert(cyl as usize, q);
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
    /// Panics if `now` is before the previous dispatch, or if the
    /// scheduler picks anything but the oldest request of a cylinder.
    pub fn pop(&mut self, now: SimTime, head: u32) -> Option<(Queued, SimTime)> {
        assert!(now >= self.clock, "dispatch clock ran backwards");
        self.promote(now);
        let (q, at) = match self.scheduler.pick(&self.ready, head) {
            Some(key) => (self.ready.remove(key), now),
            None => {
                // Idle until the earliest arrival; whatever arrives with
                // it is ready from then on.
                let ((at, _), q) = self.future.pop_first()?;
                self.promote(at);
                (q, at)
            }
        };
        self.clock = at;
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
    /// Unlink the first ready request without counting it out.
    Lost,
    /// Re-file the first ready request under the next cylinder.
    WrongCylinder,
    /// Move the first ready request, long arrived, to the future map.
    ArrivedButFuture,
    /// Queue the first ready request a second time, on another cylinder.
    Twice,
    /// Set the bit of a cylinder that holds nothing.
    StaleBit,
}

#[cfg(feature = "sanitize")]
impl RequestQueue {
    /// Check what the ready/future split depends on. The index is sound:
    /// a cylinder's bit is set iff its list is not empty, every list
    /// runs from `first` to `last` in strictly ascending submit sequence,
    /// and every slab slot is on one list or on the free list. Index and
    /// map hold exactly the counted requests; each sits under the
    /// cylinder (or arrival) it names; ready requests have arrived and
    /// future ones have not, by the dispatch clock; no id is queued
    /// twice.
    pub fn check(&self) -> Result<(), String> {
        let r = &self.ready;
        let slots: usize = r.slab.iter().map(Vec::len).sum();
        let mut seen = std::collections::BTreeSet::new();
        let mut file = |q: Option<&Queued>, right: bool| match q {
            Some(q) if right && seen.insert(q.id.0) => Ok(()),
            _ => Err(format!(
                "misfiled or queued twice at {:?}: {q:?}",
                self.clock
            )),
        };
        // Every walk stops after `slots` steps, so a cycle fails a count.
        let mut listed = 0;
        for (cyl, &(first, last)) in r.lists.iter().enumerate() {
            let (mut at, mut tail, mut older) = (first, NIL, None);
            while at != NIL && listed <= slots {
                let q = r.slot(at).q.as_ref();
                let index = q.map(|q| self.scheduler.index_cylinder(q.target_cylinder) as usize);
                let arrived = q.is_some_and(|q| q.arrived <= self.clock);
                let seq = q.map(|q| q.id.0);
                file(q, older < seq && index == Some(cyl) && arrived)?;
                (tail, at, older, listed) = (at, r.slot(at).next, seq, listed + 1);
            }
            let bit = r.bits[cyl / 64] >> (cyl % 64) & 1 == 1;
            if bit != (first != NIL) || tail != last {
                return Err(format!("cylinder {cyl}: bit {bit}, list {first}..{last}"));
            }
        }
        let (mut free, mut at) = (0, r.free);
        while at != NIL && free <= slots {
            (free, at) = (free + 1, r.slot(at).next);
        }
        if listed + free != slots {
            return Err(format!("{listed} listed + {free} free of {slots} slots"));
        }
        if listed != r.live {
            let (held, len) = (listed + self.future.len(), self.len());
            return Err(format!("{held} requests indexed, {len} counted"));
        }
        for (&(at, seq), q) in &self.future {
            file(Some(q), (at, seq) == (q.arrived, q.id.0) && at > self.clock)?;
        }
        Ok(())
    }

    /// Deliberately break one invariant — a test hook proving the
    /// sanitizer trips. All but `StaleBit` do nothing when no request is
    /// ready.
    pub fn corrupt_for_sanitizer_test(&mut self, how: QueueCorruption) {
        if let QueueCorruption::StaleBit = how {
            if let Some(empty) = self.ready.lists.iter().position(|l| l.0 == NIL) {
                self.ready.bits[empty / 64] |= 1 << (empty % 64);
            }
            return;
        }
        let Some(key) = self.ready.at_or_above(0) else {
            return;
        };
        let cyl = key.0 as usize;
        let q = self.ready.remove(key);
        match how {
            QueueCorruption::Lost => self.ready.live += 1,
            QueueCorruption::WrongCylinder => self.ready.insert(cyl + 1, q),
            QueueCorruption::ArrivedButFuture => {
                self.future.insert((q.arrived, key.1), q);
            }
            QueueCorruption::Twice => {
                let mut twin = q.clone();
                twin.target_cylinder += 1;
                self.ready.insert(cyl + 1, twin);
                self.ready.insert(cyl, q);
            }
            QueueCorruption::StaleBit => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::tests::q;
    use abr_sim::SimRng;

    /// The index against the ordered map it replaced: random inserts on
    /// both sides of every word and chunk boundary (one in eight with an
    /// older sequence, as a promoted future request has), both probes
    /// from every head position of interest, removal of a probed head,
    /// and drains to empty after which the slots are reused.
    #[test]
    fn ready_index_matches_an_ordered_map() {
        const LAST: u32 = 4_999;
        let edges: Vec<u32> = (0..2)
            .chain(62..67)
            .chain(4094..4099)
            .chain([LAST - 1, LAST])
            .collect();
        let above = |m: &BTreeMap<Key, ()>, c| m.range((c, 0)..).next().map(|e| *e.0);
        let below = |m: &BTreeMap<Key, ()>, c| {
            let found = m.range(..=(c, u64::MAX)).next_back()?.0 .0;
            above(m, found)
        };
        let mut rng = SimRng::new(0x5EED);
        let pick = |rng: &mut SimRng| edges[rng.below(edges.len() as u64) as usize];
        let mut queue = RequestQueue::new(SchedulerKind::Scan, LAST + 1);
        let mut oracle = BTreeMap::new();
        let mut issued = std::collections::BTreeSet::new();
        let (mut growing, mut deepest, mut drains) = (true, 0, 0);
        for step in 0..10_000u64 {
            if rng.chance(if growing { 0.7 } else { 0.3 }) {
                let cyl = pick(&mut rng);
                // An id is issued once: odd to the step, even to an
                // older request that was still in the future.
                let older = rng.chance(0.125).then(|| 2 * rng.below(step + 1));
                let seq = older.filter(|&s| issued.insert(s)).unwrap_or(2 * step + 1);
                oracle.insert((cyl, seq), ());
                queue.ready.insert(cyl as usize, q(seq, cyl));
            } else {
                let head = pick(&mut rng);
                let key = queue
                    .ready
                    .at_or_above(head)
                    .or(queue.ready.at_or_below(head));
                assert_eq!(key.is_none(), oracle.is_empty(), "step {step}");
                if let Some(key) = key {
                    let taken = queue.ready.remove(key);
                    assert_eq!((taken.target_cylinder, taken.id.0), key, "step {step}");
                    assert_eq!(oracle.remove(&key), Some(()), "step {step}");
                }
            }
            for &head in &edges {
                assert_eq!(
                    queue.ready.at_or_above(head),
                    above(&oracle, head),
                    "step {step}"
                );
                assert_eq!(
                    queue.ready.at_or_below(head),
                    below(&oracle, head),
                    "step {step}"
                );
            }
            #[cfg(feature = "sanitize")]
            assert_eq!(queue.check(), Ok(()), "step {step}");
            // Slots are reused: there are never more than the deepest the
            // index has been since it last drained (or one chunk).
            assert_eq!(queue.ready.live, oracle.len());
            deepest = deepest.max(queue.ready.live);
            let slots: usize = queue.ready.slab.iter().map(Vec::len).sum();
            assert!(slots <= deepest.max(CHUNK), "{slots} slots, {deepest} deep");
            if queue.ready.live == 0 {
                (growing, deepest, drains) = (true, 0, drains + 1);
            } else if queue.ready.live > 2 * CHUNK + CHUNK / 2 {
                growing = false;
            }
        }
        assert!(drains > 3, "the walk drained the index {drains} times");
    }

    /// Picks the request after the oldest on the lowest cylinder.
    struct SecondOldest;

    impl Scheduler for SecondOldest {
        fn pick(&mut self, ready: &Ready, _head: u32) -> Option<Key> {
            ready.at_or_above(0).map(|(cyl, seq)| (cyl, seq + 1))
        }
    }

    #[test]
    #[should_panic(expected = "scheduler picked (7, 1); the head of its cylinder is Some((7, 0))")]
    fn a_pick_that_is_not_a_cylinder_head_panics() {
        let mut queue = RequestQueue::new(SchedulerKind::Scan, 100);
        queue.scheduler = Box::new(SecondOldest);
        queue.push(q(0, 7));
        queue.push(q(1, 7));
        queue.pop(SimTime::ZERO, 0);
    }
}
