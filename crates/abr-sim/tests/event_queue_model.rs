//! Model-based property test for the calendar event queue.
//!
//! The ladder/calendar rework of `EventQueue` must be observationally
//! identical to the `BinaryHeap` implementation it replaced: pops come
//! out in ascending `(at, seq)` order, so events at the same tick keep
//! FIFO order. The reference model here *is* that old implementation — a
//! `BinaryHeap<Reverse<(at, seq, id)>>` — driven through randomized
//! interleavings of schedules and pops, including heavy same-tick bursts
//! that stress FIFO stability across migration batches.

use abr_sim::{EventQueue, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The pre-rework queue, reduced to its ordering semantics.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    next_seq: u64,
    now: u64,
}

impl HeapModel {
    fn schedule(&mut self, at: u64, id: u32) {
        let at = at.max(self.now);
        self.heap.push(Reverse((at, self.next_seq, id)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let Reverse((at, _, id)) = self.heap.pop()?;
        self.now = at;
        Some((at, id))
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }
}

/// One step of a generated schedule: how far past `now` the event fires.
/// Zero offsets produce same-tick ties; large offsets force events into
/// the far rung and across several migration epochs.
fn offset_for(shape: u64, magnitude: u64) -> u64 {
    match shape % 8 {
        // Same-tick burst fodder (ties with whatever fired last).
        0 | 1 => 0,
        // Sub-epoch: lands in the near rung after a migration.
        2 | 3 => magnitude % 1_000,
        // Around the initial 1s epoch boundary.
        4 | 5 => 900_000 + magnitude % 200_000,
        // Far future: several epochs out (up to ~100s).
        _ => magnitude % 100_000_000,
    }
}

#[test]
fn calendar_queue_matches_binary_heap_model() {
    let mut rng = SimRng::new(1);
    for _ in 0..256 {
        let n_ops = 1 + rng.index(399);
        let ops: Vec<(u64, u64, u64)> = (0..n_ops)
            .map(|_| (rng.next_u64(), rng.next_u64(), rng.below(4)))
            .collect();
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = HeapModel::default();
        let mut next_id: u32 = 0;

        for (shape, magnitude, action) in ops {
            // action 0..3: schedule one event (3:1 schedule:pop mix keeps
            // the queue populated); action 3: pop and compare.
            if action < 3 {
                let at = q.now().as_micros() + offset_for(shape, magnitude);
                q.schedule(SimTime::from_micros(at), next_id);
                model.schedule(at, next_id);
                next_id += 1;
            } else {
                assert_eq!(q.peek_time().map(SimTime::as_micros), model.peek_time());
                let got = q.pop().map(|(t, e)| (t.as_micros(), e));
                assert_eq!(got, model.pop());
            }
            assert_eq!(q.len() as u64, model.heap.len() as u64);
        }

        // Drain: every remaining event must come out in model order.
        loop {
            assert_eq!(q.peek_time().map(SimTime::as_micros), model.peek_time());
            let got = q.pop().map(|(t, e)| (t.as_micros(), e));
            let want = model.pop();
            assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
        assert!(q.is_empty());
    }
}

#[test]
fn same_tick_bursts_stay_fifo_through_migrations() {
    let mut rng = SimRng::new(2);
    for _ in 0..256 {
        let burst = 1 + rng.index(63);
        let spacing = 1 + rng.below(4_999_999);
        let rounds = 1 + rng.index(19);
        // All events scheduled up front at `rounds` distinct ticks,
        // `burst` ties per tick, spaced to straddle migration epochs.
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut expect = Vec::new();
        for r in 0..rounds {
            for b in 0..burst {
                let id = r * burst + b;
                q.schedule(SimTime::from_micros(r as u64 * spacing), id);
                expect.push(id);
            }
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order, expect,
            "{rounds} rounds of {burst} every {spacing} us"
        );
    }
}
