//! Disk queueing (head scheduling) policies.
//!
//! The SunOS driver the paper modifies "maintains a queue of outstanding
//! requests for each physical device, managed using a disk queueing
//! policy" (§3.2) — SCAN in the measured system (§5.2: "request
//! reordering performed by the driver, which implements a SCAN policy").
//! FCFS is needed to compute the paper's "FCFS Mean Seek" baselines;
//! SSTF and C-SCAN are provided for ablation studies.
//!
//! A scheduler picks which queued request to dispatch next given the
//! current head position. It reads the driver's ready index
//! (`queue.rs`: a bitmap over cylinders and a list per cylinder) through
//! at most two probes per pick, each a bit scan, so a dispatch costs the
//! same at any queue depth. The benchmark's `abr-driver.dispatch_ns`
//! rows (submit + dispatch + complete of one request in a SCAN burst)
//! read 0.18 µs at depth 1, 0.23 µs at 32, 0.22 µs at 1,024 and 4,096
//! and 0.25 µs at 16,384 (the slab outgrows the cache). The ordered map
//! this replaced read 0.22, 0.36, 0.46, 0.46 and 0.49 µs on the same
//! host (0.04 µs of every row's drop is the disk model's seek table,
//! which landed with the index), and the linear scan over an
//! arrival-ordered vector before it 20 µs at 4,096 and 89 µs at 16,384,
//! which is what made a saturated day (600k+ requests queued) cost a
//! minute of wall time.
//!
//! Tie-breaks, all on the submit sequence (older first):
//!
//! | policy | pick |
//! |--------|------|
//! | FCFS   | the oldest ready request |
//! | SCAN   | lowest cylinder ≥ head, oldest on it; none → turn around: highest cylinder ≤ head, oldest on it (and symmetrically when sweeping down) |
//! | C-SCAN | lowest cylinder ≥ head, oldest on it; none → lowest cylinder overall |
//! | SSTF   | the nearer of the two neighbours found by the SCAN probes; at equal distance the older one |

use crate::queue::{Key, Ready};

/// Selectable queueing policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// First-come, first-served (arrival order).
    Fcfs,
    /// Elevator: service requests in the current sweep direction, reverse
    /// at the last request. The stock SunOS policy.
    Scan,
    /// Circular SCAN: sweep upward only; jump back to the lowest request.
    CScan,
    /// Shortest seek time first (greedy).
    Sstf,
}

impl SchedulerKind {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::Scan => "SCAN",
            SchedulerKind::CScan => "C-SCAN",
            SchedulerKind::Sstf => "SSTF",
        }
    }

    pub(crate) fn make(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fcfs => Box::new(Fcfs),
            SchedulerKind::Scan => Box::new(Scan { upward: true }),
            SchedulerKind::CScan => Box::new(CScan),
            SchedulerKind::Sstf => Box::new(Sstf),
        }
    }
}

/// A queue discipline: choose the next request to dispatch from the
/// ready index.
pub(crate) trait Scheduler: Send {
    /// The cylinder a request for `target` is indexed under. FCFS files
    /// everything under one cylinder, so its index is by age alone.
    fn index_cylinder(&self, target: u32) -> u32 {
        target
    }

    /// Key of the request to dispatch with the head at `head`; `None`
    /// only when nothing is ready.
    fn pick(&mut self, ready: &Ready, head: u32) -> Option<Key>;

    /// A request for `target` was dispatched straight onto an idle drive
    /// without being indexed: update whatever state picking it from a
    /// queue of one would have.
    fn bypassed(&mut self, _target: u32, _head: u32) {}
}

struct Fcfs;

impl Scheduler for Fcfs {
    fn index_cylinder(&self, _target: u32) -> u32 {
        0
    }

    fn pick(&mut self, ready: &Ready, _head: u32) -> Option<Key> {
        ready.at_or_above(0)
    }
}

struct Scan {
    upward: bool,
}

impl Scheduler for Scan {
    fn pick(&mut self, ready: &Ready, head: u32) -> Option<Key> {
        // Closest request at-or-beyond the head in the sweep direction;
        // if none, reverse direction.
        let closest = |up: bool| {
            if up {
                ready.at_or_above(head)
            } else {
                ready.at_or_below(head)
            }
        };
        closest(self.upward).or_else(|| {
            let behind = closest(!self.upward)?;
            self.upward = !self.upward;
            Some(behind)
        })
    }

    fn bypassed(&mut self, target: u32, head: u32) {
        let ahead = if self.upward {
            target >= head
        } else {
            target <= head
        };
        self.upward ^= !ahead;
    }
}

struct CScan;

impl Scheduler for CScan {
    fn pick(&mut self, ready: &Ready, head: u32) -> Option<Key> {
        // Closest at-or-above the head; else wrap to the lowest cylinder.
        ready.at_or_above(head).or_else(|| ready.at_or_above(0))
    }
}

struct Sstf;

impl Scheduler for Sstf {
    fn pick(&mut self, ready: &Ready, head: u32) -> Option<Key> {
        match (ready.at_or_below(head), ready.at_or_above(head)) {
            (Some(lo), Some(hi)) => {
                let nearer_lo = (head - lo.0, lo.1) <= (hi.0 - head, hi.1);
                Some(if nearer_lo { lo } else { hi })
            }
            (lo, hi) => lo.or(hi),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::queue::RequestQueue;
    use crate::request::{IoRequest, Queued, RequestId};
    use abr_sim::SimTime;

    /// A one-sector read with id `id` for cylinder `cyl`, arrived at 0.
    pub(crate) fn q(id: u64, cyl: u32) -> Queued {
        Queued {
            id: RequestId(id),
            req: IoRequest::read(0, 0, 1),
            segments: crate::request::Segments::one(u64::from(cyl) * 340, 1),
            target_cylinder: cyl,
            arrived: SimTime::ZERO,
        }
    }

    fn drain(kind: SchedulerKind, requests: Vec<Queued>, head: u32) -> Vec<u32> {
        let mut queue = RequestQueue::new(kind, 101);
        requests.into_iter().for_each(|q| queue.push(q));
        let mut head = head;
        let mut order = Vec::new();
        while let Some((picked, _)) = queue.pop(SimTime::ZERO, head) {
            head = picked.target_cylinder;
            order.push(picked.target_cylinder);
        }
        order
    }

    #[test]
    fn fcfs_is_arrival_order() {
        let order = drain(SchedulerKind::Fcfs, vec![q(0, 50), q(1, 10), q(2, 90)], 0);
        assert_eq!(order, vec![50, 10, 90]);
    }

    #[test]
    fn scan_sweeps_then_reverses() {
        // Head at 40 moving up: picks 50, 90, then reverses to 30, 10.
        let order = drain(
            SchedulerKind::Scan,
            vec![q(0, 50), q(1, 10), q(2, 90), q(3, 30)],
            40,
        );
        assert_eq!(order, vec![50, 90, 30, 10]);
    }

    #[test]
    fn scan_services_same_cylinder_first() {
        // A request on the current cylinder is a zero-length seek and is
        // picked before anything else in the sweep — the synergy with
        // block rearrangement the paper describes (§5.2).
        let order = drain(SchedulerKind::Scan, vec![q(0, 77), q(1, 40), q(2, 41)], 40);
        assert_eq!(order[0], 40);
        assert_eq!(order[1], 41);
    }

    #[test]
    fn cscan_wraps_to_lowest() {
        let order = drain(
            SchedulerKind::CScan,
            vec![q(0, 50), q(1, 10), q(2, 90), q(3, 30)],
            40,
        );
        assert_eq!(order, vec![50, 90, 10, 30]);
    }

    #[test]
    fn sstf_greedy_nearest() {
        let order = drain(
            SchedulerKind::Sstf,
            vec![q(0, 100), q(1, 35), q(2, 45), q(3, 90)],
            40,
        );
        assert_eq!(order, vec![35, 45, 90, 100]);
    }

    #[test]
    fn sstf_tie_breaks_by_arrival() {
        let order = drain(SchedulerKind::Sstf, vec![q(0, 45), q(1, 35)], 40);
        assert_eq!(order, vec![45, 35]);
    }

    #[test]
    fn names() {
        assert_eq!(SchedulerKind::Scan.name(), "SCAN");
        assert_eq!(SchedulerKind::Fcfs.name(), "FCFS");
        assert_eq!(SchedulerKind::CScan.name(), "C-SCAN");
        assert_eq!(SchedulerKind::Sstf.name(), "SSTF");
    }

    #[test]
    fn scan_downward_sweep() {
        // Head at 95: everything is below, so SCAN flips downward and
        // services in descending order.
        let order = drain(SchedulerKind::Scan, vec![q(0, 50), q(1, 10), q(2, 90)], 95);
        assert_eq!(order, vec![90, 50, 10]);
    }
}
