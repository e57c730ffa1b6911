//! A probe of the host's memory latency, taken around every sample.
//!
//! The reference host is a small VM on a shared machine. Its compute
//! speed is steady (a register-only loop repeats within ±4 %), its
//! memory is not: the latency of a dependent load that misses the
//! caches drifts between 100 and 320 ns (median 147) as the neighbours'
//! load changes, in phases that last from seconds to minutes. The
//! simulator is bound by memory latency, so whole runs come out up to
//! 45 % apart: over ten runs of `paper_system` the spread of the run
//! medians was 23–33 %, and no regression bound of at most 25 % can be
//! held on such numbers.
//!
//! The probe chases a pointer through a 64 MB cycle for 200,000 loads
//! (≈ 30 ms). A run takes one before its warm-up and one after every
//! sample, between samples and on the same thread, so that nothing the
//! program does can reach it. A sample's host times are multiplied by
//! [`NOMINAL_NS`] ÷ the median of the four probes nearest to it in
//! time, which states them at a fixed memory latency. Four, because a
//! single probe can fall into a burst the sample mostly missed: probes
//! taken only just before and after a four-second sample made its
//! stated time *worse* than its raw one. (Probing from a second thread
//! while the sample runs reads the sample's own memory traffic — 352 ns
//! beside `array_redundant` — and would let a change to the program
//! move the probe.) Measured on five workloads over several minutes
//! each, scaling brought the spread of twelve-sample medians from
//! 7–28 % down to 2–4 %, with the same exponent (1) for all of them.
//! The raw times and the probes are printed and kept beside the scaled
//! ones.
//!
//! The probe is this directory's own code and calls nothing in the
//! system, so a change to the system cannot move it.

use crate::stats::median;
use std::time::Instant;

/// The memory latency host times are stated at, ns per dependent load:
/// the reference host's median.
pub const NOMINAL_NS: f64 = 150.0;

/// Entries of the cycle (`u32` each): 64 MB.
const ENTRIES: usize = 16 << 20;

/// Loads per probe.
const LOADS: usize = 200_000;

/// Probes a sample's scale rests on.
const NEAREST: usize = 4;

/// What the probe's array adds to the resident set of its process.
pub const RESIDENT_MB: f64 = (ENTRIES * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0);

pub struct MemProbe {
    /// One random cycle over all entries: `next[i]` follows `i`.
    next: Vec<u32>,
    at: u32,
}

impl MemProbe {
    /// Build the cycle (Sattolo's shuffle, fixed seed): about 0.3 s.
    pub fn new() -> MemProbe {
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..ENTRIES).rev() {
            // xorshift64: any full-period generator will do.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            next.swap(i, (state % i as u64) as usize);
        }
        MemProbe { next, at: 0 }
    }

    /// Nanoseconds per dependent load, right now.
    pub fn ns_per_load(&mut self) -> f64 {
        let start = Instant::now();
        let mut at = self.at;
        for _ in 0..LOADS {
            at = self.next[at as usize];
        }
        self.at = std::hint::black_box(at);
        start.elapsed().as_nanos() as f64 / LOADS as f64
    }
}

/// The probes of one run, in time order.
pub struct ProbeLog {
    probe: MemProbe,
    epoch: Instant,
    /// `(seconds since the log began, ns per load)`.
    readings: Vec<(f64, f64)>,
}

impl ProbeLog {
    pub fn new() -> ProbeLog {
        ProbeLog {
            probe: MemProbe::new(),
            epoch: Instant::now(),
            readings: Vec::new(),
        }
    }

    /// Seconds since the log began.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Take one probe now.
    pub fn take(&mut self) {
        let began = self.now();
        let ns = self.probe.ns_per_load();
        self.readings.push(((began + self.now()) / 2.0, ns));
    }

    /// Memory latency around `[from_s, to_s]`: the median of the
    /// [`NEAREST`] probes nearest to that interval.
    pub fn around(&self, from_s: f64, to_s: f64) -> f64 {
        around(&self.readings, from_s, to_s)
    }
}

fn around(readings: &[(f64, f64)], from_s: f64, to_s: f64) -> f64 {
    let mut by_distance: Vec<(f64, f64)> = readings
        .iter()
        .map(|&(at, ns)| ((from_s - at).max(at - to_s).max(0.0), ns))
        .collect();
    by_distance.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("times are never NaN"));
    let nearest: Vec<f64> = by_distance.iter().take(NEAREST).map(|r| r.1).collect();
    if nearest.is_empty() {
        NOMINAL_NS
    } else {
        median(&nearest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_is_one_cycle_and_the_probe_walks_it() {
        let mut p = MemProbe::new();
        // Sattolo's shuffle leaves a single cycle: walking from 0 comes
        // back to 0 after exactly ENTRIES steps, so no probe can fall
        // into a short loop that fits a cache.
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = p.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, ENTRIES);
        let ns = p.ns_per_load();
        assert!(ns > 0.0 && ns.is_finite());
        assert_ne!(p.at, 0, "the walk moved on and will not repeat itself");
        assert_eq!(RESIDENT_MB, 64.0);
    }

    #[test]
    fn a_sample_rests_on_the_four_nearest_probes() {
        let readings = [
            (0.0, 100.0),
            (1.0, 140.0),
            (2.0, 900.0), // a burst
            (3.0, 160.0),
            (4.0, 180.0),
            (9.0, 500.0),
        ];
        // Around [1.2, 2.8]: 2.0 inside, then 1.0, 3.0, and 0.0 or 4.0
        // (0.0 first: the sort is stable). One burst does not carry it.
        assert_eq!(around(&readings, 1.2, 2.8), 150.0);
        // At the end of the run the four last probes.
        assert_eq!(around(&readings, 9.5, 9.9), (180.0 + 500.0) / 2.0);
        // Fewer than four probes: what there is.
        assert_eq!(around(&readings[..1], 5.0, 6.0), 100.0);
        assert_eq!(around(&[], 0.0, 1.0), NOMINAL_NS);
    }
}
