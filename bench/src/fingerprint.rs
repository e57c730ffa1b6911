//! Fingerprints of simulated results.
//!
//! A fingerprint is a 64-bit FNV-1a hash over the exact bit patterns
//! (`to_bits`) of every numeric field a workload's days or epochs
//! produce. Simulated results repeat exactly for a fixed seed, so two
//! samples of one workload must hash the same, and a change meant only
//! to speed up or simplify the simulator must leave every fingerprint
//! as it found it.

use abr_array::ArrayDayMetrics;
use abr_core::{DayMetrics, DirMetrics};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    pub fn new() -> Fingerprint {
        Fingerprint(FNV_OFFSET)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Hash the bit pattern, so `-0.0` and `0.0`, or two NaNs, differ
    /// when their bits do.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    fn dir(&mut self, m: &DirMetrics) {
        self.u64(m.n);
        for x in [
            m.fcfs_seek_dist,
            m.seek_dist,
            m.zero_seek_pct,
            m.fcfs_seek_ms,
            m.seek_ms,
            m.service_ms,
            m.waiting_ms,
            m.rotation_ms,
            m.transfer_ms,
            m.reserved_frac,
        ] {
            self.f64(x);
        }
    }

    /// Every numeric field of one day.
    pub fn day(&mut self, d: &DayMetrics) {
        self.u64(d.day);
        self.u64(u64::from(d.rearranged));
        self.u64(u64::from(d.n_rearranged));
        self.dir(&d.all);
        self.dir(&d.reads);
        self.dir(&d.writes);
        self.u64(d.service_cdf.len() as u64);
        for &(ms, frac) in &d.service_cdf {
            self.f64(ms);
            self.f64(frac);
        }
        for counts in [&d.block_counts, &d.block_counts_reads] {
            self.u64(counts.len() as u64);
            for &c in counts {
                self.u64(c);
            }
        }
        let f = &d.faults;
        for x in [
            f.retries,
            f.read_failures,
            f.write_failures,
            f.quarantines,
            f.lost_blocks,
            f.table_write_failures,
        ] {
            self.u64(x);
        }
    }

    /// One array day: the volume roll-up and every member's view.
    pub fn array_day(&mut self, d: &ArrayDayMetrics) {
        self.day(&d.volume);
        self.u64(d.per_disk.len() as u64);
        for m in &d.per_disk {
            self.day(m);
        }
    }
}

/// Fingerprint of a run of single-disk days.
pub fn of_days(days: &[DayMetrics]) -> u64 {
    let mut fp = Fingerprint::new();
    for d in days {
        fp.day(d);
    }
    fp.finish()
}

/// Render as the 16 hex digits printed in reports.
pub fn hex(fp: u64) -> String {
    format!("{fp:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // FNV-1a 64 reference values.
        assert_eq!(Fingerprint::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut fp = Fingerprint::new();
        fp.bytes(b"a");
        assert_eq!(fp.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut fp = Fingerprint::new();
        fp.bytes(b"foobar");
        assert_eq!(fp.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn floats_hash_by_bits_and_order_matters() {
        let h = |xs: &[f64]| {
            let mut fp = Fingerprint::new();
            for &x in xs {
                fp.f64(x);
            }
            fp.finish()
        };
        assert_ne!(h(&[0.0]), h(&[-0.0]), "sign bit is part of the print");
        assert_ne!(h(&[1.0, 2.0]), h(&[2.0, 1.0]));
        assert_eq!(h(&[1.5, 2.5]), h(&[1.5, 2.5]));
        // One ulp is enough to change it.
        assert_ne!(h(&[1.0]), h(&[f64::from_bits(1.0f64.to_bits() + 1)]));
        assert_eq!(hex(0xab), "00000000000000ab");
    }
}
