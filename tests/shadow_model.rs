//! Shadow-model stress test: the driver + rearrangement machinery must
//! behave exactly like a flat array of blocks, no matter how reads,
//! writes, copies, evictions, cleans, crashes and re-attaches interleave.
//!
//! A reference model (a plain `HashMap<block, payload>`) shadows every
//! operation; after each step, reads through the real stack must match
//! the model byte for byte.

#![allow(clippy::disallowed_types, reason = "test code, not a simulated result")]

use abr::core::analyzer::HotBlock;
use abr::core::arranger::BlockArranger;
use abr::core::placement::PolicyKind;
use abr::disk::{models, Disk, DiskLabel};
use abr::driver::request::IoRequest;
use abr::driver::{AdaptiveDriver, DriverConfig, Ioctl, SchedulerKind};
use abr::sim::{SimRng, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

// Virtual blocks exercised. Block 0 holds the disk label (newfs never
// touches it), so the exercised range starts at 1.
const FIRST_BLOCK: u64 = 1;
const N_BLOCKS: u64 = 700;
const SPB: u64 = 8; // 4 KB blocks on the tiny test disk

struct Harness {
    driver: AdaptiveDriver,
    model: HashMap<u64, u8>, // block -> fill byte (0 = never written)
    clock_us: u64,
    arranger: BlockArranger,
    rng: SimRng,
}

impl Harness {
    fn new(seed: u64) -> Self {
        let model = models::tiny_test_disk();
        let label = DiskLabel::rearranged_aligned(model.geometry, 10, SPB as u32);
        let cfg = Self::config();
        let mut disk = Disk::new(model);
        AdaptiveDriver::format(&mut disk, &label, &cfg);
        Harness {
            driver: AdaptiveDriver::attach(disk, cfg).unwrap(),
            model: HashMap::new(),
            clock_us: 0,
            arranger: BlockArranger::new(PolicyKind::OrganPipe.make(1)),
            rng: SimRng::new(seed),
        }
    }

    fn config() -> DriverConfig {
        DriverConfig {
            block_size: (SPB * 512) as u32,
            scheduler: SchedulerKind::Scan,
            monitor_capacity: 1 << 16,
            table_max_entries: 128,
            ..DriverConfig::default()
        }
    }

    fn now(&mut self) -> SimTime {
        self.clock_us += 40_000;
        SimTime::from_micros(self.clock_us)
    }

    fn write(&mut self, block: u64, fill: u8) {
        let t = self.now();
        let payload = Arc::<[u8]>::from(vec![fill; (SPB * 512) as usize]);
        self.driver
            .submit(IoRequest::write(0, block * SPB, SPB as u32, payload), t)
            .unwrap();
        self.driver.drain();
        self.model.insert(block, fill);
    }

    fn check(&mut self, block: u64) {
        let t = self.now();
        self.driver
            .submit(IoRequest::read(0, block * SPB, SPB as u32), t)
            .unwrap();
        let done = self.driver.drain();
        let expect = self.model.get(&block).copied().unwrap_or(0);
        assert!(
            done[0].data.iter().all(|&b| b == expect),
            "block {block}: expected fill {expect:#x}, got {:#x} (table: {} entries)",
            done[0].data[0],
            self.driver.block_table().len()
        );
    }

    fn rearrange_random(&mut self, n: usize) {
        // A random hot list over the exercised range.
        let mut hot = Vec::new();
        let mut seen = std::collections::HashSet::new();
        while hot.len() < n {
            let b = FIRST_BLOCK + self.rng.below(N_BLOCKS - FIRST_BLOCK);
            if seen.insert(b) {
                hot.push(HotBlock {
                    block: b,
                    count: (n - hot.len()) as u64,
                });
            }
        }
        let t = self.now();
        if self.rng.chance(0.5) {
            self.arranger
                .rearrange(&mut self.driver, &hot, n, t)
                .unwrap();
        } else {
            self.arranger
                .rearrange_incremental(&mut self.driver, &hot, n, t)
                .unwrap();
        }
        self.clock_us += 300_000_000; // movement takes a while
    }

    fn crash_and_recover(&mut self) {
        let disk = std::mem::replace(
            &mut self.driver,
            // Throwaway placeholder; replaced below.
            {
                let m = models::tiny_test_disk();
                let l = DiskLabel::rearranged_aligned(m.geometry, 10, SPB as u32);
                let mut d = Disk::new(m);
                AdaptiveDriver::format(&mut d, &l, &Self::config());
                AdaptiveDriver::attach(d, Self::config()).unwrap()
            },
        )
        .crash();
        self.driver = AdaptiveDriver::attach(disk, Self::config()).unwrap();
    }
}

#[test]
fn storage_semantics_hold_under_random_interleavings() {
    for seed in 0..4u64 {
        let mut h = Harness::new(seed);
        let mut op_rng = SimRng::new(seed ^ 0xD00D);
        for step in 0..600 {
            match op_rng.below(100) {
                0..=44 => {
                    let b = FIRST_BLOCK + op_rng.below(N_BLOCKS - FIRST_BLOCK);
                    let fill = (op_rng.below(255) + 1) as u8;
                    h.write(b, fill);
                }
                45..=89 => {
                    let b = FIRST_BLOCK + op_rng.below(N_BLOCKS - FIRST_BLOCK);
                    h.check(b);
                }
                90..=95 => {
                    let n = 1 + op_rng.index(60);
                    h.rearrange_random(n);
                }
                96..=97 => {
                    let t = h.now();
                    h.arranger.clean(&mut h.driver, t).unwrap();
                }
                _ => h.crash_and_recover(),
            }
            // Periodically verify a random sample end to end.
            if step % 97 == 0 {
                for _ in 0..5 {
                    let b = FIRST_BLOCK + op_rng.below(N_BLOCKS - FIRST_BLOCK);
                    h.check(b);
                }
            }
        }
        // Final sweep: every block the model knows about must read back.
        let blocks: Vec<u64> = h.model.keys().copied().collect();
        for b in blocks {
            h.check(b);
        }
        // And after a final clean, still.
        let t = h.now();
        h.arranger.clean(&mut h.driver, t).unwrap();
        assert!(h.driver.block_table().is_empty());
        let blocks: Vec<u64> = h.model.keys().copied().collect();
        for b in blocks {
            h.check(b);
        }
    }
}

#[test]
fn monitors_never_perturb_semantics() {
    // Reading stats/request tables mid-stream must not affect data.
    let mut h = Harness::new(99);
    for i in 0..50u64 {
        h.write(FIRST_BLOCK + i * 3 % (N_BLOCKS - 1), (i + 1) as u8);
        if i % 7 == 0 {
            let t = h.now();
            h.driver.ioctl(Ioctl::ReadRequestTable, t).unwrap();
            h.driver.ioctl(Ioctl::ReadStats, t).unwrap();
        }
    }
    h.rearrange_random(30);
    for i in 0..50u64 {
        h.check(FIRST_BLOCK + i * 3 % (N_BLOCKS - 1));
    }
}
