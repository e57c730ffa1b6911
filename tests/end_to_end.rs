//! End-to-end integration: data integrity and correctness through the
//! full stack — file system, driver remapping, rearrangement cycles and
//! crash recovery.

use abr::core::analyzer::{FullAnalyzer, ReferenceAnalyzer};
use abr::core::arranger::BlockArranger;
use abr::core::placement::PolicyKind;
use abr::disk::{models, Disk, DiskLabel};
use abr::driver::request::IoRequest;
use abr::driver::{AdaptiveDriver, DriverConfig, SchedulerKind};
use abr::fs::{FileSystem, FsConfig};
use abr::sim::{SimRng, SimTime};
use std::sync::Arc;

fn t(ms: u64) -> SimTime {
    SimTime::from_micros(ms * 1000)
}

fn small_config() -> DriverConfig {
    DriverConfig {
        block_size: 8192,
        scheduler: SchedulerKind::Scan,
        monitor_capacity: 100_000,
        table_max_entries: 512,
        ..DriverConfig::default()
    }
}

fn fresh_driver(reserved_cylinders: u32) -> AdaptiveDriver {
    let model = models::toshiba_mk156f();
    let label = if reserved_cylinders > 0 {
        DiskLabel::rearranged(model.geometry, reserved_cylinders)
    } else {
        DiskLabel::whole_disk(model.geometry)
    };
    let cfg = small_config();
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &cfg);
    AdaptiveDriver::attach(disk, cfg).unwrap()
}

/// Push a batch of requests through the driver synchronously, returning
/// read data in submission order.
fn run_batch(
    driver: &mut AdaptiveDriver,
    reqs: Vec<IoRequest>,
    clock_ms: &mut u64,
) -> Vec<Arc<[u8]>> {
    let mut ids = Vec::new();
    for r in reqs {
        let is_read = r.dir.is_read();
        let id = driver.submit(r, t(*clock_ms)).expect("submit");
        *clock_ms += 25;
        if is_read {
            ids.push(id);
        }
    }
    let done = driver.drain();
    *clock_ms += 1000;
    ids.iter()
        .map(|id| {
            done.iter()
                .find(|c| c.id == *id)
                .expect("completion present")
                .data
                .clone()
        })
        .collect()
}

#[test]
fn file_data_survives_rearrangement_cycles() {
    let mut driver = fresh_driver(48);
    let part_sectors = driver.label().partitions[0].n_sectors;
    let cfg = FsConfig {
        cache_blocks: 32,
        ..FsConfig::default()
    };
    let mut fs = FileSystem::newfs(cfg, part_sectors, 340);
    let mut clock = 0u64;

    // Create a handful of files and flush them to disk.
    let (dir, reqs) = fs.mkdir().unwrap();
    run_batch(&mut driver, reqs, &mut clock);
    let mut files = Vec::new();
    for i in 0..8u64 {
        let (f, reqs) = fs.create(dir, 8192 * (i + 1)).unwrap();
        run_batch(&mut driver, reqs, &mut clock);
        files.push(f);
    }
    run_batch(&mut driver, fs.sync(), &mut clock);

    // Several days of rearrangement churn: count references, place the
    // hot blocks, verify every file's every block, repeat with a
    // different hot set.
    let arranger = BlockArranger::new(PolicyKind::OrganPipe.make(1));
    for round in 0..3 {
        // Read all files through the (possibly remapped) driver and
        // verify contents. Drop cache effects by reading cold-ish.
        for &f in &files {
            let n = fs.n_file_blocks(f).unwrap();
            for idx in 0..n {
                let reqs = fs.read(f, idx, 1).unwrap();
                let datas = run_batch(&mut driver, reqs, &mut clock);
                // The data block read is the last read in the batch (if
                // it missed the cache). Verify any read that matches the
                // expected payload length.
                let expected = fs.expected_payload(f, idx).unwrap();
                if let Some(d) = datas.iter().find(|d| d.len() == expected.len()) {
                    assert_eq!(
                        d, &expected,
                        "round {round}: file {f:?} block {idx} corrupted"
                    );
                }
            }
        }
        run_batch(&mut driver, fs.sync(), &mut clock);

        // Rearrange a different slice of blocks each round.
        let mut analyzer = FullAnalyzer::new();
        for (i, &f) in files.iter().enumerate() {
            if (i + round) % 2 == 0 {
                for &b in fs.file_blocks(f).unwrap() {
                    analyzer.observe(b, (i + 2) as u64);
                }
            }
        }
        let hot = analyzer.hot_list(100);
        arranger
            .rearrange(&mut driver, &hot, 100, t(clock))
            .unwrap();
        clock += 120_000;
    }

    // Final clean: everything must return home intact.
    arranger.clean(&mut driver, t(clock)).unwrap();
    clock += 120_000;
    assert!(driver.block_table().is_empty());
    for &f in &files {
        let n = fs.n_file_blocks(f).unwrap();
        for idx in 0..n {
            let reqs = fs.read(f, idx, 1).unwrap();
            let datas = run_batch(&mut driver, reqs, &mut clock);
            let expected = fs.expected_payload(f, idx).unwrap();
            if let Some(d) = datas.iter().find(|d| d.len() == expected.len()) {
                assert_eq!(d, &expected, "after clean: file {f:?} block {idx}");
            }
        }
    }
}

#[test]
fn updates_to_rearranged_blocks_survive_crash() {
    let mut driver = fresh_driver(48);
    let mut clock = 0u64;

    // Write distinct data to 20 blocks scattered over the disk.
    let spb = u64::from(driver.sectors_per_block());
    // Skip block 0: it holds the disk label, which newfs never touches.
    let blocks: Vec<u64> = (0..20u64).map(|i| i * 731 + 3).collect();
    for &b in &blocks {
        let payload = Arc::<[u8]>::from(vec![b as u8 ^ 0x5A; 8192]);
        driver
            .submit(IoRequest::write(0, b * spb, 16, payload), t(clock))
            .unwrap();
        driver.drain();
        clock += 50;
    }

    // Rearrange all of them.
    let arranger = BlockArranger::new(PolicyKind::OrganPipe.make(1));
    let hot: Vec<_> = blocks
        .iter()
        .enumerate()
        .map(|(i, &b)| abr::core::analyzer::HotBlock {
            block: b,
            count: 100 - i as u64,
        })
        .collect();
    arranger.rearrange(&mut driver, &hot, 20, t(clock)).unwrap();
    clock += 120_000;

    // Update half of them through the driver (redirected writes).
    for &b in blocks.iter().step_by(2) {
        let payload = Arc::<[u8]>::from(vec![b as u8 ^ 0xC3; 8192]);
        driver
            .submit(IoRequest::write(0, b * spb, 16, payload), t(clock))
            .unwrap();
        driver.drain();
        clock += 50;
    }

    // Crash and recover.
    let disk = driver.crash();
    let mut driver2 = AdaptiveDriver::attach(disk, small_config()).unwrap();
    assert_eq!(driver2.block_table().len(), 20);
    arranger.clean(&mut driver2, t(clock)).unwrap();
    clock += 240_000;

    // Every block must hold its latest version.
    for (i, &b) in blocks.iter().enumerate() {
        driver2
            .submit(IoRequest::read(0, b * spb, 16), t(clock))
            .unwrap();
        let done = driver2.drain();
        clock += 50;
        let expect = if i % 2 == 0 {
            b as u8 ^ 0xC3
        } else {
            b as u8 ^ 0x5A
        };
        assert!(
            done[0].data.iter().all(|&x| x == expect),
            "block {b} lost its update across the crash"
        );
    }
}

#[test]
fn raw_interface_sees_rearranged_data() {
    let mut driver = fresh_driver(48);
    let spb = u64::from(driver.sectors_per_block());
    // Write two adjacent blocks, rearrange only the second.
    let base = 100u64;
    for off in 0..2u64 {
        let payload = Arc::<[u8]>::from(vec![0xA0 + off as u8; 8192]);
        driver
            .submit(
                IoRequest::write(0, (base + off) * spb, 16, payload),
                t(off * 100),
            )
            .unwrap();
        driver.drain();
    }
    let arranger = BlockArranger::new(PolicyKind::Serial.make(1));
    arranger
        .rearrange(
            &mut driver,
            &[abr::core::analyzer::HotBlock {
                block: base + 1,
                count: 5,
            }],
            1,
            t(1_000),
        )
        .unwrap();

    // A raw read spanning both blocks is split by physio; both halves
    // must return the right bytes even though one is remapped.
    let ids = driver
        .submit_raw(
            abr::driver::request::IoDir::Read,
            0,
            base * spb,
            32,
            t(200_000),
        )
        .unwrap();
    assert_eq!(ids.len(), 2);
    let done = driver.drain();
    assert!(done[0].data.iter().all(|&x| x == 0xA0));
    assert!(done[1].data.iter().all(|&x| x == 0xA1));
}

#[test]
fn workload_over_driver_is_lossless() {
    // Run a tiny workload through the full stack and spot-check ten file
    // blocks for integrity at the end of the day.
    let mut driver = fresh_driver(48);
    let part_sectors = driver.label().partitions[0].n_sectors;
    let cfg = FsConfig {
        cache_blocks: 64,
        ..FsConfig::default()
    };
    let mut fs = FileSystem::newfs(cfg, part_sectors, 340);
    let mut rng = SimRng::new(99);
    let (mut workload, setup) = abr::workload::WorkloadState::setup(
        abr::workload::WorkloadProfile::tiny_test(),
        &mut fs,
        &mut rng,
    )
    .unwrap();
    let mut clock = 0u64;
    run_batch(&mut driver, setup, &mut clock);

    let mut now = t(clock);
    for _ in 0..800 {
        let (at, op) = workload.next_op(now, &fs);
        now = at;
        for r in workload.apply(op, &mut fs) {
            driver.submit(r, now).unwrap();
        }
        driver.drain();
    }
    for r in fs.sync() {
        driver.submit(r, now).unwrap();
    }
    driver.drain();

    // Verify a sample of hot files block by block (reading raw from the
    // disk store through the driver's mapping).
    let mut checked = 0;
    for f in workload.hottest_files(10) {
        if let Ok(n) = fs.n_file_blocks(f) {
            for idx in 0..n.min(3) {
                let blocks = fs.file_blocks(f).unwrap().to_vec();
                let expected = fs.expected_payload(f, idx).unwrap();
                let spb = u64::from(driver.sectors_per_block());
                driver
                    .submit(
                        IoRequest::read(0, blocks[idx] * spb, (expected.len() / 512) as u32),
                        now + abr::sim::SimDuration::from_secs(60 + checked),
                    )
                    .unwrap();
                let done = driver.drain();
                assert_eq!(done[0].data, expected, "file {f:?} block {idx}");
                checked += 1;
            }
        }
    }
    assert!(checked >= 10, "only checked {checked} blocks");
}
