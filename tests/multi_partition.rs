//! Two file systems on one disk, one shared reserved region — the
//! §4.1.1 configuration: "A disk may have several partitions and
//! consequently several file systems on it. However, only a single
//! reserved region will be implemented by the driver, and blocks from
//! any of the file systems may be copied there."

use abr::core::analyzer::{FullAnalyzer, ReferenceAnalyzer};
use abr::core::arranger::BlockArranger;
use abr::core::placement::PolicyKind;
use abr::disk::{models, Disk, DiskLabel, Partition};
use abr::driver::request::IoRequest;
use abr::driver::{AdaptiveDriver, DriverConfig, Ioctl, IoctlReply};
use abr::fs::{FileSystem, FsConfig};
use abr::sim::SimTime;
use std::sync::Arc;

fn t(ms: u64) -> SimTime {
    SimTime::from_micros(ms * 1000)
}

/// Build the paper's disk: one physical device, a reserved region in the
/// middle, and two block-aligned partitions (the *system* and *users*
/// logical devices).
fn two_partition_driver() -> AdaptiveDriver {
    let model = models::toshiba_mk156f();
    let mut label = DiskLabel::rearranged(model.geometry, 48);
    let vtotal = label.virtual_geometry().total_sectors();
    // Split at a block-aligned midpoint.
    let half = (vtotal / 2) / 16 * 16;
    label.partitions = vec![
        Partition {
            start_sector: 0,
            n_sectors: half,
        },
        Partition {
            start_sector: half,
            n_sectors: (vtotal - half) / 16 * 16,
        },
    ];
    let cfg = DriverConfig::default();
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &cfg);
    AdaptiveDriver::attach(disk, cfg).unwrap()
}

#[test]
fn blocks_from_both_file_systems_share_the_reserved_region() {
    let mut driver = two_partition_driver();
    let mut clock = 0u64;

    // A file system on each partition; create one hot file in each.
    let spc = 340u64;
    let mut files = Vec::new();
    for part in 0..2usize {
        let n_sectors = driver.label().partitions[part].n_sectors;
        let cfg = FsConfig {
            partition: part,
            cache_blocks: 1, // force every read to the disk
            ..FsConfig::default()
        };
        let mut fs = FileSystem::newfs(cfg, n_sectors, spc);
        let (dir, reqs) = fs.mkdir().unwrap();
        for r in reqs {
            driver.submit(r, t(clock)).unwrap();
            clock += 30;
        }
        let (f, reqs) = fs.create(dir, 4 * 8192).unwrap();
        for r in reqs {
            driver.submit(r, t(clock)).unwrap();
            clock += 30;
        }
        for r in fs.sync() {
            driver.submit(r, t(clock)).unwrap();
            clock += 30;
        }
        driver.drain();
        files.push((fs, f, part));
    }

    // Generate traffic to both files; the driver's monitor sees absolute
    // virtual block numbers, so counts from both partitions merge.
    driver.ioctl(Ioctl::ReadRequestTable, t(clock)).unwrap();
    for round in 0..12u64 {
        for (fs, f, _part) in &mut files {
            for r in fs.read(*f, (round % 4) as usize, 1).unwrap() {
                driver.submit(r, t(clock)).unwrap();
                clock += 30;
            }
        }
        driver.drain();
        clock += 500;
    }
    let records = match driver.ioctl(Ioctl::ReadRequestTable, t(clock)).unwrap() {
        IoctlReply::RequestTable { records, .. } => records,
        _ => unreachable!(),
    };
    assert!(!records.is_empty());

    // Rearrange the combined hot list: blocks from BOTH partitions.
    let mut analyzer = FullAnalyzer::new();
    for r in &records {
        analyzer.observe(r.block, 1);
    }
    let hot = analyzer.hot_list(40);
    let arranger = BlockArranger::new(PolicyKind::OrganPipe.make(1));
    let report = arranger
        .rearrange(&mut driver, &hot, 40, t(clock + 60_000))
        .unwrap();
    assert!(report.blocks_placed > 4);
    clock += 600_000;

    // The reserved area must now hold blocks originating in both
    // partitions.
    let part1_start = driver.label().partitions[1].start_sector;
    let mut from_p0 = 0;
    let mut from_p1 = 0;
    for (orig, _) in driver.block_table().iter() {
        // orig is a physical sector; map back to virtual to classify.
        let v = driver
            .label()
            .physical_to_virtual(orig)
            .expect("not reserved");
        if v < part1_start {
            from_p0 += 1;
        } else {
            from_p1 += 1;
        }
    }
    assert!(from_p0 > 0, "no partition-0 blocks placed");
    assert!(from_p1 > 0, "no partition-1 blocks placed");

    // Data integrity through the shared remap, for both file systems.
    for (fs, f, part) in &files {
        for idx in 0..4usize {
            let blocks = fs.file_blocks(*f).unwrap();
            let expected = fs.expected_payload(*f, idx).unwrap();
            driver
                .submit(IoRequest::read(*part, blocks[idx] * 16, 16), t(clock))
                .unwrap();
            clock += 100;
            let done = driver.drain();
            assert_eq!(done[0].data, expected, "partition {part} block {idx}");
        }
    }

    // Clean: everything returns to its home partition intact.
    arranger.clean(&mut driver, t(clock + 60_000)).unwrap();
    clock += 600_000;
    for (fs, f, part) in &files {
        let blocks = fs.file_blocks(*f).unwrap();
        let expected = fs.expected_payload(*f, 0).unwrap();
        driver
            .submit(IoRequest::read(*part, blocks[0] * 16, 16), t(clock))
            .unwrap();
        clock += 100;
        assert_eq!(
            driver.drain()[0].data,
            expected,
            "partition {part} after clean"
        );
    }
}

#[test]
fn partition_isolation() {
    // Requests cannot cross partition boundaries, and the same
    // partition-relative sector addresses distinct physical locations on
    // distinct partitions.
    let mut driver = two_partition_driver();
    let n0 = driver.label().partitions[0].n_sectors;
    assert!(driver.submit(IoRequest::read(0, n0, 16), t(0)).is_err());

    let a = Arc::<[u8]>::from(vec![0xAA; 8192]);
    let b = Arc::<[u8]>::from(vec![0xBB; 8192]);
    driver
        .submit(IoRequest::write(0, 800, 16, a.clone()), t(1))
        .unwrap();
    driver
        .submit(IoRequest::write(1, 800, 16, b.clone()), t(2))
        .unwrap();
    driver.drain();
    driver
        .submit(IoRequest::read(0, 800, 16), t(10_000))
        .unwrap();
    driver
        .submit(IoRequest::read(1, 800, 16), t(10_001))
        .unwrap();
    let done = driver.drain();
    assert_eq!(done[0].data, a);
    assert_eq!(done[1].data, b);
}
