//! Goldens for what the workload producer draws and emits: the samplers
//! (`Zipf`, `Weighted`, `FileSizes`), the raw `SimRng` draws under them,
//! and the requests `FsTraffic::produce_day` packs for short days of both
//! paper profiles. Each pins `(len, fletcher64)` of a byte image, so a
//! faster sampler or a file-system op that writes into a caller's buffer
//! must leave every drawn number and every emitted request where it was.

use abr::core::{DayStream, FsTraffic};
use abr::disk::image::fletcher64;
use abr::disk::models;
use abr::driver::request::IoRequest;
use abr::fs::{FileSystem, FsConfig, MountMode};
use abr::sim::dist::{FileSizes, Weighted, Zipf};
use abr::sim::{SimDuration, SimRng, SimTime};
use abr::workload::{WorkloadProfile, WorkloadState};
use std::sync::atomic::AtomicBool;

/// Length and Fletcher-64 of a byte image.
fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fletcher64(bytes))
}

/// `n` draws of `draw`, each as 8 little-endian bytes.
fn draws(n: usize, mut draw: impl FnMut() -> u64) -> Vec<u8> {
    (0..n).flat_map(|_| draw().to_le_bytes()).collect()
}

#[test]
fn zipf_draws_are_pinned() {
    let got: Vec<(usize, u64)> = [
        (850, 2.4),
        (1000, 1.7),
        (2048, 1.1),
        (128, 1.6),
        (2, 1.6),
        (1, 1.6),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (n, s))| {
        let z = Zipf::new(n, s);
        let mut rng = SimRng::new(0x21FF + i as u64);
        pin(&draws(4096, || z.sample(&mut rng) as u64))
    })
    .collect();
    assert_eq!(
        got,
        [
            (32_768, 82_285_371_458_589_208),
            (32_768, 821_839_380_749_531_765),
            (32_768, 12_617_485_610_560_185_563),
            (32_768, 439_690_087_152_771_466),
            (32_768, 18_142_405_714_773_010),
            (32_768, 0),
        ]
    );
}

#[test]
fn weighted_and_file_size_draws_are_pinned() {
    let mut got = Vec::new();
    for (i, profile) in [WorkloadProfile::system_fs(), WorkloadProfile::users_fs()]
        .into_iter()
        .enumerate()
    {
        let m = &profile.mix;
        let mix = Weighted::new(&[
            m.read_whole,
            m.read_range,
            m.write_range,
            m.create,
            m.append,
            m.delete,
        ]);
        let mut rng = SimRng::new(0x3E1 + i as u64);
        got.push(pin(&draws(4096, || mix.sample(&mut rng) as u64)));
        let sizes = FileSizes::new(profile.file_min, profile.file_max, profile.size_alpha);
        got.push(pin(&draws(4096, || sizes.sample(&mut rng))));
    }
    assert_eq!(
        got,
        [
            (32_768, 50_504_666_462_554_950),
            (32_768, 18_249_525_266_080_825_046),
            (32_768, 89_520_785_034_581_013),
            (32_768, 13_753_985_282_240_901_892),
        ]
    );
}

#[test]
fn sim_rng_draws_are_pinned() {
    let got: Vec<(usize, u64)> = [1, 0xBEEF, u64::MAX]
        .into_iter()
        .map(|seed| {
            let mut rng = SimRng::new(seed);
            let mut bytes = draws(1024, || rng.f64().to_bits());
            for bound in [1, 2, 3, 7, 1000, 1 << 33, u64::MAX] {
                bytes.extend(draws(256, || rng.below(bound)));
            }
            for bound in [1, 5, 850, 1 << 20] {
                bytes.extend(draws(256, || rng.index(bound) as u64));
            }
            pin(&bytes)
        })
        .collect();
    assert_eq!(
        got,
        [
            (30_720, 5_522_412_284_831_793_202),
            (30_720, 2_516_320_213_074_901_391),
            (30_720, 3_537_376_698_323_542_641),
        ]
    );
}

/// One request as bytes: every field the device sees, plus its offset
/// and whether it joins the previous request's step.
fn put(bytes: &mut Vec<u8>, at_us: u64, joins: bool, r: &IoRequest) {
    bytes.extend(at_us.to_le_bytes());
    bytes.push(u8::from(joins));
    bytes.push(u8::from(r.dir.is_read()));
    bytes.extend((r.partition as u64).to_le_bytes());
    bytes.extend(r.sector_in_partition.to_le_bytes());
    bytes.extend(r.n_sectors.to_le_bytes());
    bytes.extend(format!("{:?}", r.payload).as_bytes());
}

/// The set-up writes and three 30-minute days of `profile` on the
/// Toshiba, made by `FsTraffic::produce_day` as one piece a day.
fn produced(profile: WorkloadProfile, seed: u64) -> Vec<u8> {
    let geometry = models::toshiba_mk156f().geometry;
    let mut profile = profile;
    profile.day_length = SimDuration::from_mins(30);
    let cfg = FsConfig {
        cache_blocks: profile.cache_blocks,
        mode: MountMode::ReadWrite,
        write_through: profile.nfs_write_through,
        ..FsConfig::default()
    };
    let mut fs = FileSystem::newfs(
        cfg,
        geometry.total_sectors(),
        geometry.sectors_per_cylinder(),
    );
    let mutating = profile.is_mutating();
    let (ws, setup) = WorkloadState::setup(profile, &mut fs, &mut SimRng::new(seed))
        .expect("the population fits");
    if !mutating {
        fs.remount(MountMode::ReadOnly);
    }
    let mut bytes = Vec::new();
    for r in &setup {
        put(&mut bytes, 0, false, r);
    }
    let pacing = SimDuration::from_millis(150);
    let mut traffic = FsTraffic::new(fs, ws, SimDuration::from_secs(30), pacing, SimTime::ZERO);
    let cancel = AtomicBool::new(false);
    for _ in 0..3 {
        // A `cut` that hands nothing out keeps the day in one piece.
        let day = traffic
            .produce_day(DayStream::default(), &cancel, &mut |_| Some(()))
            .expect("not cancelled");
        for (at_us, joins, r) in day.timed.iter().chain(day.flush.iter()) {
            put(&mut bytes, at_us, joins, &r);
        }
        bytes.push(0xFF);
    }
    bytes
}

#[test]
fn produced_days_are_pinned() {
    let got = [
        pin(&produced(WorkloadProfile::system_fs(), 0x5157)),
        pin(&produced(WorkloadProfile::users_fs(), 0x05E)),
    ];
    assert_eq!(
        got,
        [
            (1_737_923, 1_291_556_404_745_050_000),
            (1_591_923, 16_462_224_193_246_730_647),
        ]
    );
}
