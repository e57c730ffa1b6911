//! Disk-image persistence across "process lifetimes": everything the
//! paper stores on the medium (label, block table, data) must survive a
//! save/load cycle and keep working. And everything `abrctl` stores
//! beside an image (workload state, traces, the counts and stats
//! sidecars) keeps its bytes: the `(len, fletcher64)` goldens below were
//! recorded on the tree whose persistence still went through serde.

use abr::core::analyzer::HotBlock;
use abr::core::arranger::BlockArranger;
use abr::core::placement::PolicyKind;
use abr::core::{DayMetrics, Experiment, ExperimentConfig};
use abr::disk::image::fletcher64;
use abr::disk::{image, models, Disk, DiskLabel};
use abr::driver::monitor::FaultStats;
use abr::driver::request::IoRequest;
use abr::driver::{AdaptiveDriver, DriverConfig, SchedulerKind};
use abr::fs::{FileSystem, FsConfig};
use abr::sim::{FromJson, JsonValue, SimDuration, SimRng, SimTime};
use abr::workload::{WorkloadProfile, WorkloadState};
use std::sync::Arc;

fn t(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

fn config() -> DriverConfig {
    DriverConfig {
        block_size: 8192,
        scheduler: SchedulerKind::Scan,
        monitor_capacity: 4096,
        table_max_entries: 512,
        ..DriverConfig::default()
    }
}

fn save_load(driver: AdaptiveDriver) -> AdaptiveDriver {
    let disk = driver.crash();
    let mut img = Vec::new();
    image::save(&disk, &mut img).expect("save");
    let restored = image::load(&img[..]).expect("load");
    AdaptiveDriver::attach(restored, config()).expect("attach")
}

#[test]
fn rearranged_state_survives_image_roundtrip() {
    let model = models::toshiba_mk156f();
    let label = DiskLabel::rearranged(model.geometry, 48);
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &config());
    let mut driver = AdaptiveDriver::attach(disk, config()).unwrap();

    // Write recognizable data, rearrange, update through the remap.
    let v1 = Arc::<[u8]>::from(vec![0x41u8; 8192]);
    driver
        .submit(IoRequest::write(0, 512 * 16, 16, v1), t(0))
        .unwrap();
    driver.drain();
    let arranger = BlockArranger::new(PolicyKind::OrganPipe.make(1));
    arranger
        .rearrange(
            &mut driver,
            &[HotBlock {
                block: 512,
                count: 7,
            }],
            1,
            t(10),
        )
        .unwrap();
    let v2 = Arc::<[u8]>::from(vec![0x42u8; 8192]);
    driver
        .submit(IoRequest::write(0, 512 * 16, 16, v2.clone()), t(200))
        .unwrap();
    driver.drain();

    // "Reboot" twice: state must carry through repeated image cycles.
    let mut driver = save_load(save_load(driver));
    assert!(driver.label().is_rearranged());
    assert_eq!(driver.block_table().len(), 1);
    // Reads still redirect to the reserved copy holding v2.
    driver
        .submit(IoRequest::read(0, 512 * 16, 16), t(400))
        .unwrap();
    assert_eq!(driver.drain()[0].data, v2);

    // And cleaning after the reboot copies the (conservatively dirty)
    // data home correctly.
    arranger.clean(&mut driver, t(500)).unwrap();
    driver
        .submit(IoRequest::read(0, 512 * 16, 16), t(900))
        .unwrap();
    assert_eq!(driver.drain()[0].data, v2);
}

#[test]
fn image_is_canonical() {
    // Two saves of the same logical state produce identical bytes
    // (sectors are serialized in sorted order), so images diff cleanly.
    let model = models::tiny_test_disk();
    let label = DiskLabel::rearranged_aligned(model.geometry, 10, 8);
    let cfg = DriverConfig {
        block_size: 4096,
        ..config()
    };
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &cfg);
    let mut a = Vec::new();
    image::save(&disk, &mut a).unwrap();
    let mut b = Vec::new();
    image::save(&image::load(&a[..]).unwrap(), &mut b).unwrap();
    assert_eq!(a, b);
}

#[test]
fn plain_disk_roundtrip_keeps_partition_data() {
    let model = models::fujitsu_m2266();
    let label = DiskLabel::whole_disk(model.geometry);
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &config());
    let mut driver = AdaptiveDriver::attach(disk, config()).unwrap();
    for i in 0..10u64 {
        let data = Arc::<[u8]>::from(vec![i as u8; 8192]);
        driver
            .submit(IoRequest::write(0, (100 + i * 50) * 16, 16, data), t(i))
            .unwrap();
        driver.drain();
    }
    let mut driver = save_load(driver);
    for i in 0..10u64 {
        driver
            .submit(IoRequest::read(0, (100 + i * 50) * 16, 16), t(100 + i))
            .unwrap();
        let done = driver.drain();
        assert!(done[0].data.iter().all(|&b| b == i as u8), "block {i}");
    }
}

/// What a golden pins: length and Fletcher-64 of the bytes.
fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fletcher64(bytes))
}

fn tiny_config(seed: u64) -> ExperimentConfig {
    let mut profile = WorkloadProfile::tiny_test();
    profile.day_length = SimDuration::from_mins(30);
    let mut cfg = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    cfg.seed = seed;
    cfg
}

#[test]
fn image_model_bytes_are_pinned() {
    // The Fujitsu is the preset with a track buffer, so the embedded
    // model JSON carries every field of every model type.
    let mut img = Vec::new();
    image::save(&Disk::new(models::fujitsu_m2266()), &mut img).unwrap();
    assert_eq!(pin(&img), (365, 4_258_013_997_125_495_015));
}

#[test]
fn workload_state_bytes_are_pinned() {
    let profile = WorkloadProfile::tiny_test();
    let cfg = FsConfig {
        cache_blocks: profile.cache_blocks,
        ..FsConfig::default()
    };
    let mut fs = FileSystem::newfs(cfg, 120_000, 340);
    let (mut state, _) = WorkloadState::setup(profile, &mut fs, &mut SimRng::new(0x5eed)).unwrap();
    state.advance_day();
    state.advance_day();
    let saved = state.save_state();
    let bytes = saved.to_string().into_bytes();
    assert_eq!(pin(&bytes), (4_861, 11_332_242_819_528_150_851));
    let back = WorkloadState::load_state(&saved, 1).unwrap();
    assert_eq!(back.save_state(), saved);
}

#[test]
fn trace_and_sidecar_bytes_are_pinned() {
    let mut e = Experiment::new(tiny_config(77));
    let (day, trace) = e.run_day_traced();
    let mut jsonl = Vec::new();
    trace.write_jsonl(&mut jsonl).unwrap();
    assert_eq!(pin(&jsonl), (191_519, 3_861_911_955_086_259_378));
    // `abrctl workload` writes the analyzer's hot list and the day's
    // metrics beside the image, pretty, with no final newline.
    let sidecar = |v: JsonValue| v.pretty().trim_end().to_string().into_bytes();
    let counts = e.daemon().distributions().0;
    let counts = JsonValue::Array(counts.iter().map(HotBlock::to_json).collect());
    assert_eq!(pin(&sidecar(counts)), (26_104, 9_314_910_158_977_346_944));
    assert_eq!(
        pin(&sidecar(day.to_json())),
        (9_936, 12_826_372_997_199_267_663)
    );
}

#[test]
fn a_stats_record_without_faults_loads_with_default_faults() {
    // Records written before fault injection existed have no `faults`.
    let day = Experiment::new(tiny_config(77)).run_day();
    let JsonValue::Object(mut fields) = day.to_json() else {
        panic!("a day is an object");
    };
    let n = fields.len();
    fields.retain(|(key, _)| key != "faults");
    assert_eq!(fields.len(), n - 1);
    let back = DayMetrics::from_json(&JsonValue::Object(fields)).unwrap();
    assert_eq!(back.faults, FaultStats::default());
    assert_eq!(back.block_counts, day.block_counts);
}
