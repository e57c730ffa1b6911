//! Both open-loop sources — the file-system workload, one day ahead of
//! the device, and the serving harness's client arrivals — are made on a
//! producer thread. These tests hold its lifecycle: dropping an
//! experiment or a server stops the thread, a panic on it reaches the
//! caller, and a live run is bit for bit the recording and the replay of
//! its own stream.

use abr::core::producer::THREAD_NAME;
use abr::core::{
    DayMetrics, DayStream, Experiment, ExperimentConfig, FsProducer, FsTraffic, OpenLoop, Producer,
};
use abr::disk::models;
use abr::fs::{FileSystem, FsConfig, MountMode};
use abr::sim::{JsonValue, SimDuration, SimRng, SimTime};
use abr::workload::{WorkloadProfile, WorkloadState};
use abr_serve::{ServeConfig, ServeExperiment};
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;

/// Held by every test here, so the producer threads one counts are its
/// own.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    // A test that panicked on purpose poisons the lock; it guards nothing.
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// A `users_fs` day of `minutes` on the Toshiba.
fn config(minutes: u64) -> ExperimentConfig {
    let mut profile = WorkloadProfile::users_fs();
    profile.day_length = SimDuration::from_mins(minutes);
    ExperimentConfig::new(models::toshiba_mk156f(), profile)
}

/// Producer threads alive in this process, or `None` where the host
/// does not list its threads.
#[allow(clippy::disallowed_methods, reason = "counted, never ordered")]
fn producer_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let named = |task: &std::fs::DirEntry| {
        std::fs::read_to_string(task.path().join("comm")).is_ok_and(|c| c.trim_end() == THREAD_NAME)
    };
    Some(tasks.flatten().filter(named).count())
}

#[test]
fn an_experiment_dropped_mid_run_stops_its_producer() {
    let _one = one_at_a_time();
    let mut e = Experiment::new(config(60));
    assert_eq!(producer_threads().unwrap_or(1), 1);
    // One day of four: the producer is making the second when the
    // experiment goes, and must stop between two operations.
    e.run_day();
    drop(e);
    assert_eq!(producer_threads().unwrap_or(0), 0);
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "wall time is the quantity under test"
)]
fn dropping_an_experiment_cancels_the_day_being_made() {
    let _one = one_at_a_time();
    // Making this day would take the producer an hour or more; the drop
    // must cut it short.
    let mut cfg = config(600_000);
    cfg.warmup_days = 0;
    let e = Experiment::new(cfg);
    let start = std::time::Instant::now();
    drop(e);
    let took = start.elapsed();
    assert!(took.as_secs() < 10, "the drop took {took:?}");
    assert_eq!(producer_threads().unwrap_or(0), 0);
}

#[test]
#[should_panic(expected = "index(0)")]
fn a_producer_panic_reaches_the_caller_with_its_message() {
    let _one = one_at_a_time();
    // A generator resumed from a state that lost its directories: its
    // first create panics on the producer thread, mid-day.
    let fs_cfg = FsConfig {
        cache_blocks: 128,
        mode: MountMode::ReadWrite,
        ..FsConfig::default()
    };
    let mut fs = FileSystem::newfs(fs_cfg, 240_000, 340);
    let mut profile = WorkloadProfile::tiny_test();
    profile.mix.create = 1.0;
    let (ws, _) = WorkloadState::setup(profile, &mut fs, &mut SimRng::new(1)).unwrap();
    let mut state = ws.save_state();
    state.insert("dirs", JsonValue::array());
    let ws = WorkloadState::load_state(&state, 1).unwrap();
    let pacing = SimDuration::from_millis(150);
    let traffic = FsTraffic::new(fs, ws, SimDuration::from_secs(30), pacing, SimTime::ZERO);
    FsProducer::spawn(traffic).next();
}

/// A source that hands out one piece of its day and then panics.
struct GivesUp;

impl OpenLoop for GivesUp {
    type Piece = DayStream;
    type Order = ();

    fn produce(
        &mut self,
        (): (),
        mut day: DayStream,
        _cancel: &AtomicBool,
        cut: &mut impl FnMut(&mut DayStream) -> Option<()>,
    ) -> Option<DayStream> {
        cut(&mut day)?;
        panic!("the source gave up mid-day");
    }
}

#[test]
#[should_panic(expected = "the source gave up mid-day")]
fn a_panic_on_any_producer_reaches_the_caller_with_its_message() {
    let _one = one_at_a_time();
    let mut producer = Producer::spawn(GivesUp);
    producer.order(());
    assert!(producer.next_piece().more, "the day's first piece");
    producer.next_piece();
}

/// A server whose first epoch would take its producer hours to draw.
fn flooded_server() -> ServeConfig {
    let mut c = ServeConfig::new(models::tiny_test_disk());
    c.n_clients = 1024;
    c.aggregate_rate_per_sec = 100_000.0;
    c.working_set_blocks = 64;
    c.epoch = SimDuration::from_mins(600);
    c
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "wall time is the quantity under test"
)]
fn a_server_dropped_mid_epoch_stops_its_producer() {
    let _one = one_at_a_time();
    let e = ServeExperiment::new(flooded_server());
    assert_eq!(producer_threads().unwrap_or(1), 1);
    // The producer is drawing the first epoch, or waiting for the server
    // to take a piece; the drop must stop it either way.
    let start = std::time::Instant::now();
    drop(e);
    let took = start.elapsed();
    assert!(took.as_secs() < 10, "the drop took {took:?}");
    assert_eq!(producer_threads().unwrap_or(0), 0);

    // An adaptive server between epochs: the night ordered the next one.
    let mut c = ServeConfig::new(models::tiny_test_disk());
    c.n_clients = 4;
    c.working_set_blocks = 64;
    c.reserved_cylinders = 10;
    c.place_blocks = 32;
    c.epoch = SimDuration::from_secs(30);
    let mut e = ServeExperiment::new(c);
    e.run_epoch();
    e.rearrange();
    drop(e);
    assert_eq!(producer_threads().unwrap_or(0), 0);
}

#[test]
fn a_live_run_is_its_recording_and_its_replay() {
    let _one = one_at_a_time();
    let json = |days: Vec<DayMetrics>| -> Vec<String> {
        days.iter().map(|d| d.to_json().to_string()).collect()
    };
    let cfg = config(30);
    let live = json(Experiment::new(cfg.clone()).run_on_off(2, 1018));
    let mut recording = Experiment::recording(cfg.clone());
    let recorded = json(recording.run_on_off(2, 1018));
    let stream = recording.into_stream().expect("recorded");
    // The warm-up day and the four days run.
    assert_eq!(stream.days.len(), cfg.warmup_days as usize + 4);
    let replayed = json(Experiment::replaying(cfg, &stream).run_on_off(2, 1018));
    assert_eq!(recorded, live);
    assert_eq!(replayed, live);
    assert_eq!(producer_threads().unwrap_or(0), 0);
}
