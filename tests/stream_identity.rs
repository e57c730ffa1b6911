//! The file-system source is open loop: its disk-level stream depends on
//! the workload key alone, never on the device. These tests record the
//! stream of one key under three device configurations and compare it
//! element by element — set-up, warm-up and measured days, the day-end
//! flush — and check that a device replaying another's stream measures
//! exactly what it measures live.

use abr::core::placement::PolicyKind;
use abr::core::stream::Requests;
use abr::core::{share_stream, DayMetrics, Experiment, ExperimentConfig, Stream};
use abr::disk::models;
use abr::driver::SchedulerKind;
use abr::sim::SimDuration;
use abr::workload::{TraceLog, WorkloadProfile};

/// Organ-pipe/SCAN, serial/SCAN and interleaved/FCFS.
const DEVICES: [(PolicyKind, SchedulerKind); 3] = [
    (PolicyKind::OrganPipe, SchedulerKind::Scan),
    (PolicyKind::Serial, SchedulerKind::Scan),
    (PolicyKind::Interleaved, SchedulerKind::Fcfs),
];

/// Just over an hour, off the 30 s sync grid so the day-end flush has
/// work. At this length one `users_fs` day still has a request train in
/// flight at its end, so its flush goes out after `day_end`.
const DAY: SimDuration = SimDuration::from_secs(3_652);

/// A [`DAY`] of `profile` on the Toshiba, under each of [`DEVICES`].
fn configs(profile: WorkloadProfile, seed: u64) -> Vec<ExperimentConfig> {
    DEVICES
        .iter()
        .map(|&(policy, scheduler)| {
            let mut profile = profile.clone();
            profile.day_length = DAY;
            let mut cfg = ExperimentConfig::new(models::toshiba_mk156f(), profile);
            cfg.policy = policy;
            cfg.scheduler = scheduler;
            cfg.seed = seed;
            cfg
        })
        .collect()
}

/// Two off/on pairs, each day traced: the days and their traces.
fn protocol(e: &mut Experiment) -> Vec<(DayMetrics, TraceLog)> {
    let mut days = Vec::new();
    for _ in 0..2 {
        days.push(e.run_day_traced());
        e.rearrange_for_next_day(1018);
        days.push(e.run_day_traced());
        e.rearrange_for_next_day(0);
    }
    days
}

fn assert_same_requests(what: &str, a: &Requests, b: &Requests) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x, y, "{what}: request {i} differs");
    }
}

/// Record the stream of every configuration live; all must be equal.
fn streams_agree(configs: Vec<ExperimentConfig>) -> (Stream, Vec<Vec<(DayMetrics, TraceLog)>>) {
    let mut streams = Vec::new();
    let mut runs = Vec::new();
    for config in configs {
        let mut e = Experiment::recording(config);
        runs.push(protocol(&mut e));
        streams.push(
            e.into_stream()
                .expect("a recording experiment has a stream"),
        );
    }
    let first = &streams[0];
    // The warm-up day plus four measured days.
    assert_eq!(first.days.len(), 5);
    assert!(!first.setup.is_empty());
    for (other, device) in streams.iter().zip(DEVICES).skip(1) {
        assert_eq!(first.key, other.key);
        assert_eq!(first.interleave, other.interleave);
        assert_same_requests(&format!("{device:?} set-up"), &first.setup, &other.setup);
        for (d, (a, b)) in first.days.iter().zip(other.days.iter()).enumerate() {
            assert_eq!(a.length, b.length);
            assert_same_requests(&format!("{device:?} day {d}"), &a.timed, &b.timed);
            assert_same_requests(&format!("{device:?} day {d} flush"), &a.flush, &b.flush);
        }
        assert_eq!(first, other);
    }
    (streams.swap_remove(0), runs)
}

#[test]
fn system_fs_stream_is_the_same_under_every_device() {
    let (stream, runs) = streams_agree(configs(WorkloadProfile::system_fs(), 0x5157));
    // The placement nights changed what the devices measured.
    assert_ne!(runs[0][1].0.all.seek_ms, runs[1][1].0.all.seek_ms);
    assert!(stream.days.iter().all(|d| d.timed.len() > 100));
    // Packed: a read is about 7 bytes, a seeded write about 15.
    let per_request = stream.heap_bytes() as f64 / stream.requests() as f64;
    assert!(per_request < 13.0, "{per_request:.1} bytes per request");
}

#[test]
fn users_fs_stream_is_the_same_under_every_device_flush_included() {
    let (stream, runs) = streams_agree(configs(WorkloadProfile::users_fs(), 0x0053));
    // Some measured day flushed after its end: the device was still busy
    // at `day_end`, so the flush — the last requests of the day's trace —
    // went out later, at a time each device chose for itself; the flushed
    // requests are the same all the same.
    let day_end_us = DAY.as_micros();
    let late: Vec<(usize, Vec<u64>)> = (1..stream.days.len())
        .filter(|&d| !stream.days[d].flush.is_empty())
        .map(|d| {
            let n = stream.days[d].flush.len();
            let at = runs.iter().map(|run| {
                let trace = run[d - 1].1.events();
                trace[trace.len() - n].at_us
            });
            (d, at.collect::<Vec<u64>>())
        })
        .filter(|(_, at)| at.iter().any(|&t| t > day_end_us))
        .collect();
    assert!(!late.is_empty(), "no measured day flushed after its end");
    assert!(
        late.iter()
            .any(|(_, at)| at.windows(2).any(|w| w[0] != w[1])),
        "the late flushes all went out at one time: {late:?}"
    );
}

#[test]
fn a_replayed_device_measures_what_it_measures_live() {
    for profile in [WorkloadProfile::system_fs(), WorkloadProfile::users_fs()] {
        let configs = configs(profile, 0x2EB1);
        let json = |days: Vec<(DayMetrics, TraceLog)>| -> Vec<String> {
            days.iter().map(|(d, _)| d.to_json().to_string()).collect()
        };
        let live: Vec<Vec<String>> = configs
            .iter()
            .map(|cfg| json(protocol(&mut Experiment::new(cfg.clone()))))
            .collect();
        // The first device records; the other two replay its stream.
        let shared = share_stream(configs, |_, e| json(protocol(e)));
        assert_eq!(shared, live);
    }
}
