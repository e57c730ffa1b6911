//! The bytes of one rotating-parity array day: `(len, fletcher64)` of
//! the compact `to_json()` of the volume roll-up and of each member.
//! The roll-up merges the members' statistics windows and block count
//! distributions, so this pins the multi-member merge as well as each
//! member's own day. A member dies half an hour in, so the day also
//! takes the degraded-read, redirected-write and rebuild paths. A second
//! test pins what the volume has counted by the end of set-up.

use abr_array::{ArrayConfig, ArrayExperiment, Redundancy, StripePolicy, VolRequestId};
use abr_core::{DayMetrics, ExperimentConfig};
use abr_disk::fault::FaultPlan;
use abr_disk::image::fletcher64;
use abr_disk::models;
use abr_driver::IoRequest;
use abr_sim::SimDuration;
use abr_workload::WorkloadProfile;

fn pin(d: &DayMetrics) -> (usize, u64) {
    let bytes = d.to_json().to_string().into_bytes();
    (bytes.len(), fletcher64(&bytes))
}

#[test]
fn rotating_parity_day_bytes_are_pinned() {
    abr_obs::registry_clear();
    let mut profile = WorkloadProfile::tiny_test();
    profile.day_length = SimDuration::from_hours(1);
    let mut base = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    base.seed = 0xA77A_5AFE;
    let stripe = StripePolicy::Striped { chunk_blocks: 8 };
    let mut e = ArrayExperiment::new(ArrayConfig::redundant(
        base,
        4,
        stripe,
        Redundancy::RotParity,
    ));
    let death = e.clock() + SimDuration::from_mins(30);
    e.install_fault_plan(1, FaultPlan::disk_death(death, SimDuration::from_mins(10)));
    let day = e.run_day();
    let degraded = abr_obs::with_registry(|r| {
        let id = r.counter("array.reads.degraded");
        r.counter_value(id)
    });
    assert!(degraded > 0, "the disk death did not bite");
    let members: Vec<_> = day.per_disk.iter().map(pin).collect();
    assert_eq!(
        pin(&day.volume),
        (55_181, 11_957_693_587_664_081_919),
        "volume roll-up"
    );
    let want = [
        (16_867, 8_379_772_697_738_006_105),
        (12_758, 14_883_291_518_644_521_089),
        (16_709, 6_436_763_353_737_138_953),
        (16_711, 7_504_551_900_693_490_169),
    ];
    assert_eq!(members, want, "members");
}

/// What the volume's bookkeeping has counted once set-up and warm-up are
/// over: request outcomes, each member's sub-request tallies, the
/// `array.*` request counters, and the id the next request gets. A
/// rewrite of the in-flight tables must not shift any of them.
#[test]
fn rotating_parity_setup_counts_are_pinned() {
    abr_obs::registry_clear();
    let mut base = ExperimentConfig::new(models::toshiba_mk156f(), WorkloadProfile::tiny_test());
    base.seed = 0xA77A_5AFE;
    let stripe = StripePolicy::Striped { chunk_blocks: 8 };
    let mut e = ArrayExperiment::new(ArrayConfig::redundant(
        base,
        4,
        stripe,
        Redundancy::RotParity,
    ));
    let v = e.volume();
    let members: Vec<_> = (0..v.n_disks())
        .map(|i| {
            let c = v.io_counts(i);
            (c.submitted, c.completed, c.failed)
        })
        .collect();
    let counter = |name: &str| {
        abr_obs::with_registry(|r| {
            let id = r.counter(name);
            r.counter_value(id)
        })
    };
    let registry: Vec<u64> = ["array.requests", "array.subrequests"]
        .into_iter()
        .map(String::from)
        .chain((0..v.n_disks()).flat_map(|i| {
            ["submitted", "completed", "failed"].map(|what| format!("array.disk.{i}.{what}"))
        }))
        .map(|name| counter(&name))
        .collect();
    assert_eq!(v.request_outcomes(), (2_352, 0), "request outcomes");
    // Maintenance sub-requests (the warm-up's scrub) complete without
    // being counted as submitted.
    let want = [
        (1_286, 1_766, 0),
        (1_071, 1_551, 0),
        (1_160, 1_640, 0),
        (1_049, 1_529, 0),
    ];
    assert_eq!(members, want, "member io counts");
    let mut want = vec![2_352, 4_566];
    want.extend(members.iter().flat_map(|&(s, c, f)| [s, c, f]));
    assert_eq!(registry, want, "array.* counters");
    let now = e.clock();
    let next = e.volume_mut().submit(IoRequest::read(0, 0, 16), now);
    assert_eq!(next, Ok(VolRequestId(2_352)), "next admitted request");
}
