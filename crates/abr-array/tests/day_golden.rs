//! The bytes of one rotating-parity array day: `(len, fletcher64)` of
//! the compact `to_json()` of the volume roll-up and of each member.
//! The roll-up merges the members' statistics windows and block count
//! distributions, so this pins the multi-member merge as well as each
//! member's own day. A member dies half an hour in, so the day also
//! takes the degraded-read, redirected-write and rebuild paths.

use abr_array::{ArrayConfig, ArrayExperiment, Redundancy, StripePolicy};
use abr_core::{DayMetrics, ExperimentConfig};
use abr_disk::fault::FaultPlan;
use abr_disk::image::fletcher64;
use abr_disk::models;
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
        (55_188, 15_373_537_091_044_108_740),
        "volume roll-up"
    );
    let want = [
        (16_864, 7_494_432_307_930_523_265),
        (12_758, 14_883_291_518_644_521_089),
        (16_707, 12_548_126_431_218_274_179),
        (16_716, 3_121_077_237_406_389_336),
    ];
    assert_eq!(members, want, "members");
}
