//! What the observability layer holds after a small run, pinned as
//! FNV-1a hashes: the registry snapshot (without the wall-clock
//! `wall.*` metrics), the per-day series with its SLO verdicts and the
//! run meter. The run is a tiny single-disk `Experiment` (warm-up, one
//! day, a night's rearrangement, one more day) followed by one day of a
//! 4-disk rotating-parity array that loses a disk, under two objectives
//! of which one is violated every day that has driver traffic.

use abr_array::{ArrayConfig, ArrayExperiment, Redundancy, StripePolicy};
use abr_core::{run_meter, run_meter_reset, Experiment, ExperimentConfig};
use abr_disk::fault::FaultPlan;
use abr_disk::models;
use abr_obs::{
    day_series_reset, day_series_take, registry_clear, registry_snapshot, slo_clear, slo_install,
    Slo,
};
use abr_sim::{JsonValue, SimDuration};
use abr_workload::WorkloadProfile;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn hash(text: &str) -> u64 {
    fnv1a(text.as_bytes())
}

/// The snapshot with every `wall.*` metric left out of each section.
fn without_wall(snapshot: &JsonValue) -> JsonValue {
    let mut out = JsonValue::object();
    for (section, metrics) in snapshot.as_object().into_iter().flatten() {
        let mut kept = JsonValue::object();
        for (name, value) in metrics.as_object().into_iter().flatten() {
            if !name.starts_with("wall.") {
                kept.insert(name.as_str(), value.clone());
            }
        }
        out.insert(section.as_str(), kept);
    }
    out
}

fn config(seed: u64) -> ExperimentConfig {
    let mut profile = WorkloadProfile::tiny_test();
    profile.day_length = SimDuration::from_mins(30);
    let mut c = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    c.seed = seed;
    c
}

#[test]
fn registry_series_and_meter_are_pinned() {
    registry_clear();
    day_series_reset();
    run_meter_reset();
    slo_install(vec![
        Slo::parse("p99(driver.service_us) < 1s").unwrap(),
        Slo::parse("p50(driver.service_us) < 1ms").unwrap(),
    ]);

    let mut single = Experiment::new(config(0x0B5E_0001));
    single.run_day();
    single.rearrange_for_next_day(200);
    single.run_day();

    let mut array = ArrayExperiment::new(ArrayConfig::redundant(
        config(0x0B5E_0002),
        4,
        StripePolicy::Striped { chunk_blocks: 8 },
        Redundancy::RotParity,
    ));
    let death = array.clock() + SimDuration::from_mins(10);
    array.install_fault_plan(2, FaultPlan::disk_death(death, SimDuration::from_mins(10)));
    array.run_day();
    slo_clear();

    let snapshot = without_wall(&registry_snapshot());
    let series = day_series_take();
    let meter = run_meter();

    // The run is what the pins say it is: the dead disk was read
    // around, a verdict failed, and the violations reached the registry.
    assert!(
        snapshot["counters"]["array.reads.degraded"]
            .as_u64()
            .unwrap_or(0)
            > 0
    );
    assert!(snapshot["counters"]["slo.violations"].as_u64().unwrap_or(0) > 0);
    assert!(series
        .as_array()
        .unwrap()
        .iter()
        .any(|day| day["slo"][1]["ok"] == false));
    assert!(series
        .as_array()
        .unwrap()
        .iter()
        .all(|day| day.get("slo").is_some()));

    let got = (
        hash(&snapshot.to_string()),
        hash(&series.to_string()),
        (meter.sim.as_micros(), meter.days),
    );
    assert_eq!(
        got,
        (
            1_115_639_667_799_159_294,
            7_171_491_181_101_552_169,
            (9_007_336_687, 5)
        )
    );
}
