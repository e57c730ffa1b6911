//! Determinism: the whole experiment pipeline is a pure function of its
//! seed. Every table and figure in EXPERIMENTS.md is exactly
//! reproducible.

use abr::core::{Experiment, ExperimentConfig};
use abr::disk::models;
use abr::sim::{FromJson, JsonValue, SimDuration};
use abr::workload::WorkloadProfile;

fn tiny_config(seed: u64) -> ExperimentConfig {
    let mut profile = WorkloadProfile::tiny_test();
    profile.day_length = SimDuration::from_mins(30);
    let mut cfg = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    cfg.seed = seed;
    cfg
}

fn fingerprint_day(d: &abr::core::DayMetrics) -> String {
    // Bit-exact floats plus the raw per-block counters: any
    // nondeterminism anywhere in the stack (hash iteration order,
    // uninitialized state, clock skew) shows up here.
    format!(
        "{}:{}:{}:{}:{}:{}:{:?}:{:?}",
        d.day,
        d.all.n,
        d.all.seek_ms.to_bits(),
        d.all.service_ms.to_bits(),
        d.all.waiting_ms.to_bits(),
        d.rearranged,
        d.service_cdf
            .iter()
            .map(|(a, b)| (a.to_bits(), b.to_bits()))
            .collect::<Vec<_>>(),
        d.block_counts,
    )
}

fn run_fingerprint(seed: u64) -> String {
    let mut e = Experiment::new(tiny_config(seed));
    let off = e.run_day();
    e.rearrange_for_next_day(200);
    let on = e.run_day();
    format!("{}|{}", fingerprint_day(&off), fingerprint_day(&on))
}

#[test]
fn identical_seeds_give_identical_days() {
    assert_eq!(run_fingerprint(1234), run_fingerprint(1234));
}

#[test]
fn different_seeds_give_different_days() {
    assert_ne!(run_fingerprint(1), run_fingerprint(2));
}

#[test]
fn day_metrics_serde_roundtrip() {
    let mut e = Experiment::new(tiny_config(77));
    let day = e.run_day();
    let json = JsonValue::parse(&day.to_json().to_string()).unwrap();
    let back = abr::core::DayMetrics::from_json(&json).unwrap();
    assert_eq!(back.all.n, day.all.n);
    assert_eq!(back.service_cdf.len(), day.service_cdf.len());
    assert_eq!(back.block_counts, day.block_counts);
}
