//! An N=1 striped volume reduces EXACTLY to the single-disk harness:
//! per-day metrics serialize to identical bytes — not merely "close",
//! identical. Both harnesses are the same `abr_core::DayLoop` under the
//! same file-system source, so the loop, the setup sequence and the
//! overnight pass agree by construction, and `tests/conformance.rs`
//! pins the device half (volume ≡ driver under one request stream).
//! What is left to check here is the wiring: the volume harness hands
//! the loop the same sector count, members and seeds.

use abr_array::{ArrayConfig, ArrayExperiment, StripePolicy};
use abr_core::{DayMetrics, Experiment, ExperimentConfig};
use abr_disk::models;
use abr_sim::SimDuration;
use abr_workload::WorkloadProfile;

fn tiny_config() -> ExperimentConfig {
    let mut profile = WorkloadProfile::tiny_test();
    profile.day_length = SimDuration::from_mins(20);
    let mut cfg = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    cfg.cache_blocks = 192;
    cfg.seed = 12345;
    cfg
}

#[test]
fn n1_striped_volume_is_wired_like_the_single_disk() {
    let single = Experiment::new(tiny_config()).run_day();
    let array_cfg = ArrayConfig::new(tiny_config(), 1, StripePolicy::Striped { chunk_blocks: 8 });
    let array = ArrayExperiment::new(array_cfg).run_day();
    assert_eq!(
        single.to_json().to_string(),
        array.volume.to_json().to_string(),
        "the first measured day (after setup and warm-up) diverged"
    );
}

#[test]
fn n1_volume_per_disk_view_matches_its_own_rollup() {
    let array_cfg = ArrayConfig::new(tiny_config(), 1, StripePolicy::Concat);
    let days = ArrayExperiment::new(array_cfg).run_on_off(1, 40);
    for m in &days {
        assert_eq!(m.per_disk.len(), 1);
        assert_eq!(
            m.volume.to_json().to_string(),
            m.per_disk[0].to_json().to_string(),
            "one-disk roll-up must equal the member's own metrics"
        );
    }
}

#[test]
fn array_runs_are_deterministic() {
    let run = || {
        let cfg = ArrayConfig::new(tiny_config(), 2, StripePolicy::Striped { chunk_blocks: 8 });
        let days = ArrayExperiment::new(cfg).run_on_off(1, 40);
        let json = |m: &DayMetrics| m.to_json().to_string();
        days.iter()
            .map(|m| {
                (
                    json(&m.volume),
                    m.per_disk.iter().map(json).collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn multi_disk_rearrangement_places_per_spindle() {
    let cfg = ArrayConfig::new(tiny_config(), 2, StripePolicy::Striped { chunk_blocks: 8 });
    let mut e = ArrayExperiment::new(cfg);
    e.run_day();
    e.rearrange_for_next_day(40);
    let per_disk: Vec<u32> = (0..2)
        .map(|i| e.volume().disk(i).block_table().len() as u32)
        .collect();
    assert!(
        per_disk.iter().all(|&n| n > 0),
        "every member should place hot blocks, got {per_disk:?}"
    );
    assert_eq!(e.placed(), per_disk.iter().sum::<u32>());
    let on = e.run_day();
    assert!(on.volume.rearranged);
    assert!(on.per_disk.iter().all(|d| d.rearranged));
}
