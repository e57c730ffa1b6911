//! Goldens for the runs that share one workload stream: the placement
//! policy runs of Tables 7–10 and trace-driven `replay()`. Each pins the
//! `(len, fletcher64)` of every day's `DayMetrics::to_json` text, so a
//! change to how the stream reaches a device (produced live, or recorded
//! once and replayed) must leave every metric bit where it was.

use abr::core::placement::PolicyKind;
use abr::core::replay::{replay, ReplayConfig};
use abr::core::{DayMetrics, Experiment, ExperimentConfig};
use abr::disk::image::fletcher64;
use abr::disk::models;
use abr::driver::SchedulerKind;
use abr::sim::SimDuration;
use abr::workload::WorkloadProfile;

/// Length and Fletcher-64 of the days' JSON, one line per day.
fn pin(days: &[DayMetrics]) -> (usize, u64) {
    let text: String = days.iter().map(|d| format!("{}\n", d.to_json())).collect();
    (text.len(), fletcher64(text.as_bytes()))
}

/// A short `system_fs` day on the Toshiba under `policy`, seeded the way
/// the Table 7 runs seed theirs.
fn short_policy_config(policy: PolicyKind) -> ExperimentConfig {
    let mut profile = WorkloadProfile::system_fs();
    profile.day_length = SimDuration::from_mins(40);
    let mut cfg = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    cfg.policy = policy;
    cfg.seed = 0xBEEF;
    cfg
}

#[test]
fn policy_runs_are_pinned() {
    // Two off/on pairs with the paper's Toshiba block count, as
    // `Campaign::policy_onoff` runs them.
    let got: Vec<(usize, u64)> = PolicyKind::all()
        .into_iter()
        .map(|policy| pin(&Experiment::new(short_policy_config(policy)).run_on_off(2, 1018)))
        .collect();
    assert_eq!(
        got,
        [
            (12_239, 360_598_700_042_462_499),
            (12_237, 381_364_610_881_095_149),
            (12_415, 11_228_946_907_218_548_067),
        ]
    );
}

#[test]
fn replay_output_is_pinned() {
    let mut profile = WorkloadProfile::tiny_test();
    profile.day_length = SimDuration::from_mins(20);
    let mut cfg = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    cfg.seed = 0x77AC3;
    let (_, trace) = Experiment::new(cfg).run_day_traced();

    let mut days = Vec::new();
    for (scheduler, policy, n_blocks) in [
        (SchedulerKind::Scan, PolicyKind::OrganPipe, 0),
        (SchedulerKind::Scan, PolicyKind::OrganPipe, 400),
        (SchedulerKind::Fcfs, PolicyKind::Interleaved, 150),
    ] {
        let mut rc = ReplayConfig::new(models::toshiba_mk156f());
        rc.scheduler = scheduler;
        rc.policy = policy;
        rc.n_blocks = n_blocks;
        days.push(replay(&trace, &rc).expect("the trace was recorded on this disk"));
    }
    assert_eq!(pin(&days), (12_907, 15_557_236_888_449_183_326));
}
