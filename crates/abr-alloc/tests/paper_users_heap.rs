//! Heap gate on `paper_users` with one-hour days (Fujitsu, users profile):
//! set-up and one off/on day pair may not allocate more, or hold more
//! live at once, than the committed numbers. The only test in its
//! binary, because live bytes are process-wide. `-- --show-output`
//! prints the numbers; the harness's output capture is part of them
//! (two allocations when a thread is spawned), so read them with it on.

use abr_alloc::{Counting, Phase};
use abr_core::{Experiment, ExperimentConfig};
use abr_disk::models;
use abr_sim::SimDuration;
use abr_workload::WorkloadProfile;

#[global_allocator]
static ALLOC: Counting = Counting;

/// (calling thread's allocations, live-heap peak in bytes) per phase.
const SETUP: (u64, usize) = (9_943, 8_328_143);
const DAYS: (u64, usize) = (1_446, 8_266_047);

fn check(phase: &str, got: (u64, usize), limit: (u64, usize)) {
    eprintln!("{phase}: {} allocations, peak {} B", got.0, got.1);
    assert!(
        got.0 <= limit.0,
        "{phase}: {} allocations, {} committed",
        got.0,
        limit.0
    );
    assert!(
        got.1 <= limit.1 + limit.1 / 100,
        "{phase}: live-heap peak {} B, {} B committed (+1 %)",
        got.1,
        limit.1
    );
}

#[test]
fn paper_users_allocations_and_peak_stay_at_their_committed_numbers() {
    let mut profile = WorkloadProfile::users_fs();
    profile.day_length = SimDuration::from_hours(1);
    let config = ExperimentConfig::new(models::fujitsu_m2266(), profile);

    let phase = Phase::start();
    let mut e = Experiment::new(config);
    check("set-up", (phase.allocs(), phase.peak_bytes()), SETUP);

    let phase = Phase::start();
    let days = e.run_on_off(1, 3500);
    check("days", (phase.allocs(), phase.peak_bytes()), DAYS);
    assert_eq!(days.len(), 2);
}
