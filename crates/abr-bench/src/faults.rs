//! Fault-injection experiment (extension; `experiments faults`).
//!
//! The paper assumes a perfect disk. Real devices fail — transiently,
//! permanently, and mid-write — so this run sweeps seeded error rates
//! over the standard on/off protocol and reports how the rearrangement
//! system degrades: requests still served, retries absorbed by the
//! driver, hard failures surfaced, overnight passes skipped, and the
//! seek-time win that remains. A final power-cut scenario interrupts the
//! overnight movement itself to exercise the copy-then-commit recovery
//! path.

use crate::report::Report;
use abr_core::{share_stream, DayMetrics, ExperimentConfig};
use abr_disk::fault::FaultPlan;
use abr_disk::models;
use abr_sim::SimDuration;
use abr_sim::{jsn, JsonValue};
use abr_workload::WorkloadProfile;

/// A short, small-disk configuration: the point here is the error path,
/// not the paper's numbers, so a 30-minute day keeps the sweep quick.
fn faulty_config(seed: u64, plan: Option<FaultPlan>) -> ExperimentConfig {
    let mut profile = WorkloadProfile::tiny_test();
    profile.day_length = SimDuration::from_mins(30);
    let mut cfg = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    cfg.seed = seed;
    cfg.fault_plan = plan;
    cfg
}

/// One on/off pair under a scenario's plan: its days and the overnight
/// passes it skipped.
type Outcome = (Vec<DayMetrics>, u64);

/// Summarize the damage of one scenario's on/off pair.
fn scenario(name: &str, (days, skipped): &Outcome, r: &mut Report) -> JsonValue {
    let (off, on) = (&days[0], &days[1]);
    let served: u64 = days.iter().map(|d| d.all.n).sum();
    let retries: u64 = days.iter().map(|d| d.faults.retries).sum();
    let failures: u64 = days
        .iter()
        .map(|d| d.faults.read_failures + d.faults.write_failures)
        .sum();
    let lost: u64 = days.iter().map(|d| d.faults.lost_blocks).sum();
    let seek_cut = (1.0 - on.all.seek_ms / off.all.seek_ms) * 100.0;
    r.line(format!(
        "{name:>14} | served {served:6} | retries {retries:4} | failed {failures:3} | lost {lost:2} \
         | skipped passes {skipped:1} | seek cut {seek_cut:5.1}%",
    ));
    jsn!({
        "scenario": name,
        "served": served,
        "retries": retries,
        "failed_requests": failures,
        "lost_blocks": lost,
        "quarantined": days.iter().map(|d| d.faults.quarantines).sum::<u64>(),
        "skipped_passes": *skipped,
        "off_seek_ms": off.all.seek_ms,
        "on_seek_ms": on.all.seek_ms,
        "seek_cut_pct": seek_cut,
    })
}

/// The `faults` experiment: graceful degradation under seeded faults.
/// The faults are the device's, so every scenario sees one workload
/// stream.
pub(crate) fn sweep(mut r: Report) -> Report {
    let mut scenarios = vec![("no faults".to_string(), None)];
    for rate in [1e-4, 1e-3, 1e-2] {
        let plan = FaultPlan::with_error_rate(rate);
        scenarios.push((format!("rate {rate:.0e}"), Some(plan)));
    }
    // Cut power partway through the simulated day: the device dies
    // mid-traffic (every later request fails), the overnight pass is
    // skipped, and the morning power-cycle recovers a consistent disk.
    let cut = FaultPlan {
        power_cut_after_ops: Some(2_000),
        ..FaultPlan::none()
    };
    scenarios.push(("power cut".to_string(), Some(cut)));

    let configs = scenarios
        .iter()
        .map(|(_, plan)| faulty_config(0xFA17, *plan));
    let outcomes = share_stream(configs, |_, e| {
        (e.run_on_off(1, 400), e.rearrange_failures())
    });
    let rows: Vec<JsonValue> = scenarios
        .iter()
        .zip(&outcomes)
        .map(|((name, _), outcome)| scenario(name, outcome, &mut r))
        .collect();
    r.blank();
    r.line("expected: retries absorb transient faults with no failed requests at low rates;");
    r.line("hard failures stay proportional to the rate while the seek win persists; a power");
    r.line("cut loses the rest of the day's requests but never corrupts the rearrangement");
    r.line("state (skipped passes recover on the next night).");
    r.json = jsn!({ "rows": rows });
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_core::Experiment;

    #[test]
    fn zero_fault_scenario_matches_uninstrumented_run() {
        // The pay-for-what-you-use guarantee, end to end: a `none()` plan
        // must not shift a single completion relative to no injector.
        let run = |plan: Option<FaultPlan>| {
            let mut e = Experiment::new(faulty_config(7, plan));
            let m = e.run_day();
            (m.all.n, m.all.service_ms.to_bits(), m.all.seek_ms.to_bits())
        };
        assert_eq!(run(None), run(Some(FaultPlan::none())));
    }
}
