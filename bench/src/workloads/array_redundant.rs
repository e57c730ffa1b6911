//! `array_redundant`: a 4-disk rotating-parity array that loses a disk.
//!
//! The only workload where `abr-array` carries the cost — fan-out,
//! parity read-modify-write, degraded reads, budgeted rebuild — and the
//! only one where set-up time and memory are large. A paper profile is
//! used on purpose: `tiny_test` hides the set-up cost (0.6 s against
//! 4–8 s). An unvalidated model: the paper measured one spindle, so no
//! error figure is given.

use super::paper::on_off_stats;
use super::{registry_counter, registry_hires, DeviceMark, Sample, Size};
use crate::fingerprint::Fingerprint;
use crate::span::{timed, SpanDef, Tracer};
use abr_array::{ArrayConfig, ArrayExperiment, Redundancy, StripePolicy};
use abr_core::ExperimentConfig;
use abr_disk::fault::FaultPlan;
use abr_disk::models;
use abr_sim::SimDuration;
use abr_workload::WorkloadProfile;
use std::time::Instant;

pub const SETUP: usize = 0;
pub const RUN_DAY: usize = 1;
pub const REARRANGE: usize = 2;

/// The harness is traced coarsely, around its three public entry points.
pub const SPANS: [SpanDef; 3] = [
    SpanDef {
        name: "abr-array.setup",
        parent: None,
    },
    SpanDef {
        name: "abr-array.run_day",
        parent: None,
    },
    SpanDef {
        name: "abr-array.rearrange",
        parent: None,
    },
];

/// Member disks.
pub const N_DISKS: usize = 4;
/// Blocks each member places for an on-day.
pub const BLOCKS_PER_DISK: usize = 256;
/// The member that dies.
const VICTIM: usize = 1;

/// Seed of the member configuration (see `workloads::honours_seed`).
const SEED: u64 = 0xA77A_5AFE;

pub fn config(size: Size) -> ArrayConfig {
    let mut profile = match size {
        Size::Full => WorkloadProfile::users_fs(),
        Size::Quick => WorkloadProfile::tiny_test(),
    };
    profile.day_length = match size {
        Size::Full => SimDuration::from_hours(4),
        Size::Quick => SimDuration::from_hours(1),
    };
    let mut base = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    base.seed = SEED;
    ArrayConfig::redundant(
        base,
        N_DISKS,
        StripePolicy::Striped { chunk_blocks: 8 },
        Redundancy::RotParity,
    )
}

pub fn pairs(size: Size) -> usize {
    match size {
        Size::Full => 3,
        Size::Quick => 1,
    }
}

/// Build the array and schedule the failure: the victim dies 30 minutes
/// into the first measured day, its hot spare arrives 10 minutes later.
pub fn build(size: Size) -> ArrayExperiment {
    let mut e = ArrayExperiment::new(config(size));
    let death = e.clock() + SimDuration::from_mins(30);
    e.install_fault_plan(
        VICTIM,
        FaultPlan::disk_death(death, SimDuration::from_mins(10)),
    );
    e
}

/// One sample; with a tracer, spans go around every harness call (the
/// tracer's scope is the caller's: sample number, day 0).
pub fn sample(size: Size, mut tracer: Option<&mut Tracer>) -> Sample {
    let t0 = Instant::now();
    let mut e = timed(&mut tracer, SETUP, || build(size));
    let setup_s = t0.elapsed().as_secs_f64();

    let mark = DeviceMark::take();
    let requests_before = registry_counter("array.requests");
    let latency_before = registry_hires("array.request_us");
    let (ok_before, failed_before) = e.volume().request_outcomes();
    let t1 = Instant::now();
    // `ArrayExperiment::run_on_off(pairs, BLOCKS_PER_DISK)`, spelled out
    // so that each call can carry a span.
    let mut days = Vec::new();
    for _ in 0..pairs(size) {
        for n_blocks in [BLOCKS_PER_DISK, 0] {
            days.push(timed(&mut tracer, RUN_DAY, || e.run_day()));
            timed(&mut tracer, REARRANGE, || {
                e.rearrange_for_next_day(n_blocks)
            });
        }
    }
    let wall_s = t1.elapsed().as_secs_f64();

    let mut s = Sample {
        setup_s,
        wall_s,
        ..Sample::default()
    };
    mark.since().apply(&mut s);
    let (ok, failed) = e.volume().request_outcomes();
    let (ok, failed) = (ok - ok_before, failed - failed_before);
    let health = e.health();
    let attempted = registry_counter("array.requests") - requests_before;
    s.attempted = attempted;
    s.failed = failed + health.total_lost();
    s.check(attempted == ok + failed, || {
        format!("array.requests {attempted} != served {ok} + failed {failed}")
    });
    s.check(failed == 0, || format!("{failed} volume requests failed"));
    s.check(health.total_lost() == 0, || {
        format!("{} blocks lost", health.total_lost())
    });
    s.check(health.n_dead() == 0 && health.n_failed() == 0, || {
        "the hot spare was never installed".to_string()
    });
    s.check(registry_counter("array.rebuild.blocks") > 0, || {
        "no block was rebuilt onto the spare".to_string()
    });
    let degraded = registry_counter("array.reads.degraded");
    s.check(degraded > 0, || {
        "no read was served degraded: the disk death did not bite".to_string()
    });
    let subrequests = registry_counter("array.subrequests");
    s.layer.push((
        "abr-array.subrequests_per_request",
        subrequests as f64 / attempted as f64,
    ));
    s.layer.push((
        "abr-array.degraded_read_share",
        degraded as f64 / attempted as f64,
    ));
    s.layer.push((
        "abr-array.rebuild_blocks",
        registry_counter("array.rebuild.blocks") as f64,
    ));
    s.check(e.rearrange_failures() == 0, || {
        format!("{} overnight passes failed", e.rearrange_failures())
    });

    let latency = registry_hires("array.request_us").diff(&latency_before);
    s.sim.push(("sim_latency_ms", super::mean_ms(&latency)));
    s.sim
        .push(("sim_p50_latency_ms", super::quantile_ms(&latency, 0.50)));
    s.sim
        .push(("sim_p99_latency_ms", super::quantile_ms(&latency, 0.99)));
    on_off_stats(&days, |d| &d.volume, &mut s);
    let mut fp = Fingerprint::new();
    for d in &days {
        fp.array_day(d);
    }
    s.fingerprint = fp.finish();
    s
}
