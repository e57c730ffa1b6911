//! Deep-queue regression: `driver.queueing_us` and
//! `driver.starved_total` must behave sanely when a burst far deeper
//! than anything the paper's traces produce (qdepth ≥ 64) lands on one
//! spindle at a single instant.
//!
//! The contract under test:
//! * every dispatch contributes exactly one `driver.queueing_us`
//!   observation — none double-counted, none dropped;
//! * the reported quantiles are monotone and bounded by the histogram
//!   max;
//! * the `driver.queue_age_max_us` gauge equals the histogram's max —
//!   both describe the same longest wait;
//! * `driver.starved_total` is consistent with the configured
//!   threshold: zero when the threshold is beyond any possible wait,
//!   positive (and bounded by the dispatch count) when the burst's
//!   tail must exceed it;
//! * a burst of 100k drains dry under every policy at a per-dispatch
//!   cost within 4x of a burst of 1k (ROADMAP item 2).

use abr_disk::{models, Disk, DiskLabel};
use abr_driver::{AdaptiveDriver, DriverConfig, IoRequest, Ioctl, SchedulerKind};
use abr_sim::{SimDuration, SimTime};
use std::time::Instant;

const QDEPTH: u64 = 128;

/// Depth of the cost-bound burst. Optimized builds run ROADMAP item 2's
/// 100k; an unoptimized build (tier-1's `cargo test`) runs a depth that
/// keeps it to a second or two. CI runs the test in release mode.
const DEEP: u64 = if cfg!(debug_assertions) {
    16_384
} else {
    100_000
};
const SHALLOW: u64 = 1_000;

fn driver(config: DriverConfig) -> AdaptiveDriver {
    let model = models::toshiba_mk156f();
    let label = DiskLabel::whole_disk(model.geometry);
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &config);
    let mut d = AdaptiveDriver::attach(disk, config).expect("fresh format attaches");
    d.set_deliver_read_data(false);
    d
}

/// Slam `depth` scattered one-block reads into `d` at `t0`, then drain
/// the queue dry. Returns the drain-end clock.
fn burst(d: &mut AdaptiveDriver, depth: u64, t0: SimTime) -> SimTime {
    for i in 0..depth {
        // Stride the targets across the disk so SCAN actually reorders
        // and the queueing times spread out.
        let sector = (i * 977 % 17_000) * 16;
        d.submit(IoRequest::read(0, sector, 16), t0)
            .expect("submit within the partition");
    }
    assert!(d.queue_len() as u64 >= depth - 1, "burst did not queue");
    let mut t = t0;
    while let Some(at) = d.next_completion() {
        t = at;
        d.complete_next(at);
    }
    assert!(d.is_idle(), "queue must drain dry");
    t
}

/// A fresh driver put through one `QDEPTH` burst at t = 0.
fn run_burst(config: DriverConfig) -> (AdaptiveDriver, SimTime) {
    let mut d = driver(config);
    let t = burst(&mut d, QDEPTH, SimTime::ZERO);
    (d, t)
}

/// Flush the driver's buffered observations and snapshot the registry.
fn flushed_snapshot(d: &mut AdaptiveDriver, now: SimTime) -> abr_sim::JsonValue {
    d.ioctl(Ioctl::ReadStats, now).expect("stats read");
    abr_obs::registry_snapshot()
}

#[test]
fn deep_queue_histogram_is_exact_and_monotone() {
    abr_obs::registry_clear();
    let (mut d, t_end) = run_burst(DriverConfig::default());
    let snap = flushed_snapshot(&mut d, t_end);
    let hist = &snap["hires"]["driver.queueing_us"];
    assert_eq!(
        hist["count"].as_u64(),
        Some(QDEPTH),
        "one queueing observation per dispatch"
    );
    let q = |p: &str| hist["quantiles"][p].as_u64().expect("quantile present");
    let (p50, p99, p999) = (q("p50"), q("p99"), q("p999"));
    let max = hist["max"].as_u64().expect("histogram max");
    assert!(
        p50 <= p99 && p99 <= p999 && p999 <= max,
        "quantiles must be monotone: p50 {p50} p99 {p99} p999 {p999} max {max}"
    );
    // 128 one-block reads on a ~30 IOPS spindle: the tail of the burst
    // provably waited seconds, not microseconds.
    assert!(max > 1_000_000, "deepest wait implausibly short: {max}us");
    // The run-wide gauge and the histogram describe the same wait.
    assert_eq!(
        snap["gauges"]["driver.queue_age_max_us"].as_u64(),
        Some(max),
        "queue_age_max_us gauge must equal the queueing histogram max"
    );
}

#[test]
fn starvation_counter_matches_its_threshold() {
    // Threshold beyond any possible wait: nothing may count as starved.
    abr_obs::registry_clear();
    let config = DriverConfig {
        starvation_age: SimDuration::from_hours(24),
        ..DriverConfig::default()
    };
    let (mut d, t_end) = run_burst(config);
    let snap = flushed_snapshot(&mut d, t_end);
    assert_eq!(
        snap["counters"]["driver.starved_total"]
            .as_u64()
            .unwrap_or(0),
        0,
        "no dispatch can starve against a 24h threshold"
    );

    // Default 2s threshold: the burst's tail must exceed it, but a
    // dispatch can be starved at most once.
    abr_obs::registry_clear();
    let (mut d, t_end) = run_burst(DriverConfig::default());
    let snap = flushed_snapshot(&mut d, t_end);
    let starved = snap["counters"]["driver.starved_total"]
        .as_u64()
        .expect("starved counter present");
    assert!(starved > 0, "deep-queue tail must starve at the default 2s");
    assert!(
        starved <= QDEPTH,
        "starved count {starved} exceeds the dispatch count {QDEPTH}"
    );
    // Consistency with the histogram: if anything starved, the longest
    // wait must itself be at or beyond the threshold.
    let max = snap["hires"]["driver.queueing_us"]["max"]
        .as_u64()
        .expect("histogram max");
    assert!(
        max >= 2_000_000,
        "starved dispatches but max wait {max}us < 2s"
    );
}

/// Per-dispatch wall time of one `DEEP` burst over that of as many
/// requests sent through `SHALLOW` bursts, on one driver of `kind`.
#[allow(
    clippy::disallowed_methods,
    reason = "wall time is the quantity under test"
)]
fn deep_over_shallow_cost(kind: SchedulerKind) -> f64 {
    abr_obs::registry_clear();
    let mut d = driver(DriverConfig {
        scheduler: kind,
        ..DriverConfig::default()
    });
    let shallow_bursts = DEEP / SHALLOW;
    let mut t = SimTime::ZERO;
    let start = Instant::now();
    for _ in 0..shallow_bursts {
        t = burst(&mut d, SHALLOW, t);
    }
    let shallow = start.elapsed().as_secs_f64() / (shallow_bursts * SHALLOW) as f64;
    let start = Instant::now();
    t = burst(&mut d, DEEP, t);
    let deep = start.elapsed().as_secs_f64() / DEEP as f64;

    let snap = flushed_snapshot(&mut d, t);
    assert_eq!(
        snap["hires"]["driver.queueing_us"]["count"].as_u64(),
        Some(shallow_bursts * SHALLOW + DEEP),
        "{kind:?}: one queueing observation per dispatch"
    );
    deep / shallow
}

/// ROADMAP item 2's "done" condition for the driver: a single-instant
/// burst of `DEEP` requests drains dry under every policy, observed once
/// per dispatch, at a per-dispatch cost that does not grow with the
/// depth. The bound is a ratio of two timings taken in this process, so
/// it does not depend on the machine: a flat queue costs about 100x more
/// per dispatch at 100k than at 1k, the cylinder index 1.2x to 1.7x (the
/// same two bit scans, more cache misses; the tree it replaced read 1.2x
/// to 2.4x). A busy host can stretch either timing, so a policy gets
/// three attempts.
#[test]
fn deep_burst_drains_at_a_cost_independent_of_depth() {
    for kind in [
        SchedulerKind::Fcfs,
        SchedulerKind::Scan,
        SchedulerKind::CScan,
        SchedulerKind::Sstf,
    ] {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            if best > 4.0 {
                best = best.min(deep_over_shallow_cost(kind));
            }
        }
        assert!(
            best <= 4.0,
            "{kind:?}: a dispatch at depth {DEEP} costs {best:.2}x one at depth {SHALLOW} at best"
        );
    }
}
