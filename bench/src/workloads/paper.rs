//! `paper_system` and `paper_users`: the paper's alternating on/off
//! protocol on one disk, through `abr_core::Experiment`.
//!
//! The two share every layer and use it differently. `paper_system` is
//! a read-only mount with extreme skew and short queues: the
//! per-request path (workload → fs cache → driver → disk model →
//! monitor/analyzer) does about three quarters of the work.
//! `paper_users` is a read/write mount — creates, appends and deletes
//! through the allocator, write-through plus 30 s sync bursts, a
//! track-buffer disk — whose 3,500-block nightly movement is most of
//! its wall time, so a read-path gain that costs writes or movement
//! shows there.

use super::{cut_pct, DeviceMark, Sample, Size};
use crate::fingerprint;
use abr_core::{DayMetrics, Experiment, ExperimentConfig};
use abr_disk::{models, DiskModel};
use abr_sim::{JsonValue, SimDuration};
use abr_workload::WorkloadProfile;
use std::time::Instant;

/// One of the two paper-shaped single-disk workloads.
pub struct PaperWorkload {
    pub name: &'static str,
    pub disk: fn() -> DiskModel,
    pub profile: fn() -> WorkloadProfile,
    /// Off/on day pairs measured.
    pub pairs: usize,
    /// Blocks placed for each on-day (the paper's count for the disk).
    pub n_blocks: usize,
}

pub const SYSTEM: PaperWorkload = PaperWorkload {
    name: "paper_system",
    disk: models::toshiba_mk156f,
    profile: WorkloadProfile::system_fs,
    pairs: 5,
    n_blocks: 1018,
};

pub const USERS: PaperWorkload = PaperWorkload {
    name: "paper_users",
    disk: models::fujitsu_m2266,
    profile: WorkloadProfile::users_fs,
    pairs: 5,
    n_blocks: 3500,
};

impl PaperWorkload {
    /// The experiment configuration: paper defaults throughout, the
    /// default seed included (see `workloads::honours_seed`).
    pub fn config(&self, size: Size) -> ExperimentConfig {
        let mut profile = (self.profile)();
        if size == Size::Quick {
            profile.day_length = SimDuration::from_mins(30);
        }
        ExperimentConfig::new((self.disk)(), profile)
    }

    pub fn pairs(&self, size: Size) -> usize {
        match size {
            Size::Full => self.pairs,
            Size::Quick => 1,
        }
    }
}

pub fn sample(w: &PaperWorkload, size: Size) -> Sample {
    let t0 = Instant::now();
    let mut e = Experiment::new(w.config(size));
    let setup_s = t0.elapsed().as_secs_f64();

    let mark = DeviceMark::take();
    let t1 = Instant::now();
    let days = e.run_on_off(w.pairs(size), w.n_blocks);
    let wall_s = t1.elapsed().as_secs_f64();

    let mut s = Sample {
        setup_s,
        wall_s,
        ..Sample::default()
    };
    finish(w.name, &days, &mark, &mut s);
    s.check(e.rearrange_failures() == 0, || {
        format!("{} overnight passes failed", e.rearrange_failures())
    });
    s.check(e.driver().lost_blocks().count() == 0, || {
        "driver reports lost blocks".to_string()
    });
    s
}

/// Turn a run's days into the sample's simulated statistics and checks
/// (shared with the traced replica, which must produce the same).
pub fn finish(name: &str, days: &[DayMetrics], mark: &DeviceMark, s: &mut Sample) {
    let device = mark.since();
    device.apply(s);
    s.attempted = device.submitted;
    s.failed = device.failed + device.lost;
    s.fingerprint = fingerprint::of_days(days);
    let day_requests: u64 = days.iter().map(|d| d.all.n).sum();
    s.check(day_requests == device.completed, || {
        format!(
            "days report {day_requests} requests, the registry {}",
            device.completed
        )
    });
    let latency =
        s.sim_value("sim_service_ms").unwrap_or(0.0) + s.sim_value("sim_wait_ms").unwrap_or(0.0);
    // One driver, so a request's latency is its wait plus its service,
    // and the mean of a sum is the sum of the means.
    s.sim.push(("sim_latency_ms", latency));
    on_off_stats(days, |d| d, s);
    if let Some(err) = paper_err_pct(name, s) {
        s.sim.push(("paper_err_pct", err));
    }
}

/// Means of the daily means over the off-days and over the on-days (the
/// paper's "avg" column), and the reductions between them.
pub fn on_off_stats<D>(days: &[D], view: impl Fn(&D) -> &DayMetrics, s: &mut Sample) {
    let mean = |on: bool, f: fn(&DayMetrics) -> f64| {
        let sel: Vec<&DayMetrics> = days
            .iter()
            .map(&view)
            .filter(|d| d.rearranged == on)
            .collect();
        sel.iter().map(|d| f(d)).sum::<f64>() / sel.len() as f64
    };
    let (off_seek, on_seek) = (
        mean(false, |d| d.all.seek_ms),
        mean(true, |d| d.all.seek_ms),
    );
    let (off_svc, on_svc) = (
        mean(false, |d| d.all.service_ms),
        mean(true, |d| d.all.service_ms),
    );
    s.sim.push(("off_seek_ms", off_seek));
    s.sim.push(("on_seek_ms", on_seek));
    s.sim.push(("off_service_ms", off_svc));
    s.sim.push(("on_service_ms", on_svc));
    s.sim.push(("sim_seek_cut_pct", cut_pct(off_seek, on_seek)));
    s.sim
        .push(("sim_service_cut_pct", cut_pct(off_svc, on_svc)));
    let days_on = days.iter().map(&view).filter(|d| d.rearranged).count();
    s.check(days_on * 2 == days.len(), || {
        format!("{days_on} of {} days ran rearranged", days.len())
    });
}

const REFERENCE: &str = include_str!("../../reference/paper.json");

/// Mean absolute relative error of {off, on} × {seek, service} daily
/// means against the paper's average column, in percent. `None` for a
/// workload without a reference (or a reference file that lost it).
fn paper_err_pct(name: &str, s: &Sample) -> Option<f64> {
    let reference = JsonValue::parse(REFERENCE).ok()?;
    let table = reference.get(name)?;
    let mut total = 0.0;
    for (day, metric, measured) in [
        ("off", "seek_ms", "off_seek_ms"),
        ("off", "service_ms", "off_service_ms"),
        ("on", "seek_ms", "on_seek_ms"),
        ("on", "service_ms", "on_service_ms"),
    ] {
        let paper = table.get(day)?.get(metric)?.as_f64()?;
        total += ((s.sim_value(measured)? - paper) / paper).abs();
    }
    Some(total / 4.0 * 100.0)
}
