//! `deep_queue`: bursts of 4,096 requests into a bare driver.
//!
//! Sixteen bursts of uniformly random one-block requests (every fourth
//! a write) are submitted at one simulated instant each and drained
//! dry. The driver's queue and scheduler do nearly all the work, at a
//! depth no paper-shaped day reaches: an ordered queue shows here and
//! must show nothing on `paper_system`. An unvalidated model.

use super::{DeviceMark, Sample, Size};
use crate::fingerprint::Fingerprint;
use crate::span::{timed, SpanDef, Tracer};
use abr_core::DirMetrics;
use abr_disk::{models, Disk, DiskLabel};
use abr_driver::{AdaptiveDriver, DriverConfig, IoRequest, Ioctl, IoctlReply, SchedulerKind};
use abr_obs::LogHistogram;
use abr_sim::{SimDuration, SimRng, SimTime};
use std::time::Instant;

pub const BURST: usize = 0;
pub const SUBMIT: usize = 1;
pub const COMPLETE: usize = 2;
pub const POLL: usize = 3;

pub const SPANS: [SpanDef; 4] = [
    SpanDef {
        name: "deep_queue.burst",
        parent: None,
    },
    SpanDef {
        name: "abr-driver.submit",
        parent: Some(BURST),
    },
    SpanDef {
        name: "abr-driver.complete_next",
        parent: Some(BURST),
    },
    SpanDef {
        name: "abr-driver.next_completion",
        parent: Some(BURST),
    },
];

/// Sectors per 8 KB block.
const SPB: u32 = 16;

pub fn shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (16, 4096),
        Size::Quick => (2, 512),
    }
}

/// A freshly formatted Toshiba with a whole-disk label behind a SCAN
/// driver that times completions only (read data off).
pub fn driver() -> AdaptiveDriver {
    let model = models::toshiba_mk156f();
    let label = DiskLabel::whole_disk(model.geometry);
    let cfg = DriverConfig {
        block_size: 8192,
        scheduler: SchedulerKind::Scan,
        monitor_capacity: 1 << 20,
        ..DriverConfig::default()
    };
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &cfg);
    let mut d = AdaptiveDriver::attach(disk, cfg).expect("fresh format attaches");
    d.set_deliver_read_data(false);
    d
}

/// The generated input: `bursts × depth` one-block requests over the
/// whole partition (block 0 holds the label and is left alone).
pub fn requests(d: &AdaptiveDriver, seed: u64, size: Size) -> Vec<Vec<IoRequest>> {
    let (bursts, depth) = shape(size);
    let n_blocks = d.label().partitions[0].n_sectors / u64::from(SPB);
    let mut rng = SimRng::new(seed);
    (0..bursts)
        .map(|_| {
            (0..depth)
                .map(|i| {
                    let sector = (1 + rng.below(n_blocks - 1)) * u64::from(SPB);
                    if i % 4 == 3 {
                        IoRequest::write_seeded(0, sector, SPB, rng.below(u64::MAX))
                    } else {
                        IoRequest::read(0, sector, SPB)
                    }
                })
                .collect()
        })
        .collect()
}

/// One sample; with a tracer, a span goes around every driver call.
pub fn sample(seed: u64, size: Size, mut tracer: Option<&mut Tracer>) -> Sample {
    let t0 = Instant::now();
    let mut d = driver();
    let bursts = requests(&d, seed, size);
    let setup_s = t0.elapsed().as_secs_f64();

    let mark = DeviceMark::take();
    let mut latency = LogHistogram::new();
    let mut fp = Fingerprint::new();
    let mut now = SimTime::ZERO;
    let mut dispatched = 0u64;
    let mut errors = 0u64;
    let t1 = Instant::now();
    let mut depth_sum = 0u64;
    let mut depth_max = 0u64;
    for burst in bursts {
        let burst_start = tracer.as_ref().map(|t| t.now());
        for req in burst {
            let depth = d.queue_len() as u64;
            depth_sum += depth;
            depth_max = depth_max.max(depth);
            timed(&mut tracer, SUBMIT, || d.submit(req, now)).expect("generated request is valid");
        }
        while let Some(at) = timed(&mut tracer, POLL, || d.next_completion()) {
            now = at;
            let c = timed(&mut tracer, COMPLETE, || d.complete_next(at));
            dispatched += 1;
            errors += u64::from(!c.is_ok());
            latency.observe(c.response().as_micros());
            fp.u64(c.id.0);
            fp.u64(c.completed.as_micros());
        }
        if let (Some(t), Some(start)) = (&mut tracer, burst_start) {
            t.lap(BURST, start);
        }
        // The next burst arrives after a quiet second.
        now += SimDuration::from_secs(1);
    }
    // Reading the statistics also flushes the driver's batched
    // observations into the registry, as every day of a harness does.
    let stats = match d.ioctl(Ioctl::ReadStats, now) {
        Ok(IoctlReply::Stats(stats)) => stats,
        other => panic!("ReadStats replied {other:?}"),
    };
    let wall_s = t1.elapsed().as_secs_f64();

    let mut s = Sample {
        setup_s,
        wall_s,
        ..Sample::default()
    };
    let device = mark.since();
    device.apply(&mut s);
    s.attempted = device.submitted;
    s.failed = device.failed + device.lost + errors;
    s.check(d.is_idle(), || "driver did not end idle".to_string());
    s.check(device.queueing.count() == dispatched, || {
        format!(
            "{} driver.queueing_us observations for {dispatched} dispatches",
            device.queueing.count()
        )
    });
    s.check(dispatched == device.submitted, || {
        format!(
            "{dispatched} completions for {} submissions",
            device.submitted
        )
    });
    s.layer.push((
        "abr-driver.queue_depth_mean",
        depth_sum as f64 / device.submitted.max(1) as f64,
    ));
    s.layer
        .push(("abr-driver.queue_depth_max", depth_max as f64));
    let all = DirMetrics::from_stats(&stats.all(), &d.disk().model().seek);
    s.sim.push(("sim_seek_ms", all.seek_ms));
    s.sim.push(("sim_latency_ms", super::mean_ms(&latency)));
    s.sim
        .push(("sim_p50_latency_ms", super::quantile_ms(&latency, 0.50)));
    s.sim
        .push(("sim_p99_latency_ms", super::quantile_ms(&latency, 0.99)));
    fp.u64(now.as_micros());
    s.fingerprint = fp.finish();
    s
}
