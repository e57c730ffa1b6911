//! `serve_open`: 1,024 bursty clients served open loop by `abr-serve`.
//!
//! The only workload through the serving front end (client population,
//! token buckets, accept queue, deficit round robin) and the only one
//! without `abr-fs` or `abr-workload`: a gain there predicts *no
//! change* here. The loop is **open**: clients send on their own
//! schedule at a fixed aggregate rate whatever the server does, and
//! latency is simulated time from the scheduled arrival to completion.
//! An unvalidated model: the paper replayed one server's traffic.

use super::{mean_ms, quantile_ms, registry_hires, DeviceMark, Sample, Size};
use crate::fingerprint::Fingerprint;
use crate::span::{timed, SpanDef, Tracer};
use abr_array::StripePolicy;
use abr_disk::models;
use abr_serve::{ArrivalKind, EpochStats, ServeConfig, ServeExperiment};
use abr_sim::SimDuration;
use std::time::Instant;

pub const SETUP: usize = 0;
pub const RUN_EPOCH: usize = 1;
pub const REARRANGE: usize = 2;

/// The server is traced coarsely, around its three public entry points.
pub const SPANS: [SpanDef; 3] = [
    SpanDef {
        name: "abr-serve.setup",
        parent: None,
    },
    SpanDef {
        name: "abr-serve.run_epoch",
        parent: None,
    },
    SpanDef {
        name: "abr-serve.rearrange",
        parent: None,
    },
];

/// Offered load, requests per simulated second over all clients. Fixed:
/// about 60 % of what the four spindles serve, so queues form in bursts
/// but nothing is shed at the default seed.
pub const RATE_PER_SEC: f64 = 60.0;

pub fn config(seed: u64, size: Size) -> ServeConfig {
    let mut c = ServeConfig::new(models::toshiba_mk156f());
    c.n_disks = 4;
    c.stripe = StripePolicy::Striped { chunk_blocks: 8 };
    c.reserved_cylinders = 48;
    c.place_blocks = 512;
    c.n_clients = 1024;
    c.aggregate_rate_per_sec = RATE_PER_SEC;
    c.arrivals = ArrivalKind::Bursty {
        burst: 4.0,
        mean_on: SimDuration::from_secs(2),
    };
    c.read_fraction = 0.7;
    c.epoch = SimDuration::from_mins(10);
    c.epochs = match size {
        Size::Full => 6,
        Size::Quick => 2,
    };
    c.seed = seed;
    c
}

/// One sample; with a tracer, spans go around every server call.
pub fn sample(seed: u64, size: Size, mut tracer: Option<&mut Tracer>) -> Sample {
    let t0 = Instant::now();
    let mut e = timed(&mut tracer, SETUP, || {
        ServeExperiment::new(config(seed, size))
    });
    let setup_s = t0.elapsed().as_secs_f64();

    let mark = DeviceMark::take();
    let t1 = Instant::now();
    // The protocol (`ServeExperiment::run`, spelled out): every epoch
    // served, members rearranged between epochs.
    let n = e.config().epochs;
    let mut epochs = Vec::with_capacity(n);
    for i in 0..n {
        epochs.push(timed(&mut tracer, RUN_EPOCH, || e.run_epoch()));
        if i + 1 < n {
            timed(&mut tracer, REARRANGE, || e.rearrange());
        }
    }
    let wall_s = t1.elapsed().as_secs_f64();

    let mut s = Sample {
        setup_s,
        wall_s,
        ..Sample::default()
    };
    mark.since().apply(&mut s);
    finish(&mut e, &epochs, &mut s);
    s
}

/// Accounting identities, client latency and the fingerprint.
fn finish(e: &mut ServeExperiment, epochs: &[EpochStats], s: &mut Sample) {
    let t = e.summary();
    s.attempted = t.arrivals;
    s.failed = t.shed + t.throttled + t.errors + t.stranded;
    s.check(t.arrivals == t.accepted + t.shed + t.throttled, || {
        format!(
            "arrivals {} != accepted {} + shed {} + throttled {}",
            t.arrivals, t.accepted, t.shed, t.throttled
        )
    });
    s.check(t.accepted == t.completed + t.errors + t.stranded, || {
        format!(
            "accepted {} != completed {} + errors {} + stranded {}",
            t.accepted, t.completed, t.errors, t.stranded
        )
    });
    let lost = e.health().total_lost();
    s.check(lost == 0, || format!("{lost} blocks lost"));
    s.check(e.rearrange_failures() == 0, || {
        format!("{} rearrangement passes failed", e.rearrange_failures())
    });

    // Nothing is served during set-up, so the whole histogram is the
    // measured section's.
    let latency = registry_hires("serve.request_us");
    s.check(latency.count() == t.completed + t.errors, || {
        format!(
            "serve.request_us has {} observations for {} finished requests",
            latency.count(),
            t.completed + t.errors
        )
    });
    s.sim.push(("sim_latency_ms", mean_ms(&latency)));
    s.layer
        .push(("abr-serve.client_p50_ms", quantile_ms(&latency, 0.50)));
    s.layer
        .push(("abr-serve.client_p99_ms", quantile_ms(&latency, 0.99)));
    s.layer
        .push(("abr-serve.shed_share", t.shed as f64 / t.arrivals as f64));
    s.layer.push((
        "abr-serve.throttled_share",
        t.throttled as f64 / t.arrivals as f64,
    ));
    s.layer
        .push(("abr-serve.queue_depth_max", t.queue_depth_max as f64));

    let mut fp = Fingerprint::new();
    for ep in epochs {
        for x in [
            ep.arrivals,
            ep.accepted,
            ep.shed,
            ep.throttled,
            ep.completed,
            ep.errors,
        ] {
            fp.u64(x);
        }
    }
    fp.u64(t.stranded);
    fp.u64(t.queue_depth_max);
    fp.u64(u64::from(t.placed));
    for &c in &t.per_client_completions {
        fp.u64(c);
    }
    for h in [
        &latency,
        &registry_hires("serve.queue_us"),
        &registry_hires("driver.service_us"),
        &registry_hires("driver.queueing_us"),
    ] {
        fp.u64(h.count());
        fp.u64(h.sum());
        fp.u64(h.max());
        for q in [0.5, 0.9, 0.99, 0.999] {
            fp.u64(h.quantile(q));
        }
    }
    s.fingerprint = fp.finish();
}
