//! Goldens for the serving harness: three small configurations, run
//! epoch by epoch with the nights between them, pinned to what they
//! served — every epoch's counters, the summary's end state, a hash of
//! the per-client completions, and the shape of the two `serve.*`
//! latency histograms. Each also checks that the registry's admission
//! counters tell the summary's story.
//!
//! * **adaptive**: bursty clients over two adaptive members; every
//!   night re-primes the clients' arrival processes at the new clock.
//! * **poisson**: Poisson clients on one plain disk, no nights; each
//!   client's pending arrival carries over into the next epoch.
//! * **overload**: far more offered than one small disk serves, with
//!   buckets that throttle and an accept queue that sheds.

use abr_disk::models;
use abr_obs::{registry_clear, with_registry, LogHistogram};
use abr_serve::{ArrivalKind, EpochStats, ServeConfig, ServeExperiment};
use abr_sim::SimDuration;

fn adaptive() -> ServeConfig {
    let mut c = ServeConfig::new(models::toshiba_mk156f());
    c.n_disks = 2;
    c.reserved_cylinders = 48;
    c.place_blocks = 256;
    c.monitor_period = SimDuration::from_secs(30);
    c.n_clients = 32;
    c.aggregate_rate_per_sec = 40.0;
    c.arrivals = ArrivalKind::Bursty {
        burst: 4.0,
        mean_on: SimDuration::from_secs(2),
    };
    c.epoch = SimDuration::from_mins(2);
    c.epochs = 3;
    c
}

fn poisson() -> ServeConfig {
    let mut c = ServeConfig::new(models::toshiba_mk156f());
    c.n_clients = 16;
    c.aggregate_rate_per_sec = 20.0;
    c.max_inflight = 2;
    c.epoch = SimDuration::from_mins(1);
    c.epochs = 3;
    c.seed = 7;
    c
}

fn overload() -> ServeConfig {
    let mut c = ServeConfig::new(models::tiny_test_disk());
    c.n_clients = 8;
    c.aggregate_rate_per_sec = 1000.0;
    c.bucket_rate_per_sec = 60.0;
    c.bucket_burst = 8;
    c.working_set_blocks = 64;
    c.accept_queue_cap = 24;
    c.max_inflight = 4;
    c.epoch = SimDuration::from_secs(20);
    c.epochs = 2;
    c
}

/// What a run served, as pinned.
#[derive(Debug, PartialEq, Eq)]
struct Served {
    epochs: Vec<EpochStats>,
    stranded: u64,
    queue_depth_max: u64,
    placed: u32,
    /// FNV-1a over the per-client completion counts.
    completions_fnv: u64,
    /// `(count, sum, max)` of `serve.request_us` and `serve.queue_us`.
    request_us: (u64, u64, u64),
    queue_us: (u64, u64, u64),
}

fn fnv1a(values: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn counter(name: &str) -> u64 {
    with_registry(|r| {
        let id = r.counter(name);
        r.counter_value(id)
    })
}

fn hires(name: &str) -> (u64, u64, u64) {
    let h: LogHistogram = with_registry(|r| {
        let id = r.hires(name);
        r.hires_value(id).clone()
    });
    (h.count(), h.sum(), h.max())
}

/// Serve every epoch with a night between each two, as
/// [`ServeExperiment::run`] does, keeping each epoch's counters.
fn serve(config: ServeConfig) -> Served {
    registry_clear();
    abr_obs::day_series_reset();
    let mut e = ServeExperiment::new(config);
    let n = e.config().epochs;
    let mut epochs = Vec::with_capacity(n);
    for i in 0..n {
        epochs.push(e.run_epoch());
        if i + 1 < n {
            e.rearrange();
        }
    }
    let s = e.summary();
    // The registry tells the summary's story: a counter bumped anywhere
    // but on the thread that runs the server would be lost here.
    assert_eq!(counter("serve.arrivals"), s.arrivals, "serve.arrivals");
    assert_eq!(counter("serve.accepted"), s.accepted, "serve.accepted");
    assert_eq!(
        counter("serve.throttled_total"),
        s.throttled,
        "serve.throttled_total"
    );
    assert_eq!(counter("serve.shed_total"), s.shed, "serve.shed_total");
    let sum = |f: fn(&EpochStats) -> u64| epochs.iter().map(f).sum::<u64>();
    assert_eq!(s.arrivals, sum(|e| e.arrivals));
    assert_eq!(s.arrivals, s.accepted + s.shed + s.throttled);
    Served {
        stranded: s.stranded,
        queue_depth_max: s.queue_depth_max,
        placed: s.placed,
        completions_fnv: fnv1a(&s.per_client_completions),
        request_us: hires("serve.request_us"),
        queue_us: hires("serve.queue_us"),
        epochs,
    }
}

fn stats(arrivals: u64, accepted: u64, shed: u64, throttled: u64, completed: u64) -> EpochStats {
    EpochStats {
        arrivals,
        accepted,
        shed,
        throttled,
        completed,
        errors: 0,
    }
}

#[test]
fn adaptive_bursty_clients_reprime_after_every_night() {
    let expected = Served {
        epochs: vec![
            stats(5002, 4971, 0, 31, 4971),
            stats(4401, 4370, 0, 31, 4370),
            stats(4988, 4945, 0, 43, 4945),
        ],
        stranded: 0,
        queue_depth_max: 86,
        placed: 512,
        completions_fnv: 10655375657553516614,
        request_us: (14286, 1695037848, 2276348),
        queue_us: (14286, 436801355, 2013264),
    };
    assert_eq!(serve(adaptive()), expected);
}

#[test]
fn poisson_clients_carry_their_arrivals_across_epochs() {
    let expected = Served {
        epochs: vec![
            stats(1137, 1137, 0, 0, 1137),
            stats(1227, 1227, 0, 0, 1227),
            stats(1241, 1241, 0, 0, 1241),
        ],
        stranded: 0,
        queue_depth_max: 18,
        placed: 0,
        completions_fnv: 8106984665434628830,
        request_us: (3605, 661650599, 1147841),
        queue_us: (3605, 376440095, 1067241),
    };
    assert_eq!(serve(poisson()), expected);
}

#[test]
fn overload_throttles_and_sheds() {
    let expected = Served {
        epochs: vec![
            stats(20131, 628, 9024, 10479, 628),
            stats(20937, 656, 9391, 10890, 656),
        ],
        stranded: 0,
        queue_depth_max: 24,
        placed: 0,
        completions_fnv: 6931683304201891120,
        request_us: (1284, 1169250644, 3165560),
        queue_us: (1284, 998490392, 3065564),
    };
    assert_eq!(serve(overload()), expected);
}
