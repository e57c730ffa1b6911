//! The layer run (`--trace 1`): traced samples of one workload next to
//! untraced ones, the kernels, and the line counts, turned into the
//! per-layer metrics of `BENCHMARK.json`.
//!
//! Every run emits every per-layer metric. A layer the workload does
//! not go through reads 0 there — no time, no calls — which is what the
//! interaction table predicts ("a gain in `abr-fs` shows nothing on
//! `serve_open`"). Kernel and line-count metrics do not depend on the
//! workload and read the same in all six runs, noise aside.

use crate::fingerprint;
use crate::host::{self, Paths};
use crate::kernels;
use crate::probe::MemProbe;
use crate::replica::{self, DiskOp, Replica};
use crate::run::contract_line;
use crate::span::{Trace, Tracer};
use crate::stats::median;
use crate::workloads::{
    self, array_redundant, deep_queue, paper, registry_counter, serve_open, DeviceMark, Sample,
    Size,
};
use abr_sim::{jsn, JsonValue};
use std::time::Instant;

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const METRICS: &[(&str, &str)] = &[
    ("abr-sim.event_queue_ns", "ns"),
    ("abr-sim.pending_ns_per_req", "ns/req"),
    ("abr-sim.json_pretty_ns_per_kb", "ns/kB"),
    ("abr-disk.service_ns", "ns"),
    ("abr-disk.store_seeded_write_ns", "ns"),
    ("abr-driver.submit_ns_per_req", "ns/req"),
    ("abr-driver.complete_ns_per_req", "ns/req"),
    ("abr-driver.self_ns_per_req", "ns/req"),
    ("abr-driver.read_stats_ns_per_day", "ns/day"),
    ("abr-driver.dispatch_ns.d1", "ns"),
    ("abr-driver.dispatch_ns.d32", "ns"),
    ("abr-driver.dispatch_ns.d1k", "ns"),
    ("abr-driver.dispatch_ns.d4k", "ns"),
    ("abr-driver.dispatch_ns.d16k", "ns"),
    ("abr-driver.blocktable_hit_ns", "ns"),
    ("abr-driver.blocktable_miss_ns", "ns"),
    ("abr-driver.queue_depth_mean", "count"),
    ("abr-driver.queue_depth_max", "count"),
    ("abr-driver.reserved_hit_share", "ratio"),
    ("abr-fs.sync_ns_per_req", "ns/req"),
    ("abr-fs.read_hit_ns", "ns"),
    ("abr-fs.read_miss_ns", "ns"),
    ("abr-fs.create_delete_ns", "ns"),
    ("abr-fs.cache_hit_share", "ratio"),
    ("abr-workload.next_op_ns_per_req", "ns/req"),
    ("abr-workload.apply_ns_per_req", "ns/req"),
    ("abr-workload.setup_ns", "ns"),
    ("abr-workload.requests_per_day_ratio_max", "ratio"),
    ("abr-core.collect_ns_per_req", "ns/req"),
    ("abr-core.analyzer_observe_ns", "ns"),
    ("abr-core.hot_list_ns_per_night", "ns/night"),
    ("abr-core.end_day_ns_per_night", "ns/night"),
    ("abr-core.policy_place_ns.organ_pipe", "ns"),
    ("abr-core.policy_place_ns.interleaved", "ns"),
    ("abr-core.policy_place_ns.serial", "ns"),
    ("abr-core.move_ns_per_io_op", "ns/op"),
    ("abr-core.move_io_ops_per_night", "count"),
    ("abr-core.day_metrics_ns_per_day", "ns/day"),
    ("abr-core.overnight_share", "ratio"),
    ("abr-core.service_cut_pct", "%"),
    ("abr-core.seek_cut_pct", "%"),
    ("abr-array.setup_ns", "ns"),
    ("abr-array.run_day_ns_per_req", "ns/req"),
    ("abr-array.rearrange_ns_per_night", "ns/night"),
    ("abr-array.volume_read_ns", "ns"),
    ("abr-array.volume_write_ns", "ns"),
    ("abr-array.stripe_map_ns", "ns"),
    ("abr-array.subrequests_per_request", "ratio"),
    ("abr-array.degraded_read_share", "ratio"),
    ("abr-array.rebuild_blocks", "count"),
    ("abr-serve.run_epoch_ns_per_arrival", "ns/req"),
    ("abr-serve.rearrange_ns_per_epoch", "ns/epoch"),
    ("abr-serve.token_bucket_ns", "ns"),
    ("abr-serve.drr_ns", "ns"),
    ("abr-serve.shed_share", "ratio"),
    ("abr-serve.throttled_share", "ratio"),
    ("abr-serve.queue_depth_max", "count"),
    ("abr-serve.client_p50_ms", "sim_ms"),
    ("abr-serve.client_p99_ms", "sim_ms"),
    ("abr-obs.loghist_observe_ns", "ns"),
    ("abr-obs.snapshot_ns", "ns"),
    ("abr-obs.day_series_ns_per_day", "ns/day"),
    ("abr-bench.overhead_s", "s"),
    ("abr-bench.slowest_run_s", "s"),
    ("abr-sim.loc", "lines"),
    ("abr-obs.loc", "lines"),
    ("abr-disk.loc", "lines"),
    ("abr-driver.loc", "lines"),
    ("abr-fs.loc", "lines"),
    ("abr-workload.loc", "lines"),
    ("abr-core.loc", "lines"),
    ("abr-array.loc", "lines"),
    ("abr-serve.loc", "lines"),
    ("abr-bench.loc", "lines"),
    ("abr-lint.loc", "lines"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.replica_faithful", "count"),
    ("harness.paper_err_pct", "%"),
    ("harness.failed_share", "ratio"),
    ("harness.layers_unmeasured", "count"),
    ("harness.wall_traced_s", "s"),
    ("harness.wall_untraced_s", "s"),
    ("harness.traced_samples", "count"),
    ("harness.kernels_s", "s"),
    ("harness.requests", "count"),
    ("harness.mem_probe_ns", "ns"),
];

/// One traced sample: what it shares with an untraced one, and the
/// per-layer values its spans and counters give.
struct Traced {
    sample: Sample,
    values: Vec<(&'static str, f64)>,
}

/// Traced and untraced samples of one workload, alternating.
struct Pairs {
    untraced: Vec<Sample>,
    traced: Vec<Traced>,
    trace: Option<Trace>,
    /// Host memory latency while they ran (median of one probe per
    /// pair): the layer times are raw, this is what to read them at.
    mem_probe_ns: f64,
}

/// Run the layer run of one workload here and end with the contract line.
pub fn single(
    workload: &str,
    seed: u64,
    seconds: f64,
    size: Size,
    paths: &Paths,
) -> Result<bool, String> {
    let pairs = sample_pairs(workload, seed, seconds, size, paths)?;

    let kernels_start = Instant::now();
    let disk_ops = record_disk_ops(size);
    let mut values = kernels::all(&disk_ops, size);
    let kernels_s = kernels_start.elapsed().as_secs_f64();

    // Medians over the traced samples of what each one measured.
    let names: Vec<&'static str> = pairs.traced[0].values.iter().map(|v| v.0).collect();
    for name in names {
        let per_sample: Vec<f64> = pairs
            .traced
            .iter()
            .filter_map(|t| t.values.iter().find(|v| v.0 == name).map(|v| v.1))
            .collect();
        values.push((name, median(&per_sample)));
    }

    let get = |values: &[(&'static str, f64)], name: &str| {
        values.iter().find(|v| v.0 == name).map_or(0.0, |v| v.1)
    };
    // The driver's own time per request is a difference of two measured
    // numbers: its calls as the replica saw them, less the disk model
    // they enclose as the kernel replayed it.
    let driver_calls = get(&values, "abr-driver.submit_ns_per_req")
        + get(&values, "abr-driver.complete_ns_per_req");
    if driver_calls > 0.0 {
        let own = driver_calls - get(&values, "abr-disk.service_ns");
        values.push(("abr-driver.self_ns_per_req", own.max(0.0)));
    }
    for &(name, _) in METRICS {
        if let Some(krate) = name.strip_suffix(".loc") {
            let dir = paths.root.join("crates").join(krate).join("src");
            values.push((name, host::loc(&dir) as f64));
        }
    }

    let first = &pairs.traced[0].sample;
    let untraced_wall = median(&pairs.untraced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let traced_wall = median(
        &pairs
            .traced
            .iter()
            .map(|t| t.sample.wall_s)
            .collect::<Vec<_>>(),
    );
    let faithful = pairs
        .traced
        .iter()
        .all(|t| t.sample.fingerprint == pairs.untraced[0].fingerprint);
    values.push((
        "harness.trace_overhead_pct",
        (traced_wall / untraced_wall - 1.0) * 100.0,
    ));
    values.push(("harness.replica_faithful", f64::from(u8::from(faithful))));
    values.push(("harness.wall_traced_s", traced_wall));
    values.push(("harness.wall_untraced_s", untraced_wall));
    values.push(("harness.traced_samples", pairs.traced.len() as f64));
    values.push(("harness.kernels_s", kernels_s));
    values.push(("harness.requests", first.requests as f64));
    values.push(("harness.mem_probe_ns", pairs.mem_probe_ns));
    values.push((
        "harness.failed_share",
        first.failed as f64 / first.attempted.max(1) as f64,
    ));
    for (from, to) in [
        ("paper_err_pct", "harness.paper_err_pct"),
        ("sim_service_cut_pct", "abr-core.service_cut_pct"),
        ("sim_seek_cut_pct", "abr-core.seek_cut_pct"),
    ] {
        if let Some(v) = first.sim_value(from) {
            values.push((to, v));
        }
    }

    // Everything declared is emitted; what this workload gave no value
    // for reads 0 and is counted.
    let unmeasured = METRICS
        .iter()
        .filter(|m| m.0 != "harness.layers_unmeasured" && !values.iter().any(|v| v.0 == m.0))
        .count();
    values.push(("harness.layers_unmeasured", unmeasured as f64));
    let table: Vec<(&str, &str, f64)> = METRICS
        .iter()
        .map(|&(name, unit)| (name, unit, get(&values, name)))
        .collect();

    let mut problems = crate::run::find_problems(
        &pairs
            .untraced
            .iter()
            .chain(pairs.traced.iter().map(|t| &t.sample))
            .cloned()
            .collect::<Vec<_>>(),
    );
    if !faithful {
        problems.push(format!(
            "the traced run fingerprints {} but the untraced one {}: the layer numbers are invalid",
            fingerprint::hex(first.fingerprint),
            fingerprint::hex(pairs.untraced[0].fingerprint)
        ));
    }
    for (name, _, value) in &table {
        if !value.is_finite() {
            problems.push(format!("{name} is not a finite number"));
        }
    }

    if let Some(trace) = &pairs.trace {
        let path = paths.out().join(format!("trace-{workload}.jsonl"));
        trace
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    print_table(workload, &table, &problems);
    let correct = problems.is_empty();
    let mut metrics = JsonValue::object();
    let mut detail_metrics = JsonValue::object();
    for &(name, unit, value) in &table {
        metrics.insert(name, jsn!({ "value": value, "unit": unit }));
        detail_metrics.insert(name, jsn!({ "median": value, "unit": unit }));
    }
    let detail = jsn!({
        "workload": workload,
        "seed": seed,
        "samples": pairs.traced.len() as u64,
        "correct": correct,
        "problems": problems,
        "requests": first.requests,
        "fingerprint": fingerprint::hex(first.fingerprint),
        "metrics": detail_metrics,
    });
    let path = paths.out().join(format!("layers-{workload}.json"));
    std::fs::write(&path, detail.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let attempted = pairs.traced.iter().map(|t| t.sample.attempted).sum();
    let failed = pairs.traced.iter().map(|t| t.sample.failed).sum();
    println!("{}", contract_line(correct, attempted, failed, metrics));
    Ok(correct)
}

fn print_table(workload: &str, table: &[(&str, &str, f64)], problems: &[String]) {
    println!(
        "== {workload}: per-layer metrics (layer = crate; *_ns* is host time, the rest exact)"
    );
    for (name, unit, value) in table {
        println!("   {name:<42} {value:>18.4} {unit}");
    }
    for p in problems {
        println!("   INCORRECT: {p}");
    }
}

/// Alternate untraced and traced samples for about `seconds`.
fn sample_pairs(
    workload: &str,
    seed: u64,
    seconds: f64,
    size: Size,
    paths: &Paths,
) -> Result<Pairs, String> {
    // Pairs of samples: half as many as an end-to-end run takes.
    let (warmup, min, max) = match (size, workload) {
        (Size::Quick, _) => (0, 1, 1),
        (_, "suite_paper" | "array_redundant") => (1, 2, 3),
        _ => (1, 3, 10),
    };
    for _ in 0..warmup {
        workloads::sample(workload, seed, size, paths)?;
    }
    let mut tracer = spans_of(workload).map(Tracer::new);
    let mut pairs = Pairs {
        untraced: Vec::new(),
        traced: Vec::new(),
        trace: None,
        mem_probe_ns: 0.0,
    };
    let mut probe = MemProbe::new();
    let mut probes = Vec::new();
    let started = Instant::now();
    loop {
        let n = pairs.traced.len();
        if n >= max || (n >= min && started.elapsed().as_secs_f64() >= seconds) {
            break;
        }
        probes.push(probe.ns_per_load());
        let untraced = workloads::sample(workload, seed, size, paths)?;
        let Some(t) = &mut tracer else {
            // Nothing outside the CLI can put a span inside it, so
            // nothing is traced and tracing costs nothing: the sample
            // stands on both sides, and its own record gives the layer
            // times it has.
            pairs.traced.push(Traced {
                values: untraced.layer.clone(),
                sample: untraced.clone(),
            });
            pairs.untraced.push(untraced);
            continue;
        };
        pairs.untraced.push(untraced);
        workloads::reset_thread_state();
        t.scope(n as u32, 0);
        let config_seed = workloads::derive_seed(seed, workload);
        pairs.traced.push(match workload {
            "paper_system" => traced_paper(&paper::SYSTEM, size, n as u32, t),
            "paper_users" => traced_paper(&paper::USERS, size, n as u32, t),
            "array_redundant" => traced_array(size, t),
            "serve_open" => traced_serve(config_seed, size, t),
            _ => traced_deep(config_seed, size, t),
        });
    }
    pairs.trace = tracer.map(Tracer::finish);
    pairs.mem_probe_ns = median(&probes);
    Ok(pairs)
}

fn spans_of(workload: &str) -> Option<&'static [crate::span::SpanDef]> {
    match workload {
        "paper_system" | "paper_users" => Some(&replica::SPANS),
        "array_redundant" => Some(&array_redundant::SPANS),
        "serve_open" => Some(&serve_open::SPANS),
        "deep_queue" => Some(&deep_queue::SPANS),
        _ => None,
    }
}

fn traced_paper(w: &paper::PaperWorkload, size: Size, sample: u32, t: &mut Tracer) -> Traced {
    let t0 = Instant::now();
    let mut r = Replica::new(w.config(size), t);
    let setup_s = t0.elapsed().as_secs_f64();
    let workload_setup_ns = t.ns(t.current_ticks(replica::WORKLOAD_SETUP));
    // Close the set-up scope: the measured days are the scopes after it.
    t.scope(sample, 0);

    let mark = DeviceMark::take();
    let reserved_before = registry_counter("driver.dispatch.reserved");
    let (hits_before, misses_before) = r.fs().cache_hit_miss();
    let first_scope = t.scopes_len();
    let t1 = Instant::now();
    // Per-call spans on one pair of days, a different one each sample.
    let fine_pair = sample as usize % w.pairs(size);
    let days = r.run_on_off(w.pairs(size), w.n_blocks, sample, fine_pair, t);
    let wall_s = t1.elapsed().as_secs_f64();
    t.scope(sample + 1, 0);

    let mut s = Sample {
        setup_s,
        wall_s,
        ..Sample::default()
    };
    paper::finish(w.name, &days, &mark, &mut s);
    s.check(r.rearrange_failures() == 0, || {
        format!("{} overnight passes failed", r.rearrange_failures())
    });
    s.check(r.driver().lost_blocks().count() == 0, || {
        "driver reports lost blocks".to_string()
    });

    let total = |id: usize| t.ns(t.ticks_since(first_scope, id));
    // Per-request costs rest on the days that carried per-call spans.
    let req = (days[2 * fine_pair].all.n + days[2 * fine_pair + 1].all.n).max(1) as f64;
    let n_days = days.len() as f64;
    let (hits, misses) = r.fs().cache_hit_miss();
    let (hits, misses) = (hits - hits_before, misses - misses_before);
    let ratio_max = days
        .windows(2)
        .map(|d| d[1].all.n as f64 / d[0].all.n.max(1) as f64)
        .fold(0.0, f64::max);
    let reserved = registry_counter("driver.dispatch.reserved") - reserved_before;
    let values = vec![
        ("abr-sim.pending_ns_per_req", total(replica::PENDING) / req),
        ("abr-driver.submit_ns_per_req", total(replica::SUBMIT) / req),
        (
            "abr-driver.complete_ns_per_req",
            total(replica::COMPLETE) / req,
        ),
        (
            "abr-driver.read_stats_ns_per_day",
            (total(replica::READ_STATS) + total(replica::STATS_CLEAR)) / n_days,
        ),
        (
            "abr-driver.queue_depth_mean",
            r.depth.sum as f64 / r.depth.submits.max(1) as f64,
        ),
        ("abr-driver.queue_depth_max", r.depth.max as f64),
        (
            "abr-driver.reserved_hit_share",
            reserved as f64 / s.requests.max(1) as f64,
        ),
        ("abr-fs.sync_ns_per_req", total(replica::SYNC) / req),
        (
            "abr-fs.cache_hit_share",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        (
            "abr-workload.next_op_ns_per_req",
            total(replica::NEXT_OP) / req,
        ),
        ("abr-workload.apply_ns_per_req", total(replica::APPLY) / req),
        ("abr-workload.setup_ns", workload_setup_ns),
        ("abr-workload.requests_per_day_ratio_max", ratio_max),
        ("abr-core.collect_ns_per_req", total(replica::COLLECT) / req),
        (
            "abr-core.hot_list_ns_per_night",
            total(replica::HOT_LIST) / n_days,
        ),
        (
            "abr-core.end_day_ns_per_night",
            total(replica::END_DAY) / n_days,
        ),
        (
            "abr-core.move_ns_per_io_op",
            (total(replica::END_DAY) - total(replica::POLICY_PLACE)).max(0.0)
                / r.io_ops.max(1) as f64,
        ),
        ("abr-core.move_io_ops_per_night", r.io_ops as f64 / n_days),
        (
            "abr-core.day_metrics_ns_per_day",
            (total(replica::DISTRIBUTIONS) + total(replica::DAY_METRICS)) / n_days,
        ),
        (
            "abr-core.overnight_share",
            total(replica::NIGHT) / (total(replica::DAY) + total(replica::NIGHT)),
        ),
    ];
    Traced { sample: s, values }
}

fn traced_array(size: Size, t: &mut Tracer) -> Traced {
    let sample = array_redundant::sample(size, Some(&mut *t));
    let req = sample.requests.max(1) as f64;
    let nights = (2 * array_redundant::pairs(size)) as f64;
    let mut values = vec![
        (
            "abr-array.setup_ns",
            t.ns(t.current_ticks(array_redundant::SETUP)),
        ),
        (
            "abr-array.run_day_ns_per_req",
            t.ns(t.current_ticks(array_redundant::RUN_DAY)) / req,
        ),
        (
            "abr-array.rearrange_ns_per_night",
            t.ns(t.current_ticks(array_redundant::REARRANGE)) / nights,
        ),
    ];
    values.extend(sample.layer.iter().copied());
    Traced { sample, values }
}

fn traced_serve(seed: u64, size: Size, t: &mut Tracer) -> Traced {
    let sample = serve_open::sample(seed, size, Some(&mut *t));
    let epochs = serve_open::config(seed, size).epochs as f64;
    let mut values = vec![
        (
            "abr-serve.run_epoch_ns_per_arrival",
            t.ns(t.current_ticks(serve_open::RUN_EPOCH)) / sample.attempted.max(1) as f64,
        ),
        (
            "abr-serve.rearrange_ns_per_epoch",
            t.ns(t.current_ticks(serve_open::REARRANGE)) / (epochs - 1.0).max(1.0),
        ),
    ];
    values.extend(sample.layer.iter().copied());
    Traced { sample, values }
}

fn traced_deep(seed: u64, size: Size, t: &mut Tracer) -> Traced {
    let sample = deep_queue::sample(seed, size, Some(&mut *t));
    let req = sample.requests.max(1) as f64;
    let mut values = vec![
        (
            "abr-driver.submit_ns_per_req",
            t.ns(t.current_ticks(deep_queue::SUBMIT)) / req,
        ),
        (
            "abr-driver.complete_ns_per_req",
            (t.ns(t.current_ticks(deep_queue::COMPLETE)) + t.ns(t.current_ticks(deep_queue::POLL)))
                / req,
        ),
    ];
    values.extend(sample.layer.iter().copied());
    Traced { sample, values }
}

/// The requests the disk of `paper_system` serves on its first off/on
/// pair of days, in service order, for the disk-model kernel.
fn record_disk_ops(size: Size) -> Vec<DiskOp> {
    workloads::reset_thread_state();
    let w = &paper::SYSTEM;
    let mut tracer = Tracer::new(&replica::SPANS);
    let mut r = Replica::new(w.config(size), &mut tracer);
    r.start_recording();
    r.run_on_off(1, w.n_blocks, 0, 0, &mut tracer);
    r.take_recording()
}
