//! Ablation studies for the design choices DESIGN.md §5 calls out.
//!
//! These go beyond the paper's own evaluation: each isolates one design
//! decision of the rearrangement system and measures what it buys.
//!
//! * `ablate-scheduler` — the SCAN × rearrangement synergy (§5.2 claims
//!   part of the win comes from their interaction).
//! * `ablate-analyzer` — reference-list size: exact counting vs the
//!   bounded Space-Saving list at several capacities ([Salem 93]).
//! * `ablate-location` — reserved region in the middle of the disk vs at
//!   the edge (organ-pipe theory says the middle).
//! * `ablate-drift` — how fast day-to-day workload drift erodes the
//!   benefit (§5.3's explanation for the users-fs results).
//! * `ablate-granularity` — block-level selection vs cylinder-level
//!   selection (the paper's Related Work argues blocks beat cylinders,
//!   corroborating [Ruemmler 91]).
//!
//! The variants of one ablation differ only in the device, except where
//! the ablated knob is the workload itself (`ablate-drift`, the drift
//! rates of `ablate-decay`) or the partition (`ablate-shuffler`), so
//! they share one workload stream: the first variant runs live and the
//! rest replay it ([`share_stream`]).

use crate::report::Report;
use crate::runs::short_system_config;
use abr_core::analyzer::HotBlock;
use abr_core::{share_stream, DayMetrics, Experiment};
use abr_driver::SchedulerKind;
use abr_sim::jsn;
use std::collections::BTreeMap;

/// One off/on pair; returns (off, on) day metrics.
fn pair(e: &mut Experiment, n_blocks: usize) -> (DayMetrics, DayMetrics) {
    let off = e.run_day();
    e.rearrange_for_next_day(n_blocks);
    let on = e.run_day();
    (off, on)
}

/// Mean (off seek, on seek) over several alternating pairs — for sweeps
/// where single-day variance would drown the effect.
fn mean_pair_seeks(e: &mut Experiment, n_blocks: usize, pairs: usize) -> (f64, f64) {
    let days = e.run_on_off(pairs, n_blocks);
    let mean = |on: bool| {
        let sel: Vec<f64> = days
            .iter()
            .filter(|d| d.rearranged == on)
            .map(|d| d.all.seek_ms)
            .collect();
        sel.iter().sum::<f64>() / sel.len() as f64
    };
    (mean(false), mean(true))
}

pub(crate) fn scheduler(mut r: Report) -> Report {
    let mut rows = Vec::new();
    let kinds = [
        SchedulerKind::Fcfs,
        SchedulerKind::Scan,
        SchedulerKind::CScan,
        SchedulerKind::Sstf,
    ];
    let configs = kinds.map(|kind| {
        let mut cfg = short_system_config(0xAB1);
        cfg.scheduler = kind;
        cfg
    });
    let pairs = share_stream(configs, |_, e| pair(e, 1017));
    for (kind, (off, on)) in kinds.into_iter().zip(pairs) {
        r.line(format!(
            "{:7} | off: seek {:5.2} ms wait {:7.2} ms | on: seek {:5.2} ms wait {:7.2} ms | seek cut {:4.1}%",
            kind.name(),
            off.all.seek_ms,
            off.all.waiting_ms,
            on.all.seek_ms,
            on.all.waiting_ms,
            (1.0 - on.all.seek_ms / off.all.seek_ms) * 100.0,
        ));
        rows.push(jsn!({
            "scheduler": kind.name(),
            "off_seek_ms": off.all.seek_ms, "on_seek_ms": on.all.seek_ms,
            "off_wait_ms": off.all.waiting_ms, "on_wait_ms": on.all.waiting_ms,
        }));
    }
    r.blank();
    r.line("expected: rearrangement wins under every policy; FCFS waiting times are far worse;");
    r.line("SCAN+rearrangement gives the most zero-length seeks (the paper's synergy claim).");
    r.json = jsn!({ "rows": rows });
    r
}

pub(crate) fn analyzer(mut r: Report) -> Report {
    let mut rows = Vec::new();
    let caps = [
        None,
        Some(2000usize),
        Some(500),
        Some(200),
        Some(100),
        Some(50),
    ];
    let configs = caps.map(|cap| {
        let mut cfg = short_system_config(0xAB2);
        cfg.analyzer_capacity = cap;
        cfg
    });
    let pairs = share_stream(configs, |_, e| pair(e, 1017));
    for (cap, (off, on)) in caps.into_iter().zip(pairs) {
        let label = cap.map_or("exact".to_string(), |c| format!("cap {c}"));
        r.line(format!(
            "{:9} | on-day seek {:5.2} ms (off {:5.2}) | reduction {:4.1}%",
            label,
            on.all.seek_ms,
            off.all.seek_ms,
            (1.0 - on.all.seek_ms / off.all.seek_ms) * 100.0,
        ));
        rows.push(jsn!({
            "capacity": cap, "on_seek_ms": on.all.seek_ms, "off_seek_ms": off.all.seek_ms,
        }));
    }
    r.blank();
    r.line("expected: a few-hundred-entry list performs like exact counting ([Salem 93]);");
    r.line("very small lists degrade gracefully, not catastrophically.");
    r.json = jsn!({ "rows": rows });
    r
}

pub(crate) fn location(mut r: Report) -> Report {
    let mut rows = Vec::new();
    // Where the region sits leaves the partition's size alone, so both
    // locations see one stream.
    let configs = [false, true].map(|edge| {
        let mut cfg = short_system_config(0xAB3);
        cfg.reserved_at_edge = edge;
        cfg
    });
    let seeks = share_stream(configs, |_, e| mean_pair_seeks(e, 1017, 3));
    for (edge, (off, on)) in [false, true].into_iter().zip(seeks) {
        r.line(format!(
            "{:6} | mean on-day seek {:5.2} ms (off {:5.2}) | reduction {:4.1}%",
            if edge { "edge" } else { "middle" },
            on,
            off,
            (1.0 - on / off) * 100.0,
        ));
        rows.push(jsn!({
            "edge": edge, "on_seek_ms": on, "off_seek_ms": off,
        }));
    }
    r.blank();
    r.line("organ-pipe theory says the middle halves the expected seek for uncovered requests;");
    r.line("finding: with ~95% of requests covered, the uncovered tail is too small for the");
    r.line("location to matter much — the middle's edge (no pun) only appears as coverage drops.");
    r.json = jsn!({ "rows": rows });
    r
}

pub(crate) fn drift(mut r: Report) -> Report {
    let mut rows = Vec::new();
    for drift in [0.0, 0.04, 0.15, 0.4, 0.8] {
        let mut cfg = short_system_config(0xAB4);
        cfg.profile.daily_drift = drift;
        let (off, on) = mean_pair_seeks(&mut Experiment::new(cfg), 1017, 3);
        r.line(format!(
            "drift {:4.2} | mean on-day seek {:5.2} ms (off {:5.2}) | reduction {:4.1}%",
            drift,
            on,
            off,
            (1.0 - on / off) * 100.0,
        ));
        rows.push(jsn!({
            "drift": drift, "on_seek_ms": on, "off_seek_ms": off,
        }));
    }
    r.blank();
    r.line("expected: the benefit decays with drift — the paper's §5.3 explanation for why");
    r.line("the users file system (faster-changing) gains less than the system file system.");
    r.json = jsn!({ "rows": rows });
    r
}

/// One off/on pair selecting by cylinder: aggregate the off day's counts
/// per virtual cylinder, pick the hottest cylinders, and place *all*
/// their blocks until the budget is spent (what a cylinder shuffler can
/// do).
fn cylinder_pair(e: &mut Experiment, n_blocks: usize) -> (DayMetrics, DayMetrics) {
    let off = e.run_day();
    let (all, _) = e.daemon().distributions();
    let g = e.config().disk.geometry;
    let spb = 16u64;
    let blocks_per_cyl = g.sectors_per_cylinder() / spb; // truncated
    let mut cyl_counts: BTreeMap<u64, u64> = BTreeMap::new();
    for h in &all {
        *cyl_counts.entry(h.block / blocks_per_cyl).or_insert(0) += h.count;
    }
    let mut cyls: Vec<(u64, u64)> = cyl_counts.into_iter().collect();
    cyls.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut hot = Vec::new();
    'outer: for (cyl, count) in cyls {
        for i in 0..blocks_per_cyl {
            if hot.len() >= n_blocks {
                break 'outer;
            }
            hot.push(HotBlock {
                block: cyl * blocks_per_cyl + i,
                count,
            });
        }
    }
    e.rearrange_for_next_day_with(&hot, n_blocks);
    (off, e.run_day())
}

pub(crate) fn granularity(mut r: Report) -> Report {
    // Block granularity (the baseline), then cylinder granularity.
    let configs = [short_system_config(0xAB5), short_system_config(0xAB5)];
    let pairs = share_stream(configs, |variant, e| match variant {
        0 => pair(e, 1017),
        _ => cylinder_pair(e, 1017),
    });
    let [(b_off, b_on), (c_off, c_on)] = [&pairs[0], &pairs[1]];

    r.line(format!(
        "block-granularity    | on-day seek {:5.2} ms (off {:5.2}) | reduction {:4.1}%",
        b_on.all.seek_ms,
        b_off.all.seek_ms,
        (1.0 - b_on.all.seek_ms / b_off.all.seek_ms) * 100.0,
    ));
    r.line(format!(
        "cylinder-granularity | on-day seek {:5.2} ms (off {:5.2}) | reduction {:4.1}%",
        c_on.all.seek_ms,
        c_off.all.seek_ms,
        (1.0 - c_on.all.seek_ms / c_off.all.seek_ms) * 100.0,
    ));
    r.blank();
    r.line("expected: block selection wins — hot blocks within a cylinder vary in temperature,");
    r.line("so whole-cylinder selection wastes reserved slots on cold blocks (paper §1.1,");
    r.line("corroborating [Ruemmler 91]'s block-vs-cylinder shuffling comparison).");
    r.json = jsn!({
        "block": jsn!({ "on_seek_ms": b_on.all.seek_ms, "off_seek_ms": b_off.all.seek_ms }),
        "cylinder": jsn!({ "on_seek_ms": c_on.all.seek_ms, "off_seek_ms": c_off.all.seek_ms }),
    });
    r
}

pub(crate) fn incremental(mut r: Report) -> Report {
    const NIGHTS: usize = 4;
    let mut rows = Vec::new();
    let configs = [false, true].map(|inc| {
        let mut cfg = short_system_config(0xAB6);
        cfg.incremental_rearrange = inc;
        cfg
    });
    let runs = share_stream(configs, |_, e| {
        // Consecutive ON days: each night re-places from that day's counts
        // (the steady-state regime where incremental should shine).
        e.run_day();
        let mut ops = 0u64;
        let mut busy_s = 0.0;
        let mut on_seek = 0.0;
        for _ in 0..NIGHTS {
            let rep = e.rearrange_for_next_day(1017);
            ops += u64::from(rep.io_ops);
            busy_s += rep.busy.as_secs_f64();
            on_seek += e.run_day().all.seek_ms;
        }
        (ops, busy_s, on_seek)
    });
    for (inc, (ops, busy_s, on_seek)) in [false, true].into_iter().zip(runs) {
        r.line(format!(
            "{:11} | {:6.0} disk ops/night | {:6.1} s disk time/night | mean on-day seek {:5.2} ms",
            if inc { "incremental" } else { "full" },
            ops as f64 / NIGHTS as f64,
            busy_s / NIGHTS as f64,
            on_seek / NIGHTS as f64,
        ));
        rows.push(jsn!({
            "incremental": inc,
            "ops_per_night": ops as f64 / NIGHTS as f64,
            "busy_s_per_night": busy_s / NIGHTS as f64,
            "mean_on_seek_ms": on_seek / NIGHTS as f64,
        }));
    }
    r.blank();
    r.line("finding: ~45% less overnight I/O for ~0.2 ms of on-day seek (residents keep");
    r.line("their slots, so the organ-pipe shape degrades slightly) — the incremental");
    r.line("extension the paper's granularity argument (1.1) enables.");
    r.json = jsn!({ "rows": rows });
    r
}

pub(crate) fn decay(mut r: Report) -> Report {
    let mut rows = Vec::new();
    let decays = [None, Some(0.5), Some(0.8)];
    for drift in [0.04f64, 0.3] {
        let configs = decays.map(|decay| {
            let mut cfg = short_system_config(0xAB7);
            cfg.profile.daily_drift = drift;
            cfg.analyzer_decay = decay;
            cfg
        });
        let seeks = share_stream(configs, |_, e| mean_pair_seeks(e, 1017, 3));
        for (decay, (off, on)) in decays.into_iter().zip(seeks) {
            let label = decay.map_or("reset".to_string(), |d| format!("decay {d}"));
            r.line(format!(
                "drift {:4.2} {:9} | mean on-day seek {:5.2} ms (off {:5.2}) | reduction {:4.1}%",
                drift,
                label,
                on,
                off,
                (1.0 - on / off) * 100.0,
            ));
            rows.push(jsn!({
                "drift": drift, "decay": decay,
                "on_seek_ms": on, "off_seek_ms": off,
            }));
        }
    }
    r.blank();
    r.line("finding: decayed history beats the paper's nightly reset at both drift rates");
    r.line("(~1-5 points of extra reduction) — even under fast drift the stable core of the");
    r.line("hot set is easier to see through several noisy days than through one.");
    r.json = jsn!({ "rows": rows });
    r
}

pub(crate) fn online(mut r: Report) -> Report {
    use abr_core::experiment::OnlineConfig;
    use abr_sim::SimDuration;

    // (a) The paper's protocol: day 1 has no benefit, rearrangement lands
    // overnight.
    let mut overnight = short_system_config(0xAB8);
    overnight.warmup_days = 0; // cold start shows adaptation speed

    // (b) Online: a controller re-places the hottest blocks every 10
    // simulated minutes of the day, whenever the device is idle.
    let mut online = overnight.clone();
    online.analyzer_decay = Some(0.5); // carry counts; online never resets mid-day
    online.online = Some(OnlineConfig {
        period: SimDuration::from_mins(10),
        n_blocks: 1017,
    });

    let runs = share_stream([overnight, online], |variant, e| {
        let day1 = (e.run_day(), e.last_online_io());
        if variant == 0 {
            e.rearrange_for_next_day(1017);
        } else {
            e.advance_day_keep_placement();
        }
        [day1, (e.run_day(), e.last_online_io())]
    });
    let [[(a1, _), (a2, _)], [(b1, b1_io), (b2, b2_io)]] = [&runs[0], &runs[1]];

    r.line(format!(
        "overnight | day1 seek {:5.2} ms (no help yet) | day2 seek {:5.2} ms",
        a1.all.seek_ms, a2.all.seek_ms,
    ));
    r.line(format!(
        "online    | day1 seek {:5.2} ms ({} moves, {:4.1} s) | day2 seek {:5.2} ms ({} moves, {:4.1} s)",
        b1.all.seek_ms,
        b1_io.io_ops,
        b1_io.busy.as_secs_f64(),
        b2.all.seek_ms,
        b2_io.io_ops,
        b2_io.busy.as_secs_f64(),
    ));
    r.blank();
    r.line("expected: online rearrangement already cuts seeks DURING the first day (no");
    r.line("overnight wait), converging to the same steady state — the intelligent-");
    r.line("controller deployment the paper sketches in its Loge comparison.");
    r.json = jsn!({
        "overnight": jsn!({ "day1_seek_ms": a1.all.seek_ms, "day2_seek_ms": a2.all.seek_ms }),
        "online": jsn!({
            "day1_seek_ms": b1.all.seek_ms, "day2_seek_ms": b2.all.seek_ms,
            "day1_ops": b1_io.io_ops, "day2_ops": b2_io.io_ops,
        }),
    });
    r
}

pub(crate) fn shuffler(mut r: Report) -> Report {
    // Block rearrangement (the paper): 1017 blocks into the reserved area.
    let mut cfg = short_system_config(0xAB9);
    let mut a = Experiment::new(cfg.clone());
    let a_off = a.run_day();
    let a_rep = a.rearrange_for_next_day(1017);
    let a_on = a.run_day();

    // Cylinder shuffler: same workload, no reserved area, whole-disk
    // organ-pipe permutation of cylinders.
    cfg.reserved_cylinders = 0;
    let mut b = Experiment::new(cfg);
    let b_off = b.run_day();
    let b_rep = b.shuffle_cylinders_for_next_day();
    let b_on = b.run_day();

    r.line(format!(
        "block rearrangement | off seek {:5.2} -> on seek {:5.2} ms ({:4.1}% cut) | movement {:5} ops, {:6.1} s",
        a_off.all.seek_ms,
        a_on.all.seek_ms,
        (1.0 - a_on.all.seek_ms / a_off.all.seek_ms) * 100.0,
        a_rep.io_ops,
        a_rep.busy.as_secs_f64(),
    ));
    r.line(format!(
        "cylinder shuffling  | off seek {:5.2} -> on seek {:5.2} ms ({:4.1}% cut) | movement {:5} ops, {:6.1} s",
        b_off.all.seek_ms,
        b_on.all.seek_ms,
        (1.0 - b_on.all.seek_ms / b_off.all.seek_ms) * 100.0,
        b_rep.io_ops,
        b_rep.busy.as_secs_f64(),
    ));
    r.blank();
    r.line("expected (paper SS1.1, corroborating [Ruemmler 91]): block shuffling outperforms");
    r.line("cylinder shuffling — hot blocks inside a cylinder drag cold neighbours along,");
    r.line("zero-length seeks cannot increase as much, and the movement cost is far higher");
    r.line("(every displaced cylinder is a full-cylinder read + write).");
    r.json = jsn!({
        "block": jsn!({ "off_seek_ms": a_off.all.seek_ms, "on_seek_ms": a_on.all.seek_ms,
                   "move_ops": a_rep.io_ops, "move_s": a_rep.busy.as_secs_f64() }),
        "cylinder": jsn!({ "off_seek_ms": b_off.all.seek_ms, "on_seek_ms": b_on.all.seek_ms,
                      "move_ops": b_rep.io_ops, "move_s": b_rep.busy.as_secs_f64() }),
    });
    r
}

pub(crate) fn rotation(mut r: Report) -> Report {
    use abr_core::arranger::BlockArranger;
    use abr_core::placement::PolicyKind;
    use abr_disk::{models, DiskLabel};
    use abr_driver::request::IoRequest;
    use abr_driver::{AdaptiveDriver, DriverConfig};
    use abr_sim::SimTime;

    r.line("Table 10's ~1 ms rotational penalty only appears when sequential blocks are");
    r.line("read back to back (each request issued the instant the previous completes);");
    r.line("with client pacing the platter turns many times between requests and placement");
    r.line("cannot matter. This regenerates the effect in its regime.");
    r.blank();

    // Files of 8 interleaved blocks (gap 2), scattered over the disk.
    let n_files = 60usize;
    let blocks_per_file = 8u64;
    let build = || -> (AdaptiveDriver, Vec<Vec<u64>>) {
        let model = models::toshiba_mk156f();
        let label = DiskLabel::rearranged(model.geometry, 48);
        let cfg = DriverConfig::default();
        let driver = AdaptiveDriver::on_blank_disk(model, &label, cfg);
        let files: Vec<Vec<u64>> = (0..n_files as u64)
            .map(|f| {
                (0..blocks_per_file)
                    .map(|i| 100 + f * 251 + i * 2)
                    .collect()
            })
            .collect();
        (driver, files)
    };

    let mut rows = Vec::new();
    for kind in PolicyKind::all() {
        let (mut driver, files) = build();
        // Hot list: file-major, decreasing counts, so adjacent file
        // blocks have adjacent ranks (what real counts look like).
        let hot: Vec<HotBlock> = files
            .iter()
            .flatten()
            .enumerate()
            .map(|(i, &b)| HotBlock {
                block: b,
                count: (10_000 - i) as u64,
            })
            .collect();
        let arranger = BlockArranger::new(kind.make(1));
        #[expect(clippy::unwrap_used, reason = "a fresh idle driver takes the hot list")]
        arranger
            .rearrange(&mut driver, &hot, hot.len(), SimTime::ZERO)
            .unwrap();
        driver.read_stats();

        // Back-to-back sequential reads of every file, several passes.
        let mut now = SimTime::from_micros(600_000_000);
        for _ in 0..4 {
            for file in &files {
                for &b in file {
                    #[expect(clippy::unwrap_used, reason = "every read lies inside the partition")]
                    driver.submit(IoRequest::read(0, b * 16, 16), now).unwrap();
                    let done = driver.drain();
                    now = done[0].completed; // next request fires immediately
                }
            }
        }
        let snap = driver.read_stats();
        let rot = snap.reads.rotation.mean_ms();
        let svc = snap.reads.service.mean_ms();
        r.line(format!(
            "{:12} | mean rotational latency {:5.2} ms | mean service {:5.2} ms",
            kind.name(),
            rot,
            svc
        ));
        rows.push(jsn!({ "policy": kind.name(), "rotation_ms": rot, "service_ms": svc }));
    }
    r.blank();
    r.line("expected shape (Table 10): interleave-preserving placement has the lowest");
    r.line("rotational latency; organ-pipe and serial pay for breaking the gap spacing.");
    r.json = jsn!({ "rows": rows });
    r
}
