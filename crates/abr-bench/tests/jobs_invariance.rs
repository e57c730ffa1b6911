//! Jobs invariance: the run engine's `--jobs N` changes wall-clock time
//! and nothing else. One batch runs serially and on four workers, and
//! every run's report bytes (text, JSON, CSV companions), registry
//! snapshot (all but the wall-clock `wall.*` timers), day series, run
//! meter and the rendered run report must match.
//!
//! The ids mix every family and the three configurations of the one
//! day loop: a bare driver (`table2`, `fig8`), a volume (`array-n2`,
//! and `array-redundant`, the one run that loses a disk, rebuilds and
//! scrubs), the serving front end (`serve-smoke`, `serve`), the fault
//! sweep, an ablation and two runs that drive no disk. `table2` is the
//! batch's only reader of the shared `DayCache`: when two runs share a
//! cached day, whichever computes it first also drives it — its
//! registry, series and `wall.*` scopes see the work — and that order
//! is scheduling. With one reader every run's metrics are its own.
//! The committed bytes of every report are the engine's byte gate.

use abr_bench::engine::{BatchResult, RunBatch, RunOutcome};
use abr_bench::runreport;
use abr_sim::json::JsonValue;

const IDS: [&str; 10] = [
    "array-n2",
    "table1",
    "fig3",
    "fig8",
    "ablate-rotation",
    "table2",
    "array-redundant",
    "faults",
    "serve-smoke",
    "serve",
];

/// The registry snapshot with every `wall.*` metric left out.
fn sim_metrics(snapshot: &JsonValue) -> String {
    let mut out = JsonValue::object();
    for section in ["counters", "gauges", "hires"] {
        let mut kept = JsonValue::object();
        for (name, value) in snapshot[section].as_object().unwrap() {
            if !name.starts_with("wall.") {
                kept.insert(name.clone(), value.clone());
            }
        }
        out.insert(section, kept);
    }
    out.pretty()
}

fn outcome<'a>(batch: &'a BatchResult, id: &str) -> &'a RunOutcome {
    batch.outcomes.iter().find(|o| o.spec.id == id).unwrap()
}

fn counter(o: &RunOutcome, name: &str) -> u64 {
    o.metrics["counters"][name].as_u64().unwrap_or(0)
}

#[test]
fn serial_and_four_worker_batches_are_byte_identical() {
    let serial = RunBatch::new(&IDS, 1).unwrap().execute();
    let parallel = RunBatch::new(&IDS, 4).unwrap().execute();
    assert_eq!((serial.jobs, parallel.jobs), (1, 4));
    assert_eq!(serial.outcomes.len(), IDS.len());
    assert_eq!(parallel.outcomes.len(), IDS.len());

    for (s, p) in serial.outcomes.iter().zip(&parallel.outcomes) {
        let id = s.spec.id.as_str();
        assert_eq!(s.spec, p.spec, "outcomes must stay in spec order");
        let (sr, pr) = (
            s.report.as_ref().expect("serial run failed"),
            p.report.as_ref().expect("parallel run failed"),
        );
        assert_eq!(sr.text, pr.text, "{id}: text differs");
        assert_eq!(sr.json.pretty(), pr.json.pretty(), "{id}: JSON differs");
        assert_eq!(sr.csv, pr.csv, "{id}: CSV companions differ");
        assert_eq!(
            sim_metrics(&s.metrics),
            sim_metrics(&p.metrics),
            "{id}: registry snapshot differs"
        );
        assert_eq!(
            s.day_series.pretty(),
            p.day_series.pretty(),
            "{id}: day series differs"
        );
        assert_eq!(s.meter, p.meter, "{id}: run meter differs");
    }
    // Rendering goes through the whole bench record, so this also pins
    // the record's deterministic subset: day tables, SLO verdicts,
    // starvation lines.
    let (sm, pm) = (
        runreport::render_markdown(&serial.bench_json()).expect("serial report renders"),
        runreport::render_markdown(&parallel.bench_json()).expect("parallel report renders"),
    );
    assert_eq!(sm, pm, "run report differs");
    assert!(sm.contains("### Tail latency by day"));

    // The comparisons must cover live data, not vacuously compare
    // zeros. Each configuration of the day loop carries the loop's
    // wall-clock phase scopes and the night's policy/move split in its
    // bench-record row, whichever worker ran it.
    for batch in [&serial, &parallel] {
        for id in ["table2", "array-n2", "serve-smoke", "array-redundant"] {
            let o = outcome(batch, id);
            for scope in [
                "wall.setup.ns",
                "wall.event_loop.ns",
                "wall.day_end.ns",
                "wall.placement.policy.ns",
                "wall.placement.move.ns",
            ] {
                assert!(
                    o.metrics["counters"][scope].as_u64().is_some(),
                    "{id} (jobs {}): bench-record row lacks {scope}",
                    batch.jobs
                );
            }
        }
    }
    assert!(outcome(&serial, "fig8").meter.days > 0, "fig8 meters days");

    // A single disk and the redundant array record one point per
    // simulated day, with real latency observations and an SLO verdict
    // on each.
    for id in ["table2", "array-redundant"] {
        let o = outcome(&serial, id);
        let days = o.day_series.as_array().expect("series is an array");
        assert!(!days.is_empty(), "{id}: series must not be empty");
        assert_eq!(days.len() as u64, o.meter.days, "{id}: one point per day");
        assert!(
            days.iter()
                .any(|d| d["hires"]["driver.service_us"]["count"].as_u64() > Some(0)),
            "{id}: no day point carries service-latency observations"
        );
        assert!(
            days.iter().all(|d| d["slo"].as_array().is_some()),
            "{id}: every day point must carry SLO verdicts"
        );
    }

    // The redundant sweep scrubs and rebuilds.
    let redundant = outcome(&serial, "array-redundant");
    for name in ["array.scrub.groups", "array.rebuild.blocks"] {
        assert!(counter(redundant, name) > 0, "{name} must be live");
    }

    // The serving smoke cell serves, sheds under overload and reports
    // its tail.
    let smoke = outcome(&serial, "serve-smoke");
    for name in ["serve.arrivals", "serve.completed", "serve.shed_total"] {
        assert!(counter(smoke, name) > 0, "{name} must be live");
    }
    assert!(
        smoke.metrics["hires"]["serve.request_us"]["quantiles"]["p999"].as_u64() > Some(0),
        "p999 request latency must be reported"
    );
}
