//! Trace determinism: a traced batch must produce byte-identical JSONL
//! for any `--jobs` value, and the flight recorder's drop counting must
//! be exact even when a real run overflows the buffer.
//!
//! The batch mixes a real multi-day experiment (fig8) with an ablation;
//! two specs are enough to make a 4-job batch actually use two workers
//! (`workers = jobs.min(specs)`). Untraced batches are compared serial
//! against parallel in `jobs_invariance.rs`.

use abr_bench::engine::RunBatch;
use abr_core::{Experiment, ExperimentConfig};
use abr_disk::models;
use abr_sim::{JsonValue, SimDuration};
use abr_workload::WorkloadProfile;

const IDS: [&str; 2] = ["fig8", "ablate-rotation"];

fn traced(jobs: usize) -> abr_bench::engine::BatchResult {
    let mut batch = RunBatch::new(&IDS, jobs).unwrap();
    batch.set_trace(true);
    batch.execute()
}

/// Deterministic counters must match across worker counts; `wall.*`
/// profiling counters are real-time measurements and are exempt (they
/// only ever appear in BENCH output, never in results or traces).
fn sim_counters(metrics: &JsonValue) -> Vec<(String, u64)> {
    metrics["counters"]
        .as_object()
        .expect("snapshot has a counters object")
        .iter()
        .filter(|(name, _)| !name.starts_with("wall."))
        .map(|(name, v)| (name.clone(), v.as_u64().expect("counters are u64")))
        .collect()
}

#[test]
fn traced_batch_is_byte_identical_across_jobs() {
    let serial = traced(1);
    let parallel = traced(4);

    let (events, dropped) = serial.trace_totals();
    assert!(events > 0, "a traced fig8 run cannot produce zero events");
    assert_eq!(dropped, 0, "default capacity must hold the whole batch");

    assert_eq!(
        serial.trace_jsonl(),
        parallel.trace_jsonl(),
        "trace bytes must not depend on --jobs"
    );

    for (s, p) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(s.spec, p.spec, "outcomes must stay in spec order");
        assert!(s.report.is_ok(), "{} failed", s.spec.id);
        assert!(p.report.is_ok(), "{} failed", p.spec.id);
        assert_eq!(
            sim_counters(&s.metrics),
            sim_counters(&p.metrics),
            "{}: sim-time metrics must not depend on scheduling",
            s.spec.id
        );
    }

    // Every line of the document is valid JSON: per-run headers first,
    // then one event object per line.
    let doc = serial.trace_jsonl();
    let mut headers = 0;
    for line in doc.lines() {
        let v = JsonValue::parse(line).expect("every trace line parses");
        if v["run"].as_str().is_some() {
            headers += 1;
        }
    }
    assert_eq!(headers, IDS.len(), "one header line per run, in order");
}

#[test]
fn overflow_drops_are_counted_exactly_in_a_real_run() {
    let mut profile = WorkloadProfile::tiny_test();
    profile.day_length = SimDuration::from_mins(20);
    let mut cfg = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    cfg.cache_blocks = 192;
    cfg.seed = 12345;

    const CAPACITY: usize = 64;
    abr_obs::trace_start(CAPACITY);
    let mut e = Experiment::new(cfg); // setup + warmup: paused, not dropped
    let m = e.run_day();
    let buf = abr_obs::trace_take().expect("recorder present");

    // run_day performs no arranger traffic, so every event is a request
    // span: retained + dropped must equal the day's request count.
    assert!(
        m.all.n > CAPACITY as u64,
        "day must overflow the {CAPACITY}-event buffer (got {})",
        m.all.n
    );
    assert_eq!(buf.events.len(), CAPACITY, "keep-oldest fills to capacity");
    assert_eq!(
        buf.events.len() as u64 + buf.dropped,
        m.all.n,
        "dropped count must account for every overflowed event"
    );
}
