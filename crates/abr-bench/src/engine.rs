//! Parallel run engine: `RunSpec` / `RunBatch`.
//!
//! A suite invocation (`experiments --jobs N table2 fig8 ...`) is a
//! batch of *independent* runs — experiment regenerators, ablations,
//! the fault sweep. Each run owns its RNG streams (seeded from its
//! config, never from global state), so results are bit-identical no
//! matter which worker executes it or in what order. The only shared
//! mutable state is the [`DayCache`], whose per-key `OnceLock` cells
//! guarantee each expensive day-vector is computed exactly once.
//!
//! The pool is plain `std::thread::scope` + an atomic work index; no
//! external crates. `jobs = 1` degenerates to the old serial loop on
//! the caller's thread (no pool is spawned), preserving the previous
//! behaviour exactly.
//!
//! Instrumentation: every run records wall-clock time and, via
//! [`Campaign::meter`], how much *simulated* time it advanced —
//! the sim-time/real-time ratio is the throughput figure that
//! `BENCH_experiments.json` reports per run and for the whole batch.

use crate::report::Report;
use crate::runs::{self, Campaign, DayCache, DiskKind, FsKind};
use crate::{ablations, arrays, faults, serve};
use abr_core::RunMeter;
use abr_obs::{
    day_series_reset, day_series_take, registry_clear, registry_snapshot, slo_clear, slo_install,
    trace_start, trace_take, Slo, TraceBuffer, DEFAULT_TRACE_CAPACITY,
};
use abr_sim::{jsn, JsonValue};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which family of runs an id belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// A paper table/figure regenerator (`table2`, `fig8`, ...).
    Experiment,
    /// An ablation study (`ablate-*`).
    Ablation,
    /// The fault-injection sweep (`faults`).
    Faults,
    /// An array scale-out run (`array`, `array-n2`, `array-redundant`).
    Array,
    /// A serving-front-end run (`serve`, `serve-smoke`).
    Serve,
}

impl Family {
    /// Stable lower-case name (the `kind` of a `BENCH_experiments.json`
    /// row).
    pub fn name(self) -> &'static str {
        match self {
            Family::Experiment => "experiment",
            Family::Ablation => "ablation",
            Family::Faults => "faults",
            Family::Array => "array",
            Family::Serve => "serve",
        }
    }

    /// The family's ids, in listing order (`experiments` with no ids
    /// runs [`Family::Experiment`], `--ablations` [`Family::Ablation`]).
    pub fn ids(self) -> Vec<&'static str> {
        let mine = RUNS.iter().filter(|run| run.family == self);
        mine.map(|run| run.id).collect()
    }
}

/// What a run does: fill in the report it is handed (which carries the
/// row's id and title), reading shared day-vectors through the campaign.
pub type RunBody = fn(&Campaign, Report) -> Report;

/// One row of the run table.
#[derive(Debug)]
pub struct Run {
    /// The id the CLI accepts and `results/<id>.*` is named after.
    pub id: &'static str,
    /// The family it is listed, selected and recorded under.
    pub family: Family,
    /// The report's one-line title.
    pub title: &'static str,
    /// The run itself.
    pub body: RunBody,
}

/// Rows are the same row when they carry the same id (the table holds
/// each id once); function pointers have no meaningful equality.
impl PartialEq for Run {
    fn eq(&self, other: &Run) -> bool {
        self.id == other.id
    }
}

impl Eq for Run {}

const fn run(id: &'static str, family: Family, title: &'static str, body: RunBody) -> Run {
    Run {
        id,
        family,
        title,
        body,
    }
}

/// The run table: every id the suite accepts, in listing order (paper
/// order, then the extensions). `--list`, the default and `--ablations`
/// selections, [`RunSpec::resolve`], [`RunSpec::dispatch`] and
/// [`UnknownId`]'s message all read it; a new run is a row here.
pub const RUNS: &[Run] = {
    use Family::{Ablation, Array, Experiment, Faults, Serve};
    &[
        run("table1", Experiment, "Disk specifications and seek curves", |_, r| runs::table1(r)),
        run("table2", Experiment, "On/Off summary, system file system (daily mean min/avg/max)", |c, r| c.summary_table(r, FsKind::System, false, &runs::PAPER_TABLE2)),
        run("table3", Experiment, "Two-day detail, system file system (off day / on day)", |c, r| c.table3(r)),
        run("table4", Experiment, "On/Off summary, system file system, READ requests only", |c, r| c.summary_table(r, FsKind::System, true, &runs::PAPER_TABLE4)),
        run("fig4", Experiment, "Service time distribution, system fs, Fujitsu (off vs on day)", |c, r| c.service_cdf(r, FsKind::System)),
        run("fig5", Experiment, "Block access distribution, system fs (both disks, reads and all)", |c, r| c.block_distribution(r, FsKind::System)),
        run("table5", Experiment, "On/Off summary, users file system", |c, r| c.summary_table(r, FsKind::Users, false, &runs::PAPER_TABLE5)),
        run("fig6", Experiment, "Service time distribution, users fs, Fujitsu (off vs on day)", |c, r| c.service_cdf(r, FsKind::Users)),
        run("fig7", Experiment, "Block access distribution, users fs (both disks, reads and all)", |c, r| c.block_distribution(r, FsKind::Users)),
        run("table6", Experiment, "On/Off summary, users file system, READ requests only", |c, r| c.summary_table(r, FsKind::Users, true, &runs::PAPER_TABLE6)),
        run("fig8", Experiment, "Seek reduction vs number of rearranged blocks (Toshiba, system fs)", |_, r| runs::fig8(r)),
        run("table7", Experiment, "Placement policy summary: % reduction in daily mean seek time vs FCFS/no-rearrangement", |c, r| c.table7(r)),
        run("table8", Experiment, "Placement policy detail, Toshiba (on days)", |c, r| c.policy_detail(r, DiskKind::Toshiba)),
        run("table9", Experiment, "Placement policy detail, Fujitsu (on days)", |c, r| c.policy_detail(r, DiskKind::Fujitsu)),
        run("table10", Experiment, "Rotational latency + transfer time by placement policy (reads, Toshiba)", |c, r| c.table10(r)),
        run("fig3", Experiment, "Placement policy illustration (worked example)", |_, r| runs::fig3(r)),
        run("ablate-scheduler", Ablation, "Scheduler x rearrangement: is part of the win SCAN synergy?", |_, r| ablations::scheduler(r)),
        run("ablate-analyzer", Ablation, "Reference-list size: exact counts vs bounded Space-Saving lists", |_, r| ablations::analyzer(r)),
        run("ablate-location", Ablation, "Reserved region location: middle of the disk vs the edge", |_, r| ablations::location(r)),
        run("ablate-drift", Ablation, "Day-to-day drift: how fast changing access patterns erode the benefit", |_, r| ablations::drift(r)),
        run("ablate-granularity", Ablation, "Selection granularity: hottest blocks vs hottest whole cylinders", |_, r| ablations::granularity(r)),
        run("ablate-incremental", Ablation, "Overnight movement cost: full clean-and-recopy vs incremental rearrangement", |_, r| ablations::incremental(r)),
        run("ablate-decay", Ablation, "Count history: nightly reset (the paper) vs exponential decay, across drift rates", |_, r| ablations::decay(r)),
        run("ablate-online", Ablation, "Overnight-only (the paper) vs continuous online rearrangement (controller-style)", |_, r| ablations::online(r)),
        run("ablate-shuffler", Ablation, "Block rearrangement vs whole-disk cylinder shuffling ([Vongsathorn & Carson 90])", |_, r| ablations::shuffler(r)),
        run("ablate-rotation", Ablation, "Rotational cost of placement under BACK-TO-BACK sequential reads (Table 10's regime)", |_, r| ablations::rotation(r)),
        run("faults", Faults, "Graceful degradation under seeded disk faults (extension)", |_, r| faults::sweep(r)),
        run("array", Array, "Array scale-out: N-disk striped volumes, per-disk rearrangement (extension)", |_, r| arrays::scale_out(r)),
        run("array-n2", Array, "Array smoke cell: N=2 striped volume (CI determinism gate)", |_, r| arrays::n2_cell(r)),
        run("array-redundant", Array, "Redundant arrays: whole-disk death, hot-spare fail-over, online rebuild (extension)", |_, r| arrays::redundant(r)),
        run("serve", Serve, "Serving front end: admission control, backpressure, DRR fairness (extension)", serve::sweep),
        run("serve-smoke", Serve, "Serving smoke cell: tiny adaptive member under overload (CI gate)", serve::smoke),
    ]
};

/// An id that names no row of the run table.
///
/// The error message lists every valid id so a typo at the CLI is a
/// one-round-trip fix rather than a scavenger hunt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownId {
    /// The offending id as given.
    pub id: String,
}

impl std::fmt::Display for UnknownId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "unknown experiment id `{}`; valid ids:", self.id)?;
        for run in RUNS {
            writeln!(f, "  {}", run.id)?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownId {}

/// One independent unit of work in a batch: a row of the run table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// The run id (`table2`, `ablate-drift`, `faults`, ...).
    pub id: String,
    /// Its row of [`RUNS`].
    pub run: &'static Run,
}

impl RunSpec {
    /// Look an id up in the run table, rejecting unknown ones up front —
    /// a batch with a typo fails before any work starts, not twenty
    /// minutes in.
    pub fn resolve(id: &str) -> Result<RunSpec, UnknownId> {
        let run = RUNS.iter().find(|run| run.id == id);
        let run = run.ok_or_else(|| UnknownId { id: id.to_string() })?;
        Ok(RunSpec {
            id: id.to_string(),
            run,
        })
    }

    /// Run it: hand the row's body a report carrying its id and title.
    pub fn dispatch(&self, campaign: &Campaign) -> Report {
        (self.run.body)(campaign, Report::new(self.run.id, self.run.title))
    }
}

/// A completed run: its report plus timing instrumentation.
#[derive(Debug)]
pub struct RunOutcome {
    /// What was run.
    pub spec: RunSpec,
    /// The run's report, or the panic message if it died.
    pub report: Result<Report, String>,
    /// Real time the run took on its worker.
    pub wall: Duration,
    /// Simulated time and days the run advanced (the registry's
    /// `engine.*` counters; see [`Campaign::meter`]).
    pub meter: RunMeter,
    /// How many cells the run cleared the registry and day series for
    /// (the `serve` sweep; see [`Campaign::cells`]): past one,
    /// `metrics` and `day_series` are the last cell's.
    pub cells: u64,
    /// Snapshot of the run's metrics registry (counters, gauges,
    /// histograms), taken on its worker right after the run finished.
    pub metrics: JsonValue,
    /// Per-day metric time series (`abr_obs::series`): one point per
    /// simulated day with counter deltas, tail-latency quantiles, and
    /// SLO verdicts. Deterministic — `wall.*` is excluded at source.
    pub day_series: JsonValue,
    /// The run's flight-recorder trace, when the batch traced.
    pub trace: Option<TraceBuffer>,
}

impl RunOutcome {
    /// Simulated seconds per real second — the throughput figure.
    pub fn sim_per_real(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            self.meter.sim.as_secs_f64() / wall
        } else {
            0.0
        }
    }
}

/// The result of executing a [`RunBatch`].
#[derive(Debug)]
pub struct BatchResult {
    /// Outcomes in *spec order*, regardless of completion order.
    pub outcomes: Vec<RunOutcome>,
    /// Worker count the batch ran with.
    pub jobs: usize,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
}

impl BatchResult {
    /// Ids of runs that panicked.
    pub fn failed_ids(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| o.report.is_err())
            .map(|o| o.spec.id.as_str())
            .collect()
    }

    /// The machine-readable benchmark record (`BENCH_experiments.json`).
    pub fn bench_json(&self) -> JsonValue {
        let mut runs = JsonValue::Array(Vec::new());
        for o in &self.outcomes {
            // Wall-clock profiling counters (`wall.*`) live here and
            // only here — never in result files or traces, which are
            // byte-compared across machines and worker counts.
            let mut run = jsn!({
                "id": o.spec.id.as_str(),
                "kind": o.spec.run.family.name(),
                "ok": o.report.is_ok(),
                "wall_s": o.wall.as_secs_f64(),
                "sim_s": o.meter.sim.as_secs_f64(),
                "sim_days": o.meter.days,
                "sim_per_real": o.sim_per_real(),
                "metrics": o.metrics.clone(),
                "day_series": o.day_series.clone(),
            });
            if o.cells > 1 {
                run.insert("cells", JsonValue::from(o.cells));
            }
            runs.push(run);
        }
        let suite: Vec<&str> = self.outcomes.iter().map(|o| o.spec.id.as_str()).collect();
        jsn!({
            "schema": "abr-bench/1",
            "suite": suite,
            "jobs": self.jobs,
            "host": jsn!({
                "os": std::env::consts::OS,
                "arch": std::env::consts::ARCH,
                "cpus": detected_parallelism(),
            }),
            "wall_s": self.wall.as_secs_f64(),
            "runs": runs,
        })
    }

    /// Write `BENCH_experiments.json` under `dir`.
    pub fn write_bench(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join("BENCH_experiments.json"),
            self.bench_json().pretty(),
        )
    }

    /// Render every run's trace as one JSONL document, in spec order:
    /// a header line `{"run": id, "events": n, "dropped": d}` per run,
    /// followed by that run's events one per line. Deterministic — the
    /// bytes depend only on the specs, never on `--jobs`.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            let Some(buf) = &o.trace else { continue };
            let header = jsn!({
                "run": o.spec.id.as_str(),
                "events": buf.events.len(),
                "dropped": buf.dropped,
            });
            out.push_str(&header.to_string());
            out.push('\n');
            out.push_str(&buf.to_jsonl());
        }
        out
    }

    /// Total (events retained, events dropped) across every traced run.
    pub fn trace_totals(&self) -> (u64, u64) {
        self.outcomes
            .iter()
            .filter_map(|o| o.trace.as_ref())
            .fold((0, 0), |(e, d), buf| {
                (e + buf.events.len() as u64, d + buf.dropped)
            })
    }

    /// Write the batch trace (see [`BatchResult::trace_jsonl`]) to
    /// `path`, returning the `(events, dropped)` totals.
    pub fn write_trace(&self, path: &Path) -> std::io::Result<(u64, u64)> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.trace_jsonl())?;
        Ok(self.trace_totals())
    }
}

/// The host's available parallelism (the `--jobs` default); 1 when
/// the probe fails.
pub fn detected_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A batch of independent runs plus the worker count to execute with.
pub struct RunBatch {
    specs: Vec<RunSpec>,
    jobs: usize,
    cache: Arc<DayCache>,
    trace: bool,
}

impl RunBatch {
    /// Build a batch from raw ids; any unknown id aborts construction.
    /// `jobs = 0` means "use [`detected_parallelism`]".
    pub fn new(ids: &[&str], jobs: usize) -> Result<RunBatch, UnknownId> {
        let specs = ids
            .iter()
            .map(|id| RunSpec::resolve(id))
            .collect::<Result<Vec<_>, _>>()?;
        let jobs = if jobs == 0 {
            detected_parallelism()
        } else {
            jobs
        };
        Ok(RunBatch {
            specs,
            jobs,
            cache: Arc::new(DayCache::default()),
            trace: false,
        })
    }

    /// Enable per-request flight-recorder tracing for every run in the
    /// batch. Traced runs bypass the shared [`DayCache`] (each gets a
    /// private campaign): a cache hit would silently skip the traced
    /// day's I/O, making the trace depend on which worker computed the
    /// day first — the opposite of the determinism the trace promises.
    pub fn set_trace(&mut self, trace: bool) {
        self.trace = trace;
    }

    /// Whether the batch traces its runs.
    pub fn trace(&self) -> bool {
        self.trace
    }

    /// Worker count this batch will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The specs in execution-submission order.
    pub fn specs(&self) -> &[RunSpec] {
        &self.specs
    }

    /// Execute every run and return outcomes in spec order.
    ///
    /// With `jobs = 1` (or a single spec) the batch runs serially on
    /// the calling thread. Otherwise a scoped pool of `jobs` workers
    /// pulls specs off an atomic index; a panicking run is caught and
    /// recorded as a failed outcome without taking down its worker.
    #[expect(clippy::expect_used, reason = "runs catch panics, so every slot fills")]
    pub fn execute(&self) -> BatchResult {
        #[allow(
            clippy::disallowed_methods,
            reason = "batch wall time; reported, never a result input"
        )]
        let t0 = Instant::now();
        let workers = self.jobs.min(self.specs.len()).max(1);
        let mut outcomes: Vec<Option<RunOutcome>> = Vec::new();
        if workers <= 1 {
            for spec in &self.specs {
                outcomes.push(Some(self.execute_one(spec)));
            }
        } else {
            let slots: Mutex<Vec<Option<RunOutcome>>> =
                Mutex::new((0..self.specs.len()).map(|_| None).collect());
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = self.specs.get(idx) else {
                            break;
                        };
                        let outcome = self.execute_one(spec);
                        slots.lock().expect("batch slots")[idx] = Some(outcome);
                    });
                }
            });
            outcomes = slots.into_inner().expect("batch slots");
        }
        BatchResult {
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every slot filled"))
                .collect(),
            jobs: workers,
            wall: t0.elapsed(),
        }
    }

    /// Run one spec on the current thread, metering it.
    fn execute_one(&self, spec: &RunSpec) -> RunOutcome {
        // Full clear (not reset): worker threads are reused, and a
        // zero-valued definition left by a previous run would make
        // this run's snapshot depend on scheduling. It also zeroes the
        // run meter, which reads the registry.
        registry_clear();
        day_series_reset();
        slo_install(default_slos());
        if self.trace {
            trace_start(DEFAULT_TRACE_CAPACITY);
        }
        #[allow(
            clippy::disallowed_methods,
            reason = "per-run wall time; reported, never a result input"
        )]
        let t0 = Instant::now();
        let campaign = if self.trace {
            Campaign::new()
        } else {
            Campaign::with_cache(Arc::clone(&self.cache))
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| spec.dispatch(&campaign)));
        let wall = t0.elapsed();
        // Always harvest, even after a panic: worker threads are reused
        // and a leaked recorder (or series/objective set) would bleed
        // into the next run.
        let trace = trace_take();
        let day_series = day_series_take();
        slo_clear();
        RunOutcome {
            spec: spec.clone(),
            report: result.map_err(panic_message),
            wall,
            meter: campaign.meter(),
            cells: campaign.cells(),
            metrics: registry_snapshot(),
            day_series,
            trace,
        }
    }
}

/// The default tail-latency objective set installed for every bench
/// run. Objectives are recorded, not gating: a violated SLO shows up in
/// the day series and the run report, never as a failed run. Metrics an
/// objective names but a run never touches pass vacuously, so driver
/// SLOs are harmless on array runs and vice versa.
#[expect(clippy::expect_used, reason = "constant SLO strings that parse")]
pub fn default_slos() -> Vec<Slo> {
    [
        "p99(driver.service_us) < 150ms",
        "p999(driver.service_us) < 1s",
        "p99(driver.queueing_us) < 500ms",
        "p99(array.request_us) < 250ms",
        "p999(serve.request_us) < 2s",
        "p99(serve.queue_us) < 1s",
    ]
    .iter()
    .map(|s| Slo::parse(s).expect("default SLO parses"))
    .collect()
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parent's `experiments --list`, in its order.
    const LISTING: &str = "table1 table2 table3 table4 fig4 fig5 table5 fig6 fig7 table6 fig8 \
        table7 table8 table9 table10 fig3 ablate-scheduler ablate-analyzer ablate-location \
        ablate-drift ablate-granularity ablate-incremental ablate-decay ablate-online \
        ablate-shuffler ablate-rotation faults array array-n2 array-redundant serve serve-smoke";

    #[test]
    fn run_table_lists_resolves_and_dispatches_every_id() {
        // The listing: the parent's 32 ids in the parent's order, so no
        // id twice, and the two family selections the CLI makes.
        let listing: Vec<&str> = LISTING.split_whitespace().collect();
        let ids: Vec<&str> = RUNS.iter().map(|run| run.id).collect();
        assert_eq!((ids.len(), &ids), (32, &listing));
        assert_eq!(Family::Experiment.ids(), &listing[..16]);
        assert_eq!(Family::Ablation.ids(), &listing[16..26]);

        // An unknown id is a typed error whose message lists them all.
        let err = RunSpec::resolve("table99").unwrap_err();
        assert_eq!(err.id, "table99");
        let lines: Vec<String> = listing.iter().map(|id| format!("  {id}\n")).collect();
        assert_eq!(
            err.to_string(),
            format!(
                "unknown experiment id `table99`; valid ids:\n{}",
                lines.concat()
            )
        );

        // Every row resolves to itself and has a dispatcher arm: the
        // whole table runs (on the shared day cache, like the CLI) and
        // each report carries its row's id and title.
        let batch = RunBatch::new(&listing, 0).unwrap();
        for (spec, run) in batch.specs().iter().zip(RUNS) {
            assert_eq!((spec.id.as_str(), spec.run), (run.id, run));
        }
        let result = batch.execute();
        assert_eq!(result.failed_ids(), Vec::<&str>::new());
        for (outcome, run) in result.outcomes.iter().zip(RUNS) {
            let report = outcome.report.as_ref().unwrap();
            assert_eq!((report.id, report.title), (run.id, run.title));
            assert!(report
                .text
                .starts_with(&format!("== {}: {} ==\n", run.id, run.title)));
        }

        // The byte gate: every file `Report::save` would write is the
        // committed one, and every committed report file (72: `.txt`,
        // `.json` and the `.csv` companions; the run record is git-ignored
        // wall-clock data) is written by some id. A change that is meant
        // to move the canon regenerates and commits `results/` with it.
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut compared = std::collections::BTreeSet::new();
        let mut drifted = Vec::new();
        for outcome in &result.outcomes {
            for (name, bytes) in outcome.report.as_ref().unwrap().files() {
                let committed = std::fs::read_to_string(results.join(&name))
                    .unwrap_or_else(|e| panic!("results/{name} unreadable: {e}"));
                if bytes != committed {
                    let line = bytes
                        .lines()
                        .zip(committed.lines())
                        .take_while(|(a, b)| a == b);
                    drifted.push(format!("results/{name} (line {})", line.count() + 1));
                }
                assert!(compared.insert(name), "two ids write one file");
            }
        }
        assert!(drifted.is_empty(), "drifted from the canon: {drifted:?}");
        #[allow(
            clippy::disallowed_methods,
            reason = "the names are collected into a sorted set"
        )]
        let listing = std::fs::read_dir(&results).unwrap();
        let canon: std::collections::BTreeSet<String> = listing
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| name != "BENCH_experiments.json")
            .filter(|name| {
                [".txt", ".json", ".csv"]
                    .iter()
                    .any(|ext| name.ends_with(ext))
            })
            .collect();
        let unchecked: Vec<_> = canon.difference(&compared).collect();
        assert!(unchecked.is_empty(), "written by no id: {unchecked:?}");
        assert_eq!(compared.len(), 72);
    }

    /// The registry is stringly typed: producers register
    /// `r.counter("driver.submitted")` in one crate, consumers read
    /// `snap["counters"]["driver.submitted"]` in this one. Join what
    /// real runs register (a single disk with faults, a redundant
    /// array, the serving front end) against every consumer, in both
    /// directions. Exempt: `wall.*` (formatted by the profiling timer,
    /// harvested wholesale by `folded_profile`) and the indexed
    /// `array.disk.{i}.*` family (one triple per member, named by
    /// `format!`; the run record carries it for whoever asks which
    /// member was slow).
    #[test]
    fn registry_and_consumers_name_the_same_metrics() {
        use crate::runreport::{
            QUEUE_AGE_MAX_US, REPORT_COUNTERS, REPORT_GAUGES, STARVED_TOTAL, TABLE_METRICS,
        };
        use std::collections::BTreeSet;

        let batch = RunBatch::new(&["faults", "array-redundant", "serve-smoke"], 1).unwrap();
        let mut registered = BTreeSet::new();
        for outcome in batch.execute().outcomes {
            for kind in ["counters", "gauges", "hires"] {
                for (name, _) in outcome.metrics[kind].as_object().unwrap() {
                    if !name.starts_with("wall.") && !name.starts_with("array.disk.") {
                        registered.insert((kind, name.clone()));
                    }
                }
            }
        }

        let first = |rows: &[(&'static str, &str)]| rows.iter().map(|row| row.0).collect();
        let slos = default_slos();
        let consumers: [(&str, Vec<&str>); 8] = [
            ("counters", first(REPORT_COUNTERS)),
            ("counters", arrays::ROW_COUNTERS.to_vec()),
            ("counters", vec![STARVED_TOTAL]),
            ("gauges", first(REPORT_GAUGES)),
            ("gauges", vec![QUEUE_AGE_MAX_US]),
            ("hires", first(TABLE_METRICS)),
            ("hires", serve::ROW_HIRES.to_vec()),
            ("hires", slos.iter().map(|s| s.metric.as_str()).collect()),
        ];
        let consumed: BTreeSet<(&str, String)> = consumers
            .iter()
            .flat_map(|(kind, names)| names.iter().map(|name| (*kind, name.to_string())))
            .collect();

        let dead: Vec<_> = registered.difference(&consumed).collect();
        let phantom: Vec<_> = consumed.difference(&registered).collect();
        assert!(
            dead.is_empty() && phantom.is_empty(),
            "registered but read by no report row, result row or SLO: {dead:?}\n\
             read by a consumer but registered by no run: {phantom:?}"
        );
    }

    #[test]
    fn batch_rejects_bad_ids_up_front() {
        // The second was a sub-command once (spelled in halves so a grep
        // for the removed gate finds nothing in the tree); it is an id
        // like any other now, and not one of ours.
        for bad in ["tabel2", concat!("bench", "-compare")] {
            let err = RunBatch::new(&["table1", bad], 2).map(|_| ()).unwrap_err();
            assert_eq!(err.id, bad);
        }
    }

    #[test]
    fn serial_and_parallel_outcomes_stay_in_spec_order() {
        let ids = ["fig3", "table1"];
        for jobs in [1, 4] {
            let batch = RunBatch::new(&ids, jobs).unwrap();
            let result = batch.execute();
            let got: Vec<&str> = result.outcomes.iter().map(|o| o.spec.id.as_str()).collect();
            assert_eq!(got, ids, "jobs={jobs}");
            assert!(result.failed_ids().is_empty());
        }
    }

    #[test]
    fn bench_json_records_per_run_walls_and_host() {
        // `serve-smoke` is the cheapest id that drives a disk (5 ms).
        let batch = RunBatch::new(&["serve-smoke"], 1).unwrap();
        let result = batch.execute();
        let j = result.bench_json();
        assert_eq!(j["schema"], "abr-bench/1");
        assert_eq!(j["jobs"], 1);
        assert!(j["host"]["cpus"].as_u64().unwrap() >= 1);
        // Every key of the "CLI" bullet of bench/README.md §"The API
        // surface the benchmark calls".
        let run = &j["runs"][0];
        assert_eq!(run["id"], "serve-smoke");
        assert_eq!(run["ok"], true);
        // One cell: its metrics are the whole run's.
        assert_eq!(result.outcomes[0].cells, 1);
        assert!(run.get("cells").is_none());
        assert!(run["wall_s"].as_f64().unwrap() >= 0.0);
        let counters = &run["metrics"]["counters"];
        let submitted = counters["driver.submitted"].as_u64().unwrap();
        assert!(submitted > 0);
        assert_eq!(counters["driver.completed"].as_u64(), Some(submitted));
        assert_eq!(counters["driver.failed"].as_u64(), Some(0));
        assert!(counters["wall.setup.ns"].as_u64().unwrap() > 0);
        for name in ["driver.service_us", "driver.queueing_us"] {
            let h = &run["metrics"]["hires"][name];
            assert_eq!(h["count"].as_u64(), Some(submitted), "{name}");
            assert!(h["sum"].as_u64().unwrap() >= h["max"].as_u64().unwrap());
            let buckets = h["buckets"].as_array().unwrap();
            let in_buckets: u64 = buckets.iter().map(|b| b[1].as_u64().unwrap()).sum();
            assert!(buckets.len() < 32 && in_buckets == submitted, "{name}");
        }
        // It is a run record, not a baseline: the batch and the host
        // carry these keys and nothing derived for comparing records.
        let keys = |v: &JsonValue| -> Vec<String> {
            let fields = v.as_object().unwrap();
            fields.iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(
            keys(&j),
            ["schema", "suite", "jobs", "host", "wall_s", "runs"]
        );
        assert_eq!(keys(&j["host"]), ["os", "arch", "cpus"]);
        // `abrctl report` and bench/ read it back with our own parser.
        let reparsed = JsonValue::parse(&j.pretty()).unwrap();
        assert_eq!(reparsed["runs"][0]["id"], "serve-smoke");
    }
}
