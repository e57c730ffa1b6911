//! # abr-obs — observability substrate
//!
//! The paper's adaptive mechanism is driven entirely by what the driver
//! can *observe* about the request stream (§4.1.4–§4.1.5). This crate is
//! the reproduction's equivalent of the measurement rig the authors
//! wired into their SunOS kernel, extended to modern observability
//! practice:
//!
//! * [`span`] — per-request lifecycle spans (arrival → queue → dispatch
//!   → seek/rotation/transfer → completion, with retry and fault edges)
//!   plus arranger/daemon activity events, all timestamped in
//!   *simulated* time so traces are bit-reproducible.
//! * [`recorder`] — a bounded flight-recorder ring buffer with exact
//!   drop counting: overhead is fixed no matter how long a run is, and
//!   recording is a thread-local concern so `--jobs N` parallelism
//!   cannot perturb a trace.
//! * [`registry`] — a unified metrics registry (counters, gauges,
//!   high-resolution [`hires::LogHistogram`]s) with static handles,
//!   snapshotable as deterministic JSON through [`abr_sim::json`].
//! * [`series`] — a per-day metric time series: registry deltas
//!   snapshotted at each simulated day boundary, so tail latency and
//!   adaptation are visible day over day, not just end-of-run.
//! * [`slo`] — declarative tail-latency objectives
//!   (`p99(driver.service_us) < 150ms`) evaluated per day against the
//!   series deltas, with violations recorded.
//! * [`timer`] — scoped *wall-clock* timers feeding the same registry,
//!   so simulated-time and real-time cost of each pipeline phase
//!   (analyzer, placement, event loop) are reported side by side.
//!
//! ## Which histogram is for what
//!
//! The workspace has two histogram types, one per job:
//!
//! * `abr_sim::hist::Histogram` is the paper's measurement: the
//!   driver's monitor at 1 ms resolution (§4.1.5), read out through
//!   `DKIOCREADSTATS`. Every number in `results/*` comes from it.
//! * [`LogHistogram`] is tail latency for operators: the only histogram
//!   the registry holds, feeding run snapshots, the per-day series and
//!   the SLO verdicts (`p99(driver.service_us) < 150ms`), in
//!   microseconds with ~3.1 % buckets. Nothing in `results/*` except
//!   `BENCH_experiments.json` reads it.
//!
//! ## Determinism contract
//!
//! Everything recorded into the trace is derived from simulated time and
//! the deterministic request stream; wall-clock measurements go only
//! into registry metrics under the `wall.` prefix, which callers must
//! keep out of byte-compared artifacts. The CI determinism gate relies
//! on this split: `experiments --jobs 4 --trace` must produce the same
//! trace bytes as `--jobs 1`.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod hires;
pub mod recorder;
pub mod registry;
pub mod series;
pub mod slo;
pub mod span;
pub mod timer;

use std::cell::RefCell;

pub use hires::LogHistogram;
pub use recorder::{
    record, record_with, trace_active, trace_pause, trace_start, trace_take, FlightRecorder,
    TraceBuffer, TracePause, DEFAULT_TRACE_CAPACITY,
};
pub use registry::{
    registry_clear, registry_reset, registry_snapshot, with_registry, CounterId, GaugeId, HiresId,
    Registry,
};
pub use series::{day_series_len, day_series_record, day_series_reset, day_series_take};
pub use slo::{slo_clear, slo_install, Slo, SloQuantile};
pub use span::{MoveKind, ObsEvent, RearrangePhase, RequestSpan};
pub use timer::{time_scope, ScopedWallTimer};

/// Everything one thread observes about its run: the registry, the
/// installed objectives, the flight recorder and the day series. One
/// run executes on one thread, so a run's observability needs no locks
/// and parallel runs cannot interleave; one value also lets the day
/// boundary read the registry, judge the objectives and write the
/// point under a single borrow.
struct Obs {
    registry: Registry,
    slos: Vec<Slo>,
    recorder: Option<FlightRecorder>,
    series: series::DaySeries,
}

thread_local! {
    static OBS: RefCell<Obs> = const {
        RefCell::new(Obs {
            registry: Registry::new(),
            slos: Vec::new(),
            recorder: None,
            series: series::DaySeries::new(),
        })
    };
}

/// Run `f` with this thread's [`Obs`]. `f` must not call back into any
/// of this crate's thread-level functions: the context is borrowed.
fn with_obs<T>(f: impl FnOnce(&mut Obs) -> T) -> T {
    OBS.with(|o| f(&mut o.borrow_mut()))
}
