//! # abr-sim — discrete-event simulation substrate
//!
//! The measurement substrate for the adaptive block rearrangement
//! reproduction (Akyürek & Salem, ICDE 1993). The paper instruments a real
//! SunOS device driver with microsecond-resolution timers and
//! 1-millisecond-resolution distribution tables; this crate provides the
//! equivalent machinery for a simulated driver:
//!
//! * [`time`] — simulated time as integer microseconds (the paper's
//!   measurement resolution), plus duration arithmetic.
//! * [`event`] — a deterministic event queue for discrete-event simulation.
//! * [`rng`] — a single-seed deterministic random number facility with
//!   named substreams, so every experiment is exactly reproducible.
//! * [`dist`] — the random distributions the workload models need
//!   (Zipf with numeric calibration, exponential, discrete weighted tables).
//! * [`hash`] — deterministic fixed-key hashing for hot-path maps (the
//!   std hasher's per-process SipHash key costs ~2× per probe and buys
//!   nothing against internal keys).
//! * [`arrival`] — arrival processes: Poisson and bursty ON/OFF trains,
//!   plus the periodic-update write burst pattern of the UNIX `update`
//!   daemon.
//! * [`hist`] — histograms at 1 ms resolution (like the driver's monitor
//!   tables), discrete distribution tables (seek distances), and cumulative
//!   statistics at full microsecond resolution.
//! * [`stats`] — small online summary statistics (min/avg/max across days).
//! * [`json`] — dependency-free, order-preserving JSON values with
//!   deterministic serialization, for the machine-readable experiment and
//!   benchmark artifacts (`results/*.json`, `BENCH_*.json`) and for the
//!   state `abrctl` persists beside a disk image.
//! * [`narrow`] / [`sanitize`] — checked integer narrowing for geometry
//!   arithmetic, and the invariant checks (permutation, bijection,
//!   monotone counter) the `sanitize` feature of the layers above calls.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod arrival;
pub mod dist;
pub mod event;
pub mod hash;
pub mod hist;
pub mod json;
pub mod narrow;
pub mod rng;
pub mod sanitize;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use hist::{DistTable, Histogram, TimeStats};
pub use json::{FromJson, JsonError, JsonValue};
pub use rng::SimRng;
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
