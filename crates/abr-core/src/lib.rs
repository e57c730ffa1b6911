//! # abr-core — adaptive block rearrangement
//!
//! The paper's contribution (Akyürek & Salem, *Adaptive Block
//! Rearrangement*, ICDE 1993): estimate block reference frequencies by
//! monitoring the request stream, and periodically copy the hottest
//! blocks into a reserved cylinder group near the middle of the disk,
//! placed by the organ-pipe heuristic.
//!
//! * [`analyzer`] — the *reference stream analyzer* (§4.2): exact
//!   counting, plus the bounded-memory variant with a replacement
//!   heuristic (after [Salem 92, Salem 93]).
//! * [`placement`] — the three placement policies of §4.2: organ-pipe,
//!   interleaved, and serial.
//! * [`arranger`] — the *block arranger*: turns a hot list and a policy
//!   into `DKIOCCLEAN` + `DKIOCBCOPY` calls against the driver.
//! * [`daemon`] — the rearrangement daemon: periodic request-table reads
//!   (every 2 minutes in the paper) feeding the analyzer, and the daily
//!   rearrangement cycle.
//! * [`dayloop`] — the one measured-day event loop, generic over the
//!   device (a driver, or a volume of drivers) and the traffic source,
//!   plus the shared overnight per-member pass.
//! * [`experiment`] — the measurement harness reproducing the paper's
//!   experimental method: the day loop under a file system and a
//!   synthetic workload, running multi-day on/off protocols with
//!   per-day metrics matching the paper's tables.
//! * [`metrics`] — per-day and per-run metric types.
//! * [`producer`] — open-loop sources run on a thread of their own: the
//!   file-system workload, made one day ahead of the device, and (in
//!   `abr_serve`) the serving clients' arrivals.
//! * [`stream`] — recorded workload streams: what an open-loop source
//!   submitted, produced once and replayed into every device that shares
//!   its key.
//! * [`mod@replay`] — trace-driven evaluation (the companion ICDE 1993
//!   paper's methodology): record a day's block-level stream, replay it
//!   against differently-configured drivers with zero workload variance.
//! * [`recovery`] — windowed I/O budgets for background recovery work
//!   (array rebuild and scrub), applying the same bounded-moves-per-
//!   window discipline the arranger uses for block copies.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod arranger;
pub mod daemon;
pub mod dayloop;
pub mod experiment;
pub mod metrics;
pub mod placement;
pub mod producer;
pub mod recovery;
pub mod replay;
pub mod stream;

pub use analyzer::{BoundedAnalyzer, DecayingAnalyzer, FullAnalyzer, HotBlock, ReferenceAnalyzer};
pub use arranger::BlockArranger;
pub use daemon::RearrangementDaemon;
pub use dayloop::{DayLoop, DayReport, Traffic};
pub use experiment::{
    experiment_member, run_meter, run_meter_add, run_meter_reset, share_stream, Experiment,
    ExperimentConfig, FsLoop, RunMeter, OVERNIGHT,
};
pub use metrics::{BlockCounts, DayMetrics, DirMetrics};
pub use placement::{Interleaved, OrganPipe, PlacementPolicy, PolicyKind, Serial, SlotMap};
pub use producer::{FsProducer, FsTraffic, OpenLoop, Piece, Producer};
pub use recovery::{IoBudget, MaintenanceConfig};
pub use replay::{replay, ReplayConfig};
pub use stream::{DaySource, DayStream, Recorded, Stream, StreamKey, TraceTraffic};
