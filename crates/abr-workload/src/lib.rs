//! # abr-workload — synthetic file-server workloads
//!
//! The paper measured a live departmental NFS file server (Sakarya) for
//! weeks. Those request streams are unavailable, so this crate generates
//! synthetic file-level workloads whose *disk-level* characteristics match
//! what the paper reports:
//!
//! * **system file system** (§5, §5.2): executables and libraries shared
//!   read-only by ~40 users on 14 workstations. Highly skewed — "fewer
//!   than 2000 blocks absorbed all of the requests, and the 100 hottest
//!   blocks absorbed about 90%" (§5.4); writes come only from i-node
//!   bookkeeping and are concentrated on a very small block set; arrivals
//!   are very bursty (§5.2).
//! * **users file system** (§5.3): home directories of 10–20 users,
//!   read/write. Less skew, writes from file creation and extension
//!   (which rearrangement cannot help), higher day-to-day variation.
//!
//! [`profile`] holds the tunable parameters with the paper-calibrated
//! presets; [`state`] owns the stateful generator that the experiment
//! harness drives op by op; [`trace`] provides a serializable block-level
//! trace format for record/replay.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod profile;
pub mod state;
pub mod trace;

pub use profile::{OpMix, WorkloadProfile};
pub use state::{Op, WorkloadState};
pub use trace::{TraceEvent, TraceLog};
