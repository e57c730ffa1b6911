//! # abr — Adaptive Block Rearrangement
//!
//! A complete reproduction of *Adaptive Block Rearrangement* (Akyürek &
//! Salem, ICDE 1993 / UMIACS-TR-93-28.1): an adaptive disk device driver
//! that monitors the block request stream, estimates block reference
//! frequencies online, and periodically copies the hottest blocks into a
//! reserved group of cylinders near the middle of the disk to cut seek
//! times.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`sim`] — discrete-event simulation substrate (clock, events, RNG,
//!   distributions, histograms).
//! * [`disk`] — disk mechanism model with the paper's Toshiba MK156F and
//!   Fujitsu M2266 geometry and seek curves.
//! * [`driver`] — the adaptive device driver: strategy routine, block
//!   table, disk queue schedulers, ioctls, request/performance monitors.
//! * [`fs`] — FFS-lite file system (cylinder groups, rotational
//!   interleaving, buffer cache, periodic update daemon).
//! * [`workload`] — synthetic NFS file-server workloads replicating the
//!   paper's measured request-stream characteristics.
//! * [`core`] — the paper's contribution: reference stream analyzer,
//!   placement policies, block arranger, rearrangement daemon, experiment
//!   harness.
//!
//! See `README.md` for a tour and `examples/` for runnable entry points.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub use abr_core as core;
pub use abr_disk as disk;
pub use abr_driver as driver;
pub use abr_fs as fs;
pub use abr_sim as sim;
pub use abr_workload as workload;
