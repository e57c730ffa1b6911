//! # abr-disk — disk mechanism model
//!
//! A calibrated model of the two SCSI disks from Table 1 of *Adaptive
//! Block Rearrangement* (Akyürek & Salem): the Toshiba MK156F (135 MB,
//! 815 cylinders) and the Fujitsu M2266 (1 GB, 1658 cylinders, 256 KB
//! read-ahead track buffer). The model computes, for each request, the
//! same service-time decomposition the paper measures: seek time (from the
//! paper's measured piecewise seek curves), rotational latency (3600 RPM
//! rotational position tracking), and media transfer time.
//!
//! Modules:
//! * [`geometry`] — cylinders/tracks/sectors layout and address math.
//! * [`seek`] — piecewise seek-time curves (Table 1).
//! * [`models`] — the two disk presets, plus a small synthetic disk for
//!   tests.
//! * [`disk`] — the disk mechanism itself: head position, rotation,
//!   track-buffer read-ahead, per-request [`disk::ServiceBreakdown`].
//! * [`store`] — sparse in-memory sector store for data-integrity checks.
//! * [`label`] — the UNIX-style disk label: partitions, virtual geometry,
//!   and the "rearranged disk" marker with the reserved-area extent
//!   (§4.1.1).
//! * [`fault`] — deterministic fault injection: transient errors, hard
//!   media errors (a growing defect list), torn writes, power cuts.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod disk;
pub mod fault;
pub mod geometry;
pub mod image;
pub mod label;
pub mod models;
pub mod seek;
pub mod store;

pub use disk::{Disk, ServiceBreakdown};
pub use fault::{DiskError, DiskFault, FaultCounters, FaultInjector, FaultPlan};
pub use geometry::{Geometry, SectorAddr};
pub use label::{DiskLabel, Partition, ReservedArea};
pub use models::DiskModel;
pub use seek::SeekCurve;
pub use store::SectorStore;

/// Bytes per sector, fixed at the SCSI-classic 512.
pub const SECTOR_SIZE: usize = 512;

/// [`SECTOR_SIZE`] as `u32`, for sector arithmetic done in 32-bit
/// fields (lint rule C001 bans bare narrowing casts in those modules).
pub const SECTOR_SIZE_U32: u32 = 512;
