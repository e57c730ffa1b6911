//! # abr-driver — the adaptive disk device driver
//!
//! A faithful model of the modified SunOS 4.1.1 SCSI disk driver of
//! §4 of *Adaptive Block Rearrangement* (Akyürek & Salem):
//!
//! * [`request`] — I/O request types and block addressing.
//! * [`layout`] — layout of the reserved area: the on-disk block table
//!   region followed by packed block slots (§4.1.1).
//! * [`blocktable`] — the *block table* mapping original physical block
//!   addresses to their reserved-area copies, with dirty bits and an
//!   on-disk copy for recovery (§4.1.2).
//! * [`sched`] — disk queueing policies: FCFS, SCAN (the stock SunOS
//!   policy), C-SCAN and SSTF, each a range probe or two over the
//!   driver's cylinder-ordered request queue (`queue.rs`).
//! * [`monitor`] — the request monitor (a bounded in-kernel table of
//!   recent requests, §4.1.4) and the performance monitor (seek-distance
//!   distributions in arrival and scheduled order, service and queueing
//!   time distributions, separately for reads and writes, §4.1.5).
//! * [`driver`] — the driver itself: attach, strategy, the dispatch /
//!   interrupt completion engine, and the ioctl entry points
//!   (`DKIOCBCOPY`, `DKIOCCLEAN`, monitor reads, §4.1.3).
//! * [`device`] — the [`BlockDevice`] trait: the narrow interface a
//!   measured-day loop drives, implemented by the driver and by volumes
//!   built over several drivers.
//! * [`physio`] — the raw (character) interface, splitting large requests
//!   into block-sized subrequests (§4.1.2).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod blocktable;
pub mod cylmap;
pub mod device;
pub mod driver;
pub mod layout;
pub mod monitor;
pub mod physio;
mod queue;
pub mod request;
pub mod sched;

pub use blocktable::BlockTable;
pub use device::BlockDevice;
pub use driver::{AdaptiveDriver, Completion, DriverConfig, DriverError, Ioctl, IoctlReply};
pub use layout::ReservedLayout;
pub use monitor::{PerfMonitor, PerfSnapshot, RequestMonitor, RequestRecord};
#[cfg(feature = "sanitize")]
pub use queue::QueueCorruption;
pub use request::{IoRequest, Payload, RequestId};
pub use sched::SchedulerKind;
