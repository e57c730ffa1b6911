//! # abr-array — a multi-disk volume over adaptive drivers
//!
//! The paper rearranges blocks on one spindle; this crate scales the
//! I/O path out to N spindles. An [`ArrayVolume`] presents N
//! independent [`abr_driver::AdaptiveDriver`]s behind a single flat
//! block address space:
//!
//! * [`stripe`] — the address map: classic striping with a
//!   configurable chunk size, concatenation, and hash-sharding; and,
//!   under a redundancy scheme, the *redundancy groups* — which
//!   locations protect which ([`StripeMap::group_at`]).
//! * [`volume`] — the dispatcher: splits requests into per-disk
//!   sub-requests, merges completions in simulated-time order, and
//!   publishes the `array.*` registry metrics. Its maintenance half
//!   (`maint.rs`: hot spares, resilver, scrub, per-disk health — dead /
//!   failed / rebuilding / degraded / lost blocks) is a second `impl`
//!   of the same type.
//! * [`experiment`] — the measured-day harness over a volume, with one
//!   rearrangement daemon *per member disk* so hot blocks migrate into
//!   each spindle's own reserved region.
//!
//! ## Redundancy
//!
//! A volume can carry a [`stripe::Redundancy`] scheme — mirroring
//! (striped over half the members, copied to the other half) or
//! rotated block parity. Redundant volumes serve reads through
//! whole-disk failures, re-silver hot-spare replacements under a
//! windowed I/O budget, and background-scrub for latent defects. All
//! of that is written once over the group invariant — the XOR over a
//! group's members is zero — not once per scheme. See the [`volume`]
//! module docs for the full model.
//!
//! ## Determinism invariants
//!
//! Array runs are byte-identical across thread counts because (1) the
//! stripe map is immutable after construction, (2) simultaneous
//! completions retire in disk-index order, and (3) volume metrics fold
//! per-disk windows with order-insensitive merges. An N=1 volume is
//! byte-identical to the single-disk harness — the experiment loop is
//! a line-for-line mirror of `abr_core::Experiment`.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod experiment;
pub mod stripe;
pub mod volume;

pub use experiment::{ArrayConfig, ArrayDayMetrics, ArrayExperiment};
pub use stripe::{Redundancy, StripeMap, StripePolicy};
pub use volume::{ArrayHealth, ArrayVolume, DiskHealth, DiskIoCounts, VolCompletion, VolRequestId};
