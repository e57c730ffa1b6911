//! # abr-serve — a concurrent request front end over adaptive volumes
//!
//! The paper measures one spindle under a replayed trace. This crate
//! turns the reproduction into something shaped like a *service*: N
//! simulated clients generate open-loop block I/O (seeded Poisson or
//! bursty ON/OFF arrival processes), and a front end decides — per
//! request, in simulated time — whether to accept, throttle, or shed
//! the work before it reaches an [`abr_array::ArrayVolume`].
//!
//! The front end is three mechanisms deep, applied in order:
//!
//! 1. **Token-bucket backpressure, per client** ([`TokenBucket`]): a
//!    client whose bucket is dry has its request *throttled* — refused
//!    at the door so a misbehaving client cannot flood the shared
//!    accept queue. Refill arithmetic is exact integer micro-tokens,
//!    so admission decisions are bit-reproducible.
//! 2. **Bounded admission** : requests that pass their bucket enter a
//!    shared accept queue with a hard capacity. When the volume cannot
//!    keep up — overload, or a degraded array serving reads from a
//!    survivor — the queue hits its bound and further requests are
//!    *shed* with explicit accounting, instead of growing an unbounded
//!    backlog. Memory is O(capacity) no matter the arrival rate.
//! 3. **Deficit round-robin dispatch** ([`Drr`]): accepted requests
//!    drain to the volume through a DRR scan over the per-client
//!    queues, so one hot client cannot starve the rest of the
//!    dispatch slots. Service shares stay proportional even when every
//!    queue is permanently backlogged.
//!
//! Everything is deterministic: seeded substreams per client, no
//! wall-clock reads, and one thread for everything that depends on the
//! server — a producer thread draws only the clients' open-loop arrivals
//! ([`abr_core::Producer`]) — so the same configuration produces the
//! same `serve.*` metrics byte for byte at any `--jobs` value and on any
//! number of cores.
//!
//! Observability: the front end publishes `serve.*` counters
//! (`arrivals`, `accepted`, `shed_total`, `throttled_total`,
//! `completed`, `errors`), queue-depth gauges, and two high-resolution
//! histograms — `serve.request_us` (admission to completion) and
//! `serve.queue_us` (admission to dispatch) — into the
//! [`abr_obs`] registry, and records a day-series point per epoch, so
//! `abrctl report` renders serving runs like any other.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod admission;
mod arrivals;
pub mod config;
pub mod drr;
pub mod server;

pub use admission::TokenBucket;
pub use config::{ArrivalKind, ServeConfig};
pub use drr::Drr;
pub use server::{EpochStats, ServeExperiment, ServeSummary};
