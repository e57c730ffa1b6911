//! # abr-bench — experiment regenerators
//!
//! One regenerator per table and figure of the paper's evaluation
//! (§5), runnable via the `experiments` binary:
//!
//! ```text
//! cargo run --release -p abr-bench --bin experiments            # everything
//! cargo run --release -p abr-bench --bin experiments -- table2  # one id
//! ```
//!
//! Each regenerator runs the same protocol the paper describes (daily
//! on/off alternation, per-day rearrangement from the previous day's
//! reference counts) on the simulated file server, and prints its rows
//! next to the paper's published numbers. Results are also written to
//! `results/<id>.txt` and `results/<id>.json` for EXPERIMENTS.md.
//!
//! Every id — paper tables and figures, ablations, the fault sweep,
//! array and serving runs — is a row of one table, [`engine::RUNS`],
//! which carries its body; [`RunSpec::dispatch`] calls it.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod ablations;
pub mod arrays;
pub mod engine;
pub mod faults;
pub mod report;
pub mod runreport;
pub mod runs;
pub mod serve;

pub use engine::{RunBatch, RunSpec, UnknownId};
pub use report::Report;
