//! Trace-driven evaluation.
//!
//! The companion ICDE 1993 paper (*Adaptive Block Rearrangement*, the
//! conference version of this system) evaluated the technique with
//! trace-driven simulation before the driver was built. This module
//! provides that methodology: record the block-level request stream of a
//! simulated day ([`crate::experiment::Experiment::run_day_traced`]),
//! then [`replay()`](crate::replay::replay) the identical stream against differently-configured
//! drivers — placement policies, schedulers, reserved sizes — with
//! *zero* workload variance between configurations. A replay is one day
//! of [`TraceTraffic`] through the one [`DayLoop`]; whole multi-day
//! streams, payloads included, replay through [`crate::stream`].

use crate::analyzer::{FullAnalyzer, HotBlock, ReferenceAnalyzer};
use crate::arranger::BlockArranger;
use crate::dayloop::DayLoop;
use crate::experiment::experiment_member;
use crate::metrics::{BlockCounts, DayMetrics};
use crate::placement::PolicyKind;
use crate::stream::{DayStream, Recorded, TraceTraffic};
use abr_disk::DiskModel;
use abr_driver::{DriverError, SchedulerKind};
use abr_sim::SimTime;
use abr_workload::{TraceEvent, TraceLog};
use std::sync::Arc;

/// Configuration of a replay run.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Disk model to replay against.
    pub disk: DiskModel,
    /// Reserved cylinders (0 = no rearrangement possible).
    pub reserved_cylinders: u32,
    /// Queueing policy.
    pub scheduler: SchedulerKind,
    /// Placement policy used when `n_blocks > 0`.
    pub policy: PolicyKind,
    /// Hottest blocks to place before the replay begins (from the
    /// trace's own reference counts — the paper's daily protocol, with
    /// yesterday == today because the stream is identical).
    pub n_blocks: usize,
}

impl ReplayConfig {
    /// Paper defaults for a disk: SCAN, organ-pipe, paper-sized reserved
    /// region, no blocks placed (caller sets `n_blocks`).
    pub fn new(disk: DiskModel) -> Self {
        let reserved = if disk.geometry.cylinders >= 1200 {
            80
        } else {
            48
        };
        ReplayConfig {
            disk,
            reserved_cylinders: reserved,
            scheduler: SchedulerKind::Scan,
            policy: PolicyKind::OrganPipe,
            n_blocks: 0,
        }
    }
}

/// Count block references in a trace (what the reference stream analyzer
/// would have seen).
pub fn trace_hot_list(trace: &TraceLog, sectors_per_block: u32) -> Vec<HotBlock> {
    hot_list(trace.events(), sectors_per_block)
}

fn hot_list<'a>(
    events: impl IntoIterator<Item = &'a TraceEvent>,
    sectors_per_block: u32,
) -> Vec<HotBlock> {
    let mut analyzer = FullAnalyzer::new();
    for e in events {
        analyzer.observe(e.sector / u64::from(sectors_per_block), 1);
    }
    analyzer.distribution()
}

/// Replay a trace against a freshly formatted disk and return the
/// measured day metrics. The replayed stream is *identical* across calls
/// regardless of configuration, so metric differences are attributable
/// purely to the configuration. No daemon runs: each event is submitted
/// at its offset, and the day ends once the device has drained after the
/// last one.
///
/// # Errors
/// The driver's error for the first request it rejects: a trace
/// recorded on a disk with a different reserved size may address
/// sectors past the end of this one's partitions.
pub fn replay(trace: &TraceLog, config: &ReplayConfig) -> Result<DayMetrics, DriverError> {
    // Replay consumes only the measured statistics: no read data, and
    // the request monitor is never read (it just stops recording when
    // full).
    let mut driver = experiment_member(
        &config.disk,
        config.reserved_cylinders,
        false,
        config.scheduler,
    );
    let spb = driver.sectors_per_block();
    let hot = trace_hot_list(trace, spb);

    // Pre-place the trace's hottest blocks, exactly as the arranger
    // would overnight. The loop clears the placement I/O from the
    // statistics before the day starts.
    if config.n_blocks > 0 {
        let arranger = BlockArranger::new(config.policy.make(1));
        arranger.rearrange(&mut driver, &hot, config.n_blocks, SimTime::ZERO)?;
    }

    // The trace starts at t=0; offset everything past the placement
    // phase (a day boundary in spirit): 200,000 s is far past any
    // placement I/O.
    let start = SimTime::from_micros(200_000_000_000);
    let days = Recorded::new(Arc::from([Arc::new(DayStream::from_trace(trace))]));
    let traffic = TraceTraffic::new(days).lenient();
    let mut day = DayLoop::new(driver, traffic, Vec::new(), None, start);
    let report = day.run_day();
    if let Some(e) = day.traffic.rejected() {
        return Err(e.clone());
    }

    // Block distributions from the trace itself.
    let reads = hot_list(trace.events().iter().filter(|e| e.dir.is_read()), spb);
    let mut m = report.volume(&config.disk.seek);
    m.rearranged = config.n_blocks > 0;
    m.n_rearranged = config.n_blocks as u32;
    m.block_counts = BlockCounts::from_hot(&hot);
    m.block_counts_reads = BlockCounts::from_hot(&reads);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use abr_disk::models;
    use abr_sim::SimDuration;
    use abr_workload::WorkloadProfile;

    fn record_short_day() -> TraceLog {
        let mut profile = WorkloadProfile::tiny_test();
        profile.day_length = SimDuration::from_mins(20);
        let mut cfg = ExperimentConfig::new(models::toshiba_mk156f(), profile);
        cfg.seed = 0x77AC3;
        let mut e = Experiment::new(cfg);
        let (_, trace) = e.run_day_traced();
        trace
    }

    #[test]
    fn recorded_trace_is_nonempty_and_ordered() {
        let trace = record_short_day();
        assert!(trace.len() > 200, "trace has {} events", trace.len());
        for w in trace.events().windows(2) {
            assert!(w[0].at_us <= w[1].at_us);
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = record_short_day();
        let cfg = ReplayConfig::new(models::toshiba_mk156f());
        let a = replay(&trace, &cfg).unwrap();
        let b = replay(&trace, &cfg).unwrap();
        assert_eq!(a.all.n, b.all.n);
        assert_eq!(a.all.service_ms.to_bits(), b.all.service_ms.to_bits());
    }

    #[test]
    fn replay_request_count_matches_trace() {
        let trace = record_short_day();
        let cfg = ReplayConfig::new(models::toshiba_mk156f());
        let m = replay(&trace, &cfg).unwrap();
        assert_eq!(m.all.n as usize, trace.len());
    }

    #[test]
    fn rearranged_replay_beats_plain_replay() {
        let trace = record_short_day();
        let mut cfg = ReplayConfig::new(models::toshiba_mk156f());
        let off = replay(&trace, &cfg).unwrap();
        cfg.n_blocks = 400;
        let on = replay(&trace, &cfg).unwrap();
        // Identical stream: the difference is purely the rearrangement.
        // With today's own hot list (perfect prediction) the cut is
        // large.
        assert!(
            on.all.seek_ms < 0.5 * off.all.seek_ms,
            "seek {:.2} !<< {:.2}",
            on.all.seek_ms,
            off.all.seek_ms
        );
    }

    #[test]
    fn foreign_trace_is_an_error_not_a_panic() {
        // One event past the last sector of partition 0, as in a trace
        // recorded against a smaller reserved area.
        let mut log = TraceLog::new();
        log.push(abr_workload::TraceEvent {
            at_us: 0,
            dir: abr_disk::disk::IoDir::Read,
            partition: 0,
            sector: 1 << 40,
            n_sectors: 16,
        });
        let cfg = ReplayConfig::new(models::toshiba_mk156f());
        assert_eq!(replay(&log, &cfg).err(), Some(DriverError::OutOfPartition));
    }

    #[test]
    fn trace_hot_list_counts() {
        let mut log = TraceLog::new();
        for i in 0..5 {
            log.push(abr_workload::TraceEvent {
                at_us: i * 1000,
                dir: abr_disk::disk::IoDir::Read,
                partition: 0,
                sector: 32, // block 2
                n_sectors: 16,
            });
        }
        let hot = trace_hot_list(&log, 16);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0], HotBlock { block: 2, count: 5 });
    }
}
