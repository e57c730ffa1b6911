//! Workload calibration scratchpad.
//!
//! Runs one off day + one on day of a profile on a disk and prints the
//! Table 3 shaped row against the paper's targets, plus skew measures.
//! Used to tune the synthetic profiles; the real regenerators live in
//! `experiments.rs`.

use abr_core::{Experiment, ExperimentConfig};
use abr_disk::models;
use abr_workload::WorkloadProfile;

/// The configs this scratchpad knows, in listing order.
const CONFIGS: [&str; 4] = [
    "toshiba-system",
    "fujitsu-system",
    "toshiba-users",
    "fujitsu-users",
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(String::as_str).unwrap_or("toshiba-system");
    let (disk, profile, n_blocks) = match which {
        "toshiba-system" => (models::toshiba_mk156f(), WorkloadProfile::system_fs(), 1018),
        "fujitsu-system" => (models::fujitsu_m2266(), WorkloadProfile::system_fs(), 3500),
        "toshiba-users" => (models::toshiba_mk156f(), WorkloadProfile::users_fs(), 1018),
        "fujitsu-users" => (models::fujitsu_m2266(), WorkloadProfile::users_fs(), 3500),
        other => {
            eprintln!("calibrate: unknown config `{other}`; valid configs:");
            for c in CONFIGS {
                eprintln!("  {c}");
            }
            std::process::exit(2);
        }
    };
    let cfg = ExperimentConfig::new(disk, profile);
    eprintln!("building {which} ...");
    #[allow(
        clippy::disallowed_methods,
        reason = "stderr progress timing; never a result input"
    )]
    let t0 = std::time::Instant::now();
    let mut e = Experiment::new(cfg);
    eprintln!("setup took {:?}", t0.elapsed());

    #[allow(
        clippy::disallowed_methods,
        reason = "stderr progress timing; never a result input"
    )]
    let t0 = std::time::Instant::now();
    let off = e.run_day();
    eprintln!("off day took {:?}", t0.elapsed());
    e.rearrange_for_next_day(n_blocks);
    #[allow(
        clippy::disallowed_methods,
        reason = "stderr progress timing; never a result input"
    )]
    let t0 = std::time::Instant::now();
    let on = e.run_day();
    eprintln!("on day took {:?}", t0.elapsed());
    let (cov_all, cov_reads) = e.remap_coverage();
    println!(
        "on-day remap coverage: all {:.1}% reads {:.1}%",
        cov_all * 100.0,
        cov_reads * 100.0
    );

    let row = |label: &str, m: &abr_core::DayMetrics| {
        println!(
            "{label:4} n={:6} reads={:6} writes={:6} | fcfs_dist={:5.0} dist={:5.0} zero={:4.1}% | fcfs_seek={:5.2} seek={:5.2} svc={:5.2} wait={:6.2} | rot={:4.2} xfer={:5.2}",
            m.all.n, m.reads.n, m.writes.n,
            m.all.fcfs_seek_dist, m.all.seek_dist, m.all.zero_seek_pct,
            m.all.fcfs_seek_ms, m.all.seek_ms, m.all.service_ms, m.all.waiting_ms,
            m.all.rotation_ms, m.all.transfer_ms,
        );
        println!(
            "     reads-only: dist={:5.0} zero={:4.1}% seek={:5.2} svc={:5.2} wait={:6.2} reserved={:4.1}%/{:4.1}%",
            m.reads.seek_dist, m.reads.zero_seek_pct, m.reads.seek_ms,
            m.reads.service_ms, m.reads.waiting_ms,
            m.reads.reserved_frac * 100.0, m.all.reserved_frac * 100.0,
        );
        println!(
            "     skew: active={} top100={:4.1}% top21={:4.1}% (one cylinder)",
            m.active_blocks(),
            m.top_k_share(100) * 100.0,
            m.top_k_share(21) * 100.0,
        );
    };
    row("OFF", &off);
    row("ON", &on);
    println!();
    println!("paper targets (Toshiba system fs, Table 3):");
    println!(
        "  OFF: fcfs_dist=220 dist=173 zero=23% fcfs_seek=20.92 seek=18.21 svc=38.41 wait=87.30"
    );
    println!(
        "  ON : fcfs_dist=225 dist=8   zero=88% fcfs_seek=21.46 seek=1.55  svc=22.95 wait=50.03"
    );
    println!("  skew: top100 ~ 90%, active < 2000");
    println!("paper targets (Fujitsu system fs, Table 3): OFF dist=315 seek=8.01 svc=21.15 wait=69.98 | ON dist=27 zero=76% seek=1.16 svc=14.08 wait=35.65");
}
