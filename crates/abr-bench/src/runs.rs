//! One regenerator per table and figure of the paper's evaluation.
//!
//! Protocol fidelity notes:
//! * On/off tables run the paper's alternating-days protocol (§5.2): an
//!   "off" day with the reserved area empty, then blocks placed from that
//!   day's reference counts for the following "on" day, repeated.
//! * Seek times are computed from measured seek-distance distributions
//!   through the Table 1 curves — the paper's own method.
//! * The Figure 8 sweep varies the number of rearranged blocks day by day
//!   on one long-running instance, just as §5.4 describes.

use crate::report::{triple, Report};
use abr_core::{share_stream, BlockCounts, DayMetrics, Experiment, ExperimentConfig, PolicyKind};
use abr_disk::{models, DiskModel};
use abr_sim::jsn;
use abr_workload::WorkloadProfile;
use std::sync::{Arc, Mutex, OnceLock};

/// Which disk, by paper name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskKind {
    /// Toshiba MK156F (135 MB).
    Toshiba,
    /// Fujitsu M2266 (1 GB).
    Fujitsu,
}

impl DiskKind {
    fn model(self) -> DiskModel {
        match self {
            DiskKind::Toshiba => models::toshiba_mk156f(),
            DiskKind::Fujitsu => models::fujitsu_m2266(),
        }
    }

    fn name(self) -> &'static str {
        match self {
            DiskKind::Toshiba => "Toshiba",
            DiskKind::Fujitsu => "Fujitsu",
        }
    }

    /// Blocks the paper rearranged on this disk.
    fn paper_blocks(self) -> usize {
        match self {
            DiskKind::Toshiba => 1018,
            DiskKind::Fujitsu => 3500,
        }
    }

    fn both() -> [DiskKind; 2] {
        [DiskKind::Toshiba, DiskKind::Fujitsu]
    }
}

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsKind {
    /// The read-only *system* file system.
    System,
    /// The read/write *users* file system.
    Users,
}

impl FsKind {
    fn profile(self) -> WorkloadProfile {
        match self {
            FsKind::System => WorkloadProfile::system_fs(),
            FsKind::Users => WorkloadProfile::users_fs(),
        }
    }

    fn name(self) -> &'static str {
        match self {
            FsKind::System => "system",
            FsKind::Users => "users",
        }
    }
}

/// Number of on/off day pairs per summary table (the paper ran 5–6).
const PAIRS: usize = 5;

/// The paper's rows of an on/off summary table, Toshiba off/on then
/// Fujitsu off/on: `[seek min avg max, service min avg max, waiting
/// min avg max]` in ms.
pub(crate) type PaperSummary = [[f64; 9]; 4];

/// Table 2: system file system, all requests.
pub(crate) const PAPER_TABLE2: PaperSummary = [
    [
        18.70, 19.46, 21.51, 38.41, 39.78, 41.71, 65.39, 82.73, 94.52,
    ],
    [0.98, 1.17, 1.55, 22.61, 22.88, 23.34, 40.39, 46.43, 51.13],
    [7.80, 8.14, 8.67, 21.26, 21.60, 22.04, 61.35, 66.57, 72.69],
    [0.70, 0.91, 1.16, 13.83, 14.18, 14.41, 35.65, 45.31, 52.52],
];

/// Table 4: system file system, reads only.
pub(crate) const PAPER_TABLE4: PaperSummary = [
    [12.46, 14.31, 16.60, 30.50, 32.80, 35.32, 4.48, 5.80, 6.86],
    [3.54, 3.89, 4.49, 22.57, 23.59, 24.03, 4.46, 4.97, 5.47],
    [7.52, 7.79, 8.02, 19.69, 20.29, 21.48, 3.21, 4.72, 7.59],
    [1.32, 1.58, 1.89, 12.34, 12.87, 13.41, 2.54, 2.98, 3.32],
];

/// Table 5: users file system, all requests.
pub(crate) const PAPER_TABLE5: PaperSummary = [
    [11.06, 13.10, 15.45, 28.83, 31.14, 34.06, 8.32, 16.86, 31.93],
    [8.10, 8.90, 10.78, 26.08, 27.32, 29.54, 4.74, 10.18, 18.63],
    [3.27, 4.27, 4.79, 16.23, 17.00, 17.37, 4.33, 15.19, 48.96],
    [1.76, 2.73, 3.92, 14.04, 15.12, 16.13, 3.53, 5.83, 8.75],
];

/// Table 6: users file system, reads only.
pub(crate) const PAPER_TABLE6: PaperSummary = [
    [11.97, 15.38, 17.73, 30.03, 32.90, 35.29, 1.18, 5.16, 16.87],
    [6.67, 8.40, 9.64, 25.35, 26.48, 27.79, 0.73, 2.48, 4.19],
    [4.95, 5.98, 7.13, 16.62, 17.59, 18.00, 1.30, 3.01, 7.21],
    [2.05, 2.44, 2.74, 13.12, 13.84, 14.51, 0.99, 2.04, 4.05],
];

/// A system-fs Toshiba config with a 4-hour day — the standard setup for
/// ablation sweeps, where many configurations must run.
pub fn short_system_config(seed: u64) -> ExperimentConfig {
    let mut profile = WorkloadProfile::system_fs();
    profile.day_length = abr_sim::SimDuration::from_hours(4);
    let mut cfg = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    cfg.seed = seed;
    cfg
}

fn config(disk: DiskKind, fs: FsKind, policy: PolicyKind, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(disk.model(), fs.profile());
    cfg.policy = policy;
    cfg.seed = seed ^ (disk as u64) << 8 ^ (fs as u64) << 16;
    cfg
}

/// The expensive multi-day runs, memoized and shareable across threads.
///
/// Several tables consume the same alternating on/off run (e.g. Tables
/// 2 and 4 read the same days). A `DayCache` computes each day-vector at
/// most once per process: concurrent requesters block on the same
/// [`OnceLock`] instead of recomputing, so a parallel suite performs
/// exactly the serial suite's simulation work and every consumer sees
/// bit-identical metrics regardless of which run got there first.
///
/// The three placement-policy runs of one disk share a workload stream,
/// so they are one entry: the first policy runs live and records the
/// stream, the other two replay it (see [`share_stream`]).
#[derive(Default)]
pub struct DayCache {
    onoff: Mutex<DayMap<(DiskKind, FsKind), Vec<DayMetrics>>>,
    policy: Mutex<DayMap<DiskKind, Vec<Vec<DayMetrics>>>>,
}

#[allow(clippy::disallowed_types, reason = "memo cells, never iterated")]
type DayMap<K, V> = std::collections::HashMap<K, Arc<OnceLock<Arc<V>>>>;

/// Fetch-or-compute `key`: the first caller runs `compute` while any
/// concurrent caller for the same key blocks on the cell, so the days
/// are simulated exactly once.
fn memoized<K: std::hash::Hash + Eq + Clone, V>(
    map: &Mutex<DayMap<K, V>>,
    key: K,
    compute: impl FnOnce() -> V,
) -> Arc<V> {
    let cell = {
        #[expect(clippy::expect_used, reason = "nothing panics while holding the lock")]
        let mut map = map.lock().expect("day-cache lock");
        map.entry(key).or_default().clone()
    };
    cell.get_or_init(|| Arc::new(compute())).clone()
}

/// A campaign regenerates experiments against a [`DayCache`] — its own
/// by default, or a shared one so concurrent runs deduplicate work.
#[derive(Default)]
pub struct Campaign {
    cache: Arc<DayCache>,
    /// The run meter as it stood at each [`Campaign::clear_registry`],
    /// summed: progress the registry no longer holds.
    cleared: std::cell::Cell<abr_core::RunMeter>,
    /// How many times [`Campaign::clear_registry`] ran.
    cells: std::cell::Cell<u64>,
}

impl Campaign {
    /// A fresh campaign with a private cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A campaign backed by a shared cache (the parallel engine hands
    /// every worker the same one).
    pub fn with_cache(cache: Arc<DayCache>) -> Self {
        let (cleared, cells) = Default::default();
        Campaign {
            cache,
            cleared,
            cells,
        }
    }

    /// Start the next part of a run on a clean registry and day series
    /// (the `serve` sweep gives each cell its own), keeping the part's
    /// simulated progress for [`Campaign::meter`].
    pub(crate) fn clear_registry(&self) {
        self.cells.set(self.cells.get() + 1);
        self.cleared.set(self.meter());
        abr_obs::registry_clear();
        abr_obs::day_series_reset();
    }

    /// How many parts of the run started on a clean registry and day
    /// series (`clear_registry`): past one, they hold the
    /// last part only.
    pub fn cells(&self) -> u64 {
        self.cells.get()
    }

    /// The simulated progress of everything this campaign ran on the
    /// current thread: the run meter plus what cleared registries held.
    pub fn meter(&self) -> abr_core::RunMeter {
        let (now, cleared) = (abr_core::run_meter(), self.cleared.get());
        let (sim, days) = (now.sim + cleared.sim, now.days + cleared.days);
        abr_core::RunMeter { sim, days }
    }

    /// The standard alternating on/off run for a (disk, fs), memoized.
    fn onoff_days(&self, disk: DiskKind, fs: FsKind) -> Arc<Vec<DayMetrics>> {
        memoized(&self.cache.onoff, (disk, fs), || {
            eprintln!("  running {} / {} on/off days...", disk.name(), fs.name());
            let cfg = config(disk, fs, PolicyKind::OrganPipe, 0xA5A5);
            let mut e = Experiment::new(cfg);
            e.run_on_off(PAIRS, disk.paper_blocks())
        })
    }

    /// Two off/on pairs of the system file system on `disk` under each
    /// placement policy, in [`PolicyKind::all`] order, memoized (Tables
    /// 7–10). The policies share one workload stream.
    fn policy_onoff(&self, disk: DiskKind) -> Arc<Vec<Vec<DayMetrics>>> {
        memoized(&self.cache.policy, disk, || {
            eprintln!(
                "  running {} / system under each placement policy...",
                disk.name()
            );
            let configs = PolicyKind::all().map(|p| config(disk, FsKind::System, p, 0xBEEF));
            share_stream(configs, |_, e| e.run_on_off(2, disk.paper_blocks()))
        })
    }

    /// Tables 2, 4, 5 and 6: daily means of every on day and every off
    /// day of one file system, all requests or reads only, next to the
    /// paper's rows.
    pub(crate) fn summary_table(
        &self,
        mut r: Report,
        fs: FsKind,
        reads_only: bool,
        paper: &PaperSummary,
    ) -> Report {
        r.line(format!(
            "{:8} {:4} | {:^22} | {:^22} | {:^22}",
            "Disk", "On?", "Seek (min avg max)", "Service", "Waiting"
        ));
        let mut json_rows = Vec::new();
        for (di, disk) in DiskKind::both().into_iter().enumerate() {
            let days = self.onoff_days(disk, fs);
            for (oi, on) in [false, true].into_iter().enumerate() {
                let pick = |d: &DayMetrics| {
                    if reads_only {
                        d.reads
                    } else {
                        d.all
                    }
                };
                let sel: Vec<&DayMetrics> = days.iter().filter(|d| d.rearranged == on).collect();
                let seeks: Vec<f64> = sel.iter().map(|d| pick(d).seek_ms).collect();
                let svcs: Vec<f64> = sel.iter().map(|d| pick(d).service_ms).collect();
                let waits: Vec<f64> = sel.iter().map(|d| pick(d).waiting_ms).collect();
                r.line(format!(
                    "{:8} {:4} | {} | {} | {}",
                    disk.name(),
                    if on { "On" } else { "Off" },
                    triple(&seeks),
                    triple(&svcs),
                    triple(&waits)
                ));
                let p = paper[di * 2 + oi];
                r.line(format!(
                    "{:8} {:4} | {:6.2} {:6.2} {:6.2} | {:6.2} {:6.2} {:6.2} | {:6.2} {:6.2} {:6.2}   (paper)",
                    "", "", p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7], p[8]
                ));
                json_rows.push(jsn!({
                    "disk": disk.name(), "on": on,
                    "seek_ms": seeks, "service_ms": svcs, "waiting_ms": waits,
                    "paper": p.to_vec(),
                }));
            }
        }
        r.json = jsn!({ "rows": json_rows });
        r
    }

    pub(crate) fn table3(&self, mut r: Report) -> Report {
        // Paper, Toshiba off/on then Fujitsu off/on:
        // [fcfs_dist, dist, zero%, fcfs_seek, seek, svc, wait]
        const PAPER: [[f64; 7]; 4] = [
            [220.0, 173.0, 23.0, 20.92, 18.21, 38.41, 87.30],
            [225.0, 8.0, 88.0, 21.46, 1.55, 22.95, 50.03],
            [435.0, 315.0, 27.0, 10.31, 8.01, 21.15, 69.98],
            [413.0, 27.0, 76.0, 9.73, 1.16, 14.08, 35.65],
        ];
        let mut json_rows = Vec::new();
        for (di, disk) in DiskKind::both().into_iter().enumerate() {
            let days = self.onoff_days(disk, FsKind::System);
            // The first off/on pair is "Day 1 / Day 2".
            for day in days.iter().take(2) {
                let m = day.all;
                let p = PAPER[di * 2 + usize::from(day.rearranged)];
                r.line(format!(
                    "{:8} {:3} | fcfs_dist {:5.0} (paper {:4.0}) | dist {:5.0} ({:4.0}) | zero {:4.1}% ({:2.0}%) | fcfs_seek {:5.2} ({:5.2}) | seek {:5.2} ({:5.2}) | svc {:5.2} ({:5.2}) | wait {:6.2} ({:5.2})",
                    disk.name(),
                    if day.rearranged { "On" } else { "Off" },
                    m.fcfs_seek_dist, p[0], m.seek_dist, p[1], m.zero_seek_pct, p[2],
                    m.fcfs_seek_ms, p[3], m.seek_ms, p[4], m.service_ms, p[5],
                    m.waiting_ms, p[6],
                ));
                json_rows.push(jsn!({
                    "disk": disk.name(), "on": day.rearranged,
                    "fcfs_seek_dist": m.fcfs_seek_dist, "seek_dist": m.seek_dist,
                    "zero_seek_pct": m.zero_seek_pct, "fcfs_seek_ms": m.fcfs_seek_ms,
                    "seek_ms": m.seek_ms, "service_ms": m.service_ms,
                    "waiting_ms": m.waiting_ms, "paper": p.to_vec(),
                }));
            }
        }
        r.json = jsn!({ "rows": json_rows });
        r
    }

    /// Figures 4 and 6: the Fujitsu's service-time CDF on an off and an
    /// on day of `fs`.
    #[expect(clippy::expect_used, reason = "an on/off run has one day of each kind")]
    pub(crate) fn service_cdf(&self, mut r: Report, fs: FsKind) -> Report {
        let days = self.onoff_days(DiskKind::Fujitsu, fs);
        let off = days.iter().find(|d| !d.rearranged).expect("off day");
        let on = days.iter().find(|d| d.rearranged).expect("on day");
        fn frac_below(d: &[(f64, f64)], ms: f64) -> f64 {
            d.iter()
                .take_while(|(t, _)| *t <= ms)
                .last()
                .map_or(0.0, |(_, f)| *f)
        }
        r.line(format!("{:>8} {:>10} {:>10}", "ms", "off", "on"));
        for ms in [5, 10, 15, 20, 25, 30, 40, 50, 75, 100] {
            r.line(format!(
                "{:8} {:9.1}% {:9.1}%",
                ms,
                frac_below(&off.service_cdf, ms as f64) * 100.0,
                frac_below(&on.service_cdf, ms as f64) * 100.0
            ));
        }
        if fs == FsKind::System {
            r.blank();
            r.line(format!(
                "paper: ~50% of off-day requests complete in <20 ms vs ~85% on-day; measured {:.0}% vs {:.0}%",
                frac_below(&off.service_cdf, 20.0) * 100.0,
                frac_below(&on.service_cdf, 20.0) * 100.0
            ));
        }
        r.json = jsn!({
            "off": off.service_cdf.clone(), "on": on.service_cdf.clone(),
        });
        // Plot-ready CSV: service-time CDF for both days.
        let mut csv = String::from("ms,off_cumulative,on_cumulative\n");
        let max_ms = off
            .service_cdf
            .last()
            .map(|p| p.0)
            .unwrap_or(0.0)
            .max(on.service_cdf.last().map(|p| p.0).unwrap_or(0.0));
        let mut ms = 1.0;
        while ms <= max_ms.min(150.0) {
            csv.push_str(&format!(
                "{ms:.0},{:.4},{:.4}\n",
                frac_below(&off.service_cdf, ms),
                frac_below(&on.service_cdf, ms)
            ));
            ms += 1.0;
        }
        r.attach_csv(format!("{}_cdf.csv", r.id), csv);
        r
    }

    /// Figures 5 and 7: how a day's requests of `fs` spread over blocks.
    pub(crate) fn block_distribution(&self, mut r: Report, fs: FsKind) -> Report {
        let mut json_rows = Vec::new();
        for disk in DiskKind::both() {
            let days = self.onoff_days(disk, fs);
            let day = &days[0];
            let share = |counts: &BlockCounts, k: usize| {
                let total = counts.total();
                if total == 0 {
                    0.0
                } else {
                    counts.top_sum(k) as f64 / total as f64 * 100.0
                }
            };
            r.line(format!(
                "{:8} all : active {:5} blocks | top-21 {:4.1}% top-100 {:4.1}% top-500 {:4.1}%",
                disk.name(),
                day.block_counts.len(),
                share(&day.block_counts, 21),
                share(&day.block_counts, 100),
                share(&day.block_counts, 500),
            ));
            r.line(format!(
                "{:8} read: active {:5} blocks | top-21 {:4.1}% top-100 {:4.1}% top-500 {:4.1}%",
                disk.name(),
                day.block_counts_reads.len(),
                share(&day.block_counts_reads, 21),
                share(&day.block_counts_reads, 100),
                share(&day.block_counts_reads, 500),
            ));
            json_rows.push(jsn!({
                "disk": disk.name(),
                "all": day.block_counts.iter().take(2000).collect::<Vec<_>>(),
                "reads": day.block_counts_reads.iter().take(2000).collect::<Vec<_>>(),
            }));
            // Plot-ready CSV: rank vs count, all and reads.
            let mut csv = String::from("rank,count_all,count_reads\n");
            let n = day
                .block_counts
                .len()
                .max(day.block_counts_reads.len())
                .min(2000);
            let (mut all, mut reads) = (day.block_counts.iter(), day.block_counts_reads.iter());
            for i in 0..n {
                csv.push_str(&format!(
                    "{},{},{}\n",
                    i + 1,
                    all.next().unwrap_or(&0),
                    reads.next().unwrap_or(&0)
                ));
            }
            r.attach_csv(format!("{}_{}.csv", r.id, disk.name().to_lowercase()), csv);
        }
        if fs == FsKind::System {
            r.blank();
            r.line("paper (§5.4): fewer than 2000 blocks absorbed all requests; the 100 hottest absorbed ~90%");
        }
        r.json = jsn!({ "rows": json_rows });
        r
    }

    pub(crate) fn table7(&self, mut r: Report) -> Report {
        // Paper, % reduction (all, reads): Toshiba then Fujitsu, each
        // in `PolicyKind::all()` order.
        const PAPER: [[(f64, f64); 3]; 2] = [
            [(95.0, 76.0), (87.0, 62.0), (58.0, 40.0)],
            [(90.0, 78.0), (88.0, 77.0), (76.0, 65.0)],
        ];
        let mut json_rows = Vec::new();
        for (di, disk) in DiskKind::both().into_iter().enumerate() {
            let runs = self.policy_onoff(disk);
            for (pi, (policy, days)) in PolicyKind::all().into_iter().zip(runs.iter()).enumerate() {
                let (paper_all, paper_reads) = PAPER[di][pi];
                let ons: Vec<&DayMetrics> = days.iter().filter(|d| d.rearranged).collect();
                let all: f64 = ons
                    .iter()
                    .map(|d| d.all.seek_time_reduction_pct())
                    .sum::<f64>()
                    / ons.len() as f64;
                let reads: f64 = ons
                    .iter()
                    .map(|d| d.reads.seek_time_reduction_pct())
                    .sum::<f64>()
                    / ons.len() as f64;
                r.line(format!(
                    "{:8} {:12} | all {:5.1}% (paper {:2.0}%) | reads {:5.1}% (paper {:2.0}%)",
                    disk.name(),
                    policy.name(),
                    all,
                    paper_all,
                    reads,
                    paper_reads,
                ));
                json_rows.push(jsn!({
                    "disk": disk.name(), "policy": policy.name(),
                    "all_reduction_pct": all, "reads_reduction_pct": reads,
                }));
            }
        }
        r.blank();
        r.line("expected shape: organ-pipe >= interleaved > serial on both disks");
        r.json = jsn!({ "rows": json_rows });
        r
    }

    /// Tables 8 and 9: one on day of `disk` under each placement policy.
    pub(crate) fn policy_detail(&self, mut r: Report, disk: DiskKind) -> Report {
        let mut json_rows = Vec::new();
        let runs = self.policy_onoff(disk);
        for (policy, days) in PolicyKind::all().into_iter().zip(runs.iter()) {
            #[expect(clippy::expect_used, reason = "a policy run has a rearranged day")]
            let on = days.iter().find(|d| d.rearranged).expect("on day");
            for (label, m) in [("all", on.all), ("reads", on.reads)] {
                r.line(format!(
                    "{:12} {:5} | fcfs_dist {:5.0} | dist {:4.0} | zero {:4.1}% | fcfs_seek {:5.2} | seek {:5.2} | svc {:5.2} | wait {:6.2}",
                    policy.name(), label,
                    m.fcfs_seek_dist, m.seek_dist, m.zero_seek_pct,
                    m.fcfs_seek_ms, m.seek_ms, m.service_ms, m.waiting_ms,
                ));
                json_rows.push(jsn!({
                    "policy": policy.name(), "scope": label,
                    "fcfs_seek_dist": m.fcfs_seek_dist, "seek_dist": m.seek_dist,
                    "zero_seek_pct": m.zero_seek_pct, "seek_ms": m.seek_ms,
                    "service_ms": m.service_ms, "waiting_ms": m.waiting_ms,
                }));
            }
        }
        r.blank();
        match disk {
            DiskKind::Toshiba => r.line(
                "paper (all): organ-pipe dist 8 zero 88% seek 1.55 svc 22.95 | interleaved dist 15 zero 83% seek 2.50 svc 23.71 | serial dist 22 zero 26% seek 8.50 svc 28.53",
            ),
            DiskKind::Fujitsu => r.line(
                "paper (all): organ-pipe dist 22 zero 74% seek 1.10 svc 13.83 | interleaved dist 26 zero 77% seek 1.12 svc 14.35 | serial dist 26 zero 35% seek 2.49 svc 15.47",
            ),
        }
        r.json = jsn!({ "rows": json_rows });
        r
    }

    pub(crate) fn table10(&self, mut r: Report) -> Report {
        // Without rearrangement: the off day of the organ-pipe run.
        let runs = self.policy_onoff(DiskKind::Toshiba);
        #[expect(clippy::expect_used, reason = "a policy run has a plain day")]
        let off = runs[0].iter().find(|d| !d.rearranged).expect("off day");
        let base = off.reads.rotation_ms + off.reads.transfer_ms;
        r.line(format!(
            "{:22} {:6.2} ms   (paper 18.58)",
            "Without rearrangement", base
        ));
        let paper = |policy| match policy {
            PolicyKind::OrganPipe => 19.42,
            PolicyKind::Interleaved => 18.47,
            PolicyKind::Serial => 19.29,
        };
        let mut json_rows = vec![jsn!({"policy": "none", "rot_plus_xfer_ms": base})];
        for (policy, days) in PolicyKind::all().into_iter().zip(runs.iter()) {
            #[expect(clippy::expect_used, reason = "a policy run has a rearranged day")]
            let on = days.iter().find(|d| d.rearranged).expect("on day");
            let v = on.reads.rotation_ms + on.reads.transfer_ms;
            r.line(format!(
                "{:22} {:6.2} ms   (paper {:5.2})",
                policy.name(),
                v,
                paper(policy),
            ));
            json_rows.push(jsn!({"policy": policy.name(), "rot_plus_xfer_ms": v}));
        }
        r.blank();
        r.line("shape: interleaved preserves rotational placement (lowest); organ-pipe/serial add ~1 ms");
        r.line("note: our 'transfer' includes the fixed controller overhead, as does the paper's service-minus-seek residual");
        r.json = jsn!({ "rows": json_rows });
        r
    }
}

/// Table 1: disk model self-check.
pub(crate) fn table1(mut r: Report) -> Report {
    let mut rows = Vec::new();
    for m in [models::toshiba_mk156f(), models::fujitsu_m2266()] {
        let g = m.geometry;
        r.line(format!(
            "{:16} {:4} cyl x {:2} trk x {:2} sect @ {} RPM = {:.0} MB{}",
            m.name,
            g.cylinders,
            g.tracks_per_cylinder,
            g.sectors_per_track,
            g.rpm,
            g.capacity_bytes() as f64 / (1 << 20) as f64,
            if m.track_buffer.is_some() {
                " + 256 KB track buffer"
            } else {
                ""
            },
        ));
        let samples: Vec<String> = [1u64, 10, 50, 100, 226, 315, 500, 800]
            .iter()
            .map(|&d| format!("seek({d})={:.2}ms", m.seek.time_ms(d)))
            .collect();
        r.line(format!("    {}", samples.join("  ")));
        rows.push(jsn!({
            "name": m.name,
            "cylinders": g.cylinders,
            "seek_1": m.seek.time_ms(1),
            "seek_full": m.seek.full_stroke_ms(g.cylinders),
        }));
    }
    r.json = jsn!({ "models": rows });
    r
}

/// Figure 8: % reduction vs number of rearranged blocks (Toshiba, system
/// fs, all requests and reads only).
pub(crate) fn fig8(mut r: Report) -> Report {
    let cfg = config(
        DiskKind::Toshiba,
        FsKind::System,
        PolicyKind::OrganPipe,
        0xF16,
    );
    let mut e = Experiment::new(cfg);
    // One day with each block count, like the paper's several-week sweep.
    let counts = [0usize, 25, 50, 100, 200, 400, 700, 1017];
    r.line(format!(
        "{:>7} | {:>10} {:>10} | {:>10} {:>10}",
        "blocks", "dist red%", "time red%", "rd dist%", "rd time%"
    ));
    let mut rows = Vec::new();
    // Burn one day to gather counts for the first placement.
    e.run_day();
    for &n in &counts {
        e.rearrange_for_next_day(n);
        let day = e.run_day();
        let (dr, tr) = (
            day.all.seek_dist_reduction_pct(),
            day.all.seek_time_reduction_pct(),
        );
        let (rdr, rtr) = (
            day.reads.seek_dist_reduction_pct(),
            day.reads.seek_time_reduction_pct(),
        );
        r.line(format!(
            "{:7} | {:9.1}% {:9.1}% | {:9.1}% {:9.1}%",
            n, dr, tr, rdr, rtr
        ));
        rows.push(jsn!({
            "blocks": n,
            "all_dist_reduction_pct": dr, "all_time_reduction_pct": tr,
            "reads_dist_reduction_pct": rdr, "reads_time_reduction_pct": rtr,
        }));
    }
    r.blank();
    r.line("paper shape: marginal benefit beyond ~100 blocks is small (top-100 blocks absorb ~90% of requests)");
    let mut csv =
        String::from("blocks,all_dist_reduction_pct,all_time_reduction_pct,reads_dist_reduction_pct,reads_time_reduction_pct\n");
    for p in &rows {
        csv.push_str(&format!(
            "{},{:.1},{:.1},{:.1},{:.1}\n",
            p["blocks"],
            p["all_dist_reduction_pct"].as_f64().unwrap_or(0.0),
            p["all_time_reduction_pct"].as_f64().unwrap_or(0.0),
            p["reads_dist_reduction_pct"].as_f64().unwrap_or(0.0),
            p["reads_time_reduction_pct"].as_f64().unwrap_or(0.0),
        ));
    }
    r.attach_csv("fig8_sweep.csv".to_string(), csv);
    r.json = jsn!({ "points": rows });
    r
}

/// Figure 3: the worked placement-policy example.
pub(crate) fn fig3(mut r: Report) -> Report {
    use abr_core::analyzer::HotBlock;
    use abr_core::placement::SlotMap;
    use abr_disk::DiskLabel;
    use abr_driver::ReservedLayout;

    // A small reserved area, 4-KB blocks: mirrors the paper's 3-cylinder,
    // 4-blocks-per-cylinder illustration in structure.
    let g = models::tiny_test_disk().geometry;
    let label = DiskLabel::rearranged_aligned(g, 3, 8);
    #[expect(clippy::expect_used, reason = "the label reserves an area")]
    let layout = ReservedLayout::for_label(&label, 4096, 8).expect("rearranged");
    let slots = SlotMap::new(&layout, &g);
    let hot = vec![
        HotBlock {
            block: 100,
            count: 20,
        },
        HotBlock {
            block: 102,
            count: 15,
        }, // successor of 100 (gap 2)
        HotBlock {
            block: 40,
            count: 12,
        },
        HotBlock {
            block: 42,
            count: 5,
        }, // NOT close to 40 (5 < 6)
        HotBlock { block: 7, count: 4 },
        HotBlock { block: 9, count: 3 }, // successor of 7
    ];
    r.line("hot list (block: count): 100:20 102:15 40:12 42:5 7:4 9:3");
    r.line("successor gap = interleave + 1 = 2; 'close' = at least 50% of predecessor's count");
    r.blank();
    let mut json_rows = Vec::new();
    for kind in PolicyKind::all() {
        let policy = kind.make(1);
        let placed = policy.place(&hot, &slots);
        let desc: Vec<String> = placed
            .iter()
            .map(|(b, s)| format!("{b}->slot{s}"))
            .collect();
        r.line(format!("{:12}: {}", kind.name(), desc.join("  ")));
        json_rows.push(jsn!({
            "policy": kind.name(),
            "assignment": placed,
        }));
    }
    r.json = jsn!({ "rows": json_rows });
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_cache_serves_precomputed_days() {
        // Pre-seed the cell so the test proves the cache-hit path
        // without paying for a real multi-day simulation.
        let cache = Arc::new(DayCache::default());
        let days: Arc<Vec<DayMetrics>> = Arc::new(Vec::new());
        let cell = Arc::new(OnceLock::new());
        cell.set(Arc::clone(&days)).unwrap();
        cache
            .onoff
            .lock()
            .unwrap()
            .insert((DiskKind::Toshiba, FsKind::System), cell);
        let c = Campaign::with_cache(cache);
        let got = c.onoff_days(DiskKind::Toshiba, FsKind::System);
        assert!(Arc::ptr_eq(&got, &days), "must be served from the cache");
    }

    #[test]
    fn a_campaign_counts_the_cells_it_cleared_for() {
        let c = Campaign::new();
        assert_eq!(c.cells(), 0);
        c.clear_registry();
        c.clear_registry();
        assert_eq!(c.cells(), 2);
    }
}
