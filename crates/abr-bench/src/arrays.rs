//! Array scale-out experiments (extension; `experiments array`).
//!
//! The paper measures one spindle. The `abr-array` volume layer runs
//! the same workloads over N spindles with per-disk adaptive
//! rearrangement, so this family sweeps the array shape:
//!
//! * scale-out: N ∈ {1, 2, 4, 8} striped volumes under both the
//!   `system` and `users` workloads;
//! * stripe chunk size: 1, 8, and 32 blocks at N = 4;
//! * striping policy: striped vs concatenated vs hash-sharded at N = 4.
//!
//! Every cell runs the paper's on/off protocol with each member disk
//! placing its share of the paper's 1018 hot blocks. The `array-n2` id
//! is a single N = 2 cell, small enough for the CI smoke job's
//! serial-vs-parallel byte-identity gate.

use crate::report::Report;
use abr_array::{ArrayConfig, ArrayDayMetrics, ArrayExperiment, Redundancy, StripePolicy};
use abr_core::ExperimentConfig;
use abr_disk::fault::FaultPlan;
use abr_disk::models;
use abr_sim::{jsn, JsonValue, SimDuration};
use abr_workload::WorkloadProfile;

/// Blocks the paper rearranged on the Toshiba, split across members.
const PAPER_BLOCKS: usize = 1018;

/// One array cell: shape + workload.
struct Cell {
    n: usize,
    workload: &'static str,
    stripe: StripePolicy,
}

impl Cell {
    fn profile(&self) -> WorkloadProfile {
        let mut p = match self.workload {
            "system" => WorkloadProfile::system_fs(),
            _ => WorkloadProfile::users_fs(),
        };
        // A 2-hour day keeps the 12-cell sweep tractable while still
        // giving the monitor dozens of read periods per day.
        p.day_length = SimDuration::from_hours(2);
        p
    }

    fn config(&self) -> ArrayConfig {
        let mut base = ExperimentConfig::new(models::toshiba_mk156f(), self.profile());
        // One seed lane per cell shape, mixed like the single-disk runs.
        base.seed = 0xA77A
            ^ (self.n as u64) << 8
            ^ (self.stripe.chunk_blocks()) << 16
            ^ ((self.workload.len() as u64) << 24);
        ArrayConfig::new(base, self.n, self.stripe)
    }

    fn label(&self) -> String {
        format!(
            "N={} {} {}/{}",
            self.n,
            self.workload,
            self.stripe.name(),
            self.stripe.chunk_blocks()
        )
    }
}

/// Run one cell's on/off pair and append its row.
fn run_cell(cell: &Cell, r: &mut Report) -> JsonValue {
    eprintln!("  running array cell {}...", cell.label());
    let mut e = ArrayExperiment::new(cell.config());
    let per_disk_blocks = PAPER_BLOCKS.div_ceil(cell.n);
    let days = e.run_on_off(1, per_disk_blocks);
    let (off, on) = (&days[0], &days[1]);
    let seek_cut = (1.0 - on.volume.all.seek_ms / off.volume.all.seek_ms) * 100.0;
    let requests = |d: &ArrayDayMetrics| d.per_disk.iter().map(|m| m.all.n).collect::<Vec<u64>>();
    let off_per_disk = requests(off);
    r.line(format!(
        "{:22} | off seek {:5.2} svc {:5.2} | on seek {:5.2} svc {:5.2} | seek cut {:5.1}% | req/disk {:?}",
        cell.label(),
        off.volume.all.seek_ms,
        off.volume.all.service_ms,
        on.volume.all.seek_ms,
        on.volume.all.service_ms,
        seek_cut,
        off_per_disk,
    ));
    jsn!({
        "n_disks": cell.n,
        "workload": cell.workload,
        "policy": cell.stripe.name(),
        "chunk_blocks": cell.stripe.chunk_blocks(),
        "blocks_per_disk": per_disk_blocks,
        "off_seek_ms": off.volume.all.seek_ms,
        "on_seek_ms": on.volume.all.seek_ms,
        "off_service_ms": off.volume.all.service_ms,
        "on_service_ms": on.volume.all.service_ms,
        "off_waiting_ms": off.volume.all.waiting_ms,
        "on_waiting_ms": on.volume.all.waiting_ms,
        "seek_cut_pct": seek_cut,
        "requests_per_disk_off": off_per_disk,
        "requests_per_disk_on": requests(on),
    })
}

/// The cells of the full `array` sweep.
fn sweep_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    // Scale-out: striped, chunk 8, both workloads.
    for workload in ["system", "users"] {
        for n in [1usize, 2, 4, 8] {
            cells.push(Cell {
                n,
                workload,
                stripe: StripePolicy::Striped { chunk_blocks: 8 },
            });
        }
    }
    // Chunk-size sweep at N = 4 (chunk 8 already covered above).
    for chunk_blocks in [1u64, 32] {
        cells.push(Cell {
            n: 4,
            workload: "system",
            stripe: StripePolicy::Striped { chunk_blocks },
        });
    }
    // Policy comparison at N = 4.
    cells.push(Cell {
        n: 4,
        workload: "system",
        stripe: StripePolicy::Concat,
    });
    cells.push(Cell {
        n: 4,
        workload: "system",
        stripe: StripePolicy::HashShard { chunk_blocks: 8 },
    });
    cells
}

/// The redundant-array configuration: N = 4 members, striped chunk 8,
/// a tiny workload on a 30-minute day — the point is the failure path,
/// not the paper's numbers.
fn redundant_config(redundancy: Redundancy) -> ArrayConfig {
    let mut profile = WorkloadProfile::tiny_test();
    profile.day_length = SimDuration::from_mins(30);
    let mut base = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    base.seed = 0x5AFE ^ (redundancy.name().len() as u64) << 8;
    ArrayConfig::redundant(
        base,
        4,
        StripePolicy::Striped { chunk_blocks: 8 },
        redundancy,
    )
}

/// Registry counters a redundant cell's row reads out of the snapshot,
/// in the order the row lists them (a consumer side of the registry
/// join in `engine`'s tests).
pub(crate) const ROW_COUNTERS: [&str; 6] = [
    "array.rebuild.blocks",
    "array.reads.degraded",
    "array.reads.failover",
    "array.scrub.groups",
    "array.scrub.repairs",
    "array.scrub.mismatches",
];

/// Run one redundancy scheme through a whole-disk death with hot-spare
/// replacement and report availability, data loss, and rebuild pacing.
/// Redundant schemes are *required* to come through with every request
/// served and zero lost blocks — the CI sweep fails otherwise.
fn run_redundant_cell(redundancy: Redundancy, r: &mut Report) -> JsonValue {
    eprintln!("  running redundant cell {}...", redundancy.name());
    let mut e = ArrayExperiment::new(redundant_config(redundancy));
    // Disk 1 dies 15 minutes into day 1; its hot-spare replacement
    // arrives 10 minutes later and re-silvers under the I/O budget.
    let death = e.clock() + SimDuration::from_mins(15);
    e.install_fault_plan(1, FaultPlan::disk_death(death, SimDuration::from_mins(10)));
    let days = e.run_on_off(1, 256);
    let (off, on) = (&days[0], &days[1]);
    let (served, failed) = e.volume().request_outcomes();
    // Post-day maintenance: drain the resilver (still under the
    // windowed budget), then let the scrub sweep a few idle windows.
    let period = e.config().maintenance.period;
    if redundancy.is_redundant() {
        let mut t = e.clock();
        let mut scrub_windows = 32u32;
        for _ in 0..20_000 {
            e.volume_mut().maintenance_tick(t);
            while let Some(ct) = e.volume_mut().next_completion() {
                e.volume_mut().complete_next(ct);
            }
            if e.volume_mut().rebuild_pending() == 0 {
                if scrub_windows == 0 {
                    break;
                }
                scrub_windows -= 1;
            }
            t += period;
        }
    }
    let health = e.health();
    let lost = health.total_lost();
    let stale = e.volume().rebuild_pending();
    let peak = e.volume().rebuild_peak_window_ops();
    let budget = e.config().maintenance.rebuild_ops_per_window;
    let seek_cut = (1.0 - on.volume.all.seek_ms / off.volume.all.seek_ms) * 100.0;
    r.line(format!(
        "{:>9} | served {served:6} | failed {failed:3} | lost {lost:2} | resilver left {stale:6} \
         | peak window ops {peak:3}/{budget} | seek cut {seek_cut:5.1}%",
        redundancy.name(),
    ));
    let snap = abr_obs::registry_snapshot();
    let [rebuild_blocks, reads_degraded, read_failovers, scrub_groups, scrub_repairs, scrub_mismatches] =
        ROW_COUNTERS.map(|name| snap["counters"][name].as_u64().unwrap_or(0));
    if redundancy.is_redundant() {
        assert_eq!(
            lost,
            0,
            "{} array lost blocks under a single disk death",
            redundancy.name()
        );
        assert_eq!(
            failed,
            0,
            "{} array failed user requests under a single disk death",
            redundancy.name()
        );
        assert!(
            peak <= budget,
            "rebuild exceeded its per-window I/O budget ({peak} > {budget})"
        );
        assert_eq!(health.n_failed(), 0, "hot-spare replacement not installed");
        assert_eq!(stale, 0, "resilver never drained after the measured days");
        assert!(scrub_groups > 0, "background scrub never swept a group");
    }
    jsn!({
        "redundancy": redundancy.name(),
        "served": served,
        "failed_requests": failed,
        "lost_blocks": lost,
        "resilver_remaining": stale as u64,
        "rebuild_peak_window_ops": peak,
        "rebuild_ops_per_window": budget,
        "rebuild_blocks": rebuild_blocks,
        "reads_degraded": reads_degraded,
        "read_failovers": read_failovers,
        "scrub_groups": scrub_groups,
        "scrub_repairs": scrub_repairs,
        "scrub_mismatches": scrub_mismatches,
        "replacement_installed": health.n_failed() == 0,
        "off_seek_ms": off.volume.all.seek_ms,
        "on_seek_ms": on.volume.all.seek_ms,
        "seek_cut_pct": seek_cut,
    })
}

/// The `array-redundant` sweep: none (the control — it *does* fail
/// requests once the disk dies), mirror, and rotated parity.
pub(crate) fn redundant(mut r: Report) -> Report {
    let mut rows = Vec::new();
    for redundancy in [Redundancy::None, Redundancy::Mirror, Redundancy::RotParity] {
        rows.push(run_redundant_cell(redundancy, &mut r));
    }
    r.blank();
    r.line("expected: the redundancy-free control strands requests on the dead member; mirror");
    r.line("and rotparity serve every request with zero lost blocks, fail over reads to the");
    r.line("survivor/reconstruction, install the hot spare, re-silver fully under the");
    r.line("per-window I/O budget, and background-scrub clean once redundancy is restored.");
    r.json = jsn!({ "rows": rows });
    r
}

/// Print the table header and run `cells`, one row each.
fn run_cells(r: &mut Report, cells: &[Cell]) -> Vec<JsonValue> {
    r.line(format!(
        "{:22} | {:^31} | {:^31} | {:^14}",
        "cell", "off day", "on day", "rearrangement"
    ));
    cells.iter().map(|cell| run_cell(cell, r)).collect()
}

/// The `array` sweep: scale-out, chunk size and striping policy.
pub(crate) fn scale_out(mut r: Report) -> Report {
    let rows = run_cells(&mut r, &sweep_cells());
    r.blank();
    r.line("expected shape: per-disk seek cuts persist at every N (each spindle organ-pipes its own traffic);");
    r.line("per-disk request counts stay balanced for striped/hash policies and skew for concat");
    let mut csv =
        String::from("n_disks,workload,policy,chunk_blocks,off_seek_ms,on_seek_ms,seek_cut_pct\n");
    for row in &rows {
        csv.push_str(&format!(
            "{},{},{},{},{:.4},{:.4},{:.2}\n",
            row["n_disks"],
            row["workload"].as_str().unwrap_or(""),
            row["policy"].as_str().unwrap_or(""),
            row["chunk_blocks"],
            row["off_seek_ms"].as_f64().unwrap_or(0.0),
            row["on_seek_ms"].as_f64().unwrap_or(0.0),
            row["seek_cut_pct"].as_f64().unwrap_or(0.0),
        ));
    }
    r.attach_csv("array_scaleout.csv".to_string(), csv);
    r.json = jsn!({ "rows": rows });
    r
}

/// The `array-n2` smoke cell: one N = 2 striped volume.
pub(crate) fn n2_cell(mut r: Report) -> Report {
    let cell = Cell {
        n: 2,
        workload: "system",
        stripe: StripePolicy::Striped { chunk_blocks: 8 },
    };
    let rows = run_cells(&mut r, &[cell]);
    r.json = jsn!({ "rows": rows });
    r
}

#[cfg(test)]
#[allow(clippy::disallowed_types, reason = "test code, not a simulated result")]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_policy_and_requested_n() {
        let cells = sweep_cells();
        let ns: std::collections::HashSet<usize> = cells.iter().map(|c| c.n).collect();
        assert!(ns.contains(&1) && ns.contains(&2) && ns.contains(&4) && ns.contains(&8));
        let policies: std::collections::HashSet<&str> =
            cells.iter().map(|c| c.stripe.name()).collect();
        assert_eq!(policies.len(), 3, "all three striping policies swept");
        let workloads: std::collections::HashSet<&str> = cells.iter().map(|c| c.workload).collect();
        assert!(workloads.contains("system") && workloads.contains("users"));
    }
}
