//! Serving-front-end experiments (extension; `experiments serve`).
//!
//! The rest of the suite replays closed traces. This family puts the
//! `abr-serve` front end — open-loop clients, token-bucket admission,
//! DRR dispatch — over three volume shapes and sweeps the client count
//! and arrival rate:
//!
//! * HDD-only: one whole-disk member, no rearrangement;
//! * reserved-region: one adaptive member running the paper's
//!   between-epoch rearrangement protocol;
//! * array: four striped members (256 and 4096 clients).
//!
//! Two cells exercise the failure modes the front end exists for: an
//! overload cell (offered load ≈ 4× the spindle's service rate) that
//! must shed with a bounded queue and no starved client, and a degraded
//! mirror cell (whole-disk death + hot-spare replacement) that must
//! keep serving with zero lost blocks. Both assert in-process, so the
//! sweep itself is a regression gate. The `serve-smoke` id is a single
//! small adaptive overload cell for the CI byte-identity job.

use crate::report::Report;
use abr_array::{Redundancy, StripePolicy};
use abr_disk::fault::FaultPlan;
use abr_disk::models;
use abr_serve::{ServeConfig, ServeExperiment, ServeSummary};
use abr_sim::{jsn, JsonValue, SimDuration, SimTime};

/// Which in-process gate a cell carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellKind {
    /// Plain sweep point: accounting must balance, nothing may strand.
    Normal,
    /// Overload: must shed with a bounded queue and stay fair.
    Overload,
    /// Degraded redundant volume: must keep serving, zero lost blocks.
    Degraded,
}

/// One serving cell: a named configuration plus its gate.
struct Cell {
    name: &'static str,
    kind: CellKind,
    config: ServeConfig,
}

/// The sweep: volume shape × client count, then the two gate cells.
fn sweep_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    let base = |n_clients: usize, rate: f64| {
        let mut c = ServeConfig::new(models::toshiba_mk156f());
        c.n_clients = n_clients;
        c.aggregate_rate_per_sec = rate;
        c.seed = 0x5E17E ^ ((n_clients as u64) << 16);
        c
    };
    // HDD-only: one whole-disk member, moderate load (~half capacity).
    for n_clients in [16usize, 256] {
        cells.push(Cell {
            name: if n_clients == 16 {
                "hdd-16c"
            } else {
                "hdd-256c"
            },
            kind: CellKind::Normal,
            config: base(n_clients, 15.0),
        });
    }
    // Reserved-region: the paper's adaptive protocol between epochs.
    for n_clients in [16usize, 256] {
        let mut c = base(n_clients, 15.0);
        c.reserved_cylinders = 48;
        c.place_blocks = 512;
        c.epochs = 2;
        cells.push(Cell {
            name: if n_clients == 16 {
                "adaptive-16c"
            } else {
                "adaptive-256c"
            },
            kind: CellKind::Normal,
            config: c,
        });
    }
    // Array: four striped members at the same per-spindle rate; the
    // 4096-client cell stresses the client-population structures.
    {
        let mut c = base(256, 60.0);
        c.n_disks = 4;
        cells.push(Cell {
            name: "array4-256c",
            kind: CellKind::Normal,
            config: c,
        });
        let mut c = base(4096, 60.0);
        c.n_disks = 4;
        c.epoch = SimDuration::from_mins(5);
        cells.push(Cell {
            name: "array4-4096c",
            kind: CellKind::Normal,
            config: c,
        });
    }
    // Overload: ~4× the spindle's service rate, buckets generous enough
    // that the queue bound (not the buckets) does the shedding.
    {
        let mut c = base(32, 120.0);
        c.bucket_rate_per_sec = 16.0;
        c.bucket_burst = 32;
        c.accept_queue_cap = 256;
        c.epoch = SimDuration::from_mins(5);
        cells.push(Cell {
            name: "hdd-overload",
            kind: CellKind::Overload,
            config: c,
        });
    }
    // Degraded mirror: the copy member dies mid-epoch, its hot spare
    // arrives five minutes later, and serving must not miss a beat.
    {
        let mut c = base(32, 25.0);
        c.n_disks = 2;
        c.redundancy = Redundancy::Mirror;
        c.stripe = StripePolicy::Striped { chunk_blocks: 8 };
        c.fault_plans = vec![
            None,
            Some(FaultPlan::disk_death(
                SimTime::ZERO + SimDuration::from_mins(2),
                SimDuration::from_mins(5),
            )),
        ];
        c.epoch = SimDuration::from_mins(15);
        cells.push(Cell {
            name: "mirror-degraded",
            kind: CellKind::Degraded,
            config: c,
        });
    }
    cells
}

/// The CI smoke cell: a tiny adaptive member pushed into overload, two
/// epochs so rearrangement runs, small enough for every CI pass.
fn smoke_cell() -> Cell {
    let mut c = ServeConfig::new(models::tiny_test_disk());
    c.n_clients = 8;
    c.aggregate_rate_per_sec = 120.0;
    c.bucket_rate_per_sec = 20.0;
    c.bucket_burst = 16;
    c.accept_queue_cap = 64;
    c.working_set_blocks = 64;
    c.reserved_cylinders = 10;
    c.place_blocks = 32;
    c.monitor_period = SimDuration::from_secs(10);
    c.epoch = SimDuration::from_secs(30);
    c.epochs = 2;
    c.max_inflight = 4;
    c.seed = 0x5E17E;
    Cell {
        name: "smoke-overload",
        kind: CellKind::Overload,
        config: c,
    }
}

/// Registry histograms a cell's row and gates read out of the snapshot
/// (a consumer side of the registry join in `engine`'s tests).
pub(crate) const ROW_HIRES: [&str; 2] = ["serve.request_us", "serve.queue_us"];

/// Run one cell and append its row. Each cell starts from a clean
/// registry/day-series boundary so its quantiles and day points are its
/// own; the run-level snapshot the engine harvests afterwards therefore
/// reflects the *last* cell — the per-cell rows below carry the data.
fn run_cell(cell: &Cell, r: &mut Report) -> JsonValue {
    eprintln!("  running serve cell {}...", cell.name);
    abr_obs::registry_clear();
    abr_obs::day_series_reset();
    let mut e = ServeExperiment::new(cell.config.clone());
    let s = e.run();
    let health = e.health();
    let lost = health.total_lost();
    let snap = abr_obs::registry_snapshot();
    let [request_us, queue_us] = ROW_HIRES.map(|metric| &snap["hires"][metric]["quantiles"]);
    let q = |quantiles: &JsonValue, p: &str| quantiles[p].as_u64().unwrap_or(0);
    let fairness = s.fairness_ratio();
    r.line(format!(
        "{:15} | arr {:6} acc {:6} shed {:5} thr {:5} | done {:6} err {:3} | qmax {:3} \
         | req p50 {:6} p999 {:7} us | fair {:4.2}",
        cell.name,
        s.arrivals,
        s.accepted,
        s.shed,
        s.throttled,
        s.completed,
        s.errors,
        s.queue_depth_max,
        q(request_us, "p50"),
        q(request_us, "p999"),
        fairness,
    ));
    check_cell(cell, &s, lost, q(request_us, "p999"));
    jsn!({
        "cell": cell.name,
        "n_disks": cell.config.n_disks,
        "n_clients": cell.config.n_clients,
        "rate_per_sec": cell.config.aggregate_rate_per_sec,
        "reserved_cylinders": cell.config.reserved_cylinders,
        "redundancy": cell.config.redundancy.name(),
        "epochs": cell.config.epochs,
        "arrivals": s.arrivals,
        "accepted": s.accepted,
        "shed": s.shed,
        "throttled": s.throttled,
        "completed": s.completed,
        "errors": s.errors,
        "stranded": s.stranded,
        "queue_depth_max": s.queue_depth_max,
        "blocks_placed": s.placed,
        "lost_blocks": lost,
        "fairness_ratio": fairness,
        "request_us_p50": q(request_us, "p50"),
        "request_us_p99": q(request_us, "p99"),
        "request_us_p999": q(request_us, "p999"),
        "queue_us_p50": q(queue_us, "p50"),
        "queue_us_p99": q(queue_us, "p99"),
    })
}

/// The per-cell gates. Every cell's admission and service accounting
/// must balance exactly; the overload and degraded cells additionally
/// carry the acceptance criteria from the front end's contract.
fn check_cell(cell: &Cell, s: &ServeSummary, lost: u64, request_p999_us: u64) {
    assert_eq!(
        s.arrivals,
        s.accepted + s.shed + s.throttled,
        "{}: every arrival must be accepted, shed, or throttled",
        cell.name
    );
    assert_eq!(
        s.accepted,
        s.completed + s.errors + s.stranded,
        "{}: every accepted request must complete, error, or strand",
        cell.name
    );
    assert!(s.completed > 0, "{}: the server served nothing", cell.name);
    assert!(
        s.queue_depth_max <= cell.config.accept_queue_cap as u64,
        "{}: accept queue exceeded its bound ({} > {})",
        cell.name,
        s.queue_depth_max,
        cell.config.accept_queue_cap
    );
    match cell.kind {
        CellKind::Normal => {
            assert_eq!(
                s.stranded, 0,
                "{}: healthy volume stranded requests",
                cell.name
            );
        }
        CellKind::Overload => {
            assert!(s.shed > 0, "{}: overload must shed", cell.name);
            assert!(
                request_p999_us > 0,
                "{}: p999 request latency missing from the registry",
                cell.name
            );
            let fairness = s.fairness_ratio();
            assert!(
                fairness <= 2.0,
                "{}: a client starved under DRR (max/min completions {fairness:.2} > 2)",
                cell.name
            );
        }
        CellKind::Degraded => {
            assert_eq!(s.errors, 0, "{}: mirror failed user requests", cell.name);
            assert_eq!(s.stranded, 0, "{}: mirror stranded requests", cell.name);
            assert_eq!(
                lost, 0,
                "{}: mirror lost blocks under a single death",
                cell.name
            );
        }
    }
}

/// The `serve` sweep: every volume shape, then the two gate cells.
pub(crate) fn sweep(mut r: Report) -> Report {
    let rows: Vec<JsonValue> = sweep_cells()
        .iter()
        .map(|cell| run_cell(cell, &mut r))
        .collect();
    r.blank();
    r.line("expected shape: moderate-load cells accept everything; the overload cell sheds");
    r.line("with a bounded queue and a max/min per-client completion ratio <= 2; the degraded");
    r.line("mirror serves every request with zero lost blocks through death and replacement.");
    r.json = jsn!({ "rows": rows });
    r
}

/// The `serve-smoke` cell on its own.
pub(crate) fn smoke(mut r: Report) -> Report {
    let rows = vec![run_cell(&smoke_cell(), &mut r)];
    r.json = jsn!({ "rows": rows });
    r
}

#[cfg(test)]
#[allow(clippy::disallowed_types, reason = "test code, not a simulated result")]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_three_fronts_and_both_gates() {
        let cells = sweep_cells();
        assert!(cells
            .iter()
            .any(|c| c.config.n_disks == 1 && c.config.reserved_cylinders == 0));
        assert!(cells.iter().any(|c| c.config.reserved_cylinders > 0));
        assert!(cells.iter().any(|c| c.config.n_disks == 4));
        assert!(cells.iter().any(|c| c.kind == CellKind::Overload));
        assert!(cells.iter().any(|c| c.kind == CellKind::Degraded));
        let clients: std::collections::HashSet<usize> =
            cells.iter().map(|c| c.config.n_clients).collect();
        assert!(clients.contains(&16) && clients.contains(&256) && clients.contains(&4096));
    }

    #[test]
    fn smoke_cell_runs_its_gates() {
        let mut r = Report::new("serve-smoke", "test");
        let row = run_cell(&smoke_cell(), &mut r);
        assert!(row["shed"].as_u64().unwrap_or(0) > 0);
        assert_eq!(row["lost_blocks"].as_u64(), Some(0));
        assert!(row["blocks_placed"].as_u64().unwrap_or(0) > 0);
    }
}
