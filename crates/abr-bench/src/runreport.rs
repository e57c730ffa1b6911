//! Deterministic run reports over a `BENCH_experiments.json` record.
//!
//! `abrctl report` renders what this module produces. The input record
//! mixes two kinds of data: simulation-time metrics (deterministic for
//! any `--jobs` value) and wall-clock measurements (`wall_s`,
//! `sim_per_real`, the `wall.*` profiling counters — different on every
//! machine and every run). The report keeps them strictly apart:
//!
//! - [`render_markdown`] / [`render_json`] read **only** the
//!   deterministic side — per-day tail-latency quantiles from the day
//!   series, SLO verdicts, starvation counters. Two records produced
//!   from the same ids at different `--jobs` render byte-identically,
//!   which CI checks.
//! - [`folded_profile`] exports the `wall.*` timer counters as folded
//!   stacks (`<run>;<phase> <ns>` — the flamegraph input format). It is
//!   honest about being nondeterministic, which is why `abrctl report`
//!   writes it to a separate file only when asked (`--folded FILE`).
//!
//! A run whose day series is empty is reported as such rather than
//! invented: runs that share day vectors through the in-process cache
//! skip the simulation work, so there is nothing to report for them.

use abr_sim::{jsn, JsonValue};
use std::fmt::Write as _;

/// High-resolution metrics the per-day tail-latency table shows, with
/// their column labels, in column order. Metrics absent from a run's
/// series simply contribute no columns.
pub(crate) const TABLE_METRICS: &[(&str, &str)] = &[
    ("driver.service_us", "service"),
    ("driver.queueing_us", "queueing"),
    ("array.request_us", "request"),
    ("serve.request_us", "srv req"),
    ("serve.queue_us", "srv queue"),
];

/// Quantile columns per metric, keyed into the day point's `quantiles`
/// object.
const TABLE_QUANTILES: &[&str] = &["p50", "p99", "p999"];

/// Run-wide registry counters the report surfaces, with their row
/// labels, in row order. Counters absent from a run's snapshot (array
/// counters on a single-disk run, serve counters on a batch run)
/// contribute no rows. These lists are the consumer side of the
/// registry join (`engine`'s
/// `registry_and_consumers_name_the_same_metrics`): a counter some run
/// registers and nobody reads — not here, not in an SLO, not in a
/// result row — fails that test, and so does a row naming a metric no
/// run registers.
pub(crate) const REPORT_COUNTERS: &[(&str, &str)] = &[
    ("engine.days", "simulated days"),
    ("engine.sim_us", "simulated time (us)"),
    ("driver.submitted", "requests submitted"),
    ("driver.completed", "requests completed"),
    ("driver.failed", "requests failed"),
    ("driver.move.ops", "rearrangement move ops"),
    ("driver.move.busy_us", "rearrangement busy (us)"),
    ("driver.dispatch.reserved", "reserved-area dispatches"),
    ("driver.monitor.dropped", "monitor entries dropped"),
    ("driver.monitor.suspensions", "monitor suspensions"),
    ("driver.faults.retries", "fault retries"),
    ("driver.faults.read_failures", "read failures"),
    ("driver.faults.write_failures", "write failures"),
    ("driver.faults.quarantines", "slot quarantines"),
    ("driver.faults.lost_blocks", "lost blocks"),
    ("driver.faults.table_write_failures", "table write failures"),
    ("slo.violations", "SLO violations"),
    ("array.requests", "array requests"),
    ("array.subrequests", "array subrequests"),
    ("array.writes.redirected", "array writes redirected"),
    ("array.rebuild.ops", "rebuild I/O ops"),
    ("array.rebuild.errors", "rebuild errors"),
    ("array.scrub.defects", "scrub defects remapped"),
    ("serve.arrivals", "serve arrivals"),
    ("serve.accepted", "serve accepted"),
    ("serve.completed", "serve completed"),
    ("serve.errors", "serve errors"),
    ("serve.shed_total", "serve shed"),
    ("serve.throttled_total", "serve throttled"),
];

/// Run-wide registry gauges shown alongside [`REPORT_COUNTERS`].
pub(crate) const REPORT_GAUGES: &[(&str, &str)] = &[
    ("array.disks", "disks in array"),
    ("array.disks.dead", "disks dead"),
    ("array.disks.degraded", "disks degraded"),
    ("array.disks.rebuilding", "disks rebuilding"),
    ("array.blocks.lost", "blocks lost"),
    ("array.rebuild.pending", "resilver pending"),
    ("serve.clients", "serve clients"),
    ("serve.queue_depth", "final queue depth"),
    ("serve.queue_depth_max", "peak queue depth"),
    ("serve.inflight", "final inflight"),
];

/// The counter and the gauge behind the Starvation section.
pub(crate) const STARVED_TOTAL: &str = "driver.starved_total";
pub(crate) const QUEUE_AGE_MAX_US: &str = "driver.queue_age_max_us";

/// Format microseconds as fixed-point milliseconds (`14.335ms`).
/// Integer arithmetic only, so the bytes depend on nothing but the
/// value.
fn fmt_us(us: u64) -> String {
    format!("{}.{:03}ms", us / 1_000, us % 1_000)
}

/// Validate the record and return its run array.
fn runs_of(bench: &JsonValue) -> Result<Vec<JsonValue>, String> {
    if bench["schema"].as_str() != Some("abr-bench/1") {
        return Err("not an abr-bench/1 record (missing schema field)".to_string());
    }
    let runs = bench["runs"].as_array().cloned().unwrap_or_default();
    if runs.is_empty() {
        return Err("record has no runs".to_string());
    }
    Ok(runs)
}

/// Per-objective roll-up across a run's day points.
struct SloSummary {
    text: String,
    days_ok: u64,
    days_violated: u64,
    /// Worst observed value across days, when the metric ever fired.
    worst_us: Option<u64>,
}

fn slo_summaries(days: &[JsonValue]) -> Vec<SloSummary> {
    let mut out: Vec<SloSummary> = Vec::new();
    for day in days {
        let Some(verdicts) = day["slo"].as_array() else {
            continue;
        };
        for v in verdicts {
            let Some(text) = v["slo"].as_str() else {
                continue;
            };
            #[expect(clippy::expect_used, reason = "the entry was pushed just before")]
            let entry = match out.iter_mut().find(|s| s.text == text) {
                Some(e) => e,
                None => {
                    out.push(SloSummary {
                        text: text.to_string(),
                        days_ok: 0,
                        days_violated: 0,
                        worst_us: None,
                    });
                    out.last_mut().expect("pushed above")
                }
            };
            match v["ok"].as_bool() {
                Some(true) => entry.days_ok += 1,
                Some(false) => entry.days_violated += 1,
                None => {}
            }
            if let Some(val) = v["value"].as_u64() {
                entry.worst_us = Some(entry.worst_us.map_or(val, |w| w.max(val)));
            }
        }
    }
    out
}

/// Metrics (of [`TABLE_METRICS`]) that appear in at least one of the
/// run's day points, in table-column order.
fn present_metrics(days: &[JsonValue]) -> Vec<(&'static str, &'static str)> {
    TABLE_METRICS
        .iter()
        .filter(|(name, _)| days.iter().any(|d| d["hires"].get(name).is_some()))
        .copied()
        .collect()
}

/// Render the deterministic markdown report (see module docs).
pub fn render_markdown(bench: &JsonValue) -> Result<String, String> {
    let runs = runs_of(bench)?;
    let mut out = String::new();
    let ok_count = runs
        .iter()
        .filter(|r| r["ok"].as_bool() == Some(true))
        .count();
    let _ = writeln!(out, "# abr-bench run report");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{} run(s), {} ok. Simulation-time data only — wall-clock \
         profiling is exported separately (`abrctl report --folded FILE`).",
        runs.len(),
        ok_count
    );
    for run in &runs {
        let id = run["id"].as_str().unwrap_or("?");
        let ok = run["ok"].as_bool() == Some(true);
        let days = run["day_series"].as_array().cloned().unwrap_or_default();
        let _ = writeln!(out);
        let _ = writeln!(out, "## {id}");
        let _ = writeln!(out);
        // A run that cleared between cells keeps the last cell's data.
        let (cells, scope) = match run["cells"].as_u64() {
            Some(n) => (
                format!(" over {n} cells"),
                "; metrics and day series are the last cell's",
            ),
            None => (String::new(), ""),
        };
        let _ = writeln!(
            out,
            "status: {} — {} simulated day(s){cells}, {} day point(s){scope}.",
            if ok { "ok" } else { "FAILED" },
            run["sim_days"].as_u64().unwrap_or(0),
            days.len()
        );
        if days.is_empty() {
            // A run with zero completed days still gets an explicit
            // section (and its run-level starvation figures below) —
            // an empty table would read as a rendering bug.
            let _ = writeln!(out);
            let _ = writeln!(out, "### Day series");
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "No day series: zero day points recorded (day vectors \
                 served from the in-process cache, or the run failed \
                 before its first day boundary). Tail-latency and SLO \
                 tables are omitted."
            );
        }

        let metrics = present_metrics(&days);
        if !metrics.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "### Tail latency by day");
            let _ = writeln!(out);
            let mut head = String::from("| day |");
            let mut rule = String::from("|----:|");
            for (_, label) in &metrics {
                for q in TABLE_QUANTILES {
                    let _ = write!(head, " {label} {q} |");
                    rule.push_str("----:|");
                }
            }
            let _ = writeln!(out, "{head}");
            let _ = writeln!(out, "{rule}");
            for day in &days {
                let mut row = format!("| {} |", day["day"].as_u64().unwrap_or(0));
                for (name, _) in &metrics {
                    for q in TABLE_QUANTILES {
                        let cell = day["hires"][*name]["quantiles"][*q]
                            .as_u64()
                            .map_or_else(|| "-".to_string(), fmt_us);
                        let _ = write!(row, " {cell} |");
                    }
                }
                let _ = writeln!(out, "{row}");
            }
        }

        if !days.is_empty() {
            let slos = slo_summaries(&days);
            let _ = writeln!(out);
            let _ = writeln!(out, "### SLO verdicts");
            let _ = writeln!(out);
            if slos.is_empty() {
                let _ = writeln!(out, "No objectives were installed for this run.");
            } else {
                let _ = writeln!(out, "| objective | days ok | days violated | worst |");
                let _ = writeln!(out, "|---|----:|----:|----:|");
                for s in &slos {
                    let _ = writeln!(
                        out,
                        "| {} | {} | {} | {} |",
                        s.text,
                        s.days_ok,
                        s.days_violated,
                        s.worst_us.map_or_else(|| "vacuous".to_string(), fmt_us)
                    );
                }
            }
        }

        let starved = run["metrics"]["counters"][STARVED_TOTAL].as_u64();
        let max_age = run["metrics"]["gauges"][QUEUE_AGE_MAX_US].as_u64();
        if let (Some(starved), Some(max_age)) = (starved, max_age) {
            let _ = writeln!(out);
            let _ = writeln!(out, "### Starvation");
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{starved} dispatch(es) exceeded the starvation age \
                 threshold; oldest request waited {}.",
                fmt_us(max_age)
            );
        }

        let rows = counter_rows(run);
        if !rows.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "### Run counters");
            let _ = writeln!(out);
            let _ = writeln!(out, "| counter | value |");
            let _ = writeln!(out, "|---|----:|");
            for (_, label, v) in &rows {
                let _ = writeln!(out, "| {label} | {v} |");
            }
        }
    }
    Ok(out)
}

/// The curated counter/gauge rows present in a run's metrics snapshot,
/// as `(metric name, label, value)` in declaration order.
fn counter_rows(run: &JsonValue) -> Vec<(&'static str, &'static str, u64)> {
    let mut rows = Vec::new();
    for (name, label) in REPORT_COUNTERS {
        if let Some(v) = run["metrics"]["counters"][*name].as_u64() {
            rows.push((*name, *label, v));
        }
    }
    for (name, label) in REPORT_GAUGES {
        if let Some(v) = run["metrics"]["gauges"][*name].as_u64() {
            rows.push((*name, *label, v));
        }
    }
    rows
}

/// Render the same report as a machine-readable JSON document
/// (`abrctl report --json`). Deterministic like the markdown.
pub fn render_json(bench: &JsonValue) -> Result<JsonValue, String> {
    let runs = runs_of(bench)?;
    let mut out_runs = JsonValue::Array(Vec::new());
    for run in &runs {
        let days = run["day_series"].as_array().cloned().unwrap_or_default();
        let mut slo = JsonValue::Array(Vec::new());
        for s in slo_summaries(&days) {
            slo.push(jsn!({
                "slo": s.text.as_str(),
                "days_ok": s.days_ok,
                "days_violated": s.days_violated,
                "worst_us": s.worst_us.map_or(JsonValue::Null, JsonValue::from),
            }));
        }
        let mut r = jsn!({
            "id": run["id"].clone(),
            "ok": run["ok"].clone(),
            "sim_days": run["sim_days"].clone(),
            "day_points": days.len() as u64,
            "day_series": run["day_series"].clone(),
            "slo_summary": slo,
        });
        if let Some(cells) = run["cells"].as_u64() {
            r.insert("cells", JsonValue::from(cells));
        }
        if let Some(v) = run["metrics"]["counters"][STARVED_TOTAL].as_u64() {
            r.insert("starved_total", JsonValue::from(v));
        }
        if let Some(v) = run["metrics"]["gauges"][QUEUE_AGE_MAX_US].as_u64() {
            r.insert("queue_age_max_us", JsonValue::from(v));
        }
        let rows = counter_rows(run);
        if !rows.is_empty() {
            let mut counters = JsonValue::object();
            for (name, _, v) in rows {
                counters.insert(name, JsonValue::from(v));
            }
            r.insert("counters", counters);
        }
        out_runs.push(r);
    }
    Ok(jsn!({
        "schema": "abr-report/1",
        "suite": bench["suite"].clone(),
        "runs": out_runs,
    }))
}

/// Export every run's `wall.*.ns` profiling counters as folded stacks —
/// one `<run>;<phase> <ns>` line per timer, the input format flamegraph
/// tools read. Wall-clock data, so **not** deterministic; see module
/// docs. Runs without timer counters contribute no lines.
pub fn folded_profile(bench: &JsonValue) -> String {
    let mut out = String::new();
    let Some(runs) = bench["runs"].as_array() else {
        return out;
    };
    for run in runs {
        let id = run["id"].as_str().unwrap_or("?");
        let Some(counters) = run["metrics"]["counters"].as_object() else {
            continue;
        };
        for (name, v) in counters {
            let Some(phase) = name
                .strip_prefix("wall.")
                .and_then(|n| n.strip_suffix(".ns"))
            else {
                continue;
            };
            if let Some(ns) = v.as_u64() {
                let _ = writeln!(out, "{id};{phase} {ns}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-run record shaped like `bench_json` output: one run with
    /// two day points (one SLO violation on day 1), one cache-fed run
    /// with an empty series.
    fn fixture() -> JsonValue {
        let day = |d: u64, p99: u64, ok: bool| {
            jsn!({
                "day": d,
                "counters": jsn!({"driver.starved_total": 1u64}),
                "gauges": jsn!({"driver.queue_age_max_us": 90_000u64}),
                "hires": jsn!({
                    "driver.service_us": jsn!({
                        "count": 100u64,
                        "sum": 1_000_000u64,
                        "max": p99 + 500,
                        "quantiles": jsn!({
                            "p50": 9_000u64, "p90": 20_000u64,
                            "p99": p99, "p999": p99 + 300,
                        }),
                    }),
                }),
                "slo": vec![jsn!({
                    "slo": "p99(driver.service_us) < 150ms",
                    "value": p99,
                    "ok": ok,
                })],
            })
        };
        jsn!({
            "schema": "abr-bench/1",
            "suite": vec!["table2", "fig8"],
            "jobs": 4,
            "wall_s": 1.25,
            "runs": vec![
                jsn!({
                    "id": "table2",
                    "ok": true,
                    "wall_s": 1.0,
                    "sim_days": 2u64,
                    "metrics": jsn!({
                        "counters": jsn!({
                            "driver.starved_total": 2u64,
                            "wall.event_loop.ns": 123_456u64,
                            "wall.event_loop.calls": 2u64,
                        }),
                        "gauges": jsn!({"driver.queue_age_max_us": 90_000u64}),
                    }),
                    "day_series": vec![day(0, 52_000, true), day(1, 180_000, false)],
                }),
                jsn!({
                    "id": "fig8",
                    "ok": true,
                    "wall_s": 0.25,
                    "sim_days": 35u64,
                    // Zero day points, but run-level counters exist —
                    // the report must render them anyway.
                    "metrics": jsn!({
                        "counters": jsn!({"driver.starved_total": 3u64}),
                        "gauges": jsn!({"driver.queue_age_max_us": 70_000u64}),
                    }),
                    "day_series": JsonValue::Array(Vec::new()),
                }),
            ],
        })
    }

    #[test]
    fn markdown_reports_days_slos_and_starvation() {
        let md = render_markdown(&fixture()).unwrap();
        assert!(md.contains("## table2"));
        assert!(md.contains("| day | service p50 | service p99 | service p999 |"));
        assert!(md.contains("| 0 | 9.000ms | 52.000ms | 52.300ms |"));
        assert!(md.contains("| p99(driver.service_us) < 150ms | 1 | 1 | 180.000ms |"));
        assert!(md.contains("2 dispatch(es) exceeded the starvation age"));
        assert!(md.contains("oldest request waited 90.000ms"));
        // The cache-fed run is reported honestly, not invented.
        assert!(md.contains("## fig8"));
        assert!(md.contains("No day series: zero day points recorded"));
        // Wall-clock data must never leak into the deterministic body.
        assert!(!md.contains("wall.event_loop"));
        assert!(!md.contains("1.25"));
    }

    #[test]
    fn zero_day_run_still_renders_run_level_sections() {
        let md = render_markdown(&fixture()).unwrap();
        let fig8 = md.split("## fig8").nth(1).expect("fig8 section");
        // Explicit section, not an empty table, not a bare paragraph.
        assert!(fig8.contains("### Day series"));
        assert!(fig8.contains("Tail-latency and SLO tables are omitted"));
        assert!(!fig8.contains("| day |"), "no empty latency table");
        assert!(!fig8.contains("### SLO verdicts"), "no vacuous SLO table");
        // Run-level starvation counters are independent of day points
        // and must survive the zero-day path.
        assert!(fig8.contains("### Starvation"));
        assert!(fig8.contains("3 dispatch(es) exceeded the starvation age"));
        assert!(fig8.contains("oldest request waited 70.000ms"));
    }

    #[test]
    fn serve_metrics_get_table_columns() {
        // A one-run record shaped like a serve-family day point.
        let record = jsn!({
            "schema": "abr-bench/1",
            "suite": vec!["serve-smoke"],
            "runs": vec![jsn!({
                "id": "serve-smoke",
                "ok": true,
                "sim_days": 1u64,
                "metrics": jsn!({"counters": JsonValue::object()}),
                "day_series": vec![jsn!({
                    "day": 0u64,
                    "hires": jsn!({
                        "serve.request_us": jsn!({
                            "count": 10u64,
                            "quantiles": jsn!({
                                "p50": 8_000u64, "p90": 20_000u64,
                                "p99": 28_000u64, "p999": 30_000u64,
                            }),
                        }),
                    }),
                })],
            })],
        });
        let md = render_markdown(&record).unwrap();
        assert!(md.contains("srv req p50"));
        assert!(md.contains("8.000ms"));
    }

    #[test]
    fn json_summarizes_per_objective() {
        let j = render_json(&fixture()).unwrap();
        assert_eq!(j["schema"], "abr-report/1");
        let r = &j["runs"][0];
        assert_eq!(r["id"], "table2");
        assert_eq!(r["day_points"], 2);
        assert_eq!(r["slo_summary"][0]["days_ok"], 1);
        assert_eq!(r["slo_summary"][0]["days_violated"], 1);
        assert_eq!(r["slo_summary"][0]["worst_us"], 180_000);
        assert_eq!(r["starved_total"], 2);
        assert_eq!(r["queue_age_max_us"], 90_000);
        assert_eq!(j["runs"][1]["day_points"], 0);
    }

    #[test]
    fn folded_profile_exports_wall_timers_only() {
        let folded = folded_profile(&fixture());
        assert_eq!(folded, "table2;event_loop 123456\n");
    }

    #[test]
    fn run_counters_section_renders_curated_rows_only() {
        let record = jsn!({
            "schema": "abr-bench/1",
            "suite": vec!["array-n2"],
            "runs": vec![jsn!({
                "id": "array-n2",
                "ok": true,
                "sim_days": 1u64,
                "metrics": jsn!({
                    "counters": jsn!({
                        "driver.submitted": 1_000u64,
                        "array.requests": 500u64,
                        "wall.event_loop.ns": 5u64,
                    }),
                    "gauges": jsn!({"array.disks.dead": 1u64}),
                }),
                "day_series": JsonValue::Array(Vec::new()),
            })],
        });
        let md = render_markdown(&record).unwrap();
        assert!(md.contains("### Run counters"));
        assert!(md.contains("| requests submitted | 1000 |"));
        assert!(md.contains("| array requests | 500 |"));
        assert!(md.contains("| disks dead | 1 |"));
        assert!(!md.contains("wall.event_loop"), "wall data must not leak");
        let j = render_json(&record).unwrap();
        assert_eq!(j["runs"][0]["counters"]["array.requests"], 500);
        assert_eq!(j["runs"][0]["counters"]["array.disks.dead"], 1);
        // The fixture's uncurated counters never get a section at all.
        let base = render_markdown(&fixture()).unwrap();
        assert!(!base.contains("### Run counters"));
    }

    #[test]
    fn a_run_of_several_cells_says_whose_data_it_shows() {
        let mut record = fixture();
        let mut runs = record["runs"].as_array().cloned().unwrap();
        runs[0].insert("cells", 3u64);
        record.insert("runs", JsonValue::Array(runs));
        let md = render_markdown(&record).unwrap();
        assert!(md.contains(
            "status: ok — 2 simulated day(s) over 3 cells, 2 day point(s); \
             metrics and day series are the last cell's."
        ));
        assert!(md.contains("status: ok — 35 simulated day(s), 0 day point(s).\n"));
        let j = render_json(&record).unwrap();
        assert_eq!(j["runs"][0]["cells"], 3);
        assert!(j["runs"][1].get("cells").is_none());
    }

    #[test]
    fn rejects_foreign_or_empty_records() {
        assert!(render_markdown(&jsn!({"schema": "other/1"})).is_err());
        assert!(
            render_markdown(&jsn!({"schema": "abr-bench/1", "runs": Vec::<JsonValue>::new()}))
                .is_err()
        );
    }
}
