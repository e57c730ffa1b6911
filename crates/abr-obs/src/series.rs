//! Per-day metric time series.
//!
//! End-of-run registry snapshots collapse a multi-week simulation into
//! one number per metric, hiding exactly what the paper is about:
//! day-to-day adaptation. This module keeps an ordered series of
//! **per-day deltas** — at each simulated day boundary the engine calls
//! [`day_series_record`], which diffs the live registry against the
//! previous day's baseline and appends one JSON point.
//!
//! A day point looks like:
//!
//! ```json
//! {
//!   "day": 3,
//!   "counters": { "driver.dispatch.reserved": 812, ... },
//!   "gauges": { "driver.queue_age_max_us": 181243, ... },
//!   "hires": { "driver.service_us": { "count": ..., "sum": ...,
//!               "max": ..., "quantiles": { "p50": ..., ... } }, ... },
//!   "slo": [ { "slo": "p99(driver.service_us) < 150ms",
//!              "value": 52223, "ok": true }, ... ]
//! }
//! ```
//!
//! Counters are **deltas** (only non-zero ones appear), gauges are the
//! values at the boundary, histograms report their per-day delta's
//! count/sum/max and quantile set. Two name families are excluded:
//! `wall.*` (real time — nondeterministic by construction) and `slo.*`
//! (bookkeeping incremented *by* the recorder). The series is
//! thread-local like the registry itself, so `--jobs N` workers cannot
//! interleave; the engine resets it per run and harvests it into
//! `RunOutcome` / `BENCH_experiments.json`.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::hires::LogHistogram;
use crate::registry::with_registry;
use crate::slo;
use abr_sim::jsn;
use abr_sim::json::JsonValue;

/// Metric name families excluded from day points (see module docs).
fn excluded(name: &str) -> bool {
    name.starts_with("wall.") || name.starts_with("slo.")
}

/// The accumulating series plus the previous boundary's baselines.
#[derive(Default)]
struct DaySeries {
    points: Vec<JsonValue>,
    base_counters: BTreeMap<String, u64>,
    base_hires: BTreeMap<String, LogHistogram>,
}

thread_local! {
    static SERIES: RefCell<DaySeries> = RefCell::new(DaySeries::default());
}

/// Discard all recorded points and baselines — run boundaries, paired
/// with `registry_clear`.
pub fn day_series_reset() {
    SERIES.with(|s| *s.borrow_mut() = DaySeries::default());
}

/// Number of day points recorded since the last reset/take.
pub fn day_series_len() -> usize {
    SERIES.with(|s| s.borrow().points.len())
}

/// Record one day point: diff the live registry against the previous
/// boundary, evaluate any installed SLOs on the day's deltas, append
/// the point, and advance the baselines. Called once per simulated day
/// by the experiment harnesses (after the day-end stats flush, so the
/// driver's batched observations are visible).
pub fn day_series_record() {
    // Phase 1: pull everything needed out of the registry (clones), so
    // the registry borrow is released before SLO bookkeeping writes
    // back into it.
    struct DayData {
        counter_deltas: Vec<(String, u64)>,
        gauges: Vec<(String, i64)>,
        hires_deltas: Vec<(String, LogHistogram)>,
        counters_now: BTreeMap<String, u64>,
        hires_now: BTreeMap<String, LogHistogram>,
    }
    let data = SERIES.with(|s| {
        let series = s.borrow();
        with_registry(|r| {
            let mut counter_deltas = Vec::new();
            let mut counters_now = BTreeMap::new();
            for (name, v) in r.iter_counters() {
                if excluded(name) {
                    continue;
                }
                counters_now.insert(name.to_string(), v);
                let base = series.base_counters.get(name).copied().unwrap_or(0);
                let delta = v.saturating_sub(base);
                if delta > 0 {
                    counter_deltas.push((name.to_string(), delta));
                }
            }
            let gauges = r
                .iter_gauges()
                .filter(|(name, _)| !excluded(name))
                .map(|(n, v)| (n.to_string(), v))
                .collect();
            let mut hires_deltas = Vec::new();
            let mut hires_now = BTreeMap::new();
            for (name, h) in r.iter_hires() {
                if excluded(name) {
                    continue;
                }
                let delta = match series.base_hires.get(name) {
                    Some(base) => h.diff(base),
                    None => h.clone(),
                };
                hires_now.insert(name.to_string(), h.clone());
                if delta.count() > 0 {
                    hires_deltas.push((name.to_string(), delta));
                }
            }
            DayData {
                counter_deltas,
                gauges,
                hires_deltas,
                counters_now,
                hires_now,
            }
        })
    });

    // Phase 2: evaluate SLOs against the day's deltas (may write the
    // slo.violations counter — excluded from points, so no feedback).
    let lookup = |metric: &str, q: f64| -> Option<u64> {
        let delta = data.hires_deltas.iter().find(|(n, _)| n == metric);
        delta.map(|(_, h)| h.quantile(q))
    };
    let verdicts = slo::evaluate_day(&lookup);

    // Phase 3: assemble the point (names already sorted — they come
    // from sorted baselines or are sorted here) and advance baselines.
    SERIES.with(|s| {
        let mut series = s.borrow_mut();
        let sorted_obj = |mut pairs: Vec<(String, JsonValue)>| {
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            let mut o = JsonValue::object();
            for (name, v) in pairs {
                o.insert(name, v);
            }
            o
        };
        let summarize_hires = |h: &LogHistogram| {
            jsn!({
                "count": h.count(),
                "sum": h.sum(),
                "max": h.max(),
                "quantiles": h.quantiles_json(),
            })
        };
        let mut point = jsn!({
            "day": series.points.len() as u64,
            "counters": sorted_obj(
                data.counter_deltas
                    .iter()
                    .map(|(n, v)| (n.clone(), JsonValue::from(*v)))
                    .collect(),
            ),
            "gauges": sorted_obj(
                data.gauges
                    .iter()
                    .map(|(n, v)| (n.clone(), JsonValue::from(*v)))
                    .collect(),
            ),
            "hires": sorted_obj(
                data.hires_deltas
                    .iter()
                    .map(|(n, h)| (n.clone(), summarize_hires(h)))
                    .collect(),
            ),
        });
        if let Some(v) = verdicts {
            point.insert("slo", v);
        }
        series.points.push(point);
        series.base_counters = data.counters_now;
        series.base_hires = data.hires_now;
    });
}

/// Take the recorded series as a JSON array, leaving the recorder
/// empty (points *and* baselines) for the next run.
pub fn day_series_take() -> JsonValue {
    SERIES.with(|s| {
        let series = std::mem::take(&mut *s.borrow_mut());
        JsonValue::from(series.points)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry_clear;

    #[test]
    fn records_deltas_not_totals() {
        registry_clear();
        day_series_reset();
        crate::slo::slo_clear();
        with_registry(|r| {
            let c = r.counter("t.reqs");
            let h = r.hires("t.lat_us");
            r.inc(c, 5);
            r.observe_hires(h, 100);
            r.observe_hires(h, 200);
        });
        day_series_record();
        with_registry(|r| {
            let c = r.counter("t.reqs");
            let h = r.hires("t.lat_us");
            r.inc(c, 3);
            r.observe_hires(h, 400);
        });
        day_series_record();
        let series = day_series_take();
        assert_eq!(series[0]["day"], 0);
        assert_eq!(series[0]["counters"]["t.reqs"], 5);
        assert_eq!(series[0]["hires"]["t.lat_us"]["count"], 2);
        assert_eq!(series[1]["day"], 1);
        assert_eq!(series[1]["counters"]["t.reqs"], 3);
        assert_eq!(series[1]["hires"]["t.lat_us"]["count"], 1);
        assert_eq!(series[1]["hires"]["t.lat_us"]["sum"], 400);
        // Taking drained the series.
        assert_eq!(day_series_len(), 0);
    }

    #[test]
    fn wall_and_slo_names_are_excluded() {
        registry_clear();
        day_series_reset();
        crate::slo::slo_clear();
        with_registry(|r| {
            let w = r.counter("wall.phase.ns");
            let s = r.counter("slo.violations");
            let ok = r.counter("real.metric");
            r.inc(w, 123);
            r.inc(s, 1);
            r.inc(ok, 7);
        });
        day_series_record();
        let series = day_series_take();
        let counters = &series[0]["counters"];
        assert_eq!(counters["real.metric"], 7);
        assert!(counters.get("wall.phase.ns").is_none());
        assert!(counters.get("slo.violations").is_none());
    }

    #[test]
    fn quiet_day_is_sparse() {
        registry_clear();
        day_series_reset();
        crate::slo::slo_clear();
        with_registry(|r| {
            let c = r.counter("t.reqs");
            r.inc(c, 1);
        });
        day_series_record();
        day_series_record(); // nothing happened between the boundaries
        let series = day_series_take();
        assert!(series[1]["counters"].get("t.reqs").is_none());
    }
}
