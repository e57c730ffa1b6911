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
//! (bookkeeping incremented *by* the recorder). The series lives in the
//! thread's observability context with the registry itself, so
//! `--jobs N` workers cannot interleave; the engine resets it per run
//! and harvests it into `RunOutcome` / `BENCH_experiments.json`.

use std::collections::BTreeMap;

use crate::hires::LogHistogram;
use crate::{slo, with_obs};
use abr_sim::jsn;
use abr_sim::json::JsonValue;

/// Metric name families excluded from day points (see module docs).
fn excluded(name: &str) -> bool {
    name.starts_with("wall.") || name.starts_with("slo.")
}

/// The accumulating series plus the previous boundary's baselines.
#[derive(Default)]
pub(crate) struct DaySeries {
    points: Vec<JsonValue>,
    base_counters: BTreeMap<String, u64>,
    base_hires: BTreeMap<String, LogHistogram>,
}

impl DaySeries {
    pub(crate) const fn new() -> DaySeries {
        DaySeries {
            points: Vec::new(),
            base_counters: BTreeMap::new(),
            base_hires: BTreeMap::new(),
        }
    }
}

/// Discard all recorded points and baselines — run boundaries, paired
/// with `registry_clear`.
pub fn day_series_reset() {
    with_obs(|o| o.series = DaySeries::new());
}

/// Number of day points recorded since the last reset/take.
pub fn day_series_len() -> usize {
    with_obs(|o| o.series.points.len())
}

/// `pairs` as a JSON object, names sorted.
fn sorted_object(mut pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    let mut object = JsonValue::object();
    for (name, v) in pairs {
        object.insert(name, v);
    }
    object
}

/// Record one day point: diff the live registry against the previous
/// boundary, evaluate any installed SLOs on the day's deltas, append
/// the point, and advance the baselines. Called once per simulated day
/// by the experiment harnesses (after the day-end stats flush, so the
/// driver's batched observations are visible).
pub fn day_series_record() {
    with_obs(|o| {
        let (registry, series) = (&mut o.registry, &mut o.series);
        let mut counters = Vec::new();
        let mut base_counters = BTreeMap::new();
        for (name, v) in registry.iter_counters().filter(|(n, _)| !excluded(n)) {
            let base = series.base_counters.get(name).copied().unwrap_or(0);
            let delta = v.saturating_sub(base);
            if delta > 0 {
                counters.push((name, JsonValue::from(delta)));
            }
            base_counters.insert(name.to_string(), v);
        }
        let gauges = registry
            .iter_gauges()
            .filter(|(n, _)| !excluded(n))
            .map(|(n, v)| (n, JsonValue::from(v)))
            .collect();
        let mut hires = Vec::new();
        let mut base_hires = BTreeMap::new();
        for (name, h) in registry.iter_hires().filter(|(n, _)| !excluded(n)) {
            let delta = match series.base_hires.get(name) {
                Some(base) => h.diff(base),
                None => h.clone(),
            };
            if delta.count() > 0 {
                hires.push((name, delta));
            }
            base_hires.insert(name.to_string(), h.clone());
        }
        // The objectives judge the same deltas the point reports;
        // `slo.violations` is excluded from points, so no feedback.
        let verdicts = slo::evaluate_day(&o.slos, |metric, q| {
            let delta = hires.iter().find(|(n, _)| *n == metric);
            delta.map(|(_, h)| h.quantile(q))
        });
        let hires = hires
            .into_iter()
            .map(|(n, h)| {
                let summary = jsn!({
                    "count": h.count(),
                    "sum": h.sum(),
                    "max": h.max(),
                    "quantiles": h.quantiles_json(),
                });
                (n, summary)
            })
            .collect();
        let mut point = jsn!({
            "day": series.points.len() as u64,
            "counters": sorted_object(counters),
            "gauges": sorted_object(gauges),
            "hires": sorted_object(hires),
        });
        if let Some((v, violations)) = verdicts {
            point.insert("slo", v);
            if violations > 0 {
                let c = registry.counter("slo.violations");
                registry.inc(c, violations);
            }
        }
        series.points.push(point);
        series.base_counters = base_counters;
        series.base_hires = base_hires;
    });
}

/// Take the recorded series as a JSON array, leaving the recorder
/// empty (points *and* baselines) for the next run.
pub fn day_series_take() -> JsonValue {
    JsonValue::from(with_obs(|o| std::mem::take(&mut o.series)).points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{registry_clear, with_registry};

    #[test]
    fn records_deltas_not_totals() {
        registry_clear();
        day_series_reset();
        let slo = crate::Slo::parse("p99(t.lat_us) < 300us").unwrap();
        crate::slo::slo_install(vec![slo]);
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
        // The objective judges each day's delta, not the running total.
        assert_eq!(series[0]["slo"][0]["ok"], true);
        assert_eq!(series[1]["slo"][0]["ok"], false);
        let snapshot = crate::registry_snapshot();
        assert_eq!(snapshot["counters"]["slo.violations"], 1);
        crate::slo::slo_clear();
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
