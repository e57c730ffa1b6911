//! Unified metrics registry: counters, gauges, latency histograms.
//!
//! Every subsystem that used to keep an ad-hoc `u64` tally (the request
//! monitor, the perf monitor, the bench engine's `RunMeter`) registers
//! a named metric here instead and holds a static handle
//! ([`CounterId`] / [`GaugeId`] / [`HiresId`]) — an index, so the
//! hot-path update is one bounds-checked array write with no hashing.
//!
//! The registry is thread-local for the same reason the flight recorder
//! is: each benchmark run owns one worker thread, so per-run metrics
//! need no locks and parallel runs cannot interleave. [`Registry::reset`]
//! zeroes values but **preserves definitions**, so handles resolved once
//! (e.g. at driver construction) stay valid across day boundaries and
//! engine resets.
//!
//! Snapshots serialize through [`abr_sim::json`] with names sorted, so
//! two runs that touched the same metrics in different orders still
//! emit identical bytes.

use std::cell::RefCell;

use crate::hires::LogHistogram;
use abr_sim::jsn;
use abr_sim::json::JsonValue;

/// Handle to a registered counter (monotone `u64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge (settable `i64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered high-resolution [`LogHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HiresId(usize);

/// A metrics registry: named counters, gauges, and latency histograms.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    hires: Vec<(String, LogHistogram)>,
    /// Counter values at the previous snapshot — sanitize builds verify
    /// counters are monotone between snapshots (a counter running
    /// backwards means someone wrote through a stale handle).
    #[cfg(feature = "sanitize")]
    monotone_baseline: RefCell<Vec<(String, u64)>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_string(), 0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Get or create the high-resolution histogram named `name`. The
    /// bucket layout is a global constant (see [`LogHistogram`]), so
    /// there is nothing to fix at registration time.
    pub fn hires(&mut self, name: &str) -> HiresId {
        if let Some(i) = self.hires.iter().position(|(n, _)| n == name) {
            return HiresId(i);
        }
        self.hires.push((name.to_string(), LogHistogram::new()));
        HiresId(self.hires.len() - 1)
    }

    /// Add `delta` to a counter.
    pub fn inc(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].1 += delta;
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Set a gauge.
    pub fn set_gauge(&mut self, id: GaugeId, value: i64) {
        self.gauges[id.0].1 = value;
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> i64 {
        self.gauges[id.0].1
    }

    /// Record one observation into a high-resolution histogram.
    pub fn observe_hires(&mut self, id: HiresId, value: u64) {
        self.hires[id.0].1.observe(value);
    }

    /// Merge a locally-accumulated [`LogHistogram`] into a registered
    /// one — the batched alternative to per-observation
    /// [`Registry::observe_hires`] on hot paths.
    pub fn merge_hires(&mut self, id: HiresId, other: &LogHistogram) {
        self.hires[id.0].1.merge(other);
    }

    /// Read access to a high-resolution histogram.
    pub fn hires_value(&self, id: HiresId) -> &LogHistogram {
        &self.hires[id.0].1
    }

    /// Iterate counters as `(name, value)` in registration order.
    pub fn iter_counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Iterate gauges as `(name, value)` in registration order.
    pub fn iter_gauges(&self) -> impl Iterator<Item = (&str, i64)> + '_ {
        self.gauges.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Iterate high-resolution histograms in registration order.
    pub fn iter_hires(&self) -> impl Iterator<Item = (&str, &LogHistogram)> + '_ {
        self.hires.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Zero all values, **keeping definitions** so existing handles
    /// remain valid (day boundaries, engine resets).
    pub fn reset(&mut self) {
        // Counters legitimately return to zero here; drop the baseline
        // so the next snapshot starts a fresh monotone epoch.
        #[cfg(feature = "sanitize")]
        self.monotone_baseline.borrow_mut().clear();
        self.counters.iter_mut().for_each(|(_, v)| *v = 0);
        self.gauges.iter_mut().for_each(|(_, v)| *v = 0);
        self.hires.iter_mut().for_each(|(_, h)| h.reset());
    }

    /// Serialize all metrics, names sorted within each section, as a
    /// deterministic JSON object:
    /// `{"counters": {...}, "gauges": {...}, "hires": {...}}`.
    pub fn snapshot(&self) -> JsonValue {
        #[cfg(feature = "sanitize")]
        {
            let mut base = self.monotone_baseline.borrow_mut();
            for (name, v) in &self.counters {
                if let Some((_, prev)) = base.iter().find(|(n, _)| n == name) {
                    if let Err(e) = abr_sim::sanitize::check_monotone(name, *prev, *v) {
                        panic!("registry sanitizer: {e}");
                    }
                }
            }
            *base = self.counters.clone();
        }
        jsn!({
            "counters": section(&self.counters, |v| JsonValue::from(*v)),
            "gauges": section(&self.gauges, |v| JsonValue::from(*v)),
            "hires": section(&self.hires, LogHistogram::to_json),
        })
    }
}

/// One section of a snapshot: `metrics` as an object, names sorted.
fn section<T>(metrics: &[(String, T)], value: impl Fn(&T) -> JsonValue) -> JsonValue {
    let mut sorted: Vec<&(String, T)> = metrics.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut object = JsonValue::object();
    for (name, v) in sorted {
        object.insert(name.as_str(), value(v));
    }
    object
}

thread_local! {
    static REGISTRY: RefCell<Registry> = RefCell::new(Registry::new());
}

/// Run `f` with this thread's registry. The registry always exists;
/// metric updates outside any run simply accumulate until the next
/// [`registry_reset`].
pub fn with_registry<T>(f: impl FnOnce(&mut Registry) -> T) -> T {
    REGISTRY.with(|r| f(&mut r.borrow_mut()))
}

/// Zero this thread's registry values (definitions survive).
pub fn registry_reset() {
    with_registry(Registry::reset);
}

/// Discard this thread's registry entirely, definitions included,
/// invalidating every previously resolved handle. Use at *run*
/// boundaries (the bench engine reuses worker threads across runs, and
/// a leftover zero-valued definition would make one run's snapshot
/// depend on which runs its thread executed before); within a run, use
/// [`registry_reset`] so handles stay valid.
pub fn registry_clear() {
    with_registry(|r| *r = Registry::new());
}

/// Snapshot this thread's registry as deterministic JSON.
pub fn registry_snapshot() -> JsonValue {
    with_registry(|r| r.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_get_or_create() {
        let mut reg = Registry::new();
        let a = reg.counter("io.reads");
        let b = reg.counter("io.reads");
        assert_eq!(a, b);
        let c = reg.counter("io.writes");
        assert_ne!(a, c);
        reg.inc(a, 2);
        reg.inc(b, 3);
        assert_eq!(reg.counter_value(a), 5);
    }

    #[test]
    fn reset_preserves_definitions() {
        let mut reg = Registry::new();
        let c = reg.counter("x");
        let g = reg.gauge("y");
        let h = reg.hires("z");
        reg.inc(c, 7);
        reg.set_gauge(g, -4);
        reg.observe_hires(h, 55);
        reg.reset();
        assert_eq!(reg.counter_value(c), 0);
        assert_eq!(reg.gauge_value(g), 0);
        assert_eq!(reg.hires_value(h).count(), 0);
        // Handles resolved before the reset still address the same metric.
        reg.inc(c, 1);
        let again = reg.counter("x");
        assert_eq!(reg.counter_value(again), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_registration_order_free() {
        let mut a = Registry::new();
        let (a_zz, a_aa) = (a.counter("zz"), a.counter("aa"));
        a.inc(a_zz, 1);
        a.inc(a_aa, 2);
        let mut b = Registry::new();
        let (b_aa, b_zz) = (b.counter("aa"), b.counter("zz"));
        b.inc(b_aa, 2);
        b.inc(b_zz, 1);
        assert_eq!(a.snapshot().to_string(), b.snapshot().to_string());
        let text = a.snapshot().to_string();
        assert!(text.find("\"aa\"").unwrap() < text.find("\"zz\"").unwrap());
    }

    #[test]
    fn thread_local_reset_roundtrip() {
        registry_reset();
        let id = with_registry(|r| {
            let id = r.counter("tl.test");
            r.inc(id, 9);
            id
        });
        let snap = registry_snapshot();
        assert_eq!(snap["counters"]["tl.test"], 9);
        registry_reset();
        assert_eq!(with_registry(|r| r.counter_value(id)), 0);
    }
}
