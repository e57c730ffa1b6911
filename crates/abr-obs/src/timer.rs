//! Scoped wall-clock profiling timers.
//!
//! A [`ScopedWallTimer`] measures real elapsed time for one named
//! pipeline phase (analyzer, placement, shuffle, event loop) and, on
//! drop, adds it to this thread's [`registry`](crate::registry) under
//! `wall.<name>.ns` with a matching `wall.<name>.calls` counter — so
//! sim-time and real-time cost of each phase sit side by side in one
//! snapshot.
//!
//! Wall-clock values are inherently nondeterministic. They are *only*
//! allowed to flow into `BENCH_experiments.json` (which is never
//! byte-compared); traced artifacts and `results/*.json` must not
//! embed registry sections containing `wall.` metrics. Keeping the
//! nondeterminism confined to clearly-prefixed metric names is what
//! makes that rule auditable.

use std::time::Instant;

use crate::registry::with_registry;

/// RAII wall-clock timer for a named phase; records on drop.
#[derive(Debug)]
pub struct ScopedWallTimer {
    name: &'static str,
    started: Instant,
}

impl ScopedWallTimer {
    /// Start timing the phase `name` (e.g. `"analyzer.observe"`).
    pub fn new(name: &'static str) -> ScopedWallTimer {
        #[allow(
            clippy::disallowed_methods,
            reason = "this is THE sanctioned wall-clock site"
        )]
        ScopedWallTimer {
            name,
            started: Instant::now(),
        }
    }
}

impl Drop for ScopedWallTimer {
    fn drop(&mut self) {
        let elapsed_ns = self.started.elapsed().as_nanos() as u64;
        with_registry(|reg| {
            let ns = reg.counter(&format!("wall.{}.ns", self.name));
            let calls = reg.counter(&format!("wall.{}.calls", self.name));
            reg.inc(ns, elapsed_ns);
            reg.inc(calls, 1);
        });
    }
}

/// Start a scoped timer for `name`; keep the guard alive for the span
/// of the phase being measured.
pub fn time_scope(name: &'static str) -> ScopedWallTimer {
    ScopedWallTimer::new(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{registry_reset, registry_snapshot};

    #[test]
    fn timer_records_ns_and_calls() {
        registry_reset();
        {
            let _t = time_scope("test.phase");
        }
        {
            let _t = time_scope("test.phase");
        }
        let snap = registry_snapshot();
        assert_eq!(snap["counters"]["wall.test.phase.calls"], 2);
        assert!(snap["counters"]["wall.test.phase.ns"].as_u64().is_some());
    }
}
