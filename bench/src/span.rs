//! Spans recorded from the benchmark's own files, around its calls into
//! each layer.
//!
//! A replica makes several calls per simulated request, so a span per
//! call would be hundreds of thousands of records per sample. Calls are
//! folded as they happen into one record per (sample, day, name): total
//! time, call count, first start and last end. Records stay in memory
//! and are written out as JSON lines when the run ends.
//!
//! Every name has a fixed parent, and a layer's **self time** is its
//! record's total minus the totals of its children in the same scope.
//!
//! Spans are stamped with the CPU's time-stamp counter where there is
//! one. `Instant::now()` costs 45 ns in a loop on the reference host
//! but about 145 ns between calls into the simulator, because the
//! system clock read waits for every earlier instruction to retire: at
//! twelve reads per simulated request that made the traced replica
//! 85 % slower than the untraced run. The raw counter costs 19 ns and
//! does not wait. Ticks are turned into nanoseconds against `Instant`
//! over the tracer's whole life.
//!
//! Even so, four reads per simulated request cost a fifth of a
//! `paper_system` run (the read is cheap in a loop of its own and dear
//! between calls into the simulator, whichever clock it is). Per-call
//! laps are therefore *fine* spans that the replica switches on for one
//! pair of days per sample, a different pair in each sample; per-day and
//! per-night spans are always on.

use abr_sim::{jsn, JsonValue};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The time-stamp counter, in ticks of unknown but constant length.
#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` reads a counter into registers. It touches no
    // memory, has no operand, and exists on every x86_64 processor.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Hosts without a time-stamp counter tick in nanoseconds.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ticks() -> u64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span name and the name that encloses it.
#[derive(Debug, Clone, Copy)]
pub struct SpanDef {
    pub name: &'static str,
    /// Index of the enclosing span in the same table; `None` at the top.
    pub parent: Option<usize>,
}

/// Folded calls of one name within one scope; times in ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Folded {
    pub total: u64,
    pub calls: u64,
    /// Start of the first call and end of the last, since the tracer began.
    pub first_start: u64,
    pub last_end: u64,
}

/// All spans of one (sample, day).
#[derive(Debug, Clone)]
pub struct Scope {
    pub sample: u32,
    pub day: u32,
    pub rows: Vec<Folded>,
}

#[derive(Debug)]
pub struct Tracer {
    defs: &'static [SpanDef],
    epoch: Instant,
    epoch_ticks: u64,
    scopes: Vec<Scope>,
    current: Scope,
    /// Whether fine (per-call) laps are recorded right now.
    fine: bool,
}

impl Tracer {
    pub fn new(defs: &'static [SpanDef]) -> Tracer {
        Tracer {
            defs,
            epoch: Instant::now(),
            epoch_ticks: ticks(),
            scopes: Vec::new(),
            current: Scope {
                sample: 0,
                day: 0,
                rows: vec![Folded::default(); defs.len()],
            },
            fine: true,
        }
    }

    /// Switch the per-call laps on or off (see the module text).
    pub fn set_fine(&mut self, on: bool) {
        self.fine = on;
    }

    /// Close the current scope and open the one for (`sample`, `day`).
    pub fn scope(&mut self, sample: u32, day: u32) {
        self.flush();
        self.current.sample = sample;
        self.current.day = day;
    }

    fn flush(&mut self) {
        if self.current.rows.iter().any(|r| r.calls > 0) {
            self.scopes.push(self.current.clone());
        }
        self.current.rows.fill(Folded::default());
    }

    /// Ticks since the tracer began.
    #[inline]
    pub fn now(&self) -> u64 {
        ticks().wrapping_sub(self.epoch_ticks)
    }

    /// Nanoseconds per tick, measured over the tracer's life so far
    /// (meaningful once that is more than a few milliseconds).
    fn ns_per_tick(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / self.now().max(1) as f64
    }

    /// Fold one call of span `id` that ran from `start` to now, and
    /// return now: the start of whatever comes next. Chaining laps costs
    /// one clock read per boundary instead of two per span.
    #[inline]
    pub fn lap(&mut self, id: usize, start: u64) -> u64 {
        let end = self.now();
        self.add(id, start, end);
        end
    }

    /// A [`Tracer::lap`] around a single call: recorded only while fine
    /// spans are on, and free (no clock read) while they are off.
    #[inline]
    pub fn fine_lap(&mut self, id: usize, start: u64) -> u64 {
        if self.fine {
            self.lap(id, start)
        } else {
            start
        }
    }

    #[inline]
    pub fn add(&mut self, id: usize, start: u64, end: u64) {
        let row = &mut self.current.rows[id];
        if row.calls == 0 {
            row.first_start = start;
        }
        row.calls += 1;
        row.total += end.saturating_sub(start);
        row.last_end = end;
    }

    /// Time one call into a layer.
    #[inline]
    pub fn time<T>(&mut self, id: usize, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.lap(id, start);
        out
    }

    /// Ticks of span `id` in the scope still open.
    pub fn current_ticks(&self, id: usize) -> u64 {
        self.current.rows[id].total
    }

    /// Scopes closed so far.
    pub fn scopes_len(&self) -> usize {
        self.scopes.len()
    }

    /// Ticks of span `id` over the closed scopes from index `first` on,
    /// plus the open one.
    pub fn ticks_since(&self, first: usize, id: usize) -> u64 {
        let closed: u64 = self.scopes[first..].iter().map(|s| s.rows[id].total).sum();
        closed + self.current.rows[id].total
    }

    /// `ticks` in nanoseconds, at the scale measured so far.
    pub fn ns(&self, ticks: u64) -> f64 {
        ticks as f64 * self.ns_per_tick()
    }

    /// Close the last scope and hand back everything recorded.
    pub fn finish(mut self) -> Trace {
        self.flush();
        Trace {
            defs: self.defs,
            ns_per_tick: self.ns_per_tick(),
            scopes: self.scopes,
        }
    }
}

/// Time `f` under span `id` when there is a tracer; just run it when
/// there is none (the untraced path pays for no clock read).
#[inline]
pub fn timed<T>(tracer: &mut Option<&mut Tracer>, id: usize, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.time(id, f),
        None => f(),
    }
}

/// A finished trace.
#[derive(Debug)]
pub struct Trace {
    pub defs: &'static [SpanDef],
    pub ns_per_tick: f64,
    pub scopes: Vec<Scope>,
}

impl Trace {
    /// Write one JSON line per (sample, day, name) that was called,
    /// times in nanoseconds since the tracer began.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let ns = |ticks: u64| (ticks as f64 * self.ns_per_tick) as u64;
        for scope in &self.scopes {
            for (id, row) in scope.rows.iter().enumerate() {
                if row.calls == 0 {
                    continue;
                }
                let def = self.defs[id];
                let parent = match def.parent {
                    Some(p) => JsonValue::from(self.defs[p].name),
                    None => JsonValue::Null,
                };
                let line = jsn!({
                    "sample": scope.sample,
                    "day": scope.day,
                    "name": def.name,
                    "parent": parent,
                    "start_ns": ns(row.first_start),
                    "end_ns": ns(row.last_end),
                    "total_ns": ns(row.total),
                    "self_ns": ns(self_ticks(self.defs, &scope.rows, id)),
                    "calls": row.calls,
                });
                writeln!(out, "{line}")?;
            }
        }
        out.flush()
    }
}

/// Self time of `id` in one scope: its total minus its children's
/// totals (never below zero: timer granularity can make children sum
/// past a very short parent).
pub fn self_ticks(defs: &[SpanDef], rows: &[Folded], id: usize) -> u64 {
    let children: u64 = defs
        .iter()
        .zip(rows)
        .filter(|(d, _)| d.parent == Some(id))
        .map(|(_, r)| r.total)
        .sum();
    rows[id].total.saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEFS: [SpanDef; 4] = [
        SpanDef {
            name: "day",
            parent: None,
        },
        SpanDef {
            name: "submit",
            parent: Some(0),
        },
        SpanDef {
            name: "complete",
            parent: Some(0),
        },
        SpanDef {
            name: "disk",
            parent: Some(2),
        },
    ];

    fn rows(totals: [u64; 4]) -> Vec<Folded> {
        totals
            .iter()
            .map(|&total| Folded {
                total,
                calls: 1,
                ..Folded::default()
            })
            .collect()
    }

    #[test]
    fn self_time_is_total_minus_direct_children() {
        let r = rows([1_000, 200, 500, 300]);
        assert_eq!(
            self_ticks(&DEFS, &r, 0),
            300,
            "day minus submit and complete"
        );
        assert_eq!(self_ticks(&DEFS, &r, 1), 200, "a leaf keeps everything");
        assert_eq!(self_ticks(&DEFS, &r, 2), 200, "complete minus disk");
        assert_eq!(self_ticks(&DEFS, &r, 3), 300);
        // Grandchildren are not subtracted twice: the self times sum to
        // the root's total.
        let sum: u64 = (0..4).map(|i| self_ticks(&DEFS, &r, i)).sum();
        assert_eq!(sum, 1_000);
        // Children that overrun a short parent clamp at zero.
        assert_eq!(self_ticks(&DEFS, &rows([10, 8, 8, 0]), 0), 0);
    }

    #[test]
    fn calls_fold_per_scope() {
        let mut t = Tracer::new(&DEFS);
        t.scope(0, 0);
        t.add(1, 10, 30);
        t.add(1, 50, 60);
        t.add(0, 0, 100);
        t.scope(0, 1);
        t.add(1, 200, 205);
        t.scope(0, 2);
        assert_eq!(t.scopes_len(), 2);
        assert_eq!(t.current_ticks(1), 0);
        assert_eq!(t.ticks_since(0, 1), 35);
        assert_eq!(t.ticks_since(1, 1), 5);
        assert!(t.ns(1_000) > 0.0);
        t.scope(1, 0); // an empty scope leaves no record
        let trace = t.finish();
        assert_eq!(trace.scopes.len(), 2);
        let day0 = &trace.scopes[0];
        assert_eq!((day0.sample, day0.day), (0, 0));
        assert_eq!(
            day0.rows[1],
            Folded {
                total: 30,
                calls: 2,
                first_start: 10,
                last_end: 60
            }
        );
        assert_eq!(self_ticks(trace.defs, &day0.rows, 0), 70);
    }

    #[test]
    fn fine_laps_can_be_switched_off() {
        let mut t = Tracer::new(&DEFS);
        let start = t.now();
        let mark = t.fine_lap(1, start);
        t.set_fine(false);
        assert_eq!(t.fine_lap(1, mark), mark, "no clock read, no record");
        t.lap(0, start); // coarse spans stay on
        let trace = t.finish();
        assert_eq!(trace.scopes[0].rows[1].calls, 1);
        assert_eq!(trace.scopes[0].rows[0].calls, 1);
    }

    #[test]
    fn timing_a_call_records_it() {
        let mut t = Tracer::new(&DEFS);
        let x = t.time(3, || 41 + 1);
        assert_eq!(x, 42);
        let trace = t.finish();
        assert_eq!(trace.scopes[0].rows[3].calls, 1);
    }
}
