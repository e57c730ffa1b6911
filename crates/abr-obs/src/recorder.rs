//! Flight-recorder ring buffer and the thread's trace context.
//!
//! Tracing follows the same discipline as the registry: one benchmark
//! run executes entirely on one worker thread, so the recorder lives in
//! the thread's observability context, switched on with [`trace_start`]
//! and harvested with [`trace_take`]. Instrumentation sites deep in the
//! driver call [`record`] (or [`record_with`], which defers event
//! construction); both are near-free no-ops when tracing is off, so the
//! instrumented hot path costs one thread-local read per event in
//! normal operation.
//!
//! The buffer is **bounded**: once `capacity` events are stored, new
//! events are dropped and counted instead of evicting old ones.
//! Keep-oldest (rather than keep-newest) makes overflow deterministic
//! and cheap — no memmove, and the retained prefix is identical no
//! matter how far past capacity a run goes. CI fails a traced smoke
//! run if the drop count is nonzero at the default capacity.

use crate::span::ObsEvent;
use crate::with_obs;

/// Default flight-recorder capacity (events). Sized so a full traced
/// `table2` campaign (≈330k request completions plus arranger traffic)
/// fits with ample headroom; at ~150 bytes per in-memory event this is
/// a ~160 MiB worst-case bound, only ever paid when tracing.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// A bounded in-memory event buffer with exact drop counting.
#[derive(Debug)]
pub struct FlightRecorder {
    events: Vec<ObsEvent>,
    capacity: usize,
    dropped: u64,
    paused: u32,
}

impl FlightRecorder {
    /// Create a recorder bounded at `capacity` events.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            events: Vec::new(),
            capacity,
            dropped: 0,
            paused: 0,
        }
    }

    /// Store `ev`, or count a drop if the buffer is full.
    pub fn record(&mut self, ev: ObsEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Events recorded so far (at most the capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consume the recorder into its final buffer.
    pub fn into_buffer(self) -> TraceBuffer {
        TraceBuffer {
            events: self.events,
            dropped: self.dropped,
        }
    }
}

/// The harvested result of a traced run: retained events in recording
/// order plus the exact count of events that did not fit.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    /// Retained events, oldest first.
    pub events: Vec<ObsEvent>,
    /// Events dropped at the capacity bound.
    pub dropped: u64,
}

impl TraceBuffer {
    /// Serialize as JSONL: one compact JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json().to_string());
            out.push('\n');
        }
        out
    }
}

/// Begin tracing on this thread with the given buffer capacity,
/// discarding any previous recorder.
///
/// Also hard-resets the pause depth: worker threads are reused across
/// runs, and a panicking run can leak a [`TracePause`] whose drop
/// never ran.
pub fn trace_start(capacity: usize) {
    with_obs(|o| o.recorder = Some(FlightRecorder::new(capacity)));
}

/// Stop tracing on this thread and return the harvested buffer.
/// Returns `None` if tracing was never started.
pub fn trace_take() -> Option<TraceBuffer> {
    with_obs(|o| o.recorder.take().map(FlightRecorder::into_buffer))
}

/// `true` when this thread currently has an unpaused recorder — i.e.
/// a [`record`] call right now would be stored (or counted as a drop).
pub fn trace_active() -> bool {
    with_obs(|o| o.recorder.as_ref().is_some_and(|rec| rec.paused == 0))
}

/// Record an event into this thread's recorder; no-op when tracing is
/// off or paused.
pub fn record(ev: ObsEvent) {
    record_with(|| ev);
}

/// Like [`record`], but the event is only built when it would actually
/// be stored — use at hot-path sites where constructing the event
/// (e.g. formatting an error string) has a cost. `make` runs while the
/// thread's observability context is borrowed, so it must not touch
/// the registry or the recorder.
pub fn record_with(make: impl FnOnce() -> ObsEvent) {
    with_obs(|o| {
        if let Some(rec) = o.recorder.as_mut().filter(|rec| rec.paused == 0) {
            rec.record(make());
        }
    });
}

/// RAII guard suppressing recording on this thread while alive.
///
/// Used around experiment setup and warmup days so traces contain only
/// the measured period. Pauses nest; the recorder resumes when the
/// last guard drops. Harmless when tracing is off.
#[derive(Debug)]
pub struct TracePause(());

impl TracePause {
    fn adjust(delta: i32) {
        with_obs(|o| {
            if let Some(rec) = o.recorder.as_mut() {
                rec.paused = rec.paused.saturating_add_signed(delta);
            }
        });
    }
}

impl Drop for TracePause {
    fn drop(&mut self) {
        TracePause::adjust(-1);
    }
}

/// Suppress recording on this thread until the returned guard drops.
pub fn trace_pause() -> TracePause {
    TracePause::adjust(1);
    TracePause(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{MoveKind, ObsEvent};

    fn ev(block: u64) -> ObsEvent {
        ObsEvent::Move {
            kind: MoveKind::BCopy,
            at_us: block,
            block,
            slot: 0,
            ops: 1,
            busy_us: 10,
            ok: true,
        }
    }

    #[test]
    fn overflow_drops_are_counted_exactly() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..10 {
            rec.record(ev(i));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 7);
        let buf = rec.into_buffer();
        // Keep-oldest: the retained prefix is blocks 0..3.
        let blocks: Vec<u64> = buf
            .events
            .iter()
            .map(|e| match e {
                ObsEvent::Move { block, .. } => *block,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(blocks, vec![0, 1, 2]);
        assert_eq!(buf.dropped, 7);
    }

    #[test]
    fn thread_local_lifecycle() {
        assert!(!trace_active());
        record(ev(1)); // no-op, tracing off
        trace_start(8);
        assert!(trace_active());
        record(ev(2));
        record_with(|| ev(3));
        let buf = trace_take().expect("recorder present");
        assert_eq!(buf.events.len(), 2);
        assert_eq!(buf.dropped, 0);
        assert!(!trace_active());
        assert!(trace_take().is_none());
    }

    #[test]
    fn pause_guard_nests_and_resumes() {
        trace_start(8);
        {
            let _outer = trace_pause();
            assert!(!trace_active());
            record(ev(1)); // suppressed
            {
                let _inner = trace_pause();
                record(ev(2)); // suppressed
            }
            assert!(!trace_active());
            record(ev(3)); // still suppressed: outer guard alive
        }
        assert!(trace_active());
        record(ev(4));
        let buf = trace_take().unwrap();
        assert_eq!(buf.events.len(), 1);
        assert_eq!(buf.dropped, 0, "suppressed events are not drops");
    }

    #[test]
    fn trace_start_resets_leaked_pause() {
        trace_start(8);
        let leaked = trace_pause();
        std::mem::forget(leaked); // simulate a panicked run leaking its guard
        trace_start(8);
        assert!(trace_active(), "fresh trace must not inherit pause depth");
        record(ev(1));
        assert_eq!(trace_take().unwrap().events.len(), 1);
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        trace_start(8);
        record(ev(1));
        record(ev(2));
        let text = trace_take().unwrap().to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        for line in text.lines() {
            abr_sim::json::JsonValue::parse(line).expect("each line parses");
        }
    }
}
