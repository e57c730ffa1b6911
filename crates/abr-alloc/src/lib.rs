//! # abr-alloc — a counting global allocator for cost gates
//!
//! Host time on a shared machine is noise; allocation counts and live
//! bytes are not. A test binary installs [`Counting`] as its global
//! allocator and reads, per phase:
//!
//! * the **calling thread's** allocation count — per thread, so the
//!   harness's other threads and a simulation's producer thread do not
//!   mix in; a `realloc` counts as one;
//! * the **process-wide** live-heap peak since the phase began. Live
//!   bytes cannot be split by thread, so a gate that reads them is the
//!   only test in its binary.
//!
//! ```
//! #[global_allocator]
//! static ALLOC: abr_alloc::Counting = abr_alloc::Counting;
//!
//! fn main() {
//!     let phase = abr_alloc::Phase::start();
//!     let words: Vec<u64> = (0..1_000).collect();
//!     assert_eq!(phase.allocs(), 1);
//!     assert!(phase.peak_bytes() >= 8_000);
//!     drop(words);
//! }
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const`, with no destructor: reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting what goes through it.
pub struct Counting;

fn grew(bytes: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

#[allow(unsafe_code, reason = "a global allocator is an unsafe impl")]
// SAFETY: every call is forwarded to `System` unchanged; the counters
// are atomics and a thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

/// A phase of a test: what was allocated since [`Phase::start`].
#[derive(Debug)]
pub struct Phase {
    allocs: u64,
}

impl Phase {
    /// Start a phase: the peak restarts from the bytes live now.
    pub fn start() -> Phase {
        PEAK.store(LIVE.load(Relaxed), Relaxed);
        Phase {
            allocs: ALLOCS.with(Cell::get),
        }
    }

    /// Allocations the calling thread made in the phase.
    pub fn allocs(&self) -> u64 {
        ALLOCS.with(Cell::get) - self.allocs
    }

    /// The most bytes live at once in the phase, in the whole process.
    pub fn peak_bytes(&self) -> usize {
        PEAK.load(Relaxed)
    }
}
