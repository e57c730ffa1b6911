//! A file with no finding: tests/ratchet.rs names it in baseline
//! entries, which must therefore read as stale.

pub fn fine(v: Option<u32>) -> u32 {
    v.unwrap_or(0)
}
