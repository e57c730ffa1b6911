//! Checked integer narrowing for sector/cylinder arithmetic.
//!
//! The geometry modules (`geometry.rs`, both `layout.rs`, `cylmap.rs`,
//! `stripe.rs`) deny `clippy::cast_possible_truncation` at their top: a
//! silently truncated cylinder or slot index corrupts the address map
//! without failing any test on small configs. These helpers make the
//! narrowing explicit and panic loudly on overflow instead of wrapping.

/// Narrow a `u64` to `u32`, panicking on overflow.
#[inline]
#[track_caller]
pub fn u32_from_u64(x: u64) -> u32 {
    match u32::try_from(x) {
        Ok(v) => v,
        Err(_) => panic!("narrowing overflow: {x} does not fit in u32"),
    }
}

/// Narrow a `usize` to `u32`, panicking on overflow.
#[inline]
#[track_caller]
pub fn u32_from_usize(x: usize) -> u32 {
    match u32::try_from(x) {
        Ok(v) => v,
        Err(_) => panic!("narrowing overflow: {x} does not fit in u32"),
    }
}

/// Narrow a `u64` to `usize`, panicking on overflow (never on a 64-bit
/// target).
#[inline]
#[track_caller]
pub fn usize_from_u64(x: u64) -> usize {
    match usize::try_from(x) {
        Ok(v) => v,
        Err(_) => panic!("narrowing overflow: {x} does not fit in usize"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_pass_through() {
        assert_eq!(u32_from_u64(0), 0);
        assert_eq!(u32_from_u64(u64::from(u32::MAX)), u32::MAX);
        assert_eq!(u32_from_usize(7), 7);
        assert_eq!(usize_from_u64(u64::from(u32::MAX)), u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "narrowing overflow")]
    fn overflow_panics_u64() {
        u32_from_u64(u64::from(u32::MAX) + 1);
    }

    #[test]
    #[should_panic(expected = "narrowing overflow")]
    fn overflow_panics_usize() {
        u32_from_usize(usize::MAX);
    }
}
