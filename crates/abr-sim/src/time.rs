//! Simulated time.
//!
//! The paper's driver measures times "with microsecond resolution"
//! (§4.1.5), so simulated time is an integer count of microseconds since
//! the start of the simulation. Two newtypes keep instants and durations
//! from being mixed up: [`SimTime`] is a point on the simulation clock,
//! [`SimDuration`] is a length of time.

use crate::json::{FromJson, JsonError, JsonValue};
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, in microseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);

    /// A time that compares greater than every reachable simulation time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// The raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is later than `self`; saturates
    /// to zero in release builds, since a non-causal difference is always a
    /// logic error upstream.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "non-causal time difference");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000_000)
    }

    /// Construct from whole hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000_000)
    }

    /// Construct from fractional milliseconds, rounding to the nearest
    /// microsecond. Negative values clamp to zero.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration((ms * 1_000.0).round().max(0.0) as u64)
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// As fractional milliseconds (the unit the paper reports in).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// As fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Persisted form: the microsecond count.
    pub fn to_json(self) -> JsonValue {
        JsonValue::UInt(self.0)
    }
}

impl FromJson for SimDuration {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        u64::from_json(v).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "negative duration");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}us", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.0 / 1_000_000;
        let (h, m, s) = (secs / 3600, (secs / 60) % 60, secs % 60);
        write!(f, "{h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_mins(2).as_micros(), 120_000_000);
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
    }

    #[test]
    fn time_arithmetic_roundtrips() {
        let t0 = SimTime::from_micros(500);
        let d = SimDuration::from_millis(2);
        let t1 = t0 + d;
        assert_eq!(t1.since(t0), d);
        assert_eq!(t1 - t0, d);
        assert_eq!(t1.as_micros(), 2_500);
    }

    #[test]
    fn fractional_millis_round() {
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(SimDuration::from_millis_f64(0.0004).as_micros(), 0);
        assert_eq!(SimDuration::from_millis_f64(-3.0).as_micros(), 0);
        assert_eq!(SimDuration::from_millis_f64(18.21).as_millis_f64(), 18.21);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_micros(3_723_000_000); // 1h 2m 3s
        assert_eq!(t.to_string(), "01:02:03");
        assert_eq!(SimDuration::from_micros(1234).to_string(), "1.234ms");
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!((d * 3).as_micros(), 30_000);
        assert_eq!((d / 4).as_micros(), 2_500);
    }

    #[test]
    fn max_of_instants() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn saturating_duration_sub() {
        let a = SimDuration::from_micros(5);
        let b = SimDuration::from_micros(9);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_micros(4));
    }
}
