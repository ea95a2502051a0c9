//! Virtual time: nanosecond-resolution instants and durations.
//!
//! The simulation clock is a plain `u64` nanosecond counter wrapped in
//! newtypes so instants and durations cannot be mixed up. All arithmetic is
//! saturating: an experiment that overflows the clock (≈ 584 years of
//! simulated time) pins at the maximum instead of wrapping, which would
//! silently corrupt event ordering.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since simulation start.
///
/// Neither newtype has a `From<u64>`, so a raw clock reading (host
/// nanoseconds from `kvs_net::clock::wall_ns`, say) cannot reach an API
/// that takes sim time:
///
/// ```compile_fail,E0308
/// use kvs_simcore::{SimDuration, SimTime};
/// fn advance(now: SimTime, step: SimDuration) -> SimTime { now + step }
/// let raw_clock_ns: u64 = 1_700_000_000_000_000_000;
/// advance(raw_clock_ns, SimDuration::ZERO);
/// ```
///
/// ```compile_fail,E0308
/// # use kvs_simcore::{SimDuration, SimTime};
/// # fn advance(now: SimTime, step: SimDuration) -> SimTime { now + step }
/// let raw_clock_ns: u64 = 1_700_000_000_000_000_000;
/// advance(SimTime::ZERO, raw_clock_ns);
/// ```
///
/// The one way in is the named `from_nanos` bridge, so every conversion
/// is visible at its call site:
///
/// ```
/// # use kvs_simcore::{SimDuration, SimTime};
/// # fn advance(now: SimTime, step: SimDuration) -> SimTime { now + step }
/// let raw_clock_ns: u64 = 1_700_000_000_000_000_000;
/// advance(SimTime::from_nanos(raw_clock_ns), SimDuration::from_nanos(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since start, as a float (lossy above ~2^53 ns).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since start, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Microseconds since start, as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Duration elapsed since `earlier`; zero if `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    /// Builds a duration from fractional seconds. Negative and NaN inputs
    /// clamp to zero; overly large inputs clamp to [`SimDuration::MAX`].
    pub fn from_secs_f64(s: f64) -> Self {
        Self::from_nanos_f64(s * 1e9)
    }

    /// Builds a duration from fractional milliseconds (clamping like
    /// [`SimDuration::from_secs_f64`]).
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_nanos_f64(ms * 1e6)
    }

    /// Builds a duration from fractional microseconds (clamping like
    /// [`SimDuration::from_secs_f64`]).
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_nanos_f64(us * 1e3)
    }

    fn from_nanos_f64(ns: f64) -> Self {
        if ns.is_nan() || ns <= 0.0 {
            return SimDuration::ZERO;
        }
        if ns >= u64::MAX as f64 {
            return SimDuration::MAX;
        }
        SimDuration(ns.round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the duration by a non-negative factor (clamping on overflow).
    pub fn mul_f64(self, k: f64) -> Self {
        Self::from_nanos_f64(self.0 as f64 * k)
    }

    /// Divides the duration by a positive factor; returns `MAX` when the
    /// divisor is zero or negative (an "infinitely slow" rate).
    pub fn div_f64(self, k: f64) -> Self {
        if k <= 0.0 {
            return SimDuration::MAX;
        }
        Self::from_nanos_f64(self.0 as f64 / k)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// Pretty-prints with an automatically chosen unit (ns/µs/ms/s).
fn fmt_nanos(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns < 1_000 {
        write!(f, "{ns}ns")
    } else if ns < 1_000_000 {
        write!(f, "{:.2}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        write!(f, "{:.2}ms", ns as f64 / 1e6)
    } else {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_millis_f64(), 500.0);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros_f64(), 1500.0);
        assert_eq!(SimDuration::from_micros_f64(2.0).as_nanos(), 2000);
    }

    #[test]
    fn float_construction_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
    }

    #[test]
    fn arithmetic_saturates() {
        let t = SimTime::MAX;
        assert_eq!(t + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(SimTime::ZERO - SimDuration::from_secs(1), SimTime::ZERO);
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn instant_difference_is_duration() {
        let a = SimTime::from_nanos(500);
        let b = SimTime::from_nanos(1500);
        assert_eq!(b - a, SimDuration::from_nanos(1000));
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration::from_nanos(1000));
    }

    #[test]
    fn scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_millis(25));
        assert_eq!(d.div_f64(2.0), SimDuration::from_millis(5));
        assert_eq!(d.div_f64(0.0), SimDuration::MAX);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d / 0, d); // divisor clamped to 1
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.00µs");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.00ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }
}
