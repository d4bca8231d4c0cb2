//! Simulated physical time.
//!
//! All latencies in the paper are given in microseconds (Table 1). We store
//! time as an integer number of **nanoseconds** so that event-driven
//! simulation remains exact and deterministic: `0.2 µs` per ballistic cell is
//! exactly 200 ns, so no floating-point drift can reorder events.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time with nanosecond resolution.
///
/// `Duration` is a thin newtype over `u64` nanoseconds. It forms a monoid
/// under addition ([`Duration::ZERO`] is the identity) and supports scalar
/// multiplication, which is how per-cell and per-hop costs are scaled by
/// distance.
///
/// # Example
///
/// ```
/// use qic_physics::time::Duration;
///
/// let per_cell = Duration::from_us_f64(0.2);
/// assert_eq!(per_cell * 5, Duration::from_micros(1));
/// assert_eq!((per_cell * 5).as_us_f64(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero duration (additive identity).
    pub const ZERO: Duration = Duration(0);

    /// The largest representable duration; used as an "unreachable" sentinel
    /// by schedulers.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a duration from whole microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows `u64` nanoseconds (≈ 584 years).
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Creates a duration from fractional microseconds, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    pub fn from_us_f64(us: f64) -> Self {
        assert!(
            us.is_finite() && us >= 0.0,
            "duration must be finite and non-negative"
        );
        Duration((us * 1_000.0).round() as u64)
    }

    /// Number of whole nanoseconds in this duration.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration expressed in (fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This duration expressed in (fractional) milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction: returns [`Duration::ZERO`] instead of
    /// underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition: clamps at [`Duration::MAX`].
    #[inline]
    pub fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Checked scalar multiplication.
    pub fn checked_mul(self, k: u64) -> Option<Duration> {
        self.0.checked_mul(k).map(Duration)
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for Duration {
    type Output = Duration;

    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;

    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;

    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Mul<Duration> for u64 {
    type Output = Duration;

    #[inline]
    fn mul(self, rhs: Duration) -> Duration {
        Duration(self * rhs.0)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;

    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div<Duration> for Duration {
    type Output = f64;

    /// Dimensionless ratio of two durations.
    fn div(self, rhs: Duration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == u64::MAX {
            write!(f, "∞")
        } else if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}µs", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Duration::from_micros(3), Duration::from_nanos(3_000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1_000));
        assert_eq!(Duration::from_us_f64(0.2), Duration::from_nanos(200));
    }

    #[test]
    fn arithmetic() {
        let a = Duration::from_micros(10);
        let b = Duration::from_micros(4);
        assert_eq!(a + b, Duration::from_micros(14));
        assert_eq!(a - b, Duration::from_micros(6));
        assert_eq!(a * 3, Duration::from_micros(30));
        assert_eq!(a / 2, Duration::from_micros(5));
        assert!((a / b - 2.5).abs() < 1e-12);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            Duration::ZERO.saturating_sub(Duration::from_nanos(1)),
            Duration::ZERO
        );
        assert_eq!(
            Duration::MAX.saturating_add(Duration::from_nanos(1)),
            Duration::MAX
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = (1..=4).map(Duration::from_micros).sum();
        assert_eq!(total, Duration::from_micros(10));
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Duration::from_nanos(5).to_string(), "5ns");
        assert_eq!(Duration::from_micros(122).to_string(), "122.000µs");
        assert_eq!(Duration::from_millis(3).to_string(), "3.000ms");
        assert_eq!(Duration::from_millis(2500).to_string(), "2.500s");
        assert_eq!(Duration::MAX.to_string(), "∞");
    }

    #[test]
    fn min_max() {
        let a = Duration::from_micros(1);
        let b = Duration::from_micros(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_f64_panics() {
        let _ = Duration::from_us_f64(-1.0);
    }
}
