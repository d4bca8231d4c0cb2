//! Absolute simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use qic_physics::time::Duration;

/// An absolute instant on the simulation clock (nanoseconds since start).
///
/// `SimTime` and [`Duration`] form an affine pair: instants differ by
/// durations, durations add to instants, and instants cannot be added to
/// each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant ("never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant as an offset from simulation start.
    pub const fn as_duration(self) -> Duration {
        Duration::from_nanos(self.0)
    }

    /// Saturating advance by a duration.
    #[inline]
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.as_nanos()))
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0 - earlier.0)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0 + d.as_nanos())
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.as_nanos();
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_nanos(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.as_duration())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + Duration::from_micros(5);
        assert_eq!(t1.as_nanos(), 5_000);
        assert_eq!(t1 - t0, Duration::from_micros(5));
        assert_eq!(t1.since(t0), Duration::from_micros(5));
        let mut t = t1;
        t += Duration::from_micros(5);
        assert_eq!(t.as_duration(), Duration::from_micros(10));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimTime::MAX > SimTime::from_nanos(u64::MAX - 1));
    }

    #[test]
    fn saturating() {
        let t = SimTime::MAX.saturating_add(Duration::from_micros(1));
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_nanos(5_000).to_string(), "t=5.000µs");
    }
}
