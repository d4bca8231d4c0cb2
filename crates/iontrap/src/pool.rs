//! Ion inventory and recycling.
//!
//! "Discarded qubits are returned to the generator for reuse" (Section
//! 3.1), and the conclusion calls for "an efficient recycling mechanism to
//! allow the constant reuse of qubits". A generator node owns a finite
//! stock of ions; measured/discarded EPR halves return to the stock after
//! a cooldown shuttle back to the generator.

use std::collections::VecDeque;
use std::fmt;

use qic_des::time::SimTime;

use crate::channel::IonId;

/// Error raised when the pool has no ion available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExhaustedError {
    in_flight: usize,
}

impl PoolExhaustedError {
    /// Ions currently out of the pool.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }
}

impl fmt::Display for PoolExhaustedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ion pool exhausted ({} ions in flight)", self.in_flight)
    }
}

impl std::error::Error for PoolExhaustedError {}

/// A recycling pool of physical ions owned by one generator node.
///
/// # Example
///
/// ```
/// use qic_iontrap::pool::IonPool;
/// use qic_des::time::SimTime;
///
/// let mut pool = IonPool::new(2);
/// let a = pool.take(SimTime::ZERO)?;
/// let b = pool.take(SimTime::ZERO)?;
/// assert!(pool.take(SimTime::ZERO).is_err(), "stock exhausted");
/// pool.recycle(a, SimTime::from_nanos(100));
/// assert!(pool.take(SimTime::from_nanos(100)).is_ok());
/// # drop(b);
/// # Ok::<(), qic_iontrap::pool::PoolExhaustedError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IonPool {
    capacity: u64,
    free: VecDeque<IonId>,
    next_fresh: u64,
    in_flight: usize,
    peak_in_flight: usize,
    takes: u64,
    recycles: u64,
    last_event: SimTime,
}

impl IonPool {
    /// A pool stocked with `capacity` ions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "a generator needs at least one ion");
        IonPool {
            capacity,
            free: VecDeque::new(),
            next_fresh: 0,
            in_flight: 0,
            peak_in_flight: 0,
            takes: 0,
            recycles: 0,
            last_event: SimTime::ZERO,
        }
    }

    /// Total ions this pool owns.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Ions currently checked out.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Highest simultaneous checkout count observed.
    pub fn peak_in_flight(&self) -> usize {
        self.peak_in_flight
    }

    /// Ions available right now.
    pub fn available(&self) -> u64 {
        (self.capacity - self.next_fresh) + self.free.len() as u64
    }

    /// Total takes served.
    pub fn takes(&self) -> u64 {
        self.takes
    }

    /// Total recycles received.
    pub fn recycles(&self) -> u64 {
        self.recycles
    }

    /// Checks out an ion (recycled ions are reused before fresh stock).
    ///
    /// # Errors
    ///
    /// [`PoolExhaustedError`] if every ion is in flight.
    pub fn take(&mut self, now: SimTime) -> Result<IonId, PoolExhaustedError> {
        let ion = if let Some(ion) = self.free.pop_front() {
            ion
        } else if self.next_fresh < self.capacity {
            let ion = IonId(self.next_fresh);
            self.next_fresh += 1;
            ion
        } else {
            return Err(PoolExhaustedError {
                in_flight: self.in_flight,
            });
        };
        self.in_flight += 1;
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight);
        self.takes += 1;
        self.last_event = now;
        Ok(ion)
    }

    /// Returns an ion to the pool (state is discarded; a recycled ion is
    /// re-initialised before reuse).
    pub fn recycle(&mut self, ion: IonId, now: SimTime) {
        debug_assert!(self.in_flight > 0, "recycle without a matching take");
        self.in_flight = self.in_flight.saturating_sub(1);
        self.recycles += 1;
        self.free.push_back(ion);
        self.last_event = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_until_exhausted() {
        let mut pool = IonPool::new(3);
        let t = SimTime::ZERO;
        let ions: Vec<IonId> = (0..3).map(|_| pool.take(t).unwrap()).collect();
        assert_eq!(ions, vec![IonId(0), IonId(1), IonId(2)]);
        let err = pool.take(t).unwrap_err();
        assert_eq!(err.in_flight(), 3);
        assert!(err.to_string().contains("exhausted"));
    }

    #[test]
    fn recycle_reuses_ions() {
        let mut pool = IonPool::new(2);
        let t = SimTime::ZERO;
        let a = pool.take(t).unwrap();
        let _b = pool.take(t).unwrap();
        pool.recycle(a, t);
        let c = pool.take(t).unwrap();
        assert_eq!(c, a, "recycled ion comes back first");
        assert_eq!(pool.takes(), 3);
        assert_eq!(pool.recycles(), 1);
    }

    #[test]
    fn accounting() {
        let mut pool = IonPool::new(5);
        let t = SimTime::ZERO;
        assert_eq!(pool.available(), 5);
        let a = pool.take(t).unwrap();
        let b = pool.take(t).unwrap();
        assert_eq!(pool.in_flight(), 2);
        assert_eq!(pool.peak_in_flight(), 2);
        assert_eq!(pool.available(), 3);
        pool.recycle(a, t);
        pool.recycle(b, t);
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.peak_in_flight(), 2);
        assert_eq!(pool.available(), 5);
        assert_eq!(pool.capacity(), 5);
    }

    #[test]
    fn steady_state_reuse_never_exhausts() {
        // A generator with 4 ions can serve an endless stream if pairs are
        // recycled promptly — the "constant reuse" the paper requires.
        let mut pool = IonPool::new(4);
        let mut now = SimTime::ZERO;
        for i in 0..1000u64 {
            let a = pool.take(now).unwrap();
            let b = pool.take(now).unwrap();
            now = SimTime::from_nanos((i + 1) * 122_000);
            pool.recycle(a, now);
            pool.recycle(b, now);
        }
        assert_eq!(pool.takes(), 2000);
        assert_eq!(pool.peak_in_flight(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one ion")]
    fn zero_capacity_rejected() {
        let _ = IonPool::new(0);
    }
}
