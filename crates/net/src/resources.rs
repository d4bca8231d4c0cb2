//! Hardware resource models: teleporter sets, link-pair wires, storage.

use std::collections::VecDeque;

use qic_des::time::SimTime;
use qic_physics::time::Duration;

/// A pool of identical servers (teleporters in one dimension set, or
/// purifier units at a site) with FIFO admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerPool {
    capacity: u32,
    busy: u32,
    /// Tokens waiting for a server, FIFO (the paper's time multiplexing).
    waiters: VecDeque<u64>,
    /// Total busy-time integral, for utilization reporting.
    busy_ns: u128,
}

impl ServerPool {
    /// A pool of `capacity` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "a server pool needs at least one server");
        ServerPool {
            capacity,
            busy: 0,
            waiters: VecDeque::new(),
            busy_ns: 0,
        }
    }

    /// Pool size.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Servers currently busy.
    pub fn busy(&self) -> u32 {
        self.busy
    }

    /// Whether a server is free right now.
    pub fn available(&self) -> bool {
        self.busy < self.capacity
    }

    /// Claims a server; the caller promises to call [`ServerPool::release`]
    /// after `hold` of service.
    ///
    /// # Panics
    ///
    /// Panics if no server is free (callers must check
    /// [`ServerPool::available`] first).
    pub fn acquire(&mut self, hold: Duration) {
        assert!(self.available(), "acquire on a full pool");
        self.busy += 1;
        self.busy_ns += u128::from(hold.as_nanos());
    }

    /// Returns a server to the pool.
    ///
    /// # Panics
    ///
    /// Panics if no server was busy.
    pub fn release(&mut self) {
        assert!(self.busy > 0, "release without acquire");
        self.busy -= 1;
    }

    /// Enqueues a waiter id.
    pub fn enqueue_waiter(&mut self, id: u64) {
        self.waiters.push_back(id);
    }

    /// Pops the next waiter, if any.
    pub fn pop_waiter(&mut self) -> Option<u64> {
        self.waiters.pop_front()
    }

    /// Number of queued waiters.
    pub fn queue_len(&self) -> usize {
        self.waiters.len()
    }

    /// Mean utilization over a horizon.
    pub fn utilization(&self, horizon: Duration) -> f64 {
        if horizon == Duration::ZERO {
            return 0.0;
        }
        self.busy_ns as f64 / (u128::from(horizon.as_nanos()) * u128::from(self.capacity)) as f64
    }
}

/// A virtual wire: the G node on one mesh edge, continuously producing
/// link EPR pairs into a bounded buffer (Figure 5).
///
/// Production is modelled lazily (no periodic events): one pair completes
/// every `interval` while the buffer is below capacity; the arithmetic is
/// integer-exact, so behaviour is independent of when the wire is
/// observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkWire {
    interval: Duration,
    cap: u64,
    stock: u64,
    /// Completion time of the pair currently in production (meaningful
    /// only while `stock < cap`).
    next_ready: SimTime,
    produced: u64,
    consumed: u64,
    /// Tokens waiting for a pair on this edge.
    waiters: VecDeque<u64>,
    /// Whether a wake event is already scheduled for this wire.
    wake_pending: bool,
}

impl LinkWire {
    /// A wire producing one pair per `interval`, buffering up to `cap`
    /// pairs, starting empty at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `cap` is zero.
    pub fn new(interval: Duration, cap: u64) -> Self {
        assert!(
            interval > Duration::ZERO,
            "generation interval must be positive"
        );
        assert!(cap > 0, "wire buffer must hold at least one pair");
        LinkWire {
            interval,
            cap,
            stock: 0,
            next_ready: SimTime::ZERO + interval,
            produced: 0,
            consumed: 0,
            waiters: VecDeque::new(),
            wake_pending: false,
        }
    }

    /// Brings production up to date with the clock.
    pub fn refresh(&mut self, now: SimTime) {
        while self.stock < self.cap && self.next_ready <= now {
            self.stock += 1;
            self.produced += 1;
            if self.stock < self.cap {
                self.next_ready += self.interval;
            }
        }
    }

    /// Takes one pair if available.
    pub fn try_take(&mut self, now: SimTime) -> bool {
        self.refresh(now);
        if self.stock == 0 {
            return false;
        }
        if self.stock == self.cap {
            // Production was paused at full buffer; it resumes now.
            self.next_ready = now + self.interval;
        }
        self.stock -= 1;
        self.consumed += 1;
        true
    }

    /// When the next pair will be available (now, if stocked).
    pub fn next_available(&mut self, now: SimTime) -> SimTime {
        self.refresh(now);
        if self.stock > 0 {
            now
        } else {
            self.next_ready
        }
    }

    /// Pairs in the buffer (after refreshing).
    pub fn stock(&mut self, now: SimTime) -> u64 {
        self.refresh(now);
        self.stock
    }

    /// Pairs produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Pairs consumed so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Enqueues a token waiting for a pair.
    pub fn enqueue_waiter(&mut self, id: u64) {
        self.waiters.push_back(id);
    }

    /// Pops the next waiting token.
    pub fn pop_waiter(&mut self) -> Option<u64> {
        self.waiters.pop_front()
    }

    /// Whether any token is waiting.
    pub fn has_waiters(&self) -> bool {
        !self.waiters.is_empty()
    }

    /// Marks / clears the pending-wake flag (the simulator schedules at
    /// most one wake event per wire at a time).
    pub fn set_wake_pending(&mut self, pending: bool) {
        self.wake_pending = pending;
    }

    /// Whether a wake event is already scheduled.
    pub fn wake_pending(&self) -> bool {
        self.wake_pending
    }
}

/// Per-(node, incoming-link) storage: "storage for incoming teleports is
/// not multiplexed, yielding t storage cells per incoming link" (§5.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Storage {
    capacity: u32,
    used: u32,
    waiters: VecDeque<u64>,
}

impl Storage {
    /// Storage with `capacity` cells.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "storage needs at least one cell");
        Storage {
            capacity,
            used: 0,
            waiters: VecDeque::new(),
        }
    }

    /// Whether a cell is free.
    pub fn available(&self) -> bool {
        self.used < self.capacity
    }

    /// Reserves a cell.
    ///
    /// # Panics
    ///
    /// Panics if full.
    pub fn reserve(&mut self) {
        assert!(self.available(), "storage overflow");
        self.used += 1;
    }

    /// Frees a cell.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn free(&mut self) {
        assert!(self.used > 0, "free on empty storage");
        self.used -= 1;
    }

    /// Cells in use.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Free cells (bubble flow control reserves one at ring-entry hops).
    pub fn free_cells(&self) -> u32 {
        self.capacity - self.used
    }

    /// Enqueues a waiting token.
    pub fn enqueue_waiter(&mut self, id: u64) {
        self.waiters.push_back(id);
    }

    /// Pops the next waiting token.
    pub fn pop_waiter(&mut self) -> Option<u64> {
        self.waiters.pop_front()
    }

    /// Number of queued waiters.
    pub fn queue_len(&self) -> usize {
        self.waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_pool_lifecycle() {
        let mut p = ServerPool::new(2);
        assert!(p.available());
        p.acquire(Duration::from_micros(10));
        p.acquire(Duration::from_micros(10));
        assert!(!p.available());
        assert_eq!(p.busy(), 2);
        p.release();
        assert!(p.available());
        p.enqueue_waiter(42);
        assert_eq!(p.queue_len(), 1);
        assert_eq!(p.pop_waiter(), Some(42));
        assert_eq!(p.pop_waiter(), None);
    }

    #[test]
    fn server_pool_utilization() {
        let mut p = ServerPool::new(2);
        p.acquire(Duration::from_micros(10));
        // One server busy 10µs of a 10µs horizon on 2 servers → 50%.
        assert!((p.utilization(Duration::from_micros(10)) - 0.5).abs() < 1e-12);
        assert_eq!(p.utilization(Duration::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "acquire on a full pool")]
    fn over_acquire_panics() {
        let mut p = ServerPool::new(1);
        p.acquire(Duration::ZERO);
        p.acquire(Duration::ZERO);
    }

    #[test]
    fn wire_produces_on_schedule() {
        let mut w = LinkWire::new(Duration::from_micros(10), 100);
        assert_eq!(w.stock(SimTime::ZERO), 0);
        assert_eq!(w.stock(SimTime::from_nanos(9_999)), 0);
        assert_eq!(w.stock(SimTime::from_nanos(10_000)), 1);
        assert_eq!(w.stock(SimTime::from_nanos(35_000)), 3);
        assert_eq!(w.produced(), 3);
    }

    #[test]
    fn wire_caps_and_resumes() {
        let mut w = LinkWire::new(Duration::from_micros(10), 2);
        let t = SimTime::from_nanos(1_000_000); // long idle: buffer full
        assert_eq!(w.stock(t), 2);
        assert!(w.try_take(t));
        // Production resumed at t; next pair at t + 10µs.
        assert_eq!(w.next_available(t), t, "one still in stock");
        assert!(w.try_take(t));
        let next = w.next_available(t);
        assert_eq!(next, t + Duration::from_micros(10));
        assert!(!w.try_take(t));
        assert!(w.try_take(next));
        assert_eq!(w.consumed(), 3);
    }

    #[test]
    fn wire_steady_state_rate() {
        // Consuming exactly at the production rate never starves or
        // overflows.
        let mut w = LinkWire::new(Duration::from_micros(10), 4);
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            now += Duration::from_micros(10);
            assert!(w.try_take(now), "at {now}");
        }
        assert_eq!(w.produced(), 1000);
    }

    #[test]
    fn wire_waiters() {
        let mut w = LinkWire::new(Duration::from_micros(10), 2);
        assert!(!w.has_waiters());
        w.enqueue_waiter(5);
        assert!(w.has_waiters());
        assert!(!w.wake_pending());
        w.set_wake_pending(true);
        assert!(w.wake_pending());
        assert_eq!(w.pop_waiter(), Some(5));
    }

    #[test]
    fn storage_reserve_free() {
        let mut s = Storage::new(2);
        assert_eq!(s.free_cells(), 2);
        s.reserve();
        s.reserve();
        assert!(!s.available());
        assert_eq!(s.used(), 2);
        assert_eq!(s.free_cells(), 0);
        s.free();
        assert!(s.available());
        assert_eq!(s.free_cells(), 1);
        s.enqueue_waiter(9);
        assert_eq!(s.queue_len(), 1);
        assert_eq!(s.pop_waiter(), Some(9));
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    #[should_panic(expected = "storage overflow")]
    fn storage_overflow_panics() {
        let mut s = Storage::new(1);
        s.reserve();
        s.reserve();
    }
}
