//! The event queue: a time-ordered heap with FIFO tie-breaking.
//!
//! Internally this is an index-addressed 4-ary min-heap over a slab
//! arena: the heap orders packed `(at, seq)` keys (one `u128` compare)
//! in an array kept separate from the arena slot indices, so a sift's
//! child scan reads a single cache line of four keys; the events
//! themselves sit still in an arena `Vec` and are moved exactly twice
//! (in on schedule, out on pop). Events scheduled for the instant the
//! clock already shows bypass the heap and the arena entirely through a
//! FIFO "now-lane", which makes the self-scheduling cascades a
//! simulation step produces O(1) instead of O(log n).
//!
//! # Delay lanes
//!
//! A queue built with [`EventQueue::with_lanes`] also keeps one FIFO
//! per declared delay. An event scheduled with
//! [`EventQueue::schedule_after`] at exactly a declared (non-zero) delay
//! goes to that delay's lane instead of the arena, unless it lands on
//! the clock's own instant (a saturated delay), which the now-lane
//! takes as before. Events in one lane are already in `(at, seq)` order:
//! each is stamped `now + delay` with the clock never going back, and
//! with a sequence number larger than every earlier one. So a lane's
//! minimum is its head, and the queue keeps the order key of every
//! lane's head in a small array **beside** the heap, which holds arena
//! events only. A pop takes the smallest of the heap top and the lane
//! heads: a lane push appends to its lane (and records the head key if
//! the lane was empty) and a lane pop advances that lane's head, and
//! neither touches the heap. Every pending event is the heap top, a
//! lane head or behind one of them, so pop order is exactly the
//! `(at, seq)` order of a queue without lanes: lanes change cost, never
//! order.
//!
//! A simulator whose hot events recur at a few fixed delays (a teleport
//! hop's service time, say) thus pays O(1) per such event, and the heap
//! it still sifts for its other events no longer grows with the number
//! of in-flight lane events.
//!
//! The FIFO tie-break rests on a strictly monotone `u64` sequence
//! counter. It is incremented once per event scheduled into the future
//! (heap or lane) and never reused, so it cannot collide, and at one
//! event per nanosecond it would take ~585 years of wall-clock
//! scheduling to wrap — the property test in `tests/queue_prop.rs` pins
//! the ordering, lanes included, from seeds above `u32::MAX`.

use std::collections::VecDeque;

use qic_physics::time::Duration;

use crate::time::SimTime;

/// Heap order key: `(at << 64) | seq`, so strict `(at, seq)` order is
/// one native 128-bit comparison.
type Ord128 = u128;

/// The instant (ns) of an order key.
#[inline(always)]
fn at_of(key: Ord128) -> u64 {
    (key >> 64) as u64
}

/// The tail of the intrusive free list (and the "no entry" sentinel).
const FREE_END: u32 = u32::MAX;

/// The head key of an empty lane: above every real key, because the
/// sequence counter refuses to hand out `u64::MAX`.
const EMPTY: Ord128 = u128::MAX;

/// The source [`EventQueue::earliest`] names for the heap top (lane
/// heads are named by their lane index).
const HEAP: usize = usize::MAX;

/// Heap and arena slots a queue built with [`EventQueue::with_lanes`]
/// starts with: a handful of in-flight events per live simulated
/// activity.
const LANED_HEAP_CAPACITY: usize = 32;

/// Events each delay lane starts with room for.
const LANE_CAPACITY: usize = 16;

/// An arena slot: a live event, or a link in the free list.
enum Slot<E> {
    Full(E),
    Free(u32),
}

/// A lane event with its order key split in two words, so an entry
/// of an 8-byte event takes 24 bytes (a `u128` key would align it to 32).
struct LaneEntry<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> LaneEntry<E> {
    #[inline]
    fn key(&self) -> Ord128 {
        (u128::from(self.at) << 64) | u128::from(self.seq)
    }
}

/// A deterministic future-event list.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled, which makes simulations reproducible regardless of heap
/// internals.
pub struct EventQueue<E> {
    /// 4-ary min-heap order keys; kept apart from the slots so a sift's
    /// child scan reads one 64-byte line of four keys and touches the
    /// slot array only on an actual move.
    heap_ord: Vec<Ord128>,
    /// Arena slot of each heap entry, parallel to `heap_ord`.
    heap_slot: Vec<u32>,
    /// Event arena: heap entries hold indices into this slab; free
    /// slots chain through [`Slot::Free`] starting at `free_head`.
    slots: Vec<Slot<E>>,
    free_head: u32,
    /// Events scheduled for exactly `now`, in FIFO order. Every entry
    /// here was scheduled *after* the clock reached `now`, so it comes
    /// after any heap or lane entry at `now` in `(at, seq)` order — the
    /// heap and lanes drain first at each instant, then the now-lane,
    /// preserving global FIFO order without heap (or arena) traffic.
    now_lane: VecDeque<E>,
    /// Declared lane delays (distinct, non-zero), contiguous so
    /// [`EventQueue::schedule_after`] scans one short array.
    lane_delays: Vec<Duration>,
    /// Each declared lane's pending events, oldest first, parallel to
    /// `lane_delays`; none of them is in the heap.
    lanes: Vec<VecDeque<LaneEntry<E>>>,
    /// Order key of each lane's head, parallel to `lanes`, or [`EMPTY`]:
    /// the one contiguous array a pop scans besides the heap top.
    lane_heads: Vec<Ord128>,
    /// The smallest order key outside the now-lane ([`EMPTY`] if none)
    /// and its source: [`HEAP`] for the heap top, else the lane whose
    /// head it is. Every push keeps it current and every removal
    /// recomputes it, so each pop scans the sources once, not once to
    /// find the event and again to find the batch's end.
    earliest: (Ord128, usize),
    seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// An empty queue at time zero with room for `capacity` pending
    /// events before the heap or arena reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap_ord: Vec::with_capacity(capacity),
            heap_slot: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free_head: FREE_END,
            now_lane: VecDeque::new(),
            lane_delays: Vec::new(),
            lanes: Vec::new(),
            lane_heads: Vec::new(),
            earliest: (EMPTY, HEAP),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// An empty queue at time zero with one delay lane per distinct
    /// non-zero entry of `delays` (zeros and repeats are ignored).
    ///
    /// [`EventQueue::schedule_after`] with a declared delay appends to
    /// that delay's lane instead of sifting the heap; pop order is the
    /// same as without lanes. Declare the few delays most events are
    /// scheduled at. The queue starts with room for 32 heap events and
    /// 16 events per lane, so a small simulation never regrows either.
    pub fn with_lanes(delays: &[Duration]) -> Self {
        let mut q = EventQueue::with_capacity(LANED_HEAP_CAPACITY);
        for &delay in delays {
            if delay > Duration::ZERO && !q.lane_delays.contains(&delay) {
                q.lane_delays.push(delay);
                q.lanes.push(VecDeque::with_capacity(LANE_CAPACITY));
                q.lane_heads.push(EMPTY);
            }
        }
        q
    }

    /// The current simulation time: the timestamp of the last popped event
    /// (time zero initially).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        let in_lanes: usize = self.lanes.iter().map(VecDeque::len).sum();
        self.heap_ord.len() + in_lanes + self.now_lane.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap_ord.is_empty()
            && self.now_lane.is_empty()
            && self.lane_heads.iter().all(|&head| head == EMPTY)
    }

    /// Total events popped so far (a progress measure for run loops).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Stores an event in the arena and returns its slot.
    #[inline]
    fn alloc(&mut self, event: E) -> u32 {
        let slot = self.free_head;
        if slot == FREE_END {
            let slot = u32::try_from(self.slots.len())
                .ok()
                .filter(|&slot| slot != FREE_END)
                .expect("event arena exceeds 2^32 - 1 live events");
            self.slots.push(Slot::Full(event));
            slot
        } else {
            let cell = &mut self.slots[slot as usize];
            match std::mem::replace(cell, Slot::Full(event)) {
                Slot::Free(next) => self.free_head = next,
                Slot::Full(_) => unreachable!("free list points at a live slot"),
            }
            slot
        }
    }

    /// Removes an event from the arena, recycling its slot.
    #[inline]
    fn take(&mut self, slot: u32) -> E {
        let cell = &mut self.slots[slot as usize];
        match std::mem::replace(cell, Slot::Free(self.free_head)) {
            Slot::Full(event) => {
                self.free_head = slot;
                event
            }
            Slot::Free(_) => unreachable!("popped slot holds an event"),
        }
    }

    /// The order key of a future event at `at`, consuming one sequence
    /// number.
    #[inline]
    fn next_key(&mut self, at: SimTime) -> Ord128 {
        let seq = self.seq;
        self.seq = seq.checked_add(1).expect("event sequence counter wrapped");
        (u128::from(at.as_nanos()) << 64) | u128::from(seq)
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`EventQueue::now`]); a
    /// simulation that schedules into the past is broken, and failing fast
    /// beats silently reordering history.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        if at == self.now {
            // Same-instant fast lane: FIFO by construction, and every
            // earlier-scheduled event at this instant lives in the heap
            // with a smaller sequence number, so draining heap-then-lane
            // preserves exact schedule order with no heap or arena
            // traffic at all.
            self.now_lane.push_back(event);
        } else {
            let key = self.next_key(at);
            let slot = self.alloc(event);
            self.heap_push(key, slot);
        }
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: Duration, event: E) {
        let at = self.now.saturating_add(delay);
        if at > self.now {
            if let Some(lane) = self.lane_delays.iter().position(|&d| d == delay) {
                let key = self.next_key(at);
                let events = &mut self.lanes[lane];
                if events.is_empty() {
                    self.lane_heads[lane] = key;
                    if key < self.earliest.0 {
                        self.earliest = (key, lane);
                    }
                }
                events.push_back(LaneEntry {
                    at: at.as_nanos(),
                    seq: key as u64,
                    event,
                });
                return;
            }
        }
        self.schedule_at(at, event);
    }

    /// Schedules `event` at the current instant (after all events already
    /// scheduled for this instant).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Heap and lane entries at `now` predate everything in the
        // now-lane; now-lane entries precede any strictly later entry.
        let (key, source) = self.earliest;
        let event =
            if key != EMPTY && (self.now_lane.is_empty() || at_of(key) == self.now.as_nanos()) {
                self.now = SimTime::from_nanos(at_of(key));
                self.take_from(source)
            } else {
                self.now_lane.pop_front()?
            };
        self.popped += 1;
        Some((self.now, event))
    }

    /// Pops **every** event scheduled for the earliest pending instant
    /// into `out` (cleared first), in exact [`EventQueue::pop`] order,
    /// advancing the clock; returns that instant.
    ///
    /// Batching amortizes heap traffic across a whole simulation step;
    /// events the caller schedules *while handling* the batch land at or
    /// after the returned instant and are picked up by later calls, so
    /// the interleaving matches a pop-one-at-a-time loop exactly.
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        out.clear();
        let (at, first) = self.pop()?;
        out.push(first);
        let at_ns = at.as_nanos();
        loop {
            // Same-instant peers: heap and lanes first (smaller seqs),
            // then the now-lane.
            let (key, source) = self.earliest;
            let event = if key != EMPTY && at_of(key) == at_ns {
                self.take_from(source)
            } else {
                match self.now_lane.pop_front() {
                    Some(event) => event,
                    None => break,
                }
            };
            self.popped += 1;
            out.push(event);
        }
        Some(at)
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.now_lane.is_empty() {
            let (key, _) = self.earliest;
            (key != EMPTY).then(|| SimTime::from_nanos(at_of(key)))
        } else {
            Some(self.now)
        }
    }

    /// Discards all pending events (the clock is left where it is).
    pub fn clear(&mut self) {
        self.heap_ord.clear();
        self.heap_slot.clear();
        self.now_lane.clear();
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.lane_heads.fill(EMPTY);
        self.earliest = (EMPTY, HEAP);
        self.slots.clear();
        self.free_head = FREE_END;
    }

    /// Starts the sequence counter at `seq` — a test hook for exercising
    /// FIFO ordering near and beyond `u32::MAX` without scheduling four
    /// billion events first.
    ///
    /// # Panics
    ///
    /// Panics if events were already scheduled (the counter must stay
    /// strictly monotone).
    #[doc(hidden)]
    pub fn start_seq_at(&mut self, seq: u64) {
        assert!(
            self.seq == 0 && self.is_empty(),
            "start_seq_at is only valid on a fresh queue"
        );
        self.seq = seq;
    }

    /// Recomputes [`EventQueue::earliest`] from the heap top and the
    /// lane heads.
    ///
    /// Which source holds the minimum changes from pop to pop with no
    /// pattern a branch predictor can learn, so each comparison selects
    /// by mask arithmetic instead of a branch.
    #[inline(always)]
    fn scan_earliest(&self) -> (Ord128, usize) {
        let mut min = self.heap_ord.first().copied().unwrap_or(EMPTY);
        let mut source = HEAP;
        for (lane, &head) in self.lane_heads.iter().enumerate() {
            let earlier = head < min;
            let key_mask = Ord128::from(earlier).wrapping_neg();
            min = (head & key_mask) | (min & !key_mask);
            source ^= (source ^ lane) & usize::from(earlier).wrapping_neg();
        }
        (min, source)
    }

    /// Removes and returns the event of source `source` (the second half
    /// of [`EventQueue::earliest`]):
    /// the heap top (one sift), or a lane head, whose successor's key
    /// (if any) becomes the lane's head key.
    #[inline(always)]
    fn take_from(&mut self, source: usize) -> E {
        let event = if source == HEAP {
            let slot = self.heap_pop_top();
            self.take(slot)
        } else {
            let events = &mut self.lanes[source];
            let head = events
                .pop_front()
                .expect("a lane with a head key is non-empty");
            self.lane_heads[source] = events.front().map_or(EMPTY, LaneEntry::key);
            head.event
        };
        self.earliest = self.scan_earliest();
        event
    }

    /// Pushes an order key + slot onto the 4-ary heap. Hole-based sift:
    /// parents slide down into the hole and the entry is written exactly
    /// once, halving the memory traffic of a swap-per-level sift.
    #[inline]
    fn heap_push(&mut self, ord: Ord128, slot: u32) {
        if ord < self.earliest.0 {
            self.earliest = (ord, HEAP);
        }
        let mut i = self.heap_ord.len();
        self.heap_ord.push(ord);
        self.heap_slot.push(slot);
        while i > 0 {
            let parent = (i - 1) / 4;
            let p = self.heap_ord[parent];
            if ord < p {
                self.heap_ord[i] = p;
                self.heap_slot[i] = self.heap_slot[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap_ord[i] = ord;
        self.heap_slot[i] = slot;
    }

    /// Removes and returns the slot of the minimum heap key.
    #[inline]
    fn heap_pop_top(&mut self) -> u32 {
        let top = self.heap_slot[0];
        let last_ord = self.heap_ord.pop().expect("heap is non-empty");
        let last_slot = self.heap_slot.pop().expect("heap is non-empty");
        if !self.heap_ord.is_empty() {
            self.sift_down(0, last_ord, last_slot);
        }
        top
    }

    /// Sifts an entry down from the hole at `i`, writing it exactly
    /// once. The child scan touches only the contiguous order keys (all
    /// four fit in one 64-byte line); the slot array is read on moves.
    ///
    /// A full group of four children is a tournament: the smaller of
    /// each pair, then the smaller winner, each picked by index
    /// arithmetic rather than a branch (keys are distinct, so the
    /// winner is the unique minimum). Only a partial last group scans.
    fn sift_down(&mut self, mut i: usize, ord: Ord128, slot: u32) {
        let len = self.heap_ord.len();
        loop {
            let first_child = 4 * i + 1;
            let (min, min_ord) = if first_child + 4 <= len {
                let group: &[Ord128; 4] = self.heap_ord[first_child..first_child + 4]
                    .try_into()
                    .expect("a full group has four children");
                let left = usize::from(group[1] < group[0]);
                let right = 2 + usize::from(group[3] < group[2]);
                let winner = left
                    ^ ((left ^ right) & usize::from(group[right] < group[left]).wrapping_neg());
                (first_child + winner, group[winner & 3])
            } else if first_child < len {
                let mut min = first_child;
                let mut min_ord = self.heap_ord[first_child];
                for c in first_child + 1..len {
                    let k = self.heap_ord[c];
                    if k < min_ord {
                        min = c;
                        min_ord = k;
                    }
                }
                (min, min_ord)
            } else {
                break;
            };
            if min_ord < ord {
                self.heap_ord[i] = min_ord;
                self.heap_slot[i] = self.heap_slot[min];
                i = min;
            } else {
                break;
            }
        }
        self.heap_ord[i] = ord;
        self.heap_slot[i] = slot;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("processed", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_after(Duration::from_micros(30), "c");
        q.schedule_after(Duration::from_micros(10), "a");
        q.schedule_after(Duration::from_micros(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_nanos(42), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_after(Duration::from_micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7_000)));
        let (t, ()) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(7_000));
        assert_eq!(q.now(), t);
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    fn schedule_now_runs_after_peers_at_same_instant() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(5), 1);
        q.schedule_at(SimTime::from_nanos(5), 2);
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, 1);
        q.schedule_now(3); // lands at t=5 too, but after 2
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [2, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(100), ());
        let _ = q.pop();
        q.schedule_at(SimTime::from_nanos(50), ());
    }

    #[test]
    fn clear_keeps_clock() {
        let mut q = EventQueue::new();
        q.schedule_after(Duration::from_micros(1), 1);
        let _ = q.pop();
        q.schedule_after(Duration::from_micros(1), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_nanos(1_000));
    }

    #[test]
    fn debug_is_informative() {
        let q: EventQueue<()> = EventQueue::new();
        let s = format!("{q:?}");
        assert!(s.contains("pending"));
    }

    #[test]
    fn pop_batch_collects_one_instant_in_pop_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(10), 2);
        q.schedule_at(SimTime::from_nanos(20), 4);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_nanos(10)));
        assert_eq!(batch, [1, 2]);
        assert_eq!(q.events_processed(), 2);
        // Same-instant events scheduled mid-handling arrive in the next
        // batch — at the same timestamp, after their already-queued peers.
        q.schedule_now(3);
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_nanos(10)));
        assert_eq!(batch, [3]);
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_nanos(20)));
        assert_eq!(batch, [4]);
        assert_eq!(q.pop_batch(&mut batch), None);
        assert!(batch.is_empty());
        assert_eq!(q.events_processed(), 4);
    }

    #[test]
    fn lane_and_heap_interleave_in_seq_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(5), 1);
        let _ = q.pop(); // now = 5
        q.schedule_now(10); // lane
        q.schedule_at(SimTime::from_nanos(9), 20); // heap, later time
        q.schedule_now(11); // lane again
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [10, 11, 20], "lane (t=5) drains before t=9");
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..10 {
            for i in 0..50u64 {
                q.schedule_after(Duration::from_nanos(i + 1), (round, i));
            }
            while q.pop().is_some() {}
        }
        assert!(q.slots.len() <= 50, "arena grew to {}", q.slots.len());
        assert_eq!(q.events_processed(), 500);
    }

    #[test]
    fn with_lanes_ignores_zero_and_repeated_delays() {
        let d = Duration::from_nanos;
        let q: EventQueue<()> = EventQueue::with_lanes(&[d(3), d(0), d(7), d(3)]);
        assert_eq!(q.lane_delays, [d(3), d(7)]);
    }

    #[test]
    fn lane_events_interleave_with_heap_events_in_seq_order() {
        let mut q = EventQueue::with_lanes(&[Duration::from_nanos(10)]);
        q.schedule_after(Duration::from_nanos(10), "lane@10");
        q.schedule_at(SimTime::from_nanos(10), "heap@10");
        q.schedule_after(Duration::from_nanos(4), "heap@4");
        q.schedule_after(Duration::from_nanos(10), "lane@10'");
        assert_eq!(q.len(), 4);
        assert_eq!(q.heap_ord.len(), 2, "the two arena events, no lane entry");
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, "heap@4");
        q.schedule_after(Duration::from_nanos(10), "lane@14"); // behind both lane@10s
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["lane@10", "heap@10", "lane@10'", "lane@14"]);
        assert!(q.is_empty());
    }

    #[test]
    fn saturated_lane_delays_keep_order_and_the_now_lane() {
        let mut q = EventQueue::with_lanes(&[Duration::from_nanos(3)]);
        q.schedule_at(SimTime::from_nanos(u64::MAX - 1), 0);
        let _ = q.pop();
        // Both clamp to `SimTime::MAX`, still in schedule order.
        q.schedule_after(Duration::from_nanos(3), 1);
        q.schedule_after(Duration::from_nanos(3), 2);
        assert_eq!(q.pop(), Some((SimTime::MAX, 1)));
        // At the end of time a declared delay lands on the clock itself.
        q.schedule_after(Duration::from_nanos(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [2, 3]);
        assert_eq!(q.now(), SimTime::MAX);
    }

    #[test]
    fn clear_empties_lanes() {
        let mut q = EventQueue::with_lanes(&[Duration::from_nanos(5)]);
        q.schedule_after(Duration::from_nanos(5), 1);
        q.schedule_after(Duration::from_nanos(5), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.schedule_after(Duration::from_nanos(5), 3);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 3)));
    }

    #[test]
    fn start_seq_at_preserves_fifo_across_u32_boundary() {
        let mut q = EventQueue::new();
        q.start_seq_at(u64::from(u32::MAX) - 1);
        for i in 0..10 {
            q.schedule_at(SimTime::from_nanos(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }
}
