//! Property tests pinning the event queue's FIFO tie-breaking — the
//! ordering contract every golden report rests on.
//!
//! The queue breaks same-timestamp ties with a monotone `u64` sequence
//! counter. A narrower (`u32`) counter would wrap after ~4.3 billion
//! events and silently reorder ties, so these tests replay the same
//! schedules with the counter started at and beyond `u32::MAX` (via the
//! `start_seq_at` test hook) and demand order-identical behaviour.
//!
//! Delay lanes ([`EventQueue::with_lanes`]) must change cost only, so
//! a property drives a laned queue through random mixes of every
//! scheduling and popping call and holds it to the same model, call by
//! call: pop order, `len()`, `peek_time()` and `events_processed()`.
//!
//! The heap picks the smallest of a full group of four children by a
//! tournament and scans only a partial last group, so the last property
//! walks the heap through every size from 1 to 64 (every shape of last
//! group) with many equal timestamps, against the same model.

use proptest::prelude::*;

use qic_des::queue::EventQueue;
use qic_des::time::SimTime;
use qic_physics::time::Duration;

/// Seed values for the sequence counter: fresh, straddling the `u32`
/// boundary, and far beyond it.
const SEQ_STARTS: [u64; 4] = [0, u32::MAX as u64 - 2, u32::MAX as u64 + 1, 1 << 40];

/// Reference model: a stable sort by timestamp. Stability is exactly
/// the FIFO-tie contract.
fn reference_order(times: &[u64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..times.len()).collect();
    idx.sort_by_key(|&i| times[i]);
    idx
}

proptest! {
    /// Bulk schedule, then drain: pops must match a stable sort by
    /// timestamp, for every sequence-counter start.
    #[test]
    fn fifo_ties_hold_at_and_beyond_u32_seq(
        times in proptest::collection::vec(0u64..50, 1..300),
    ) {
        let expected = reference_order(&times);
        for start in SEQ_STARTS {
            let mut q = EventQueue::new();
            q.start_seq_at(start);
            for (i, &t) in times.iter().enumerate() {
                q.schedule_at(SimTime::from_nanos(t), i);
            }
            let popped: Vec<usize> =
                std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            prop_assert_eq!(&popped, &expected, "seq start {}", start);
        }
    }

    /// Interleaved schedule/pop against an executable model: after each
    /// round of relative schedules, pop a few events. The model pops the
    /// pending event with the smallest `(timestamp, arrival index)` —
    /// the definition of FIFO tie-breaking — and the queue must agree
    /// event for event, regardless of where the counter started.
    #[test]
    fn interleaved_ops_match_model_across_u32_boundary(
        rounds in proptest::collection::vec(
            (proptest::collection::vec(0u64..40, 0..8), 0usize..4),
            1..40,
        ),
    ) {
        for start in SEQ_STARTS {
            let mut q = EventQueue::new();
            q.start_seq_at(start);
            // Model state: (absolute time, arrival index) per pending event.
            let mut pending: Vec<(u64, usize)> = Vec::new();
            let mut arrivals = 0usize;
            let mut now = 0u64;
            fn drain(
                q: &mut EventQueue<usize>,
                pending: &mut Vec<(u64, usize)>,
                now: &mut u64,
                count: usize,
            ) {
                for _ in 0..count {
                    let model = pending
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(at, arrival))| (at, arrival))
                        .map(|(slot, _)| slot);
                    match (model, q.pop()) {
                        (Some(slot), Some((t, id))) => {
                            let (at, arrival) = pending.remove(slot);
                            assert_eq!(t.as_nanos(), at);
                            assert_eq!(id, arrival);
                            *now = at;
                        }
                        (None, None) => break,
                        (model, real) => panic!("model {model:?} vs queue {real:?}"),
                    }
                }
            }
            for (delays, pops) in &rounds {
                for &dt in delays {
                    q.schedule_after(Duration::from_nanos(dt), arrivals);
                    pending.push((now + dt, arrivals));
                    arrivals += 1;
                }
                drain(&mut q, &mut pending, &mut now, *pops);
            }
            drain(&mut q, &mut pending, &mut now, usize::MAX);
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.events_processed(), arrivals as u64);
        }
    }
}

/// Declared lane delays for the laned-queue property: four lanes whose
/// delays collide (3 + 5 = 8, 5 + 8 = 13, 5 + 3 + 5 = 13), so heads of
/// different lanes land on one instant from different push instants,
/// plus a zero (ignored) and a repeat (one lane) among them.
const LANE_DELAYS: [u64; 6] = [3, 0, 5, 8, 13, 3];

/// Delays `schedule_after` draws from: every declared delay, zero, and
/// undeclared ones.
const AFTER_DELAYS: [u64; 9] = [3, 5, 8, 13, 0, 3, 5, 2, 11];

/// The declared, non-zero lane delays.
const DECLARED: [u64; 4] = [3, 5, 8, 13];

/// The stable-sort model of the queue: pending `(at, arrival)` pairs,
/// popped smallest first, plus the clock and the pop count.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, usize)>,
    arrivals: usize,
    now: u64,
    popped: u64,
}

impl Model {
    fn schedule(&mut self, at: u64) -> usize {
        self.pending.push((at, self.arrivals));
        self.arrivals += 1;
        self.arrivals - 1
    }

    fn peek_time(&self) -> Option<u64> {
        self.pending.iter().map(|&(at, _)| at).min()
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let slot = (0..self.pending.len()).min_by_key(|&i| self.pending[i])?;
        let (at, arrival) = self.pending.remove(slot);
        self.now = at;
        self.popped += 1;
        Some((at, arrival))
    }

    fn pop_batch(&mut self) -> Option<(u64, Vec<usize>)> {
        let at = self.peek_time()?;
        let mut batch = Vec::new();
        while self.peek_time() == Some(at) {
            batch.push(self.pop().expect("peeked").1);
        }
        Some((at, batch))
    }
}

proptest! {
    /// A queue with delay lanes against the model, under random
    /// interleavings of `schedule_after` (declared, undeclared and zero
    /// delays), `schedule_at` (also onto the instant a lane event pushed
    /// just before or after it lands on), `schedule_now`, `pop` and
    /// `pop_batch`,
    /// for every sequence-counter start. Lanes may change cost, never
    /// order, and `len()` counts lane entries exactly.
    #[test]
    fn laned_queue_matches_model(
        ops in proptest::collection::vec((0u8..10, 0u64..1_000), 1..200),
    ) {
        let lanes: Vec<Duration> = LANE_DELAYS.iter().map(|&d| Duration::from_nanos(d)).collect();
        for start in SEQ_STARTS {
            let mut q = EventQueue::with_lanes(&lanes);
            q.start_seq_at(start);
            let mut model = Model::default();
            let mut batch = Vec::new();
            for &(kind, arg) in &ops {
                match kind {
                    0..=3 => {
                        let d = AFTER_DELAYS[arg as usize % AFTER_DELAYS.len()];
                        let id = model.schedule(model.now + d);
                        q.schedule_after(Duration::from_nanos(d), id);
                    }
                    4 => {
                        let at = model.now + arg % 20;
                        let id = model.schedule(at);
                        q.schedule_at(SimTime::from_nanos(at), id);
                    }
                    5 => {
                        let id = model.schedule(model.now);
                        q.schedule_now(id);
                    }
                    6 | 7 => {
                        let real = q.pop().map(|(t, id)| (t.as_nanos(), id));
                        prop_assert_eq!(real, model.pop(), "pop, seq start {}", start);
                    }
                    8 => {
                        // A lane event and a heap event pushed at the same
                        // instant onto the same instant, in either order.
                        let d = DECLARED[(arg / 2) as usize % DECLARED.len()];
                        let at = model.now + d;
                        for lane_first in [arg % 2 == 0, arg % 2 != 0] {
                            let id = model.schedule(at);
                            if lane_first {
                                q.schedule_after(Duration::from_nanos(d), id);
                            } else {
                                q.schedule_at(SimTime::from_nanos(at), id);
                            }
                        }
                    }
                    _ => {
                        let real = q.pop_batch(&mut batch).map(|t| (t.as_nanos(), batch.clone()));
                        prop_assert_eq!(real, model.pop_batch(), "pop_batch, seq start {}", start);
                    }
                }
                prop_assert_eq!(q.len(), model.pending.len(), "len, seq start {}", start);
                prop_assert_eq!(q.is_empty(), model.pending.is_empty());
                prop_assert_eq!(q.peek_time().map(SimTime::as_nanos), model.peek_time());
                prop_assert_eq!(q.events_processed(), model.popped);
                prop_assert_eq!(q.now().as_nanos(), model.now);
            }
            while let Some(expected) = model.pop() {
                prop_assert_eq!(q.pop().map(|(t, id)| (t.as_nanos(), id)), Some(expected));
                prop_assert_eq!(q.len(), model.pending.len());
            }
            prop_assert!(q.pop().is_none());
            prop_assert_eq!(q.events_processed(), model.popped);
        }
    }
}

proptest! {
    /// Every heap size from 1 to 64: fill a fresh queue to `n` events
    /// whose timestamps collide often (equal `at`, so only the sequence
    /// number orders them), pop and push back `n / 2` times at or after
    /// the clock, then drain through every smaller size. Each pop is
    /// checked against the model, so sifts run through full groups of
    /// four children and partial last groups of one to three, at every
    /// depth the sizes reach.
    #[test]
    fn heap_matches_model_through_every_size_to_64(
        times in proptest::collection::vec(0u64..6, 64),
        later in proptest::collection::vec(0u64..4, 32),
    ) {
        for n in 1..=64usize {
            let mut q = EventQueue::new();
            let mut model = Model::default();
            for &t in &times[..n] {
                let id = model.schedule(t);
                q.schedule_at(SimTime::from_nanos(t), id);
            }
            for &dt in &later[..n / 2] {
                let real = q.pop().map(|(t, id)| (t.as_nanos(), id));
                prop_assert_eq!(real, model.pop(), "size {}", n);
                let at = model.now + dt;
                let id = model.schedule(at);
                q.schedule_at(SimTime::from_nanos(at), id);
                prop_assert_eq!(q.len(), model.pending.len(), "size {}", n);
            }
            while let Some(expected) = model.pop() {
                prop_assert_eq!(q.pop().map(|(t, id)| (t.as_nanos(), id)), Some(expected), "size {}", n);
            }
            prop_assert!(q.pop().is_none());
        }
    }
}

/// The counter refuses to wrap: scheduling past `u64::MAX` sequence
/// numbers fails loudly instead of silently reordering ties.
#[test]
#[should_panic(expected = "event sequence counter wrapped")]
fn seq_exhaustion_panics_instead_of_wrapping() {
    let mut q = EventQueue::new();
    q.start_seq_at(u64::MAX);
    q.schedule_at(SimTime::from_nanos(1), 0); // takes seq u64::MAX
    q.schedule_at(SimTime::from_nanos(1), 1); // would wrap
}

/// `start_seq_at` is only a fresh-queue hook; used mid-run it could
/// break monotonicity, so it must refuse.
#[test]
#[should_panic(expected = "fresh queue")]
fn start_seq_at_rejects_used_queues() {
    let mut q = EventQueue::new();
    q.schedule_at(SimTime::from_nanos(1), 0);
    q.start_seq_at(7);
}
