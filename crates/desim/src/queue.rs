//! Deterministic pending-event queue.
//!
//! Events are ordered by `(time, sequence)` so simultaneous events pop in
//! schedule order. The sequence number also makes the queue a *stable*
//! priority queue, which is what guarantees run-to-run determinism of the
//! whole simulation.
//!
//! Two containers hold the pending events. A FIFO *lane* takes every push
//! whose time is at or after the lane's tail; only out-of-order pushes go to
//! a [`BinaryHeap`]. Sequence numbers grow with every push, so the lane is
//! always sorted by `(time, sequence)`, and [`EventQueue::pop`] takes the
//! smaller of the lane front and the heap top: the pop order is exactly that
//! of a single heap. A run that pre-schedules hundreds of ascending arrivals
//! keeps them in the lane, so they never deepen the heap the run's own
//! follow-up events sift through.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// An event tagged with its delivery time and stable sequence number.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other.key().cmp(&self.key())
    }
}

/// A stable min-priority queue of `(SimTime, E)` pairs.
///
/// # Examples
///
/// ```
/// use orion_desim::queue::EventQueue;
/// use orion_desim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(5), "b");
/// q.push(SimTime::from_micros(5), "c");
/// q.push(SimTime::from_micros(1), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_micros(1), "a")));
/// // Ties pop in insertion order.
/// assert_eq!(q.pop(), Some((SimTime::from_micros(5), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(5), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Pushes that arrived in `(time, seq)` order, oldest first.
    lane: VecDeque<Scheduled<E>>,
    /// Every other push.
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            lane: VecDeque::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` for delivery at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled { time, seq, event };
        // `seq` exceeds every queued one, so `time >= tail.time` keeps the
        // lane sorted by `(time, seq)`.
        if self.lane.back().is_none_or(|tail| time >= tail.time) {
            self.lane.push_back(s);
        } else {
            self.heap.push(s);
        }
    }

    /// True when the lane front is due before the heap top.
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => l.key() < h.key(),
            (lane, _) => lane.is_some(),
        }
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = if self.lane_first() {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        };
        s.map(|s| (s.time, s.event))
    }

    /// The delivery time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.lane_first() {
            self.lane.front().map(|s| s.time)
        } else {
            self.heap.peek().map(|s| s.time)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.lane.clear();
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &us in &[30u64, 10, 20, 5, 25] {
            q.push(SimTime::from_micros(us), us);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(2), ());
        q.push(SimTime::from_micros(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(1)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), 10);
        q.push(SimTime::from_micros(30), 30);
        assert_eq!(q.pop().map(|(_, e)| e), Some(10));
        q.push(SimTime::from_micros(20), 20);
        assert_eq!(q.pop().map(|(_, e)| e), Some(20));
        assert_eq!(q.pop().map(|(_, e)| e), Some(30));
    }

    /// Monotone pushes stay in the lane: the heap never holds any of them.
    #[test]
    fn monotone_pushes_never_enter_the_heap() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            // Ascending with ties: every pushed time is >= the tail's.
            q.push(SimTime::from_micros(i / 3), i);
        }
        assert_eq!(q.heap.len(), 0, "ascending pushes went to the heap");
        assert_eq!(q.lane.len(), 1000);
        // One out-of-order push goes to the heap and still pops first.
        q.push(SimTime::ZERO, 5000);
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
        assert_eq!(q.pop(), Some((SimTime::ZERO, 1)));
        assert_eq!(q.pop(), Some((SimTime::ZERO, 2)));
        assert_eq!(q.pop(), Some((SimTime::ZERO, 5000)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(1), 3)));
    }

    /// Seeded property test: random interleavings of pushes (ties,
    /// out-of-order times) and pops pop in exactly `(time, seq)` order.
    #[test]
    fn interleaved_pushes_and_pops_match_a_reference_sort() {
        use crate::rng::DetRng;
        for seed in 0..200u64 {
            let mut rng = DetRng::new(seed);
            let mut q = EventQueue::new();
            // Reference: pending (time, seq) pairs; the event is its seq.
            let mut reference: Vec<(SimTime, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut last = SimTime::ZERO;
            for _ in 0..400 {
                if rng.uniform_u64(3) < 2 {
                    let t = match rng.uniform_u64(4) {
                        0 => last, // tie
                        1 => last + SimTime::from_nanos(rng.uniform_u64(50)),
                        2 => SimTime::from_nanos(rng.uniform_u64(1000)), // any order
                        _ => last.saturating_sub(SimTime::from_nanos(rng.uniform_u64(20))),
                    };
                    q.push(t, seq);
                    reference.push((t, seq));
                    seq += 1;
                    last = t;
                } else {
                    let want = reference.iter().copied().min();
                    if let Some(w) = want {
                        reference.retain(|&r| r != w);
                    }
                    assert_eq!(q.pop(), want, "seed {seed}");
                }
                assert_eq!(q.len(), reference.len());
                assert_eq!(q.peek_time(), reference.iter().map(|r| r.0).min());
            }
            reference.sort_unstable();
            for w in reference {
                assert_eq!(q.pop(), Some(w), "seed {seed} drain");
            }
            assert!(q.is_empty());
        }
    }

    /// The same property through the simulation driver: handlers schedule
    /// follow-ups at past (clamped to now), tied and future times, and every
    /// dispatch is the earliest pending `(time, seq)`.
    #[test]
    fn scheduler_dispatch_matches_a_reference_sort() {
        use crate::rng::DetRng;
        use crate::sim::{Scheduler, Simulation, World};

        struct Checker {
            rng: DetRng,
            /// Pending (clamped time, seq); the event carries its seq.
            pending: Vec<(SimTime, u64)>,
            next_seq: u64,
            dispatched: u64,
        }
        impl Checker {
            fn schedule(&mut self, now: SimTime, sched: &mut Scheduler<u64>) {
                let at = match self.rng.uniform_u64(4) {
                    0 => now,
                    1 => now.saturating_sub(SimTime::from_nanos(1 + self.rng.uniform_u64(100))),
                    _ => now + SimTime::from_nanos(self.rng.uniform_u64(200)),
                };
                sched.schedule_at(at, self.next_seq);
                self.pending.push((at.max(now), self.next_seq));
                self.next_seq += 1;
            }
        }
        impl World for Checker {
            type Event = u64;
            fn handle(&mut self, now: SimTime, ev: u64, sched: &mut Scheduler<u64>) {
                let want = self.pending.iter().copied().min().expect("pending");
                assert_eq!((now, ev), want);
                self.pending.retain(|&p| p != want);
                self.dispatched += 1;
                if self.dispatched < 2000 {
                    for _ in 0..self.rng.uniform_u64(3) {
                        self.schedule(now, sched);
                    }
                }
            }
        }

        for seed in 0..20u64 {
            let mut sim = Simulation::new(Checker {
                rng: DetRng::new(seed),
                pending: Vec::new(),
                next_seq: 0,
                dispatched: 0,
            });
            // Pre-scheduled ascending arrivals (the lane) plus a few
            // out-of-order ones (the heap).
            for i in 0..300u64 {
                let t = SimTime::from_nanos(if i % 7 == 0 { i * 3 } else { i * 50 });
                let w = sim.world_mut();
                let seq = w.next_seq;
                w.pending.push((t, seq));
                w.next_seq += 1;
                sim.schedule_at(t, seq);
            }
            sim.run_to_completion();
            assert!(sim.world().pending.is_empty(), "seed {seed}");
        }
    }
}
