//! Deterministic pending-event set.
//!
//! The event queue is the heart of the simulation master: a priority
//! queue ordered by timestamp, with FIFO tie-breaking so that two events
//! scheduled for the same instant are delivered in the order they were
//! scheduled. Determinism matters because the co-estimation experiments must
//! be exactly reproducible run-to-run.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event together with its delivery time and insertion sequence number.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. `seq` breaks ties FIFO.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic timestamp-ordered event queue.
///
/// Events with equal timestamps pop in insertion (FIFO) order, which makes
/// simulations bit-for-bit reproducible.
///
/// # Examples
///
/// ```
/// use desim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_cycles(5), "late");
/// q.push(SimTime::from_cycles(1), "early");
/// q.push(SimTime::from_cycles(5), "late2");
///
/// assert_eq!(q.pop(), Some((SimTime::from_cycles(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_cycles(5), "late")));
/// assert_eq!(q.pop(), Some((SimTime::from_cycles(5), "late2")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` for delivery at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, payload });
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.payload))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[9u64, 3, 7, 1, 8, 2] {
            q.push(SimTime::from_cycles(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![1, 2, 3, 7, 8, 9]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_cycles(4);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_cycles(10), 'a');
        q.push(SimTime::from_cycles(2), 'b');
        assert_eq!(q.peek_time(), Some(SimTime::from_cycles(2)));
        let (t, _) = q.pop().expect("nonempty");
        assert_eq!(t, SimTime::from_cycles(2));
    }
}
