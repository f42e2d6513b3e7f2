//! Randomized (seeded, deterministic) tests for the event queue.
//!
//! These were property-based tests; they now drive the same invariants
//! from a deterministic in-repo PRNG so the suite builds offline and
//! every failure reproduces exactly.

use desim::{EventQueue, SimTime};
use detrand::Rng;

/// Popping the queue yields a non-decreasing sequence of timestamps,
/// and every pushed payload comes back exactly once.
#[test]
fn queue_pops_sorted_and_complete() {
    let mut rng = Rng::new(0x0DE5_0001);
    for case in 0..64 {
        let n = rng.usize_in(0, 200);
        let times: Vec<u64> = (0..n).map(|_| rng.u64_in(0, 1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_cycles(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut seen = vec![false; times.len()];
        while let Some((t, i)) = q.pop() {
            assert!(t >= last, "case {case}: unsorted pop");
            assert_eq!(t.cycles(), times[i]);
            assert!(!seen[i], "case {case}: duplicate payload {i}");
            seen[i] = true;
            last = t;
        }
        assert!(seen.iter().all(|&s| s), "case {case}: payload lost");
    }
}

/// Equal-timestamp events preserve insertion order (stability).
#[test]
fn queue_is_fifo_stable() {
    let mut rng = Rng::new(0x0DE5_0002);
    for case in 0..64 {
        let groups: Vec<(u64, usize)> = (0..rng.usize_in(1, 20))
            .map(|_| (rng.u64_in(0, 10), rng.usize_in(1, 8)))
            .collect();
        let mut q = EventQueue::new();
        let mut order: Vec<(u64, usize)> = Vec::new();
        let mut n = 0usize;
        for &(t, count) in &groups {
            for _ in 0..count {
                q.push(SimTime::from_cycles(t), n);
                order.push((t, n));
                n += 1;
            }
        }
        order.sort_by_key(|&(t, i)| (t, i)); // stable expected order
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.cycles(), i));
        }
        assert_eq!(popped, order, "case {case}");
    }
}
