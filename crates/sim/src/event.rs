//! List scheduling of data-dependent task durations over parallel
//! workers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cim_units::Time;

/// Femtoseconds per second: durations are summed as integers so the
/// worker ordering is total (no NaN corner cases).
const FEMTO: f64 = 1e15;

/// Completion time of a list of data-dependent task durations executed
/// greedily by `workers` parallel workers (list scheduling: each task
/// goes to the earliest-available worker).
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn makespan(durations: impl IntoIterator<Item = Time>, workers: usize) -> Time {
    assert!(workers > 0, "need at least one worker");
    // Min-heap of worker-available times, in femtoseconds.
    let mut avail: BinaryHeap<Reverse<u64>> = (0..workers).map(|_| Reverse(0u64)).collect();
    let mut latest = 0u64;
    for d in durations {
        let Reverse(free_at) = avail.pop().expect("workers is non-zero");
        let done = free_at + (d.get() * FEMTO).round() as u64;
        latest = latest.max(done);
        avail.push(Reverse(done));
    }
    Time::new(latest as f64 / FEMTO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_single_worker_is_the_sum() {
        let tasks = [1.0, 2.0, 3.0].map(Time::from_nano_seconds);
        let m = makespan(tasks, 1);
        assert!((m.as_nano_seconds() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_parallel_workers_balance() {
        let tasks = [4.0, 1.0, 1.0, 1.0, 1.0].map(Time::from_nano_seconds);
        // Greedy on 2 workers: w0 ← 4; w1 ← 1,1,1,1 → makespan 4.
        let m = makespan(tasks, 2);
        assert!((m.as_nano_seconds() - 4.0).abs() < 1e-9);
        // Enough workers: the longest task dominates.
        let m = makespan(tasks, 8);
        assert!((m.as_nano_seconds() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_of_uniform_tasks_matches_round_formula() {
        let n = 1000;
        let t = Time::from_nano_seconds(2.0);
        let m = makespan((0..n).map(|_| t), 64);
        let rounds = (n as f64 / 64.0).ceil();
        assert!((m.as_nano_seconds() - rounds * 2.0).abs() < 1e-9);
    }
}
