//! Deterministic worker-pool substrate shared by the batch-of-solves
//! dispatcher (`cim-crossbar`), the functional batch driver (`cim-sim`)
//! and everything built on them.
//!
//! The simulator has one parallel axis: independent jobs. The paper's
//! fabric runs many crossbar arrays at once, each on its own access, so
//! the pool runs many arrays, studies, chunks or tiles at once, each on
//! one thread with no synchronisation inside it. An earlier crew that
//! split one solve across threads behind a spin barrier lost to a serial
//! solve where it mattered (EXPERIMENTS.md, *One axis of solver
//! parallelism*), and was deleted.
//!
//! * [`run_indexed`] — independent jobs claimed from a shared index
//!   dispenser, one job per worker at a time.
//! * [`run_collect`] — the same, collecting each job's result in index
//!   order.
//! * [`run_exclusive`] — the same over a slice of exclusive states (the
//!   batch-of-solves case: one `&mut` array per job).
//!
//! # Determinism contract
//!
//! Everything here upholds the workspace-wide rule that parallelism may
//! change wall-clock time, never bits: every job's effects land in its
//! own index-addressed slot, and results come back in index order, so
//! outcomes are bit-identical at any worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a user-facing thread knob to a concrete worker count:
/// `0` means all cores (`std::thread::available_parallelism`), and the
/// result never exceeds `jobs` (a worker with no work is pure overhead)
/// and is never less than 1.
#[must_use]
pub fn resolve_workers(threads: usize, jobs: usize) -> usize {
    let requested = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    } else {
        threads
    };
    requested.clamp(1, jobs.max(1))
}

/// Runs `jobs` independent jobs over `threads` workers (resolved by
/// [`resolve_workers`]), each job claimed from a shared index dispenser:
/// one job per worker at a time, no synchronization inside a job.
///
/// Claiming order is nondeterministic but irrelevant by construction:
/// `job(worker, index)` must route its effects to per-`index` state
/// (disjoint slots), which is what every caller in this workspace does —
/// so outcomes are bit-identical at any worker count while load stays
/// balanced even when job costs vary wildly (the batch-of-solves case).
pub fn run_indexed(threads: usize, jobs: usize, job: impl Fn(usize, usize) + Sync) {
    let workers = resolve_workers(threads, jobs);
    let next = AtomicUsize::new(0);
    let claim_loop = |worker: usize| loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= jobs {
            break;
        }
        job(worker, index);
    };
    if workers == 1 {
        claim_loop(0);
        return;
    }
    std::thread::scope(|scope| {
        for worker in 1..workers {
            scope.spawn(move || claim_loop(worker));
        }
        claim_loop(0);
    });
}

/// Runs `jobs` independent jobs over the pool and collects their results
/// in index order — the collecting twin of [`run_indexed`] for jobs that
/// produce a value but need no exclusive state.
///
/// # Panics
///
/// Panics if a job panicked (poisoning its slot) or the pool was unable
/// to run every job.
pub fn run_collect<R: Send>(
    threads: usize,
    jobs: usize,
    job: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    run_indexed(threads, jobs, |_, index| {
        *slots[index].lock().expect("collect slot poisoned") = Some(job(index));
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("collect slot poisoned")
                .expect("collect job did not run")
        })
        .collect()
}

/// Runs `jobs` exclusive-state jobs over the pool and collects their
/// results in index order.
///
/// Each element of `states` is handed to exactly one `job` invocation
/// (exclusively — the once-locked mutex transfers the `&mut` borrow to
/// whichever worker claimed the index), and the results vector preserves
/// index order regardless of completion order.
///
/// # Panics
///
/// Panics if a job panicked (poisoning its slot) or the pool was unable
/// to run every job.
pub fn run_exclusive<S: Send, R: Send>(
    threads: usize,
    states: &mut [S],
    job: impl Fn(usize, &mut S) -> R + Sync,
) -> Vec<R> {
    let slots: Vec<Mutex<(Option<&mut S>, Option<R>)>> = states
        .iter_mut()
        .map(|state| Mutex::new((Some(state), None)))
        .collect();
    run_indexed(threads, slots.len(), |_, index| {
        let mut slot = slots[index].lock().expect("batch slot poisoned");
        let state = slot.0.take().expect("batch slot claimed twice");
        slot.1 = Some(job(index, state));
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("batch slot poisoned")
                .1
                .expect("batch job did not run")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_workers_clamps() {
        assert_eq!(resolve_workers(4, 2), 2);
        assert_eq!(resolve_workers(4, 100), 4);
        assert_eq!(resolve_workers(1, 0), 1);
        assert!(resolve_workers(0, 1000) >= 1);
    }

    #[test]
    fn indexed_jobs_all_run_once() {
        for threads in [1usize, 2, 4, 0] {
            let jobs = 257;
            let hits: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
            run_indexed(threads, jobs, |_, index| {
                hits[index].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn collected_jobs_come_back_in_index_order() {
        for threads in [1usize, 2, 4, 0] {
            let results = run_collect(threads, 301, |index| index * 3);
            assert_eq!(results, (0..301).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn exclusive_jobs_keep_index_order_and_state() {
        for threads in [1usize, 3, 8] {
            let mut states: Vec<u64> = (0..100).collect();
            let results = run_exclusive(threads, &mut states, |index, state| {
                *state += 1;
                *state * 10 + index as u64
            });
            assert_eq!(states, (1..=100u64).collect::<Vec<_>>());
            for (index, result) in results.iter().enumerate() {
                assert_eq!(*result, (index as u64 + 1) * 10 + index as u64);
            }
        }
    }
}
