//! Deterministic worker-pool substrate shared by the electrical solver
//! (`cim-crossbar`) and the functional batch driver (`cim-sim`).
//!
//! Three primitives, all in safe Rust (the workspace forbids `unsafe`):
//!
//! * [`run_crew`] — a **phase-stepped crew**: worker threads are spawned
//!   *once* per dispatch and then re-used for every epoch of the
//!   computation, synchronized by a sense-reversing [`SpinBarrier`]. A
//!   phase costs two barrier crossings; spawning threads per half-sweep
//!   cost more than the sweep itself and made `threads > 1` a measured
//!   slowdown.
//! * [`run_indexed`] — **batch-of-solves dispatch**: independent jobs
//!   claimed from a shared index dispenser, one job per worker at a time,
//!   with no synchronization inside a job. This is the parallelism axis
//!   that matches the hardware: many tiles/arrays solved concurrently.
//! * [`SharedF64`] — an `f64` grid readable and writable through `&self`
//!   from any crew member (bit-cast into `AtomicU64` cells, relaxed
//!   ordering; the barrier provides the happens-before edges between
//!   phases). Relaxed atomic loads/stores compile to plain moves on
//!   mainstream ISAs, so the serial path pays nothing for sharing the
//!   same storage — which is exactly what makes serial and parallel
//!   solves bit-identical by construction: they run the *same* code on
//!   the *same* representation, in a different order only where the
//!   order provably cannot matter.
//!
//! # Determinism contract
//!
//! Everything here upholds the workspace-wide rule that parallelism may
//! change wall-clock time, never bits: work is decomposed into fixed
//! bands or indexed jobs whose outputs land in disjoint, index-addressed
//! slots, and the only cross-worker reductions are order-independent
//! (`f64::max` over non-NaN deltas).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
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

/// The contiguous band of `n` items owned by `worker` out of `workers`:
/// `ceil(n / workers)`-sized chunks, in index order, possibly empty for
/// trailing workers. Banding only partitions the work; every item is
/// processed by the same code on the same inputs regardless of the
/// worker count, so results cannot depend on the split.
#[must_use]
pub fn band(worker: usize, workers: usize, n: usize) -> std::ops::Range<usize> {
    let size = n.div_ceil(workers.max(1));
    let start = (worker * size).min(n);
    let end = (start + size).min(n);
    start..end
}

/// A sense-reversing spin barrier for short, compute-bound phases.
///
/// `std::sync::Barrier` parks threads on a mutex/condvar pair; for the
/// sub-microsecond phases of a relaxation sweep the wake-up latency of a
/// futex round-trip dominates the phase itself. This barrier spins (with
/// a `yield_now` fallback so oversubscribed machines still make
/// progress) and is nothing but two atomics.
#[derive(Debug)]
pub struct SpinBarrier {
    members: usize,
    spins_per_yield: u32,
    arrived: AtomicUsize,
    generation: AtomicU32,
}

/// Spin iterations before each `yield_now` while waiting on the barrier
/// when every member can hold a core.
const SPINS_PER_YIELD: u32 = 4096;

impl SpinBarrier {
    /// A barrier for `members` participants (must be at least 1).
    ///
    /// When `members` exceeds the machine's available parallelism the
    /// barrier yields on every spin instead of burning scheduling quanta
    /// waiting for a peer that cannot be running — oversubscribed crews
    /// degrade to roughly serial speed rather than collapsing.
    #[must_use]
    pub fn new(members: usize) -> Self {
        assert!(members >= 1, "a barrier needs at least one member");
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        Self {
            members,
            spins_per_yield: if members > cores { 1 } else { SPINS_PER_YIELD },
            arrived: AtomicUsize::new(0),
            generation: AtomicU32::new(0),
        }
    }

    /// Blocks until all members have called `wait` for this generation.
    ///
    /// Establishes a happens-before edge from everything each member did
    /// before the barrier to everything every member does after it — the
    /// ordering that lets [`SharedF64`] run on relaxed accesses.
    pub fn wait(&self) {
        if self.members == 1 {
            return;
        }
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.members {
            // Last arrival: reset and release the next generation.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                spins += 1;
                if spins.is_multiple_of(self.spins_per_yield) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// An `f64` grid that any crew member can read and write through `&self`.
///
/// Values are stored as `AtomicU64` bit patterns and accessed with
/// relaxed ordering: within a phase, workers only touch disjoint
/// index sets, and across phases the crew barrier supplies the
/// synchronization. A relaxed atomic load/store of an aligned 64-bit
/// word is a plain move on every mainstream ISA, so the serial path
/// (one worker, no barrier) runs the identical instruction stream it
/// would on `Vec<f64>`.
#[derive(Default)]
pub struct SharedF64 {
    bits: Vec<AtomicU64>,
}

impl SharedF64 {
    /// A zero-filled grid of `len` values.
    #[must_use]
    pub fn new(len: usize) -> Self {
        let mut grid = Self::default();
        grid.resize(len);
        grid
    }

    /// Number of values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when the grid holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Grows or shrinks to `len` values; new values are 0.0. Existing
    /// values are preserved (same semantics as `Vec::resize(len, 0.0)`).
    pub fn resize(&mut self, len: usize) {
        self.bits.resize_with(len, || AtomicU64::new(0));
    }

    /// Reads the value at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, index: usize) -> f64 {
        f64::from_bits(self.bits[index].load(Ordering::Relaxed))
    }

    /// Writes the value at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn set(&self, index: usize, value: f64) {
        self.bits[index].store(value.to_bits(), Ordering::Relaxed);
    }

    /// Sets `range` to `value` (e.g. an initial-guess fill).
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn fill_range(&self, range: std::ops::Range<usize>, value: f64) {
        let bits = value.to_bits();
        for cell in &self.bits[range] {
            cell.store(bits, Ordering::Relaxed);
        }
    }

    /// Iterates the values in `range` (a read-only streaming view that
    /// avoids per-element bounds checks in hot accumulation loops).
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn iter_range(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = f64> + '_ {
        self.bits[range]
            .iter()
            .map(|cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }

    /// Writes `values` into the grid starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start + values.len()` exceeds the grid.
    pub fn store_range(&self, start: usize, values: &[f64]) {
        for (cell, &value) in self.bits[start..start + values.len()].iter().zip(values) {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Copies the grid out into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != self.len()`.
    pub fn store_to(&self, dst: &mut [f64]) {
        assert_eq!(dst.len(), self.len(), "length mismatch");
        for (out, cell) in dst.iter_mut().zip(&self.bits) {
            *out = f64::from_bits(cell.load(Ordering::Relaxed));
        }
    }
}

/// Clones the current values (the clone is an independent grid).
impl Clone for SharedF64 {
    fn clone(&self) -> Self {
        Self {
            bits: self
                .bits
                .iter()
                .map(|cell| AtomicU64::new(cell.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

impl std::fmt::Debug for SharedF64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedF64[len = {}]", self.len())
    }
}

/// Phase tag reserved for crew shutdown.
const EXIT_TAG: u32 = u32::MAX;

/// Shared crew control block: the phase barrier, the current phase tag,
/// per-worker delta slots, and the poison/shutdown flags.
struct CrewControl {
    barrier: SpinBarrier,
    tag: AtomicU32,
    deltas: Vec<AtomicU64>,
    poisoned: AtomicBool,
    finished: AtomicBool,
}

impl CrewControl {
    fn new(workers: usize) -> Self {
        Self {
            barrier: SpinBarrier::new(workers),
            tag: AtomicU32::new(EXIT_TAG),
            deltas: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            poisoned: AtomicBool::new(false),
            finished: AtomicBool::new(false),
        }
    }

    fn set_delta(&self, worker: usize, delta: f64) {
        self.deltas[worker].store(delta.to_bits(), Ordering::Relaxed);
    }

    /// Records one worker's phase outcome: the delta on success, poison
    /// on a caught panic (reported by the conductor after the barrier).
    fn record(&self, worker: usize, outcome: &std::thread::Result<f64>) {
        if let Ok(delta) = outcome {
            self.set_delta(worker, *delta);
        } else {
            self.set_delta(worker, 0.0);
            self.poisoned.store(true, Ordering::Release);
        }
    }

    /// Order-independent reduction of the per-worker phase deltas.
    fn max_delta(&self) -> f64 {
        self.deltas
            .iter()
            .map(|slot| f64::from_bits(slot.load(Ordering::Relaxed)))
            .fold(0.0f64, f64::max)
    }

    /// Releases the crew for good; idempotent so both the normal and the
    /// panic path can call it without double-counting barrier members.
    fn shutdown(&self) {
        if !self.finished.swap(true, Ordering::AcqRel) {
            self.tag.store(EXIT_TAG, Ordering::Release);
            self.barrier.wait();
        }
    }
}

/// Handle the conductor closure of [`run_crew`] uses to step the crew
/// through phases.
pub struct Conductor<'a> {
    control: &'a CrewControl,
    phase_fn: &'a (dyn Fn(usize, u32) -> f64 + Sync),
    workers: usize,
}

impl Conductor<'_> {
    /// Number of workers in the crew (including the calling thread).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs one phase: every worker (the calling thread is worker 0)
    /// executes the crew's phase function with `tag`, and the maximum of
    /// the per-worker return values is reduced order-independently.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is the reserved shutdown tag, or (after cleanly
    /// releasing the crew) if any worker's phase function panicked.
    pub fn phase(&self, tag: u32) -> f64 {
        assert_ne!(tag, EXIT_TAG, "phase tag {EXIT_TAG:#x} is reserved");
        if self.workers == 1 {
            return (self.phase_fn)(0, tag);
        }
        self.control.tag.store(tag, Ordering::Release);
        self.control.barrier.wait();
        self.control.record(
            0,
            &catch_unwind(AssertUnwindSafe(|| (self.phase_fn)(0, tag))),
        );
        self.control.barrier.wait();
        assert!(
            !self.control.poisoned.load(Ordering::Acquire),
            "crew phase function panicked"
        );
        self.control.max_delta()
    }
}

/// Spawns a crew of `workers - 1` helper threads (the calling thread is
/// worker 0), runs `conduct`, and joins the crew.
///
/// The crew lives for the whole dispatch: each [`Conductor::phase`] call
/// re-uses the same threads, costing two barrier crossings instead of a
/// spawn/join round per phase. `phase_fn(worker, tag)` performs worker
/// `worker`'s share of phase `tag` and returns its local convergence
/// delta; [`Conductor::phase`] returns the crew-wide maximum.
///
/// With `workers == 1` no threads are spawned and phases run inline —
/// the serial path and the parallel path execute the same phase code.
///
/// # Panics
///
/// Propagates panics from `conduct`; a panic inside `phase_fn` (on any
/// worker) is reported by the in-flight [`Conductor::phase`] call after
/// the crew has been released, so no thread is left blocked.
pub fn run_crew<R>(
    workers: usize,
    phase_fn: impl Fn(usize, u32) -> f64 + Sync,
    conduct: impl FnOnce(&Conductor<'_>) -> R,
) -> R {
    let workers = workers.max(1);
    let control = CrewControl::new(workers);
    let conductor = Conductor {
        control: &control,
        phase_fn: &phase_fn,
        workers,
    };
    if workers == 1 {
        return conduct(&conductor);
    }
    std::thread::scope(|scope| {
        for worker in 1..workers {
            let control = &control;
            let phase_fn = &phase_fn;
            scope.spawn(move || loop {
                control.barrier.wait();
                let tag = control.tag.load(Ordering::Acquire);
                if tag == EXIT_TAG {
                    break;
                }
                control.record(
                    worker,
                    &catch_unwind(AssertUnwindSafe(|| phase_fn(worker, tag))),
                );
                control.barrier.wait();
            });
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| conduct(&conductor)));
        control.shutdown();
        match outcome {
            Ok(result) => result,
            Err(payload) => resume_unwind(payload),
        }
    })
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
    fn bands_cover_exactly_once() {
        for n in [0usize, 1, 7, 64, 1000] {
            for workers in [1usize, 2, 3, 4, 8, 13] {
                let mut seen = vec![0u32; n];
                for worker in 0..workers {
                    for i in band(worker, workers, n) {
                        seen[i] += 1;
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn resolve_workers_clamps() {
        assert_eq!(resolve_workers(4, 2), 2);
        assert_eq!(resolve_workers(4, 100), 4);
        assert_eq!(resolve_workers(1, 0), 1);
        assert!(resolve_workers(0, 1000) >= 1);
    }

    #[test]
    fn shared_grid_round_trips_values() {
        let mut grid = SharedF64::new(4);
        grid.set(2, -0.125);
        assert_eq!(grid.get(2), -0.125);
        grid.resize(6);
        assert_eq!(grid.len(), 6);
        assert_eq!(grid.get(2), -0.125);
        assert_eq!(grid.get(5), 0.0);
        let clone = grid.clone();
        grid.set(2, 7.0);
        assert_eq!(clone.get(2), -0.125);
        let mut out = vec![0.0; 6];
        grid.store_to(&mut out);
        assert_eq!(out[2], 7.0);
    }

    #[test]
    fn crew_phases_reduce_worker_deltas() {
        for workers in [1usize, 2, 4, 8] {
            let hits = (0..workers * 3)
                .map(|_| AtomicUsize::new(0))
                .collect::<Vec<_>>();
            let max = run_crew(
                workers,
                |worker, tag| {
                    hits[worker * 3 + tag as usize].fetch_add(1, Ordering::Relaxed);
                    (worker as f64).mul_add(0.5, f64::from(tag))
                },
                |crew| {
                    assert_eq!(crew.workers(), workers);
                    let mut max = 0.0f64;
                    for tag in 0..3u32 {
                        max = max.max(crew.phase(tag));
                    }
                    max
                },
            );
            // Largest delta: highest worker id in the highest phase.
            assert_eq!(max, ((workers - 1) as f64).mul_add(0.5, 2.0));
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn crew_results_are_worker_count_invariant() {
        // A toy two-grid relaxation: the final bits must not depend on
        // the worker count.
        let run = |workers: usize| -> Vec<u64> {
            let n = 97;
            let a = SharedF64::new(n);
            let b = SharedF64::new(n);
            for i in 0..n {
                a.set(i, (i as f64).sin());
            }
            run_crew(
                workers,
                |worker, tag| {
                    let (src, dst) = if tag == 0 { (&a, &b) } else { (&b, &a) };
                    let mut delta = 0.0f64;
                    for i in band(worker, workers, n) {
                        let left = if i > 0 { src.get(i - 1) } else { 0.0 };
                        let right = if i + 1 < n { src.get(i + 1) } else { 0.0 };
                        let next = 0.25 * (left + right) + 0.5 * src.get(i);
                        delta = delta.max((next - dst.get(i)).abs());
                        dst.set(i, next);
                    }
                    delta
                },
                |crew| {
                    for sweep in 0..40u32 {
                        crew.phase(sweep % 2);
                    }
                },
            );
            (0..n).map(|i| a.get(i).to_bits()).collect()
        };
        let reference = run(1);
        for workers in [2usize, 3, 4, 8] {
            assert_eq!(run(workers), reference, "workers = {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "crew phase function panicked")]
    fn crew_worker_panic_is_reported_not_deadlocked() {
        run_crew(
            4,
            |worker, _tag| {
                assert_ne!(worker, 2, "boom");
                0.0
            },
            |crew| {
                crew.phase(0);
            },
        );
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
