//! Deterministic parallel batch driver for per-item hot loops.
//!
//! Both executors iterate large item collections (short reads, operand
//! pairs) whose per-item work is independent. This module fans that work
//! out over the shared `cim-pool` index-claiming driver
//! ([`cim_pool::run_collect`]) while keeping results **bit-identical to
//! the serial run regardless of thread count**:
//!
//! * items are split into fixed-size chunks ([`CHUNK_SIZE`], independent
//!   of thread count);
//! * workers claim chunk *indices* from the pool's shared dispenser
//!   (dynamic load balancing, order of execution unspecified);
//! * each chunk is processed serially into its own result slot;
//! * the pool hands the slots back in chunk order, merged left-to-right.
//!
//! Floating-point accumulation order is therefore a pure function of the
//! item order and chunk size — never of scheduling. Stateful phases that
//! genuinely need global order stay sequential: `ConventionalExecutor`'s
//! DNA run maps fixed blocks of chunks through [`par_units`], then
//! streams each block, chunk by chunk, through one serial cache replay
//! that keeps integer event counts and prices them once at the end.
//!
//! The same contract governs the electrical model below this layer, and
//! with the same single axis: a crossbar solve always runs on one
//! thread, and only independent work runs in parallel.
//! `cim_crossbar::solve_batch` dispatches whole independent array solves
//! through [`cim_pool::run_exclusive`], and `fig3_sneak --threads N`
//! fans its independent margin studies out through [`par_units`], so
//! electrical results are likewise bit-identical at any thread count
//! (DESIGN.md §5).

use serde::{Deserialize, Serialize};

/// Items per chunk. Fixed — NOT derived from the thread count — so the
/// chunk decomposition (and with it every merge order) is identical on
/// every machine.
pub const CHUNK_SIZE: usize = 1024;

/// How a batch loop is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchPolicy {
    /// Worker threads; `0` means "ask the OS" (`available_parallelism`).
    pub threads: usize,
}

impl BatchPolicy {
    /// Single-threaded reference execution.
    pub const SERIAL: BatchPolicy = BatchPolicy { threads: 1 };

    /// Use every core the OS reports.
    pub fn auto() -> Self {
        BatchPolicy { threads: 0 }
    }

    /// Exactly `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        BatchPolicy { threads }
    }

    /// Worker count for a batch of `items` items: resolves `0`, then
    /// caps so no worker starves (< 1 chunk) and degenerate batches run
    /// inline.
    pub fn effective_threads(&self, items: usize) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        } else {
            self.threads
        };
        requested.min(items.div_ceil(CHUNK_SIZE)).max(1)
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self::auto()
    }
}

/// Runs `fold` over every chunk *slice*, merging per-chunk accumulators
/// in chunk order. Equivalent to
/// `items.chunks(CHUNK_SIZE).map(|c| fold(init(), c)).fold(init(), merge)`
/// — and bit-identical to it at any thread count.
///
/// Handing the fold a whole `&[T]` lets it set up per-chunk state — scratch
/// buffers, a bit-slice engine, lane packers — once per [`CHUNK_SIZE`]
/// items instead of once per item, and lets it group items into
/// sub-chunk lanes (e.g. 64-wide bit-sliced passes) without the
/// grouping ever crossing a chunk boundary, which would break the fixed
/// merge decomposition.
pub fn par_fold_slices<T, A, I, F, M>(
    policy: BatchPolicy,
    items: &[T],
    init: I,
    fold: F,
    merge: M,
) -> A
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, &[T]) -> A + Sync,
    M: Fn(A, A) -> A,
{
    let chunk_results = run_chunks(policy, items, |chunk| fold(init(), chunk));
    chunk_results.into_iter().fold(init(), merge)
}

/// Items a streamed fold ([`par_fold_stream`]) draws per block. A
/// multiple of [`CHUNK_SIZE`], so a block's chunks are exactly the
/// chunks of the collected stream.
pub const STREAM_BLOCK: usize = 1 << 16;

/// Runs [`par_fold_slices`] over an item *stream* without collecting
/// it: draws up to [`STREAM_BLOCK`] items at a time into one reused
/// buffer, folds the block and merges its accumulator into the running
/// one, in stream order.
///
/// The chunk decomposition is the collected stream's; only the merges
/// regroup, block by block. The result is therefore a pure function of
/// the stream (bit-identical at any thread count), and equals the
/// collected [`par_fold_slices`] whenever `merge` is associative with
/// `init()` as its identity (counts, wrapping sums).
pub fn par_fold_stream<T, A, I, F, M>(
    policy: BatchPolicy,
    mut items: impl Iterator<Item = T>,
    init: I,
    fold: F,
    merge: M,
) -> A
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, &[T]) -> A + Sync,
    M: Fn(A, A) -> A,
{
    let mut block = Vec::with_capacity(items.size_hint().0.min(STREAM_BLOCK));
    let mut acc = init();
    loop {
        block.clear();
        block.extend(items.by_ref().take(STREAM_BLOCK));
        if block.is_empty() {
            return acc;
        }
        acc = merge(acc, par_fold_slices(policy, &block, &init, &fold, &merge));
    }
}

/// Maps every item, preserving item order in the output.
pub fn par_map<T, U, F>(policy: BatchPolicy, items: &[T], map: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let chunk_results = run_chunks(policy, items, |chunk| {
        chunk.iter().map(&map).collect::<Vec<U>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for mut part in chunk_results {
        out.append(&mut part);
    }
    out
}

/// Runs `work(unit_index)` for every unit in `0..units` and returns the
/// results **in unit order** — the tile-granularity twin of the chunked
/// drivers.
///
/// The chunked drivers above decompose *items* at [`CHUNK_SIZE`]
/// granularity, which collapses to a serial walk when the work is a
/// handful of coarse units (a fabric's tiles). Here each unit is one
/// schedulable grain: pool workers claim unit indices from the shared
/// dispenser (dynamic load balancing, execution order unspecified) and
/// results come back in index order, so the output is a pure function of
/// `units` and `work` — bit-identical at any thread count. The caller's
/// `work` must itself be deterministic per index (the per-tile executors
/// are: each sees a fixed query slice in a fixed order).
pub fn par_units<R, W>(policy: BatchPolicy, units: usize, work: W) -> Vec<R>
where
    R: Send,
    W: Fn(usize) -> R + Sync,
{
    cim_pool::run_collect(policy.threads, units, work)
}

/// Shared engine: applies `work` to each fixed-size chunk (serially per
/// chunk, chunk indices claimed dynamically from the pool's dispenser)
/// and returns the chunk results **in chunk order**.
fn run_chunks<T, R, W>(policy: BatchPolicy, items: &[T], work: W) -> Vec<R>
where
    T: Sync,
    R: Send,
    W: Fn(&[T]) -> R + Sync,
{
    let chunks: Vec<&[T]> = items.chunks(CHUNK_SIZE).collect();
    let threads = policy.effective_threads(items.len());
    cim_pool::run_collect(threads, chunks.len(), |index| work(chunks[index]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policies() -> [BatchPolicy; 4] {
        [
            BatchPolicy::SERIAL,
            BatchPolicy::with_threads(2),
            BatchPolicy::with_threads(5),
            BatchPolicy::auto(),
        ]
    }

    #[test]
    fn fold_is_thread_count_invariant_for_floats() {
        // Non-associative f64 sums: only a fixed merge order keeps these
        // bit-identical across thread counts.
        let items: Vec<f64> = (0..10_000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let fold = |acc: f64, chunk: &[f64]| chunk.iter().fold(acc, |a, x| a + x);
        let reference = par_fold_slices(BatchPolicy::SERIAL, &items, || 0.0, fold, |a, b| a + b);
        for policy in policies() {
            let sum = par_fold_slices(policy, &items, || 0.0, fold, |a, b| a + b);
            assert_eq!(sum.to_bits(), reference.to_bits(), "policy {policy:?}");
        }
    }

    #[test]
    fn slice_fold_matches_item_fold_at_every_policy() {
        // Same chunk decomposition, same merge order: the slice-level
        // fold must reproduce a serial item-by-item fold of each chunk,
        // merged in chunk order, bit for bit, even when it groups items
        // into sub-chunk lanes.
        let items: Vec<f64> = (0..5 * CHUNK_SIZE + 321)
            .map(|i| 1.0 / (i as f64 + 1.0))
            .collect();
        let reference = items
            .chunks(CHUNK_SIZE)
            .map(|chunk| chunk.iter().fold(0.0f64, |acc, x| acc + x))
            .fold(0.0, |a, b| a + b);
        for policy in policies() {
            let sum = par_fold_slices(
                policy,
                &items,
                || 0.0f64,
                |acc, chunk| {
                    // Walk the chunk in 64-item groups, as a bit-sliced
                    // consumer would.
                    let mut acc = acc;
                    for group in chunk.chunks(64) {
                        for x in group {
                            acc += x;
                        }
                    }
                    acc
                },
                |a, b| a + b,
            );
            assert_eq!(sum.to_bits(), reference.to_bits(), "policy {policy:?}");
        }
    }

    #[test]
    fn stream_fold_matches_the_collected_fold_across_blocks() {
        // Wrapping sums and counts merge associatively, so drawing the
        // stream block by block changes nothing: every length around
        // the block and chunk edges, at every policy.
        let value = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let block = STREAM_BLOCK as u64;
        for n in [
            0,
            1,
            1023,
            1025,
            block - 1,
            block,
            block + 1,
            2 * block + 321,
        ] {
            let items: Vec<u64> = (0..n).map(value).collect();
            let fold = |(count, sum): (u64, u64), chunk: &[u64]| {
                let sum = chunk.iter().fold(sum, |s, &x| s.wrapping_add(x));
                (count + chunk.len() as u64, sum)
            };
            let merge = |(c1, s1): (u64, u64), (c2, s2): (u64, u64)| (c1 + c2, s1.wrapping_add(s2));
            let reference = par_fold_slices(BatchPolicy::SERIAL, &items, || (0, 0), fold, merge);
            assert_eq!(reference.0, n);
            for policy in policies() {
                let streamed = par_fold_stream(policy, (0..n).map(value), || (0, 0), fold, merge);
                assert_eq!(streamed, reference, "{n} items, policy {policy:?}");
            }
        }
    }

    #[test]
    fn slice_fold_handles_empty_batches() {
        let empty: Vec<u32> = Vec::new();
        let sum = par_fold_slices(
            BatchPolicy::auto(),
            &empty,
            || 0u32,
            |acc, chunk| acc + chunk.iter().sum::<u32>(),
            |a, b| a + b,
        );
        assert_eq!(sum, 0);
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<u64> = (0..5_000).collect();
        for policy in policies() {
            let squares = par_map(policy, &items, |&x| x * x);
            assert_eq!(squares.len(), items.len());
            assert!(squares
                .iter()
                .enumerate()
                .all(|(i, &s)| s == (i as u64).pow(2)));
        }
    }

    #[test]
    fn empty_and_tiny_batches_work() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(
            par_map(BatchPolicy::auto(), &empty, |&x| x),
            Vec::<u32>::new()
        );
        let one = [7u32];
        assert_eq!(par_map(BatchPolicy::auto(), &one, |&x| x + 1), vec![8]);
        let sum = par_fold_slices(
            BatchPolicy::auto(),
            &empty,
            || 0u32,
            |a, chunk| a + chunk.iter().sum::<u32>(),
            |a, b| a + b,
        );
        assert_eq!(sum, 0);
    }

    #[test]
    fn unit_dispatch_preserves_unit_order_at_every_policy() {
        // Coarse units (a fabric's tiles): results must come back in
        // unit order no matter how workers interleave.
        for units in [0usize, 1, 3, 7, 64] {
            for policy in policies() {
                let results = par_units(policy, units, |i| i * i);
                assert_eq!(results, (0..units).map(|i| i * i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn unit_dispatch_is_thread_count_invariant_for_ledgers() {
        use cim_units::{Component, CostLedger, Energy, Phase};
        // Each unit builds a sub-ledger; merging in unit order must be
        // bit-identical across policies (non-associative f64 energies).
        let build = |policy: BatchPolicy| {
            let subs = par_units(policy, 7, |i| {
                let mut sub = CostLedger::new();
                for k in 0..50 * (i + 1) {
                    sub.charge_energy(
                        Component::ImplyStep,
                        Phase::Map,
                        Energy::new(1.0 / (k as f64 + 1.0)),
                        1,
                    );
                }
                sub
            });
            let mut total = CostLedger::new();
            for sub in &subs {
                total.merge(sub);
            }
            total
        };
        let reference = build(BatchPolicy::SERIAL);
        for policy in policies() {
            let ledger = build(policy);
            assert_eq!(ledger, reference, "policy {policy:?}");
            assert_eq!(
                ledger.total_energy().get().to_bits(),
                reference.total_energy().get().to_bits()
            );
        }
    }

    #[test]
    fn effective_threads_respects_request_and_batch_size() {
        assert_eq!(BatchPolicy::SERIAL.effective_threads(1 << 20), 1);
        assert_eq!(BatchPolicy::with_threads(4).effective_threads(1 << 20), 4);
        // 100 items = 1 chunk → a single worker no matter the request.
        assert_eq!(BatchPolicy::with_threads(16).effective_threads(100), 1);
        assert!(BatchPolicy::auto().effective_threads(1 << 20) >= 1);
    }
}
