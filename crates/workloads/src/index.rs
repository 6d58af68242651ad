//! The sorted k-mer index — the paper's "sorted index of the reference
//! DNA that can be used to identify the location of matches and
//! mismatches in another sequence rapidly".
//!
//! The index is a position-sorted table of `(k-mer, position)` pairs,
//! queried by binary search. This is precisely the structure whose access
//! pattern the paper blames for "eliminating available data locality in
//! the reference and causing huge number of cache misses": each probe is
//! a random walk over a table the size of the reference.

use serde::{Deserialize, Serialize};

use crate::genome::Genome;
use crate::reads::ShortRead;
use crate::trace::AccessSink;

/// Result of mapping one read through the index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LookupOutcome {
    /// Reference positions whose seed k-mer matched, verified in full.
    pub mapped_positions: Vec<usize>,
    /// Character comparisons performed (index probes + verification).
    pub comparisons: u64,
    /// Mismatching characters encountered during verification.
    pub mismatches: u64,
}

/// A sorted index over all k-mers of a reference genome.
///
/// The simulated table holds one 16-byte `(key, position)` entry per
/// k-mer; the host keeps the two columns apart, so its binary search
/// walks the keys alone.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortedKmerIndex {
    /// Seed length.
    k: usize,
    /// Packed k-mers in ascending order.
    keys: Vec<u64>,
    /// `positions[i]` is the start of `keys[i]`'s k-mer; ascending within
    /// a run of equal keys.
    positions: Vec<u32>,
    /// Base address of the index in the simulated address space (the
    /// reference itself occupies `[0, genome_len)`).
    index_base: u64,
}

/// Bytes per index entry in the simulated layout (u64 key + u32 pos,
/// padded).
const ENTRY_BYTES: u64 = 16;

impl SortedKmerIndex {
    /// Builds the index of all overlapping `k`-mers of `genome`.
    ///
    /// The keys are packed with a rolling window and sorted by a stable
    /// LSD radix sort, so the entries come out ordered by `(key,
    /// position)` — the order a comparison sort of the pairs gives.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero, exceeds 32, or the genome is shorter than
    /// `k`.
    pub fn build(genome: &Genome, k: usize) -> Self {
        assert!(k > 0 && k <= 32, "seed length must be in 1..=32");
        assert!(genome.len() >= k, "genome shorter than the seed");
        let codes = genome.codes();
        let mask = u64::MAX >> (64 - 2 * k);
        let mut key = Self::pack(&codes[..k - 1]);
        let keys: Vec<u64> = codes[k - 1..]
            .iter()
            .map(|&symbol| {
                key = ((key << 2) | u64::from(symbol)) & mask;
                key
            })
            .collect();
        let (keys, positions) = radix_sort(keys, 2 * k as u32);
        Self {
            k,
            keys,
            positions,
            index_base: genome.len() as u64,
        }
    }

    /// Packs up to 32 2-bit symbols into a `u64` key.
    fn pack(symbols: &[u8]) -> u64 {
        symbols
            .iter()
            .fold(0u64, |acc, &s| (acc << 2) | u64::from(s))
    }

    /// Seed length.
    pub fn seed_len(&self) -> usize {
        self.k
    }

    /// Number of indexed k-mers.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the index is empty (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Maps a read: binary-search the seed, then verify every candidate
    /// position character-by-character against the reference.
    ///
    /// Every index probe and reference character read goes to `sink` in
    /// program order (addresses: reference at `[0, L)`, index entries
    /// above it), and every character comparison is counted — these feed
    /// the cache simulator and the Table-2 operation accounting
    /// respectively.
    pub fn map_read<S: AccessSink + ?Sized>(
        &self,
        genome: &Genome,
        read: &ShortRead,
        sink: &mut S,
    ) -> LookupOutcome {
        let seed = Self::pack(&read.symbols[..self.k]);
        let mut comparisons = 0u64;

        // Binary search over the sorted entries: each probe touches one
        // entry — a random-walk access pattern over the whole table.
        let mut lo = 0usize;
        let mut hi = self.keys.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            sink.read(self.index_base + mid as u64 * ENTRY_BYTES);
            comparisons += 1;
            if self.keys[mid] < seed {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // Walk the run of equal seeds.
        let mut mapped_positions = Vec::new();
        let mut mismatches = 0u64;
        let mut i = lo;
        while i < self.keys.len() && self.keys[i] == seed {
            sink.read(self.index_base + i as u64 * ENTRY_BYTES);
            let pos = self.positions[i] as usize;
            if pos + read.symbols.len() <= genome.len() {
                let (ok, cmp, mm) = Self::verify(genome, read, pos, sink);
                comparisons += cmp;
                mismatches += mm;
                if ok {
                    mapped_positions.push(pos);
                }
            }
            i += 1;
        }
        LookupOutcome {
            mapped_positions,
            comparisons,
            mismatches,
        }
    }

    /// Verifies a candidate alignment with early exit after too many
    /// mismatches (2% of the read length, the usual seed-and-extend
    /// tolerance).
    fn verify<S: AccessSink + ?Sized>(
        genome: &Genome,
        read: &ShortRead,
        pos: usize,
        sink: &mut S,
    ) -> (bool, u64, u64) {
        let budget = (read.symbols.len() / 50).max(2) as u64;
        let mut comparisons = 0u64;
        let mut mismatches = 0u64;
        let window = &genome.codes()[pos..pos + read.symbols.len()];
        for (&symbol, &reference) in read.symbols.iter().zip(window) {
            comparisons += 1;
            if reference != symbol {
                mismatches += 1;
                if mismatches > budget {
                    break;
                }
            }
        }
        // One reference character read per comparison, in order.
        sink.read_run(pos as u64, comparisons);
        (mismatches <= budget, comparisons, mismatches)
    }
}

/// Sorts `keys` (each below `2^bits`) with a stable LSD radix sort, one
/// byte per pass, carrying each key's original index along. Indices
/// start ascending and every pass is stable, so the result is ordered by
/// `(key, index)`.
fn radix_sort(mut keys: Vec<u64>, bits: u32) -> (Vec<u64>, Vec<u32>) {
    let count = u32::try_from(keys.len()).expect("index positions fit in u32");
    let mut positions: Vec<u32> = (0..count).collect();
    let passes = bits.div_ceil(8) as usize;
    // Every pass's digit histogram, from one sweep over the keys.
    let mut histograms = vec![[0usize; 256]; passes];
    for &key in &keys {
        for (pass, histogram) in histograms.iter_mut().enumerate() {
            histogram[((key >> (8 * pass)) & 0xff) as usize] += 1;
        }
    }
    let mut keys_out = vec![0u64; keys.len()];
    let mut positions_out = vec![0u32; keys.len()];
    for (pass, histogram) in histograms.iter().enumerate() {
        let mut next = [0usize; 256];
        let mut offset = 0;
        for (slot, &n) in next.iter_mut().zip(histogram) {
            *slot = offset;
            offset += n;
        }
        for (&key, &position) in keys.iter().zip(&positions) {
            let digit = ((key >> (8 * pass)) & 0xff) as usize;
            keys_out[next[digit]] = key;
            positions_out[next[digit]] = position;
            next[digit] += 1;
        }
        std::mem::swap(&mut keys, &mut keys_out);
        std::mem::swap(&mut positions, &mut positions_out);
    }
    (keys, positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reads::ReadSampler;
    use crate::trace::MemoryTrace;
    use proptest::prelude::*;

    fn setup() -> (Genome, SortedKmerIndex) {
        let genome = Genome::generate(4_000, 5);
        let index = SortedKmerIndex::build(&genome, 16);
        (genome, index)
    }

    #[test]
    fn index_contains_all_kmers_sorted() {
        let (genome, index) = setup();
        assert_eq!(index.len(), genome.len() - 16 + 1);
        assert!(!index.is_empty());
        assert!(index.keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(index.seed_len(), 16);
    }

    #[test]
    fn exact_reads_map_to_their_true_position() {
        let (genome, index) = setup();
        let sampler = ReadSampler {
            read_len: 64,
            coverage: 2,
            error_rate: 0.0,
            seed: 77,
        };
        for read in sampler.sample(&genome) {
            let mut trace = MemoryTrace::new();
            let outcome = index.map_read(&genome, &read, &mut trace);
            assert!(
                outcome.mapped_positions.contains(&read.true_position),
                "read from {} not mapped",
                read.true_position
            );
            assert!(outcome.comparisons > 0);
            assert!(!trace.is_empty());
        }
    }

    #[test]
    fn lookup_agrees_with_naive_scan() {
        let (genome, index) = setup();
        let sampler = ReadSampler {
            read_len: 32,
            coverage: 1,
            error_rate: 0.0,
            seed: 13,
        };
        for read in sampler.sample(&genome).into_iter().take(20) {
            let mut trace = MemoryTrace::new();
            let outcome = index.map_read(&genome, &read, &mut trace);
            // Naive reference: every position whose window equals the read.
            let naive: Vec<usize> = (0..=genome.len() - read.symbols.len())
                .filter(|&p| &genome.codes()[p..p + read.symbols.len()] == read.symbols.as_slice())
                .collect();
            assert_eq!(outcome.mapped_positions, naive);
        }
    }

    #[test]
    fn erroneous_reads_tolerate_few_mismatches() {
        let (genome, index) = setup();
        let sampler = ReadSampler {
            read_len: 100,
            coverage: 1,
            error_rate: 0.01,
            seed: 21,
        };
        let reads = sampler.sample(&genome);
        let mut mapped = 0usize;
        for read in &reads {
            // Skip reads whose seed itself is corrupted — seed-and-extend
            // cannot find those (a real mapper retries with other seeds).
            if read.error_positions.iter().any(|&i| i < index.seed_len()) {
                continue;
            }
            let mut trace = MemoryTrace::new();
            let outcome = index.map_read(&genome, read, &mut trace);
            if outcome.mapped_positions.contains(&read.true_position) {
                mapped += 1;
            }
        }
        assert!(mapped > 0, "no erroneous reads mapped at all");
    }

    #[test]
    fn probe_addresses_span_the_index_randomly() {
        let (genome, index) = setup();
        let sampler = ReadSampler {
            read_len: 32,
            coverage: 4,
            error_rate: 0.0,
            seed: 31,
        };
        let mut trace = MemoryTrace::new();
        for read in sampler.sample(&genome) {
            let _ = index.map_read(&genome, &read, &mut trace);
        }
        // The index probes must touch a large fraction of the table's
        // cache lines — the locality destruction the paper describes.
        let index_lines_touched = trace
            .accesses()
            .iter()
            .filter(|a| a.address >= genome.len() as u64)
            .map(|a| a.address / 64)
            .collect::<std::collections::HashSet<_>>()
            .len();
        let total_index_lines = (index.len() as u64 * ENTRY_BYTES / 64) as usize;
        assert!(
            index_lines_touched * 4 > total_index_lines,
            "probes touched only {index_lines_touched} of {total_index_lines} lines"
        );
    }

    #[test]
    #[should_panic(expected = "seed length")]
    fn rejects_oversized_seeds() {
        let genome = Genome::generate(100, 0);
        let _ = SortedKmerIndex::build(&genome, 33);
    }

    /// The comparison-sorted `(pack, position)` table, built without the
    /// rolling window or the radix sort.
    fn sorted_pairs(genome: &Genome, k: usize) -> Vec<(u64, u32)> {
        let codes = genome.codes();
        let mut pairs: Vec<(u64, u32)> = (0..=codes.len() - k)
            .map(|pos| {
                let key = codes[pos..pos + k]
                    .iter()
                    .fold(0u64, |acc, &s| (acc << 2) | u64::from(s));
                (key, pos as u32)
            })
            .collect();
        pairs.sort_unstable();
        pairs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn radix_built_index_equals_the_sorted_pairs(
            len in 32usize..3_000,
            seed in any::<u64>(),
        ) {
            let genome = Genome::generate(len, seed);
            for k in [1usize, 2, 15, 16, 17, 31, 32] {
                let index = SortedKmerIndex::build(&genome, k);
                let (keys, positions): (Vec<u64>, Vec<u32>) =
                    sorted_pairs(&genome, k).into_iter().unzip();
                prop_assert_eq!(&index.keys, &keys, "k = {}", k);
                prop_assert_eq!(&index.positions, &positions, "k = {}", k);
            }
        }
    }

    #[test]
    fn map_read_probe_order_is_pinned() {
        // Golden: one read's outcome and its whole address trace. A change
        // to the probe sequence, the entry layout or the verify walk moves
        // these numbers.
        let genome = Genome::generate(2_000, 9);
        let index = SortedKmerIndex::build(&genome, 16);
        let read = ReadSampler {
            read_len: 24,
            coverage: 1,
            error_rate: 0.0,
            seed: 4,
        }
        .sample(&genome)
        .swap_remove(0);
        let mut trace = MemoryTrace::new();
        let outcome = index.map_read(&genome, &read, &mut trace);
        let addresses: Vec<u64> = trace.accesses().iter().map(|a| a.address).collect();
        // Eleven binary-search probes, the one matching entry, then the
        // 24-character verify walk from position 1620.
        let mut golden = vec![
            17_872, 25_824, 21_856, 23_840, 24_832, 25_328, 25_088, 25_216, 25_152, 25_184, 25_200,
            25_216,
        ];
        golden.extend(1_620..1_644);
        assert_eq!(read.true_position, 1_620);
        assert_eq!(outcome.mapped_positions, vec![1_620]);
        assert_eq!(outcome.comparisons, 35);
        assert_eq!(addresses, golden);
    }
}
