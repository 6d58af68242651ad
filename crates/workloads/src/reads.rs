//! Short-read sampling with sequencing errors.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::genome::Genome;

/// One sequencing read: a window of the genome with possible errors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShortRead {
    /// The (possibly corrupted) 2-bit symbols.
    pub symbols: Vec<u8>,
    /// The true position the read was sampled from (ground truth for
    /// mapping validation).
    pub true_position: usize,
    /// Indices within the read where substitution errors were injected.
    pub error_positions: Vec<usize>,
}

/// Samples short reads at a given coverage, mimicking a sequencer.
///
/// Table 1: "the DNA reference sequence must be covered 50 times by short
/// reads. The length of the short reads are assumed to be 100
/// characters." Coverage `c` over a reference of length `L` with reads of
/// length `r` yields `c·L/r` reads — the paper's
/// `no_short_reads = coverage · 3 · giga / short_read_len`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReadSampler {
    /// Read length in characters (paper: 100).
    pub read_len: usize,
    /// Coverage factor (paper: 50).
    pub coverage: u32,
    /// Per-character substitution probability.
    pub error_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ReadSampler {
    /// The paper's sampling parameters (coverage 50, length 100) with a
    /// realistic 1% substitution rate.
    pub fn paper_defaults(seed: u64) -> Self {
        Self {
            read_len: 100,
            coverage: 50,
            error_rate: 0.01,
            seed,
        }
    }

    /// Number of reads needed for the configured coverage of `genome`.
    pub fn read_count(&self, genome: &Genome) -> usize {
        (self.coverage as usize * genome.len()).div_ceil(self.read_len)
    }

    /// Samples all reads for the configured coverage.
    ///
    /// # Panics
    ///
    /// Panics if the genome is shorter than one read.
    pub fn sample(&self, genome: &Genome) -> Vec<ShortRead> {
        self.stream(genome).collect()
    }

    /// The reads [`sample`](Self::sample) returns, generated one at a
    /// time, so a consumer can hold a bounded window of them.
    ///
    /// # Panics
    ///
    /// Panics if the genome is shorter than one read.
    pub fn stream<'g>(&self, genome: &'g Genome) -> impl Iterator<Item = ShortRead> + 'g {
        assert!(
            genome.len() >= self.read_len,
            "genome shorter than read length"
        );
        let sampler = *self;
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.read_count(genome)).map(move |_| sampler.sample_one(genome, &mut rng))
    }

    fn sample_one(&self, genome: &Genome, rng: &mut StdRng) -> ShortRead {
        let start = rng.gen_range(0..=genome.len() - self.read_len);
        let mut symbols: Vec<u8> = genome.codes()[start..start + self.read_len].to_vec();
        let mut error_positions = Vec::new();
        for (i, s) in symbols.iter_mut().enumerate() {
            if rng.gen_bool(self.error_rate) {
                let substitute = (*s + rng.gen_range(1..4u8)) % 4;
                *s = substitute;
                error_positions.push(i);
            }
        }
        ShortRead {
            symbols,
            true_position: start,
            error_positions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn genome() -> Genome {
        Genome::generate(5_000, 11)
    }

    #[test]
    fn read_count_follows_coverage_formula() {
        let s = ReadSampler {
            read_len: 100,
            coverage: 50,
            error_rate: 0.0,
            seed: 0,
        };
        // coverage · L / r = 50 · 5000 / 100 = 2500.
        assert_eq!(s.read_count(&genome()), 2_500);
    }

    #[test]
    fn error_free_reads_match_reference_exactly() {
        let s = ReadSampler {
            read_len: 50,
            coverage: 2,
            error_rate: 0.0,
            seed: 3,
        };
        let g = genome();
        for read in s.sample(&g) {
            assert_eq!(
                read.symbols,
                g.codes()[read.true_position..read.true_position + 50]
            );
            assert!(read.error_positions.is_empty());
        }
    }

    #[test]
    fn errors_are_recorded_and_substituted() {
        let s = ReadSampler {
            read_len: 100,
            coverage: 5,
            error_rate: 0.05,
            seed: 9,
        };
        let g = genome();
        let reads = s.sample(&g);
        let total_errors: usize = reads.iter().map(|r| r.error_positions.len()).sum();
        let total_chars: usize = reads.len() * 100;
        let rate = total_errors as f64 / total_chars as f64;
        assert!((0.03..0.07).contains(&rate), "error rate {rate}");
        // Every recorded error really differs from the reference.
        for read in &reads {
            for &i in &read.error_positions {
                assert_ne!(read.symbols[i], g.codes()[read.true_position + i]);
            }
        }
    }

    #[test]
    fn sampling_is_reproducible() {
        let s = ReadSampler::paper_defaults(42);
        let g = genome();
        assert_eq!(s.sample(&g), s.sample(&g));
    }

    #[test]
    #[should_panic(expected = "shorter than read length")]
    fn rejects_tiny_genomes() {
        let s = ReadSampler::paper_defaults(0);
        let g = Genome::generate(10, 0);
        let _ = s.sample(&g);
    }
}
