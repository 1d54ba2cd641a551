//! Synthetic genomes and read sampling.
//!
//! The paper evaluates with the human reference genome and synthetic query
//! genomes (§5.1). Distributing a real human genome is neither possible nor
//! necessary here: the side channel depends only on the victim's hash-table
//! access pattern, which any reference with realistic minimizer statistics
//! reproduces. Sequences are uniform random bases; reads are sampled from
//! them with substitution errors and an optional coverage hotspot.

use impact_core::rng::SimRng;

/// A nucleotide sequence stored as one base per byte (0=A, 1=C, 2=G, 3=T).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Genome {
    bases: Vec<u8>,
}

impl Genome {
    /// Synthesizes a random genome of `len` bases from `seed`.
    #[must_use]
    pub fn synthesize(len: usize, seed: u64) -> Genome {
        let mut rng = SimRng::seed(seed);
        let bases = (0..len).map(|_| rng.below(4) as u8).collect();
        Genome { bases }
    }

    /// The sequence as a slice of 2-bit codes.
    #[must_use]
    pub fn bases(&self) -> &[u8] {
        &self.bases
    }

    /// Sequence length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// True if the genome is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// A subsequence (clamped to bounds).
    #[must_use]
    pub fn slice(&self, start: usize, len: usize) -> &[u8] {
        let start = start.min(self.bases.len());
        let end = (start + len).min(self.bases.len());
        &self.bases[start..end]
    }
}

/// A sequencing read with its ground-truth origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadSeq {
    /// Base codes of the read.
    pub bases: Vec<u8>,
    /// Position in the reference the read was sampled from.
    pub true_position: usize,
}

/// Samples reads from a reference with substitution errors (sequencing
/// noise).
#[derive(Debug, Clone)]
pub struct ReadSampler {
    rng: SimRng,
}

impl ReadSampler {
    /// Creates a sampler from a seed.
    #[must_use]
    pub fn new(seed: u64) -> ReadSampler {
        ReadSampler {
            rng: SimRng::seed(seed),
        }
    }

    /// Samples `n` reads of `len` bases with per-base substitution
    /// probability `error_rate`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the genome length or the genome is empty.
    pub fn sample(
        &mut self,
        genome: &Genome,
        n: usize,
        len: usize,
        error_rate: f64,
    ) -> Vec<ReadSeq> {
        self.sample_focused(genome, n, len, error_rate, 0.0, 0, 0)
    }

    /// Samples reads with a coverage hotspot: a `focus_fraction` of reads
    /// start inside the `focus_len`-base region at `focus_start` (the rest
    /// are uniform). Models targeted/amplicon sequencing, where one locus
    /// is covered orders of magnitude deeper than the genome background —
    /// the workload shape that concentrates seed lookups on a small set of
    /// hot hash buckets.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the genome length, the genome is empty, or
    /// the focus region (when `focus_fraction > 0`) cannot fit a read.
    #[expect(
        clippy::too_many_arguments,
        reason = "read length, error rate and the focus region are independent knobs"
    )]
    pub fn sample_focused(
        &mut self,
        genome: &Genome,
        n: usize,
        len: usize,
        error_rate: f64,
        focus_fraction: f64,
        focus_start: usize,
        focus_len: usize,
    ) -> Vec<ReadSeq> {
        assert!(!genome.is_empty(), "cannot sample from an empty genome");
        assert!(len <= genome.len(), "read longer than genome");
        let max_start = (genome.len() - len) as u64 + 1;
        if focus_fraction > 0.0 {
            assert!(
                focus_start + focus_len + len <= genome.len(),
                "focus region must fit a read"
            );
        }
        (0..n)
            .map(|_| {
                let start = if self.rng.chance(focus_fraction) {
                    focus_start + self.rng.below(focus_len.max(1) as u64) as usize
                } else {
                    self.rng.below(max_start) as usize
                };
                let mut bases = genome.slice(start, len).to_vec();
                for b in &mut bases {
                    if self.rng.chance(error_rate) {
                        *b = (*b + 1 + self.rng.below(3) as u8) % 4;
                    }
                }
                ReadSeq {
                    bases,
                    true_position: start,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic() {
        let a = Genome::synthesize(1000, 5);
        let b = Genome::synthesize(1000, 5);
        assert_eq!(a, b);
        let c = Genome::synthesize(1000, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn bases_in_range() {
        let g = Genome::synthesize(10_000, 1);
        assert!(g.bases().iter().all(|&b| b < 4));
        assert_eq!(g.len(), 10_000);
    }

    #[test]
    fn base_distribution_roughly_uniform() {
        let g = Genome::synthesize(40_000, 2);
        let mut counts = [0usize; 4];
        for &b in g.bases() {
            counts[b as usize] += 1;
        }
        for c in counts {
            assert!(
                (8_000..=12_000).contains(&c),
                "skewed distribution: {counts:?}"
            );
        }
    }

    #[test]
    fn error_free_reads_match_reference() {
        let g = Genome::synthesize(2_000, 4);
        let mut s = ReadSampler::new(9);
        for r in s.sample(&g, 50, 80, 0.0) {
            assert_eq!(r.bases, g.slice(r.true_position, 80));
        }
    }

    #[test]
    fn errors_perturb_reads() {
        let g = Genome::synthesize(2_000, 4);
        let mut s = ReadSampler::new(9);
        let reads = s.sample(&g, 50, 100, 0.1);
        let mismatches: usize = reads
            .iter()
            .map(|r| {
                r.bases
                    .iter()
                    .zip(g.slice(r.true_position, 100))
                    .filter(|(a, b)| a != b)
                    .count()
            })
            .sum();
        // ~10% of 5000 bases.
        assert!(
            (300..=800).contains(&mismatches),
            "mismatches = {mismatches}"
        );
    }

    #[test]
    fn focused_sampling_concentrates_reads() {
        let g = Genome::synthesize(10_000, 8);
        let mut s = ReadSampler::new(12);
        let reads = s.sample_focused(&g, 200, 100, 0.0, 0.8, 2_000, 300);
        let focused = reads
            .iter()
            .filter(|r| (2_000..2_300).contains(&r.true_position))
            .count();
        assert!((130..=190).contains(&focused), "focused = {focused}/200");
    }
}
