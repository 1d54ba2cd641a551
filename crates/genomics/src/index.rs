//! Minimizer seeding and the seed hash table's placement across banks.
//!
//! Seeding (§4.3, Fig. 6) hashes small segments (k-mers) of the reference
//! and stores their positions in a hash table. Like minimap2 we keep only
//! window minimizers. A read's seeding probes one bucket per minimizer,
//! and a bucket is a function of the hash alone, so [`seed_buckets`]
//! yields the victim's probe stream without building the table. The table
//! is interleaved across DRAM banks ([`BankLayout`]) — the paper argues
//! this is realistic because modern controllers interleave consecutive
//! chunks across banks for parallelism.

use crate::genome::ReadSeq;

/// 64-bit finalizer (splitmix64-style) used as the k-mer hash.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Packs `k` bases (2 bits each) starting at `pos` into an integer.
///
/// Returns `None` if the window exceeds the sequence.
#[must_use]
pub fn pack_kmer(seq: &[u8], pos: usize, k: usize) -> Option<u64> {
    if pos + k > seq.len() || k == 0 || k > 32 {
        return None;
    }
    let mut v = 0u64;
    for &b in &seq[pos..pos + k] {
        v = (v << 2) | u64::from(b);
    }
    Some(v)
}

/// A selected minimizer: position and hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Minimizer {
    /// Start position of the k-mer in the sequence.
    pub pos: usize,
    /// Hash of the k-mer.
    pub hash: u64,
}

/// Extracts window minimizers: the minimal-hash k-mer of every window of
/// `w` consecutive k-mers, deduplicated.
#[must_use]
pub fn minimizers(seq: &[u8], k: usize, w: usize) -> Vec<Minimizer> {
    if seq.len() < k || k == 0 {
        return Vec::new();
    }
    let n_kmers = seq.len() - k + 1;
    let hashes: Vec<u64> = (0..n_kmers)
        .map(|i| mix64(pack_kmer(seq, i, k).expect("bounds checked")))
        .collect();
    let w = w.max(1);
    let mut out: Vec<Minimizer> = Vec::new();
    for win_start in 0..n_kmers.saturating_sub(w - 1) {
        let (best_off, best_hash) = hashes[win_start..win_start + w]
            .iter()
            .enumerate()
            .min_by_key(|(_, &h)| h)
            .map(|(i, &h)| (i, h))
            .expect("window non-empty");
        let m = Minimizer {
            pos: win_start + best_off,
            hash: best_hash,
        };
        if out.last() != Some(&m) {
            out.push(m);
        }
    }
    out
}

/// The victim's seeding probe stream: for every read in order, the bucket
/// (`hash % buckets`) of each of its window minimizers — the hash-table
/// probes the attacker observes (§4.3).
///
/// # Panics
///
/// Panics if `buckets` is 0.
#[must_use]
pub fn seed_buckets(reads: &[ReadSeq], k: usize, w: usize, buckets: usize) -> Vec<usize> {
    reads
        .iter()
        .flat_map(|read| minimizers(&read.bases, k, w))
        .map(|m| (m.hash % buckets as u64) as usize)
        .collect()
}

/// Cache lines in one 8 KiB DRAM row.
const LINES_PER_ROW: u64 = 128;

/// Placement of hash-table buckets across DRAM banks (§4.3, Fig. 7):
/// bucket `b` lives in bank `b % banks`, and a bank's buckets fill the
/// cache lines of one table row in turn ([`BankLayout::line_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankLayout {
    /// Number of DRAM banks holding the table.
    pub banks: usize,
    /// Total hash-table buckets.
    pub buckets: usize,
}

impl BankLayout {
    /// Creates a layout of `buckets` buckets over `banks` banks (each
    /// clamped to at least 1).
    #[must_use]
    pub fn new(banks: usize, buckets: usize) -> BankLayout {
        BankLayout {
            banks: banks.max(1),
            buckets: buckets.max(1),
        }
    }

    /// Bank holding `bucket`.
    #[must_use]
    pub fn bank_of(&self, bucket: usize) -> usize {
        bucket % self.banks
    }

    /// Cache line, within its bank's table row, holding `bucket`.
    #[must_use]
    pub fn line_of(&self, bucket: usize) -> u64 {
        (bucket / self.banks) as u64 % LINES_PER_ROW
    }

    /// Buckets co-resident in `bucket`'s bank — the attacker's residual
    /// ambiguity after identifying the bank (§6.3: 16 entries at 1024
    /// banks, 8 at 2048, ...).
    #[must_use]
    pub fn buckets_per_bank(&self) -> usize {
        self.buckets.div_ceil(self.banks)
    }

    /// Information (bits) leaked by one correctly identified bank access:
    /// log2(buckets) − log2(buckets_per_bank) = log2(banks) for an evenly
    /// divided table.
    #[must_use]
    pub fn bits_per_identified_access(&self) -> f64 {
        (self.buckets as f64).log2() - (self.buckets_per_bank() as f64).log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{Genome, ReadSampler};

    #[test]
    fn pack_kmer_bounds() {
        let seq = [0u8, 1, 2, 3];
        assert_eq!(pack_kmer(&seq, 0, 4), Some(0b00_01_10_11));
        assert_eq!(pack_kmer(&seq, 1, 4), None);
        assert_eq!(pack_kmer(&seq, 0, 0), None);
    }

    #[test]
    fn minimizers_cover_sequence() {
        let g = Genome::synthesize(1000, 11);
        let ms = minimizers(g.bases(), 15, 5);
        assert!(!ms.is_empty());
        // Density ~ 2/(w+1) per position: expect roughly 2*986/6 = 330.
        assert!((150..=500).contains(&ms.len()), "count = {}", ms.len());
        // Positions strictly increasing after dedup? (non-decreasing and
        // unique as (pos,hash) pairs)
        for pair in ms.windows(2) {
            assert!(pair[0].pos <= pair[1].pos);
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn identical_windows_share_minimizers() {
        let g = Genome::synthesize(500, 3);
        let a = minimizers(g.bases(), 11, 4);
        let b = minimizers(g.bases(), 11, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn seed_buckets_follow_read_minimizers() {
        let g = Genome::synthesize(20_000, 21);
        let reads = ReadSampler::new(3).sample(&g, 5, 150, 0.01);
        let buckets = 16384;
        let stream = seed_buckets(&reads, 15, 5, buckets);
        assert!(!stream.is_empty());
        assert!(stream.iter().all(|&b| b < buckets));
        let expected: Vec<usize> = reads
            .iter()
            .flat_map(|r| minimizers(&r.bases, 15, 5))
            .map(|m| (m.hash % buckets as u64) as usize)
            .collect();
        assert_eq!(stream, expected);
    }

    #[test]
    fn bank_layout_paper_example() {
        // 16384 entries over 1024 banks -> 16 entries per bank (§6.3).
        let l = BankLayout::new(1024, 16384);
        assert_eq!(l.buckets_per_bank(), 16);
        assert!((l.bits_per_identified_access() - 10.0).abs() < 1e-9);
        // 2048 banks -> 8 entries, more precise leak (11 bits).
        let l2 = BankLayout::new(2048, 16384);
        assert_eq!(l2.buckets_per_bank(), 8);
        assert!(l2.bits_per_identified_access() > l.bits_per_identified_access());
    }

    #[test]
    fn bank_layout_mapping_consistent() {
        let l = BankLayout::new(16, 1 << 14);
        for bucket in [0usize, 1, 15, 16, 17, 9999] {
            assert_eq!(l.bank_of(bucket), bucket % 16);
            assert!(l.line_of(bucket) < 128);
        }
        // A bank's buckets take consecutive lines, wrapping after a row.
        assert_eq!(l.line_of(5), 0);
        assert_eq!(l.line_of(5 + 16), 1);
        assert_eq!(l.line_of(5 + 16 * 128), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every window of w consecutive k-mers contains at least one
        /// selected minimizer (the coverage guarantee seeding relies on).
        #[test]
        fn minimizers_cover_every_window(
            seq in prop::collection::vec(0u8..4, 30..200),
            k in 5usize..12,
            w in 2usize..8,
        ) {
            prop_assume!(seq.len() >= k + w);
            let ms = minimizers(&seq, k, w);
            let n_kmers = seq.len() - k + 1;
            for win in 0..(n_kmers - w + 1) {
                let covered = ms.iter().any(|m| m.pos >= win && m.pos < win + w);
                prop_assert!(covered, "window {win} uncovered");
            }
        }

        /// Selected minimizers really are the minimal hash of some window.
        #[test]
        fn minimizers_are_window_minima(
            seq in prop::collection::vec(0u8..4, 30..150),
        ) {
            let (k, w) = (7usize, 4usize);
            prop_assume!(seq.len() >= k + w);
            let ms = minimizers(&seq, k, w);
            for m in &ms {
                let h = mix64(pack_kmer(&seq, m.pos, k).unwrap());
                prop_assert_eq!(h, m.hash);
            }
        }

        /// pack_kmer is injective over its window for fixed k.
        #[test]
        fn pack_kmer_injective(
            a in prop::collection::vec(0u8..4, 8),
            b in prop::collection::vec(0u8..4, 8),
        ) {
            let pa = pack_kmer(&a, 0, 8).unwrap();
            let pb = pack_kmer(&b, 0, 8).unwrap();
            prop_assert_eq!(pa == pb, a == b);
        }

        /// Bank layout: every bucket maps to a valid bank; buckets of one
        /// bank are exactly those congruent mod banks.
        #[test]
        fn layout_partition(banks in 1usize..64, buckets in 1usize..4096, probe in 0usize..4096) {
            let l = BankLayout::new(banks, buckets);
            prop_assume!(probe < buckets);
            let bank = l.bank_of(probe);
            prop_assert!(bank < banks);
            prop_assert_eq!(bank, probe % banks);
        }
    }
}
