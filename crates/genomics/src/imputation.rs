//! Scoring of leaked information: completion-attack style evaluation.
//!
//! The paper measures side-channel throughput "based on the correct guesses
//! of the hash table entries accessed" and error rate from incorrect
//! guesses (§6.3); the end-to-end genome reconstruction (imputation) is
//! delegated to prior work. We reproduce that accounting: per observation
//! round, the attacker's set of banks-with-detected-activity is compared
//! with the ground-truth set of banks the victim actually touched.

use std::collections::BTreeSet;

use crate::index::BankLayout;

/// Outcome of scoring leaked rounds against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakScore {
    /// Correct detections (bank flagged and truly accessed).
    pub true_positives: u64,
    /// False detections (bank flagged, not accessed) — noise.
    pub false_positives: u64,
    /// Missed accesses (bank accessed, not flagged) — aliasing/timeouts.
    pub false_negatives: u64,
}

impl LeakScore {
    /// Error rate: the fraction of the attacker's guesses that were
    /// wrong, the secondary axis of Fig. 11.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        let guesses = self.true_positives + self.false_positives;
        if guesses == 0 {
            0.0
        } else {
            self.false_positives as f64 / guesses as f64
        }
    }

    /// Information successfully leaked, in bits: each correct guess
    /// resolves the victim's probe to one bank's worth of entries
    /// (§6.3's resolution argument), i.e. [`BankLayout::bits_per_identified_access`].
    #[must_use]
    pub fn leaked_bits(&self, layout: &BankLayout) -> f64 {
        self.true_positives as f64 * layout.bits_per_identified_access()
    }
}

/// Scores per-round observations: `truth[i]` is the set of banks the victim
/// accessed in round `i`; `observed[i]` is the attacker's flagged set.
///
/// Rounds beyond the shorter of the two sequences are ignored.
#[must_use]
pub fn score_rounds(truth: &[BTreeSet<usize>], observed: &[BTreeSet<usize>]) -> LeakScore {
    let mut s = LeakScore {
        true_positives: 0,
        false_positives: 0,
        false_negatives: 0,
    };
    for (t, o) in truth.iter().zip(observed.iter()) {
        s.true_positives += t.intersection(o).count() as u64;
        s.false_positives += o.difference(t).count() as u64;
        s.false_negatives += t.difference(o).count() as u64;
    }
    s
}

/// The attacker's candidate reconstruction: given a detected bank and the
/// layout, the candidate bucket set is every bucket resident in that bank
/// (the paper's "one of the 16 hash table entries" ambiguity).
#[must_use]
pub fn candidate_buckets(layout: &BankLayout, bank: usize) -> Vec<usize> {
    (0..layout.buckets)
        .skip(bank)
        .step_by(layout.banks)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[usize]) -> BTreeSet<usize> {
        v.iter().copied().collect()
    }

    #[test]
    fn perfect_observation() {
        let truth = vec![set(&[1, 2]), set(&[3])];
        let s = score_rounds(&truth, &truth.clone());
        assert_eq!(s.true_positives, 3);
        assert_eq!(s.false_positives, 0);
        assert_eq!(s.false_negatives, 0);
        assert_eq!(s.error_rate(), 0.0);
    }

    #[test]
    fn noisy_observation() {
        let truth = vec![set(&[1, 2, 3, 4])];
        let obs = vec![set(&[1, 2, 9])];
        let s = score_rounds(&truth, &obs);
        assert_eq!(s.true_positives, 2);
        assert_eq!(s.false_positives, 1);
        assert_eq!(s.false_negatives, 2);
        assert!((s.error_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_rounds() {
        let s = score_rounds(&[], &[]);
        assert_eq!(s.error_rate(), 0.0);
    }

    #[test]
    fn leaked_bits_match_layout_resolution() {
        let layout = BankLayout::new(1024, 16384);
        let truth = vec![set(&[5]), set(&[9]), set(&[100])];
        let s = score_rounds(&truth, &truth.clone());
        // 3 correct guesses x 10 bits each.
        assert!((s.leaked_bits(&layout) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn candidates_are_bank_resident() {
        let layout = BankLayout::new(16, 256);
        let c = candidate_buckets(&layout, 5);
        assert_eq!(c.len(), 16);
        assert!(c.iter().all(|&b| layout.bank_of(b) == 5));
    }

    #[test]
    fn mismatched_round_counts_truncate() {
        let truth = vec![set(&[1]), set(&[2])];
        let obs = vec![set(&[1])];
        let s = score_rounds(&truth, &obs);
        assert_eq!(s.true_positives, 1);
        assert_eq!(s.false_negatives, 0);
    }
}
