//! Scoring of leaked information: completion-attack style evaluation.
//!
//! The paper measures side-channel throughput "based on the correct guesses
//! of the hash table entries accessed" and error rate from incorrect
//! guesses (§6.3); the end-to-end genome reconstruction (imputation) is
//! delegated to prior work. We reproduce that accounting: the side channel
//! (`impact-attacks`) scores each of its probes against ground truth as it
//! runs it, a detected bank against whether the victim touched it, and
//! accumulates a [`LeakScore`].

use crate::index::BankLayout;

/// Outcome of scoring leaked observations against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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

    #[test]
    fn error_rate_is_the_wrong_share_of_guesses() {
        assert_eq!(LeakScore::default().error_rate(), 0.0);
        let s = LeakScore {
            true_positives: 2,
            false_positives: 1,
            false_negatives: 2,
        };
        // Misses are not guesses.
        assert!((s.error_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn leaked_bits_match_layout_resolution() {
        let layout = BankLayout::new(1024, 16384);
        let s = LeakScore {
            true_positives: 3,
            false_positives: 4,
            false_negatives: 5,
        };
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
}
