//! Deterministic population histograms.
//!
//! They bucket as the `impact-obs` telemetry histograms do, through the
//! same [`bucket_index`] and [`bucket_lower_bound`] — power-of-two
//! buckets by bit length, bucket 0 for zeros, an explicit overflow count
//! for samples past the top bucket — but keep plain `u64` fields.
//! Telemetry histograms are best-effort observability and excluded from
//! the determinism contract; these histograms ARE the fleet's aggregate
//! result, so they live in deterministic code, fold into the population
//! digest, and render into the canonical JSON that CI byte-compares
//! across worker counts.

use impact_core::hash::fnv1a_u64;
use impact_obs::{bucket_index, bucket_lower_bound, HistogramSnapshot, BUCKETS};

/// A deterministic histogram over `u64` samples: bucket `i` counts
/// samples of bit length `i` (bucket 0 counts zeros); samples of bit
/// length ≥ [`BUCKETS`] land in the explicit `overflow` count, never in
/// the top bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopHistogram {
    /// Total samples recorded, bucketed and overflowed alike.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Samples whose bit length exceeded the bucket range.
    pub overflow: u64,
    buckets: [u64; BUCKETS],
}

impl Default for PopHistogram {
    fn default() -> PopHistogram {
        PopHistogram {
            count: 0,
            sum: 0,
            overflow: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl PopHistogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        match bucket_index(value) {
            Some(i) => self.buckets[i] += 1,
            None => self.overflow += 1,
        }
    }

    /// Occupied buckets as `(lower_bound, count)` pairs, ascending.
    #[must_use]
    pub fn occupied(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_lower_bound(i), n))
            .collect()
    }

    /// Canonical JSON object, byte-stable for identical contents: the
    /// obs histogram schema, written by [`HistogramSnapshot::to_json`].
    #[must_use]
    pub fn to_json(&self) -> String {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            overflow: self.overflow,
            buckets: self.occupied(),
        }
        .to_json()
    }

    /// Folds the histogram's full state into an FNV-1a accumulator.
    #[must_use]
    pub fn fold_digest(&self, mut digest: u64) -> u64 {
        digest = fnv1a_u64(digest, self.count);
        digest = fnv1a_u64(digest, self.sum);
        digest = fnv1a_u64(digest, self.overflow);
        for &n in &self.buckets {
            digest = fnv1a_u64(digest, n);
        }
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_bit_length_with_explicit_overflow() {
        let mut h = PopHistogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(bucket_lower_bound(BUCKETS - 1)); // top bucket
        h.record(u64::MAX); // past the range: overflow, not top
        assert_eq!(h.count, 6);
        assert_eq!(h.overflow, 1);
        assert_eq!(
            h.occupied(),
            vec![(0, 1), (1, 1), (2, 2), (bucket_lower_bound(BUCKETS - 1), 1)]
        );
    }

    #[test]
    fn json_is_canonical() {
        let mut h = PopHistogram::default();
        h.record(5);
        h.record(u64::MAX);
        assert_eq!(
            h.to_json(),
            format!(
                "{{\"count\": 2, \"sum\": {}, \"overflow\": 1, \"buckets\": [[4, 1]]}}",
                5u64.saturating_add(u64::MAX)
            )
        );
    }

    #[test]
    fn digest_covers_every_field() {
        let mut a = PopHistogram::default();
        let mut b = PopHistogram::default();
        a.record(7);
        b.record(7);
        assert_eq!(a.fold_digest(1), b.fold_digest(1));
        b.record(u64::MAX);
        assert_ne!(a.fold_digest(1), b.fold_digest(1));
    }
}
