//! Deterministic, dependency-free hashing used across the workspace:
//! FNV-1a folds for content digests (trace response digests, configuration
//! fingerprints, DRAM state digests).
//!
//! Everything here is fully deterministic across runs, platforms and
//! processes — a digest computed on one machine is comparable bit-for-bit
//! with one computed on another, which is what makes digests meaningful
//! inside portable trace files.
//!
//! Every digest folds each `u64` word as its 8 little-endian bytes, but
//! [`fnv1a_u64`] runs the byte loop only over the word's significant low
//! bytes. Its high zero bytes come last in little-endian order, and
//! folding a zero byte is a bare multiply by the FNV prime
//! (`(h ^ 0) · P = h · P`). Wrapping multiplication is associative, so
//! those trailing steps collapse into one multiply by a power of the
//! prime, and the digest keeps its value bit for bit. Most words the
//! simulator folds (banks, row-buffer classes, latencies) are one or two
//! bytes wide.

/// FNV-1a 64-bit offset basis: the initial accumulator for every digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME_POW[k]` is `FNV_PRIME^k` (wrapping): folding `k` zero bytes
/// into an accumulator multiplies it by this.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Folds one byte into an FNV-1a accumulator.
#[inline]
#[must_use]
pub fn fnv1a_u8(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// Folds a `u64` (little-endian bytes) into an FNV-1a accumulator.
///
/// Equal to [`fnv1a_bytes`] over `value.to_le_bytes()`, but only the
/// significant low bytes take the byte loop. The high zero bytes fold last
/// and each is a plain multiply by the prime, so together they are one
/// multiply by the prime's matching power.
#[inline]
#[must_use]
pub fn fnv1a_u64(mut hash: u64, value: u64) -> u64 {
    let len = (71 - value.leading_zeros() as usize) / 8;
    for &byte in &value.to_le_bytes()[..len] {
        hash = fnv1a_u8(hash, byte);
    }
    hash.wrapping_mul(FNV_PRIME_POW[8 - len])
}

/// Folds a byte slice into an FNV-1a accumulator.
#[must_use]
pub fn fnv1a_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash = fnv1a_u8(hash, byte);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a_bytes(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_bytes(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_bytes(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_u64_equals_byte_fold() {
        // Every significant length from 0 to 8 bytes, at both ends of each
        // length's range.
        let mut values = vec![0, 1, 0xff, 0x100, 0x0123_4567_89ab_cdef, u64::MAX];
        for k in 1..64 {
            values.push((1u64 << k) - 1);
            values.push(1u64 << k);
        }
        for v in values {
            assert_eq!(
                fnv1a_u64(FNV_OFFSET, v),
                fnv1a_bytes(FNV_OFFSET, &v.to_le_bytes()),
                "value {v:#x}"
            );
        }
    }

    #[test]
    fn prime_powers_fold_zero_bytes() {
        let start: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut hash = start;
        for (k, &pow) in FNV_PRIME_POW.iter().enumerate() {
            assert_eq!(start.wrapping_mul(pow), hash, "{k} zero bytes");
            hash = fnv1a_u8(hash, 0);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The significant-byte fold equals the plain fold over all 8
        /// bytes; the shift makes every significant length occur.
        #[test]
        fn fnv_u64_equals_byte_fold_for_any_width(
            hash in 0u64..u64::MAX,
            value in 0u64..u64::MAX,
            shift in 0u32..64,
        ) {
            let v = value >> shift;
            prop_assert_eq!(fnv1a_u64(hash, v), fnv1a_bytes(hash, &v.to_le_bytes()));
        }
    }
}
