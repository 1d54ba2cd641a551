//! RowClone, the PuM substrate (Seshadri et al., MICRO'13).
//!
//! Userspace issues one request carrying a source range, a destination
//! range and a bank mask; the chunk for mask bit `i` is
//! `base + i * row_bytes`, which under the row-interleaved mapping places
//! consecutive chunks in consecutive banks — the layout the IMPACT-PuM
//! sender allocates. The memory controller
//! (`impact_memctrl::MemoryController::service`) validates the request
//! and fans it out into parallel per-bank Fast-Parallel-Mode copies (§4.2
//! / Listing 2 of the paper); this module only builds masks.

/// Builds a bank mask from per-bank bits (bit `i` of the result = `bits[i]`).
///
/// # Panics
///
/// Panics if more than 64 bits are supplied.
///
/// # Example
///
/// ```
/// use impact_pim::mask_from_bits;
///
/// assert_eq!(mask_from_bits(&[true, false, true, true]), 0b1101);
/// ```
#[must_use]
pub fn mask_from_bits(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64, "mask limited to 64 banks per request");
    bits.iter()
        .enumerate()
        .fold(0u64, |m, (i, &b)| if b { m | (1 << i) } else { m })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_builder() {
        assert_eq!(mask_from_bits(&[]), 0);
        assert_eq!(mask_from_bits(&[true; 16]), 0xFFFF);
        assert_eq!(mask_from_bits(&[false, true]), 0b10);
    }

    #[test]
    #[should_panic(expected = "64 banks")]
    fn mask_builder_rejects_over_64() {
        let _ = mask_from_bits(&[false; 65]);
    }
}
