//! Physical-address → DRAM (bank, row) mapping.
//!
//! Modern controllers interleave consecutive memory chunks across banks to
//! exploit bank-level parallelism (§4.3 of the paper cites this to justify
//! the hash table spanning banks). The simulated controller uses one
//! scheme, [`RowInterleaved`]: consecutive cache lines fill a row, then
//! move to the next bank (row:bank:column split). The attacker knows it —
//! memory massaging places rows through [`RowInterleaved::compose`].
//!
//! The row size and the bank count are powers of two
//! ([`RowInterleaved::new`] checks), as in every paper geometry (8 KiB
//! rows, 16–8192 banks), so an address splits into bank and row by shifts
//! and a mask alone.

use impact_core::addr::PhysAddr;
use impact_core::config::DramGeometry;

/// Row-interleaved mapping: `addr = ((row * banks + bank) * row_bytes) + col`.
///
/// Consecutive rows-worth of addresses rotate across banks, so a contiguous
/// buffer of `banks * row_bytes` bytes touches every bank once — the layout
/// IMPACT-PuM assumes for its source/destination ranges.
#[derive(Debug, Clone)]
pub struct RowInterleaved {
    geometry: DramGeometry,
    /// `log2(row_bytes)`.
    row_shift: u32,
    /// `log2(total_banks)`.
    bank_shift: u32,
}

impl RowInterleaved {
    /// Creates the mapping for a geometry.
    ///
    /// # Panics
    ///
    /// Panics if the row size or the total bank count is not a power of
    /// two.
    #[must_use]
    pub fn new(geometry: DramGeometry) -> RowInterleaved {
        let banks = geometry.total_banks();
        assert!(
            geometry.row_bytes.is_power_of_two() && banks.is_power_of_two(),
            "row size ({}) and bank count ({banks}) must be powers of two",
            geometry.row_bytes
        );
        RowInterleaved {
            geometry,
            row_shift: geometry.row_bytes.trailing_zeros(),
            bank_shift: banks.trailing_zeros(),
        }
    }

    /// Flat bank index of an address.
    #[must_use]
    pub fn flat_bank(&self, addr: PhysAddr) -> usize {
        self.locate(addr).0
    }

    /// `(flat bank, row)` of an address in one decomposition — the pair
    /// the memory controller needs on every access.
    #[inline]
    #[must_use]
    pub fn locate(&self, addr: PhysAddr) -> (usize, u64) {
        let chunk = addr.0 >> self.row_shift;
        let bank = chunk & !(u64::MAX << self.bank_shift);
        // analyze::allow(lossy-cast): bank < total_banks, a u32
        (bank as usize, chunk >> self.bank_shift)
    }

    /// Inverse mapping used by memory massaging: the physical address that
    /// lands in `bank` (flat index) at `row` with byte `column`.
    #[must_use]
    pub fn compose(&self, bank: usize, row: u64, column: u32) -> PhysAddr {
        let banks = u64::from(self.geometry.total_banks());
        debug_assert!((bank as u64) < banks);
        debug_assert!(u64::from(column) < self.geometry.row_bytes);
        PhysAddr((row * banks + bank as u64) * self.geometry.row_bytes + u64::from(column))
    }

    /// The geometry this mapping was built for.
    #[must_use]
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> DramGeometry {
        DramGeometry::paper_table2()
    }

    #[test]
    fn row_interleaved_rotates_banks() {
        let m = RowInterleaved::new(geo());
        let row_bytes = geo().row_bytes;
        for i in 0..16u64 {
            assert_eq!(m.flat_bank(PhysAddr(i * row_bytes)), i as usize);
        }
        // Wraps to bank 0 on the next row.
        assert_eq!(m.flat_bank(PhysAddr(16 * row_bytes)), 0);
    }

    #[test]
    fn row_interleaved_compose_roundtrip() {
        let m = RowInterleaved::new(geo());
        for bank in 0..16usize {
            for row in [0u64, 1, 77, 65535] {
                let a = m.compose(bank, row, 128);
                assert_eq!(m.flat_bank(a), bank);
                assert_eq!(m.locate(a), (bank, row));
                assert_eq!(a.0 % geo().row_bytes, 128);
            }
        }
    }

    #[test]
    fn split_matches_the_division_formula() {
        let g = geo();
        let m = RowInterleaved::new(g);
        let banks = u64::from(g.total_banks());
        for addr in (0..500u64).map(|i| i * 9973 + 7) {
            let chunk = addr / g.row_bytes;
            let expect = ((chunk % banks) as usize, chunk / banks);
            assert_eq!(m.locate(PhysAddr(addr)), expect, "addr {addr}");
        }
    }

    #[test]
    #[should_panic(expected = "must be powers of two")]
    fn twelve_banks_are_rejected() {
        let mut twelve = geo();
        twelve.bank_groups_per_rank = 3;
        let _ = RowInterleaved::new(twelve);
    }
}
