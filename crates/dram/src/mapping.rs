//! Physical-address → DRAM (bank, row) mapping.
//!
//! Modern controllers interleave consecutive memory chunks across banks to
//! exploit bank-level parallelism (§4.3 of the paper cites this to justify
//! the hash table spanning banks). The simulated controller uses one
//! scheme, [`RowInterleaved`]: consecutive cache lines fill a row, then
//! move to the next bank (row:bank:column split). The attacker knows it —
//! memory massaging places rows through [`RowInterleaved::compose`].

use impact_core::addr::PhysAddr;
use impact_core::config::DramGeometry;

/// Precomputed shift/mask split for power-of-two geometries: replaces the
/// two `u64` divisions of the generic `chunk = addr / row_bytes;
/// bank = chunk % banks; row = chunk / banks` decomposition with shifts —
/// the difference between ~40 and ~2 cycles in the `locate` every
/// controller access makes. Every paper geometry (8 KiB rows, 16–8192
/// banks) is power-of-two on both axes.
#[derive(Debug, Clone, Copy)]
struct Pow2Split {
    /// `log2(row_bytes)`.
    row_shift: u32,
    /// `row_bytes - 1`.
    column_mask: u64,
    /// `log2(total_banks)`.
    bank_shift: u32,
    /// `total_banks - 1`.
    bank_mask: u64,
}

impl Pow2Split {
    fn for_geometry(geometry: &DramGeometry) -> Option<Pow2Split> {
        let banks = u64::from(geometry.total_banks());
        let row_bytes = geometry.row_bytes;
        (row_bytes.is_power_of_two() && banks.is_power_of_two()).then(|| Pow2Split {
            row_shift: row_bytes.trailing_zeros(),
            column_mask: row_bytes - 1,
            bank_shift: banks.trailing_zeros(),
            bank_mask: banks - 1,
        })
    }

    /// `(row, raw bank, column)` of an address, shifts and masks only.
    #[inline]
    fn split(self, addr: u64) -> (u64, u64, u32) {
        let chunk = addr >> self.row_shift;
        // analyze::allow(lossy-cast): column < row_bytes (8 KiB rows; any
        // plausible geometry keeps row sizes far below 2^32)
        let column = (addr & self.column_mask) as u32;
        (chunk >> self.bank_shift, chunk & self.bank_mask, column)
    }
}

/// Row-interleaved mapping: `addr = ((row * banks + bank) * row_bytes) + col`.
///
/// Consecutive rows-worth of addresses rotate across banks, so a contiguous
/// buffer of `banks * row_bytes` bytes touches every bank once — the layout
/// IMPACT-PuM assumes for its source/destination ranges.
#[derive(Debug, Clone)]
pub struct RowInterleaved {
    geometry: DramGeometry,
    pow2: Option<Pow2Split>,
}

impl RowInterleaved {
    /// Creates the mapping for a geometry.
    #[must_use]
    pub fn new(geometry: DramGeometry) -> RowInterleaved {
        let pow2 = Pow2Split::for_geometry(&geometry);
        RowInterleaved { geometry, pow2 }
    }

    #[inline]
    fn split(&self, addr: PhysAddr) -> (u64, usize, u32) {
        if let Some(p) = self.pow2 {
            let (row, bank, column) = p.split(addr.0);
            // analyze::allow(lossy-cast): bank <= bank_mask < total_banks
            return (row, bank as usize, column);
        }
        let row_bytes = self.geometry.row_bytes;
        let banks = u64::from(self.geometry.total_banks());
        let chunk = addr.0 / row_bytes;
        // analyze::allow(lossy-cast): column < row_bytes (8 KiB rows; any
        // plausible geometry keeps row sizes far below 2^32)
        let column = (addr.0 % row_bytes) as u32;
        let bank = (chunk % banks) as usize;
        let row = chunk / banks;
        (row, bank, column)
    }

    /// Flat bank index of an address.
    #[must_use]
    pub fn flat_bank(&self, addr: PhysAddr) -> usize {
        self.split(addr).1
    }

    /// `(flat bank, row)` of an address in one decomposition — the pair
    /// the memory controller needs on every access.
    #[inline]
    #[must_use]
    pub fn locate(&self, addr: PhysAddr) -> (usize, u64) {
        let (row, bank, _) = self.split(addr);
        (bank, row)
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
    fn pow2_split_matches_division() {
        let g = geo();
        let p = Pow2Split::for_geometry(&g).expect("paper geometry is pow2");
        let banks = u64::from(g.total_banks());
        for addr in (0..500u64).map(|i| i * 9973 + 7) {
            let chunk = addr / g.row_bytes;
            let expect = (chunk / banks, chunk % banks, (addr % g.row_bytes) as u32);
            assert_eq!(p.split(addr), expect, "addr {addr}");
        }
        let mut odd = g;
        odd.bank_groups_per_rank = 3;
        assert!(Pow2Split::for_geometry(&odd).is_none());
    }
}
