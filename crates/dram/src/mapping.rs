//! Physical-address → DRAM-coordinate mapping schemes.
//!
//! Modern controllers interleave consecutive memory chunks across banks to
//! exploit bank-level parallelism (§4.3 of the paper cites this to justify
//! the hash table spanning banks). Two schemes are provided:
//!
//! * [`RowInterleaved`] — consecutive cache lines fill a row, then move to
//!   the next bank (row:bank:column split).
//! * [`BankInterleavedXor`] — like row-interleaved but the bank index is
//!   XOR-hashed with low row bits to spread conflict patterns, as in many
//!   real controllers (and as exploited by DRAMA-style reverse engineering).

use impact_core::addr::{DramCoord, PhysAddr};
use impact_core::config::DramGeometry;

/// Maps physical addresses to DRAM coordinates.
///
/// Implementations must be pure: the same address always maps to the same
/// coordinate.
pub trait AddressMapping: Send + Sync {
    /// Maps a physical address to device coordinates.
    fn map(&self, addr: PhysAddr) -> DramCoord;

    /// Flat bank index for an address (convenience).
    fn flat_bank(&self, addr: PhysAddr) -> usize;

    /// `(flat bank, row)` of an address in one decomposition — the pair
    /// the memory controller needs on every access. Implementations
    /// should override this when they can split the address once instead
    /// of twice.
    fn locate(&self, addr: PhysAddr) -> (usize, u64) {
        (self.flat_bank(addr), self.map(addr).row)
    }

    /// Inverse mapping used by memory massaging: returns a physical address
    /// that lands in `bank` (flat index) at `row` with byte `column`.
    fn compose(&self, bank: usize, row: u64, column: u32) -> PhysAddr;

    /// The geometry this mapping was built for.
    fn geometry(&self) -> &DramGeometry;

    /// Clones the mapping behind a fresh box. Mappings are pure, so the
    /// clone is interchangeable with the original; forking a controller
    /// duplicates its mapping through this hook.
    fn clone_box(&self) -> Box<dyn AddressMapping>;
}

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
}

impl AddressMapping for RowInterleaved {
    fn map(&self, addr: PhysAddr) -> DramCoord {
        let (row, bank, column) = self.split(addr);
        coord_from_flat(&self.geometry, bank, row, column)
    }

    fn flat_bank(&self, addr: PhysAddr) -> usize {
        self.split(addr).1
    }

    fn locate(&self, addr: PhysAddr) -> (usize, u64) {
        let (row, bank, _) = self.split(addr);
        (bank, row)
    }

    fn compose(&self, bank: usize, row: u64, column: u32) -> PhysAddr {
        let banks = u64::from(self.geometry.total_banks());
        debug_assert!((bank as u64) < banks);
        debug_assert!(u64::from(column) < self.geometry.row_bytes);
        PhysAddr((row * banks + bank as u64) * self.geometry.row_bytes + u64::from(column))
    }

    fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    fn clone_box(&self) -> Box<dyn AddressMapping> {
        Box::new(self.clone())
    }
}

/// Row-interleaved mapping with the bank index XOR-hashed against low row
/// bits, emulating controller bank hashing.
#[derive(Debug, Clone)]
pub struct BankInterleavedXor {
    geometry: DramGeometry,
    bank_mask: u64,
    pow2: Option<Pow2Split>,
}

impl BankInterleavedXor {
    /// Creates the mapping; the bank count must be a power of two for the
    /// XOR hash to be a bijection.
    ///
    /// # Panics
    ///
    /// Panics if the total bank count is not a power of two.
    #[must_use]
    pub fn new(geometry: DramGeometry) -> BankInterleavedXor {
        let banks = u64::from(geometry.total_banks());
        assert!(
            banks.is_power_of_two(),
            "XOR bank hashing requires a power-of-two bank count, got {banks}"
        );
        let pow2 = Pow2Split::for_geometry(&geometry);
        BankInterleavedXor {
            geometry,
            bank_mask: banks - 1,
            pow2,
        }
    }

    fn split(&self, addr: PhysAddr) -> (u64, usize, u32) {
        if let Some(p) = self.pow2 {
            let (row, raw_bank, column) = p.split(addr.0);
            let bank = (raw_bank ^ (row & self.bank_mask)) & self.bank_mask;
            // analyze::allow(lossy-cast): bank <= bank_mask < total_banks
            return (row, bank as usize, column);
        }
        let row_bytes = self.geometry.row_bytes;
        let banks = u64::from(self.geometry.total_banks());
        let chunk = addr.0 / row_bytes;
        // analyze::allow(lossy-cast): column < row_bytes (8 KiB rows; any
        // plausible geometry keeps row sizes far below 2^32)
        let column = (addr.0 % row_bytes) as u32;
        let raw_bank = chunk % banks;
        let row = chunk / banks;
        let bank = (raw_bank ^ (row & self.bank_mask)) & self.bank_mask;
        (row, bank as usize, column)
    }
}

impl AddressMapping for BankInterleavedXor {
    fn map(&self, addr: PhysAddr) -> DramCoord {
        let (row, bank, column) = self.split(addr);
        coord_from_flat(&self.geometry, bank, row, column)
    }

    fn flat_bank(&self, addr: PhysAddr) -> usize {
        self.split(addr).1
    }

    fn locate(&self, addr: PhysAddr) -> (usize, u64) {
        let (row, bank, _) = self.split(addr);
        (bank, row)
    }

    fn compose(&self, bank: usize, row: u64, column: u32) -> PhysAddr {
        let banks = u64::from(self.geometry.total_banks());
        debug_assert!((bank as u64) < banks);
        // Invert the XOR hash: raw_bank = bank ^ (row & mask).
        let raw_bank = (bank as u64 ^ (row & self.bank_mask)) & self.bank_mask;
        PhysAddr((row * banks + raw_bank) * self.geometry.row_bytes + u64::from(column))
    }

    fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    fn clone_box(&self) -> Box<dyn AddressMapping> {
        Box::new(self.clone())
    }
}

fn coord_from_flat(geometry: &DramGeometry, flat_bank: usize, row: u64, column: u32) -> DramCoord {
    let banks_per_group = geometry.banks_per_group;
    let groups = geometry.bank_groups_per_rank;
    let per_rank = banks_per_group * groups;
    let per_channel = per_rank * geometry.ranks_per_channel;
    // analyze::allow(lossy-cast): flat_bank < total_banks, which is a u32
    // product by construction (DramGeometry::total_banks)
    let fb = flat_bank as u32;
    DramCoord {
        channel: fb / per_channel,
        rank: (fb % per_channel) / per_rank,
        bank_group: (fb % per_rank) / banks_per_group,
        bank: fb % banks_per_group,
        row,
        column,
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
                let c = m.map(a);
                assert_eq!(m.flat_bank(a), bank);
                assert_eq!(c.row, row);
                assert_eq!(c.column, 128);
            }
        }
    }

    #[test]
    fn xor_mapping_is_bijective_over_banks() {
        let m = BankInterleavedXor::new(geo());
        let row_bytes = geo().row_bytes;
        for row in 0..4u64 {
            let mut seen = [false; 16];
            for b in 0..16u64 {
                let addr = PhysAddr((row * 16 + b) * row_bytes);
                let bank = m.flat_bank(addr);
                assert!(!seen[bank], "bank {bank} mapped twice in row {row}");
                seen[bank] = true;
            }
        }
    }

    #[test]
    fn xor_compose_roundtrip() {
        let m = BankInterleavedXor::new(geo());
        for bank in 0..16usize {
            for row in [0u64, 3, 255] {
                let a = m.compose(bank, row, 0);
                assert_eq!(m.flat_bank(a), bank, "row {row} bank {bank}");
                assert_eq!(m.map(a).row, row);
            }
        }
    }

    #[test]
    fn coords_within_geometry() {
        let m = RowInterleaved::new(geo());
        let c = m.map(PhysAddr(123_456_789));
        assert!(c.channel < geo().channels);
        assert!(c.rank < geo().ranks_per_channel);
        assert!(c.bank_group < geo().bank_groups_per_rank);
        assert!(c.bank < geo().banks_per_group);
        assert!(u64::from(c.column) < geo().row_bytes);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn xor_rejects_non_pow2() {
        let mut g = geo();
        g.bank_groups_per_rank = 3;
        let _ = BankInterleavedXor::new(g);
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

    #[test]
    fn flat_bank_agrees_with_coord() {
        let m = RowInterleaved::new(geo());
        let g = geo();
        for i in (0..200u64).map(|i| i * 4096 + 64) {
            let a = PhysAddr(i);
            let c = m.map(a);
            assert_eq!(
                c.flat_bank(
                    g.banks_per_group,
                    g.bank_groups_per_rank,
                    g.ranks_per_channel
                ),
                m.flat_bank(a)
            );
        }
    }
}
