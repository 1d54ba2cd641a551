//! Per-process page tables and bank-aware physical frame allocation
//! ("memory massaging").
//!
//! The attacks require co-locating sender and receiver data in the same
//! DRAM banks; the paper does this with memory-massaging techniques
//! (§4.1, citing DRAMA/RAMBleed-style primitives). Here massaging is a
//! first-class allocator service:
//!
//! * [`FrameAllocator::alloc_row_in_bank`] — a whole DRAM row in a chosen
//!   bank (the PnM covert channel's unit of allocation);
//! * [`FrameAllocator::alloc_bank_stripe`] — a physically contiguous range
//!   spanning every bank once per "rotation" (the PuM source/destination
//!   range layout).

use impact_core::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use impact_core::config::DramGeometry;
use impact_core::cow::CowBox;
use impact_core::error::{Error, Result};
use impact_dram::RowInterleaved;

/// Second-level page-table fan-out: 512 slots per leaf, mirroring a real
/// radix page table's 9 bits per level.
const PT_LEAF_BITS: u64 = 9;
const PT_LEAF_LEN: usize = 1 << PT_LEAF_BITS;

/// A per-process virtual→physical page table.
///
/// Stored as a flat two-level radix array (a root vector of 512-entry
/// leaves) instead of a `HashMap`: `translate` sits on the critical path
/// of *every* simulated memory operation, and the radix walk is two
/// bounds-checked array reads with no hashing. Leaves hold `pfn + 1`, with
/// `0` marking an unmapped slot, so a leaf is a dense `u64` array.
///
/// The radix sits in a [`CowBox`] so forking a page table — part of an
/// engine fork — shares the mapping until either side maps a new page.
/// `translate` only reads; `map_page` pays the copy, and only while the
/// radix is shared.
#[derive(Debug)]
pub struct PageTable {
    leaves: CowBox<Vec<Option<Box<[u64; PT_LEAF_LEN]>>>>,
    next_vpn: u64,
}

impl Default for PageTable {
    fn default() -> PageTable {
        PageTable::new()
    }
}

impl PageTable {
    /// Creates an empty page table.
    #[must_use]
    pub fn new() -> PageTable {
        PageTable {
            leaves: CowBox::new(Vec::new()),
            next_vpn: 0x100, // skip the null region
        }
    }

    /// An independent copy that shares the radix until either side maps a
    /// page.
    #[must_use]
    pub fn fork(&mut self) -> PageTable {
        PageTable {
            leaves: self.leaves.fork(),
            next_vpn: self.next_vpn,
        }
    }

    /// Maps `vpn` to `pfn`, replacing any prior mapping.
    pub fn map_page(&mut self, vpn: u64, pfn: u64) {
        let hi = (vpn >> PT_LEAF_BITS) as usize;
        let lo = (vpn & (PT_LEAF_LEN as u64 - 1)) as usize;
        let leaves = self.leaves.to_mut();
        if hi >= leaves.len() {
            leaves.resize_with(hi + 1, || None);
        }
        let leaf = leaves[hi].get_or_insert_with(|| Box::new([0; PT_LEAF_LEN]));
        leaf[lo] = pfn + 1;
    }

    /// Translates a virtual address.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnmappedVirtualAddress`] if the page is not mapped.
    pub fn translate(&self, va: VirtAddr) -> Result<PhysAddr> {
        let vpn = va.page_number();
        let hi = (vpn >> PT_LEAF_BITS) as usize;
        let lo = (vpn & (PT_LEAF_LEN as u64 - 1)) as usize;
        let slot = match self.leaves.get(hi) {
            Some(Some(leaf)) => leaf[lo],
            _ => 0,
        };
        if slot == 0 {
            return Err(Error::UnmappedVirtualAddress { addr: va.0 });
        }
        Ok(PhysAddr((slot - 1) * PAGE_SIZE + va.page_offset()))
    }

    /// Reserves `pages` consecutive virtual pages, returning the base VA.
    pub fn reserve_vspace(&mut self, pages: u64) -> VirtAddr {
        let base = self.next_vpn;
        self.next_vpn += pages;
        VirtAddr(base * PAGE_SIZE)
    }
}

/// Bank-aware physical frame allocator over a row-interleaved device.
///
/// Rows are placed through [`RowInterleaved::compose`], the inverse of the
/// mapping the memory controller decodes addresses with. Per-bank
/// allocations hand out rows from the bottom of each bank; stripe
/// allocations hand out whole rotations (one row in every bank) from the
/// top half, so the two never collide.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    mapping: RowInterleaved,
    next_row_in_bank: Vec<u64>,
    next_stripe_row: u64,
}

impl FrameAllocator {
    /// Creates an allocator for the device geometry.
    #[must_use]
    pub fn new(geometry: DramGeometry) -> FrameAllocator {
        let banks = geometry.total_banks() as usize;
        FrameAllocator {
            mapping: RowInterleaved::new(geometry),
            next_row_in_bank: vec![0; banks],
            next_stripe_row: geometry.rows_per_bank / 2,
        }
    }

    /// Allocates one fresh row in `bank`, returning its physical base.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MassagingFailed`] when the bank's private region is
    /// exhausted.
    pub fn alloc_row_in_bank(&mut self, bank: usize) -> Result<PhysAddr> {
        let banks = u64::from(self.geometry().total_banks());
        if bank as u64 >= banks {
            return Err(Error::MassagingFailed(format!(
                "bank {bank} out of range ({banks} banks)"
            )));
        }
        let row = self.next_row_in_bank[bank];
        if row >= self.geometry().rows_per_bank / 2 {
            return Err(Error::MassagingFailed(format!(
                "bank {bank} private region exhausted"
            )));
        }
        self.next_row_in_bank[bank] = row + 1;
        Ok(self.mapping.compose(bank, row, 0))
    }

    /// Allocates `rotations` physically contiguous rotations (each rotation
    /// is one row in every bank, in flat-bank order), returning the base
    /// physical address. This is the layout IMPACT-PuM uses for its
    /// source/destination ranges: chunk `i` of a rotation lands in bank `i`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MassagingFailed`] when the stripe region is
    /// exhausted.
    pub fn alloc_bank_stripe(&mut self, rotations: u64) -> Result<PhysAddr> {
        let base_row = self.next_stripe_row;
        if base_row + rotations > self.geometry().rows_per_bank {
            return Err(Error::MassagingFailed("stripe region exhausted".into()));
        }
        self.next_stripe_row += rotations;
        Ok(self.mapping.compose(0, base_row, 0))
    }

    /// Geometry served by this allocator.
    #[must_use]
    pub fn geometry(&self) -> &DramGeometry {
        self.mapping.geometry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> DramGeometry {
        DramGeometry::paper_table2()
    }

    #[test]
    fn page_table_translate() {
        let mut pt = PageTable::new();
        pt.map_page(5, 42);
        let pa = pt.translate(VirtAddr(5 * PAGE_SIZE + 123)).unwrap();
        assert_eq!(pa, PhysAddr(42 * PAGE_SIZE + 123));
        assert!(pt.translate(VirtAddr(0)).is_err());
    }

    #[test]
    fn page_table_radix_edge_cases() {
        let mut pt = PageTable::new();
        // Remapping a page replaces the old frame.
        pt.map_page(5, 42);
        pt.map_page(5, 43);
        assert_eq!(
            pt.translate(VirtAddr(5 * PAGE_SIZE)).unwrap(),
            PhysAddr(43 * PAGE_SIZE)
        );
        // Physical frame 0 is a valid mapping target, and a new leaf
        // leaves the earlier mapping alone.
        pt.map_page(10_000, 0);
        assert_eq!(
            pt.translate(VirtAddr(10_000 * PAGE_SIZE)).unwrap(),
            PhysAddr(0)
        );
        assert_eq!(
            pt.translate(VirtAddr(5 * PAGE_SIZE)).unwrap(),
            PhysAddr(43 * PAGE_SIZE)
        );
        // Neighbors within the same leaf stay unmapped.
        assert!(pt.translate(VirtAddr(10_001 * PAGE_SIZE)).is_err());
        // VPNs far past every allocated leaf fail without allocating.
        assert!(pt.translate(VirtAddr(0xdead_b000)).is_err());
    }

    #[test]
    fn reserve_vspace_is_disjoint() {
        let mut pt = PageTable::new();
        let a = pt.reserve_vspace(4);
        let b = pt.reserve_vspace(4);
        assert_eq!(b.0 - a.0, 4 * PAGE_SIZE);
    }

    #[test]
    fn rows_land_in_requested_bank() {
        let mut fa = FrameAllocator::new(geo());
        let mapping = RowInterleaved::new(geo());
        for bank in 0..16usize {
            for _ in 0..4 {
                let pa = fa.alloc_row_in_bank(bank).unwrap();
                assert_eq!(mapping.flat_bank(pa), bank);
                assert_eq!(pa.0 % geo().row_bytes, 0);
            }
        }
    }

    #[test]
    fn rows_in_same_bank_are_distinct() {
        let mut fa = FrameAllocator::new(geo());
        let mapping = RowInterleaved::new(geo());
        let a = fa.alloc_row_in_bank(3).unwrap();
        let b = fa.alloc_row_in_bank(3).unwrap();
        assert_ne!(mapping.locate(a).1, mapping.locate(b).1);
    }

    #[test]
    fn stripe_spans_every_bank_in_order() {
        let mut fa = FrameAllocator::new(geo());
        let mapping = RowInterleaved::new(geo());
        let base = fa.alloc_bank_stripe(2).unwrap();
        for i in 0..32u64 {
            let pa = PhysAddr(base.0 + i * geo().row_bytes);
            assert_eq!(mapping.flat_bank(pa), (i % 16) as usize);
        }
    }

    #[test]
    fn stripe_and_bank_regions_disjoint() {
        let mut fa = FrameAllocator::new(geo());
        let mapping = RowInterleaved::new(geo());
        let stripe = fa.alloc_bank_stripe(1).unwrap();
        let row = fa.alloc_row_in_bank(0).unwrap();
        assert_ne!(mapping.locate(stripe).1, mapping.locate(row).1);
    }

    #[test]
    fn exhaustion_errors() {
        let mut small = geo();
        small.rows_per_bank = 4;
        let mut fa = FrameAllocator::new(small);
        fa.alloc_row_in_bank(0).unwrap();
        fa.alloc_row_in_bank(0).unwrap();
        assert!(matches!(
            fa.alloc_row_in_bank(0),
            Err(Error::MassagingFailed(_))
        ));
        fa.alloc_bank_stripe(2).unwrap();
        assert!(matches!(
            fa.alloc_bank_stripe(1),
            Err(Error::MassagingFailed(_))
        ));
    }
}
