//! Physical and virtual addresses and page arithmetic.
//!
//! The simulator uses 4 KiB pages and 64-byte cache lines throughout, as in
//! the paper's simulated system (Table 2).

use core::fmt;
use core::ops::Add;

/// Size of a small page in bytes.
pub const PAGE_SIZE: u64 = 4096;
/// Size of a cache line in bytes.
pub const LINE_SIZE: u64 = 64;

/// A physical memory address.
///
/// # Example
///
/// ```
/// use impact_core::addr::{PhysAddr, LINE_SIZE};
///
/// let a = PhysAddr(0x1234);
/// assert_eq!(a.line_aligned().0 % LINE_SIZE, 0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Rounds the address down to its cache-line base.
    #[must_use]
    pub fn line_aligned(self) -> PhysAddr {
        PhysAddr(self.0 & !(LINE_SIZE - 1))
    }

    /// The physical frame number of this address.
    #[must_use]
    pub fn frame_number(self) -> u64 {
        self.0 / PAGE_SIZE
    }

    /// The byte offset within the page.
    #[must_use]
    pub fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// The cache-line index within the whole physical address space.
    #[must_use]
    pub fn line_number(self) -> u64 {
        self.0 / LINE_SIZE
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa:{:#x}", self.0)
    }
}

impl Add<u64> for PhysAddr {
    type Output = PhysAddr;
    fn add(self, rhs: u64) -> PhysAddr {
        PhysAddr(self.0 + rhs)
    }
}

/// A virtual memory address, private to a simulated process.
///
/// # Example
///
/// ```
/// use impact_core::addr::{VirtAddr, PAGE_SIZE};
///
/// let v = VirtAddr(3 * PAGE_SIZE + 17);
/// assert_eq!(v.page_number(), 3);
/// assert_eq!(v.page_offset(), 17);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// The virtual page number of this address.
    #[must_use]
    pub fn page_number(self) -> u64 {
        self.0 / PAGE_SIZE
    }

    /// The byte offset within the page.
    #[must_use]
    pub fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// Rounds the address down to its cache-line base.
    #[must_use]
    pub fn line_aligned(self) -> VirtAddr {
        VirtAddr(self.0 & !(LINE_SIZE - 1))
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

impl Add<u64> for VirtAddr {
    type Output = VirtAddr;
    fn add(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0 + rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_alignment() {
        let a = PhysAddr(0x1fff);
        assert_eq!(a.line_aligned(), PhysAddr(0x1fc0));
        assert_eq!(a.frame_number(), 1);
        assert_eq!(a.page_offset(), 0xfff);
    }

    #[test]
    fn virt_pages() {
        let v = VirtAddr(2 * PAGE_SIZE + 100);
        assert_eq!(v.page_number(), 2);
        assert_eq!(v.page_offset(), 100);
    }

    #[test]
    fn line_numbers_monotone() {
        assert_eq!(PhysAddr(0).line_number(), 0);
        assert_eq!(PhysAddr(63).line_number(), 0);
        assert_eq!(PhysAddr(64).line_number(), 1);
    }

    #[test]
    fn addr_add() {
        assert_eq!(PhysAddr(10) + 5, PhysAddr(15));
        assert_eq!(VirtAddr(10) + 5, VirtAddr(15));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", PhysAddr(0x40)), "pa:0x40");
        assert_eq!(format!("{}", VirtAddr(0x40)), "va:0x40");
    }
}
