//! Memory traces emitted by workload kernels.
//!
//! A trace records the data-structure accesses of a kernel as offsets into
//! a flat virtual footprint, with an estimate of the compute cycles between
//! consecutive accesses. Array regions are laid out by a [`TraceBuilder`]
//! so that different structures (offsets, edges, property arrays, lookup
//! tables) live at disjoint, page-aligned regions — giving the replayed
//! trace realistic cache/row-buffer locality per structure.

use impact_core::addr::PAGE_SIZE;

/// Kind of memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read.
    Load,
    /// Write.
    Store,
}

/// One traced operation: a byte offset into the workload footprint.
///
/// Eight bytes: the offset is 32 bits wide, since [`TraceBuilder`]
/// refuses a footprint past 4 GiB (the largest kernel's is about 4.3 MB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Byte offset within the workload's flat footprint.
    pub offset: u32,
    /// Load or store.
    pub kind: OpKind,
    /// Compute cycles between the previous access and this one.
    pub gap: u16,
}

/// A kernel's memory trace plus its total footprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    ops: Vec<MemOp>,
    footprint: u64,
}

impl Trace {
    /// The traced operations.
    #[must_use]
    pub fn ops(&self) -> &[MemOp] {
        &self.ops
    }

    /// Footprint in bytes (max offset rounded up to a page).
    #[must_use]
    pub fn footprint(&self) -> u64 {
        self.footprint
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Truncates the trace to at most `n` operations (for fast replay
    /// sweeps).
    pub fn truncate(&mut self, n: usize) {
        self.ops.truncate(n);
    }
}

/// Builds traces with named, page-aligned array regions.
#[derive(Debug, Default, Clone)]
pub struct TraceBuilder {
    ops: Vec<MemOp>,
    next_region: u64,
}

impl TraceBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// Reserves a region of `bytes` bytes, returning its base offset.
    ///
    /// # Panics
    ///
    /// Panics if the region would end past offset `u32::MAX`: a
    /// [`MemOp`] offset is 32 bits wide.
    pub fn region(&mut self, bytes: u64) -> u64 {
        let base = self.next_region;
        let pages = bytes.div_ceil(PAGE_SIZE).max(1);
        self.next_region = base.saturating_add(pages.saturating_mul(PAGE_SIZE));
        assert!(
            self.next_region <= 1 << 32,
            "a {bytes}-byte region at offset {base} ends past the 4 GiB a trace can address"
        );
        base
    }

    /// Records a load of `bytes`-sized element `index` in the region at
    /// `base`, with `gap` compute cycles beforehand.
    pub fn load(&mut self, base: u64, index: u64, elem_bytes: u64, gap: u16) {
        self.push(base + index * elem_bytes, OpKind::Load, gap);
    }

    /// Records a store, as [`TraceBuilder::load`].
    pub fn store(&mut self, base: u64, index: u64, elem_bytes: u64, gap: u16) {
        self.push(base + index * elem_bytes, OpKind::Store, gap);
    }

    fn push(&mut self, offset: u64, kind: OpKind, gap: u16) {
        let offset = u32::try_from(offset).expect("offsets stay inside the 4 GiB of regions");
        self.ops.push(MemOp { offset, kind, gap });
    }

    /// Finalizes the trace, releasing the builder's spare capacity.
    #[must_use]
    pub fn finish(mut self) -> Trace {
        self.ops.shrink_to_fit();
        Trace {
            footprint: self.next_region.max(PAGE_SIZE),
            ops: self.ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_page_aligned_and_disjoint() {
        let mut b = TraceBuilder::new();
        let r1 = b.region(100);
        let r2 = b.region(5000);
        let r3 = b.region(1);
        assert_eq!(r1 % PAGE_SIZE, 0);
        assert_eq!(r2 % PAGE_SIZE, 0);
        assert!(r2 >= r1 + PAGE_SIZE);
        assert!(r3 >= r2 + 5000);
    }

    #[test]
    fn ops_record_offsets() {
        let mut b = TraceBuilder::new();
        let base = b.region(1024);
        b.load(base, 3, 8, 5);
        b.store(base, 0, 8, 1);
        let t = b.finish();
        assert_eq!(t.len(), 2);
        assert_eq!(u64::from(t.ops()[0].offset), base + 24);
        assert_eq!(t.ops()[0].kind, OpKind::Load);
        assert_eq!(t.ops()[1].kind, OpKind::Store);
    }

    #[test]
    fn footprint_covers_regions() {
        let mut b = TraceBuilder::new();
        b.region(PAGE_SIZE * 3);
        b.region(10);
        let t = b.finish();
        assert_eq!(t.footprint(), PAGE_SIZE * 4);
    }

    #[test]
    fn truncate_limits_ops() {
        let mut b = TraceBuilder::new();
        let base = b.region(4096);
        for i in 0..100 {
            b.load(base, i, 8, 0);
        }
        let mut t = b.finish();
        t.truncate(10);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn ops_are_eight_bytes() {
        assert_eq!(std::mem::size_of::<MemOp>(), 8);
    }

    #[test]
    #[should_panic(expected = "ends past the 4 GiB a trace can address")]
    fn regions_past_four_gib_are_refused() {
        let mut b = TraceBuilder::new();
        b.region(1 << 32);
        b.region(1);
    }

    #[test]
    fn empty_trace_has_min_footprint() {
        let t = TraceBuilder::new().finish();
        assert!(t.is_empty());
        assert_eq!(t.footprint(), PAGE_SIZE);
    }
}
