//! Two-level TLB with page-table-walk accounting (Table 2 MMU row).
//!
//! Each level uses CLOCK (second-chance) replacement over an O(1) index
//! map. The previous implementation kept a true-LRU `Vec` and paid a
//! linear `position` scan plus a `remove`/`push` memmove on *every*
//! lookup — the dominant cost of `system/pim_op_direct` once the memory
//! controller's batched path landed. CLOCK keeps the recency signal (a
//! touched entry survives the next sweep) while a hit does two O(1)
//! operations: an index probe and a reference-bit store.
//!
//! A level grows with use: it starts with no entries and no index
//! buckets. A cloned `HashMap` keeps its bucket count, so a pre-sized
//! index would make every copy of a level as large as a full one. Each
//! level sits behind an `Arc`, so forks share it copy-on-write. A hit on
//! an entry whose reference bit is already set writes nothing, so a fork
//! that only translates pages its parent warmed never copies either level.

use std::collections::HashMap;
use std::sync::Arc;

use impact_core::config::TlbConfig;
use impact_core::hash::FxBuildHasher;
use impact_core::time::Cycles;

/// Result of a TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbLookup {
    /// Translation latency (L1 hit, L2 hit, or full walk).
    pub latency: Cycles,
    /// Whether a page-table walk was required.
    pub walked: bool,
}

/// One TLB level: CLOCK replacement over virtual page numbers.
///
/// `slots`/`referenced` are the clock ring; `index` maps a VPN to its
/// slot. All operations are deterministic — eviction order is a pure
/// function of the access sequence — so the simulator's reproducibility
/// contract is unaffected by the policy change.
#[derive(Debug, Clone)]
struct TlbLevel {
    slots: Vec<u64>,
    referenced: Vec<bool>,
    index: HashMap<u64, usize, FxBuildHasher>,
    hand: usize,
    capacity: usize,
}

impl TlbLevel {
    fn new(capacity: u32) -> Arc<TlbLevel> {
        Arc::new(TlbLevel {
            slots: Vec::new(),
            referenced: Vec::new(),
            index: HashMap::with_hasher(FxBuildHasher::default()),
            hand: 0,
            capacity: capacity.max(1) as usize,
        })
    }

    /// The level for mutation: copies it first if a fork still shares it.
    fn unshare(self: &mut Arc<TlbLevel>) -> &mut TlbLevel {
        // analyze::allow(cow-aliasing): the level's only write site;
        // lookups of already-referenced entries never reach it, and a fork
        // still sharing the level gets its own copy before any reference
        // bit, slot or index entry changes
        Arc::make_mut(self)
    }

    /// Returns true on hit; grants the entry a second chance. A hit whose
    /// reference bit is already set writes nothing.
    fn lookup(self: &mut Arc<TlbLevel>, vpn: u64) -> bool {
        let Some(&slot) = self.index.get(&vpn) else {
            return false;
        };
        if !self.referenced[slot] {
            self.unshare().referenced[slot] = true;
        }
        true
    }

    fn insert(self: &mut Arc<TlbLevel>, vpn: u64) {
        if self.lookup(vpn) {
            return;
        }
        let level = self.unshare();
        if level.slots.len() < level.capacity {
            level.index.insert(vpn, level.slots.len());
            level.slots.push(vpn);
            level.referenced.push(true);
            return;
        }
        // CLOCK sweep: clear reference bits until an unreferenced victim
        // comes under the hand. Terminates within two revolutions.
        loop {
            let slot = level.hand;
            level.hand = (level.hand + 1) % level.capacity;
            if level.referenced[slot] {
                level.referenced[slot] = false;
            } else {
                level.index.remove(&level.slots[slot]);
                level.index.insert(vpn, slot);
                level.slots[slot] = vpn;
                level.referenced[slot] = true;
                return;
            }
        }
    }
}

/// The two-level data TLB: a 64-entry L1 and a 1536-entry L2 (CLOCK
/// replacement) with a 120-cycle page-table walk on a full miss.
///
/// # Example
///
/// ```
/// use impact_core::config::TlbConfig;
/// use impact_sim::Tlb;
///
/// let mut tlb = Tlb::new(TlbConfig::paper_table2());
/// let miss = tlb.translate(42);
/// assert!(miss.walked);
/// let hit = tlb.translate(42);
/// assert!(!hit.walked);
/// assert!(hit.latency < miss.latency);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    l1: Arc<TlbLevel>,
    l2: Arc<TlbLevel>,
    walks: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    #[must_use]
    pub fn new(cfg: TlbConfig) -> Tlb {
        Tlb {
            l1: TlbLevel::new(cfg.l1_entries),
            l2: TlbLevel::new(cfg.l2_entries),
            cfg,
            walks: 0,
        }
    }

    /// Translates a virtual page number, updating TLB state.
    pub fn translate(&mut self, vpn: u64) -> TlbLookup {
        let l1_lat = Cycles(self.cfg.l1_latency_cycles);
        if self.l1.lookup(vpn) {
            return TlbLookup {
                latency: l1_lat,
                walked: false,
            };
        }
        let l2_lat = l1_lat + Cycles(self.cfg.l2_latency_cycles);
        if self.l2.lookup(vpn) {
            self.l1.insert(vpn);
            return TlbLookup {
                latency: l2_lat,
                walked: false,
            };
        }
        self.walks += 1;
        self.l1.insert(vpn);
        self.l2.insert(vpn);
        TlbLookup {
            latency: l2_lat + Cycles(self.cfg.walk_latency_cycles),
            walked: true,
        }
    }

    /// Number of page-table walks performed.
    #[must_use]
    pub fn walk_count(&self) -> u64 {
        self.walks
    }

    /// Pre-populates both levels with `vpn` (used by the warm-up phase the
    /// paper performs before launching attacks, §5.2.1).
    pub fn warm(&mut self, vpn: u64) {
        self.l1.insert(vpn);
        self.l2.insert(vpn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(TlbConfig::paper_table2())
    }

    #[test]
    fn miss_walk_then_hits() {
        let mut t = tlb();
        let m = t.translate(7);
        assert!(m.walked);
        assert_eq!(m.latency, Cycles(1 + 12 + 120));
        let h1 = t.translate(7);
        assert_eq!(h1.latency, Cycles(1));
        assert_eq!(t.walk_count(), 1);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut t = tlb();
        t.translate(0);
        // Evict vpn 0 from the 64-entry L1 with 64 fresh translations.
        for vpn in 1..=64 {
            t.translate(vpn);
        }
        let l2_hit = t.translate(0);
        assert!(!l2_hit.walked);
        assert_eq!(l2_hit.latency, Cycles(13));
    }

    #[test]
    fn warm_prevents_walks() {
        let mut t = tlb();
        t.warm(9);
        let h = t.translate(9);
        assert!(!h.walked);
        assert_eq!(t.walk_count(), 0);
    }

    #[test]
    fn capacity_bounded() {
        let mut t = tlb();
        for vpn in 0..5000 {
            t.translate(vpn);
        }
        // Far-past entries must have been evicted from both levels.
        let again = t.translate(0);
        assert!(again.walked);
    }

    #[test]
    fn forks_share_levels_until_a_sweep() {
        // Warm a full L1 (64 entries; L2 holds the same 64), so every
        // entry in both levels is referenced.
        let warmed = || {
            let mut t = tlb();
            for vpn in 0..64 {
                t.warm(vpn);
            }
            t
        };
        let mut parent = warmed();
        let mut twin = warmed();
        let mut fork = parent.clone();
        for vpn in 0..64 {
            assert_eq!(fork.translate(vpn).latency, Cycles(1));
        }
        assert!(
            Arc::ptr_eq(&fork.l1, &parent.l1),
            "L1 hit unshared the fork"
        );
        assert!(
            Arc::ptr_eq(&fork.l2, &parent.l2),
            "L1 hit unshared the fork's L2"
        );

        // A walk on the full L1 sweeps every reference bit, on the fork
        // only.
        assert!(fork.translate(1000).walked);
        assert!(!Arc::ptr_eq(&fork.l1, &parent.l1));
        for vpn in 0..64 {
            assert_eq!(parent.translate(vpn), twin.translate(vpn));
        }
        assert_eq!(parent.walk_count(), 0);
        assert_eq!(parent.walk_count(), twin.walk_count());
        // The parent's hand and reference bits are untouched too: its own
        // next sweep evicts what the twin's does.
        assert_eq!(parent.translate(2000), twin.translate(2000));
        assert_eq!(parent.translate(0), twin.translate(0));
    }

    #[test]
    fn second_chance_protects_touched_entries() {
        // A tiny 4-entry L1 makes the clock hand's behavior visible.
        let cfg = TlbConfig {
            l1_entries: 4,
            l2_entries: 8,
            ..TlbConfig::paper_table2()
        };
        let mut t = Tlb::new(cfg);
        for vpn in 0..4 {
            t.translate(vpn); // fill L1; all entries referenced
        }
        // Inserting vpn 4 sweeps every reference bit, then evicts slot 0
        // (vpn 0) on the second revolution.
        t.translate(4);
        // Touch vpn 2: its reference bit protects it from the next sweep.
        assert_eq!(t.translate(2).latency, Cycles(1));
        // Inserting vpn 5 evicts vpn 1 (unreferenced) — not vpn 2.
        t.translate(5);
        assert_eq!(t.translate(2).latency, Cycles(1), "touched entry evicted");
        assert_eq!(t.translate(1).latency, Cycles(13), "L2 catches the victim");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use impact_core::config::TlbConfig;
    use proptest::prelude::*;

    proptest! {
        /// Translating the same page twice in a row never walks the second
        /// time, for any interleaving prefix.
        #[test]
        fn immediate_retranslation_hits(vpns in prop::collection::vec(0u64..5000, 1..100)) {
            let mut t = Tlb::new(TlbConfig::paper_table2());
            for vpn in vpns {
                t.translate(vpn);
                let again = t.translate(vpn);
                prop_assert!(!again.walked, "vpn {vpn} walked twice in a row");
            }
        }

        /// Walk count only ever increases and is bounded by translations.
        #[test]
        fn walk_count_bounded(vpns in prop::collection::vec(0u64..100, 1..200)) {
            let mut t = Tlb::new(TlbConfig::paper_table2());
            let n = vpns.len() as u64;
            let mut last = 0;
            for vpn in vpns {
                t.translate(vpn);
                prop_assert!(t.walk_count() >= last);
                last = t.walk_count();
            }
            prop_assert!(t.walk_count() <= n);
        }
    }
}
