//! Two-level TLB with a page-table-walk charge on a full miss (Table 2 MMU
//! row).
//!
//! Each level uses CLOCK (second-chance) replacement: a touched entry
//! survives the next sweep, and a hit costs an index probe and at most one
//! reference-bit store. The hand wraps by compare, not `%`.
//!
//! A level's index is an open-addressing table of slot numbers whose
//! length is a power of two at least twice the entry count; there is no
//! `HashMap` and no hasher. A VPN's home bucket is the top bits of one
//! multiply by 2^64/φ (Fibonacci hashing), which spreads consecutive VPNs
//! (the simulator maps each agent's pages at consecutive VPNs) evenly over
//! the table, and VPNs that share their low bits as well. Collisions probe
//! linearly in Robin Hood order (along a probe run, entries sit in the
//! order of their homes), so a miss stops early, and an evicted VPN leaves
//! by a backward shift that stops at the first entry at its home, so no
//! tombstones build up.
//!
//! A level grows with use: it starts with no entries and an empty index,
//! and the index doubles as entries arrive. Each level sits in a
//! [`CowBox`], so forks share it copy-on-write, and a fork that writes a
//! level copies only the entries it holds. A hit on an entry whose
//! reference bit is already set writes nothing, so a fork that only
//! translates pages its parent warmed never copies either level.

use impact_core::config::TlbConfig;
use impact_core::cow::CowBox;
use impact_core::time::Cycles;

/// Result of a TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbLookup {
    /// Translation latency (L1 hit, L2 hit, or full walk).
    pub latency: Cycles,
    /// Whether a page-table walk was required.
    pub walked: bool,
}

/// Smallest index a level builds: eight buckets.
const MIN_INDEX: usize = 8;

/// 2^64/φ: a VPN's home bucket is the top bits of its product with this.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// One TLB level: CLOCK replacement over virtual page numbers.
///
/// `slots`/`referenced` are the clock ring; `index` holds `slot + 1` per
/// occupied bucket (0 is an empty bucket). All operations are
/// deterministic — eviction order is a pure function of the access
/// sequence — so the simulator's reproducibility contract holds.
#[derive(Debug, Clone, Default)]
struct TlbLevel {
    slots: Vec<u64>,
    referenced: Vec<bool>,
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the product bits a home drops.
    shift: u32,
    hand: usize,
    capacity: usize,
}

impl TlbLevel {
    fn new(capacity: u32) -> CowBox<TlbLevel> {
        CowBox::new(TlbLevel {
            capacity: capacity.max(1) as usize,
            ..TlbLevel::default()
        })
    }

    /// The index bucket mask; the index is not empty when called.
    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    /// The home bucket of `vpn`.
    fn home(&self, vpn: u64) -> usize {
        // Below `index.len()`, a `usize`.
        (vpn.wrapping_mul(FIBONACCI) >> self.shift) as usize
    }

    /// How far the entry in `bucket` sits past its home.
    fn distance(&self, bucket: usize, entry: u32) -> usize {
        bucket.wrapping_sub(self.home(self.slots[entry as usize - 1])) & self.mask()
    }

    /// The slot holding `vpn`, if any. A miss ends at an empty bucket or
    /// at an entry nearer its home than `vpn` would be there.
    #[inline]
    fn find(&self, vpn: u64) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mut bucket = self.home(vpn);
        let mut dist = 0;
        loop {
            let entry = self.index[bucket];
            let slot = (entry as usize).checked_sub(1)?;
            if self.slots[slot] == vpn {
                return Some(slot);
            }
            if self.distance(bucket, entry) < dist {
                return None;
            }
            bucket = (bucket + 1) & self.mask();
            dist += 1;
        }
    }

    /// Indexes `slot`, which holds `vpn`. Robin Hood order: probing on
    /// from `vpn`'s home, an entry takes the bucket of any resident nearer
    /// its own home, and the resident probes on in its place.
    fn link(&mut self, vpn: u64, slot: usize) {
        // A slot is below the capacity, a `u32`.
        let mut entry = slot as u32 + 1;
        let mut bucket = self.home(vpn);
        let mut dist = 0;
        loop {
            let resident = self.index[bucket];
            if resident == 0 {
                self.index[bucket] = entry;
                return;
            }
            let resident_dist = self.distance(bucket, resident);
            if resident_dist < dist {
                self.index[bucket] = entry;
                entry = resident;
                dist = resident_dist;
            }
            bucket = (bucket + 1) & self.mask();
            dist += 1;
        }
    }

    /// Removes the indexed `vpn` and shifts the displaced entries after it
    /// back by one, up to the first empty bucket or entry at its home.
    fn unlink(&mut self, vpn: u64) {
        let mut hole = self.home(vpn);
        while self.slots[self.index[hole] as usize - 1] != vpn {
            hole = (hole + 1) & self.mask();
        }
        loop {
            let next = (hole + 1) & self.mask();
            let entry = self.index[next];
            if entry == 0 || self.distance(next, entry) == 0 {
                break;
            }
            self.index[hole] = entry;
            hole = next;
        }
        self.index[hole] = 0;
    }

    /// Adds `vpn`, which the level does not hold, as a referenced entry:
    /// in the next free slot while the level fills, then over the victim
    /// of a CLOCK sweep.
    fn fill(&mut self, vpn: u64) {
        if self.slots.len() < self.capacity {
            let slot = self.slots.len();
            self.slots.push(vpn);
            self.referenced.push(true);
            if self.index.len() < 2 * self.slots.len() {
                let len = (2 * self.slots.len()).next_power_of_two().max(MIN_INDEX);
                self.index = vec![0; len];
                self.shift = 64 - len.trailing_zeros();
                for slot in 0..self.slots.len() {
                    self.link(self.slots[slot], slot);
                }
            } else {
                self.link(vpn, slot);
            }
            return;
        }
        // CLOCK sweep: clear reference bits until an unreferenced victim
        // comes under the hand. Terminates within two revolutions.
        loop {
            let slot = self.hand;
            self.hand += 1;
            if self.hand == self.capacity {
                self.hand = 0;
            }
            if self.referenced[slot] {
                self.referenced[slot] = false;
            } else {
                self.unlink(self.slots[slot]);
                self.slots[slot] = vpn;
                self.referenced[slot] = true;
                self.link(vpn, slot);
                return;
            }
        }
    }
}

/// Returns true on hit and grants the entry a second chance. A hit whose
/// reference bit is already set writes nothing, so a level a fork still
/// shares stays shared.
#[inline]
fn lookup(level: &mut CowBox<TlbLevel>, vpn: u64) -> bool {
    let Some(slot) = level.find(vpn) else {
        return false;
    };
    if !level.referenced[slot] {
        level.to_mut().referenced[slot] = true;
    }
    true
}

/// Makes `vpn` a referenced entry of the level, adding it on a miss.
fn insert(level: &mut CowBox<TlbLevel>, vpn: u64) {
    if !lookup(level, vpn) {
        level.to_mut().fill(vpn);
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
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    l1: CowBox<TlbLevel>,
    l2: CowBox<TlbLevel>,
}

impl Tlb {
    /// Creates an empty TLB.
    #[must_use]
    pub fn new(cfg: TlbConfig) -> Tlb {
        Tlb {
            l1: TlbLevel::new(cfg.l1_entries),
            l2: TlbLevel::new(cfg.l2_entries),
            cfg,
        }
    }

    /// An independent copy that shares both levels until either side
    /// writes one.
    #[must_use]
    pub fn fork(&mut self) -> Tlb {
        Tlb {
            cfg: self.cfg,
            l1: self.l1.fork(),
            l2: self.l2.fork(),
        }
    }

    /// Translates a virtual page number, updating TLB state.
    pub fn translate(&mut self, vpn: u64) -> TlbLookup {
        let l1_lat = Cycles(self.cfg.l1_latency_cycles);
        if lookup(&mut self.l1, vpn) {
            return TlbLookup {
                latency: l1_lat,
                walked: false,
            };
        }
        // A level that missed holds `vpn` no more after the miss than
        // before it, so the fills below skip `insert`'s second lookup.
        let l2_lat = l1_lat + Cycles(self.cfg.l2_latency_cycles);
        if lookup(&mut self.l2, vpn) {
            self.l1.to_mut().fill(vpn);
            return TlbLookup {
                latency: l2_lat,
                walked: false,
            };
        }
        self.l1.to_mut().fill(vpn);
        self.l2.to_mut().fill(vpn);
        TlbLookup {
            latency: l2_lat + Cycles(self.cfg.walk_latency_cycles),
            walked: true,
        }
    }

    /// Pre-populates both levels with `vpn`: the warm-up the paper
    /// performs before launching attacks (§5.2.1), which the engine's
    /// allocators ([`crate::Engine::alloc_row_in_bank`] and
    /// [`crate::Engine::alloc_bank_stripe`]) run on each page they map.
    pub fn warm(&mut self, vpn: u64) {
        insert(&mut self.l1, vpn);
        insert(&mut self.l2, vpn);
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
        assert!(!h1.walked);
        assert_eq!(h1.latency, Cycles(1));
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
        let mut fork = parent.fork();
        for vpn in 0..64 {
            assert_eq!(fork.translate(vpn).latency, Cycles(1));
        }
        assert!(
            std::ptr::eq(&*fork.l1, &*parent.l1),
            "L1 hit unshared the fork"
        );
        assert!(
            std::ptr::eq(&*fork.l2, &*parent.l2),
            "L1 hit unshared the fork's L2"
        );

        // A walk on the full L1 sweeps every reference bit, on the fork
        // only.
        assert!(fork.translate(1000).walked);
        assert!(!std::ptr::eq(&*fork.l1, &*parent.l1));
        for vpn in 0..64 {
            let hit = parent.translate(vpn);
            assert!(!hit.walked);
            assert_eq!(hit, twin.translate(vpn));
        }
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
    use std::collections::BTreeMap;

    /// Reference model: one TLB level as it was implemented over a
    /// `HashMap` index with a CLOCK hand stepped by `%`, kept to pin the
    /// open-addressing level to its behaviour. The index is a `BTreeMap`
    /// here; it only serves `get`, `insert` and `remove`, so its order
    /// never shows.
    struct RefLevel {
        slots: Vec<u64>,
        referenced: Vec<bool>,
        index: BTreeMap<u64, usize>,
        hand: usize,
        capacity: usize,
    }

    impl RefLevel {
        fn new(capacity: u32) -> RefLevel {
            RefLevel {
                slots: Vec::new(),
                referenced: Vec::new(),
                index: BTreeMap::new(),
                hand: 0,
                capacity: capacity.max(1) as usize,
            }
        }

        fn lookup(&mut self, vpn: u64) -> bool {
            let Some(&slot) = self.index.get(&vpn) else {
                return false;
            };
            self.referenced[slot] = true;
            true
        }

        fn insert(&mut self, vpn: u64) {
            if self.lookup(vpn) {
                return;
            }
            if self.slots.len() < self.capacity {
                self.index.insert(vpn, self.slots.len());
                self.slots.push(vpn);
                self.referenced.push(true);
                return;
            }
            loop {
                let slot = self.hand;
                self.hand = (self.hand + 1) % self.capacity;
                if self.referenced[slot] {
                    self.referenced[slot] = false;
                } else {
                    self.index.remove(&self.slots[slot]);
                    self.index.insert(vpn, slot);
                    self.slots[slot] = vpn;
                    self.referenced[slot] = true;
                    return;
                }
            }
        }
    }

    /// The two-level TLB over reference levels.
    struct RefTlb {
        cfg: TlbConfig,
        l1: RefLevel,
        l2: RefLevel,
    }

    impl RefTlb {
        fn new(cfg: TlbConfig) -> RefTlb {
            RefTlb {
                l1: RefLevel::new(cfg.l1_entries),
                l2: RefLevel::new(cfg.l2_entries),
                cfg,
            }
        }

        fn translate(&mut self, vpn: u64) -> TlbLookup {
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
            self.l1.insert(vpn);
            self.l2.insert(vpn);
            TlbLookup {
                latency: l2_lat + Cycles(self.cfg.walk_latency_cycles),
                walked: true,
            }
        }

        fn warm(&mut self, vpn: u64) {
            self.l1.insert(vpn);
            self.l2.insert(vpn);
        }
    }

    proptest! {
        /// The open-addressing levels behave exactly like the `HashMap`
        /// reference model under random VPN streams, at level capacities
        /// 4, 64 and 1536 (L1/L2 = 4/4, 4/64 and Table 2's 64/1536). Ops
        /// are `(kind, x)` with `x` reduced to three times the L2
        /// capacity, so streams both hit and evict: kind 0 translates VPN
        /// `x`, 1 warms it, 2 translates `x << 12` (VPNs sharing their low
        /// 12 bits) and 3 warms the run `x..x + 16`. Every `TlbLookup`
        /// (latency and whether it walked) must agree, and so must a final
        /// sweep over every VPN.
        #[test]
        fn levels_match_hashmap_reference_model(
            cfg_sel in 0usize..3,
            ops in prop::collection::vec((0u8..4, 0u64..4608), 1..2000),
        ) {
            let (l1, l2) = [(4, 4), (4, 64), (64, 1536)][cfg_sel];
            let cfg = TlbConfig {
                l1_entries: l1,
                l2_entries: l2,
                ..TlbConfig::paper_table2()
            };
            let span = 3 * u64::from(l2);
            let mut t = Tlb::new(cfg);
            let mut r = RefTlb::new(cfg);
            for (step, (kind, x)) in ops.into_iter().enumerate() {
                let x = x % span;
                match kind {
                    0 => prop_assert_eq!(t.translate(x), r.translate(x), "step {}", step),
                    1 => {
                        t.warm(x);
                        r.warm(x);
                    }
                    2 => prop_assert_eq!(t.translate(x << 12), r.translate(x << 12), "step {}", step),
                    _ => {
                        for vpn in x..x + 16 {
                            t.warm(vpn);
                            r.warm(vpn);
                        }
                    }
                }
            }
            for vpn in (0..span).chain((0..span).map(|x| x << 12)) {
                prop_assert_eq!(t.translate(vpn), r.translate(vpn), "sweep vpn {}", vpn);
            }
        }

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

        /// While fewer distinct pages than the L2 holds are in use, a
        /// translation walks exactly when its page was never translated
        /// before.
        #[test]
        fn walks_exactly_on_first_touch(vpns in prop::collection::vec(0u64..100, 1..200)) {
            let mut t = Tlb::new(TlbConfig::paper_table2());
            let mut seen = std::collections::BTreeSet::new();
            for vpn in vpns {
                let first = seen.insert(vpn);
                prop_assert_eq!(t.translate(vpn).walked, first, "vpn {}", vpn);
            }
        }
    }
}
