//! Set-associative cache with pluggable replacement.
//!
//! The tag/metadata array lives behind an `Arc` so forks of a warmed
//! cache are O(1): clones share the array, and the first access on either
//! side copies it (`Arc::make_mut`).

use std::sync::Arc;

use impact_core::addr::PhysAddr;
use impact_core::config::{CacheLevelConfig, ReplacementKind};
use impact_core::time::Cycles;

/// Maximum re-reference prediction value for 2-bit SRRIP.
const RRPV_MAX: u8 = 3;
/// Insertion RRPV for SRRIP ("long re-reference interval").
const RRPV_INSERT: u8 = 2;

#[derive(Debug, Clone, Copy)]
struct LineMeta {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU timestamp (higher = more recent).
    stamp: u64,
    /// SRRIP re-reference prediction value.
    rrpv: u8,
}

impl LineMeta {
    fn empty() -> LineMeta {
        LineMeta {
            tag: 0,
            valid: false,
            dirty: false,
            stamp: 0,
            rrpv: RRPV_MAX,
        }
    }
}

/// A line evicted from a cache (victim of a fill).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line-aligned physical address of the victim.
    pub addr: PhysAddr,
    /// Whether the victim was dirty (needs a write-back to memory).
    pub dirty: bool,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the access hit.
    pub hit: bool,
    /// Victim evicted to make room on a miss-fill, if any.
    pub evicted: Option<EvictedLine>,
}

/// A set-associative cache level.
///
/// Addresses are physical; the cache operates on line-aligned addresses.
///
/// # Example
///
/// ```
/// use impact_cache::SetAssocCache;
/// use impact_core::config::{CacheLevelConfig, ReplacementKind};
/// use impact_core::addr::PhysAddr;
///
/// let cfg = CacheLevelConfig {
///     size_bytes: 4096,
///     ways: 4,
///     line_bytes: 64,
///     latency_cycles: 4,
///     replacement: ReplacementKind::Lru,
/// };
/// let mut c = SetAssocCache::new(cfg);
/// assert!(!c.access(PhysAddr(0), false).hit);
/// assert!(c.access(PhysAddr(0), false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheLevelConfig,
    sets: u64,
    lines: Arc<Vec<LineMeta>>,
    tick: u64,
}

impl SetAssocCache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets.
    #[must_use]
    pub fn new(cfg: CacheLevelConfig) -> SetAssocCache {
        let sets = cfg.sets();
        let lines = vec![LineMeta::empty(); (sets * u64::from(cfg.ways)) as usize];
        SetAssocCache {
            cfg,
            sets,
            lines: Arc::new(lines),
            tick: 0,
        }
    }

    /// The line array for mutation: copies it first if a clone still
    /// shares the storage.
    #[inline]
    fn lines_mut(&mut self) -> &mut Vec<LineMeta> {
        // analyze::allow(cow-aliasing): sole unshare point for the line
        // array; every mutation funnels through here, so a shared fork
        // gets its own copy before the first write
        Arc::make_mut(&mut self.lines)
    }

    /// Configuration of this level.
    #[must_use]
    pub fn config(&self) -> &CacheLevelConfig {
        &self.cfg
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> u64 {
        self.sets
    }

    /// Access latency of this level.
    #[must_use]
    pub fn latency(&self) -> Cycles {
        Cycles(self.cfg.latency_cycles)
    }

    /// Set index for an address.
    #[must_use]
    pub fn set_index(&self, addr: PhysAddr) -> u64 {
        (addr.0 / u64::from(self.cfg.line_bytes)) % self.sets
    }

    fn tag_of(&self, addr: PhysAddr) -> u64 {
        (addr.0 / u64::from(self.cfg.line_bytes)) / self.sets
    }

    fn addr_of(&self, set: u64, tag: u64) -> PhysAddr {
        PhysAddr((tag * self.sets + set) * u64::from(self.cfg.line_bytes))
    }

    fn set_slice_mut(&mut self, set: u64) -> &mut [LineMeta] {
        let ways = self.cfg.ways as usize;
        let base = set as usize * ways;
        &mut self.lines_mut()[base..base + ways]
    }

    fn set_slice(&self, set: u64) -> &[LineMeta] {
        let ways = self.cfg.ways as usize;
        let base = set as usize * ways;
        &self.lines[base..base + ways]
    }

    /// True if the line is currently cached (no state change).
    #[must_use]
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        self.set_slice(set).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Accesses a line, filling it on a miss; returns hit/miss and any
    /// victim evicted by the fill.
    pub fn access(&mut self, addr: PhysAddr, write: bool) -> AccessResult {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        let repl = self.cfg.replacement;

        // Hit path.
        if let Some(line) = self
            .set_slice_mut(set)
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
        {
            line.stamp = tick;
            line.rrpv = 0; // SRRIP: promote on hit.
            line.dirty |= write;
            return AccessResult {
                hit: true,
                evicted: None,
            };
        }

        // Miss: choose a victim.
        let victim_idx = self.choose_victim(set, repl);
        let sets = self.sets;
        let ways = self.cfg.ways as usize;
        let base = set as usize * ways;
        let victim = self.lines[base + victim_idx];
        let evicted = if victim.valid {
            Some(EvictedLine {
                addr: PhysAddr((victim.tag * sets + set) * u64::from(self.cfg.line_bytes)),
                dirty: victim.dirty,
            })
        } else {
            None
        };
        self.lines_mut()[base + victim_idx] = LineMeta {
            tag,
            valid: true,
            dirty: write,
            stamp: tick,
            rrpv: RRPV_INSERT,
        };
        AccessResult {
            hit: false,
            evicted,
        }
    }

    /// Fills a line without counting as a demand access (prefetch fill).
    pub fn fill(&mut self, addr: PhysAddr) -> Option<EvictedLine> {
        let r = self.access(addr, false);
        r.evicted
    }

    /// Invalidates (flushes) a line if present, returning it.
    ///
    /// Models `clflush`: the line is removed from this level; the caller is
    /// responsible for charging any write-back latency if the line was
    /// dirty.
    pub fn flush(&mut self, addr: PhysAddr) -> Option<EvictedLine> {
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        let sets = self.sets;
        let line_bytes = u64::from(self.cfg.line_bytes);
        let line = self
            .set_slice_mut(set)
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)?;
        let evicted = EvictedLine {
            addr: PhysAddr((line.tag * sets + set) * line_bytes),
            dirty: line.dirty,
        };
        *line = LineMeta::empty();
        Some(evicted)
    }

    /// Addresses currently resident in the set containing `addr`
    /// (test/diagnostic aid).
    #[must_use]
    pub fn resident_in_set(&self, addr: PhysAddr) -> Vec<PhysAddr> {
        let set = self.set_index(addr);
        self.set_slice(set)
            .iter()
            .filter(|l| l.valid)
            .map(|l| self.addr_of(set, l.tag))
            .collect()
    }

    /// Clears all lines.
    pub fn reset(&mut self) {
        for l in self.lines_mut() {
            *l = LineMeta::empty();
        }
        self.tick = 0;
    }

    fn choose_victim(&mut self, set: u64, repl: ReplacementKind) -> usize {
        // Prefer an invalid way.
        if let Some(idx) = self.set_slice(set).iter().position(|l| !l.valid) {
            return idx;
        }
        match repl {
            ReplacementKind::Lru => self
                .set_slice(set)
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.stamp)
                .map(|(i, _)| i)
                .expect("non-empty set"),
            ReplacementKind::Srrip => {
                // Find a line with RRPV == MAX, aging all lines until one
                // appears.
                loop {
                    if let Some(idx) = self.set_slice(set).iter().position(|l| l.rrpv >= RRPV_MAX) {
                        return idx;
                    }
                    for l in self.set_slice_mut(set) {
                        l.rrpv = (l.rrpv + 1).min(RRPV_MAX);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ways: u32, repl: ReplacementKind) -> CacheLevelConfig {
        CacheLevelConfig {
            size_bytes: u64::from(ways) * 64 * 4, // 4 sets
            ways,
            line_bytes: 64,
            latency_cycles: 10,
            replacement: repl,
        }
    }

    /// Returns `n` distinct line addresses all mapping to the same set as
    /// `base`.
    fn congruent(cache: &SetAssocCache, base: PhysAddr, n: usize) -> Vec<PhysAddr> {
        let stride = cache.num_sets() * 64;
        (1..=n as u64)
            .map(|i| PhysAddr(base.0 + i * stride))
            .collect()
    }

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(cfg(4, ReplacementKind::Lru));
        let a = PhysAddr(0x1000);
        assert!(!c.access(a, false).hit);
        assert!(c.access(a, false).hit);
        assert!(c.probe(a));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = SetAssocCache::new(cfg(2, ReplacementKind::Lru));
        let a = PhysAddr(0);
        let others = congruent(&c, a, 2);
        c.access(a, false);
        c.access(others[0], false);
        // Touch `a` so others[0] is LRU.
        c.access(a, false);
        let r = c.access(others[1], false);
        assert_eq!(
            r.evicted,
            Some(EvictedLine {
                addr: others[0],
                dirty: false
            })
        );
        assert!(c.probe(a));
        assert!(!c.probe(others[0]));
    }

    #[test]
    fn srrip_scan_resistance() {
        // A hot line re-referenced between scans should survive a one-pass
        // scan of the set under SRRIP.
        let mut c = SetAssocCache::new(cfg(4, ReplacementKind::Srrip));
        let hot = PhysAddr(0);
        c.access(hot, false);
        c.access(hot, false); // rrpv -> 0
        let scan = congruent(&c, hot, 6);
        for &s in &scan {
            c.access(s, false);
        }
        assert!(c.probe(hot), "hot line evicted by scan under SRRIP");
    }

    #[test]
    fn flush_removes_line() {
        let mut c = SetAssocCache::new(cfg(4, ReplacementKind::Lru));
        let a = PhysAddr(0x40);
        c.access(a, true);
        let flushed = c.flush(a).expect("line was resident");
        assert!(flushed.dirty);
        assert!(!c.probe(a));
        assert_eq!(c.flush(a), None);
    }

    #[test]
    fn dirty_writeback_on_eviction() {
        let mut c = SetAssocCache::new(cfg(2, ReplacementKind::Lru));
        let a = PhysAddr(0);
        let others = congruent(&c, a, 2);
        c.access(a, true); // dirty
        c.access(others[0], false);
        let r = c.access(others[1], false);
        let ev = r.evicted.expect("must evict");
        assert_eq!(ev.addr, a);
        assert!(ev.dirty);
    }

    #[test]
    fn set_index_partitions_addresses() {
        let c = SetAssocCache::new(cfg(4, ReplacementKind::Lru));
        // 4 sets: consecutive lines land in consecutive sets.
        assert_eq!(c.set_index(PhysAddr(0)), 0);
        assert_eq!(c.set_index(PhysAddr(64)), 1);
        assert_eq!(c.set_index(PhysAddr(64 * 4)), 0);
    }

    #[test]
    fn resident_in_set_reports_contents() {
        let mut c = SetAssocCache::new(cfg(2, ReplacementKind::Lru));
        let a = PhysAddr(0);
        c.access(a, false);
        let others = congruent(&c, a, 1);
        c.access(others[0], false);
        let mut resident = c.resident_in_set(a);
        resident.sort();
        assert_eq!(resident, vec![a, others[0]]);
    }

    #[test]
    fn reset_clears() {
        let mut c = SetAssocCache::new(cfg(2, ReplacementKind::Lru));
        c.access(PhysAddr(0), false);
        c.reset();
        assert!(!c.probe(PhysAddr(0)));
    }

    #[test]
    fn fill_behaves_like_clean_access() {
        let mut c = SetAssocCache::new(cfg(2, ReplacementKind::Lru));
        let a = PhysAddr(0x80);
        assert_eq!(c.fill(a), None);
        assert!(c.probe(a));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_cache() -> SetAssocCache {
        SetAssocCache::new(CacheLevelConfig {
            size_bytes: 4 * 64 * 4, // 4 sets x 4 ways
            ways: 4,
            line_bytes: 64,
            latency_cycles: 1,
            replacement: ReplacementKind::Lru,
        })
    }

    proptest! {
        /// Occupancy invariant: a set never holds more lines than ways,
        /// and the most recently accessed line is always resident.
        #[test]
        fn capacity_and_mru_residency(addrs in prop::collection::vec(0u64..4096, 1..200)) {
            let mut c = small_cache();
            for a in addrs {
                let a = PhysAddr(a).line_aligned();
                c.access(a, false);
                prop_assert!(c.probe(a), "MRU line {a} evicted");
                prop_assert!(c.resident_in_set(a).len() <= 4);
            }
        }

        /// Flush is precise: it removes exactly the requested line.
        #[test]
        fn flush_is_precise(addrs in prop::collection::vec(0u64..2048, 2..50)) {
            let mut c = small_cache();
            let lines: Vec<PhysAddr> =
                addrs.iter().map(|&a| PhysAddr(a).line_aligned()).collect();
            for &a in &lines {
                c.access(a, false);
            }
            let victim = lines[0];
            let resident_before: Vec<PhysAddr> = lines
                .iter()
                .copied()
                .filter(|&l| l != victim && c.probe(l))
                .collect();
            c.flush(victim);
            prop_assert!(!c.probe(victim));
            for l in resident_before {
                prop_assert!(c.probe(l), "flush evicted bystander {l}");
            }
        }

        /// Under LRU, filling a set with `ways` fresh lines evicts
        /// everything older, deterministically.
        #[test]
        fn lru_eviction_is_deterministic(base in 0u64..256) {
            let mut c = small_cache();
            let base = PhysAddr(base * 64);
            let stride = c.num_sets() * 64;
            c.access(base, false);
            for i in 1..=4u64 {
                c.access(PhysAddr(base.0 + i * stride), false);
            }
            prop_assert!(!c.probe(base), "LRU kept the oldest line");
        }
    }
}
