//! Set-associative cache with pluggable replacement.
//!
//! Each line is two words, `[tag, meta]`, packed as
//! `meta = stamp << 4 | rrpv << 2 | dirty << 1 | valid`. The all-zero
//! pair is an invalid line, so a new cache is one zeroed allocation
//! (`vec![[0; 2]; n]`) and construction writes no line. When the
//! allocator maps a large array fresh, as glibc does above its mmap
//! threshold, the OS maps its pages in only when a line in them is first
//! written: a 128 MiB LLC costs next to nothing until it fills.
//! No other initial value is needed, because nothing reads the `stamp` or
//! `rrpv` of an invalid line: victim choice takes an invalid way before it
//! reads either field, and SRRIP ages only full sets. `stamp` is the
//! access tick, so the 60-bit field bounds a cache's lifetime at 2^60
//! accesses (checked in debug builds).
//!
//! The line array lives behind an `Arc` so forks of a warmed cache are
//! O(1): clones share the array, and the first write on either side copies
//! it (`Arc::make_mut`).

use std::sync::Arc;

use impact_core::addr::PhysAddr;
use impact_core::config::{CacheLevelConfig, ReplacementKind};
use impact_core::time::Cycles;

/// Maximum re-reference prediction value for 2-bit SRRIP.
const RRPV_MAX: u8 = 3;
/// Insertion RRPV for SRRIP ("long re-reference interval").
const RRPV_INSERT: u8 = 2;

/// One line: `[tag, meta]`, see the module docs. `[0, 0]` is invalid.
type Line = [u64; 2];

const VALID: u64 = 1;
const DIRTY: u64 = 1 << 1;
const RRPV_SHIFT: u32 = 2;
const STAMP_SHIFT: u32 = 4;

/// A valid line holding `tag`.
fn valid_line(tag: u64, dirty: bool, stamp: u64, rrpv: u8) -> Line {
    debug_assert!(
        stamp >> (64 - STAMP_SHIFT) == 0,
        "stamp {stamp} overflows 60 bits"
    );
    let meta = (stamp << STAMP_SHIFT) | (u64::from(rrpv) << RRPV_SHIFT) | (u64::from(dirty) << 1);
    [tag, meta | VALID]
}

fn is_valid(l: &Line) -> bool {
    l[1] & VALID != 0
}

fn holds(l: &Line, tag: u64) -> bool {
    is_valid(l) && l[0] == tag
}

fn is_dirty(l: &Line) -> bool {
    l[1] & DIRTY != 0
}

fn stamp(l: &Line) -> u64 {
    l[1] >> STAMP_SHIFT
}

fn rrpv(l: &Line) -> u8 {
    ((l[1] >> RRPV_SHIFT) & 0b11) as u8
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
    lines: Arc<Vec<Line>>,
    tick: u64,
}

impl SetAssocCache {
    /// Builds an empty cache. The line array is a zeroed allocation;
    /// building writes no line.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets.
    #[must_use]
    pub fn new(cfg: CacheLevelConfig) -> SetAssocCache {
        let sets = cfg.sets();
        let lines = vec![[0u64; 2]; (sets * u64::from(cfg.ways)) as usize];
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
    fn lines_mut(&mut self) -> &mut Vec<Line> {
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

    /// Index of the set's first way in the line array.
    fn set_base(&self, set: u64) -> usize {
        set as usize * self.cfg.ways as usize
    }

    fn set_slice_mut(&mut self, set: u64) -> &mut [Line] {
        let (base, ways) = (self.set_base(set), self.cfg.ways as usize);
        &mut self.lines_mut()[base..base + ways]
    }

    fn set_slice(&self, set: u64) -> &[Line] {
        let base = self.set_base(set);
        &self.lines[base..base + self.cfg.ways as usize]
    }

    /// True if the line is currently cached (no state change).
    #[must_use]
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        self.set_slice(set).iter().any(|l| holds(l, tag))
    }

    /// Accesses a line, filling it on a miss; returns hit/miss and any
    /// victim evicted by the fill.
    pub fn access(&mut self, addr: PhysAddr, write: bool) -> AccessResult {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        let repl = self.cfg.replacement;

        // Hit path: restamp for LRU, promote to RRPV 0 for SRRIP.
        if let Some(line) = self.set_slice_mut(set).iter_mut().find(|l| holds(l, tag)) {
            *line = valid_line(tag, is_dirty(line) || write, tick, 0);
            return AccessResult {
                hit: true,
                evicted: None,
            };
        }

        // Miss: choose a victim.
        let slot = self.set_base(set) + self.choose_victim(set, repl);
        let victim = self.lines[slot];
        let evicted = is_valid(&victim).then(|| EvictedLine {
            addr: self.addr_of(set, victim[0]),
            dirty: is_dirty(&victim),
        });
        self.lines_mut()[slot] = valid_line(tag, write, tick, RRPV_INSERT);
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
    /// dirty. Flushing an absent line writes nothing.
    pub fn flush(&mut self, addr: PhysAddr) -> Option<EvictedLine> {
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        let way = self.set_slice(set).iter().position(|l| holds(l, tag))?;
        let slot = self.set_base(set) + way;
        let evicted = EvictedLine {
            addr: self.addr_of(set, tag),
            dirty: is_dirty(&self.lines[slot]),
        };
        self.lines_mut()[slot] = [0; 2];
        Some(evicted)
    }

    /// Addresses currently resident in the set containing `addr`
    /// (test/diagnostic aid).
    #[must_use]
    pub fn resident_in_set(&self, addr: PhysAddr) -> Vec<PhysAddr> {
        let set = self.set_index(addr);
        self.set_slice(set)
            .iter()
            .filter(|l| is_valid(l))
            .map(|l| self.addr_of(set, l[0]))
            .collect()
    }

    fn choose_victim(&mut self, set: u64, repl: ReplacementKind) -> usize {
        // Prefer an invalid way. Past this point the set is full, so every
        // stamp and RRPV read below belongs to a valid line.
        if let Some(idx) = self.set_slice(set).iter().position(|l| !is_valid(l)) {
            return idx;
        }
        match repl {
            ReplacementKind::Lru => self
                .set_slice(set)
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| stamp(l))
                .map(|(i, _)| i)
                .expect("non-empty set"),
            ReplacementKind::Srrip => {
                // Find a line with RRPV == MAX, aging all lines until one
                // appears.
                loop {
                    if let Some(idx) = self.set_slice(set).iter().position(|l| rrpv(l) >= RRPV_MAX)
                    {
                        return idx;
                    }
                    // Every RRPV is below MAX here, so the increment stays
                    // inside its two bits.
                    for l in self.set_slice_mut(set) {
                        l[1] += 1 << RRPV_SHIFT;
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

    fn small_config(replacement: ReplacementKind) -> CacheLevelConfig {
        CacheLevelConfig {
            size_bytes: 4 * 64 * 4, // 4 sets x 4 ways
            ways: 4,
            line_bytes: 64,
            latency_cycles: 1,
            replacement,
        }
    }

    fn small_cache() -> SetAssocCache {
        SetAssocCache::new(small_config(ReplacementKind::Lru))
    }

    /// The unpacked line record the cache stored before the two-word
    /// layout: an empty line has `rrpv == RRPV_MAX`, not 0.
    #[derive(Debug, Clone, Copy)]
    struct LineMeta {
        tag: u64,
        valid: bool,
        dirty: bool,
        stamp: u64,
        rrpv: u8,
    }

    const EMPTY: LineMeta = LineMeta {
        tag: 0,
        valid: false,
        dirty: false,
        stamp: 0,
        rrpv: RRPV_MAX,
    };

    /// Reference model: the cache as it was implemented over
    /// `Vec<LineMeta>`, kept to pin the packed layout to its behaviour.
    struct RefCache {
        sets: u64,
        ways: usize,
        repl: ReplacementKind,
        lines: Vec<LineMeta>,
        tick: u64,
    }

    impl RefCache {
        fn new(cfg: CacheLevelConfig) -> RefCache {
            let sets = cfg.sets();
            RefCache {
                sets,
                ways: cfg.ways as usize,
                repl: cfg.replacement,
                lines: vec![EMPTY; (sets * u64::from(cfg.ways)) as usize],
                tick: 0,
            }
        }

        fn locate(&self, addr: PhysAddr) -> (usize, u64) {
            let line = addr.0 / 64;
            ((line % self.sets) as usize * self.ways, line / self.sets)
        }

        fn addr_of(&self, base: usize, tag: u64) -> PhysAddr {
            let set = (base / self.ways) as u64;
            PhysAddr((tag * self.sets + set) * 64)
        }

        fn probe(&self, addr: PhysAddr) -> bool {
            let (base, tag) = self.locate(addr);
            self.lines[base..base + self.ways]
                .iter()
                .any(|l| l.valid && l.tag == tag)
        }

        fn access(&mut self, addr: PhysAddr, write: bool) -> AccessResult {
            self.tick += 1;
            let (base, tag) = self.locate(addr);
            let ways = self.ways;
            let set = &mut self.lines[base..base + ways];
            if let Some(l) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
                l.stamp = self.tick;
                l.rrpv = 0;
                l.dirty |= write;
                return AccessResult {
                    hit: true,
                    evicted: None,
                };
            }
            let way = if let Some(i) = set.iter().position(|l| !l.valid) {
                i
            } else if self.repl == ReplacementKind::Lru {
                (0..ways).min_by_key(|&i| set[i].stamp).unwrap()
            } else {
                loop {
                    if let Some(i) = set.iter().position(|l| l.rrpv >= RRPV_MAX) {
                        break i;
                    }
                    for l in set.iter_mut() {
                        l.rrpv = (l.rrpv + 1).min(RRPV_MAX);
                    }
                }
            };
            let victim = set[way];
            set[way] = LineMeta {
                tag,
                valid: true,
                dirty: write,
                stamp: self.tick,
                rrpv: RRPV_INSERT,
            };
            AccessResult {
                hit: false,
                evicted: victim.valid.then(|| EvictedLine {
                    addr: self.addr_of(base, victim.tag),
                    dirty: victim.dirty,
                }),
            }
        }

        fn flush(&mut self, addr: PhysAddr) -> Option<EvictedLine> {
            let (base, tag) = self.locate(addr);
            let way = self.lines[base..base + self.ways]
                .iter()
                .position(|l| l.valid && l.tag == tag)?;
            let line = std::mem::replace(&mut self.lines[base + way], EMPTY);
            Some(EvictedLine {
                addr: self.addr_of(base, tag),
                dirty: line.dirty,
            })
        }

        fn resident_in_set(&self, addr: PhysAddr) -> Vec<PhysAddr> {
            let (base, _) = self.locate(addr);
            self.lines[base..base + self.ways]
                .iter()
                .filter(|l| l.valid)
                .map(|l| self.addr_of(base, l.tag))
                .collect()
        }
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

        /// The packed two-word layout behaves exactly like the
        /// `Vec<LineMeta>` reference model under random load, store and
        /// flush sequences, for both replacement policies. Ops are
        /// `(kind, line)`: kind 0 loads, 1 stores, 2 flushes; 32 lines
        /// over 4 sets keep every set under eviction pressure.
        #[test]
        fn packed_lines_match_reference_model(
            srrip in any::<bool>(),
            ops in prop::collection::vec((0u8..3, 0u64..32), 1..300),
        ) {
            let repl = if srrip { ReplacementKind::Srrip } else { ReplacementKind::Lru };
            let mut c = SetAssocCache::new(small_config(repl));
            let mut r = RefCache::new(small_config(repl));
            for (step, (kind, line)) in ops.into_iter().enumerate() {
                let a = PhysAddr(line * 64);
                match kind {
                    0 | 1 => prop_assert_eq!(c.access(a, kind == 1), r.access(a, kind == 1), "step {}", step),
                    _ => prop_assert_eq!(c.flush(a), r.flush(a), "step {}", step),
                }
                for probe in (0..32u64).map(|l| PhysAddr(l * 64)) {
                    prop_assert_eq!(c.probe(probe), r.probe(probe), "step {}", step);
                }
                for set in (0..4u64).map(|s| PhysAddr(s * 64)) {
                    prop_assert_eq!(c.resident_in_set(set), r.resident_in_set(set), "step {}", step);
                }
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
