//! Set-associative cache with pluggable replacement.
//!
//! Each line is two words, `[tag, meta]`, packed as
//! `meta = stamp << 4 | rrpv << 2 | dirty << 1 | valid`. The all-zero
//! pair is an invalid line. No other initial value is needed, because
//! nothing reads the `stamp` or `rrpv` of an invalid line: victim choice
//! takes an invalid way before it reads either field, and SRRIP ages only
//! full sets. `stamp` is the access tick, so the 60-bit field bounds a
//! cache's lifetime at 2^60 accesses (checked in debug builds).
//!
//! The lines live in chunks of 16 sets (`CHUNK_SETS`), each allocated
//! zeroed on the first write to a set in it, as the page table allocates
//! its radix leaves. A set in an unallocated chunk reads as all-invalid,
//! so a new cache allocates only its chunk table, and a run's memory
//! follows the sets it writes: a 128 MiB LLC costs next to nothing until
//! it fills, whatever the allocator does with freed blocks.
//!
//! The chunk table lives in a [`CowBox`] so forks of a warmed cache are
//! O(1): parent and fork share the table, and the first write on either
//! side copies it together with the chunks it points to.
//!
//! The line size and the set count are powers of two (`new` checks), so
//! an address splits into set and tag by shifts and a mask, as
//! `RowInterleaved` splits bank addresses.

use impact_core::addr::PhysAddr;
use impact_core::config::{CacheLevelConfig, ReplacementKind};
use impact_core::cow::CowBox;
use impact_core::time::Cycles;

/// Maximum re-reference prediction value for 2-bit SRRIP.
const RRPV_MAX: u8 = 3;
/// Insertion RRPV for SRRIP ("long re-reference interval").
const RRPV_INSERT: u8 = 2;

/// One line: `[tag, meta]`, see the module docs. `[0, 0]` is invalid.
type Line = [u64; 2];

/// Sets per chunk of the line store. A power of two, so a set's chunk and
/// its offset in the chunk are a shift and a mask; at 16 ways a chunk is
/// one 4 KiB page.
const CHUNK_SETS: u64 = 16;

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
#[derive(Debug)]
pub struct SetAssocCache {
    cfg: CacheLevelConfig,
    sets: u64,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    /// Chunk `i` holds the lines of sets `i * CHUNK_SETS ..`, `ways` per
    /// set; `None` until one of those sets is first written.
    chunks: CowBox<Vec<Option<Box<[Line]>>>>,
    tick: u64,
}

impl SetAssocCache {
    /// Builds an empty cache. Only the chunk table is allocated; a chunk of
    /// lines is allocated when one of its sets is first written.
    ///
    /// # Panics
    ///
    /// Panics if the line size or the set count is not a power of two.
    #[must_use]
    pub fn new(cfg: CacheLevelConfig) -> SetAssocCache {
        let sets = cfg.sets();
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "cache line size must be a power of two"
        );
        SetAssocCache {
            cfg,
            sets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            chunks: CowBox::new(vec![None; sets.div_ceil(CHUNK_SETS) as usize]),
            tick: 0,
        }
    }

    /// An independent copy that shares the line store until either side
    /// writes it.
    #[must_use]
    pub fn fork(&mut self) -> SetAssocCache {
        SetAssocCache {
            cfg: self.cfg,
            sets: self.sets,
            line_shift: self.line_shift,
            set_shift: self.set_shift,
            chunks: self.chunks.fork(),
            tick: self.tick,
        }
    }

    /// Configuration of this level.
    #[must_use]
    pub fn config(&self) -> &CacheLevelConfig {
        &self.cfg
    }

    /// Access latency of this level.
    #[must_use]
    pub fn latency(&self) -> Cycles {
        Cycles(self.cfg.latency_cycles)
    }

    /// `(set, tag)` of an address: `line % sets` and `line / sets` of its
    /// line number.
    #[inline]
    fn set_and_tag(&self, addr: PhysAddr) -> (u64, u64) {
        let line = addr.0 >> self.line_shift;
        (line & (self.sets - 1), line >> self.set_shift)
    }

    /// The line-aligned address of `tag` in `set`.
    fn addr_of(&self, set: u64, tag: u64) -> PhysAddr {
        PhysAddr(((tag << self.set_shift) | set) << self.line_shift)
    }

    /// The set's chunk and the index of its first way in that chunk.
    fn locate_set(&self, set: u64) -> (usize, usize) {
        let offset = (set % CHUNK_SETS) as usize * self.cfg.ways as usize;
        ((set / CHUNK_SETS) as usize, offset)
    }

    /// The set's lines; empty while its chunk is unallocated, which reads
    /// as a set of invalid lines.
    fn set_slice(&self, set: u64) -> &[Line] {
        let (chunk, offset) = self.locate_set(set);
        match &self.chunks[chunk] {
            Some(lines) => &lines[offset..offset + self.cfg.ways as usize],
            None => &[],
        }
    }

    /// The set's lines for mutation: copies the chunk table first if a
    /// fork still shares it, and allocates the set's chunk on its first
    /// write.
    fn set_slice_mut(&mut self, set: u64) -> &mut [Line] {
        let (chunk, offset) = self.locate_set(set);
        let ways = self.cfg.ways as usize;
        let lines = self.chunks.to_mut()[chunk]
            .get_or_insert_with(|| vec![[0u64; 2]; CHUNK_SETS as usize * ways].into_boxed_slice());
        &mut lines[offset..offset + ways]
    }

    /// True if the line is currently cached (no state change).
    #[must_use]
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.set_slice(set).iter().any(|l| holds(l, tag))
    }

    /// Accesses a line, filling it on a miss; returns hit/miss and any
    /// victim evicted by the fill.
    pub fn access(&mut self, addr: PhysAddr, write: bool) -> AccessResult {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.set_and_tag(addr);
        let repl = self.cfg.replacement;
        let lines = self.set_slice_mut(set);

        // Hit path: restamp for LRU, promote to RRPV 0 for SRRIP.
        if let Some(line) = lines.iter_mut().find(|l| holds(l, tag)) {
            *line = valid_line(tag, is_dirty(line) || write, tick, 0);
            return AccessResult {
                hit: true,
                evicted: None,
            };
        }

        // Miss: fill over the chosen victim.
        let way = choose_victim(lines, repl);
        let victim = std::mem::replace(&mut lines[way], valid_line(tag, write, tick, RRPV_INSERT));
        let evicted = is_valid(&victim).then(|| EvictedLine {
            addr: self.addr_of(set, victim[0]),
            dirty: is_dirty(&victim),
        });
        AccessResult {
            hit: false,
            evicted,
        }
    }

    /// Invalidates (flushes) a line if present, returning it.
    ///
    /// Models `clflush`: the line is removed from this level; the caller is
    /// responsible for charging any write-back latency if the line was
    /// dirty. Flushing an absent line writes nothing.
    pub fn flush(&mut self, addr: PhysAddr) -> Option<EvictedLine> {
        let (set, tag) = self.set_and_tag(addr);
        let way = self.set_slice(set).iter().position(|l| holds(l, tag))?;
        // Taking the line leaves `[0, 0]`, an invalid line.
        let line = std::mem::take(&mut self.set_slice_mut(set)[way]);
        Some(EvictedLine {
            addr: self.addr_of(set, tag),
            dirty: is_dirty(&line),
        })
    }

    /// Addresses currently resident in the set containing `addr`.
    #[cfg(test)]
    fn resident_in_set(&self, addr: PhysAddr) -> Vec<PhysAddr> {
        let set = self.set_and_tag(addr).0;
        self.set_slice(set)
            .iter()
            .filter(|l| is_valid(l))
            .map(|l| self.addr_of(set, l[0]))
            .collect()
    }

    /// Number of allocated chunks.
    #[cfg(test)]
    fn allocated_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }
}

/// The way a miss in `lines` (one set) fills.
fn choose_victim(lines: &mut [Line], repl: ReplacementKind) -> usize {
    // Prefer an invalid way. Past this point the set is full, so every
    // stamp and RRPV read below belongs to a valid line.
    if let Some(idx) = lines.iter().position(|l| !is_valid(l)) {
        return idx;
    }
    match repl {
        ReplacementKind::Lru => lines
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| stamp(l))
            .map(|(i, _)| i)
            .expect("non-empty set"),
        ReplacementKind::Srrip => {
            // Find a line with RRPV == MAX, aging all lines until one
            // appears.
            loop {
                if let Some(idx) = lines.iter().position(|l| rrpv(l) >= RRPV_MAX) {
                    return idx;
                }
                // Every RRPV is below MAX here, so the increment stays
                // inside its two bits.
                for l in lines.iter_mut() {
                    l[1] += 1 << RRPV_SHIFT;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_core::config::SystemConfig;

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
        let stride = cache.config().sets() * 64;
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
        assert_eq!(c.set_and_tag(PhysAddr(0)), (0, 0));
        assert_eq!(c.set_and_tag(PhysAddr(64)), (1, 0));
        assert_eq!(c.set_and_tag(PhysAddr(64 * 4)), (0, 1));
    }

    #[test]
    fn chunks_are_allocated_on_first_write() {
        // fig9's largest point: 2M lines in 131,072 sets, 8,192 chunks.
        let llc = SystemConfig::paper_table2().with_llc_size(128 << 20).l3;
        let mut c = SetAssocCache::new(llc);
        assert_eq!(c.allocated_chunks(), 0);
        let a = PhysAddr(0x1234_5640);
        assert!(!c.probe(a));
        assert!(c.resident_in_set(a).is_empty());
        assert_eq!(c.flush(a), None);
        assert_eq!(c.allocated_chunks(), 0, "reads and absent flushes allocate");
        c.access(a, false);
        assert_eq!(c.allocated_chunks(), 1);
    }

    #[test]
    fn fork_writes_leave_the_parent_unchanged() {
        // 64 sets x 2 ways: four chunks. The parent fills set 0 (chunk 0).
        let mut parent = SetAssocCache::new(CacheLevelConfig {
            size_bytes: 2 * 64 * 64,
            ..cfg(2, ReplacementKind::Lru)
        });
        let own = congruent(&parent, PhysAddr(0), 2);
        for &a in &own {
            parent.access(a, true);
        }
        let in_shared = congruent(&parent, PhysAddr(0), 3)[2];
        let in_new = PhysAddr(CHUNK_SETS * 64);
        let probes = [own[0], own[1], in_shared, in_new];
        let answers = probes.map(|a| parent.probe(a));

        let mut child = parent.fork();
        assert_eq!(child.flush(in_new), None);
        assert!(
            std::ptr::eq(&*parent.chunks, &*child.chunks),
            "flushing an absent line unshared the chunk table"
        );
        // An eviction in the chunk both share, then a fill in a chunk only
        // the child allocates.
        assert_eq!(
            child.access(in_shared, false).evicted,
            Some(EvictedLine {
                addr: own[0],
                dirty: true
            })
        );
        child.access(in_new, false);
        assert_eq!(
            (parent.allocated_chunks(), child.allocated_chunks()),
            (1, 2)
        );
        assert_eq!(probes.map(|a| parent.probe(a)), answers);
        assert_eq!(probes.map(|a| child.probe(a)), [false, true, true, true]);
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

    /// 64 sets x 4 ways: four chunks of the line store.
    fn chunked_config(replacement: ReplacementKind) -> CacheLevelConfig {
        CacheLevelConfig {
            size_bytes: 4 * 64 * 64,
            ..small_config(replacement)
        }
    }

    /// The sets the reference-model ops write: both ends of chunk 0, the
    /// first set of chunk 1 and the last set of chunk 2.
    const WRITTEN_SETS: [u64; 4] = [0, 15, 16, 47];
    /// A set in chunk 3, which the ops probe and flush but never write.
    const UNWRITTEN_SET: u64 = 50;

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

        /// The packed two-word layout in its chunk store behaves exactly
        /// like the `Vec<LineMeta>` reference model under random load,
        /// store and flush sequences, for both replacement policies. Ops
        /// are `(kind, set, tag)` on a 64-set cache (four chunks): kind 0
        /// loads, 1 stores and 2 flushes a line of `WRITTEN_SETS[set]`; 3
        /// flushes a line of `UNWRITTEN_SET`, whose chunk is never
        /// written. Eight tags per set over four ways keep every written
        /// chunk under eviction pressure.
        #[test]
        fn packed_lines_match_reference_model(
            srrip in any::<bool>(),
            ops in prop::collection::vec((0u8..4, 0usize..4, 0u64..8), 1..300),
        ) {
            let repl = if srrip { ReplacementKind::Srrip } else { ReplacementKind::Lru };
            let mut c = SetAssocCache::new(chunked_config(repl));
            let mut r = RefCache::new(chunked_config(repl));
            let line = |set: u64, tag: u64| PhysAddr((tag * 64 + set) * 64);
            let all_sets: Vec<u64> = WRITTEN_SETS.into_iter().chain([UNWRITTEN_SET]).collect();
            for (step, (kind, set, tag)) in ops.into_iter().enumerate() {
                let a = line(WRITTEN_SETS[set], tag);
                match kind {
                    0 | 1 => prop_assert_eq!(c.access(a, kind == 1), r.access(a, kind == 1), "step {}", step),
                    2 => prop_assert_eq!(c.flush(a), r.flush(a), "step {}", step),
                    _ => {
                        let a = line(UNWRITTEN_SET, tag);
                        prop_assert_eq!(c.flush(a), r.flush(a), "step {}", step);
                    }
                }
                for &set in &all_sets {
                    for tag in 0..8 {
                        prop_assert_eq!(c.probe(line(set, tag)), r.probe(line(set, tag)), "step {}", step);
                    }
                    prop_assert_eq!(c.resident_in_set(line(set, 0)), r.resident_in_set(line(set, 0)), "step {}", step);
                }
                prop_assert!(c.chunks[(UNWRITTEN_SET / CHUNK_SETS) as usize].is_none());
            }
        }

        /// Under LRU, filling a set with `ways` fresh lines evicts
        /// everything older, deterministically.
        #[test]
        fn lru_eviction_is_deterministic(base in 0u64..256) {
            let mut c = small_cache();
            let base = PhysAddr(base * 64);
            let stride = c.config().sets() * 64;
            c.access(base, false);
            for i in 1..=4u64 {
                c.access(PhysAddr(base.0 + i * stride), false);
            }
            prop_assert!(!c.probe(base), "LRU kept the oldest line");
        }
    }
}
