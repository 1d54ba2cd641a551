//! Three-level inclusive cache hierarchy, built one way
//! ([`CacheHierarchy::from_config`]): L1 and L2 at their configured
//! latencies, the LLC at the CACTI model's latency for its size and ways.

use impact_core::addr::PhysAddr;
use impact_core::config::SystemConfig;
use impact_core::time::Cycles;

use crate::cacti;
use crate::set_assoc::SetAssocCache;

/// Where a load was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Served by the L1 data cache.
    L1,
    /// Served by the L2 cache.
    L2,
    /// Served by the last-level cache.
    L3,
    /// Missed everywhere; must go to main memory.
    Memory,
}

/// Result of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// Where the line was found.
    pub level: HitLevel,
    /// Accumulated lookup latency across the traversed levels. Does **not**
    /// include main-memory latency — that is the memory controller's job.
    pub latency: Cycles,
    /// The line this access's fill evicted from the LLC, with its count
    /// of dirty copies (the LLC's and the L2's): each is one write-back of
    /// that line to memory. `None` when no dirty line left the hierarchy.
    pub dirty_victim: Option<(PhysAddr, u32)>,
}

/// The Table 2 cache hierarchy: 32 KiB L1D (LRU), 2 MiB L2 (SRRIP) and a
/// configurable LLC (SRRIP) timed by the CACTI model, maintained
/// inclusive.
///
/// Inclusivity is the premise of eviction-set attacks: evicting a line from
/// the LLC back-invalidates it from L1/L2, so LLC eviction suffices to push
/// the next access to DRAM. The DRAMA-eviction baseline charges that
/// eviction analytically ([`cacti::eviction_latency`]).
#[derive(Debug)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
}

impl CacheHierarchy {
    /// Builds the hierarchy from a system configuration. L1 and L2 take
    /// their configured latencies; the LLC's latency comes from the CACTI
    /// model ([`cacti::llc_latency`]) of its size and associativity, so
    /// the Fig. 2/3/9 LLC sweeps time each size they simulate. The
    /// configured `l3.latency_cycles` is not used.
    #[must_use]
    pub fn from_config(cfg: &SystemConfig) -> CacheHierarchy {
        let mut l3 = cfg.l3;
        l3.latency_cycles = cacti::llc_latency(l3.size_bytes, l3.ways).0;
        CacheHierarchy {
            l1: SetAssocCache::new(cfg.l1d),
            l2: SetAssocCache::new(cfg.l2),
            l3: SetAssocCache::new(l3),
        }
    }

    /// An independent copy that shares every level's line store until
    /// either side writes it.
    #[must_use]
    pub fn fork(&mut self) -> CacheHierarchy {
        CacheHierarchy {
            l1: self.l1.fork(),
            l2: self.l2.fork(),
            l3: self.l3.fork(),
        }
    }

    /// Latency of an LLC lookup.
    #[must_use]
    pub fn llc_latency(&self) -> Cycles {
        self.l3.latency()
    }

    /// Performs a load, filling caches on the way back.
    pub fn load(&mut self, addr: PhysAddr) -> HierarchyOutcome {
        self.access(addr, false)
    }

    /// Performs a store (write-allocate).
    pub fn store(&mut self, addr: PhysAddr) -> HierarchyOutcome {
        self.access(addr, true)
    }

    fn access(&mut self, addr: PhysAddr, write: bool) -> HierarchyOutcome {
        let addr = addr.line_aligned();
        let mut latency = self.l1.latency();
        if self.l1.access(addr, write).hit {
            return HierarchyOutcome {
                level: HitLevel::L1,
                latency,
                dirty_victim: None,
            };
        }
        latency += self.l2.latency();
        if self.l2.access(addr, write).hit {
            return HierarchyOutcome {
                level: HitLevel::L2,
                latency,
                dirty_victim: None,
            };
        }
        latency += self.l3.latency();
        let l3res = self.l3.access(addr, write);
        let mut dirty_victim = None;
        if let Some(victim) = l3res.evicted {
            // Maintain inclusion: back-invalidate the victim everywhere.
            let l2_dirty = self.l2.flush(victim.addr).is_some_and(|v| v.dirty);
            self.l1.flush(victim.addr);
            let copies = u32::from(victim.dirty) + u32::from(l2_dirty);
            dirty_victim = (copies > 0).then_some((victim.addr, copies));
        }
        let level = if l3res.hit {
            HitLevel::L3
        } else {
            HitLevel::Memory
        };
        HierarchyOutcome {
            level,
            latency,
            dirty_victim,
        }
    }

    /// Executes `clflush`: probes the LLC and invalidates the line from
    /// every level. Returns the flush latency (one LLC lookup — §5.2.2:
    /// "clflush only probes the LLC") and whether a dirty copy must be
    /// written back to memory.
    pub fn clflush(&mut self, addr: PhysAddr) -> (Cycles, bool) {
        let addr = addr.line_aligned();
        let mut dirty = false;
        if let Some(v) = self.l1.flush(addr) {
            dirty |= v.dirty;
        }
        if let Some(v) = self.l2.flush(addr) {
            dirty |= v.dirty;
        }
        if let Some(v) = self.l3.flush(addr) {
            dirty |= v.dirty;
        }
        (self.l3.latency(), dirty)
    }

    /// True if the line is resident at any level.
    #[must_use]
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let addr = addr.line_aligned();
        self.l1.probe(addr) || self.l2.probe(addr) || self.l3.probe(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::from_config(&SystemConfig::paper_table2())
    }

    #[test]
    fn cold_miss_then_l1_hit() {
        let mut h = hierarchy();
        let a = PhysAddr(0x10_000);
        let first = h.load(a);
        assert_eq!(first.level, HitLevel::Memory);
        // Lookup latency = 4 + 16 + 44 = 64 for Table 2 (the CACTI LLC
        // latency at 8 MiB and 16 ways).
        assert_eq!(first.latency, Cycles(64));
        let second = h.load(a);
        assert_eq!(second.level, HitLevel::L1);
        assert_eq!(second.latency, Cycles(4));
    }

    #[test]
    fn clflush_pushes_next_access_to_memory() {
        let mut h = hierarchy();
        let a = PhysAddr(0x2000);
        h.load(a);
        assert!(h.probe(a));
        let (lat, dirty) = h.clflush(a);
        assert_eq!(lat, Cycles(44));
        assert!(!dirty);
        assert!(!h.probe(a));
        assert_eq!(h.load(a).level, HitLevel::Memory);
    }

    #[test]
    fn clflush_reports_dirty() {
        let mut h = hierarchy();
        let a = PhysAddr(0x3000);
        h.store(a);
        let (_, dirty) = h.clflush(a);
        assert!(dirty);
    }

    #[test]
    fn inclusion_back_invalidates() {
        // Fill one LLC set to capacity + 1 with lines also resident in L1;
        // the LLC victim must leave L1 too.
        let cfg = SystemConfig::paper_table2();
        let mut h = CacheHierarchy::from_config(&cfg);
        let sets = cfg.l3.sets();
        let stride = sets * 64;
        let base = PhysAddr(0);
        let lines: Vec<PhysAddr> = (0..=u64::from(cfg.l3.ways))
            .map(|i| PhysAddr(base.0 + i * stride))
            .collect();
        for &l in &lines {
            h.load(l);
        }
        let resident = lines.iter().filter(|&&l| h.probe(l)).count();
        // At least one line must have been evicted from everywhere
        // (inclusion: an LLC victim cannot linger in L1/L2).
        assert!(resident <= cfg.l3.ways as usize);
        let victims: Vec<_> = lines.iter().filter(|&&l| !h.probe(l)).collect();
        for v in victims {
            assert_eq!(h.load(*v).level, HitLevel::Memory);
        }
    }

    #[test]
    fn l2_and_l3_hits() {
        let mut h = hierarchy();
        let a = PhysAddr(0x4000);
        h.load(a); // memory
                   // Evict from L1 only: fill L1's set (8 ways, 64 sets -> stride 4096).
        for i in 1..=8u64 {
            h.load(PhysAddr(a.0 + i * 64 * 64));
        }
        let again = h.load(a);
        assert!(
            again.level == HitLevel::L2 || again.level == HitLevel::L3,
            "expected L2/L3 hit, got {:?}",
            again.level
        );
    }

    #[test]
    fn cacti_llc_latency_used_in_sweeps() {
        let cfg = SystemConfig::paper_table2().with_llc_size(128 << 20);
        let h = CacheHierarchy::from_config(&cfg);
        assert_eq!(h.llc_latency(), cacti::llc_latency(128 << 20, 16));
        assert!(h.llc_latency() > Cycles(300));
    }
}
