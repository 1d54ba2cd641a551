//! Hardware prefetchers, used as noise sources (§5.2.3).
//!
//! Table 2 lists an IP-stride prefetcher at L1 and a streamer at L2. In the
//! simulator their purpose is to generate extra DRAM row activations that
//! perturb the row-buffer state observed by attackers; both are modelled
//! behaviourally.
//!
//! Each prefetcher's table sits in a [`CowBox`], so an engine fork shares
//! it until either side observes an access. Forks that never run the
//! prefetchers (noiseless configurations disable them) never copy it.
//! Both tables are direct-mapped with a power-of-two length, so a key
//! finds its slot by mask.

use impact_core::addr::{PhysAddr, LINE_SIZE};
use impact_core::cow::CowBox;

/// A prefetch the hardware would like to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Line-aligned target address.
    pub addr: PhysAddr,
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    ip: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// IP-stride prefetcher (Fu et al., MICRO'92): learns a per-instruction
/// stride and prefetches `addr + stride` once confident.
///
/// # Example
///
/// ```
/// use impact_cache::IpStridePrefetcher;
/// use impact_core::addr::PhysAddr;
///
/// let mut p = IpStridePrefetcher::new(16);
/// assert!(p.observe(1, PhysAddr(0)).is_empty());
/// assert!(p.observe(1, PhysAddr(64)).is_empty()); // stride learned
/// let reqs = p.observe(1, PhysAddr(128));          // confident
/// assert_eq!(reqs[0].addr, PhysAddr(192));
/// ```
#[derive(Debug)]
pub struct IpStridePrefetcher {
    table: CowBox<Vec<StrideEntry>>,
    /// `table.len() - 1`.
    mask: u64,
}

impl IpStridePrefetcher {
    /// Creates a prefetcher with `entries` table slots.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two (zero counts as one).
    #[must_use]
    pub fn new(entries: usize) -> IpStridePrefetcher {
        let entries = entries.max(1);
        assert!(
            entries.is_power_of_two(),
            "stride table length {entries} is not a power of two"
        );
        IpStridePrefetcher {
            table: CowBox::new(vec![StrideEntry::default(); entries]),
            mask: entries as u64 - 1,
        }
    }

    /// An independent copy that shares the stride table until either
    /// side writes it.
    #[must_use]
    pub fn fork(&mut self) -> IpStridePrefetcher {
        IpStridePrefetcher {
            table: self.table.fork(),
            mask: self.mask,
        }
    }

    /// Observes a demand access, hit or miss, from instruction `ip` to
    /// `addr` and returns the prefetch to issue, if the stride is
    /// confident.
    pub fn observe(&mut self, ip: u64, addr: PhysAddr) -> Vec<PrefetchRequest> {
        let e = &mut self.table.to_mut()[(ip & self.mask) as usize];
        let addr = addr.line_aligned().0;
        if !e.valid || e.ip != ip {
            *e = StrideEntry {
                ip,
                last_addr: addr,
                stride: 0,
                confidence: 0,
                valid: true,
            };
            return Vec::new();
        }
        let stride = addr as i64 - e.last_addr as i64;
        if stride == 0 {
            return Vec::new();
        }
        if stride == e.stride {
            e.confidence = e.confidence.saturating_add(1);
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        e.last_addr = addr;
        if e.confidence >= 1 {
            let next = addr as i64 + stride;
            if next >= 0 {
                return vec![PrefetchRequest {
                    addr: PhysAddr(next as u64),
                }];
            }
        }
        Vec::new()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StreamEntry {
    zone: u64,
    last_line: u64,
    direction: i64,
    hits: u8,
    valid: bool,
}

/// Streamer prefetcher (Chen & Baer style): detects two misses with a
/// consistent direction inside a 4 KiB zone and prefetches a run of
/// subsequent lines.
#[derive(Debug)]
pub struct StreamerPrefetcher {
    streams: CowBox<Vec<StreamEntry>>,
    /// `streams.len() - 1`.
    mask: u64,
    degree: u32,
}

/// Zone size tracked by the streamer.
const ZONE_BYTES: u64 = 4096;

impl StreamerPrefetcher {
    /// Creates a streamer with `streams` tracked zones issuing `degree`
    /// prefetches when triggered.
    ///
    /// # Panics
    ///
    /// Panics unless `streams` is a power of two (zero counts as one).
    #[must_use]
    pub fn new(streams: usize, degree: u32) -> StreamerPrefetcher {
        let streams = streams.max(1);
        assert!(
            streams.is_power_of_two(),
            "stream table length {streams} is not a power of two"
        );
        StreamerPrefetcher {
            streams: CowBox::new(vec![StreamEntry::default(); streams]),
            mask: streams as u64 - 1,
            degree: degree.max(1),
        }
    }

    /// An independent copy that shares the stream table until either
    /// side writes it.
    #[must_use]
    pub fn fork(&mut self) -> StreamerPrefetcher {
        StreamerPrefetcher {
            streams: self.streams.fork(),
            mask: self.mask,
            degree: self.degree,
        }
    }

    /// Observes a demand access to `addr` (`miss` = it missed the cache
    /// the streamer sits next to; only misses train it) and returns the
    /// prefetches to issue.
    pub fn observe(&mut self, addr: PhysAddr, miss: bool) -> Vec<PrefetchRequest> {
        if !miss {
            return Vec::new();
        }
        let line = addr.line_aligned().0 / LINE_SIZE;
        let zone = addr.0 / ZONE_BYTES;
        let e = &mut self.streams.to_mut()[(zone & self.mask) as usize];
        if !e.valid || e.zone != zone {
            *e = StreamEntry {
                zone,
                last_line: line,
                direction: 0,
                hits: 0,
                valid: true,
            };
            return Vec::new();
        }
        let dir = (line as i64 - e.last_line as i64).signum();
        if dir == 0 {
            return Vec::new();
        }
        if dir == e.direction {
            e.hits = e.hits.saturating_add(1);
        } else {
            e.direction = dir;
            e.hits = 0;
        }
        e.last_line = line;
        if e.hits >= 1 {
            let mut reqs = Vec::new();
            for i in 1..=i64::from(self.degree) {
                let next = line as i64 + dir * i;
                if next >= 0 {
                    reqs.push(PrefetchRequest {
                        addr: PhysAddr(next as u64 * LINE_SIZE),
                    });
                }
            }
            return reqs;
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_stride_learns_and_prefetches() {
        let mut p = IpStridePrefetcher::new(8);
        assert!(p.observe(7, PhysAddr(0)).is_empty());
        assert!(p.observe(7, PhysAddr(128)).is_empty());
        let r = p.observe(7, PhysAddr(256));
        assert_eq!(
            r,
            vec![PrefetchRequest {
                addr: PhysAddr(384)
            }]
        );
    }

    #[test]
    fn ip_stride_resets_on_new_ip() {
        let mut p = IpStridePrefetcher::new(1); // forced aliasing
        p.observe(1, PhysAddr(0));
        p.observe(1, PhysAddr(64));
        // Different ip aliases to the same slot and resets it.
        assert!(p.observe(2, PhysAddr(0)).is_empty());
        assert!(p.observe(2, PhysAddr(64)).is_empty());
    }

    #[test]
    fn ip_stride_irregular_pattern_quiet() {
        let mut p = IpStridePrefetcher::new(8);
        p.observe(1, PhysAddr(0));
        p.observe(1, PhysAddr(64));
        // Stride changes: confidence resets, no prefetch.
        assert!(p.observe(1, PhysAddr(1024)).is_empty());
    }

    #[test]
    fn streamer_triggers_on_directional_misses() {
        let mut p = StreamerPrefetcher::new(4, 2);
        let zone = 0x10_000;
        assert!(p.observe(PhysAddr(zone), true).is_empty());
        assert!(p.observe(PhysAddr(zone + 64), true).is_empty());
        let r = p.observe(PhysAddr(zone + 128), true);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].addr, PhysAddr(zone + 192));
        assert_eq!(r[1].addr, PhysAddr(zone + 256));
    }

    #[test]
    fn streamer_ignores_hits() {
        let mut p = StreamerPrefetcher::new(4, 2);
        for i in 0..8u64 {
            assert!(p.observe(PhysAddr(i * 64), false).is_empty());
        }
    }

    #[test]
    fn streamer_backward_direction() {
        let mut p = StreamerPrefetcher::new(4, 1);
        let top = 0x20_000u64;
        p.observe(PhysAddr(top + 512), true);
        p.observe(PhysAddr(top + 448), true);
        let r = p.observe(PhysAddr(top + 384), true);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].addr, PhysAddr(top + 320));
    }
}
