//! System configuration mirroring Table 2 of the paper.
//!
//! [`SystemConfig::paper_table2`] reproduces the simulated system used for
//! all evaluations: a 4-core 2.6 GHz OoO x86 CPU, a three-level cache
//! hierarchy, a two-level TLB and a DDR4-2400 main memory with 16 banks in
//! 4 bank groups, 8 KiB rows, an open-row policy and a 100 ns row timeout.

use crate::hash::{fnv1a_u64, FNV_OFFSET};
use crate::time::Clock;

/// DRAM geometry (Fig. 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramGeometry {
    /// Number of memory channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks_per_channel: u32,
    /// Bank groups per rank.
    pub bank_groups_per_rank: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Rows per bank.
    pub rows_per_bank: u64,
    /// Rows per subarray. RowClone's Fast Parallel Mode only works within
    /// a subarray (Seshadri et al., MICRO'13); cross-subarray copies fall
    /// back to the much slower Pipelined Serial Mode.
    pub rows_per_subarray: u64,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
}

impl DramGeometry {
    /// Table 2 geometry: 1 channel, 1 rank, 4 bank groups, 16 banks total,
    /// 8192-byte rows.
    #[must_use]
    pub fn paper_table2() -> DramGeometry {
        DramGeometry {
            channels: 1,
            ranks_per_channel: 1,
            bank_groups_per_rank: 4,
            banks_per_group: 4,
            rows_per_bank: 65536,
            rows_per_subarray: 512,
            row_bytes: 8192,
        }
    }

    /// A geometry identical to Table 2 except for a custom total bank count.
    ///
    /// Used for the side-channel bank sweep of Fig. 11 (1024–8192 banks) and
    /// the "future DRAM devices" discussion (§8.4). The bank count is
    /// distributed over bank groups of 4 banks each.
    ///
    /// # Panics
    ///
    /// Panics if `total_banks` is not a power of two of at least 4 (the
    /// address mapping splits bank indices by shift and mask).
    #[must_use]
    pub fn with_total_banks(total_banks: u32) -> DramGeometry {
        assert!(
            total_banks >= 4 && total_banks.is_power_of_two(),
            "total_banks must be a power of two of at least 4, got {total_banks}"
        );
        DramGeometry {
            bank_groups_per_rank: total_banks / 4,
            ..DramGeometry::paper_table2()
        }
    }

    /// Total number of banks across the whole device.
    #[must_use]
    pub fn total_banks(&self) -> u32 {
        self.channels * self.ranks_per_channel * self.bank_groups_per_rank * self.banks_per_group
    }

    /// Total device capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.total_banks()) * self.rows_per_bank * self.row_bytes
    }
}

impl Default for DramGeometry {
    fn default() -> DramGeometry {
        DramGeometry::paper_table2()
    }
}

/// DRAM timing parameters in nanoseconds (Table 2: DDR4-2400).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// Activate-to-read delay (row activation latency).
    pub t_rcd_ns: f64,
    /// Precharge latency.
    pub t_rp_ns: f64,
    /// Activate-to-activate (same bank) minimum; the paper's Table 2 lists
    /// 13.5 ns.
    pub t_rc_ns: f64,
    /// Column access (CAS) latency. DDR4-2400 CL17 ≈ 14.17 ns.
    pub t_cl_ns: f64,
    /// Data burst transfer time for one cache line (BL8 at DDR4-2400).
    pub t_burst_ns: f64,
    /// Open-row policy timeout: an idle open row is auto-precharged after
    /// this interval (Table 2: 100 ns).
    pub row_timeout_ns: f64,
    /// Extra command/bus turnaround overhead charged to a row conflict, on
    /// top of tRP + tRCD. Calibrated so the conflict-vs-hit delta matches
    /// the paper's measured 74 CPU cycles at 2.6 GHz (§3.1).
    pub conflict_overhead_ns: f64,
}

impl DramTiming {
    /// Table 2 timing for DDR4-2400.
    #[must_use]
    pub fn paper_table2() -> DramTiming {
        DramTiming {
            t_rcd_ns: 13.5,
            t_rp_ns: 13.5,
            t_rc_ns: 13.5,
            t_cl_ns: 14.17,
            t_burst_ns: 3.33,
            row_timeout_ns: 100.0,
            conflict_overhead_ns: 0.7,
        }
    }
}

impl Default for DramTiming {
    fn default() -> DramTiming {
        DramTiming::paper_table2()
    }
}

/// Cache replacement policy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementKind {
    /// Least-recently-used.
    Lru,
    /// Static re-reference interval prediction (2-bit RRPV), as in the
    /// paper's L2/L3 (Table 2).
    Srrip,
}

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLevelConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access latency in CPU cycles.
    pub latency_cycles: u64,
    /// Replacement policy.
    pub replacement: ReplacementKind,
}

impl CacheLevelConfig {
    /// Number of sets implied by size, ways and line size.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` is a positive power-of-two number of
    /// sets of `ways` lines each.
    #[must_use]
    pub fn sets(&self) -> u64 {
        let set_bytes = u64::from(self.ways) * u64::from(self.line_bytes);
        let sets = self.size_bytes / set_bytes;
        assert!(
            sets.is_power_of_two() && sets * set_bytes == self.size_bytes,
            "a {}-byte, {}-way cache of {}-byte lines has no power-of-two set count",
            self.size_bytes,
            self.ways,
            self.line_bytes
        );
        sets
    }
}

/// Two-level TLB configuration (Table 2 MMU row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlbConfig {
    /// L1 DTLB entries (4 KiB pages).
    pub l1_entries: u32,
    /// L1 DTLB latency in cycles.
    pub l1_latency_cycles: u64,
    /// L2 TLB entries.
    pub l2_entries: u32,
    /// L2 TLB latency in cycles.
    pub l2_latency_cycles: u64,
    /// Page-table walk latency in cycles (4-level walk through the cache
    /// hierarchy, abstracted).
    pub walk_latency_cycles: u64,
}

impl TlbConfig {
    /// Table 2 MMU configuration.
    #[must_use]
    pub fn paper_table2() -> TlbConfig {
        TlbConfig {
            l1_entries: 64,
            l1_latency_cycles: 1,
            l2_entries: 1536,
            l2_latency_cycles: 12,
            walk_latency_cycles: 120,
        }
    }
}

impl Default for TlbConfig {
    fn default() -> TlbConfig {
        TlbConfig::paper_table2()
    }
}

/// PiM-related configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimConfig {
    /// Additional latency of a PiM-enabled instruction (access to PEI
    /// system structures); the paper models 3 cycles (§5.2.1, ref. \[67\]).
    pub pei_overhead_cycles: u64,
    /// Transport latency from core to a memory-side PCU (off-chip link +
    /// controller front end), in cycles.
    pub pcu_transport_cycles: u64,
    /// Capacity (tracked regions) of the PMU locality monitor.
    pub locality_monitor_entries: u32,
    /// Number of accesses to the same cache line within the monitor window
    /// at which the PMU classifies the region as high-locality and executes
    /// the PEI host-side.
    pub locality_threshold: u32,
}

impl PimConfig {
    /// Paper-faithful PEI configuration.
    #[must_use]
    pub fn paper_default() -> PimConfig {
        PimConfig {
            pei_overhead_cycles: 3,
            pcu_transport_cycles: 12,
            locality_monitor_entries: 256,
            locality_threshold: 2,
        }
    }
}

impl Default for PimConfig {
    fn default() -> PimConfig {
        PimConfig::paper_default()
    }
}

/// Noise-source configuration (§5.2.3: hardware prefetchers and page-table
/// walkers are simulated to induce noise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Probability that a memory operation triggers a prefetcher-issued
    /// activation of an unrelated row in the same bank.
    pub prefetcher_rate: f64,
    /// Probability that a memory operation incurs a page-table-walk access
    /// that activates an unrelated row.
    pub ptw_rate: f64,
    /// RNG seed for noise injection.
    pub seed: u64,
}

impl NoiseConfig {
    /// Paper-like noise level: both sources enabled at a low rate.
    #[must_use]
    pub fn paper_default() -> NoiseConfig {
        NoiseConfig {
            prefetcher_rate: 0.010,
            ptw_rate: 0.004,
            seed: 0x1337_c0de,
        }
    }

    /// No noise at all (for proof-of-concept and calibration runs).
    #[must_use]
    pub fn none() -> NoiseConfig {
        NoiseConfig {
            prefetcher_rate: 0.0,
            ptw_rate: 0.0,
            seed: 0,
        }
    }
}

impl Default for NoiseConfig {
    fn default() -> NoiseConfig {
        NoiseConfig::paper_default()
    }
}

/// Full simulated system configuration (Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// CPU clock (2.6 GHz).
    pub clock: Clock,
    /// Number of cores.
    pub cores: u32,
    /// L1 data cache.
    pub l1d: CacheLevelConfig,
    /// L2 cache.
    pub l2: CacheLevelConfig,
    /// L3 (last-level) cache. Table 2: 2 MB/core. The simulated
    /// hierarchy (`impact_cache::CacheHierarchy::from_config`) times the
    /// LLC with the CACTI model of its size and ways, so its
    /// `latency_cycles` is printed in Table 2 but never simulated.
    pub l3: CacheLevelConfig,
    /// TLB hierarchy.
    pub tlb: TlbConfig,
    /// DRAM geometry.
    pub dram_geometry: DramGeometry,
    /// DRAM timing.
    pub dram_timing: DramTiming,
    /// Fixed front-end latency of a memory request that reaches the memory
    /// controller: on-chip network + controller queueing + PHY, in cycles.
    pub memctrl_overhead_cycles: u64,
    /// PiM configuration.
    pub pim: PimConfig,
    /// Noise sources.
    pub noise: NoiseConfig,
}

impl SystemConfig {
    /// The paper's Table 2 system.
    #[must_use]
    pub fn paper_table2() -> SystemConfig {
        SystemConfig {
            clock: Clock::paper_default(),
            cores: 4,
            l1d: CacheLevelConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
                latency_cycles: 4,
                replacement: ReplacementKind::Lru,
            },
            l2: CacheLevelConfig {
                size_bytes: 2 * 1024 * 1024,
                ways: 16,
                line_bytes: 64,
                latency_cycles: 16,
                replacement: ReplacementKind::Srrip,
            },
            l3: CacheLevelConfig {
                // 2 MB/core x 4 cores.
                size_bytes: 8 * 1024 * 1024,
                ways: 16,
                line_bytes: 64,
                latency_cycles: 50,
                replacement: ReplacementKind::Srrip,
            },
            tlb: TlbConfig::paper_table2(),
            dram_geometry: DramGeometry::paper_table2(),
            dram_timing: DramTiming::paper_table2(),
            memctrl_overhead_cycles: 45,
            pim: PimConfig::paper_default(),
            noise: NoiseConfig::paper_default(),
        }
    }

    /// Table 2 system without noise sources (for PoC / calibration).
    #[must_use]
    pub fn paper_table2_noiseless() -> SystemConfig {
        SystemConfig {
            noise: NoiseConfig::none(),
            ..SystemConfig::paper_table2()
        }
    }

    /// Same system with a different LLC capacity (for the Fig. 2/9 sweeps).
    #[must_use]
    pub fn with_llc_size(mut self, size_bytes: u64) -> SystemConfig {
        self.l3.size_bytes = size_bytes;
        self
    }

    /// Same system with a different total DRAM bank count (Fig. 11 sweep).
    #[must_use]
    pub fn with_total_banks(mut self, banks: u32) -> SystemConfig {
        self.dram_geometry = DramGeometry::with_total_banks(banks);
        self
    }

    /// A deterministic 64-bit fingerprint over every configuration field.
    ///
    /// Two configurations fingerprint identically iff they are equal, up to
    /// hash collisions; floating-point fields are folded by their IEEE-754
    /// bits, so `-0.0` and `0.0` fingerprint differently (matching the
    /// bit-exactness contract everywhere else in the workspace). Trace
    /// files embed this fingerprint so a replay on a different machine can
    /// prove it is driving the same simulated system the recording ran on.
    ///
    /// Every config struct is destructured exhaustively and every binding
    /// must be used, so a new field fails to compile here until it is
    /// folded in (or named `field: _`, a visible exclusion). `Clock`, whose
    /// field is private to `time.rs`, is destructured the same way there
    /// (`Clock::fold_fingerprint`).
    #[must_use]
    #[deny(unused_variables)]
    pub fn fingerprint(&self) -> u64 {
        fn cache(h: u64, c: &CacheLevelConfig) -> u64 {
            let CacheLevelConfig {
                size_bytes,
                ways,
                line_bytes,
                latency_cycles,
                replacement,
            } = *c;
            let replacement = match replacement {
                ReplacementKind::Lru => 0,
                ReplacementKind::Srrip => 1,
            };
            [
                size_bytes,
                u64::from(ways),
                u64::from(line_bytes),
                latency_cycles,
                replacement,
            ]
            .into_iter()
            .fold(h, fnv1a_u64)
        }
        let SystemConfig {
            clock,
            cores,
            l1d,
            l2,
            l3,
            tlb,
            dram_geometry,
            dram_timing,
            memctrl_overhead_cycles,
            pim,
            noise,
        } = self;
        let TlbConfig {
            l1_entries,
            l1_latency_cycles,
            l2_entries,
            l2_latency_cycles,
            walk_latency_cycles,
        } = *tlb;
        let DramGeometry {
            channels,
            ranks_per_channel,
            bank_groups_per_rank,
            banks_per_group,
            rows_per_bank,
            rows_per_subarray,
            row_bytes,
        } = *dram_geometry;
        let DramTiming {
            t_rcd_ns,
            t_rp_ns,
            t_rc_ns,
            t_cl_ns,
            t_burst_ns,
            row_timeout_ns,
            conflict_overhead_ns,
        } = *dram_timing;
        let PimConfig {
            pei_overhead_cycles,
            pcu_transport_cycles,
            locality_monitor_entries,
            locality_threshold,
        } = *pim;
        let NoiseConfig {
            prefetcher_rate,
            ptw_rate,
            seed,
        } = *noise;
        let mut h = clock.fold_fingerprint(FNV_OFFSET);
        h = fnv1a_u64(h, u64::from(*cores));
        for c in [l1d, l2, l3] {
            h = cache(h, c);
        }
        [
            u64::from(l1_entries),
            l1_latency_cycles,
            u64::from(l2_entries),
            l2_latency_cycles,
            walk_latency_cycles,
            u64::from(channels),
            u64::from(ranks_per_channel),
            u64::from(bank_groups_per_rank),
            u64::from(banks_per_group),
            rows_per_bank,
            rows_per_subarray,
            row_bytes,
            t_rcd_ns.to_bits(),
            t_rp_ns.to_bits(),
            t_rc_ns.to_bits(),
            t_cl_ns.to_bits(),
            t_burst_ns.to_bits(),
            row_timeout_ns.to_bits(),
            conflict_overhead_ns.to_bits(),
            *memctrl_overhead_cycles,
            pei_overhead_cycles,
            pcu_transport_cycles,
            u64::from(locality_monitor_entries),
            u64::from(locality_threshold),
            prefetcher_rate.to_bits(),
            ptw_rate.to_bits(),
            seed,
        ]
        .into_iter()
        .fold(h, fnv1a_u64)
    }
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig::paper_table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Nanos;

    #[test]
    fn table2_geometry() {
        let g = DramGeometry::paper_table2();
        assert_eq!(g.total_banks(), 16);
        assert_eq!(g.row_bytes, 8192);
        // 16 banks x 65536 rows x 8 KiB = 8 GiB.
        assert_eq!(g.capacity_bytes(), 8 << 30);
    }

    #[test]
    fn bank_sweep_geometries() {
        for b in [1024, 2048, 4096, 8192] {
            let g = DramGeometry::with_total_banks(b);
            assert_eq!(g.total_banks(), b);
        }
    }

    #[test]
    #[should_panic(expected = "power of two of at least 4")]
    fn bank_sweep_rejects_odd() {
        let _ = DramGeometry::with_total_banks(12);
    }

    #[test]
    fn conflict_delta_is_74_cycles() {
        // The paper measures a 74-cycle hit-vs-conflict delta (§3.1).
        // Delta = tRP + tRCD + conflict overhead.
        let cfg = SystemConfig::paper_table2();
        let clk = cfg.clock;
        let t = cfg.dram_timing;
        let delta = clk.cycles_ceil(Nanos(t.t_rp_ns)).0
            + clk.cycles_ceil(Nanos(t.t_rcd_ns)).0
            + clk.cycles_ceil(Nanos(t.conflict_overhead_ns)).0;
        assert_eq!(delta, 74);
    }

    #[test]
    fn cache_sets() {
        let cfg = SystemConfig::paper_table2();
        assert_eq!(cfg.l1d.sets(), 64);
        assert_eq!(cfg.l2.sets(), 2048);
        assert_eq!(cfg.l3.sets(), 8192);
    }

    #[test]
    #[should_panic(expected = "no power-of-two set count")]
    fn twelve_way_two_mib_cache_has_no_set_count() {
        // 2 MiB / (12 x 64 B) is 2,730.67 sets.
        let mut cfg = SystemConfig::paper_table2().with_llc_size(2 << 20);
        cfg.l3.ways = 12;
        let _ = cfg.l3.sets();
    }

    #[test]
    fn sweep_builders() {
        let cfg = SystemConfig::paper_table2()
            .with_llc_size(64 << 20)
            .with_total_banks(1024);
        assert_eq!(cfg.l3.size_bytes, 64 << 20);
        assert_eq!(cfg.dram_geometry.total_banks(), 1024);
    }

    #[test]
    fn fingerprints_separate_configurations() {
        let base = SystemConfig::paper_table2();
        assert_eq!(
            base.fingerprint(),
            SystemConfig::paper_table2().fingerprint()
        );
        let mut wider_llc = SystemConfig::paper_table2();
        wider_llc.l3.ways = 32;
        let variants = [
            SystemConfig::paper_table2_noiseless(),
            SystemConfig::paper_table2().with_llc_size(64 << 20),
            wider_llc,
            SystemConfig::paper_table2().with_total_banks(1024),
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{v:?}");
        }
        let mut timing_tweak = SystemConfig::paper_table2();
        timing_tweak.dram_timing.t_rcd_ns += 0.5;
        assert_ne!(base.fingerprint(), timing_tweak.fingerprint());
    }

    #[test]
    fn table2_fingerprints_are_pinned() {
        // Trace headers and the golden capture digests embed these.
        assert_eq!(
            SystemConfig::paper_table2().fingerprint(),
            0x109b_f117_834b_45d1
        );
        assert_eq!(
            SystemConfig::paper_table2_noiseless().fingerprint(),
            0xa12a_2983_e1d9_6d9d
        );
    }

    #[test]
    fn noiseless_config() {
        let cfg = SystemConfig::paper_table2_noiseless();
        assert_eq!(cfg.noise.prefetcher_rate, 0.0);
        assert_eq!(cfg.noise.ptw_rate, 0.0);
    }
}
