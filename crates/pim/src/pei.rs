//! PiM-Enabled Instructions (PEI), the PnM substrate (Ahn et al., ISCA'15).
//!
//! The PEI architecture (§4.1 of the paper) has two key components:
//!
//! * **PCUs** (PEI Computation Units) near each DRAM bank and in the CPU:
//!   we model the memory-side PCU as a fixed transport latency plus a
//!   direct DRAM access, and charge the 3-cycle PEI bookkeeping overhead
//!   the paper takes from the PEI proposal.
//! * **PMU** (PEI Management Unit) with a *locality monitor*: application
//!   regions with high data locality execute host-side to benefit from
//!   caches; low-locality regions execute memory-side. The monitor is a
//!   small direct-mapped table of per-line access counters.
//!
//! [`PeiEngine::decide`] is the PMU's decision; it reads and updates the
//! line's counter in one step. The system simulator calls it for every
//! monitored PEI and times a host-side PEI through its own cache
//! hierarchy; [`PeiEngine::execute_memory_side`] times a memory-side one,
//! including the explicitly offloaded PEIs that never consult the monitor.
//!
//! The monitor's table sits in a [`CowBox`], so an engine fork shares it
//! until either side runs a PEI through the PMU. Forks that only issue
//! explicitly offloaded PEIs (the path the fleet's sessions take) never
//! copy it. The table's length is a power of two (Table 2's 256 entries),
//! so a line finds its slot by mask.

use impact_core::addr::PhysAddr;
use impact_core::config::PimConfig;
use impact_core::cow::CowBox;
use impact_core::engine::{MemRequest, MemResponse, MemoryBackend};
use impact_core::error::Result;
use impact_core::time::Cycles;

/// Where the PMU decided to execute a PEI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecSite {
    /// Executed on the host-side PCU, through the cache hierarchy.
    Host,
    /// Executed on the memory-side PCU next to the DRAM bank.
    MemorySide,
}

#[derive(Debug, Clone, Copy, Default)]
struct MonitorEntry {
    line: u64,
    count: u32,
    valid: bool,
}

/// The PMU locality monitor: a direct-mapped table of per-line counters.
///
/// A PEI whose target line has been seen at least `threshold` times in the
/// table is classified high-locality (host execution). Attackers bypass it
/// by touching a fresh cache line per operation (§4.1: "The receiver
/// accesses the next cache line in the initialized row").
#[derive(Debug)]
pub struct LocalityMonitor {
    entries: CowBox<Vec<MonitorEntry>>,
    /// `entries.len() - 1`.
    mask: u64,
    threshold: u32,
}

impl LocalityMonitor {
    /// Creates a monitor with `entries` slots and the given threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two (zero counts as one).
    #[must_use]
    pub fn new(entries: u32, threshold: u32) -> LocalityMonitor {
        let entries = entries.max(1);
        assert!(
            entries.is_power_of_two(),
            "locality monitor length {entries} is not a power of two"
        );
        LocalityMonitor {
            entries: CowBox::new(vec![MonitorEntry::default(); entries as usize]),
            mask: u64::from(entries - 1),
            threshold: threshold.max(1),
        }
    }

    /// An independent copy that shares the counter table until either
    /// side writes it.
    #[must_use]
    pub fn fork(&mut self) -> LocalityMonitor {
        LocalityMonitor {
            entries: self.entries.fork(),
            mask: self.mask,
            threshold: self.threshold,
        }
    }

    /// Observes an access to `line` and reports whether the PMU considers
    /// it high-locality *before* this access.
    pub fn observe(&mut self, line: u64) -> bool {
        let threshold = self.threshold;
        let e = &mut self.entries.to_mut()[(line & self.mask) as usize];
        if e.valid && e.line == line {
            let high = e.count >= threshold;
            e.count = e.count.saturating_add(1);
            high
        } else {
            *e = MonitorEntry {
                line,
                count: 1,
                valid: true,
            };
            false
        }
    }
}

/// The PEI engine: PMU + memory-side PCU timing.
#[derive(Debug)]
pub struct PeiEngine {
    cfg: PimConfig,
    monitor: LocalityMonitor,
}

impl PeiEngine {
    /// Creates a PEI engine from the PiM configuration.
    #[must_use]
    pub fn new(cfg: PimConfig) -> PeiEngine {
        PeiEngine {
            monitor: LocalityMonitor::new(cfg.locality_monitor_entries, cfg.locality_threshold),
            cfg,
        }
    }

    /// An independent copy that shares the locality monitor's table until
    /// either side writes it.
    #[must_use]
    pub fn fork(&mut self) -> PeiEngine {
        PeiEngine {
            cfg: self.cfg,
            monitor: self.monitor.fork(),
        }
    }

    /// The PiM configuration.
    #[must_use]
    pub fn config(&self) -> &PimConfig {
        &self.cfg
    }

    /// PMU decision for a PEI targeting `addr` (also updates the monitor).
    pub fn decide(&mut self, addr: PhysAddr) -> ExecSite {
        if self.monitor.observe(addr.line_number()) {
            ExecSite::Host
        } else {
            ExecSite::MemorySide
        }
    }

    /// The cycles a memory-side PEI spends outside DRAM: the PEI
    /// bookkeeping overhead plus the transport to the bank's PCU.
    #[must_use]
    pub fn pcu_overhead(&self) -> Cycles {
        Cycles(self.cfg.pei_overhead_cycles + self.cfg.pcu_transport_cycles)
    }

    /// Executes a PEI memory-side (used once the attacker has arranged to
    /// bypass the monitor; also the path for explicitly offloaded
    /// regions): the PiM request reaches `mem` after
    /// [`PeiEngine::pcu_overhead`], and the reply is `mem`'s own with that
    /// overhead added to its latency.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn execute_memory_side<B: MemoryBackend>(
        &self,
        mem: &mut B,
        addr: PhysAddr,
        now: Cycles,
        actor: u32,
    ) -> Result<MemResponse> {
        let overhead = self.pcu_overhead();
        let mut reply = mem.service(&MemRequest::pim(addr, now + overhead, actor))?;
        reply.latency += overhead;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_core::config::SystemConfig;
    use impact_core::engine::RowBufferKind;
    use impact_memctrl::MemoryController;

    fn setup() -> (MemoryController, PeiEngine) {
        let cfg = SystemConfig::paper_table2();
        (MemoryController::from_config(&cfg), PeiEngine::new(cfg.pim))
    }

    #[test]
    fn hot_lines_go_host_side() {
        let mut pei = setup().1;
        let addr = PhysAddr(0x40);
        // Cold lines go memory-side until the monitor passes the
        // threshold (2).
        assert_eq!(pei.decide(addr), ExecSite::MemorySide);
        assert_eq!(pei.decide(addr), ExecSite::MemorySide);
        assert_eq!(pei.decide(addr), ExecSite::Host);
    }

    #[test]
    fn attacker_bypasses_monitor_with_fresh_lines() {
        // Accessing a different cache line in the row each time keeps every
        // PEI memory-side (the IMPACT-PnM strategy).
        let mut pei = setup().1;
        for i in 0..64u64 {
            assert_eq!(
                pei.decide(PhysAddr(i * 64)),
                ExecSite::MemorySide,
                "iteration {i}"
            );
        }
    }

    #[test]
    fn memory_side_observes_row_buffer_state() {
        let (mut mc, pei) = setup();
        let row_bytes = mc.dram().geometry().row_bytes;
        // Two lines in the same row of bank 0 (row-interleaved: first
        // row_bytes bytes are bank 0 row 0).
        let a = PhysAddr(0);
        let b = PhysAddr(64);
        let first = pei.execute_memory_side(&mut mc, a, Cycles(0), 0).unwrap();
        assert_eq!(first.kind, RowBufferKind::Miss);
        let second = pei
            .execute_memory_side(&mut mc, b, first.completed_at, 0)
            .unwrap();
        assert_eq!(second.kind, RowBufferKind::Hit);
        // A line one full rotation later lands in bank 0, next row.
        let c = PhysAddr(16 * row_bytes);
        let third = pei
            .execute_memory_side(&mut mc, c, second.completed_at, 0)
            .unwrap();
        assert_eq!(third.kind, RowBufferKind::Conflict);
        // The 74-cycle signal survives the PEI path.
        assert_eq!(third.latency - second.latency, Cycles(74));
    }

    #[test]
    fn pei_overhead_charged() {
        let (mut mc, pei) = setup();
        assert_eq!(pei.pcu_overhead(), Cycles(3 + 12));
        let out = pei
            .execute_memory_side(&mut mc, PhysAddr(0), Cycles(0), 0)
            .unwrap();
        let bare = {
            let cfg = SystemConfig::paper_table2();
            let mut mc2 = MemoryController::from_config(&cfg);
            mc2.service(&MemRequest::load(PhysAddr(0), Cycles(0), 0))
                .unwrap()
        };
        assert_eq!(out.latency, bare.latency + Cycles(3 + 12));
        assert_eq!(out.completed_at, bare.completed_at + Cycles(3 + 12));
        assert_eq!(
            (out.bank, out.row, out.kind),
            (bare.bank, bare.row, bare.kind)
        );
    }

    #[test]
    fn monitor_aliasing_evicts() {
        let mut m = LocalityMonitor::new(1, 2);
        assert!(!m.observe(1));
        assert!(!m.observe(1));
        assert!(m.observe(1));
        // A different line aliases to the single slot and resets it.
        assert!(!m.observe(2));
        assert!(!m.observe(1));
    }
}
