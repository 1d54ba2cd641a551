//! DRAM timing parameters resolved to CPU cycles.

use impact_core::config::DramTiming;
use impact_core::time::{Clock, Cycles, Nanos};

/// DRAM timing parameters converted to CPU cycles for a given clock.
///
/// # Example
///
/// ```
/// use impact_core::config::DramTiming;
/// use impact_core::time::Clock;
/// use impact_dram::ResolvedTiming;
///
/// let t = ResolvedTiming::resolve(&DramTiming::paper_table2(), Clock::paper_default());
/// assert_eq!(t.t_rcd.0, 36);
/// assert_eq!(t.t_rp.0, 36);
/// // Conflict pays tRP + tRCD + command overhead = 74 extra cycles.
/// assert_eq!((t.conflict_latency() - t.hit_latency()).0, 74);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedTiming {
    /// Activate-to-CAS delay.
    pub t_rcd: Cycles,
    /// Precharge latency.
    pub t_rp: Cycles,
    /// Activate-to-activate minimum (same bank).
    pub t_rc: Cycles,
    /// CAS latency.
    pub t_cl: Cycles,
    /// Burst transfer time for one cache line.
    pub t_burst: Cycles,
    /// Idle row timeout (used when the row policy enables eager closing).
    pub row_timeout: Cycles,
    /// Extra command/bus overhead on a conflict.
    pub conflict_overhead: Cycles,
}

impl ResolvedTiming {
    /// Converts nanosecond timing into cycles under `clock`.
    #[must_use]
    pub fn resolve(timing: &DramTiming, clock: Clock) -> ResolvedTiming {
        ResolvedTiming {
            t_rcd: clock.cycles_ceil(Nanos(timing.t_rcd_ns)),
            t_rp: clock.cycles_ceil(Nanos(timing.t_rp_ns)),
            t_rc: clock.cycles_ceil(Nanos(timing.t_rc_ns)),
            t_cl: clock.cycles_ceil(Nanos(timing.t_cl_ns)),
            t_burst: clock.cycles_ceil(Nanos(timing.t_burst_ns)),
            row_timeout: clock.cycles_ceil(Nanos(timing.row_timeout_ns)),
            conflict_overhead: clock.cycles_ceil(Nanos(timing.conflict_overhead_ns)),
        }
    }

    /// Latency of a row-buffer hit: CAS + burst.
    #[must_use]
    pub fn hit_latency(&self) -> Cycles {
        self.t_cl + self.t_burst
    }

    /// Latency of a closed-bank miss: ACT + CAS + burst.
    #[must_use]
    pub fn miss_latency(&self) -> Cycles {
        self.t_rcd + self.hit_latency()
    }

    /// Latency of a row conflict: PRE + ACT + CAS + burst + overhead.
    #[must_use]
    pub fn conflict_latency(&self) -> Cycles {
        self.t_rp + self.t_rcd + self.hit_latency() + self.conflict_overhead
    }

    /// Worst-case access latency (used by the CTD/ACT defenses).
    #[must_use]
    pub fn worst_case_latency(&self) -> Cycles {
        self.conflict_latency()
    }

    /// RowClone FPM latency when the bank is precharged: two back-to-back
    /// activations.
    #[must_use]
    pub fn rowclone_closed_latency(&self) -> Cycles {
        self.t_rcd * 2
    }

    /// RowClone FPM latency when the source row is already open: a single
    /// additional activation connects the destination row.
    #[must_use]
    pub fn rowclone_hit_latency(&self) -> Cycles {
        self.t_rcd
    }

    /// RowClone FPM latency when a different row is open: precharge first.
    #[must_use]
    pub fn rowclone_conflict_latency(&self) -> Cycles {
        self.t_rp + self.t_rcd * 2 + self.conflict_overhead
    }

    /// RowClone Pipelined Serial Mode latency for a cross-subarray copy of
    /// `lines` cache lines: the row is streamed through the shared
    /// internal bus one line at a time (MICRO'13 reports ~10x slower than
    /// FPM for an 8 KiB row).
    #[must_use]
    pub fn rowclone_psm_latency(&self, lines: u64) -> Cycles {
        self.t_rcd * 2 + self.t_burst * lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> ResolvedTiming {
        ResolvedTiming::resolve(&DramTiming::paper_table2(), Clock::paper_default())
    }

    #[test]
    fn paper_values() {
        let t = t();
        assert_eq!(t.t_rcd, Cycles(36));
        assert_eq!(t.t_rp, Cycles(36));
        assert_eq!(t.t_cl, Cycles(37));
        assert_eq!(t.row_timeout, Cycles(260));
    }

    #[test]
    fn latency_ordering() {
        let t = t();
        assert!(t.hit_latency() < t.miss_latency());
        assert!(t.miss_latency() < t.conflict_latency());
        assert_eq!(t.worst_case_latency(), t.conflict_latency());
    }

    #[test]
    fn conflict_penalty_is_74() {
        let t = t();
        assert_eq!(t.conflict_latency() - t.hit_latency(), Cycles(74));
    }

    #[test]
    fn rowclone_latency_ordering() {
        let t = t();
        assert!(t.rowclone_hit_latency() < t.rowclone_closed_latency());
        assert!(t.rowclone_closed_latency() < t.rowclone_conflict_latency());
    }

    #[test]
    fn psm_much_slower_than_fpm() {
        let t = t();
        let psm = t.rowclone_psm_latency(128);
        assert!(psm > t.rowclone_closed_latency() * 8, "PSM {psm} too fast");
    }

    #[test]
    fn custom_clock_scales() {
        let fast = ResolvedTiming::resolve(&DramTiming::paper_table2(), Clock::from_ghz(5.2));
        let slow = t();
        assert!(fast.t_rcd > slow.t_rcd);
    }
}
