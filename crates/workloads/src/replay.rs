//! Trace replay through the simulated memory system.
//!
//! Replays a kernel's [`Trace`] on an [`impact_sim::System`] under the
//! configured defense and reports execution time — the Fig. 12 measurement.
//! The core model is in-order and blocking: execution time is the sum of
//! compute gaps and memory latencies, which makes defense-imposed latency
//! padding directly visible.

use impact_core::error::Result;
use impact_core::time::Cycles;
use impact_memctrl::ControllerBackend;
use impact_sim::{AgentId, Engine};

use crate::trace::{OpKind, Trace};

/// Result of replaying a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Total execution cycles (compute + memory).
    pub cycles: Cycles,
    /// Operations replayed.
    pub ops: u64,
    /// Row-buffer hits observed at DRAM.
    pub row_hits: u64,
    /// Row misses observed at DRAM.
    pub row_misses: u64,
    /// Row conflicts observed at DRAM.
    pub row_conflicts: u64,
}

/// Replays `trace` as `agent` on `sys`.
///
/// The trace footprint is backed by bank-striped physical memory and the
/// TLB is pre-warmed (the paper warms up before measuring, §5.2.1).
///
/// # Errors
///
/// Propagates allocation and access errors (e.g. MPR partition violations
/// when the workload was not granted the banks it touches).
pub fn replay<B: ControllerBackend>(
    sys: &mut Engine<B>,
    agent: AgentId,
    trace: &Trace,
) -> Result<ReplayReport> {
    let geometry = sys.config().dram_geometry;
    let rotation_bytes = u64::from(geometry.total_banks()) * geometry.row_bytes;
    let rotations = trace.footprint().div_ceil(rotation_bytes).max(1);
    let base = sys.alloc_bank_stripe(agent, rotations)?;
    sys.warm_tlb(
        agent,
        base,
        rotations * rotation_bytes / impact_core::addr::PAGE_SIZE,
    );

    let hits0 = sys.dram_totals();
    let start = sys.now(agent);
    for op in trace.ops() {
        sys.advance(agent, Cycles(u64::from(op.gap)));
        let va = base + u64::from(op.offset);
        match op.kind {
            OpKind::Load => sys.load(agent, va)?,
            OpKind::Store => sys.store(agent, va)?,
        };
    }
    let stats = sys.dram_totals();
    Ok(ReplayReport {
        cycles: sys.now(agent) - start,
        ops: trace.len() as u64,
        row_hits: stats.hits - hits0.hits,
        row_misses: stats.misses - hits0.misses,
        row_conflicts: stats.conflicts - hits0.conflicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::kernels;
    use impact_core::config::SystemConfig;
    use impact_memctrl::Defense;
    use impact_sim::System;

    fn sys() -> System {
        System::new(SystemConfig::paper_table2_noiseless())
    }

    #[test]
    fn replay_accounts_time() {
        let g = Graph::uniform_random(64, 256, 1);
        let (_, trace) = kernels::bfs(&g, 0);
        let mut s = sys();
        let a = s.spawn_agent();
        let r = replay(&mut s, a, &trace).unwrap();
        assert_eq!(r.ops, trace.len() as u64);
        assert!(
            r.cycles > Cycles(trace.len() as u64),
            "too fast: {}",
            r.cycles
        );
    }

    #[test]
    fn ctd_slows_replay() {
        let g = Graph::uniform_random(64, 256, 1);
        let (_, trace) = kernels::bfs(&g, 0);

        let mut base_sys = sys();
        let a = base_sys.spawn_agent();
        let base = replay(&mut base_sys, a, &trace).unwrap();

        let mut ctd_sys = sys();
        let b = ctd_sys.spawn_agent();
        ctd_sys.set_defense(Defense::Ctd);
        let ctd = replay(&mut ctd_sys, b, &trace).unwrap();

        assert!(
            ctd.cycles > base.cycles,
            "CTD {} !> baseline {}",
            ctd.cycles,
            base.cycles
        );
    }

    #[test]
    fn xsbench_has_low_locality() {
        let (_, trace) = kernels::xsbench(200, 4096, 32, 2);
        let mut s = sys();
        let a = s.spawn_agent();
        let r = replay(&mut s, a, &trace).unwrap();
        // Random lookups: a meaningful fraction of DRAM traffic misses or
        // conflicts in the row buffer.
        let dram_total = r.row_hits + r.row_misses + r.row_conflicts;
        assert!(dram_total > 0);
        // (Binary-search upper levels and cached table entries produce
        // hits; the random gather still forces a solid miss/conflict tail.)
        assert!(
            r.row_misses + r.row_conflicts > dram_total / 8,
            "unexpectedly row-local: {r:?}"
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let g = Graph::rmat(64, 256, 3);
        let (_, trace) = kernels::cc(&g);
        let run = || {
            let mut s = sys();
            let a = s.spawn_agent();
            replay(&mut s, a, &trace).unwrap().cycles
        };
        assert_eq!(run(), run());
    }
}
