//! Trace replay through the simulated memory system.
//!
//! Replays a kernel's [`Trace`] on an [`impact_sim::System`] under the
//! configured defense and reports execution time — the Fig. 12 measurement.
//! The core model is in-order and blocking: execution time is the sum of
//! compute gaps and memory latencies, which makes defense-imposed latency
//! padding directly visible.
//!
//! # One front end, several controllers
//!
//! [`replay_lanes`] replays a trace once and reports it for the engine's
//! own controller and for every extra controller it is given, each a
//! [`Lane`] with its own copy of the agent's clock. [`replay`] is the case
//! with no extra controller. Fig. 12 replays each kernel once for its five
//! rows this way, where it used to replay it five times.
//!
//! This is valid because the replaying agent is one in-order, blocking
//! core. Translation, the TLB, the three cache levels, the prefetcher
//! tables and the noise draws then depend on the address sequence alone,
//! never on a latency or on the installed defense, so every controller
//! sees the requests a replay of its own would send it, at the times that
//! replay would send them. Each lane's cycles, row-buffer counts and
//! final DRAM state equal those of a fresh engine over that controller
//! (pinned for Fig. 12's kernels and an LLC-overflowing store sweep).
//!
//! It stops being valid once the front end depends on timing. ROADMAP
//! item 14's four interleaved cores with outstanding misses would order
//! the agents' accesses by their latencies, so that change must prove
//! this equivalence again or give up the lanes.

use impact_core::error::Result;
use impact_core::time::Cycles;
use impact_memctrl::{ControllerBackend, MemoryController};
use impact_sim::{AgentId, Engine, Lane};

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
/// The trace footprint is backed by bank-striped physical memory, whose
/// pages the allocator maps TLB-warm (the paper warms up before
/// measuring, §5.2.1).
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
    Ok(replay_lanes(sys, agent, trace, &mut [])?[0])
}

/// Replays `trace` as `agent` on `sys` once, with `lanes` as extra
/// memory sides (see the module docs). Returns one report per
/// controller: `sys`'s own first, then one per lane in order. Each equals
/// what [`replay`] reports on an engine over that controller.
///
/// # Errors
///
/// [`impact_core::Error::InvalidConfig`], before any access, for a lane
/// whose DRAM geometry differs from `sys`'s or that runs MPR (see
/// [`Engine::lane`]); then as for [`replay`].
pub fn replay_lanes<B: ControllerBackend>(
    sys: &mut Engine<B>,
    agent: AgentId,
    trace: &Trace,
    lanes: &mut [MemoryController],
) -> Result<Vec<ReplayReport>> {
    let mut lanes = lanes
        .iter_mut()
        .map(|ctrl| sys.lane(agent, ctrl))
        .collect::<Result<Vec<Lane<'_>>>>()?;
    let geometry = sys.config().dram_geometry;
    let rotation_bytes = u64::from(geometry.total_banks()) * geometry.row_bytes;
    let rotations = trace.footprint().div_ceil(rotation_bytes).max(1);
    let base = sys.alloc_bank_stripe(agent, rotations)?;

    // Each side's clock and DRAM totals: `sys`'s own, then each lane's.
    let mark = |sys: &Engine<B>, lanes: &[Lane<'_>]| {
        std::iter::once((sys.now(agent), sys.dram_totals()))
            .chain(
                lanes
                    .iter()
                    .map(|l| (l.now(), l.controller().dram_totals())),
            )
            .collect::<Vec<_>>()
    };
    let before = mark(sys, &lanes);
    for op in trace.ops() {
        let gap = Cycles(u64::from(op.gap));
        sys.advance(agent, gap);
        for lane in &mut lanes {
            lane.advance(gap);
        }
        let va = base + u64::from(op.offset);
        sys.access_lanes(agent, va, op.kind == OpKind::Store, &mut lanes)?;
    }
    let after = mark(sys, &lanes);
    Ok(before
        .into_iter()
        .zip(after)
        .map(|((start, s0), (end, s1))| ReplayReport {
            cycles: end - start,
            ops: trace.len() as u64,
            row_hits: s1.hits - s0.hits,
            row_misses: s1.misses - s0.misses,
            row_conflicts: s1.conflicts - s0.conflicts,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::kernels;
    use impact_core::config::SystemConfig;
    use impact_core::Error;
    use impact_memctrl::{Defense, MprPartition};
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
    fn lanes_refuse_mpr_and_a_foreign_geometry_before_any_access() {
        let g = Graph::uniform_random(64, 256, 1);
        let (_, trace) = kernels::bfs(&g, 0);
        let cfg = SystemConfig::paper_table2_noiseless();
        let mut mpr = MemoryController::from_config(&cfg);
        mpr.set_defense(Defense::Mpr(MprPartition::new(16)));
        let wide = MemoryController::from_config(&cfg.clone().with_total_banks(32));
        for bad in [mpr, wide] {
            let mut s = sys();
            let a = s.spawn_agent();
            let mut lanes = [MemoryController::from_config(&cfg), bad];
            let err = replay_lanes(&mut s, a, &trace, &mut lanes).unwrap_err();
            assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
            assert_eq!(s.now(a), Cycles::ZERO);
            assert_eq!(s.dram_totals().total_accesses(), 0);
            assert!(lanes
                .iter()
                .all(|l| l.dram().total_stats().total_accesses() == 0));
        }
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
