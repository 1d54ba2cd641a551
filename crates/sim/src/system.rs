//! System instantiations of the generic [`Engine`].
//!
//! | alias | backend | use it for |
//! |---|---|---|
//! | [`System`] | [`MemoryController`] | the paper's Table 2 machine: every experiment |
//! | [`TracedSystem`] | [`TracingBackend`]`<MemoryController, W>` | recording a replayable trace into a sink `W` |
//!
//! Both share the defense/blocking/row-policy hooks via the generic
//! `impl<B: ControllerBackend> Engine<B>` block, so attack code written
//! against those hooks records through the tracing proxy unchanged.

use std::io::Write;

use impact_core::config::SystemConfig;
use impact_core::error::Result;
use impact_core::trace::{TraceHeader, TraceSummary, TraceWriter, TracingBackend};
use impact_dram::{BankStats, RowPolicy};
use impact_memctrl::{ControllerBackend, Defense, MemoryController, PeriodicBlock};

use crate::engine::Engine;
// Source compatibility: these types predate the engine split and were
// exported from this module.
pub use crate::engine::{AgentId, LoadInfo, PimInfo, RowCloneInfo, SimParams};

/// The simulated PiM-enabled system (the paper's Table 2 machine): the
/// generic simulation [`Engine`] instantiated with the default
/// [`MemoryController`] backend.
pub type System = Engine<MemoryController>;

/// The engine over a tracing proxy around the default controller: streams
/// a replayable trace of every request that reaches memory into `W`.
pub type TracedSystem<W = Box<dyn Write + Send>> = Engine<TracingBackend<MemoryController, W>>;

/// The controller behind a trait object (see [`BackendKind::backend`]).
pub type DynBackend = Box<dyn ControllerBackend>;

impl System {
    /// Builds the system with default harness parameters and the LLC
    /// latency taken from the CACTI model (so LLC sweeps time correctly).
    #[must_use]
    pub fn new(cfg: SystemConfig) -> System {
        let mc = MemoryController::from_config(&cfg);
        Engine::with_backend(cfg, SimParams::default(), mc)
    }
}

impl<W: Write> TracedSystem<W> {
    /// Builds the system over a tracing proxy around a fresh default
    /// controller, streaming every memory event into `sink` as a versioned
    /// on-disk trace; seal it with [`TracedSystem::finish_trace`]. The
    /// header carries the configuration fingerprint plus `label` (a config
    /// name replay tools can resolve) and `seed` (whatever seeds the
    /// recorded workload). Recording runs in constant memory.
    ///
    /// # Errors
    ///
    /// Header write failures as [`impact_core::Error::TraceIo`]; a label
    /// over [`impact_core::trace::MAX_LABEL_BYTES`] as
    /// [`impact_core::Error::TraceFormat`].
    pub fn recording(
        cfg: SystemConfig,
        sink: W,
        label: &str,
        seed: u64,
    ) -> Result<TracedSystem<W>> {
        let writer = TraceWriter::new(sink, &TraceHeader::for_config(&cfg, label, seed))?;
        let backend = TracingBackend::new(MemoryController::from_config(&cfg), writer)?;
        Ok(Engine::with_backend(cfg, SimParams::default(), backend))
    }

    /// Seals the recording: writes the verifying footer (event and
    /// response counts, response digest, final backend statistics),
    /// flushes, and returns the footer and the sink.
    ///
    /// # Errors
    ///
    /// The write error that ended the recording, if any, then footer
    /// write/flush failures.
    pub fn finish_trace(self) -> Result<(TraceSummary, W)> {
        let (_, summary, sink) = self.into_backend().finish()?;
        Ok((summary, sink))
    }
}

/// Controller-management hooks, available on every instantiation whose
/// backend is a [`ControllerBackend`] (all of the aliases above).
impl<B: ControllerBackend> Engine<B> {
    /// Installs a memory-controller defense.
    pub fn set_defense(&mut self, defense: Defense) {
        self.backend_mut().set_defense(defense);
    }

    /// Enables (or disables, with `None`) periodic per-bank blocking
    /// (REF/RFM/PRAC).
    pub fn set_periodic_block(&mut self, blocking: Option<PeriodicBlock>) {
        self.backend_mut().set_periodic_block(blocking);
    }

    /// Switches the DRAM row policy (ablations).
    pub fn set_row_policy(&mut self, policy: RowPolicy) {
        self.backend_mut().set_row_policy(policy);
    }

    /// DRAM-level statistics aggregated over all banks.
    #[must_use]
    pub fn dram_totals(&self) -> BankStats {
        self.backend().dram_totals()
    }
}

/// The memory backend a caller asks for. The simulator has one, the
/// monolithic [`MemoryController`]. `experiments::suite`, `record_capture`
/// and `replay_file` still take this parameter; each binds it with
/// `let BackendKind::Mono = backend;`, so a new variant fails to compile
/// until they handle it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The monolithic [`MemoryController`].
    Mono,
}

impl BackendKind {
    /// Builds the boxed controller for `cfg`.
    #[must_use]
    pub fn backend(&self, cfg: &SystemConfig) -> DynBackend {
        let BackendKind::Mono = self;
        Box::new(MemoryController::from_config(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_cache::HitLevel;
    use impact_core::addr::{VirtAddr, PAGE_SIZE};
    use impact_core::engine::{MemRequest, MemoryBackend};
    use impact_core::time::Cycles;
    use impact_dram::RowBufferKind;
    use impact_pim::pei::ExecSite;

    fn sys() -> System {
        System::new(SystemConfig::paper_table2_noiseless())
    }

    #[test]
    fn load_cold_then_warm() {
        let mut s = sys();
        let a = s.spawn_agent();
        let va = s.alloc_row_in_bank(a, 0).unwrap();
        let cold = s.load(a, va).unwrap();
        assert_eq!(cold.level, HitLevel::Memory);
        assert_eq!(cold.kind, Some(RowBufferKind::Miss));
        let warm = s.load(a, va).unwrap();
        assert_eq!(warm.level, HitLevel::L1);
        assert!(warm.latency < cold.latency);
    }

    #[test]
    fn load_direct_sees_row_buffer() {
        let mut s = sys();
        let a = s.spawn_agent();
        let va = s.alloc_row_in_bank(a, 2).unwrap();
        let first = s.load_direct(a, va).unwrap();
        let second = s.load_direct(a, va + 64).unwrap();
        assert_eq!(first.kind, Some(RowBufferKind::Miss));
        assert_eq!(second.kind, Some(RowBufferKind::Hit));
    }

    #[test]
    fn load_direct_batch_matches_row_buffer_behaviour() {
        let mut s = sys();
        let a = s.spawn_agent();
        let va = s.alloc_row_in_bank(a, 4).unwrap();
        let before = s.now(a);
        let infos = s.load_direct_batch(a, &[va, va + 64, va + 128]).unwrap();
        assert_eq!(infos.len(), 3);
        // First access opens the row; the rest of the burst hits it.
        assert_eq!(infos[0].kind, Some(RowBufferKind::Miss));
        assert_eq!(infos[1].kind, Some(RowBufferKind::Hit));
        assert_eq!(infos[2].kind, Some(RowBufferKind::Hit));
        assert!(s.now(a) > before, "burst must advance the clock");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        // Noisy config: an empty burst must not draw from the noise RNG
        // or touch bank state either.
        let mut s = System::new(SystemConfig::paper_table2());
        let a = s.spawn_agent();
        let before = s.now(a);
        assert!(s.load_direct_batch(a, &[]).unwrap().is_empty());
        assert_eq!(s.now(a), before);
        assert_eq!(s.backend().dram().total_stats().total_accesses(), 0);
        assert_eq!(s.backend().dram().total_stats().activations, 0);
    }

    #[test]
    fn pim_op_bypasses_caches() {
        let mut s = sys();
        let a = s.spawn_agent();
        let va = s.alloc_row_in_bank(a, 1).unwrap();
        // Different cache line each op: stays memory-side.
        let o1 = s.pim_op(a, va).unwrap();
        let o2 = s.pim_op(a, va + 64).unwrap();
        assert_eq!(o1.site, ExecSite::MemorySide);
        assert_eq!(o2.site, ExecSite::MemorySide);
        assert_eq!(o2.kind, Some(RowBufferKind::Hit));
        // The conflict signal: another row in the same bank.
        let vb = s.alloc_row_in_bank(a, 1).unwrap();
        let o3 = s.pim_op(a, vb).unwrap();
        assert_eq!(o3.kind, Some(RowBufferKind::Conflict));
        assert_eq!(o3.latency - o2.latency, Cycles(74));
    }

    #[test]
    fn pim_op_hot_line_goes_host_side() {
        let mut s = sys();
        let a = s.spawn_agent();
        let va = s.alloc_row_in_bank(a, 1).unwrap();
        s.pim_op(a, va).unwrap();
        s.pim_op(a, va).unwrap();
        let o = s.pim_op(a, va).unwrap();
        assert_eq!(o.site, ExecSite::Host);
        // The first host-side execution fills the caches; the next one is a
        // cache hit and is much faster than any memory-side PEI.
        let o2 = s.pim_op(a, va).unwrap();
        assert_eq!(o2.site, ExecSite::Host);
        assert!(
            o2.latency < Cycles(20),
            "hot host-side latency {}",
            o2.latency
        );
    }

    #[test]
    fn rowclone_roundtrip() {
        let mut s = sys();
        let a = s.spawn_agent();
        let src = s.alloc_bank_stripe(a, 1).unwrap();
        let dst = s.alloc_bank_stripe(a, 1).unwrap();
        let out = s.rowclone(a, src, dst, 0xFFFF).unwrap();
        assert_eq!(out.per_bank.len(), 16);
    }

    /// The allocators hand out pages already TLB-warm (§5.2.1): every
    /// page of a row and of a stripe translates at the L1 TLB's latency,
    /// with no walk.
    #[test]
    fn allocations_map_tlb_warm_pages() {
        let mut s = sys();
        let a = s.spawn_agent();
        let row = s.alloc_row_in_bank(a, 0).unwrap();
        let stripe = s.alloc_bank_stripe(a, 1).unwrap();
        assert_eq!(stripe, row + 2 * PAGE_SIZE, "an 8 KiB row maps two pages");
        for va in [row, row + PAGE_SIZE, stripe, stripe + 31 * PAGE_SIZE] {
            let (_, latency) = s.translate(a, va).unwrap();
            assert_eq!(latency, Cycles(1), "{va:?} was not TLB-warm");
        }
    }

    #[test]
    fn clflush_forces_memory() {
        let mut s = sys();
        let a = s.spawn_agent();
        let va = s.alloc_row_in_bank(a, 0).unwrap();
        s.load(a, va).unwrap();
        s.clflush(a, va).unwrap();
        let reload = s.load(a, va).unwrap();
        assert_eq!(reload.level, HitLevel::Memory);
    }

    #[test]
    fn clflush_dirty_pays_writeback() {
        let mut s = sys();
        let a = s.spawn_agent();
        let va = s.alloc_row_in_bank(a, 0).unwrap();
        s.store(a, va).unwrap();
        let dirty_cost = s.clflush(a, va).unwrap();
        s.load(a, va).unwrap();
        let clean_cost = s.clflush(a, va).unwrap();
        assert!(dirty_cost > clean_cost);
    }

    #[test]
    fn rdtscp_measures_op_latency() {
        let mut s = sys();
        let a = s.spawn_agent();
        let va = s.alloc_row_in_bank(a, 0).unwrap();
        s.load_direct(a, va).unwrap(); // open the row
        let t0 = s.rdtscp(a);
        let info = s.load_direct(a, va + 64).unwrap();
        let t1 = s.rdtscp(a);
        assert_eq!(t1 - t0, info.latency.0 + s.params().timer_overhead.0);
    }

    #[test]
    fn agents_have_independent_clocks() {
        let mut s = sys();
        let a = s.spawn_agent();
        let b = s.spawn_agent();
        s.advance(a, Cycles(100));
        assert_eq!(s.now(a), Cycles(100));
        assert_eq!(s.now(b), Cycles(0));
        assert_eq!(s.elapsed(), Cycles(100));
    }

    #[test]
    fn unmapped_access_errors() {
        let mut s = sys();
        let a = s.spawn_agent();
        assert!(s.load(a, VirtAddr(0xdead_b000)).is_err());
    }

    #[test]
    fn shared_bank_interference_between_agents() {
        // The covert-channel core: agent B's activation is visible to
        // agent A as a conflict.
        let mut s = sys();
        let a = s.spawn_agent();
        let b = s.spawn_agent();
        let va_a = s.alloc_row_in_bank(a, 5).unwrap();
        let va_b = s.alloc_row_in_bank(b, 5).unwrap();
        // A opens its row; re-access hits.
        s.pim_op(a, va_a).unwrap();
        let hit = s.pim_op(a, va_a + 64).unwrap();
        assert_eq!(hit.kind, Some(RowBufferKind::Hit));
        // B interferes *after* A's activity in wall-clock order — the same
        // ordering the attack enforces with its semaphore.
        s.set_now(b, s.now(a));
        s.pim_op(b, va_b).unwrap();
        // A probes after B is done.
        s.set_now(a, s.now(b));
        let conflict = s.pim_op(a, va_a + 128).unwrap();
        assert_eq!(conflict.kind, Some(RowBufferKind::Conflict));
        assert_eq!(conflict.latency - hit.latency, Cycles(74));
    }

    #[test]
    fn defense_visible_through_system() {
        let mut s = sys();
        let a = s.spawn_agent();
        let va = s.alloc_row_in_bank(a, 0).unwrap();
        s.set_defense(Defense::Ctd);
        let first = s.load_direct(a, va).unwrap();
        let second = s.load_direct(a, va + 64).unwrap();
        // Hit and miss pad to identical worst-case latency.
        assert_eq!(first.latency, second.latency);
    }

    #[test]
    fn debug_formats_via_backend_hooks() {
        let mut s = sys();
        s.set_defense(Defense::Ctd);
        let d = format!("{s:?}");
        assert!(d.contains("CTD"), "debug output: {d}");
        assert!(d.contains("16"), "debug output: {d}");
    }

    // ------------------------------------------------------------------
    // Tracing proxy
    // ------------------------------------------------------------------

    /// A short whole-system exercise returning observable timing facts.
    fn exercise<B: ControllerBackend>(s: &mut Engine<B>) -> Vec<u64> {
        let a = s.spawn_agent();
        let mut out = Vec::new();
        for bank in 0..4 {
            let va = s.alloc_row_in_bank(a, bank).unwrap();
            out.push(s.load_direct(a, va).unwrap().latency.0);
            out.push(s.pim_op(a, va + 64).unwrap().latency.0);
        }
        s.set_defense(Defense::Ctd);
        let vb = s.alloc_row_in_bank(a, 7).unwrap();
        out.push(s.load_direct(a, vb).unwrap().latency.0);
        out.push(s.now(a).0);
        out.push(s.backend().backend_stats().accesses);
        out.push(s.dram_totals().activations);
        out
    }

    #[test]
    fn traced_system_matches_mono() {
        let cfg = SystemConfig::paper_table2_noiseless();
        let mono = exercise(&mut System::new(cfg.clone()));
        let mut t =
            TracedSystem::recording(cfg, std::io::sink(), "paper_table2_noiseless", 0).unwrap();
        assert_eq!(exercise(&mut t), mono, "traced system diverged");
        assert!(t.backend().summary().events > 0);
    }

    /// A dirty line evicted from the LLC is written back to its own line,
    /// not to the line whose fill evicted it. Fig. 12's small caches (a
    /// 64 KiB, 16-way LLC: 64 sets), noiseless so that only the demand
    /// traffic and the write-back reach the trace. Every row base is a
    /// multiple of the 8 KiB row, so each lands in LLC (and L2) set 0:
    /// a store dirties the first, and the sixteenth load after it evicts
    /// it.
    #[test]
    fn dirty_victim_is_written_back_to_its_own_line() {
        use impact_core::engine::ReqKind;
        use impact_core::trace::{read_trace, TraceEvent};

        let mut cfg = SystemConfig::paper_table2_noiseless();
        cfg.l1d.size_bytes = 4 * 1024;
        cfg.l2.size_bytes = 16 * 1024;
        cfg.l3.size_bytes = 64 * 1024;
        let mut sys = TracedSystem::recording(cfg, Vec::new(), "small_llc", 0).unwrap();
        let a = sys.spawn_agent();
        let rows: Vec<VirtAddr> = (0..17)
            .map(|i| sys.alloc_row_in_bank(a, i % 16).unwrap())
            .collect();
        sys.store(a, rows[0]).unwrap();
        for &row in &rows[1..] {
            assert_eq!(sys.load(a, row).unwrap().level, HitLevel::Memory);
        }
        let (_, bytes) = sys.finish_trace().unwrap();
        let (_, events, _) = read_trace(&bytes[..]).unwrap();
        let requests: Vec<MemRequest> = events
            .into_iter()
            .map(|e| match e {
                TraceEvent::Request(req) => req,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        // The dirtying store, 16 loads, then the write-back.
        assert_eq!(requests.len(), 18);
        let (dirtying, write_back) = (requests[0], requests[17]);
        assert_eq!(dirtying.kind, ReqKind::Store);
        assert_eq!(write_back.kind, ReqKind::Store);
        assert_eq!(
            write_back.addr, dirtying.addr,
            "the write-back went to {:?}, the evicting load's line is {:?}",
            write_back.addr, requests[16].addr
        );
        assert_ne!(write_back.addr, requests[16].addr);
    }

    #[test]
    fn engine_records_a_replayable_trace_file() {
        use impact_core::trace::{read_trace, replay_events};

        let cfg = SystemConfig::paper_table2();
        let mut sys =
            TracedSystem::recording(cfg.clone(), Vec::new(), "paper_table2", 0xABC).unwrap();
        let a = sys.spawn_agent();
        for bank in 0..6 {
            let va = sys.alloc_row_in_bank(a, bank).unwrap();
            sys.load(a, va).unwrap();
            sys.pim_op(a, va + 64).unwrap();
            sys.load_direct_batch(a, &[va + 128, va + 192]).unwrap();
        }
        let totals = sys.dram_totals();
        let state = sys.backend().dram_state_digest();
        let (summary, bytes) = sys.finish_trace().unwrap();
        assert_eq!(summary.stats.accesses, 6 * 4);

        let (header, events, decoded) = read_trace(&bytes[..]).unwrap();
        assert_eq!(header.fingerprint, cfg.fingerprint());
        assert_eq!(header.label, "paper_table2");
        assert_eq!(header.seed, 0xABC);
        assert_eq!(decoded, summary);
        // Replaying the file into a fresh controller of the same initial
        // configuration reproduces the backend state and statistics.
        let mut fresh = MemoryController::from_config(&cfg);
        replay_events(&events, &mut fresh, |_| {}).unwrap();
        assert_eq!(fresh.backend_stats(), summary.stats);
        assert_eq!(fresh.dram().total_stats(), totals);
        assert_eq!(
            fresh.dram_state_digest(),
            state,
            "replayed DRAM state diverged"
        );
    }
}
