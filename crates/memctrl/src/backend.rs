//! [`MemoryBackend`] implementation for [`MemoryController`] — the engine
//! behind the whole-system simulator — plus the [`ControllerBackend`]
//! extension trait through which the layers above install defenses and
//! read DRAM statistics. The controller implements it, and so do the
//! tracing proxy that records it and a boxed controller.

use std::io::Write;

use impact_core::addr::PhysAddr;
use impact_core::engine::{BackendStats, MemRequest, MemResponse, MemoryBackend};
use impact_core::error::Result;
use impact_core::time::Cycles;
use impact_core::trace::TracingBackend;
use impact_dram::{BankStats, RowPolicy};

use crate::controller::{MemoryController, PeriodicBlock};
use crate::defense::Defense;

impl MemoryBackend for MemoryController {
    fn service(&mut self, req: &MemRequest) -> Result<MemResponse> {
        MemoryController::service(self, req)
    }

    fn service_batch(&mut self, reqs: &[MemRequest]) -> Result<Vec<MemResponse>> {
        MemoryController::service_batch(self, reqs)
    }

    fn backend_stats(&self) -> BackendStats {
        self.stats().clone()
    }

    fn defense_label(&self) -> &'static str {
        self.defense().name()
    }

    fn worst_case_latency(&self) -> Cycles {
        MemoryController::worst_case_latency(self)
    }

    fn num_banks(&self) -> usize {
        self.dram().num_banks()
    }

    fn rows_per_bank(&self) -> u64 {
        self.dram().geometry().rows_per_bank
    }

    fn inject_row_activation(&mut self, bank: usize, row: u64, at: Cycles, actor: u32) {
        self.dram_mut().access_as(bank, row, at, actor);
    }

    fn probe_burst_safe(&self) -> bool {
        // Scalar servicing is arrival-invariant and infallible (for
        // in-range addresses) exactly when nothing consults absolute time
        // or rejects requests: no periodic blocking epochs, no epoch-based
        // (ACT) padding, no partition rejections (MPR) and no idle-timeout
        // row policy. CTD pads to a constant, CRP only switches the row
        // policy to closed — both stay invariant.
        self.periodic_block().is_none()
            && matches!(self.defense(), Defense::None | Defense::Crp | Defense::Ctd)
            && !matches!(
                self.dram().policy(),
                RowPolicy::Open {
                    idle_timeout: Some(_)
                }
            )
    }

    fn bank_of(&self, addr: PhysAddr) -> Option<usize> {
        if self.check_capacity(addr).is_err() {
            None
        } else {
            Some(self.mapping().flat_bank(addr))
        }
    }

    fn bank_ready_at(&self, bank: usize) -> Cycles {
        self.dram().bank(bank).busy_until()
    }
}

/// A memory backend with memory-controller management hooks: defense
/// installation, periodic blocking, row-policy ablations and DRAM-level
/// statistics. The simulation engine exposes these hooks generically for
/// any `Engine<B: ControllerBackend>`, which is what lets an attack run
/// unchanged on the controller and behind the tracing proxy that records
/// it. `Box<dyn ControllerBackend>` forwards every hook.
pub trait ControllerBackend: MemoryBackend {
    /// Installs a timing defense on every underlying controller.
    fn set_defense(&mut self, defense: Defense);

    /// Enables (or disables, with `None`) periodic per-bank blocking.
    fn set_periodic_block(&mut self, blocking: Option<PeriodicBlock>);

    /// Switches the DRAM row policy (ablations; defenses override this).
    fn set_row_policy(&mut self, policy: RowPolicy);

    /// DRAM-level statistics aggregated over all banks.
    fn dram_totals(&self) -> BankStats;

    /// Deterministic digest of the complete per-bank DRAM state (open
    /// rows, busy-until times, last activators, statistics), folded in
    /// flat-bank order. Two controllers — on any machine — are in
    /// bit-identical DRAM states iff their digests match; this is the
    /// check `trace_replay` runs after re-servicing a recorded trace.
    fn dram_state_digest(&self) -> u64;

    /// Scheduling diagnostics `(parallel_batches, sequential_fallbacks)`.
    /// Always `(0, 0)`: no backend dispatches batches to a worker pool.
    /// Like all telemetry it never enters [`BackendStats`], forks or
    /// trace footers.
    fn scheduling_counts(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl ControllerBackend for MemoryController {
    fn set_defense(&mut self, defense: Defense) {
        MemoryController::set_defense(self, defense);
    }

    fn set_periodic_block(&mut self, blocking: Option<PeriodicBlock>) {
        MemoryController::set_periodic_block(self, blocking);
    }

    fn set_row_policy(&mut self, policy: RowPolicy) {
        self.dram_mut().set_policy(policy);
    }

    fn dram_totals(&self) -> BankStats {
        self.dram().total_stats()
    }

    fn dram_state_digest(&self) -> u64 {
        let mut hash = impact_core::hash::FNV_OFFSET;
        for bank in 0..self.dram().num_banks() {
            hash = self.dram().fold_bank_state(bank, hash);
        }
        hash
    }
}

impl<B: ControllerBackend, W: Write> ControllerBackend for TracingBackend<B, W> {
    fn set_defense(&mut self, defense: Defense) {
        self.inner_mut().set_defense(defense);
    }

    fn set_periodic_block(&mut self, blocking: Option<PeriodicBlock>) {
        self.inner_mut().set_periodic_block(blocking);
    }

    fn set_row_policy(&mut self, policy: RowPolicy) {
        self.inner_mut().set_row_policy(policy);
    }

    fn dram_totals(&self) -> BankStats {
        self.inner().dram_totals()
    }

    fn dram_state_digest(&self) -> u64 {
        self.inner().dram_state_digest()
    }
}

impl<B: ControllerBackend + ?Sized> ControllerBackend for Box<B> {
    fn set_defense(&mut self, defense: Defense) {
        (**self).set_defense(defense);
    }

    fn set_periodic_block(&mut self, blocking: Option<PeriodicBlock>) {
        (**self).set_periodic_block(blocking);
    }

    fn set_row_policy(&mut self, policy: RowPolicy) {
        (**self).set_row_policy(policy);
    }

    fn dram_totals(&self) -> BankStats {
        (**self).dram_totals()
    }

    fn dram_state_digest(&self) -> u64 {
        (**self).dram_state_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::PeriodicBlock;
    use crate::defense::{ActConfig, Defense, MprPartition};
    use impact_core::addr::PhysAddr;
    use impact_core::config::SystemConfig;
    use impact_core::engine::RowBufferKind;

    fn controller() -> MemoryController {
        MemoryController::from_config(&SystemConfig::paper_table2())
    }

    /// A request stream touching hits, misses and conflicts across banks.
    fn stream(mc: &MemoryController) -> Vec<MemRequest> {
        let mut reqs = Vec::new();
        let mut at = Cycles(0);
        for i in 0..96u64 {
            let bank = (i % 7) as usize;
            let row = (i / 3) % 5;
            let addr = mc.mapping().compose(bank, row, (i % 4) as u32 * 64);
            reqs.push(MemRequest::load(addr, at, (i % 2) as u32));
            at += Cycles(400);
        }
        reqs
    }

    fn serial(mc: &mut MemoryController, reqs: &[MemRequest]) -> Vec<MemResponse> {
        reqs.iter().map(|r| mc.service(r).unwrap()).collect()
    }

    #[test]
    fn batch_matches_serial_without_defense() {
        let mut a = controller();
        let reqs = stream(&a);
        let mut b = controller();
        assert_eq!(a.service_batch(&reqs).unwrap(), serial(&mut b, &reqs));
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn batch_matches_serial_under_every_defense() {
        for defense in [
            Defense::Crp,
            Defense::Ctd,
            Defense::Act(ActConfig::aggressive()),
            Defense::Act(ActConfig::mild()),
        ] {
            let mut a = controller();
            a.set_defense(defense.clone());
            let reqs = stream(&a);
            let mut b = controller();
            b.set_defense(defense.clone());
            assert_eq!(
                a.service_batch(&reqs).unwrap(),
                serial(&mut b, &reqs),
                "defense {}",
                defense.name()
            );
        }
    }

    #[test]
    fn batch_matches_serial_under_periodic_block() {
        let mut a = controller();
        a.set_periodic_block(Some(PeriodicBlock::rfm_paper_default()));
        let reqs = stream(&a);
        let mut b = controller();
        b.set_periodic_block(Some(PeriodicBlock::rfm_paper_default()));
        assert_eq!(a.service_batch(&reqs).unwrap(), serial(&mut b, &reqs));
        assert_eq!(a.stats().blocked, b.stats().blocked);
    }

    #[test]
    fn batch_takes_lean_path_with_mpr() {
        // MPR does not pad latency, so the lean path must still enforce
        // the partition per request.
        let mut mc = controller();
        let mut p = MprPartition::new(16);
        p.assign_round_robin(&[0, 1]);
        mc.set_defense(Defense::Mpr(p));
        let owned = mc.mapping().compose(0, 1, 0);
        let foreign = mc.mapping().compose(1, 1, 0);
        let ok = MemRequest::load(owned, Cycles(0), 0);
        let bad = MemRequest::load(foreign, Cycles(0), 0);
        assert!(mc.service_batch(&[ok]).is_ok());
        assert!(mc.service_batch(&[bad]).is_err());
        assert_eq!(mc.stats().partition_rejects, 1);
    }

    #[test]
    fn rowclone_request_roundtrips() {
        let mut mc = controller();
        let row_bytes = mc.dram().geometry().row_bytes;
        let req = MemRequest::rowclone(
            PhysAddr(0),
            PhysAddr(64 * 16 * row_bytes),
            0xFFFF,
            Cycles(0),
            0,
        );
        let resp = MemoryBackend::service(&mut mc, &req).unwrap();
        assert_eq!(resp.per_bank.len(), 16);
        assert_eq!(resp.bank, 0);
        assert_eq!(resp.kind, RowBufferKind::Miss);
        let max_lane = resp.per_bank.iter().map(|(_, _, l)| *l).max().unwrap();
        assert_eq!(resp.latency, max_lane);
        assert_eq!(mc.backend_stats().rowclones, 1);
    }

    #[test]
    fn rowclone_response_reports_first_set_lane() {
        // Mask with bit 0 clear: the headline (bank, row, kind) must all
        // describe the first *set* lane, not the range base.
        let mut mc = controller();
        let row_bytes = mc.dram().geometry().row_bytes;
        let src = PhysAddr(0);
        let dst = PhysAddr(64 * 16 * row_bytes);
        let req = MemRequest::rowclone(src, dst, 0b100, Cycles(0), 0);
        let resp = mc.service(&req).unwrap();
        assert_eq!(resp.per_bank.len(), 1);
        assert_eq!(resp.bank, 2);
        let lane_src = PhysAddr(2 * row_bytes);
        assert_eq!((resp.bank, resp.row), mc.mapping().locate(lane_src));
    }

    #[test]
    fn trait_surface_reports_topology_and_defense() {
        let mut mc = controller();
        assert_eq!(MemoryBackend::num_banks(&mc), 16);
        assert!(mc.rows_per_bank() > 0);
        assert_eq!(mc.defense_label(), "None");
        mc.set_defense(Defense::Ctd);
        assert_eq!(mc.defense_label(), "CTD");
        assert_eq!(
            MemoryBackend::worst_case_latency(&mc),
            MemoryController::worst_case_latency(&mc)
        );
    }

    #[test]
    fn dram_state_digest_is_backend_invariant() {
        let cfg = SystemConfig::paper_table2();
        let mut mono = MemoryController::from_config(&cfg);
        let header = impact_core::trace::TraceHeader::for_config(&cfg, "paper_table2", 0);
        let writer = impact_core::trace::TraceWriter::new(std::io::sink(), &header).unwrap();
        let mut traced = TracingBackend::new(MemoryController::from_config(&cfg), writer).unwrap();
        let fresh = mono.dram_state_digest();
        assert_eq!(fresh, traced.dram_state_digest());

        let reqs = stream(&mono);
        for r in &reqs {
            mono.service(r).unwrap();
            MemoryBackend::service(&mut traced, r).unwrap();
        }
        let after = mono.dram_state_digest();
        assert_ne!(after, fresh, "traffic must move the digest");
        assert_eq!(after, traced.dram_state_digest());
        // Boxed backends forward the digest.
        let boxed: Box<dyn ControllerBackend> = Box::new(mono);
        assert_eq!(boxed.dram_state_digest(), after);
    }

    #[test]
    fn injected_activation_touches_bank_state() {
        let mut mc = controller();
        mc.inject_row_activation(3, 9, Cycles(0), 99);
        assert_eq!(mc.dram().bank(3).stats().activations, 1);
        // A demand access to the injected row now hits.
        let addr = mc.mapping().compose(3, 9, 0);
        let out = mc
            .service(&MemRequest::load(addr, Cycles(1000), 0))
            .unwrap();
        assert_eq!(out.kind, RowBufferKind::Hit);
    }
}
