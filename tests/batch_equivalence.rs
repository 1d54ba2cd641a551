//! Property proof that the batch path is a pure optimization: for any
//! request stream, `service_batch` is bit-for-bit equal to serving the
//! same stream one `service()` call at a time — responses,
//! `BackendStats`, DRAM totals and the full DRAM state digest — across
//! the defense matrix {open, CTD, ACT, RFM}, on the controller itself and
//! behind the tracing proxy.
//!
//! `service_batch` is one request-order loop that skips the blocking and
//! padding checks when neither can fire (no RFM, no CTD/ACT); this suite
//! pins both branches to the one semantic reference, the per-request
//! state machine. A dedicated case covers the fallible paths: mixed
//! RowClone batches and MPR partition rejections must error on the same
//! request with identical partial state.

use proptest::prelude::*;

use impact::core::addr::PhysAddr;
use impact::core::config::SystemConfig;
use impact::core::engine::{MemRequest, MemoryBackend};
use impact::core::rng::SimRng;
use impact::core::time::Cycles;
use impact::core::trace::{TraceHeader, TraceWriter, TracingBackend};
use impact::memctrl::{
    ActConfig, ControllerBackend, Defense, MemoryController, MprPartition, PeriodicBlock,
};

fn cfg() -> SystemConfig {
    SystemConfig::paper_table2()
}

/// Every 37th request of a stream with RowClones is a masked RowClone, so
/// each scalar run between them (36 requests) is longer than the 16-bank
/// geometry and revisits banks between two RowClones.
const ROWCLONE_EVERY: u64 = 37;

/// A mixed valid request stream: loads/stores/PiM over 16 banks plus,
/// optionally, masked RowClones spanning several banks.
fn stream(n: u64, seed: u64, rowclones: bool) -> Vec<MemRequest> {
    let mc = MemoryController::from_config(&cfg());
    let row_bytes = mc.dram().geometry().row_bytes;
    let mut rng = SimRng::seed(seed);
    let mut at = Cycles(0);
    (0..n)
        .map(|i| {
            let req = if rowclones && i % ROWCLONE_EVERY == ROWCLONE_EVERY - 1 {
                let src = PhysAddr(64 * 16 * row_bytes * (1 + rng.below(3)));
                let dst = PhysAddr(src.0 + 32 * 16 * row_bytes);
                MemRequest::rowclone(src, dst, rng.below(u64::from(u16::MAX)).max(1), at, 0)
            } else {
                let addr = mc.mapping().compose(
                    rng.below(16) as usize,
                    rng.below(24),
                    (rng.below(4) * 64) as u32,
                );
                let actor = rng.below(3) as u32;
                match i % 3 {
                    0 => MemRequest::store(addr, at, actor),
                    1 => MemRequest::pim(addr, at, actor),
                    _ => MemRequest::load(addr, at, actor),
                }
            };
            at += Cycles(rng.below(900));
            req
        })
        .collect()
}

/// The controller itself or the tracing proxy around it, boxed for
/// uniform handling.
fn make_backend(traced: bool) -> Box<dyn ControllerBackend> {
    let mc = MemoryController::from_config(&cfg());
    if traced {
        let header = TraceHeader::for_config(&cfg(), "paper_table2", 0);
        let writer = TraceWriter::new(std::io::sink(), &header).unwrap();
        Box::new(TracingBackend::new(mc, writer).unwrap())
    } else {
        Box::new(mc)
    }
}

/// Applies one entry of the swept defense matrix.
fn apply_defense(backend: &mut dyn ControllerBackend, sel: usize) {
    match sel {
        0 => {}
        1 => backend.set_defense(Defense::Ctd),
        2 => backend.set_defense(Defense::Act(ActConfig::aggressive())),
        _ => backend.set_periodic_block(Some(PeriodicBlock::rfm_paper_default())),
    }
}

proptest! {
    /// The central equivalence: batched == per-request, bit for bit,
    /// under every defense, with and without RowClones, in chunks of any
    /// size up to the whole stream.
    #[test]
    fn batch_equals_per_request(
        seed in 0u64..100_000,
        defense_sel in 0usize..4,
        traced in any::<bool>(),
        rowclones in any::<bool>(),
        chunk in 1usize..160,
    ) {
        let mut serial = make_backend(traced);
        let mut batched = make_backend(traced);
        apply_defense(serial.as_mut(), defense_sel);
        apply_defense(batched.as_mut(), defense_sel);

        let reqs = stream(144, seed, rowclones);
        let mut want = Vec::with_capacity(reqs.len());
        for req in &reqs {
            want.push(serial.service(req).expect("valid stream"));
        }
        let mut got = Vec::with_capacity(reqs.len());
        for c in reqs.chunks(chunk) {
            got.extend(batched.service_batch(c).expect("valid stream"));
        }
        prop_assert_eq!(want, got);
        prop_assert_eq!(serial.backend_stats(), batched.backend_stats());
        prop_assert_eq!(serial.dram_totals(), batched.dram_totals());
        prop_assert_eq!(serial.dram_state_digest(), batched.dram_state_digest());
    }

    /// Cross-backend closure of the same property: the controller's
    /// per-request reference pins one whole-stream batch on the boxed
    /// controller and behind the tracing proxy at once.
    #[test]
    fn batched_backends_equal_mono_per_request(
        seed in 0u64..100_000,
        defense_sel in 0usize..4,
    ) {
        let mut mono = MemoryController::from_config(&cfg());
        apply_defense(&mut mono, defense_sel);
        let reqs = stream(120, seed, true);
        let want: Vec<_> = reqs
            .iter()
            .map(|r| MemoryBackend::service(&mut mono, r).expect("valid stream"))
            .collect();

        for traced in [false, true] {
            let mut b = make_backend(traced);
            apply_defense(b.as_mut(), defense_sel);
            let got = b.service_batch(&reqs).expect("valid stream");
            prop_assert_eq!(&want, &got, "traced={} diverged", traced);
            prop_assert_eq!(mono.backend_stats(), b.backend_stats());
            prop_assert_eq!(mono.dram_state_digest(), b.dram_state_digest());
        }
    }

    /// The fallible paths: under an MPR partition some requests are
    /// rejected, so a mixed RowClone/MPR batch must fail on the same
    /// request as the serial loop — with the *partial* state applied up
    /// to the failure identical.
    #[test]
    fn mpr_rowclone_batches_fail_identically(
        seed in 0u64..100_000,
        traced in any::<bool>(),
    ) {
        let partition = {
            let mut p = MprPartition::new(16);
            p.assign_round_robin(&[0, 1]); // actor 2 is never allowed
            p
        };
        let mut serial = make_backend(traced);
        let mut batched = make_backend(traced);
        serial.set_defense(Defense::Mpr(partition.clone()));
        batched.set_defense(Defense::Mpr(partition));

        let reqs = stream(48, seed, true);
        // The serial reference applies requests up to the first failure —
        // exactly the documented `service_batch` error contract.
        let mut want: Result<Vec<_>, _> = Ok(Vec::new());
        for req in &reqs {
            match serial.service(req) {
                Ok(resp) => want.as_mut().expect("still ok").push(resp),
                Err(e) => {
                    want = Err(e);
                    break;
                }
            }
        }
        let got = batched.service_batch(&reqs);
        match (want, got) {
            (Ok(w), Ok(g)) => prop_assert_eq!(w, g),
            (Err(w), Err(g)) => prop_assert_eq!(w.to_string(), g.to_string()),
            (w, g) => prop_assert!(false, "divergent outcome: {:?} vs {:?}", w.is_ok(), g.is_ok()),
        }
        prop_assert_eq!(serial.backend_stats(), batched.backend_stats());
        prop_assert_eq!(serial.dram_state_digest(), batched.dram_state_digest());
    }
}
