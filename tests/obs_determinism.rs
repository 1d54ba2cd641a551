//! Telemetry is outside the deterministic state machine: flipping the
//! obs clocks on changes no figure byte and no recorded trace byte on
//! any backend, and neither snapshots nor forks ever carry telemetry.
//!
//! These tests deliberately share the process-global obs registry with
//! every other test in this binary — the contract under test is exactly
//! that nothing observable depends on the registry's contents or on the
//! enabled flag, so concurrent toggling cannot perturb the assertions.

use std::sync::{Arc, Mutex};

use impact::core::config::SystemConfig;
use impact::core::engine::{MemRequest, MemoryBackend};
use impact::core::snapshot::Snapshot;
use impact::core::time::Cycles;
use impact::memctrl::MemoryController;
use impact::sim::{BackendKind, System};
use impact_bench::experiments::suite;
use impact_bench::trace_tools::{record_capture, CaptureKind};
use impact_bench::SweepRunner;

/// A shared in-memory sink for `record_capture`.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Rendered text of a compact sub-suite (the analytic, PoC and breakdown
/// families — fast in quick mode, still crossing the instrumented tiers).
fn render_subsuite(backend: BackendKind) -> String {
    let keep = ["delta", "fig8", "fig10"];
    let jobs: Vec<_> = suite(true, backend)
        .into_iter()
        .filter(|j| keep.contains(&j.id()))
        .collect();
    SweepRunner::serial()
        .run_all(&jobs)
        .iter()
        .map(|f| f.render_text())
        .collect()
}

/// The figure bytes are identical with telemetry clocks off and on, on
/// the mono and traced backends — the library-level half of CI's
/// `fig_all --metrics` byte-diff.
#[test]
fn enabling_telemetry_changes_no_figure_byte() {
    for backend in [BackendKind::Mono, BackendKind::Traced] {
        impact::obs::set_enabled(false);
        let off = render_subsuite(backend);
        impact::obs::set_enabled(true);
        let on = render_subsuite(backend);
        impact::obs::set_enabled(false);
        assert_eq!(off, on, "telemetry changed figure output on {backend:?}");
    }
}

/// A recorded trace is byte-identical with telemetry clocks off and on,
/// on every backend of the matrix — telemetry can never leak into the
/// replay artifact.
#[test]
fn enabling_telemetry_changes_no_trace_byte() {
    let capture = |backend: BackendKind| -> Vec<u8> {
        let buf = SharedBuf::default();
        record_capture(
            CaptureKind::Mix,
            backend,
            true,
            0x7ACE,
            Box::new(buf.clone()),
        )
        .expect("capture workload records cleanly");
        let bytes = buf.0.lock().unwrap().clone();
        bytes
    };
    for backend in [BackendKind::Mono, BackendKind::Traced] {
        impact::obs::set_enabled(false);
        let off = capture(backend);
        impact::obs::set_enabled(true);
        let on = capture(backend);
        impact::obs::set_enabled(false);
        assert_eq!(
            off,
            on,
            "telemetry changed trace bytes on {}",
            backend.label()
        );
    }
}

/// Neither snapshots nor forks carry telemetry: the controller's
/// `ctrl.segments.*` counters live in the process-global registry, so a
/// snapshot/restore cycle rewinds the controller's replicated state but
/// never the counter, a fork counts into the same registry, and engine
/// fork/snapshot events land in the registry, never inside the snapshot
/// itself. (Counters only move forward, and other tests in this binary
/// service batches concurrently, hence the one-sided comparisons.)
#[test]
fn snapshots_and_forks_carry_no_telemetry() {
    let cfg = SystemConfig::paper_table2();
    let segments = &impact::obs::registry().ctrl_sparse_segments;

    // A 512-request batch is one located segment: it bumps the counter.
    let mut mc = MemoryController::from_config(&cfg);
    let reqs: Vec<MemRequest> = (0..512u64)
        .map(|i| {
            let addr = mc.mapping().compose((i % 16) as usize, (i / 16) % 32, 0);
            MemRequest::load(addr, Cycles(i * 500), 0)
        })
        .collect();
    let snap = mc.snapshot();
    let before = segments.get();
    MemoryBackend::service_batch(&mut mc, &reqs).unwrap();
    let served = segments.get();
    assert!(served > before, "the located segment must be counted");
    assert_eq!(mc.stats().accesses, 512);

    // Restoring replicated state rewinds the controller but not the
    // telemetry counter...
    mc.restore(&snap);
    assert_eq!(mc.stats().accesses, 0, "restore rewinds replicated state");
    assert!(
        segments.get() >= served,
        "restore must not rewind telemetry"
    );

    // ...and a fork counts into the same global registry.
    let mut fork = mc.fork();
    MemoryBackend::service_batch(&mut fork, &reqs).unwrap();
    assert!(segments.get() > served, "a fork's segments are counted too");

    // Engine forks/snapshots are obs *events*; the global registry only
    // moves forward, so a restore cannot rewind it. (>= because other
    // tests in this binary fork engines concurrently.)
    let mut sys = System::new(cfg);
    let before = impact::obs::registry().engine_forks.get();
    let snap = sys.snapshot();
    let child = sys.fork();
    drop(child);
    sys.restore(&snap);
    assert!(
        impact::obs::registry().engine_forks.get() > before,
        "engine forks must be counted and never rolled back by restore"
    );
}
