//! Telemetry is outside the deterministic state machine: flipping the
//! obs clocks on changes no figure byte and no recorded trace byte, and
//! forks never carry telemetry.
//!
//! These tests deliberately share the process-global obs registry with
//! every other test in this binary — the contract under test is exactly
//! that nothing observable depends on the registry's contents or on the
//! enabled flag, so concurrent toggling cannot perturb the assertions.

use std::sync::{Arc, Mutex};

use impact::core::config::SystemConfig;
use impact::core::engine::{MemRequest, MemoryBackend};
use impact::core::time::Cycles;
use impact::memctrl::MemoryController;
use impact::sim::{BackendKind, System};
use impact_bench::experiments::suite;
use impact_bench::runner::ExperimentJob;
use impact_bench::trace_tools::{record_capture, CaptureKind};

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
fn render_subsuite() -> String {
    let keep = ["delta", "fig8", "fig10"];
    suite(true, BackendKind::Mono)
        .iter()
        .filter(|j| keep.contains(&j.id()))
        .map(ExperimentJob::run)
        .map(|f| f.render_text())
        .collect()
}

/// The figure bytes are identical with telemetry clocks off and on — the
/// library-level half of CI's `fig_all --metrics` byte-diff.
#[test]
fn enabling_telemetry_changes_no_figure_byte() {
    impact::obs::set_enabled(false);
    let off = render_subsuite();
    impact::obs::set_enabled(true);
    let on = render_subsuite();
    impact::obs::set_enabled(false);
    assert_eq!(off, on, "telemetry changed figure output");
}

/// A recorded trace is byte-identical with telemetry clocks off and on —
/// telemetry can never leak into the replay artifact.
#[test]
fn enabling_telemetry_changes_no_trace_byte() {
    let capture = || -> Vec<u8> {
        let buf = SharedBuf::default();
        record_capture(
            CaptureKind::Mix,
            BackendKind::Mono,
            true,
            0x7ACE,
            Box::new(buf.clone()),
        )
        .expect("capture workload records cleanly");
        let bytes = buf.0.lock().unwrap().clone();
        bytes
    };
    impact::obs::set_enabled(false);
    let off = capture();
    impact::obs::set_enabled(true);
    let on = capture();
    impact::obs::set_enabled(false);
    assert_eq!(off, on, "telemetry changed trace bytes");
}

/// Forks carry no telemetry: the controller's `ctrl.segments.*`
/// counters live in the process-global registry, so a fork counts into
/// the same registry as its parent, and engine forks are registry
/// *events*, never state inside the fork. (Counters only move forward,
/// and other tests in this binary service batches concurrently, hence
/// the one-sided comparisons.)
#[test]
fn snapshots_and_forks_carry_no_telemetry() {
    let cfg = SystemConfig::paper_table2();
    let segments = &impact::obs::registry().ctrl_serial_segments;

    // Every `service_batch` call bumps the counter once.
    let mut mc = MemoryController::from_config(&cfg);
    let reqs: Vec<MemRequest> = (0..512u64)
        .map(|i| {
            let addr = mc.mapping().compose((i % 16) as usize, (i / 16) % 32, 0);
            MemRequest::load(addr, Cycles(i * 500), 0)
        })
        .collect();
    let mut fork = mc.fork();
    let before = segments.get();
    MemoryBackend::service_batch(&mut mc, &reqs).unwrap();
    let served = segments.get();
    assert!(served > before, "the batch must be counted");
    assert_eq!(mc.stats().accesses, 512);

    // The fork's replicated state is its own; its segments count into
    // the same global registry.
    assert_eq!(fork.stats().accesses, 0, "a fork never sees parent traffic");
    MemoryBackend::service_batch(&mut fork, &reqs).unwrap();
    assert!(segments.get() > served, "a fork's batches are counted too");

    // Engine forks are obs *events*; the global registry only moves
    // forward. (> rather than == because other tests in this binary fork
    // engines concurrently.)
    let mut sys = System::new(cfg);
    let before = impact::obs::registry().engine_forks.get();
    drop(sys.fork());
    assert!(
        impact::obs::registry().engine_forks.get() > before,
        "engine forks must be counted"
    );
}
