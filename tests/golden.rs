//! The behavioural spec as pinned constants: the quick `fig_all` text,
//! a seeded fleet population and a quick Mix capture, each reduced to a
//! digest that must not move.
//!
//! The determinism and equivalence suites prove that backends, worker
//! counts, forks and replays agree *with each other*; a change that moves
//! all of them together would pass every one. These constants catch it.
//! They are the same in debug and release builds. A change that alters
//! model output on purpose updates them and says why.

use impact::core::hash::{fnv1a_bytes, FNV_OFFSET};
use impact::fleet::{FleetConfig, FleetService};
use impact::sim::BackendKind;
use impact_bench::experiments::suite;
use impact_bench::trace_tools::{record_capture, CaptureKind};
use impact_bench::SweepRunner;

/// FNV-1a of `fig_all --quick` stdout: every figure's text, each followed
/// by the blank line `fig_all` prints after it.
#[test]
fn quick_suite_text_is_pinned() {
    let figs = SweepRunner::serial().run_all(&suite(true, BackendKind::Mono));
    let text: String = figs.iter().map(|fig| fig.render_text() + "\n").collect();
    assert_eq!(
        fnv1a_bytes(FNV_OFFSET, text.as_bytes()),
        0xfeaa_f24d_6159_5b5b
    );
}

/// Population digest of 200 synthetic sessions on two workers.
#[test]
fn fleet_population_digest_is_pinned() {
    let mut fleet = FleetService::new(FleetConfig::quick(0xF1EE7).with_workers(2));
    fleet.admit_synthetic(200);
    let report = fleet.run(&mut |_| {});
    assert_eq!(report.finished(), 200);
    assert_eq!(report.digest, 0xdd44_47e4_9197_28d7);
}

/// A quick Mix capture: its footer, the recording backend's final DRAM
/// state and the file bytes themselves.
#[test]
fn quick_mix_capture_is_pinned() {
    #[derive(Clone, Default)]
    struct Sink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let sink = Sink::default();
    let outcome = record_capture(
        CaptureKind::Mix,
        BackendKind::Mono,
        true,
        0x7ACE,
        Box::new(sink.clone()),
    )
    .expect("capture records");
    assert_eq!(outcome.summary.events, 1316);
    assert_eq!(outcome.summary.responses, 2284);
    assert_eq!(outcome.summary.response_digest, 0x8c9e_c37a_360a_05dc);
    assert_eq!(outcome.state_digest, 0x1135_be60_e3cf_b90c);
    let bytes = sink.0.lock().unwrap();
    assert_eq!(fnv1a_bytes(FNV_OFFSET, &bytes), 0xd30a_c26e_d923_cd4f);
}
