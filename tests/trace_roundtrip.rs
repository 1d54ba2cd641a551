//! End-to-end reproducibility proof for the trace persistence subsystem:
//! record a quick experiment, persist it to disk, replay the file through
//! the `trace_replay` machinery and into a controller with and without
//! the tracing proxy, and assert that responses, `BackendStats` and the
//! final DRAM state are bit-identical everywhere. Corrupt files fail with
//! typed errors, never panics.

use std::fs;
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use impact::core::config::SystemConfig;
use impact::core::engine::{MemResponse, MemoryBackend};
use impact::core::rng::SimRng;
use impact::core::trace::{
    read_trace, replay_events, write_trace, TraceEvent, TraceWriter, TracingBackend,
};
use impact::memctrl::{ControllerBackend, MemoryController};
use impact::sim::{BackendKind, System, TracedSystem};
use impact::workloads::CapturedTrace;
use impact_attacks::PnmCovertChannel;
use impact_bench::trace_tools::{
    diff_readers, record_capture, replay_file, trace_stats, CaptureKind, DiffOutcome,
};

/// A unique scratch path under the system temp dir, removed on drop.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(name: &str) -> ScratchFile {
        ScratchFile(std::env::temp_dir().join(format!(
            "impact-{}-{}-{name}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").replace("::", "-"),
        )))
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

/// Records the quick capture workload into a real file.
fn record_quick_mix(path: &PathBuf) {
    let sink = fs::File::create(path).expect("create trace file");
    let outcome = record_capture(
        CaptureKind::Mix,
        BackendKind::Mono,
        true,
        0xE2E,
        Box::new(std::io::BufWriter::new(sink)),
    )
    .expect("record");
    assert!(outcome.summary.responses > 0);
}

/// The acceptance proof: a recorded trace replays bit-identically through
/// the `trace_replay` machinery, and into a fresh controller with and
/// without the tracing proxy in front of it — same responses, same
/// `BackendStats`, same final DRAM state.
#[test]
fn recording_replays_bit_identically_behind_the_proxy() {
    let scratch = ScratchFile::new("mono.trace");
    record_quick_mix(&scratch.0);

    // Stream-replay through the trace_replay machinery, which verifies
    // itself against the recorded footer.
    let reader = BufReader::new(fs::File::open(&scratch.0).expect("open trace"));
    let v = replay_file(reader, BackendKind::Mono).expect("replay");
    assert!(
        v.matches(),
        "responses/stats diverged from the recording: {v:?}"
    );

    // Full response streams (not just digests), stats and DRAM state are
    // bit-identical with and without the proxy.
    let captured = CapturedTrace::load(&scratch.0).expect("load");
    let cfg = SystemConfig::paper_table2();
    fn replay_all<B: MemoryBackend>(events: &[TraceEvent], backend: &mut B) -> Vec<MemResponse> {
        let mut responses = Vec::new();
        replay_events(events, backend, |resp| responses.push(resp)).expect("replay");
        responses
    }
    let mut bare = MemoryController::from_config(&cfg);
    let writer = TraceWriter::new(Vec::new(), &captured.header).expect("header");
    let mut proxied =
        TracingBackend::new(MemoryController::from_config(&cfg), writer).expect("fresh backend");
    let bare_responses = replay_all(&captured.events, &mut bare);
    assert_eq!(bare_responses.len() as u64, captured.summary.responses);
    assert_eq!(bare_responses, replay_all(&captured.events, &mut proxied));
    assert_eq!(bare.backend_stats(), v.stats);
    assert_eq!(
        bare.dram_state_digest(),
        v.state_digest,
        "final DRAM state diverged"
    );

    // Re-recording the replay writes the capture again, byte for byte.
    let (inner, summary, bytes) = proxied.finish().expect("seal");
    assert_eq!(summary, captured.summary);
    assert_eq!(inner.dram_state_digest(), v.state_digest);
    assert_eq!(bytes, fs::read(&scratch.0).expect("read trace file"));
}

/// `trace_replay diff` of a trace against itself reports zero divergence;
/// against a one-event mutation it reports the exact divergent index.
#[test]
fn diff_reports_zero_then_exact_divergence() {
    let scratch = ScratchFile::new("diff.trace");
    record_quick_mix(&scratch.0);
    let captured = CapturedTrace::load(&scratch.0).expect("load");

    // Self-diff: zero divergence.
    let open = || BufReader::new(fs::File::open(&scratch.0).expect("open"));
    match diff_readers(open(), open()).expect("diff") {
        DiffOutcome::Identical { events } => {
            assert_eq!(events, captured.summary.events);
        }
        other => panic!("self-diff must be identical, got {other:?}"),
    }

    // Mutate exactly one event and re-encode.
    let target = captured.events.len() / 3;
    let mut mutated = captured.clone();
    match &mut mutated.events[target] {
        TraceEvent::Request(req) => req.addr.0 ^= 64,
        TraceEvent::Batch(reqs) => reqs.truncate(1),
        TraceEvent::Inject { bank, .. } => *bank ^= 1,
    }
    let mutated_file = ScratchFile::new("diff-mutated.trace");
    let sink = fs::File::create(&mutated_file.0).expect("create");
    write_trace(sink, &mutated.header, &mutated.events, &mutated.summary).expect("write");

    match diff_readers(
        open(),
        BufReader::new(fs::File::open(&mutated_file.0).expect("open")),
    )
    .expect("diff")
    {
        DiffOutcome::EventMismatch {
            index, left, right, ..
        } => {
            assert_eq!(index, target as u64, "wrong divergent index");
            assert_eq!(left.as_ref(), captured.events.get(target));
            assert_eq!(right.as_ref(), mutated.events.get(target));
        }
        other => panic!("expected EventMismatch at {target}, got {other:?}"),
    }
}

/// Recording a whole experiment (the PnM covert channel on a traced
/// system) to disk leaves the experiment unchanged, and the file replays
/// to the untraced run's backend stats and DRAM state.
#[test]
fn recorded_experiment_equals_the_untraced_run() {
    let cfg = SystemConfig::paper_table2();
    let message = SimRng::seed(0x5111).bits(384);

    // Untraced reference run.
    let mut reference = System::new(cfg.clone());
    let mut channel = PnmCovertChannel::setup(&mut reference, 16).unwrap();
    let report = channel.transmit(&mut reference, &message).unwrap();

    // Recorded run of the same experiment.
    let scratch = ScratchFile::new("pnm.trace");
    let sink = std::io::BufWriter::new(fs::File::create(&scratch.0).unwrap());
    let mut recorded = TracedSystem::recording(cfg.clone(), sink, "paper_table2", 0x5111).unwrap();
    let mut channel = PnmCovertChannel::setup(&mut recorded, 16).unwrap();
    let recorded_report = channel.transmit(&mut recorded, &message).unwrap();
    assert_eq!(recorded_report, report, "recording changed the experiment");
    let (summary, _) = recorded.finish_trace().unwrap();
    assert_eq!(summary.stats, reference.backend().backend_stats());

    let (header, _, decoded_summary) =
        read_trace(BufReader::new(fs::File::open(&scratch.0).unwrap())).unwrap();
    assert_eq!(header.fingerprint, cfg.fingerprint());
    assert_eq!(decoded_summary, summary);

    // And the file replays onto a fresh controller with identical DRAM
    // state to the untraced run.
    let v = replay_file(
        BufReader::new(fs::File::open(&scratch.0).unwrap()),
        BackendKind::Mono,
    )
    .unwrap();
    assert!(v.matches());
    assert_eq!(v.state_digest, reference.backend().dram_state_digest());
}

/// A quick Mix capture's file bytes, recorded once per test binary.
fn quick_mix_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let scratch = ScratchFile::new("fuzz-base.trace");
        record_quick_mix(&scratch.0);
        fs::read(&scratch.0).expect("read trace file")
    })
}

proptest! {
    /// Flipping one to four bytes of a capture gives every reader a
    /// result or a typed error: decoding, replaying and summarizing a
    /// corrupt file never panics.
    #[test]
    fn mutated_captures_never_panic(
        flips in prop::collection::vec((0..quick_mix_bytes().len(), 1u8..255), 1..5)
    ) {
        let mut bytes = quick_mix_bytes().to_vec();
        for (at, mask) in flips {
            bytes[at] ^= mask;
        }
        let _ = replay_file(&bytes[..], BackendKind::Mono);
        let _ = trace_stats(&bytes[..]);
        // The capture check `fig_all --trace` and `fleet_run --trace` run
        // on whatever decodes.
        if let Ok(captured) = CapturedTrace::read_from(&bytes[..]) {
            let _ = captured.verify(&SystemConfig::paper_table2());
        }
    }
}
