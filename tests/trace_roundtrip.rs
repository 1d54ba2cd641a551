//! End-to-end reproducibility proof for the trace persistence subsystem:
//! record a quick experiment on the monolithic backend, persist it to
//! disk, replay the file through the `trace_replay` machinery on the
//! mono and traced backends, and assert that responses, `BackendStats`
//! and the final DRAM state are bit-identical everywhere. Corrupt files
//! fail with typed errors, never panics.

use std::fs;
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use impact::core::config::SystemConfig;
use impact::core::engine::{MemResponse, MemoryBackend};
use impact::core::rng::SimRng;
use impact::core::trace::{read_trace, replay, write_trace, TraceEvent};
use impact::memctrl::ControllerBackend;
use impact::sim::{BackendKind, TracedSystem};
use impact::workloads::CapturedTrace;
use impact_attacks::PnmCovertChannel;
use impact_bench::trace_tools::{
    diff_readers, first_divergence, record_capture, replay_file, trace_stats, CaptureKind,
    DiffOutcome,
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

/// Records the quick capture workload on mono into a real file.
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

/// The acceptance proof: a trace recorded on mono replays bit-identically
/// on a fresh mono backend and behind the tracing proxy — same responses,
/// same `BackendStats`, same final DRAM state.
#[test]
fn mono_recording_replays_bit_identically_on_other_backends() {
    let scratch = ScratchFile::new("mono.trace");
    record_quick_mix(&scratch.0);

    // Stream-replay through the trace_replay machinery on each backend;
    // each run verifies itself against the recorded footer.
    let mut verifications = Vec::new();
    for kind in [BackendKind::Mono, BackendKind::Traced] {
        let reader = BufReader::new(fs::File::open(&scratch.0).expect("open trace"));
        let v = replay_file(reader, kind).expect("replay");
        assert!(
            v.matches(),
            "{}: responses/stats diverged from the recording: {v:?}",
            kind.label()
        );
        verifications.push((kind.label(), v));
    }
    // ... and against each other: responses (via digest), stats and DRAM
    // state must agree across the whole matrix.
    let (_, reference) = &verifications[0];
    for (label, v) in &verifications[1..] {
        assert_eq!(v.response_digest, reference.response_digest, "{label}");
        assert_eq!(v.responses, reference.responses, "{label}");
        assert_eq!(v.stats, reference.stats, "{label}");
        assert_eq!(
            v.state_digest, reference.state_digest,
            "{label}: final DRAM state diverged"
        );
    }

    // Full response streams (not just digests) are bit-identical too.
    let captured = CapturedTrace::load(&scratch.0).expect("load");
    let cfg = SystemConfig::paper_table2();
    let responses_on = |kind: BackendKind| -> Vec<MemResponse> {
        let mut backend = kind.backend(&cfg);
        replay(&captured.events, &mut backend).expect("replay events")
    };
    let mono = responses_on(BackendKind::Mono);
    assert_eq!(mono.len() as u64, captured.summary.responses);
    assert_eq!(mono, responses_on(BackendKind::Traced));
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
    assert_eq!(
        first_divergence(&captured.events, &mutated.events),
        Some(target as u64)
    );
    assert_eq!(first_divergence(&captured.events, &captured.events), None);
}

/// Spill-to-disk recording of a whole experiment (the PnM covert channel
/// on a traced system) decodes to the same events, digest and stats as
/// the in-memory log of an identical run.
#[test]
fn spilled_experiment_equals_in_memory_log() {
    let cfg = SystemConfig::paper_table2();
    let message = SimRng::seed(0x5111).bits(384);

    // In-memory reference run.
    let mut reference = TracedSystem::traced(cfg.clone());
    let mut channel = PnmCovertChannel::setup(&mut reference, 16).unwrap();
    let report = channel.transmit(&mut reference, &message).unwrap();

    // Spilled run of the same experiment.
    let scratch = ScratchFile::new("pnm.trace");
    let mut spilled = TracedSystem::traced(cfg.clone());
    spilled
        .record_trace_to(
            Box::new(std::io::BufWriter::new(
                fs::File::create(&scratch.0).unwrap(),
            )),
            "paper_table2",
            0x5111,
        )
        .unwrap();
    let mut channel = PnmCovertChannel::setup(&mut spilled, 16).unwrap();
    let spilled_report = channel.transmit(&mut spilled, &message).unwrap();
    assert_eq!(
        spilled_report, report,
        "tracing mode changed the experiment"
    );
    let summary = spilled.finish_trace().unwrap().expect("was recording");

    let (header, events, decoded_summary) =
        read_trace(BufReader::new(fs::File::open(&scratch.0).unwrap())).unwrap();
    assert_eq!(header.fingerprint, cfg.fingerprint());
    assert_eq!(events, reference.trace_log(), "event streams diverged");
    assert_eq!(decoded_summary, summary);
    assert_eq!(
        summary.response_digest,
        reference.backend().response_digest()
    );
    assert_eq!(summary.stats, reference.backend().backend_stats());

    // And the file replays onto a fresh controller with identical DRAM
    // state to the original run.
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
        let _ = CapturedTrace::read_from(&bytes[..]);
    }
}
