//! Recording, replaying, diffing and sweeping persisted controller traces
//! — the library behind the `trace_replay` binary and `fig_all --trace`.
//!
//! A trace file makes cross-machine reproducibility a *checkable
//! property*: [`record_capture`] runs a canonical workload through the
//! tracing proxy ([`TracedSystem`]), which streams it straight to disk;
//! [`replay_file`] re-services the file on a fresh [`MemoryController`]
//! and verifies the responses, [`BackendStats`] and DRAM state digest
//! bit-for-bit against the recorded footer; [`verify_capture`] runs
//! [`CapturedTrace::verify`], the same check on a loaded capture, before
//! anything uses it; [`diff_readers`] pinpoints the first divergent event
//! between two captures; and [`TraceScenario`] turns a captured file into
//! a prefix-replay [`Figure`] that runs alongside the built-in experiment
//! suite.

use std::io::{Read, Write};

use impact_attacks::PnmCovertChannel;
use impact_core::config::SystemConfig;
use impact_core::engine::{BackendStats, MemoryBackend};
use impact_core::error::{Error, Result};
use impact_core::rng::SimRng;
use impact_core::trace::{
    replay_events, TraceEvent, TraceHeader, TraceReader, TraceSummary, TraceWriter, TracingBackend,
};
use impact_memctrl::{ControllerBackend, MemoryController};
use impact_sim::{BackendKind, TracedSystem};
use impact_workloads::{kernels, CapturedTrace, Graph, RequestMix};

use crate::{Figure, Series};

/// Resolves a trace header's config label to the [`SystemConfig`] it
/// names. Labels are how a replay on another machine rebuilds the
/// recorded system; the header fingerprint then proves the resolution is
/// exact.
#[must_use]
pub fn config_for_label(label: &str) -> Option<SystemConfig> {
    match label {
        "paper_table2" => Some(SystemConfig::paper_table2()),
        "paper_table2_noiseless" => Some(SystemConfig::paper_table2_noiseless()),
        _ => None,
    }
}

/// Resolves a trace header to the [`SystemConfig`] it was recorded on:
/// the label through [`config_for_label`], then the fingerprint check.
///
/// # Errors
///
/// [`Error::TraceFormat`] for an unknown config label;
/// [`Error::TraceConfigMismatch`] when the label resolves to a different
/// configuration than the recording's.
pub fn resolve_config(header: &TraceHeader) -> Result<SystemConfig> {
    let cfg = config_for_label(&header.label).ok_or_else(|| {
        Error::TraceFormat(format!(
            "unknown config label {:?} (known: paper_table2, paper_table2_noiseless)",
            header.label
        ))
    })?;
    header.expect_config(&cfg)?;
    Ok(cfg)
}

/// The canonical capture workloads `trace_replay record` offers. Each is
/// deterministic in (seed, quick), so the same invocation on two machines
/// produces byte-identical trace files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureKind {
    /// A seeded mixed stream of loads, stores, PiM ops, batched bursts and
    /// RowClones across every bank (the default).
    Mix,
    /// The IMPACT-PnM covert channel transmitting a seeded message.
    Pnm,
    /// A BFS kernel trace replayed through the engine.
    Bfs,
}

impl CaptureKind {
    /// Parses `"mix"`, `"pnm"` or `"bfs"`.
    #[must_use]
    pub fn parse(s: &str) -> Option<CaptureKind> {
        match s {
            "mix" => Some(CaptureKind::Mix),
            "pnm" => Some(CaptureKind::Pnm),
            "bfs" => Some(CaptureKind::Bfs),
            _ => None,
        }
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CaptureKind::Mix => "mix",
            CaptureKind::Pnm => "pnm",
            CaptureKind::Bfs => "bfs",
        }
    }
}

/// Result of one [`record_capture`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureOutcome {
    /// Config label written into the header (resolve with
    /// [`config_for_label`]).
    pub label: String,
    /// The sealed footer.
    pub summary: TraceSummary,
    /// DRAM state digest of the recording backend after the run.
    pub state_digest: u64,
}

/// Records `kind` through a [`TracedSystem`] over the controller
/// `backend` names, streaming the trace into `sink` (the recording never
/// materializes in memory). The same (kind, quick, seed) gives
/// byte-identical trace files on every machine.
///
/// # Errors
///
/// Propagates simulator and trace-write errors.
pub fn record_capture(
    kind: CaptureKind,
    backend: BackendKind,
    quick: bool,
    seed: u64,
    sink: Box<dyn Write + Send>,
) -> Result<CaptureOutcome> {
    let BackendKind::Mono = backend;
    let label = "paper_table2";
    let mut sys = TracedSystem::recording(SystemConfig::paper_table2(), sink, label, seed)?;
    match kind {
        CaptureKind::Mix => run_mix(&mut sys, quick, seed)?,
        CaptureKind::Pnm => {
            let message = SimRng::seed(seed).bits(if quick { 256 } else { 2048 });
            let mut channel = PnmCovertChannel::setup(&mut sys, 16)?;
            channel.transmit(&mut sys, &message)?;
        }
        CaptureKind::Bfs => {
            let (nodes, edges) = if quick { (64, 256) } else { (512, 4096) };
            let graph = Graph::uniform_random(nodes, edges, seed);
            let (_, trace) = kernels::bfs(&graph, 0);
            let agent = sys.spawn_agent();
            impact_workloads::replay(&mut sys, agent, &trace)?;
        }
    }
    let state_digest = sys.backend().dram_state_digest();
    let (summary, _) = sys.finish_trace()?;
    Ok(CaptureOutcome {
        label: label.to_string(),
        summary,
        state_digest,
    })
}

/// The seeded mixed workload: demand loads/stores, monitored and
/// offloaded PiM ops, batched direct-load bursts and masked RowClones,
/// touching every bank of the device.
fn run_mix(sys: &mut TracedSystem, quick: bool, seed: u64) -> Result<()> {
    let mut rng = SimRng::seed(seed);
    let agent = sys.spawn_agent();
    let banks = sys.backend().num_banks();
    let mut rows = Vec::with_capacity(banks);
    for bank in 0..banks {
        let va = sys.alloc_row_in_bank(agent, bank)?;
        sys.warm_tlb(agent, va, 2);
        rows.push(va);
    }
    let src = sys.alloc_bank_stripe(agent, 1)?;
    let dst = sys.alloc_bank_stripe(agent, 1)?;
    sys.warm_tlb(agent, src, 2 * banks as u64);
    sys.warm_tlb(agent, dst, 2 * banks as u64);

    let ops = if quick { 1_500 } else { 40_000 };
    for _ in 0..ops {
        let row = rows[rng.below(rows.len() as u64) as usize];
        let offset = rng.below(64) * 64;
        match rng.below(20) {
            0..=7 => {
                sys.load(agent, row + offset)?;
            }
            8..=10 => {
                sys.store(agent, row + offset)?;
            }
            11..=14 => {
                sys.pim_op(agent, row + offset)?;
            }
            15..=16 => {
                sys.pim_op_direct(agent, row + offset)?;
            }
            17..=18 => {
                // A burst over eight distinct banks through the batched
                // request path (preserves `Batch` boundaries in the trace).
                let base = rng.below(banks as u64 - 8) as usize;
                let vas: Vec<_> = (0..8).map(|i| rows[base + i] + offset).collect();
                sys.load_direct_batch(agent, &vas)?;
            }
            _ => {
                let mask = rng.below((1 << banks.min(16)) - 1) + 1;
                sys.rowclone(agent, src, dst, mask)?;
            }
        }
    }
    Ok(())
}

/// Outcome of verifying one trace file on a fresh controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayVerification {
    /// Header of the replayed file.
    pub header: TraceHeader,
    /// Footer recorded with the file.
    pub recorded: TraceSummary,
    /// Responses produced by the replay.
    pub responses: u64,
    /// Response digest produced by the replay.
    pub response_digest: u64,
    /// Final [`BackendStats`] of the replaying controller.
    pub stats: BackendStats,
    /// Final DRAM state digest of the replaying controller — equal to the
    /// recording controller's when the replay is faithful.
    pub state_digest: u64,
    /// Pool-scheduling telemetry of the replaying controller,
    /// `(parallel_batches, sequential_fallbacks)` from
    /// [`ControllerBackend::scheduling_counts`]: always `(0, 0)`, since the
    /// controller dispatches to no worker pool. Diagnostic only, so it is
    /// not part of [`ReplayVerification::matches`].
    pub pool_batches: (u64, u64),
}

impl ReplayVerification {
    /// True when the replay reproduced the recorded run bit-for-bit
    /// ([`TraceSummary::reproduced_by`]).
    #[must_use]
    pub fn matches(&self) -> bool {
        self.recorded
            .reproduced_by(self.responses, self.response_digest, &self.stats)
    }
}

/// Resolves a loaded capture's header to its [`SystemConfig`]
/// ([`resolve_config`]) and runs [`CapturedTrace::verify`] on it, so
/// nothing uses a capture whose events do not reproduce its footer.
/// Returns the resolved configuration. `fig_all --trace` calls it through
/// [`TraceScenario::new`]; `fleet_run --trace` reaches the same check
/// through `FleetService::admit_trace`.
///
/// # Errors
///
/// [`Error::TraceFormat`] for an unknown config label or a capture whose
/// events do not reproduce the footer; [`Error::TraceConfigMismatch`]
/// when label and fingerprint disagree; the first error a recorded event
/// raises when serviced.
pub fn verify_capture(captured: &CapturedTrace) -> Result<SystemConfig> {
    let cfg = resolve_config(&captured.header)?;
    captured.verify(&cfg)?;
    Ok(cfg)
}

/// Streams a trace file into a fresh [`MemoryController`], the one `kind`
/// names, and verifies it against the recorded footer. Constant-memory:
/// events are serviced as they decode.
///
/// # Errors
///
/// Decode errors, [`Error::TraceFormat`] for an unknown config label,
/// [`Error::TraceConfigMismatch`] when the label resolves to a different
/// configuration than the recording's, and backend service errors.
pub fn replay_file<R: Read>(reader: R, kind: BackendKind) -> Result<ReplayVerification> {
    let BackendKind::Mono = kind;
    let mut reader = TraceReader::new(reader)?;
    let cfg = resolve_config(reader.header())?;
    let mut backend = MemoryController::from_config(&cfg);
    let (responses, digest) = impact_core::trace::replay_digest(
        std::iter::from_fn(|| reader.next_event().transpose()),
        &mut backend,
    )?;
    let recorded = reader
        .summary()
        .expect("stream ended with a footer")
        .clone();
    Ok(ReplayVerification {
        header: reader.header().clone(),
        recorded,
        responses,
        response_digest: digest,
        stats: backend.backend_stats(),
        state_digest: backend.dram_state_digest(),
        pool_batches: backend.scheduling_counts(),
    })
}

/// Where two traces diverged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffOutcome {
    /// Streams are event-identical with matching footers.
    Identical {
        /// Events compared.
        events: u64,
    },
    /// Headers differ (field-by-field description).
    HeaderMismatch(Vec<String>),
    /// First divergent event.
    EventMismatch {
        /// Zero-based index of the first divergent event.
        index: u64,
        /// The event in the left stream (`None`: stream ended early).
        left: Option<TraceEvent>,
        /// The event in the right stream (`None`: stream ended early).
        right: Option<TraceEvent>,
        /// Up to three shared events immediately before the divergence.
        context: Vec<TraceEvent>,
    },
    /// Events identical, footers differ.
    SummaryMismatch {
        /// Left footer.
        left: TraceSummary,
        /// Right footer.
        right: TraceSummary,
    },
}

/// Streaming event-by-event comparison of two trace files; reports the
/// first divergence with surrounding context.
///
/// # Errors
///
/// Propagates decode errors from either stream.
pub fn diff_readers<A: Read, B: Read>(a: A, b: B) -> Result<DiffOutcome> {
    let mut left = TraceReader::new(a)?;
    let mut right = TraceReader::new(b)?;
    let mut header_diffs = Vec::new();
    let (ha, hb) = (left.header().clone(), right.header().clone());
    if ha.version != hb.version {
        header_diffs.push(format!("version: {} vs {}", ha.version, hb.version));
    }
    if ha.fingerprint != hb.fingerprint {
        header_diffs.push(format!(
            "config fingerprint: {:#018x} vs {:#018x}",
            ha.fingerprint, hb.fingerprint
        ));
    }
    if ha.seed != hb.seed {
        header_diffs.push(format!("seed: {} vs {}", ha.seed, hb.seed));
    }
    if ha.label != hb.label {
        header_diffs.push(format!("config label: {:?} vs {:?}", ha.label, hb.label));
    }
    if !header_diffs.is_empty() {
        return Ok(DiffOutcome::HeaderMismatch(header_diffs));
    }

    let mut context: std::collections::VecDeque<TraceEvent> = std::collections::VecDeque::new();
    let mut index = 0u64;
    loop {
        let (ea, eb) = (left.next_event()?, right.next_event()?);
        match (ea, eb) {
            (None, None) => break,
            (ea, eb) if ea == eb => {
                if context.len() == 3 {
                    context.pop_front();
                }
                context.push_back(ea.expect("both Some when equal and not both None"));
                index += 1;
            }
            (ea, eb) => {
                return Ok(DiffOutcome::EventMismatch {
                    index,
                    left: ea,
                    right: eb,
                    context: context.into_iter().collect(),
                });
            }
        }
    }
    let sa = left.summary().expect("footer parsed").clone();
    let sb = right.summary().expect("footer parsed").clone();
    if sa == sb {
        Ok(DiffOutcome::Identical { events: index })
    } else {
        Ok(DiffOutcome::SummaryMismatch {
            left: sa,
            right: sb,
        })
    }
}

/// Summarizes a trace file's request mix (`trace_replay stats`).
///
/// # Errors
///
/// As for [`replay_file`], minus the service step.
pub fn trace_stats<R: Read>(reader: R) -> Result<(TraceHeader, RequestMix, TraceSummary)> {
    let captured = CapturedTrace::read_from(reader)?;
    let cfg = resolve_config(&captured.header)?;
    let mix = captured.mix(&MemoryController::from_config(&cfg));
    Ok((captured.header, mix, captured.summary))
}

/// Outcome of [`slice_capture`] or [`merge_captures`]: the output trace's
/// recomputed footer plus the recomputing controller's final DRAM state
/// digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceOutcome {
    /// The slice's footer, recomputed by replaying the window on a fresh
    /// controller.
    pub summary: TraceSummary,
    /// DRAM state digest after the slicing replay.
    pub state_digest: u64,
}

/// Extracts the event window `[start, start + count)` of a capture into a
/// standalone, footer-valid trace written to `sink` (`trace_replay
/// slice`).
///
/// The sliced events are copied verbatim (header included); the footer is
/// *recomputed* by replaying the window on a fresh controller of the
/// header's configuration, because a window cut out of a longer run
/// produces different responses when serviced from pristine DRAM state.
/// The output is therefore a first-class trace: `trace_replay replay`
/// verifies it and `diff`/`stats` read it like any capture — which is
/// what makes slicing useful for shrinking a large diverging capture down
/// to a small standalone repro.
///
/// # Errors
///
/// [`Error::TraceFormat`] for an unknown config label or an out-of-range
/// window; [`Error::TraceConfigMismatch`] when label and fingerprint
/// disagree; trace-write and backend service errors.
pub fn slice_capture<W: Write>(
    captured: &CapturedTrace,
    start: usize,
    count: usize,
    sink: W,
) -> Result<SliceOutcome> {
    let total = captured.events.len();
    let end = start
        .checked_add(count)
        .filter(|&e| e <= total)
        .ok_or_else(|| {
            Error::TraceFormat(format!(
                "slice [{start}, {start}+{count}) out of range for {total} events"
            ))
        })?;
    let cfg = resolve_config(&captured.header)?;
    rewrite(
        &cfg,
        &captured.header,
        captured.events[start..end].iter(),
        sink,
    )
}

/// Concatenates captured traces into one standalone, footer-valid trace
/// written to `sink` (`trace_replay merge`).
///
/// Every input must carry the same config label and fingerprint (the
/// merged events replay against one configuration); the output reuses the
/// first input's header, so its seed records the first capture's
/// provenance. Events are copied verbatim in input order and the footer
/// is *recomputed* by replaying the concatenation on a fresh controller —
/// later inputs are serviced against the DRAM state the earlier ones left
/// behind, so the merged footer is not the sum of the input footers. As
/// with [`slice_capture`], the result is a first-class trace: `replay`
/// verifies it, `diff`/`stats`/`slice` read it like any capture.
///
/// # Errors
///
/// [`Error::TraceFormat`] when fewer than two inputs are given, for an
/// unknown config label, or when the inputs disagree on label or
/// fingerprint; [`Error::TraceConfigMismatch`] when label and fingerprint
/// disagree; trace-write and backend service errors.
pub fn merge_captures<W: Write>(inputs: &[CapturedTrace], sink: W) -> Result<SliceOutcome> {
    let [first, rest @ ..] = inputs else {
        return Err(Error::TraceFormat("merge needs at least two traces".into()));
    };
    if rest.is_empty() {
        return Err(Error::TraceFormat("merge needs at least two traces".into()));
    }
    let cfg = resolve_config(&first.header)?;
    for (i, input) in rest.iter().enumerate() {
        if input.header.label != first.header.label
            || input.header.fingerprint != first.header.fingerprint
        {
            return Err(Error::TraceFormat(format!(
                "input {} was captured on {:?} ({:#018x}), expected {:?} ({:#018x})",
                i + 2,
                input.header.label,
                input.header.fingerprint,
                first.header.label,
                first.header.fingerprint,
            )));
        }
    }
    let events = inputs.iter().flat_map(|input| &input.events);
    rewrite(&cfg, &first.header, events, sink)
}

/// Writes `events` under `header` as a standalone trace whose footer is
/// recomputed from pristine state — the shared tail of [`slice_capture`]
/// and [`merge_captures`]. The events replay on a fresh controller of
/// `cfg` behind the tracing proxy, which records them again as they are
/// serviced. On error `sink` holds a stream without a footer, which
/// readers reject.
fn rewrite<'a, W: Write>(
    cfg: &SystemConfig,
    header: &TraceHeader,
    events: impl IntoIterator<Item = &'a TraceEvent>,
    sink: W,
) -> Result<SliceOutcome> {
    let writer = TraceWriter::new(sink, header)?;
    let mut proxy = TracingBackend::new(MemoryController::from_config(cfg), writer)?;
    replay_events(events, &mut proxy, |_| {})?;
    let (backend, summary, _) = proxy.finish()?;
    Ok(SliceOutcome {
        summary,
        state_digest: backend.dram_state_digest(),
    })
}

/// A verified capture, ready to run as the `fig_all --trace` experiment:
/// x sweeps the replayed prefix (fraction of events), y reports mean
/// response latency in cycles/op over that prefix, replayed from a fresh
/// controller. The figure is a function of the capture alone, so captured
/// workloads inherit the suite's reproducibility contract for free.
#[derive(Debug, Clone)]
pub struct TraceScenario {
    captured: CapturedTrace,
    cfg: SystemConfig,
}

impl TraceScenario {
    /// Wraps a loaded capture for replay once [`verify_capture`] accepts
    /// it, so [`TraceScenario::figure`] can replay any prefix without a
    /// fallible path.
    ///
    /// # Errors
    ///
    /// As for [`verify_capture`].
    pub fn new(captured: CapturedTrace) -> Result<TraceScenario> {
        let cfg = verify_capture(&captured)?;
        Ok(TraceScenario { captured, cfg })
    }

    /// Reports the mean latency over the first 25%, 50%, 75% and 100% of
    /// the events, and adds a request-mix note line. A prefix replayed on a
    /// fresh controller is a prefix of the full replay, so one replay on
    /// one fresh controller reads every point at its cut.
    #[must_use]
    pub fn figure(&self) -> Figure {
        let events = &self.captured.events;
        let mut backend = MemoryController::from_config(&self.cfg);
        let (mut replayed, mut responses, mut total_latency) = (0, 0u64, 0u64);
        let points = [0.25, 0.5, 0.75, 1.0]
            .into_iter()
            .map(|x| {
                let cut = (events.len() as f64 * x).round() as usize;
                replay_events(&events[replayed..cut], &mut backend, |resp| {
                    responses += 1;
                    total_latency += resp.latency.0;
                })
                .expect("full replay was validated by verify_capture");
                replayed = cut;
                let y = if responses == 0 {
                    0.0
                } else {
                    total_latency as f64 / responses as f64
                };
                (x, y)
            })
            .collect();
        let mix = self.captured.mix(&MemoryController::from_config(&self.cfg));
        let summary = &self.captured.summary;
        Figure::new(
            "trace",
            "Captured-trace workload replay",
            "fraction of trace replayed",
            "mean response latency (cycles/op)",
        )
        .with_series(Series::new("captured trace replay (cycles/op)", points))
        .with_note(format!(
            "{} events, {} responses; mix: {} loads, {} stores, {} pim, {} rowclone, {} inject \
             ({} batches, max {}); recorded digest {:#018x}",
            summary.events,
            summary.responses,
            mix.loads,
            mix.stores,
            mix.pims,
            mix.rowclones,
            mix.injects,
            mix.batches,
            mix.max_batch,
            summary.response_digest,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_capture(kind: CaptureKind) -> (Vec<u8>, CaptureOutcome) {
        let buf = SharedVec::default();
        let outcome =
            record_capture(kind, BackendKind::Mono, true, 0x7ACE, Box::new(buf.clone())).unwrap();
        (buf.take(), outcome)
    }

    /// Shared growable sink so tests can get bytes back out of the boxed
    /// writer.
    #[derive(Clone, Default)]
    #[expect(
        clippy::disallowed_types,
        reason = "the boxed writer must be Send, so the test reads it back through a Mutex"
    )]
    struct SharedVec(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl SharedVec {
        fn take(&self) -> Vec<u8> {
            std::mem::take(&mut self.0.lock().unwrap())
        }
    }

    impl Write for SharedVec {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn config_labels_resolve_and_fingerprint() {
        for label in ["paper_table2", "paper_table2_noiseless"] {
            let cfg = config_for_label(label).unwrap();
            let header = TraceHeader::for_config(&cfg, label, 0);
            assert!(header
                .expect_config(&config_for_label(label).unwrap())
                .is_ok());
        }
        assert!(config_for_label("paper_table2_noiseless+banks:1024").is_none());
        assert!(config_for_label("nope").is_none());
    }

    #[test]
    fn capture_kinds_parse() {
        for kind in [CaptureKind::Mix, CaptureKind::Pnm, CaptureKind::Bfs] {
            assert_eq!(CaptureKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(CaptureKind::parse("nope"), None);
    }

    #[test]
    fn recorded_capture_replays_bit_for_bit() {
        let (bytes, outcome) = quick_capture(CaptureKind::Mix);
        assert!(outcome.summary.responses > 0);
        let v = replay_file(&bytes[..], BackendKind::Mono).unwrap();
        assert!(v.matches(), "replay diverged: {v:?}");
        assert_eq!(v.state_digest, outcome.state_digest);
        assert!(matches!(
            diff_readers(&bytes[..], &bytes[..]).unwrap(),
            DiffOutcome::Identical { events } if events == outcome.summary.events
        ));
    }

    #[test]
    fn pnm_and_bfs_captures_record_and_replay() {
        for kind in [CaptureKind::Pnm, CaptureKind::Bfs] {
            let (bytes, outcome) = quick_capture(kind);
            assert!(outcome.summary.responses > 0, "{} empty", kind.name());
            let v = replay_file(&bytes[..], BackendKind::Mono).unwrap();
            assert!(v.matches(), "{} diverged", kind.name());
        }
    }

    #[test]
    fn merged_halves_reproduce_the_original_capture() {
        let (bytes, outcome) = quick_capture(CaptureKind::Mix);
        let captured = CapturedTrace::read_from(&bytes[..]).unwrap();
        let total = captured.events.len();
        assert!(total > 10, "capture too small to split");

        // Split into standalone halves, then merge them back together.
        let halves: Vec<CapturedTrace> = [(0, total / 2), (total / 2, total - total / 2)]
            .into_iter()
            .map(|(start, count)| {
                let sink = SharedVec::default();
                slice_capture(&captured, start, count, sink.clone()).unwrap();
                CapturedTrace::read_from(&sink.take()[..]).unwrap()
            })
            .collect();
        let sink = SharedVec::default();
        let merged = merge_captures(&halves, sink.clone()).unwrap();

        // The merged footer is recomputed over the full concatenation, so
        // it matches the original capture exactly — and the merged trace
        // is a first-class replay artifact.
        assert_eq!(merged.summary, outcome.summary);
        assert_eq!(merged.state_digest, outcome.state_digest);
        let v = replay_file(&sink.take()[..], BackendKind::Mono).unwrap();
        assert!(v.matches(), "merged trace diverged: {v:?}");

        // Fewer than two inputs is a usage error, not a silent copy.
        assert!(merge_captures(&halves[..1], Vec::new()).is_err());
    }

    #[test]
    fn sliced_window_is_standalone_and_footer_valid() {
        let (bytes, _) = quick_capture(CaptureKind::Mix);
        let captured = CapturedTrace::read_from(&bytes[..]).unwrap();
        let total = captured.events.len();
        assert!(total > 10, "capture too small to slice");
        let (start, count) = (total / 4, total / 2);
        let sliced = slice_capture(&captured, start, count, Vec::new()).unwrap();
        assert_eq!(sliced.summary.events, count as u64);

        // Round-trip: the slice decodes, carries the original header, and
        // holds exactly the window's events.
        let mut bytes = Vec::new();
        slice_capture(&captured, start, count, &mut bytes).unwrap();
        let reread = CapturedTrace::read_from(&bytes[..]).unwrap();
        assert_eq!(reread.header, captured.header);
        assert_eq!(reread.events[..], captured.events[start..start + count]);
        assert_eq!(reread.summary, sliced.summary);

        // Footer-valid: a fresh replay verifies it.
        let v = replay_file(&bytes[..], BackendKind::Mono).unwrap();
        assert!(v.matches(), "slice diverged: {v:?}");

        // A mid-stream window serviced from pristine state produces
        // different responses than it did in context — exactly why the
        // footer is recomputed rather than copied.
        assert_ne!(
            sliced.summary.response_digest,
            captured.summary.response_digest
        );

        // Degenerate and out-of-range windows.
        let full = slice_capture(&captured, 0, total, Vec::new()).unwrap();
        assert_eq!(full.summary, captured.summary);
        assert!(matches!(
            slice_capture(&captured, total, 1, Vec::new()),
            Err(Error::TraceFormat(_))
        ));
        assert!(matches!(
            slice_capture(&captured, 0, total + 1, Vec::new()),
            Err(Error::TraceFormat(_))
        ));
    }

    #[test]
    fn diff_pinpoints_divergence_and_context() {
        let (bytes, _) = quick_capture(CaptureKind::Mix);
        let captured = CapturedTrace::read_from(&bytes[..]).unwrap();
        let mut mutated = captured.clone();
        let target = mutated.events.len() / 2;
        match &mut mutated.events[target] {
            TraceEvent::Request(req) => req.actor ^= 1,
            TraceEvent::Batch(reqs) => reqs.clear(),
            TraceEvent::Inject { row, .. } => *row ^= 1,
        }
        let mutated_bytes = impact_core::trace::write_trace(
            Vec::new(),
            &mutated.header,
            &mutated.events,
            &mutated.summary,
        )
        .unwrap();
        match diff_readers(&bytes[..], &mutated_bytes[..]).unwrap() {
            DiffOutcome::EventMismatch {
                index,
                left,
                right,
                context,
            } => {
                assert_eq!(index, target as u64);
                assert!(left.is_some() && right.is_some());
                assert!(context.len() <= 3);
                assert_eq!(
                    context.last(),
                    captured.events.get(target - 1),
                    "context must be the events before the divergence"
                );
            }
            other => panic!("expected EventMismatch, got {other:?}"),
        }
        // A stream that ends early diverges at its own length.
        let short_bytes = impact_core::trace::write_trace(
            Vec::new(),
            &captured.header,
            &captured.events[..4],
            &captured.summary,
        )
        .unwrap();
        match diff_readers(&short_bytes[..], &bytes[..]).unwrap() {
            DiffOutcome::EventMismatch {
                index, left, right, ..
            } => {
                assert_eq!(index, 4);
                assert_eq!(left, None);
                assert_eq!(right.as_ref(), captured.events.get(4));
            }
            other => panic!("expected EventMismatch, got {other:?}"),
        }
    }

    #[test]
    fn stats_summarize_the_mix() {
        let (bytes, _) = quick_capture(CaptureKind::Mix);
        let (header, mix, summary) = trace_stats(&bytes[..]).unwrap();
        assert_eq!(header.label, "paper_table2");
        assert!(mix.loads > 0 && mix.stores > 0 && mix.pims > 0);
        assert!(mix.rowclones > 0 && mix.batches > 0);
        assert!(mix.injects > 0, "paper_table2 noise must inject");
        assert_eq!(mix.per_bank.len(), 16);
        assert!(summary.responses >= mix.loads + mix.stores);
    }

    /// The figure's single replay reads, bit for bit, the points a replay
    /// of each prefix on its own fresh controller gives.
    #[test]
    fn trace_scenario_sweeps_the_capture() {
        let (bytes, _) = quick_capture(CaptureKind::Mix);
        let captured = CapturedTrace::read_from(&bytes[..]).unwrap();
        let cfg = resolve_config(&captured.header).unwrap();
        let fig = TraceScenario::new(captured.clone()).unwrap().figure();
        assert_eq!(fig.id, "trace");
        let series = &fig.series[0];
        assert_eq!(series.points.len(), 4);
        for &(x, y) in &series.points {
            let cut = (captured.events.len() as f64 * x).round() as usize;
            let mut fresh = MemoryController::from_config(&cfg);
            let (mut responses, mut total_latency) = (0u64, 0u64);
            replay_events(&captured.events[..cut], &mut fresh, |resp| {
                responses += 1;
                total_latency += resp.latency.0;
            })
            .unwrap();
            assert!(responses > 0);
            let expect = total_latency as f64 / responses as f64;
            assert_eq!(y.to_bits(), expect.to_bits(), "point at {x}");
        }
        assert!(series.points.iter().all(|&(_, y)| y > 0.0));
        // And the figure carries the mix note.
        assert!(fig.notes[0].contains("events"));
    }

    #[test]
    fn trace_scenario_rejects_unreplayable_captures() {
        use impact_core::addr::PhysAddr;
        use impact_core::engine::MemRequest;
        use impact_core::time::Cycles;
        let (bytes, _) = quick_capture(CaptureKind::Mix);

        // An out-of-range request must surface as an error from new(),
        // not a panic inside figure().
        let mut bad = CapturedTrace::read_from(&bytes[..]).unwrap();
        bad.events.push(TraceEvent::Request(MemRequest::load(
            PhysAddr(u64::MAX),
            Cycles(0),
            0,
        )));
        bad.summary.events += 1;
        assert!(TraceScenario::new(bad).is_err());

        // So must an injected activation on a bank the device lacks.
        let mut bad_bank = CapturedTrace::read_from(&bytes[..]).unwrap();
        let first_inject = bad_bank
            .events
            .iter_mut()
            .find_map(|ev| match ev {
                TraceEvent::Inject { bank, .. } => Some(bank),
                _ => None,
            })
            .expect("the Mix capture injects activations");
        *first_inject = 16;
        assert!(matches!(
            TraceScenario::new(bad_bank),
            Err(Error::TraceFormat(msg))
                if msg == "inject event targets bank 16 of a 16-bank device"
        ));

        // So must an arrival time past the replay horizon...
        let mut far_future = CapturedTrace::read_from(&bytes[..]).unwrap();
        far_future.events.push(TraceEvent::Request(MemRequest::load(
            PhysAddr(0),
            Cycles(u64::MAX),
            0,
        )));
        far_future.summary.events += 1;
        assert!(matches!(
            TraceScenario::new(far_future),
            Err(Error::TraceFormat(msg)) if msg.contains("replay horizon")
        ));

        // ...and a RowClone whose lanes run past the end of the address
        // space, on either (row-aligned) range.
        for (src, dst) in [(u64::MAX - 8191, 0), (0, u64::MAX - 8191)] {
            let mut wrapping = CapturedTrace::read_from(&bytes[..]).unwrap();
            wrapping
                .events
                .push(TraceEvent::Request(MemRequest::rowclone(
                    PhysAddr(src),
                    PhysAddr(dst),
                    0b10,
                    Cycles(0),
                    0,
                )));
            wrapping.summary.events += 1;
            assert!(matches!(
                TraceScenario::new(wrapping),
                Err(Error::AddressOutOfRange { .. })
            ));
        }

        // A footer that doesn't match the events (here: a silently dropped
        // tail) is rejected too.
        let mut short = CapturedTrace::read_from(&bytes[..]).unwrap();
        short.events.truncate(short.events.len() / 2);
        short.summary.events = short.events.len() as u64;
        assert!(matches!(
            TraceScenario::new(short),
            Err(Error::TraceFormat(msg)) if msg.contains("footer")
        ));

        // So is a footer whose responses and digest reproduce but whose
        // recorded backend stats do not.
        let mut stats_only = CapturedTrace::read_from(&bytes[..]).unwrap();
        stats_only.summary.stats.accesses += 1;
        assert!(matches!(
            TraceScenario::new(stats_only),
            Err(Error::TraceFormat(msg)) if msg.contains("footer")
        ));
    }

    #[test]
    fn replay_rejects_unknown_labels() {
        let (bytes, _) = quick_capture(CaptureKind::Mix);
        let captured = CapturedTrace::read_from(&bytes[..]).unwrap();
        let mut bad = captured;
        bad.header.label = "mystery".into();
        let bad_bytes =
            impact_core::trace::write_trace(Vec::new(), &bad.header, &bad.events, &bad.summary)
                .unwrap();
        assert!(matches!(
            replay_file(&bad_bytes[..], BackendKind::Mono),
            Err(Error::TraceFormat(_))
        ));
        // A label that resolves to a *different* config is caught by the
        // fingerprint.
        let mut wrong = CapturedTrace::read_from(&bytes[..]).unwrap();
        wrong.header.label = "paper_table2_noiseless".into();
        let wrong_bytes = impact_core::trace::write_trace(
            Vec::new(),
            &wrong.header,
            &wrong.events,
            &wrong.summary,
        )
        .unwrap();
        assert!(matches!(
            replay_file(&wrong_bytes[..], BackendKind::Mono),
            Err(Error::TraceConfigMismatch { .. })
        ));

        // Only the known labels resolve, whatever the fingerprint claims: a
        // crafted many-bank label with its matching fingerprint must fail
        // before any reader builds a controller of that size.
        let label = "paper_table2_noiseless+banks:2147483648";
        let many_banks = SystemConfig::paper_table2_noiseless().with_total_banks(1 << 31);
        let header = TraceHeader::for_config(&many_banks, label, 0);
        let crafted =
            impact_core::trace::write_trace(Vec::new(), &header, &[], &TraceSummary::default())
                .unwrap();
        assert!(matches!(
            replay_file(&crafted[..], BackendKind::Mono),
            Err(Error::TraceFormat(_))
        ));
        assert!(matches!(
            trace_stats(&crafted[..]),
            Err(Error::TraceFormat(_))
        ));
        let captured = CapturedTrace::read_from(&crafted[..]).unwrap();
        assert!(matches!(
            TraceScenario::new(captured),
            Err(Error::TraceFormat(_))
        ));
    }
}
