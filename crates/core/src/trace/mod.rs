//! A recording proxy backend: wraps any [`MemoryBackend`] and streams a
//! replayable trace of everything that reached it.
//!
//! [`TracingBackend`] is the second face of the backend seam: where the
//! controller decides *how* requests are served, the tracing proxy
//! changes *nothing* — it forwards every call to the inner backend
//! verbatim and writes a [`TraceEvent`] through the [`TraceWriter`] it was
//! built with. Replaying the events into a fresh backend of the same
//! configuration ([`replay_events`], or [`replay_digest`] over a decoded
//! stream) reproduces the original backend state and statistics bit for
//! bit, which makes the trace a portable repro artifact for any simulated
//! experiment.
//!
//! The [`codec`] submodule defines the durable form: a compact, versioned
//! on-disk format ([`TraceWriter`]/[`TraceReader`]) with a
//! config-fingerprinted header and a verifying footer. The proxy writes
//! each event as it happens, so multi-GB captures never materialize in
//! memory.
//!
//! # Example
//!
//! ```
//! use impact_core::addr::PhysAddr;
//! use impact_core::engine::{MemRequest, MemoryBackend};
//! use impact_core::time::Cycles;
//! use impact_core::trace::{
//!     read_trace, replay_events, TraceHeader, TraceWriter, TracingBackend, TRACE_VERSION,
//! };
//! # use impact_core::engine::{BackendStats, MemResponse, RowBufferKind};
//! # use impact_core::error::Result;
//! # #[derive(Clone)]
//! # struct Toy(u64);
//! # impl MemoryBackend for Toy {
//! #     fn service(&mut self, req: &MemRequest) -> Result<MemResponse> {
//! #         self.0 += 1;
//! #         Ok(MemResponse { bank: 0, row: self.0, kind: RowBufferKind::Miss,
//! #             latency: Cycles(1), completed_at: req.at + Cycles(1), per_bank: Vec::new() })
//! #     }
//! #     fn backend_stats(&self) -> BackendStats {
//! #         BackendStats { accesses: self.0, ..BackendStats::default() }
//! #     }
//! #     fn defense_label(&self) -> &'static str { "None" }
//! #     fn worst_case_latency(&self) -> Cycles { Cycles(1) }
//! #     fn num_banks(&self) -> usize { 1 }
//! #     fn rows_per_bank(&self) -> u64 { 1 }
//! #     fn inject_row_activation(&mut self, _: usize, _: u64, _: Cycles, _: u32) {}
//! # }
//! let header = TraceHeader { version: TRACE_VERSION, fingerprint: 0, seed: 0, label: "toy".into() };
//! let mut traced = TracingBackend::new(Toy(0), TraceWriter::new(Vec::new(), &header)?)?;
//! traced.service(&MemRequest::load(PhysAddr(0), Cycles(0), 0))?;
//! let (toy, summary, bytes) = traced.finish()?;
//! let (_, events, footer) = read_trace(&bytes[..])?;
//! assert_eq!(footer, summary);
//! let mut fresh = Toy(0);
//! replay_events(&events, &mut fresh, |_| {})?;
//! assert_eq!(fresh.backend_stats(), toy.backend_stats());
//! # Ok::<(), impact_core::Error>(())
//! ```

pub mod codec;

use std::io::Write;

use crate::addr::PhysAddr;
use crate::engine::{BackendStats, MemRequest, MemResponse, MemoryBackend};
use crate::error::{Error, Result};
use crate::hash::{fnv1a_u64, FNV_OFFSET};
use crate::time::Cycles;

pub use codec::{
    read_trace, write_trace, TraceHeader, TraceReader, TraceSummary, TraceWriter, MAX_LABEL_BYTES,
    TRACE_MAGIC, TRACE_VERSION,
};

/// Initial accumulator for a response digest ([`fold_response`]).
pub const DIGEST_INIT: u64 = FNV_OFFSET;

/// Folds one [`MemResponse`] into a running FNV-1a digest. Every layer
/// that needs to compare response streams bit-for-bit (the tracing proxy
/// while recording, `trace_replay` while replaying) folds with this exact
/// function, so digests computed on different machines and backends are
/// directly comparable.
#[must_use]
pub fn fold_response(mut digest: u64, resp: &MemResponse) -> u64 {
    digest = fnv1a_u64(digest, resp.bank as u64);
    digest = fnv1a_u64(digest, resp.row);
    digest = fnv1a_u64(digest, resp.kind as u64);
    digest = fnv1a_u64(digest, resp.latency.0);
    digest = fnv1a_u64(digest, resp.completed_at.0);
    digest = fnv1a_u64(digest, resp.per_bank.len() as u64);
    for &(bank, kind, latency) in &resp.per_bank {
        digest = fnv1a_u64(digest, bank as u64);
        digest = fnv1a_u64(digest, kind as u64);
        digest = fnv1a_u64(digest, latency.0);
    }
    digest
}

/// One recorded backend interaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A single [`MemoryBackend::service`] call.
    Request(MemRequest),
    /// One [`MemoryBackend::service_batch`] call (the boundary is kept so
    /// a replay drives the same amortized path the original run used).
    Batch(Vec<MemRequest>),
    /// A defense-bypassing [`MemoryBackend::inject_row_activation`].
    Inject {
        /// Flat bank index.
        bank: usize,
        /// Row within the bank.
        row: u64,
        /// Injection time.
        at: Cycles,
        /// Acting agent (usually a reserved noise actor).
        actor: u32,
    },
}

/// A [`MemoryBackend`] proxy that streams every interaction with an inner
/// backend into a [`TraceWriter`]. All behavior — responses, statistics,
/// batching — is the inner backend's, bit for bit.
///
/// The proxy keeps a running [`fold_response`] digest and response count;
/// [`TracingBackend::finish`] writes them, with the inner backend's final
/// statistics, as the footer a replay verifies against.
pub struct TracingBackend<B, W: Write> {
    inner: B,
    writer: TraceWriter<W>,
    write_error: Option<Error>,
    responses: u64,
    digest: u64,
}

impl<B: MemoryBackend, W: Write> TracingBackend<B, W> {
    /// Wraps `inner`, streaming every event into `writer`, which already
    /// carries the header (build it with [`TraceWriter::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TraceFormat`] when `inner` has already serviced
    /// traffic or carries warm bank state: a trace must describe a run
    /// from pristine backend state, or replaying it into a fresh backend
    /// of the same configuration could never verify.
    pub fn new(inner: B, writer: TraceWriter<W>) -> Result<TracingBackend<B, W>> {
        if inner.backend_stats() != BackendStats::default() {
            return Err(Error::TraceFormat(
                "trace recording must start on a fresh backend \
                 (inner backend has already serviced traffic)"
                    .into(),
            ));
        }
        // Injected activations warm bank state without moving the stats;
        // catch them through the bank-readiness introspection where the
        // backend provides it (`Cycles(u64::MAX)` is the conservative
        // "no introspection" default, which cannot prove anything either
        // way and is let through).
        for bank in 0..inner.num_banks() {
            let ready = inner.bank_ready_at(bank);
            if ready != Cycles::ZERO && ready != Cycles(u64::MAX) {
                return Err(Error::TraceFormat(format!(
                    "trace recording must start on a fresh backend \
                     (bank {bank} carries warm state)"
                )));
            }
        }
        Ok(TracingBackend {
            inner,
            writer,
            write_error: None,
            responses: 0,
            digest: DIGEST_INIT,
        })
    }

    /// Writes one event through `write`. A write error is sticky: the call
    /// that hits it still succeeds, every later one fails with it, and
    /// [`TracingBackend::finish`] refuses to seal the stream.
    fn record(&mut self, write: impl FnOnce(&mut TraceWriter<W>) -> Result<()>) -> Result<()> {
        if let Some(e) = &self.write_error {
            return Err(e.clone());
        }
        self.write_error = write(&mut self.writer).err();
        Ok(())
    }

    fn fold(&mut self, resp: &MemResponse) {
        self.responses += 1;
        self.digest = fold_response(self.digest, resp);
    }

    /// Seals the trace: writes the footer (event and response counts, the
    /// response digest, the inner backend's final stats), flushes, and
    /// returns the inner backend, the footer and the sink.
    ///
    /// # Errors
    ///
    /// The write error that ended the recording, if any, then footer
    /// write/flush errors.
    pub fn finish(self) -> Result<(B, TraceSummary, W)> {
        let summary = self.summary();
        let TracingBackend {
            inner,
            writer,
            write_error,
            ..
        } = self;
        if let Some(e) = write_error {
            return Err(e);
        }
        let sink = writer.finish(summary.responses, summary.response_digest, &summary.stats)?;
        Ok((inner, summary, sink))
    }

    /// The footer-shaped summary of everything recorded so far.
    #[must_use]
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            events: self.writer.events_written(),
            responses: self.responses,
            response_digest: self.digest,
            stats: self.inner.backend_stats(),
        }
    }

    /// The wrapped backend.
    #[must_use]
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Mutable access to the wrapped backend (configuration hooks).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }
}

impl<B: MemoryBackend, W: Write> MemoryBackend for TracingBackend<B, W> {
    fn service(&mut self, req: &MemRequest) -> Result<MemResponse> {
        self.record(|w| w.write_event(&TraceEvent::Request(*req)))?;
        let resp = self.inner.service(req)?;
        self.fold(&resp);
        Ok(resp)
    }

    fn service_batch(&mut self, reqs: &[MemRequest]) -> Result<Vec<MemResponse>> {
        self.record(|w| w.write_batch(reqs))?;
        let resps = self.inner.service_batch(reqs)?;
        for resp in &resps {
            self.fold(resp);
        }
        Ok(resps)
    }

    fn backend_stats(&self) -> BackendStats {
        self.inner.backend_stats()
    }

    fn defense_label(&self) -> &'static str {
        self.inner.defense_label()
    }

    fn worst_case_latency(&self) -> Cycles {
        self.inner.worst_case_latency()
    }

    fn num_banks(&self) -> usize {
        self.inner.num_banks()
    }

    fn rows_per_bank(&self) -> u64 {
        self.inner.rows_per_bank()
    }

    fn inject_row_activation(&mut self, bank: usize, row: u64, at: Cycles, actor: u32) {
        // Injection cannot fail; a write error surfaces on the next
        // `service` call and at `finish`.
        let _ = self.record(|w| {
            w.write_event(&TraceEvent::Inject {
                bank,
                row,
                at,
                actor,
            })
        });
        self.inner.inject_row_activation(bank, row, at, actor);
    }

    fn probe_burst_safe(&self) -> bool {
        self.inner.probe_burst_safe()
    }

    fn bank_of(&self, addr: PhysAddr) -> Option<usize> {
        self.inner.bank_of(addr)
    }

    fn bank_ready_at(&self, bank: usize) -> Cycles {
        self.inner.bank_ready_at(bank)
    }
}

/// Services one event and hands each produced response to `visit` — THE
/// event dispatch rule. Both replay entry points ([`replay_events`] over
/// borrowed events, [`replay_digest`] over a decoded stream) route
/// through this one function, so a future [`TraceEvent`] variant or
/// servicing-rule change cannot silently diverge between them.
fn dispatch_event<B: MemoryBackend>(
    ev: &TraceEvent,
    backend: &mut B,
    visit: &mut impl FnMut(MemResponse),
) -> Result<()> {
    match ev {
        TraceEvent::Request(req) => {
            check_arrival(req.at)?;
            visit(backend.service(req)?);
        }
        TraceEvent::Batch(reqs) => {
            for req in reqs {
                check_arrival(req.at)?;
            }
            backend.service_batch(reqs)?.into_iter().for_each(visit);
        }
        TraceEvent::Inject {
            bank,
            row,
            at,
            actor,
        } => {
            check_arrival(*at)?;
            // A decoded bank is untrusted input; backends index their bank
            // arrays with it directly.
            let banks = backend.num_banks();
            if *bank >= banks {
                return Err(Error::TraceFormat(format!(
                    "inject event targets bank {bank} of a {banks}-bank device"
                )));
            }
            backend.inject_row_activation(*bank, *row, *at, *actor);
        }
    }
    Ok(())
}

/// Latest arrival time a replayed event may carry: `2^62` cycles, about
/// 56 years at 2.6 GHz. Backends add latencies to arrival times with
/// plain `Cycles` arithmetic, so a decoded time near `u64::MAX` would
/// overflow; rejecting it here keeps that arithmetic unchecked.
const MAX_ARRIVAL: Cycles = Cycles(1 << 62);

/// Rejects an untrusted arrival time past [`MAX_ARRIVAL`].
fn check_arrival(at: Cycles) -> Result<()> {
    if at > MAX_ARRIVAL {
        return Err(Error::TraceFormat(format!(
            "event arrives at cycle {}, past the replay horizon of {} cycles",
            at.0, MAX_ARRIVAL.0
        )));
    }
    Ok(())
}

/// Replays borrowed events into `backend`, handing each response to
/// `visit` as it is produced. Given a backend in the recording's initial
/// configuration, this reproduces the original run's responses, backend
/// state and statistics.
///
/// # Errors
///
/// Stops at the first failing request, exactly like the original run.
pub fn replay_events<'a, B, I>(
    events: I,
    backend: &mut B,
    mut visit: impl FnMut(MemResponse),
) -> Result<()>
where
    B: MemoryBackend,
    I: IntoIterator<Item = &'a TraceEvent>,
{
    for ev in events {
        dispatch_event(ev, backend, &mut visit)?;
    }
    Ok(())
}

/// Streams decoded events into `backend` without materializing them or
/// their responses, folding each response into a [`fold_response`]
/// digest — the replay path for traces too large to hold in memory.
/// Returns `(responses, digest)`.
///
/// # Errors
///
/// Stops at the first failing event (decode or service), exactly like the
/// original run.
pub fn replay_digest<B, I>(events: I, backend: &mut B) -> Result<(u64, u64)>
where
    B: MemoryBackend,
    I: IntoIterator<Item = Result<TraceEvent>>,
{
    let mut responses = 0u64;
    let mut digest = DIGEST_INIT;
    for ev in events {
        dispatch_event(&ev?, backend, &mut |resp| {
            digest = fold_response(digest, &resp);
            responses += 1;
        })?;
    }
    Ok((responses, digest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RowBufferKind;

    /// A minimal stateful backend: per-bank open row, hit/miss latency,
    /// busy-until bookkeeping (exposed through `bank_ready_at`).
    #[derive(Debug, Clone, Default)]
    struct MiniBank {
        open: [Option<u64>; 4],
        busy: [Cycles; 4],
        stats: BackendStats,
    }

    impl MemoryBackend for MiniBank {
        fn service(&mut self, req: &MemRequest) -> Result<MemResponse> {
            let bank = (req.addr.0 / 64 % 4) as usize;
            let row = req.addr.0 / 256;
            let kind = match self.open[bank] {
                Some(r) if r == row => RowBufferKind::Hit,
                Some(_) => RowBufferKind::Conflict,
                None => RowBufferKind::Miss,
            };
            self.open[bank] = Some(row);
            self.stats.accesses += 1;
            let latency = match kind {
                RowBufferKind::Hit => Cycles(10),
                RowBufferKind::Miss => Cycles(20),
                RowBufferKind::Conflict => Cycles(30),
            };
            self.busy[bank] = req.at + latency;
            Ok(MemResponse {
                bank,
                row,
                kind,
                latency,
                completed_at: req.at + latency,
                per_bank: Vec::new(),
            })
        }
        fn backend_stats(&self) -> BackendStats {
            self.stats.clone()
        }
        fn defense_label(&self) -> &'static str {
            "None"
        }
        fn worst_case_latency(&self) -> Cycles {
            Cycles(30)
        }
        fn num_banks(&self) -> usize {
            4
        }
        fn rows_per_bank(&self) -> u64 {
            64
        }
        fn inject_row_activation(&mut self, bank: usize, row: u64, at: Cycles, _: u32) {
            self.open[bank] = Some(row);
            self.busy[bank] = at + Cycles(1);
        }
        fn bank_ready_at(&self, bank: usize) -> Cycles {
            self.busy[bank]
        }
    }

    fn reqs() -> Vec<MemRequest> {
        (0..16u64)
            .map(|i| MemRequest::load(PhysAddr(i * 64 + (i % 3) * 256), Cycles(i * 100), 0))
            .collect()
    }

    fn header() -> TraceHeader {
        TraceHeader {
            version: TRACE_VERSION,
            fingerprint: 0xF00D,
            seed: 7,
            label: "minibank".into(),
        }
    }

    /// A proxy recording `inner` into an in-memory trace.
    fn recorder(inner: MiniBank) -> Result<TracingBackend<MiniBank, Vec<u8>>> {
        TracingBackend::new(inner, TraceWriter::new(Vec::new(), &header()).unwrap())
    }

    #[test]
    fn proxy_is_transparent() {
        let mut plain = MiniBank::default();
        let mut traced = recorder(MiniBank::default()).unwrap();
        for r in reqs() {
            assert_eq!(plain.service(&r).unwrap(), traced.service(&r).unwrap());
        }
        assert_eq!(plain.backend_stats(), traced.backend_stats());
        let (inner, summary, _) = traced.finish().unwrap();
        assert_eq!(inner.open, plain.open);
        assert_eq!((summary.events, summary.responses), (16, 16));
    }

    #[test]
    fn replay_reproduces_state_and_stats() {
        let mut traced = recorder(MiniBank::default()).unwrap();
        let rs = reqs();
        let originals: Vec<MemResponse> = rs.iter().map(|r| traced.service(r).unwrap()).collect();
        traced.service_batch(&rs).unwrap();
        traced.inject_row_activation(2, 7, Cycles(99), 1);
        let (inner, summary, bytes) = traced.finish().unwrap();

        // The file carries the header, every event and the footer
        // `finish` reported.
        let (hdr, events, footer) = read_trace(&bytes[..]).unwrap();
        assert_eq!(hdr, header());
        assert_eq!(footer, summary);
        assert_eq!(events.len(), 18);

        let mut fresh = MiniBank::default();
        let mut replayed = Vec::new();
        replay_events(&events, &mut fresh, |resp| replayed.push(resp)).unwrap();
        assert_eq!(&replayed[..originals.len()], &originals[..]);
        assert_eq!(fresh.backend_stats(), inner.backend_stats());
        assert_eq!(fresh.open, inner.open);
    }

    #[test]
    fn batch_boundaries_are_preserved() {
        let mut traced = recorder(MiniBank::default()).unwrap();
        let rs = reqs();
        traced.service_batch(&rs[..4]).unwrap();
        traced.service(&rs[4]).unwrap();
        let (_, summary, bytes) = traced.finish().unwrap();
        assert_eq!((summary.events, summary.responses), (2, 5));
        let (_, events, _) = read_trace(&bytes[..]).unwrap();
        assert!(matches!(&events[0], TraceEvent::Batch(b) if b.len() == 4));
        assert!(matches!(&events[1], TraceEvent::Request(_)));
    }

    #[test]
    fn recording_requires_a_fresh_backend() {
        // A pre-warmed inner backend is rejected: the footer would count
        // responses the event stream doesn't carry, and its bank state
        // would change the replayed responses.
        let mut warm_inner = MiniBank::default();
        warm_inner.service(&reqs()[0]).unwrap();
        assert!(matches!(
            recorder(warm_inner),
            Err(Error::TraceFormat(msg)) if msg.contains("fresh backend")
        ));

        // Injected activations don't move BackendStats, but they warm
        // bank state — the bank-readiness sweep still rejects them.
        let mut injected = MiniBank::default();
        injected.inject_row_activation(1, 3, Cycles(5), 9);
        assert_eq!(injected.backend_stats(), BackendStats::default());
        assert!(matches!(
            recorder(injected),
            Err(Error::TraceFormat(msg)) if msg.contains("warm state")
        ));
    }

    /// A sink that fails once its byte budget runs out (the header fits).
    struct FlakyWriter {
        remaining: usize,
    }

    impl Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.remaining < buf.len() {
                Err(std::io::Error::other("sink exhausted"))
            } else {
                self.remaining -= buf.len();
                Ok(buf.len())
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_errors_are_sticky_and_block_sealing() {
        let writer = TraceWriter::new(FlakyWriter { remaining: 64 }, &header()).unwrap();
        let mut traced = TracingBackend::new(MiniBank::default(), writer).unwrap();
        // Hammer the sink until a write fails (the failing write itself is
        // deferred, so the triggering call may still succeed).
        let rs = reqs();
        let mut failed = false;
        for _ in 0..64 {
            if traced.service(&rs[0]).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "sink never exhausted");
        // Sticky: every subsequent call keeps failing...
        assert!(matches!(traced.service(&rs[0]), Err(Error::TraceIo(_))));
        assert!(matches!(
            traced.service_batch(&rs[..2]),
            Err(Error::TraceIo(_))
        ));
        // ...and the broken recording can never be sealed as a success.
        assert!(matches!(traced.finish(), Err(Error::TraceIo(_))));
    }

    #[test]
    fn response_digest_tracks_the_response_stream() {
        let rs = reqs();
        let run = |upto: usize| {
            let mut t = recorder(MiniBank::default()).unwrap();
            for r in &rs[..upto] {
                t.service(r).unwrap();
            }
            t.summary().response_digest
        };
        assert_eq!(run(16), run(16));
        assert_ne!(run(16), run(15));
        assert_ne!(run(1), DIGEST_INIT);
    }

    /// The fold as specified: every field's 8 little-endian bytes, in fold
    /// order, through the plain byte loop.
    fn reference_fold(digest: u64, resp: &MemResponse) -> u64 {
        let mut words = vec![
            resp.bank as u64,
            resp.row,
            resp.kind as u64,
            resp.latency.0,
            resp.completed_at.0,
            resp.per_bank.len() as u64,
        ];
        for &(bank, kind, latency) in &resp.per_bank {
            words.extend([bank as u64, kind as u64, latency.0]);
        }
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        crate::hash::fnv1a_bytes(digest, &bytes)
    }

    /// All-zero and all-ones responses, each with and without per-bank
    /// lanes, and a RowClone-shaped one with realistic widths.
    fn sample_responses() -> Vec<MemResponse> {
        use RowBufferKind::{Conflict, Hit, Miss};
        let zero = MemResponse {
            bank: 0,
            row: 0,
            kind: Hit,
            latency: Cycles(0),
            completed_at: Cycles(0),
            per_bank: Vec::new(),
        };
        let max = MemResponse {
            bank: usize::MAX,
            row: u64::MAX,
            kind: Conflict,
            latency: Cycles(u64::MAX),
            completed_at: Cycles(u64::MAX),
            per_bank: Vec::new(),
        };
        let lanes = vec![
            (usize::MAX, Conflict, Cycles(u64::MAX)),
            (0, Hit, Cycles(0)),
        ];
        vec![
            MemResponse {
                per_bank: lanes.clone(),
                ..zero.clone()
            },
            MemResponse {
                per_bank: lanes,
                ..max.clone()
            },
            zero,
            max,
            MemResponse {
                bank: 13,
                row: 0x2a0f,
                kind: Miss,
                latency: Cycles(174),
                completed_at: Cycles(0x00de_ad4b),
                per_bank: vec![(13, Miss, Cycles(174)), (77, Conflict, Cycles(0x1_0000))],
            },
        ]
    }

    #[test]
    fn fold_response_equals_byte_fold_of_every_field() {
        for resp in &sample_responses() {
            for start in [DIGEST_INIT, 0, u64::MAX] {
                assert_eq!(
                    fold_response(start, resp),
                    reference_fold(start, resp),
                    "{resp:?}"
                );
            }
        }
    }

    /// The digest of [`sample_responses`], pinned from the plain
    /// byte-at-a-time fold.
    #[test]
    fn fold_response_digest_is_pinned() {
        let digest = sample_responses().iter().fold(DIGEST_INIT, fold_response);
        assert_eq!(digest, 0x97a9_cace_dc04_7002, "got {digest:#018x}");
    }

    #[test]
    fn replay_rejects_injects_on_missing_banks() {
        let log = [TraceEvent::Inject {
            bank: 4,
            row: 0,
            at: Cycles(0),
            actor: 0,
        }];
        assert!(matches!(
            replay_events(&log, &mut MiniBank::default(), |_| {}),
            Err(Error::TraceFormat(msg)) if msg == "inject event targets bank 4 of a 4-bank device"
        ));
    }

    #[test]
    fn replay_digest_matches_recording_digest() {
        let mut traced = recorder(MiniBank::default()).unwrap();
        let rs = reqs();
        for r in &rs {
            traced.service(r).unwrap();
        }
        traced.service_batch(&rs).unwrap();
        traced.inject_row_activation(2, 7, Cycles(99), 1);
        let (inner, summary, bytes) = traced.finish().unwrap();
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let mut fresh = MiniBank::default();
        let (responses, digest) = replay_digest(
            std::iter::from_fn(|| reader.next_event().transpose()),
            &mut fresh,
        )
        .unwrap();
        assert_eq!(responses, 32);
        assert_eq!(digest, summary.response_digest);
        assert_eq!(fresh.backend_stats(), inner.backend_stats());
    }
}
