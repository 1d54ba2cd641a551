//! A recording proxy backend: wraps any [`MemoryBackend`] and keeps a
//! replayable log of everything that reached it.
//!
//! [`TracingBackend`] is the second face of the backend seam: where the
//! controller decides *how* requests are served, the tracing proxy
//! changes *nothing* — it forwards every call to the inner backend
//! verbatim and appends a [`TraceEvent`] to its log. Replaying the log
//! into a fresh backend of the same configuration ([`replay`]) reproduces
//! the original backend state and statistics bit for bit, which makes the
//! log a portable repro artifact for any simulated experiment.
//!
//! The [`codec`] submodule gives the log a durable form: a compact,
//! versioned on-disk format ([`TraceWriter`]/[`TraceReader`]) with a
//! config-fingerprinted header and a verifying footer, and
//! [`TracingBackend::spill_to`] streams a recording straight to disk so
//! multi-GB captures never materialize in memory.
//!
//! # Example
//!
//! ```
//! use impact_core::addr::PhysAddr;
//! use impact_core::engine::{MemRequest, MemoryBackend};
//! use impact_core::time::Cycles;
//! use impact_core::trace::{replay, TracingBackend};
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
//! let mut traced = TracingBackend::new(Toy(0));
//! traced.service(&MemRequest::load(PhysAddr(0), Cycles(0), 0))?;
//! let mut fresh = Toy(0);
//! replay(traced.log(), &mut fresh)?;
//! assert_eq!(fresh.backend_stats(), traced.backend_stats());
//! # Ok::<(), impact_core::Error>(())
//! ```

pub mod codec;

use std::io::Write;

use crate::addr::PhysAddr;
use crate::engine::{BackendStats, MemRequest, MemResponse, MemoryBackend};
use crate::error::Result;
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

/// One logged backend interaction.
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

impl TraceEvent {
    /// Number of backend operations this event stands for.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            TraceEvent::Request(_) | TraceEvent::Inject { .. } => 1,
            TraceEvent::Batch(reqs) => reqs.len(),
        }
    }

    /// True for an empty batch event.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`MemoryBackend`] proxy that records a replayable request log around
/// any inner backend. All behavior — responses, statistics, batching —
/// is the inner backend's, bit for bit.
///
/// Events are kept in the in-memory log by default; switch to *spill
/// mode* with [`TracingBackend::spill_to`] to stream them through a
/// [`TraceWriter`] instead, so a multi-GB recording never materializes.
/// In either mode the proxy maintains a running [`fold_response`] digest
/// and response count, which become the footer of a persisted trace and
/// the ground truth a replay verifies against.
pub struct TracingBackend<B> {
    inner: B,
    log: Vec<TraceEvent>,
    spill: Option<TraceWriter<Box<dyn Write + Send>>>,
    spill_error: Option<crate::error::Error>,
    events: u64,
    responses: u64,
    injects: u64,
    digest: u64,
}

impl<B: core::fmt::Debug> core::fmt::Debug for TracingBackend<B> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TracingBackend")
            .field("inner", &self.inner)
            .field("log_events", &self.log.len())
            .field("spilling", &self.spill.is_some())
            .field("events", &self.events)
            .field("responses", &self.responses)
            .finish()
    }
}

impl<B: MemoryBackend> TracingBackend<B> {
    /// Wraps `inner`, starting with an empty log.
    #[must_use]
    pub fn new(inner: B) -> TracingBackend<B> {
        TracingBackend {
            inner,
            log: Vec::new(),
            spill: None,
            spill_error: None,
            events: 0,
            responses: 0,
            injects: 0,
            digest: DIGEST_INIT,
        }
    }

    fn record(&mut self, ev: TraceEvent) {
        self.events += 1;
        match self.spill.as_mut() {
            Some(writer) if self.spill_error.is_none() => {
                if let Err(e) = writer.write_event(&ev) {
                    // `service` callers see the error on the *next* request;
                    // `inject_row_activation` cannot fail, so the error is
                    // also re-surfaced by `finish_spill`.
                    self.spill_error = Some(e);
                }
            }
            Some(_) => {}
            None => self.log.push(ev),
        }
    }

    /// [`TracingBackend::record`] for a batch, without materializing the
    /// `TraceEvent::Batch` vector when spilling (the batched hot path).
    fn record_batch(&mut self, reqs: &[MemRequest]) {
        self.events += 1;
        match self.spill.as_mut() {
            Some(writer) if self.spill_error.is_none() => {
                if let Err(e) = writer.write_batch(reqs) {
                    self.spill_error = Some(e);
                }
            }
            Some(_) => {}
            None => self.log.push(TraceEvent::Batch(reqs.to_vec())),
        }
    }

    fn fold(&mut self, resp: &MemResponse) {
        self.responses += 1;
        self.digest = fold_response(self.digest, resp);
    }

    /// Starts streaming events into `writer` instead of the in-memory log.
    /// The writer must already carry the header — build it with
    /// [`TraceWriter::new`].
    ///
    /// # Errors
    ///
    /// Returns [`Error`](crate::error::Error::TraceFormat) when this proxy
    /// or its inner backend has already serviced traffic: a persisted
    /// trace must describe a run from pristine backend state, or replaying
    /// the file into a fresh backend of the same configuration could never
    /// verify (the footer would count pre-recording responses the event
    /// stream does not carry, and the inner backend's warm bank state
    /// would change the replayed responses).
    pub fn spill_to(&mut self, writer: TraceWriter<Box<dyn Write + Send>>) -> Result<()> {
        if self.events > 0 || self.responses > 0 || self.injects > 0 {
            return Err(crate::error::Error::TraceFormat(format!(
                "trace recording must start on a fresh backend \
                 ({} events already recorded)",
                self.events
            )));
        }
        if self.inner.backend_stats() != BackendStats::default() {
            return Err(crate::error::Error::TraceFormat(
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
        for bank in 0..self.inner.num_banks() {
            let ready = self.inner.bank_ready_at(bank);
            if ready != Cycles::ZERO && ready != Cycles(u64::MAX) {
                return Err(crate::error::Error::TraceFormat(format!(
                    "trace recording must start on a fresh backend \
                     (bank {bank} carries warm state)"
                )));
            }
        }
        self.spill = Some(writer);
        Ok(())
    }

    /// True while events stream to a spill writer.
    #[must_use]
    pub fn is_spilling(&self) -> bool {
        self.spill.is_some()
    }

    /// Ends spill mode: writes the trace footer (event count, response
    /// count, response digest, the inner backend's final stats), flushes,
    /// and returns the completed [`TraceSummary`]. Returns `Ok(None)` when
    /// not spilling.
    ///
    /// # Errors
    ///
    /// Surfaces any write error deferred during recording, then footer
    /// write/flush errors.
    pub fn finish_spill(&mut self) -> Result<Option<TraceSummary>> {
        let Some(writer) = self.spill.take() else {
            return Ok(None);
        };
        // A write error anywhere during the recording makes the stream
        // unusable; never seal it with a success footer.
        if let Some(e) = self.spill_error.take() {
            return Err(e);
        }
        let summary = TraceSummary {
            events: writer.events_written(),
            responses: self.responses,
            response_digest: self.digest,
            stats: self.inner.backend_stats(),
        };
        writer.finish(summary.responses, summary.response_digest, &summary.stats)?;
        Ok(Some(summary))
    }

    /// The footer-shaped summary of everything recorded so far (any mode).
    #[must_use]
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            events: self.events,
            responses: self.responses,
            response_digest: self.digest,
            stats: self.inner.backend_stats(),
        }
    }

    /// Running [`fold_response`] digest over every response served.
    #[must_use]
    pub fn response_digest(&self) -> u64 {
        self.digest
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

    /// The recorded log so far.
    #[must_use]
    pub fn log(&self) -> &[TraceEvent] {
        &self.log
    }

    /// Takes the recorded log, leaving an empty one behind.
    pub fn take_log(&mut self) -> Vec<TraceEvent> {
        core::mem::take(&mut self.log)
    }

    /// Total backend operations recorded (batch events count per request),
    /// in any mode.
    #[must_use]
    pub fn recorded_ops(&self) -> usize {
        (self.responses + self.injects) as usize
    }

    /// Unwraps into the inner backend, discarding the log.
    #[must_use]
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: MemoryBackend> MemoryBackend for TracingBackend<B> {
    fn service(&mut self, req: &MemRequest) -> Result<MemResponse> {
        // A deferred spill error is sticky: every later call fails with it
        // and `finish_spill` still surfaces it, so a broken recording can
        // never be sealed as a success.
        if let Some(e) = &self.spill_error {
            return Err(e.clone());
        }
        self.record(TraceEvent::Request(*req));
        let resp = self.inner.service(req)?;
        self.fold(&resp);
        Ok(resp)
    }

    fn service_batch(&mut self, reqs: &[MemRequest]) -> Result<Vec<MemResponse>> {
        if let Some(e) = &self.spill_error {
            return Err(e.clone());
        }
        self.record_batch(reqs);
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
        self.injects += 1;
        self.record(TraceEvent::Inject {
            bank,
            row,
            at,
            actor,
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
/// event dispatch rule. Every replay flavor (collecting, digesting,
/// prefix-sweeping) routes through this one function so a future
/// [`TraceEvent`] variant or servicing-rule change cannot silently
/// diverge between them.
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
                return Err(crate::error::Error::TraceFormat(format!(
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
        return Err(crate::error::Error::TraceFormat(format!(
            "event arrives at cycle {}, past the replay horizon of {} cycles",
            at.0, MAX_ARRIVAL.0
        )));
    }
    Ok(())
}

/// Replays in-memory events into `backend`, handing each response to
/// `visit` as it is produced — the constant-memory building block the
/// other replay entry points (and `CapturedTrace::replay_prefix`) share.
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

/// Replays a recorded log into `backend`, reproducing the original run's
/// backend state and statistics (given a backend in the original initial
/// configuration). Returns the responses in log order, batches flattened.
///
/// # Errors
///
/// Stops at the first failing request, exactly like the original run.
pub fn replay<B: MemoryBackend>(log: &[TraceEvent], backend: &mut B) -> Result<Vec<MemResponse>> {
    let mut out = Vec::new();
    replay_events(log, backend, |resp| out.push(resp))?;
    Ok(out)
}

/// Streams decoded events into `backend` without materializing responses,
/// folding each into a [`fold_response`] digest — the memory-lean replay
/// path for traces too large to hold in memory. Returns
/// `(responses, digest)`.
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

    #[test]
    fn proxy_is_transparent() {
        let mut plain = MiniBank::default();
        let mut traced = TracingBackend::new(MiniBank::default());
        for r in reqs() {
            assert_eq!(plain.service(&r).unwrap(), traced.service(&r).unwrap());
        }
        assert_eq!(plain.backend_stats(), traced.backend_stats());
        assert_eq!(traced.log().len(), 16);
        assert_eq!(traced.recorded_ops(), 16);
    }

    #[test]
    fn replay_reproduces_state_and_stats() {
        let mut traced = TracingBackend::new(MiniBank::default());
        let rs = reqs();
        let originals: Vec<MemResponse> = rs
            .iter()
            .map(|r| traced.service(r).unwrap())
            .collect::<Vec<_>>();
        traced.service_batch(&rs).unwrap();
        traced.inject_row_activation(2, 7, Cycles(99), 1);

        let mut fresh = MiniBank::default();
        let replayed = replay(traced.log(), &mut fresh).unwrap();
        assert_eq!(&replayed[..originals.len()], &originals[..]);
        assert_eq!(fresh.backend_stats(), traced.backend_stats());
        assert_eq!(fresh.open, traced.inner().open);
    }

    #[test]
    fn batch_boundaries_are_preserved() {
        let mut traced = TracingBackend::new(MiniBank::default());
        let rs = reqs();
        traced.service_batch(&rs[..4]).unwrap();
        traced.service(&rs[4]).unwrap();
        assert_eq!(traced.log().len(), 2);
        assert!(matches!(&traced.log()[0], TraceEvent::Batch(b) if b.len() == 4));
        assert!(matches!(&traced.log()[1], TraceEvent::Request(_)));
        assert_eq!(traced.recorded_ops(), 5);
    }

    #[test]
    fn take_log_resets() {
        let mut traced = TracingBackend::new(MiniBank::default());
        traced.service(&reqs()[0]).unwrap();
        let log = traced.take_log();
        assert_eq!(log.len(), 1);
        assert!(traced.log().is_empty());
        assert_eq!(traced.into_inner().stats.accesses, 1);
    }

    /// A `Write` handle over a shared buffer so tests can read back what a
    /// boxed spill writer produced.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn header() -> TraceHeader {
        TraceHeader {
            version: TRACE_VERSION,
            fingerprint: 0xF00D,
            seed: 7,
            label: "minibank".into(),
        }
    }

    #[test]
    fn spill_mode_streams_events_instead_of_logging() {
        let rs = reqs();
        // Reference run: in-memory log.
        let mut logged = TracingBackend::new(MiniBank::default());
        for r in &rs {
            logged.service(r).unwrap();
        }
        logged.service_batch(&rs[..4]).unwrap();
        logged.inject_row_activation(1, 3, Cycles(5), 9);

        // Spilled run of the same stream.
        let buf = SharedBuf::default();
        let mut spilled = TracingBackend::new(MiniBank::default());
        let writer =
            TraceWriter::new(Box::new(buf.clone()) as Box<dyn Write + Send>, &header()).unwrap();
        spilled.spill_to(writer).unwrap();
        assert!(spilled.is_spilling());
        for r in &rs {
            spilled.service(r).unwrap();
        }
        spilled.service_batch(&rs[..4]).unwrap();
        spilled.inject_row_activation(1, 3, Cycles(5), 9);
        assert!(spilled.log().is_empty(), "spill mode must not grow the log");
        assert_eq!(spilled.recorded_ops(), logged.recorded_ops());
        assert_eq!(spilled.response_digest(), logged.response_digest());
        let summary = spilled.finish_spill().unwrap().expect("was spilling");
        assert!(!spilled.is_spilling());
        assert_eq!(summary, logged.summary());

        // The spilled bytes decode back to exactly the in-memory log.
        let bytes = buf.0.lock().unwrap().clone();
        let (hdr, events, decoded_summary) = read_trace(&bytes[..]).unwrap();
        assert_eq!(hdr, header());
        assert_eq!(events, logged.log());
        assert_eq!(decoded_summary, summary);
    }

    #[test]
    fn finish_spill_without_spill_is_none() {
        let mut traced = TracingBackend::new(MiniBank::default());
        assert!(traced.finish_spill().unwrap().is_none());
    }

    #[test]
    fn spill_requires_a_fresh_backend() {
        use crate::error::Error;
        // A proxy that already serviced traffic cannot start a recording:
        // the footer would count responses the event stream doesn't carry.
        let mut used = TracingBackend::new(MiniBank::default());
        used.service(&reqs()[0]).unwrap();
        let writer = TraceWriter::new(
            Box::new(SharedBuf::default()) as Box<dyn Write + Send>,
            &header(),
        )
        .unwrap();
        assert!(matches!(
            used.spill_to(writer),
            Err(Error::TraceFormat(msg)) if msg.contains("fresh backend")
        ));
        assert!(!used.is_spilling());

        // A pre-warmed *inner* backend is rejected too: its bank state
        // would change the replayed responses.
        let mut warm_inner = MiniBank::default();
        warm_inner.service(&reqs()[0]).unwrap();
        let mut proxy = TracingBackend::new(warm_inner);
        let writer = TraceWriter::new(
            Box::new(SharedBuf::default()) as Box<dyn Write + Send>,
            &header(),
        )
        .unwrap();
        assert!(proxy.spill_to(writer).is_err());

        // Injected activations don't move BackendStats, but they warm
        // bank state — the bank-readiness sweep still rejects them.
        let mut injected = MiniBank::default();
        injected.inject_row_activation(1, 3, Cycles(5), 9);
        assert_eq!(injected.backend_stats(), BackendStats::default());
        let mut proxy = TracingBackend::new(injected);
        let writer = TraceWriter::new(
            Box::new(SharedBuf::default()) as Box<dyn Write + Send>,
            &header(),
        )
        .unwrap();
        assert!(matches!(
            proxy.spill_to(writer),
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
    fn spill_write_errors_are_sticky_and_block_sealing() {
        use crate::error::Error;
        let mut traced = TracingBackend::new(MiniBank::default());
        let writer = TraceWriter::new(
            Box::new(FlakyWriter { remaining: 64 }) as Box<dyn Write + Send>,
            &header(),
        )
        .unwrap();
        traced.spill_to(writer).unwrap();
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
        assert!(matches!(traced.finish_spill(), Err(Error::TraceIo(_))));
    }

    #[test]
    fn response_digest_tracks_the_response_stream() {
        let rs = reqs();
        let run = |upto: usize| {
            let mut t = TracingBackend::new(MiniBank::default());
            for r in &rs[..upto] {
                t.service(r).unwrap();
            }
            t.response_digest()
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
        use crate::error::Error;
        let log = [TraceEvent::Inject {
            bank: 4,
            row: 0,
            at: Cycles(0),
            actor: 0,
        }];
        assert!(matches!(
            replay(&log, &mut MiniBank::default()),
            Err(Error::TraceFormat(msg)) if msg == "inject event targets bank 4 of a 4-bank device"
        ));
    }

    #[test]
    fn replay_digest_matches_recording_digest() {
        let mut traced = TracingBackend::new(MiniBank::default());
        let rs = reqs();
        for r in &rs {
            traced.service(r).unwrap();
        }
        traced.service_batch(&rs).unwrap();
        traced.inject_row_activation(2, 7, Cycles(99), 1);
        let mut fresh = MiniBank::default();
        let (responses, digest) =
            replay_digest(traced.log().iter().cloned().map(Ok), &mut fresh).unwrap();
        assert_eq!(responses, 32);
        assert_eq!(digest, traced.response_digest());
        assert_eq!(fresh.backend_stats(), traced.backend_stats());
    }
}
