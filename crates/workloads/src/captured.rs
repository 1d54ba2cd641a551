//! Captured backend traces as first-class workloads.
//!
//! Where [`crate::trace::Trace`] is a *synthetic* workload emitted by a
//! kernel, a [`CapturedTrace`] is a *recorded* one: the decoded contents
//! of an on-disk trace file written by the tracing proxy (see
//! `impact_core::trace::codec`). Loading one turns any previously
//! recorded run — from this machine or another — into a replayable,
//! sweepable workload: [`CapturedTrace::verify`] replays it on a fresh
//! controller against its recorded footer, and [`CapturedTrace::mix`]
//! summarizes its request mix per bank and per kind.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use impact_core::config::SystemConfig;
use impact_core::engine::{MemoryBackend, ReqKind};
use impact_core::error::{Error, Result};
use impact_core::trace::{
    fold_response, read_trace, replay_events, TraceEvent, TraceHeader, TraceSummary, DIGEST_INIT,
};
use impact_memctrl::MemoryController;

/// A fully decoded trace file: header, events, and the recorded run's
/// verifying footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedTrace {
    /// Decoded file header (codec version, config fingerprint and label,
    /// workload seed).
    pub header: TraceHeader,
    /// The event stream, in recording order.
    pub events: Vec<TraceEvent>,
    /// The recorded run's footer: event/response counts, response digest
    /// and final backend statistics.
    pub summary: TraceSummary,
}

/// Per-kind and per-bank request mix of a captured trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestMix {
    /// Scalar demand loads.
    pub loads: u64,
    /// Scalar demand stores.
    pub stores: u64,
    /// Memory-side PiM accesses.
    pub pims: u64,
    /// Masked RowClone operations.
    pub rowclones: u64,
    /// Injected row activations (noise actors).
    pub injects: u64,
    /// Batch events (amortized `service_batch` boundaries).
    pub batches: u64,
    /// Largest batch in the trace.
    pub max_batch: u64,
    /// Requests per flat bank (index = bank). Requests whose bank the
    /// probing backend cannot resolve are counted in
    /// [`RequestMix::unmapped`].
    pub per_bank: Vec<u64>,
    /// Requests that mapped to no bank (out-of-range addresses).
    pub unmapped: u64,
}

impl CapturedTrace {
    /// Decodes a whole trace from a reader.
    ///
    /// # Errors
    ///
    /// Propagates codec errors (truncation, version/format mismatches).
    pub fn read_from<R: Read>(r: R) -> Result<CapturedTrace> {
        let (header, events, summary) = read_trace(r)?;
        Ok(CapturedTrace {
            header,
            events,
            summary,
        })
    }

    /// Loads a trace file from disk.
    ///
    /// # Errors
    ///
    /// [`Error::TraceIo`] when the file cannot be opened; codec errors as
    /// for [`CapturedTrace::read_from`].
    pub fn load(path: &Path) -> Result<CapturedTrace> {
        let file = File::open(path)
            .map_err(|e| Error::TraceIo(format!("open {}: {e}", path.display())))?;
        CapturedTrace::read_from(BufReader::new(file))
    }

    /// The capture check every consumer of an untrusted capture runs
    /// first: the header must name `cfg`'s fingerprint, and replaying
    /// every event on a fresh [`MemoryController`] of `cfg` must reproduce
    /// the footer's response count, response digest and backend
    /// statistics ([`TraceSummary::reproduced_by`]).
    ///
    /// # Errors
    ///
    /// [`Error::TraceConfigMismatch`] when the capture was recorded under
    /// another configuration; the first error a recorded event raises
    /// when serviced; [`Error::TraceFormat`] when the replay does not
    /// reproduce the footer.
    pub fn verify(&self, cfg: &SystemConfig) -> Result<()> {
        self.header.expect_config(cfg)?;
        let mut probe = MemoryController::from_config(cfg);
        let (mut responses, mut digest) = (0u64, DIGEST_INIT);
        replay_events(&self.events, &mut probe, |resp| {
            responses += 1;
            digest = fold_response(digest, &resp);
        })?;
        let recorded = &self.summary;
        let stats = probe.backend_stats();
        if recorded.reproduced_by(responses, digest, &stats) {
            return Ok(());
        }
        Err(Error::TraceFormat(format!(
            "capture does not reproduce its own footer \
             (recorded {} responses / digest {:#018x} / {:?}, \
             replayed {responses} / {digest:#018x} / {stats:?})",
            recorded.responses, recorded.response_digest, recorded.stats,
        )))
    }

    /// Summarizes the request mix, resolving banks through `backend`
    /// (typically a fresh backend of the recorded configuration).
    #[must_use]
    pub fn mix<B: MemoryBackend>(&self, backend: &B) -> RequestMix {
        let mut mix = RequestMix {
            per_bank: vec![0; backend.num_banks()],
            ..RequestMix::default()
        };
        let request = |mix: &mut RequestMix, req: &impact_core::engine::MemRequest| {
            match req.kind {
                ReqKind::Load => mix.loads += 1,
                ReqKind::Store => mix.stores += 1,
                ReqKind::Pim => mix.pims += 1,
                ReqKind::RowClone { .. } => mix.rowclones += 1,
            }
            match backend.bank_of(req.addr) {
                Some(bank) if bank < mix.per_bank.len() => mix.per_bank[bank] += 1,
                _ => mix.unmapped += 1,
            }
        };
        for ev in &self.events {
            match ev {
                TraceEvent::Request(req) => request(&mut mix, req),
                TraceEvent::Batch(reqs) => {
                    mix.batches += 1;
                    mix.max_batch = mix.max_batch.max(reqs.len() as u64);
                    for req in reqs {
                        request(&mut mix, req);
                    }
                }
                TraceEvent::Inject { bank, .. } => {
                    mix.injects += 1;
                    match mix.per_bank.get_mut(*bank) {
                        Some(count) => *count += 1,
                        None => mix.unmapped += 1,
                    }
                }
            }
        }
        mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_core::addr::PhysAddr;
    use impact_core::engine::MemRequest;
    use impact_core::time::Cycles;
    use impact_core::trace::{TraceWriter, TracingBackend};

    fn recorded() -> (CapturedTrace, SystemConfig) {
        let cfg = SystemConfig::paper_table2();
        let header = TraceHeader::for_config(&cfg, "paper_table2", 1);
        let writer = TraceWriter::new(Vec::new(), &header).unwrap();
        let mut traced = TracingBackend::new(MemoryController::from_config(&cfg), writer).unwrap();
        let mc = MemoryController::from_config(&cfg);
        let mut at = Cycles(0);
        let mut reqs = Vec::new();
        for i in 0..24u64 {
            let addr = mc.mapping().compose((i % 5) as usize, (i / 3) % 4, 0);
            reqs.push(MemRequest::load(addr, at, 0));
            at += Cycles(500);
        }
        for r in &reqs[..16] {
            traced.service(r).unwrap();
        }
        traced.service_batch(&reqs[16..]).unwrap();
        traced.inject_row_activation(2, 9, at, 7);
        let (_, _, bytes) = traced.finish().unwrap();
        (CapturedTrace::read_from(&bytes[..]).unwrap(), cfg)
    }

    #[test]
    fn verify_accepts_the_recording_and_rejects_a_lying_footer() {
        let (captured, cfg) = recorded();
        captured.verify(&cfg).unwrap();

        // Each footer field the replay reproduces is checked.
        let lies: [fn(&mut TraceSummary); 3] = [
            |s| s.responses += 1,
            |s| s.response_digest ^= 1,
            |s| s.stats.accesses += 1,
        ];
        for lie in lies {
            let mut lying = captured.clone();
            lie(&mut lying.summary);
            assert!(matches!(
                lying.verify(&cfg),
                Err(Error::TraceFormat(msg)) if msg.contains("does not reproduce its own footer")
            ));
        }

        // A capture checked against another configuration never replays.
        assert!(matches!(
            captured.verify(&SystemConfig::paper_table2_noiseless()),
            Err(Error::TraceConfigMismatch { .. })
        ));
    }

    #[test]
    fn mix_counts_kinds_and_banks() {
        let (captured, cfg) = recorded();
        let probe = MemoryController::from_config(&cfg);
        let mix = captured.mix(&probe);
        assert_eq!(mix.loads, 24);
        assert_eq!(mix.injects, 1);
        assert_eq!(mix.batches, 1);
        assert_eq!(mix.max_batch, 8);
        assert_eq!(mix.per_bank.len(), 16);
        assert_eq!(mix.per_bank.iter().sum::<u64>(), 25);
        assert_eq!(mix.unmapped, 0);
        // Banks 0..5 carry the loads (i % 5); the rest stay idle.
        assert!(mix.per_bank[..5].iter().all(|&c| c > 0));
        assert!(mix.per_bank[5..].iter().all(|&c| c == 0));
    }

    #[test]
    fn load_surfaces_missing_files_as_trace_io() {
        let err = CapturedTrace::load(Path::new("/nonexistent/trace.bin"));
        assert!(matches!(err, Err(Error::TraceIo(_))));
    }

    #[test]
    fn out_of_range_requests_count_as_unmapped() {
        let cfg = SystemConfig::paper_table2();
        let captured = CapturedTrace {
            header: TraceHeader::for_config(&cfg, "paper_table2", 0),
            events: vec![TraceEvent::Request(MemRequest::load(
                PhysAddr(u64::MAX),
                Cycles(0),
                0,
            ))],
            summary: TraceSummary::default(),
        };
        let probe = MemoryController::from_config(&cfg);
        let mix = captured.mix(&probe);
        assert_eq!(mix.unmapped, 1);
        assert_eq!(mix.loads, 1);
    }
}
