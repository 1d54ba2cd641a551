//! Compact, streaming on-disk codec for [`TraceEvent`] streams.
//!
//! A trace file is a portable repro artifact: record a run on one machine,
//! replay and diff it on another. The format is designed for multi-GB
//! traces — both [`TraceWriter`] and [`TraceReader`] stream over
//! `io::Write`/`io::Read`, so a trace never has to materialize in memory.
//!
//! # Layout
//!
//! ```text
//! header : magic "IMPTRACE" | version u32 LE | config fingerprint u64 LE
//!          | workload seed u64 LE | config label (varint len + UTF-8)
//! events : tagged records, varint/delta encoded (see below)
//! footer : end tag | event count | response count | response digest
//!          | BackendStats counters
//! ```
//!
//! Every integer after the fixed header fields is an LEB128 varint;
//! request addresses and arrival cycles are delta-encoded (zigzag varint
//! against the previous request) because consecutive requests in real
//! workloads touch nearby addresses at nearby times — a 29-byte
//! `MemRequest` typically costs 4–6 bytes on disk. The footer carries the
//! recorded run's response digest and [`BackendStats`], which is what lets
//! `trace_replay replay` verify a replay on *any* backend bit-for-bit
//! against the original run without shipping every response.
//!
//! A truncated file (no footer) decodes to [`Error::TraceTruncated`]; a
//! version bump to [`Error::TraceVersionMismatch`]; replaying against the
//! wrong configuration to [`Error::TraceConfigMismatch`].

use std::io::{self, Read, Write};

use crate::config::SystemConfig;
use crate::engine::{BackendStats, MemRequest, ReqKind};
use crate::error::{Error, Result};
use crate::time::Cycles;

use super::TraceEvent;

/// Codec version this build reads and writes.
pub const TRACE_VERSION: u32 = 1;

/// File magic, first eight bytes of every trace.
pub const TRACE_MAGIC: [u8; 8] = *b"IMPTRACE";

/// Maximum header config-label length, enforced symmetrically by
/// [`TraceWriter::new`] (so a recording cannot produce an unreadable
/// file) and [`TraceReader::new`] (so a corrupt length cannot trigger a
/// giant allocation).
pub const MAX_LABEL_BYTES: usize = 4096;

const TAG_END: u8 = 0;
const TAG_REQUEST: u8 = 1;
const TAG_BATCH: u8 = 2;
const TAG_INJECT: u8 = 3;

const KIND_LOAD: u8 = 0;
const KIND_STORE: u8 = 1;
const KIND_PIM: u8 = 2;
const KIND_ROWCLONE: u8 = 3;

fn io_err(e: &io::Error) -> Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        Error::TraceTruncated
    } else {
        Error::TraceIo(e.to_string())
    }
}

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> Result<()> {
    let mut buf = [0u8; 10];
    let mut n = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        buf[n] = if v == 0 { byte } else { byte | 0x80 };
        n += 1;
        if v == 0 {
            break;
        }
    }
    w.write_all(&buf[..n]).map_err(|e| io_err(&e))
}

fn read_varint<R: Read>(r: &mut R) -> Result<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte).map_err(|e| io_err(&e))?;
        let payload = u64::from(byte[0] & 0x7f);
        if shift == 63 && payload > 1 {
            return Err(Error::TraceFormat("varint overflows u64".into()));
        }
        out |= payload << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::TraceFormat("varint longer than 10 bytes".into()));
        }
    }
}

/// Maps a signed delta onto the varint-friendly zigzag encoding.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Rolling previous-value state shared by the encoder and decoder; the
/// two stay in lockstep because both fold every request through
/// [`DeltaState::delta`]/[`DeltaState::apply`] in stream order.
#[derive(Debug, Default, Clone)]
struct DeltaState {
    prev_addr: u64,
    prev_at: u64,
}

impl DeltaState {
    fn delta(prev: &mut u64, value: u64) -> u64 {
        let d = zigzag(value.wrapping_sub(*prev) as i64);
        *prev = value;
        d
    }

    fn apply(prev: &mut u64, encoded: u64) -> u64 {
        let value = prev.wrapping_add(unzigzag(encoded) as u64);
        *prev = value;
        value
    }
}

/// Recorded-run summary stored in (and decoded from) the trace footer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Events in the stream (batches count once).
    pub events: u64,
    /// Responses the recorded backend produced (batches count per request).
    pub responses: u64,
    /// FNV-1a digest over every response, in service order (see
    /// [`super::fold_response`]).
    pub response_digest: u64,
    /// Final [`BackendStats`] of the recorded backend.
    pub stats: BackendStats,
}

impl TraceSummary {
    /// True when a replay's response count, response digest and final
    /// [`BackendStats`] equal this recorded footer's: the one test of
    /// whether a replay reproduced the recorded run.
    #[must_use]
    pub fn reproduced_by(
        &self,
        responses: u64,
        response_digest: u64,
        stats: &BackendStats,
    ) -> bool {
        responses == self.responses
            && response_digest == self.response_digest
            && *stats == self.stats
    }
}

/// Decoded trace-file header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Codec version the file was written with.
    pub version: u32,
    /// Fingerprint of the recording [`SystemConfig`]
    /// ([`SystemConfig::fingerprint`]).
    pub fingerprint: u64,
    /// Seed of the recorded workload (whatever drove the engine).
    pub seed: u64,
    /// Human-readable configuration label (e.g. `"paper_table2"`); replay
    /// tools resolve it to a [`SystemConfig`] and cross-check the
    /// fingerprint.
    pub label: String,
}

impl TraceHeader {
    /// Builds a version-current header for a recording under `cfg`.
    #[must_use]
    pub fn for_config(cfg: &SystemConfig, label: &str, seed: u64) -> TraceHeader {
        TraceHeader {
            version: TRACE_VERSION,
            fingerprint: cfg.fingerprint(),
            seed,
            label: label.to_string(),
        }
    }

    /// Checks that `cfg` is the configuration this trace was recorded
    /// under.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TraceConfigMismatch`] when the fingerprints differ.
    pub fn expect_config(&self, cfg: &SystemConfig) -> Result<()> {
        let expected = cfg.fingerprint();
        if self.fingerprint == expected {
            Ok(())
        } else {
            Err(Error::TraceConfigMismatch {
                found: self.fingerprint,
                expected,
            })
        }
    }
}

/// Streaming encoder for one trace file: header up front, one
/// [`TraceWriter::write_event`] per event, then [`TraceWriter::finish`]
/// for the footer. Dropping a writer without `finish` leaves a truncated
/// stream, which readers reject — an interrupted recording can never pass
/// for a complete one.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    state: DeltaState,
    events: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes `header` and returns the event-stream encoder.
    ///
    /// # Errors
    ///
    /// [`Error::TraceFormat`] for a label the read path would reject (over
    /// [`MAX_LABEL_BYTES`]) — caught here, before a recording starts,
    /// rather than after hours of capture; I/O errors as
    /// [`Error::TraceIo`].
    pub fn new(mut w: W, header: &TraceHeader) -> Result<TraceWriter<W>> {
        if header.label.len() > MAX_LABEL_BYTES {
            return Err(Error::TraceFormat(format!(
                "config label of {} bytes exceeds the {MAX_LABEL_BYTES}-byte limit",
                header.label.len()
            )));
        }
        w.write_all(&TRACE_MAGIC).map_err(|e| io_err(&e))?;
        w.write_all(&header.version.to_le_bytes())
            .map_err(|e| io_err(&e))?;
        w.write_all(&header.fingerprint.to_le_bytes())
            .map_err(|e| io_err(&e))?;
        w.write_all(&header.seed.to_le_bytes())
            .map_err(|e| io_err(&e))?;
        write_varint(&mut w, header.label.len() as u64)?;
        w.write_all(header.label.as_bytes())
            .map_err(|e| io_err(&e))?;
        Ok(TraceWriter {
            w,
            state: DeltaState::default(),
            events: 0,
        })
    }

    fn write_request(&mut self, req: &MemRequest) -> Result<()> {
        let (kind, rowclone) = match req.kind {
            ReqKind::Load => (KIND_LOAD, None),
            ReqKind::Store => (KIND_STORE, None),
            ReqKind::Pim => (KIND_PIM, None),
            ReqKind::RowClone { dst, mask } => (KIND_ROWCLONE, Some((dst, mask))),
        };
        self.w.write_all(&[kind]).map_err(|e| io_err(&e))?;
        let addr = req.addr.0;
        write_varint(
            &mut self.w,
            DeltaState::delta(&mut self.state.prev_addr, addr),
        )?;
        write_varint(
            &mut self.w,
            DeltaState::delta(&mut self.state.prev_at, req.at.0),
        )?;
        write_varint(&mut self.w, u64::from(req.actor))?;
        if let Some((dst, mask)) = rowclone {
            // Destination delta against this request's own source base:
            // PuM-style clones copy between nearby stripes.
            write_varint(&mut self.w, zigzag(dst.0.wrapping_sub(addr) as i64))?;
            write_varint(&mut self.w, mask)?;
        }
        Ok(())
    }

    fn emit_batch(&mut self, reqs: &[MemRequest]) -> Result<()> {
        self.w.write_all(&[TAG_BATCH]).map_err(|e| io_err(&e))?;
        write_varint(&mut self.w, reqs.len() as u64)?;
        for req in reqs {
            self.write_request(req)?;
        }
        Ok(())
    }

    /// Appends one event to the stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors as [`Error::TraceIo`].
    pub fn write_event(&mut self, ev: &TraceEvent) -> Result<()> {
        self.events += 1;
        match ev {
            TraceEvent::Request(req) => {
                self.w.write_all(&[TAG_REQUEST]).map_err(|e| io_err(&e))?;
                self.write_request(req)
            }
            TraceEvent::Batch(reqs) => self.emit_batch(reqs),
            TraceEvent::Inject {
                bank,
                row,
                at,
                actor,
            } => {
                self.w.write_all(&[TAG_INJECT]).map_err(|e| io_err(&e))?;
                write_varint(&mut self.w, *bank as u64)?;
                write_varint(&mut self.w, *row)?;
                write_varint(
                    &mut self.w,
                    DeltaState::delta(&mut self.state.prev_at, at.0),
                )?;
                write_varint(&mut self.w, u64::from(*actor))
            }
        }
    }

    /// Appends one batch event directly from a request slice — equivalent
    /// to `write_event(&TraceEvent::Batch(reqs.to_vec()))` without the
    /// intermediate allocation (the tracing proxy's batched hot path).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors as [`Error::TraceIo`].
    pub fn write_batch(&mut self, reqs: &[MemRequest]) -> Result<()> {
        self.events += 1;
        self.emit_batch(reqs)
    }

    /// Events written so far.
    #[must_use]
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Writes the footer (event count, `responses`, `response_digest`,
    /// `stats`), flushes, and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors as [`Error::TraceIo`].
    pub fn finish(
        mut self,
        responses: u64,
        response_digest: u64,
        stats: &BackendStats,
    ) -> Result<W> {
        self.w.write_all(&[TAG_END]).map_err(|e| io_err(&e))?;
        write_varint(&mut self.w, self.events)?;
        write_varint(&mut self.w, responses)?;
        self.w
            .write_all(&response_digest.to_le_bytes())
            .map_err(|e| io_err(&e))?;
        // Exhaustive destructuring keeps the footer in lock-step with the
        // struct: every observable counter enters the on-disk format.
        // (Telemetry lives in the obs registry, outside BackendStats, so
        // it can never change a footer byte.)
        let BackendStats {
            accesses,
            rowclones,
            blocked,
            padded,
            partition_rejects,
        } = *stats;
        for counter in [accesses, rowclones, blocked, padded, partition_rejects] {
            write_varint(&mut self.w, counter)?;
        }
        self.w.flush().map_err(|e| io_err(&e))?;
        Ok(self.w)
    }
}

/// Streaming decoder for one trace file. Construct with
/// [`TraceReader::new`] (parses and validates the header), then call
/// [`TraceReader::next_event`] until it returns `Ok(None)` — at which
/// point the footer has been parsed and [`TraceReader::summary`] is
/// available.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    r: R,
    header: TraceHeader,
    state: DeltaState,
    events_read: u64,
    summary: Option<TraceSummary>,
}

impl<R: Read> TraceReader<R> {
    /// Parses the header and returns the event-stream decoder.
    ///
    /// # Errors
    ///
    /// [`Error::TraceFormat`] on a bad magic, [`Error::TraceVersionMismatch`]
    /// on a codec version this build does not read, [`Error::TraceTruncated`]
    /// / [`Error::TraceIo`] on underlying read failures.
    pub fn new(mut r: R) -> Result<TraceReader<R>> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic).map_err(|e| io_err(&e))?;
        if magic != TRACE_MAGIC {
            return Err(Error::TraceFormat(format!(
                "bad magic {magic:02x?}, expected {TRACE_MAGIC:02x?}"
            )));
        }
        let mut word4 = [0u8; 4];
        r.read_exact(&mut word4).map_err(|e| io_err(&e))?;
        let version = u32::from_le_bytes(word4);
        if version != TRACE_VERSION {
            return Err(Error::TraceVersionMismatch {
                found: version,
                supported: TRACE_VERSION,
            });
        }
        let mut word8 = [0u8; 8];
        r.read_exact(&mut word8).map_err(|e| io_err(&e))?;
        let fingerprint = u64::from_le_bytes(word8);
        r.read_exact(&mut word8).map_err(|e| io_err(&e))?;
        let seed = u64::from_le_bytes(word8);
        let label_len = read_varint(&mut r)?;
        if label_len > MAX_LABEL_BYTES as u64 {
            return Err(Error::TraceFormat(format!(
                "config label of {label_len} bytes exceeds the \
                 {MAX_LABEL_BYTES}-byte limit"
            )));
        }
        let mut label = vec![0u8; label_len as usize];
        r.read_exact(&mut label).map_err(|e| io_err(&e))?;
        let label = String::from_utf8(label)
            .map_err(|_| Error::TraceFormat("config label is not UTF-8".into()))?;
        Ok(TraceReader {
            r,
            header: TraceHeader {
                version,
                fingerprint,
                seed,
                label,
            },
            state: DeltaState::default(),
            events_read: 0,
            summary: None,
        })
    }

    /// The decoded header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Checks the header fingerprint against `cfg` (see
    /// [`TraceHeader::expect_config`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TraceConfigMismatch`] when the fingerprints differ.
    pub fn expect_config(&self, cfg: &SystemConfig) -> Result<()> {
        self.header.expect_config(cfg)
    }

    fn read_request(&mut self) -> Result<MemRequest> {
        let mut kind_byte = [0u8; 1];
        self.r.read_exact(&mut kind_byte).map_err(|e| io_err(&e))?;
        let addr = DeltaState::apply(&mut self.state.prev_addr, read_varint(&mut self.r)?);
        let at = DeltaState::apply(&mut self.state.prev_at, read_varint(&mut self.r)?);
        let actor = read_varint(&mut self.r)?;
        let actor = u32::try_from(actor)
            .map_err(|_| Error::TraceFormat(format!("actor {actor} overflows u32")))?;
        let kind = match kind_byte[0] {
            KIND_LOAD => ReqKind::Load,
            KIND_STORE => ReqKind::Store,
            KIND_PIM => ReqKind::Pim,
            KIND_ROWCLONE => {
                let dst = addr.wrapping_add(unzigzag(read_varint(&mut self.r)?) as u64);
                let mask = read_varint(&mut self.r)?;
                ReqKind::RowClone {
                    dst: crate::addr::PhysAddr(dst),
                    mask,
                }
            }
            other => {
                return Err(Error::TraceFormat(format!("unknown request kind {other}")));
            }
        };
        Ok(MemRequest {
            addr: crate::addr::PhysAddr(addr),
            kind,
            at: Cycles(at),
            actor,
        })
    }

    fn read_footer(&mut self) -> Result<TraceSummary> {
        let events = read_varint(&mut self.r)?;
        if events != self.events_read {
            return Err(Error::TraceFormat(format!(
                "footer claims {events} events, stream carried {}",
                self.events_read
            )));
        }
        let responses = read_varint(&mut self.r)?;
        let mut digest = [0u8; 8];
        self.r.read_exact(&mut digest).map_err(|e| io_err(&e))?;
        let mut counters = [0u64; 5];
        for c in &mut counters {
            *c = read_varint(&mut self.r)?;
        }
        Ok(TraceSummary {
            events,
            responses,
            response_digest: u64::from_le_bytes(digest),
            stats: BackendStats {
                accesses: counters[0],
                rowclones: counters[1],
                blocked: counters[2],
                padded: counters[3],
                partition_rejects: counters[4],
            },
        })
    }

    /// Decodes the next event, or `Ok(None)` once the footer is reached
    /// (after which [`TraceReader::summary`] is available).
    ///
    /// # Errors
    ///
    /// [`Error::TraceTruncated`] when the stream ends before the footer,
    /// [`Error::TraceFormat`] on structural corruption, [`Error::TraceIo`]
    /// on underlying read failures.
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>> {
        if self.summary.is_some() {
            return Ok(None);
        }
        let mut tag = [0u8; 1];
        self.r.read_exact(&mut tag).map_err(|e| io_err(&e))?;
        let ev = match tag[0] {
            TAG_END => {
                self.summary = Some(self.read_footer()?);
                return Ok(None);
            }
            TAG_REQUEST => TraceEvent::Request(self.read_request()?),
            TAG_BATCH => {
                let len = read_varint(&mut self.r)?;
                if len > (1 << 32) {
                    return Err(Error::TraceFormat(format!(
                        "batch of {len} requests is implausible"
                    )));
                }
                // Cap the preallocation: `len` is untrusted input, and a
                // corrupt length must fail cleanly at EOF below instead of
                // aborting on a giant up-front allocation.
                let mut reqs = Vec::with_capacity(len.min(4096) as usize);
                for _ in 0..len {
                    reqs.push(self.read_request()?);
                }
                TraceEvent::Batch(reqs)
            }
            TAG_INJECT => {
                let bank = read_varint(&mut self.r)?;
                let bank = usize::try_from(bank)
                    .map_err(|_| Error::TraceFormat(format!("bank {bank} overflows usize")))?;
                let row = read_varint(&mut self.r)?;
                let at = DeltaState::apply(&mut self.state.prev_at, read_varint(&mut self.r)?);
                let actor = read_varint(&mut self.r)?;
                let actor = u32::try_from(actor)
                    .map_err(|_| Error::TraceFormat(format!("actor {actor} overflows u32")))?;
                TraceEvent::Inject {
                    bank,
                    row,
                    at: Cycles(at),
                    actor,
                }
            }
            other => return Err(Error::TraceFormat(format!("unknown event tag {other}"))),
        };
        self.events_read += 1;
        Ok(Some(ev))
    }

    /// Decodes every remaining event into memory (small traces, tests).
    ///
    /// # Errors
    ///
    /// As for [`TraceReader::next_event`].
    pub fn read_to_end(&mut self) -> Result<Vec<TraceEvent>> {
        let mut out = Vec::new();
        while let Some(ev) = self.next_event()? {
            out.push(ev);
        }
        Ok(out)
    }

    /// The decoded footer; `Some` once [`TraceReader::next_event`] has
    /// returned `Ok(None)`.
    #[must_use]
    pub fn summary(&self) -> Option<&TraceSummary> {
        self.summary.as_ref()
    }
}

/// Encodes a whole in-memory trace in one call (header, events, footer).
///
/// # Errors
///
/// Propagates encoder errors; see [`TraceWriter`].
pub fn write_trace<W: Write>(
    w: W,
    header: &TraceHeader,
    events: &[TraceEvent],
    summary: &TraceSummary,
) -> Result<W> {
    let mut writer = TraceWriter::new(w, header)?;
    for ev in events {
        writer.write_event(ev)?;
    }
    writer.finish(summary.responses, summary.response_digest, &summary.stats)
}

/// Decodes a whole trace into memory in one call.
///
/// # Errors
///
/// Propagates decoder errors; see [`TraceReader`].
pub fn read_trace<R: Read>(r: R) -> Result<(TraceHeader, Vec<TraceEvent>, TraceSummary)> {
    let mut reader = TraceReader::new(r)?;
    let events = reader.read_to_end()?;
    let header = reader.header().clone();
    let summary = reader.summary().cloned().ok_or(Error::TraceTruncated)?;
    Ok((header, events, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;

    fn header() -> TraceHeader {
        TraceHeader {
            version: TRACE_VERSION,
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            seed: 42,
            label: "paper_table2".into(),
        }
    }

    fn summary() -> TraceSummary {
        TraceSummary {
            events: 0, // overwritten by the writer
            responses: 3,
            response_digest: 0x1234_5678_9abc_def0,
            stats: BackendStats {
                accesses: 3,
                rowclones: 1,
                blocked: 0,
                padded: 2,
                partition_rejects: 0,
            },
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Request(MemRequest::load(PhysAddr(0x1_0000), Cycles(100), 0)),
            TraceEvent::Request(MemRequest::store(PhysAddr(0xFFF0), Cycles(90), 3)),
            TraceEvent::Batch(vec![
                MemRequest::pim(PhysAddr(0x2_0000), Cycles(500), 1),
                MemRequest::rowclone(
                    PhysAddr(0x8000),
                    PhysAddr(0x4_0000),
                    u64::MAX,
                    Cycles(501),
                    2,
                ),
            ]),
            TraceEvent::Inject {
                bank: 4095,
                row: u64::MAX / 2,
                at: Cycles(2),
                actor: u32::MAX,
            },
            TraceEvent::Request(MemRequest::load(PhysAddr(u64::MAX), Cycles(u64::MAX), 7)),
            TraceEvent::Request(MemRequest::load(PhysAddr(0), Cycles(0), 0)),
            TraceEvent::Batch(Vec::new()),
        ]
    }

    fn encode(events: &[TraceEvent]) -> Vec<u8> {
        write_trace(Vec::new(), &header(), events, &summary()).unwrap()
    }

    #[test]
    fn roundtrip_is_lossless() {
        let events = sample_events();
        let bytes = encode(&events);
        let (hdr, decoded, sum) = read_trace(&bytes[..]).unwrap();
        assert_eq!(hdr, header());
        assert_eq!(decoded, events);
        assert_eq!(sum.events, events.len() as u64);
        assert_eq!(sum.responses, 3);
        assert_eq!(sum.response_digest, summary().response_digest);
        assert_eq!(sum.stats, summary().stats);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = encode(&[]);
        let (_, decoded, sum) = read_trace(&bytes[..]).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(sum.events, 0);
    }

    #[test]
    fn encoding_is_compact() {
        // 64 consecutive loads: ~29 bytes each in memory, a few on disk.
        let events: Vec<TraceEvent> = (0..64u64)
            .map(|i| TraceEvent::Request(MemRequest::load(PhysAddr(i * 64), Cycles(i * 400), 0)))
            .collect();
        let bytes = encode(&events);
        let payload = bytes.len() - TRACE_MAGIC.len();
        assert!(
            payload < 64 * 8,
            "expected < 8 bytes/event, got {payload} bytes total"
        );
    }

    #[test]
    fn every_truncation_errors_and_never_panics() {
        let bytes = encode(&sample_events());
        for cut in 0..bytes.len() {
            let err = read_trace(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes decoded successfully");
        }
        assert!(read_trace(&bytes[..]).is_ok());
        // Truncation inside the event stream reports specifically
        // `TraceTruncated`.
        let mid = bytes.len() - 10;
        assert!(matches!(
            read_trace(&bytes[..mid]),
            Err(Error::TraceTruncated)
        ));
    }

    #[test]
    fn version_mismatch_is_detected() {
        let mut bytes = encode(&sample_events());
        bytes[8] = 0x7F; // little-endian version word starts at offset 8
        assert!(matches!(
            read_trace(&bytes[..]),
            Err(Error::TraceVersionMismatch {
                found: 0x7F,
                supported: TRACE_VERSION
            })
        ));
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = encode(&sample_events());
        bytes[0] ^= 0xFF;
        assert!(matches!(read_trace(&bytes[..]), Err(Error::TraceFormat(_))));
    }

    #[test]
    fn unknown_event_tag_is_detected() {
        // The first byte after the header is the first event's tag; find
        // the header length by diffing against an empty trace.
        let empty = encode(&[]);
        let full = encode(&sample_events());
        let tag_pos = empty
            .iter()
            .zip(&full)
            .position(|(a, b)| a != b)
            .expect("streams diverge at the first event tag");
        let mut bytes = full;
        bytes[tag_pos] = 0x77;
        assert!(matches!(
            read_trace(&bytes[..]),
            Err(Error::TraceFormat(msg)) if msg.contains("tag")
        ));
    }

    #[test]
    fn corrupt_huge_batch_length_fails_without_allocating() {
        // A batch whose length varint claims 2^31 requests must fail at
        // EOF, not abort on a giant up-front allocation.
        let mut w = TraceWriter::new(Vec::new(), &header()).unwrap();
        w.w.push(TAG_BATCH);
        write_varint(&mut w.w, 1 << 31).unwrap();
        let bytes = w.w;
        assert!(matches!(read_trace(&bytes[..]), Err(Error::TraceTruncated)));
    }

    #[test]
    fn footer_event_count_mismatch_is_detected() {
        // Hand-build a stream whose footer lies about the event count.
        let mut w = TraceWriter::new(Vec::new(), &header()).unwrap();
        w.write_event(&sample_events()[0]).unwrap();
        w.events = 9; // lie
        let bytes = w.finish(1, 0, &BackendStats::default()).unwrap();
        assert!(matches!(
            read_trace(&bytes[..]),
            Err(Error::TraceFormat(msg)) if msg.contains("9 events")
        ));
    }

    #[test]
    fn config_fingerprint_gates_replay() {
        use crate::config::SystemConfig;
        let cfg = SystemConfig::paper_table2();
        let hdr = TraceHeader::for_config(&cfg, "paper_table2", 1);
        assert_eq!(hdr.version, TRACE_VERSION);
        assert!(hdr.expect_config(&cfg).is_ok());
        let other = SystemConfig::paper_table2_noiseless();
        assert!(matches!(
            hdr.expect_config(&other),
            Err(Error::TraceConfigMismatch { found, expected })
                if found == cfg.fingerprint() && expected == other.fingerprint()
        ));

        let bytes = write_trace(Vec::new(), &hdr, &[], &TraceSummary::default()).unwrap();
        let reader = TraceReader::new(&bytes[..]).unwrap();
        assert!(reader.expect_config(&cfg).is_ok());
        assert!(reader.expect_config(&other).is_err());
        assert_eq!(reader.header().seed, 1);
        assert_eq!(reader.header().label, "paper_table2");
    }

    #[test]
    fn varint_roundtrips_extremes() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut &buf[..]).unwrap(), v);
        }
        // An 11-byte varint is malformed.
        let bad = [0xFFu8; 11];
        assert!(read_varint(&mut &bad[..]).is_err());
        // A 10-byte varint whose top byte overflows 64 bits is malformed.
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        assert!(read_varint(&mut &overflow[..]).is_err());
    }

    #[test]
    fn zigzag_roundtrips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::addr::PhysAddr;
    use proptest::prelude::*;

    /// Builds one event from a flat tuple of generated fields; `sel`
    /// chooses the shape, the remaining fields feed it.
    fn build_event(
        (sel, addr, at, actor): (u8, u64, u64, u32),
        (dst, mask, bank, row): (u64, u64, usize, u64),
    ) -> TraceEvent {
        let req = |kind| MemRequest {
            addr: PhysAddr(addr),
            kind,
            at: Cycles(at),
            actor,
        };
        match sel % 6 {
            0 => TraceEvent::Request(req(ReqKind::Load)),
            1 => TraceEvent::Request(req(ReqKind::Store)),
            2 => TraceEvent::Request(req(ReqKind::Pim)),
            3 => TraceEvent::Request(req(ReqKind::RowClone {
                dst: PhysAddr(dst),
                mask,
            })),
            4 => TraceEvent::Inject {
                bank,
                row,
                at: Cycles(at),
                actor,
            },
            _ => {
                // A batch synthesized from the same fields: covers empty,
                // single and multi-request batch bodies.
                let n = (sel as usize / 6) % 4;
                TraceEvent::Batch(
                    (0..n)
                        .map(|i| {
                            MemRequest::load(
                                PhysAddr(addr.wrapping_add(i as u64 * 64)),
                                Cycles(at.wrapping_add(i as u64)),
                                actor,
                            )
                        })
                        .collect(),
                )
            }
        }
    }

    proptest! {
        /// Encode→decode is the identity on arbitrary event sequences.
        #[test]
        fn roundtrip_arbitrary_sequences(
            raw in prop::collection::vec(
                (
                    (0u8..255, 0u64..u64::MAX, 0u64..u64::MAX, 0u32..u32::MAX),
                    (0u64..u64::MAX, 0u64..u64::MAX, 0usize..1 << 20, 0u64..u64::MAX),
                ),
                0..60,
            ),
        ) {
            let events: Vec<TraceEvent> =
                raw.into_iter().map(|(a, b)| build_event(a, b)).collect();
            let header = TraceHeader {
                version: TRACE_VERSION,
                fingerprint: 1,
                seed: 2,
                label: "prop".into(),
            };
            let summary = TraceSummary {
                events: 0,
                responses: 5,
                response_digest: 6,
                stats: BackendStats::default(),
            };
            let bytes = write_trace(Vec::new(), &header, &events, &summary).unwrap();
            let (hdr, decoded, sum) = read_trace(&bytes[..]).unwrap();
            prop_assert_eq!(hdr, header);
            prop_assert_eq!(decoded, events);
            prop_assert_eq!(sum.responses, 5);
            prop_assert_eq!(sum.response_digest, 6);
        }

        /// No truncation of a valid stream ever decodes successfully (or
        /// panics).
        #[test]
        fn truncations_always_error(
            raw in prop::collection::vec(
                (
                    (0u8..255, 0u64..1 << 40, 0u64..1 << 40, 0u32..256),
                    (0u64..1 << 40, 0u64..u64::MAX, 0usize..4096, 0u64..1 << 30),
                ),
                1..12,
            ),
            cut_seed in 0usize..1 << 16,
        ) {
            let events: Vec<TraceEvent> =
                raw.into_iter().map(|(a, b)| build_event(a, b)).collect();
            let header = TraceHeader {
                version: TRACE_VERSION,
                fingerprint: 1,
                seed: 2,
                label: "prop".into(),
            };
            let bytes =
                write_trace(Vec::new(), &header, &events, &TraceSummary::default()).unwrap();
            let cut = cut_seed % bytes.len();
            prop_assert!(read_trace(&bytes[..cut]).is_err());
        }
    }
}
