//! Backend-agnostic memory-engine vocabulary: requests, responses, and the
//! [`MemoryBackend`] trait every pluggable memory implementation serves.
//!
//! The whole-system simulator core is generic over a `MemoryBackend`: the
//! default backend is `impact_memctrl::MemoryController`, but anything that
//! can classify and time requests — a remote-memory model, a trace
//! recorder — can slot in underneath without touching the
//! TLB/cache/clock layers above. All simulator memory traffic (demand
//! loads/stores, memory-side PiM operations, masked RowClones, injected
//! noise) is expressed as [`MemRequest`]s.
//!
//! # Example
//!
//! ```
//! use impact_core::addr::PhysAddr;
//! use impact_core::engine::{MemRequest, ReqKind};
//! use impact_core::time::Cycles;
//!
//! let req = MemRequest::load(PhysAddr(0x40), Cycles(100), 0);
//! assert_eq!(req.kind, ReqKind::Load);
//! ```

use core::fmt;

use crate::addr::PhysAddr;
use crate::error::Result;
use crate::time::Cycles;

/// Classification of an access with respect to the DRAM row buffer (§2.1
/// of the paper). This is the timing channel every attack in the
/// reproduction exploits, so it is part of the backend-agnostic response
/// vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowBufferKind {
    /// The target row was already open: CAS only.
    Hit,
    /// The bank was precharged: ACT + CAS.
    Miss,
    /// A different row was open: PRE + ACT + CAS.
    Conflict,
}

impl fmt::Display for RowBufferKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RowBufferKind::Hit => "hit",
            RowBufferKind::Miss => "miss",
            RowBufferKind::Conflict => "conflict",
        };
        f.write_str(s)
    }
}

/// What a memory request asks the backend to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Demand read.
    Load,
    /// Demand write (write-allocate / write-back traffic).
    Store,
    /// Memory-side PiM access (the PEI engine charges its own transport
    /// overhead; the backend times the DRAM access itself).
    Pim,
    /// Masked RowClone: for each set bit `i` of `mask`, copy the row
    /// containing `addr + i * row_bytes` onto the row containing
    /// `dst + i * row_bytes`, all lanes in parallel.
    RowClone {
        /// Base of the destination range.
        dst: PhysAddr,
        /// Bank mask (bit `i` = lane `i`).
        mask: u64,
    },
}

/// One request into a memory backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Target physical address (source range base for RowClone).
    pub addr: PhysAddr,
    /// Operation kind.
    pub kind: ReqKind,
    /// Time the request enters the backend.
    pub at: Cycles,
    /// Issuing actor (agent id, or a reserved noise/prefetcher actor).
    pub actor: u32,
}

impl MemRequest {
    /// A demand load of `addr` at `at` by `actor`.
    #[must_use]
    pub fn load(addr: PhysAddr, at: Cycles, actor: u32) -> MemRequest {
        MemRequest {
            addr,
            kind: ReqKind::Load,
            at,
            actor,
        }
    }

    /// A demand store.
    #[must_use]
    pub fn store(addr: PhysAddr, at: Cycles, actor: u32) -> MemRequest {
        MemRequest {
            addr,
            kind: ReqKind::Store,
            at,
            actor,
        }
    }

    /// A memory-side PiM access.
    #[must_use]
    pub fn pim(addr: PhysAddr, at: Cycles, actor: u32) -> MemRequest {
        MemRequest {
            addr,
            kind: ReqKind::Pim,
            at,
            actor,
        }
    }

    /// A masked RowClone from the range at `src` onto the range at `dst`.
    #[must_use]
    pub fn rowclone(src: PhysAddr, dst: PhysAddr, mask: u64, at: Cycles, actor: u32) -> MemRequest {
        MemRequest {
            addr: src,
            kind: ReqKind::RowClone { dst, mask },
            at,
            actor,
        }
    }
}

/// Backend answer to one [`MemRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemResponse {
    /// Flat bank index the request mapped to (first lane for RowClone).
    pub bank: usize,
    /// Row within the bank (source row of the first lane for RowClone).
    pub row: u64,
    /// Ground-truth row-buffer classification (first lane for RowClone).
    pub kind: RowBufferKind,
    /// Latency observed by the requester, including the backend front end
    /// and any defense-imposed padding.
    pub latency: Cycles,
    /// Completion time (`at + latency`).
    pub completed_at: Cycles,
    /// Per-lane outcomes of a RowClone: (flat bank, classification,
    /// observed latency). Empty for scalar requests.
    pub per_bank: Vec<(usize, RowBufferKind, Cycles)>,
}

/// Aggregate statistics a backend exposes to the layers above it.
///
/// Every counter describes *observable* behavior — what the backend did
/// to requests — so the derived [`PartialEq`] compares all of them and
/// the trace footer persists all of them. Telemetry (batch sizes,
/// wall-clock spans, etc.) is deliberately **not** part
/// of this struct: it describes how the host executed the traffic, not
/// what the backend did to it, and lives in the `impact-obs` registry
/// instead.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BackendStats {
    /// Demand accesses served.
    pub accesses: u64,
    /// RowClone operations served (whole masked requests).
    pub rowclones: u64,
    /// Requests delayed by a periodic blocking event (REF/RFM/PRAC).
    pub blocked: u64,
    /// Accesses that were served at defense-padded latency.
    pub padded: u64,
    /// Accesses rejected by a partitioning defense.
    pub partition_rejects: u64,
}

/// A pluggable memory engine: classifies and times [`MemRequest`]s.
///
/// Implementations must be deterministic: identical request sequences into
/// identical initial state must produce bit-identical responses — the
/// reproducibility contract the whole experiment harness relies on.
pub trait MemoryBackend {
    /// Services one request.
    ///
    /// # Errors
    ///
    /// Backend-specific: partition violations, out-of-range addresses,
    /// malformed RowClone lanes.
    fn service(&mut self, req: &MemRequest) -> Result<MemResponse>;

    /// Services a batch of requests in order. Backends override this to
    /// amortize per-request bookkeeping; the default simply loops. The
    /// responses must be bit-identical to issuing each request through
    /// [`MemoryBackend::service`] serially.
    ///
    /// # Errors
    ///
    /// Fails on the first failing request (state up to that request has
    /// been applied, matching the serial path).
    fn service_batch(&mut self, reqs: &[MemRequest]) -> Result<Vec<MemResponse>> {
        reqs.iter().map(|r| self.service(r)).collect()
    }

    /// Aggregate request statistics.
    fn backend_stats(&self) -> BackendStats;

    /// Display label of the active timing defense (`"None"` when open).
    fn defense_label(&self) -> &'static str;

    /// Worst-case (constant-time) request latency the backend pads to when
    /// a constant-time defense engages.
    fn worst_case_latency(&self) -> Cycles;

    /// Number of addressable banks.
    fn num_banks(&self) -> usize;

    /// Rows per bank.
    fn rows_per_bank(&self) -> u64;

    /// Activates `(bank, row)` directly, bypassing mapping and defenses —
    /// the hook noise injectors (prefetchers, page-table walkers) use to
    /// perturb row-buffer state.
    fn inject_row_activation(&mut self, bank: usize, row: u64, at: Cycles, actor: u32);

    // --- Optional introspection for batched probe paths ---------------
    //
    // The three hooks below let the simulation core prove that a burst of
    // scalar requests to distinct idle banks can be serviced through
    // [`MemoryBackend::service_batch`] with responses bit-identical to
    // issuing them one at a time at chained arrival times. The defaults
    // are maximally conservative (burst callers fall back to the serial
    // path), so only backends that opt in need to implement them.

    /// True when, in the backend's current configuration, servicing an
    /// in-range scalar request is (i) *arrival-time invariant* — the
    /// response latency and classification depend only on per-bank state,
    /// not on the request's `at`, provided the bank is idle at `at` — and
    /// (ii) *infallible*. Periodic blocking, epoch-based defenses (ACT),
    /// partition defenses (MPR, which can reject) and idle-timeout row
    /// policies all violate this and must report `false`.
    fn probe_burst_safe(&self) -> bool {
        false
    }

    /// Flat bank index `addr` maps to, or `None` when the backend cannot
    /// tell (unknown mapping) or the address is out of range.
    fn bank_of(&self, addr: PhysAddr) -> Option<usize> {
        let _ = addr;
        None
    }

    /// Earliest time `bank` can start a new request (its busy-until time).
    /// The conservative default makes every readiness check fail.
    fn bank_ready_at(&self, bank: usize) -> Cycles {
        let _ = bank;
        Cycles(u64::MAX)
    }
}

/// Forwarding implementation so `Engine<Box<dyn ...>>` instantiations can
/// pick a backend at runtime.
impl<B: MemoryBackend + ?Sized> MemoryBackend for Box<B> {
    fn service(&mut self, req: &MemRequest) -> Result<MemResponse> {
        (**self).service(req)
    }

    fn service_batch(&mut self, reqs: &[MemRequest]) -> Result<Vec<MemResponse>> {
        (**self).service_batch(reqs)
    }

    fn backend_stats(&self) -> BackendStats {
        (**self).backend_stats()
    }

    fn defense_label(&self) -> &'static str {
        (**self).defense_label()
    }

    fn worst_case_latency(&self) -> Cycles {
        (**self).worst_case_latency()
    }

    fn num_banks(&self) -> usize {
        (**self).num_banks()
    }

    fn rows_per_bank(&self) -> u64 {
        (**self).rows_per_bank()
    }

    fn inject_row_activation(&mut self, bank: usize, row: u64, at: Cycles, actor: u32) {
        (**self).inject_row_activation(bank, row, at, actor);
    }

    fn probe_burst_safe(&self) -> bool {
        (**self).probe_burst_safe()
    }

    fn bank_of(&self, addr: PhysAddr) -> Option<usize> {
        (**self).bank_of(addr)
    }

    fn bank_ready_at(&self, bank: usize) -> Cycles {
        (**self).bank_ready_at(bank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_kind() {
        let a = PhysAddr(0x1000);
        assert_eq!(MemRequest::load(a, Cycles(1), 2).kind, ReqKind::Load);
        assert_eq!(MemRequest::store(a, Cycles(1), 2).kind, ReqKind::Store);
        assert_eq!(MemRequest::pim(a, Cycles(1), 2).kind, ReqKind::Pim);
        let rc = MemRequest::rowclone(a, PhysAddr(0x2000), 0b11, Cycles(5), 7);
        assert_eq!(
            rc.kind,
            ReqKind::RowClone {
                dst: PhysAddr(0x2000),
                mask: 0b11
            }
        );
        assert_eq!(rc.addr, a);
        assert_eq!(rc.at, Cycles(5));
        assert_eq!(rc.actor, 7);
    }

    /// Every `BackendStats` counter is observable behavior, so the
    /// derived equality compares each of them — scheduling diagnostics
    /// live outside this struct entirely (obs registry + per-controller
    /// counters), which is what keeps equality exhaustive.
    #[test]
    fn backend_stats_equality_compares_every_counter() {
        let a = BackendStats {
            accesses: 9,
            ..BackendStats::default()
        };
        let mut b = a.clone();
        assert_eq!(a, b);
        b.padded = 1;
        assert_ne!(a, b, "observable counters must be compared");
    }

    #[test]
    fn conservative_probe_hooks_by_default() {
        struct Nothing;
        impl MemoryBackend for Nothing {
            fn service(&mut self, _: &MemRequest) -> Result<MemResponse> {
                unreachable!()
            }
            fn backend_stats(&self) -> BackendStats {
                BackendStats::default()
            }
            fn defense_label(&self) -> &'static str {
                "None"
            }
            fn worst_case_latency(&self) -> Cycles {
                Cycles(1)
            }
            fn num_banks(&self) -> usize {
                1
            }
            fn rows_per_bank(&self) -> u64 {
                1
            }
            fn inject_row_activation(&mut self, _: usize, _: u64, _: Cycles, _: u32) {}
        }
        let n = Nothing;
        assert!(!n.probe_burst_safe());
        assert_eq!(n.bank_of(PhysAddr(0)), None);
        assert_eq!(n.bank_ready_at(0), Cycles(u64::MAX));
        // The boxed forwarding impl preserves the answers.
        let boxed: Box<dyn MemoryBackend> = Box::new(Nothing);
        assert!(!boxed.probe_burst_safe());
        assert_eq!(boxed.num_banks(), 1);
    }

    #[test]
    fn row_buffer_kind_displays() {
        assert_eq!(RowBufferKind::Hit.to_string(), "hit");
        assert_eq!(RowBufferKind::Miss.to_string(), "miss");
        assert_eq!(RowBufferKind::Conflict.to_string(), "conflict");
    }

    /// The default batch implementation is the serial loop.
    #[test]
    fn default_batch_matches_serial() {
        struct Fixed(u64);
        impl MemoryBackend for Fixed {
            fn service(&mut self, req: &MemRequest) -> Result<MemResponse> {
                self.0 += 1;
                Ok(MemResponse {
                    bank: 0,
                    row: self.0,
                    kind: RowBufferKind::Miss,
                    latency: Cycles(10),
                    completed_at: req.at + Cycles(10),
                    per_bank: Vec::new(),
                })
            }
            fn backend_stats(&self) -> BackendStats {
                BackendStats::default()
            }
            fn defense_label(&self) -> &'static str {
                "None"
            }
            fn worst_case_latency(&self) -> Cycles {
                Cycles(10)
            }
            fn num_banks(&self) -> usize {
                1
            }
            fn rows_per_bank(&self) -> u64 {
                1
            }
            fn inject_row_activation(&mut self, _: usize, _: u64, _: Cycles, _: u32) {}
        }

        let reqs: Vec<MemRequest> = (0..4)
            .map(|i| MemRequest::load(PhysAddr(i * 64), Cycles(i), 0))
            .collect();
        let batched = Fixed(0).service_batch(&reqs).unwrap();
        let serial: Vec<MemResponse> = {
            let mut b = Fixed(0);
            reqs.iter().map(|r| b.service(r).unwrap()).collect()
        };
        assert_eq!(batched, serial);
    }
}
