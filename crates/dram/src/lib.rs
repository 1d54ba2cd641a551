//! DRAM device simulator for the IMPACT reproduction.
//!
//! Models a DDR4-style device at command granularity: per-bank row-buffer
//! state machines, activate/precharge/CAS timing, open- and closed-row
//! policies with an optional idle row timeout, the row-interleaved
//! address mapping, and RowClone Fast-Parallel-Mode in-DRAM copy
//! (Seshadri et al., MICRO'13), which is the PuM primitive exploited by
//! IMPACT-PuM.
//!
//! The shared row buffer is the timing channel (§3.1 of the paper): an
//! access to the open row is a *hit* (CAS only), an access to a closed bank
//! is a *miss* (ACT + CAS) and an access to a bank with a different row open
//! is a *conflict* (PRE + ACT + CAS). At the paper's Table 2 timing and a
//! 2.6 GHz CPU the conflict-vs-hit delta is 74 cycles.
//!
//! # Row timeout interpretation
//!
//! Table 2 lists "Open Row policy, Row Timeout = 100 ns". An *eager* idle
//! timeout (precharging any row left idle for 100 ns) would erase the
//! hit/conflict signal between covert-channel batches, contradicting the
//! paper's working attack; we therefore interpret the timeout as a
//! scheduling-fairness cap that does not engage in request-at-a-time
//! co-simulation, and default to `idle_timeout: None`. The eager variant is
//! implemented ([`RowPolicy::Open`] with a timeout) and evaluated as an
//! ablation — it behaves like a weak defense.
//!
//! # Example
//!
//! ```
//! use impact_core::config::SystemConfig;
//! use impact_core::time::Cycles;
//! use impact_dram::{DramDevice, RowBufferKind};
//!
//! let cfg = SystemConfig::paper_table2();
//! let mut dram = DramDevice::from_config(&cfg);
//! let first = dram.access(0, 10, Cycles(0));
//! assert_eq!(first.kind, RowBufferKind::Miss);
//! let hit = dram.access(0, 10, first.completed_at);
//! assert_eq!(hit.kind, RowBufferKind::Hit);
//! let conflict = dram.access(0, 11, hit.completed_at);
//! assert_eq!(conflict.kind, RowBufferKind::Conflict);
//! // The paper's measured delta (§3.1).
//! assert_eq!(conflict.latency.0 - hit.latency.0, 74);
//! ```

// R4: a narrowing cast of a bank, row or address silently misroutes an
// access, so production code converts with `try_from` or states its bound.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )
)]

pub mod bank;
pub mod device;
pub mod mapping;
pub mod policy;
pub mod timing;

pub use bank::{AccessOutcome, Bank, BankStats, RowBufferKind};
pub use device::DramDevice;
pub use mapping::RowInterleaved;
pub use policy::RowPolicy;
pub use timing::ResolvedTiming;
