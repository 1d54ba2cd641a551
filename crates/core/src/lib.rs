//! Shared vocabulary for the IMPACT reproduction.
//!
//! This crate defines the foundational types used by every other crate in the
//! workspace: simulation time ([`time::Cycles`], [`time::Nanos`]), physical
//! and virtual addresses ([`addr::PhysAddr`], [`addr::VirtAddr`]),
//! configuration for the simulated system ([`config::SystemConfig`], which
//! mirrors Table 2 of the paper), the Fig. 12 geometric mean ([`stats`]), a
//! deterministic, seedable random-number generator ([`rng::SimRng`]), and
//! the pluggable memory-engine vocabulary ([`engine`]): request/response
//! types plus the [`engine::MemoryBackend`] trait the simulator core is
//! generic over, the one parallel primitive every host-level fan-out
//! goes through ([`par::ordered_map`]), and the copy-on-write box every
//! table a fork may share lives in ([`cow::CowBox`]).
//!
//! # Example
//!
//! ```
//! use impact_core::config::SystemConfig;
//! use impact_core::time::Nanos;
//!
//! let cfg = SystemConfig::paper_table2();
//! // DDR4-2400 tRCD of 13.5 ns at a 2.6 GHz CPU is ~36 CPU cycles.
//! let trcd = cfg.clock.cycles_ceil(Nanos(cfg.dram_timing.t_rcd_ns));
//! assert_eq!(trcd.0, 36);
//! ```

pub mod addr;
pub mod config;
pub mod cow;
pub mod engine;
pub mod error;
pub mod hash;
pub mod par;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use addr::{PhysAddr, VirtAddr};
pub use config::SystemConfig;
pub use engine::{BackendStats, MemRequest, MemResponse, MemoryBackend, ReqKind, RowBufferKind};
pub use error::{Error, Result};
pub use rng::SimRng;
pub use time::{Cycles, Nanos};
pub use trace::{TraceEvent, TraceHeader, TraceReader, TraceSummary, TraceWriter, TracingBackend};
