//! Processing-in-Memory architectures for the IMPACT reproduction.
//!
//! Two PiM approaches are modelled, matching §4 of the paper:
//!
//! * **PnM — PiM-Enabled Instructions (PEI)** ([`pei`]): per-bank PEI
//!   Computation Units (PCUs) plus a PEI Management Unit (PMU) whose
//!   locality monitor decides whether each PEI executes host-side (through
//!   the cache hierarchy) or memory-side (directly at the bank). The
//!   IMPACT-PnM attack deliberately defeats the monitor by touching a
//!   different cache line on every operation, so each of its timed probes
//!   is a monitored PEI that [`PeiEngine::decide`] sends memory-side
//!   (Listing 1, Step 3).
//! * **PuM — RowClone** ([`rowclone`]): bulk in-DRAM copy issued by
//!   userspace with a source range, destination range and bank mask. The
//!   memory controller alone checks the masked request and fans it out to
//!   banks in parallel (Listing 2 of the paper); this crate only builds
//!   the mask ([`mask_from_bits`]).
//!
//! # Example
//!
//! ```
//! use impact_core::config::SystemConfig;
//! use impact_core::addr::PhysAddr;
//! use impact_core::engine::RowBufferKind;
//! use impact_core::time::Cycles;
//! use impact_memctrl::MemoryController;
//! use impact_pim::pei::{ExecSite, PeiEngine};
//!
//! let cfg = SystemConfig::paper_table2();
//! let mut mc = MemoryController::from_config(&cfg);
//! let mut pei = PeiEngine::new(cfg.pim);
//! // A cold line has no locality: the PMU sends the PEI memory-side,
//! // where it opens the line's row.
//! let addr = PhysAddr(0x1000);
//! assert_eq!(pei.decide(addr), ExecSite::MemorySide);
//! // The reply is the controller's `MemResponse`, its latency including
//! // the PCU overhead.
//! let out = pei.execute_memory_side(&mut mc, addr, Cycles(0), 0)?;
//! assert_eq!(out.kind, RowBufferKind::Miss);
//! assert_eq!(out.completed_at, out.latency);
//! assert!(out.latency > pei.pcu_overhead());
//! # Ok::<(), impact_core::Error>(())
//! ```

pub mod pei;
pub mod rowclone;

pub use pei::{ExecSite, PeiEngine};
pub use rowclone::mask_from_bits;
