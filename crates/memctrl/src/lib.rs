//! Memory controller for the IMPACT reproduction.
//!
//! Sits between the processor/PiM units and the [`impact_dram::DramDevice`]:
//! decomposes physical addresses via an address mapping, enforces bank
//! timing, checks masked RowClone requests and fans them out to banks
//! (Listing 2 of the paper; no other layer validates them), and
//! implements the four defense mechanisms of §7:
//!
//! * **MPR** — bank-level memory partitioning (§7.1),
//! * **CRP** — closed-row policy (§7.2),
//! * **CTD** — constant-time DRAM access (§7.3),
//! * **ACT** — adaptive constant-time DRAM (§7.4) with the paper's
//!   Aggressive / Mild / Conservative configurations.
//!
//! # Example
//!
//! ```
//! use impact_core::config::SystemConfig;
//! use impact_core::addr::PhysAddr;
//! use impact_core::engine::{MemRequest, RowBufferKind};
//! use impact_core::time::Cycles;
//! use impact_memctrl::MemoryController;
//!
//! let cfg = SystemConfig::paper_table2();
//! let mut mc = MemoryController::from_config(&cfg);
//! // Every request gets one reply, a `MemResponse`.
//! let out = mc.service(&MemRequest::load(PhysAddr(0x1000), Cycles(0), 0))?;
//! assert_eq!(out.kind, RowBufferKind::Miss);
//! assert!(out.latency > Cycles::ZERO);
//! # Ok::<(), impact_core::Error>(())
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

pub mod backend;
pub mod controller;
pub mod defense;

pub use backend::ControllerBackend;
pub use controller::{MemoryController, PeriodicBlock};
pub use defense::{ActConfig, Defense, MprPartition};
