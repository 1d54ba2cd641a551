//! Whole-system cycle-accounting simulator for the IMPACT reproduction.
//!
//! Plays the role of the paper's modified Sniper setup (§5.2.1): it stitches
//! together the cache hierarchy, TLBs, memory controller (which serves
//! RowClone) and PEI engine, emulates `rdtscp`/`cpuid` timing measurement,
//! injects prefetcher/page-table-walker noise, and co-simulates multiple agents
//! (sender/receiver/victim/attacker threads), each with its own clock,
//! over shared DRAM state.
//!
//! # Architecture
//!
//! The core is the generic [`engine::Engine`]`<B: MemoryBackend>`: clocks,
//! TLBs, page tables, caches and noise over a pluggable memory engine that
//! serves [`impact_core::engine::MemRequest`]s. [`system::System`] is the
//! type alias instantiating it with the default
//! [`impact_memctrl::MemoryController`] backend — the paper's Table 2
//! machine.
//!
//! # Co-simulation model
//!
//! Each [`AgentId`] owns a logical clock. Every operation an agent performs
//! advances only that agent's clock; DRAM/cache state is shared. Agents
//! synchronize through [`sync::CoSemaphore`] and [`sync::CoBarrier`], which
//! transfer clock values the way real semaphores transfer control. A
//! covert channel's elapsed time is the maximum agent clock at the end —
//! identical accounting to wall-clock measurement inside a simulator.
//!
//! # Example
//!
//! ```
//! use impact_core::config::SystemConfig;
//! use impact_sim::System;
//!
//! let mut sys = System::new(SystemConfig::paper_table2_noiseless());
//! let agent = sys.spawn_agent();
//! let row = sys.alloc_row_in_bank(agent, 3)?;
//! let first = sys.load(agent, row)?;      // cold: memory access
//! let second = sys.load(agent, row)?;     // L1 hit
//! assert!(second.latency < first.latency);
//! # Ok::<(), impact_core::Error>(())
//! ```

pub mod engine;
pub mod memory;
pub mod noise;
pub mod sync;
pub mod system;
pub mod tlb;

pub use engine::{AgentId, Engine, Lane, LoadInfo, PimInfo, RowCloneInfo, SimParams};
pub use memory::{FrameAllocator, PageTable};
pub use noise::NoiseInjector;
pub use sync::{CoBarrier, CoSemaphore};
pub use system::{BackendKind, DynBackend, System, TracedSystem};
pub use tlb::Tlb;
