//! # IMPACT — PiM-based main-memory timing attacks (reproduction)
//!
//! A full Rust reproduction of *"Revisiting Main Memory-Based Covert and
//! Side Channel Attacks in the Context of Processing-in-Memory"* (DSN
//! 2025): the simulation substrate (DRAM, caches, memory controller,
//! TLBs), the two PiM architectures (PEI and RowClone), the IMPACT covert
//! and side channels, the baseline attacks, the four defenses, and the
//! evaluation harness that regenerates every table and figure.
//!
//! This facade crate re-exports the workspace members under stable module
//! names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `impact-core` | time, addresses, config, stats, RNG |
//! | [`dram`] | `impact-dram` | banks, row buffers, timing, RowClone FPM |
//! | [`cache`] | `impact-cache` | hierarchy, CACTI model, prefetchers |
//! | [`memctrl`] | `impact-memctrl` | controller + MPR/CRP/CTD/ACT defenses |
//! | [`obs`] | `impact-obs` | deterministic-safe telemetry (counters, histograms, spans) |
//! | [`pim`] | `impact-pim` | PEI engine, RowClone interface |
//! | [`sim`] | `impact-sim` | whole-system co-simulation |
//! | [`genomics`] | `impact-genomics` | read sampling, minimizer seeding (the victim's probe stream), bank layout, leak scoring |
//! | [`workloads`] | `impact-workloads` | GraphBIG-style kernels, XSBench |
//! | [`attacks`] | `impact-attacks` | IMPACT-PnM/PuM, baselines, side channel |
//! | [`fleet`] | `impact-fleet` | fleet-scale session service over an epoch scheduler |
//!
//! ## Quickstart
//!
//! ```
//! use impact::attacks::channel::message_from_str;
//! use impact::attacks::PnmCovertChannel;
//! use impact::core::config::SystemConfig;
//! use impact::sim::System;
//!
//! let mut sys = System::new(SystemConfig::paper_table2_noiseless());
//! let mut channel = PnmCovertChannel::setup(&mut sys, 16)?;
//! let report = channel.transmit(&mut sys, &message_from_str("1011001110001111"))?;
//! assert_eq!(report.bit_errors, 0);
//! println!("{:.1} Mb/s", report.goodput_mbps(sys.config().clock));
//! # Ok::<(), impact::core::Error>(())
//! ```

pub use impact_attacks as attacks;
pub use impact_cache as cache;
pub use impact_core as core;
pub use impact_dram as dram;
pub use impact_fleet as fleet;
pub use impact_genomics as genomics;
pub use impact_memctrl as memctrl;
pub use impact_obs as obs;
pub use impact_pim as pim;
pub use impact_sim as sim;
pub use impact_workloads as workloads;
