//! IMPACT: high-throughput main-memory timing attacks exploiting
//! Processing-in-Memory — the paper's primary contribution.
//!
//! Three attack families are implemented, all exploiting the shared DRAM
//! row buffer (§3.1):
//!
//! * **IMPACT-PnM** ([`pnm`]) — a covert channel using PiM-enabled
//!   instructions executed in per-bank compute units (§4.1, Listing 1);
//! * **IMPACT-PuM** ([`pum`]) — a covert channel using masked multi-bank
//!   RowClone operations, transmitting one batch per single request
//!   (§4.2, Listing 2);
//! * the **side channel on genomic read mapping** ([`side_channel`]) —
//!   leaking which hash-table banks a read-mapping victim probes (§4.3).
//!
//! Baselines from the paper's evaluation (§5.2.2) live in [`baseline`]:
//! DRAMA-clflush, DRAMA-eviction, the DMA-engine attack and the idealized
//! direct-memory-access attack of §3.3. The [`primitives`] module encodes
//! Table 1's attack-primitive property matrix.
//!
//! # Example: proof-of-concept IMPACT-PnM transmission
//!
//! ```
//! use impact_attacks::channel::message_from_str;
//! use impact_attacks::pnm::PnmCovertChannel;
//! use impact_core::config::SystemConfig;
//! use impact_sim::System;
//!
//! let mut sys = System::new(SystemConfig::paper_table2_noiseless());
//! let mut ch = PnmCovertChannel::setup(&mut sys, 16)?;
//! let msg = message_from_str("1110010011100100");
//! let report = ch.transmit(&mut sys, &msg)?;
//! assert_eq!(report.bit_errors, 0);
//! # Ok::<(), impact_core::Error>(())
//! ```

pub mod baseline;
pub mod channel;
pub mod pnm;
pub mod primitives;
pub mod pum;
pub mod side_channel;

pub use channel::{message_from_str, ChannelReport};
pub use pnm::PnmCovertChannel;
pub use pum::PumCovertChannel;
pub use side_channel::{SideChannelAttack, SideChannelInit, SideChannelReport};
