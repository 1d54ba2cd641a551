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
//! DRAMA-clflush, DRAMA-eviction and the DMA-engine attack. All covert
//! channels decode through one rule and PnM and PuM share one batch
//! handshake ([`channel`]). The [`primitives`] module encodes Table 1's
//! attack-primitive property matrix.
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

/// The serial reference the side channel's init-burst test compares
/// against.
#[cfg(test)]
mod test_support {
    use impact_core::config::SystemConfig;
    use impact_core::engine::{BackendStats, MemRequest, MemResponse, MemoryBackend};
    use impact_core::error::Result;
    use impact_core::time::Cycles;
    use impact_dram::{BankStats, RowPolicy};
    use impact_memctrl::{ControllerBackend, Defense, MemoryController, PeriodicBlock};
    use impact_sim::{Engine, SimParams};

    /// A [`MemoryController`] that keeps the trait's conservative probe
    /// hooks (`probe_burst_safe`, `bank_of`, `bank_ready_at`), so the
    /// engine's row-opening burst always takes its serial per-probe loop.
    pub(crate) struct SerialController(pub(crate) MemoryController);

    /// Builds the engine as `System::new` does, over a [`SerialController`].
    pub(crate) fn serial_system(cfg: SystemConfig) -> Engine<SerialController> {
        let mc = MemoryController::from_config(&cfg);
        Engine::with_backend(cfg, SimParams::default(), SerialController(mc))
    }

    impl MemoryBackend for SerialController {
        fn service(&mut self, req: &MemRequest) -> Result<MemResponse> {
            self.0.service(req)
        }

        fn service_batch(&mut self, reqs: &[MemRequest]) -> Result<Vec<MemResponse>> {
            self.0.service_batch(reqs)
        }

        fn backend_stats(&self) -> BackendStats {
            self.0.backend_stats()
        }

        fn defense_label(&self) -> &'static str {
            self.0.defense_label()
        }

        fn worst_case_latency(&self) -> Cycles {
            self.0.worst_case_latency()
        }

        fn num_banks(&self) -> usize {
            self.0.num_banks()
        }

        fn rows_per_bank(&self) -> u64 {
            self.0.rows_per_bank()
        }

        fn inject_row_activation(&mut self, bank: usize, row: u64, at: Cycles, actor: u32) {
            self.0.inject_row_activation(bank, row, at, actor);
        }
    }

    impl ControllerBackend for SerialController {
        fn set_defense(&mut self, defense: Defense) {
            self.0.set_defense(defense);
        }

        fn set_periodic_block(&mut self, blocking: Option<PeriodicBlock>) {
            self.0.set_periodic_block(blocking);
        }

        fn set_row_policy(&mut self, policy: RowPolicy) {
            self.0.set_row_policy(policy);
        }

        fn dram_totals(&self) -> BankStats {
            self.0.dram_totals()
        }

        fn dram_state_digest(&self) -> u64 {
            self.0.dram_state_digest()
        }
    }
}
