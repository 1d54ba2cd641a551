//! IMPACT-PnM: the PiM-enabled-instructions covert channel (§4.1,
//! Listing 1, Fig. 4).
//!
//! Protocol per M-bit batch (M = number of banks), over
//! [`crate::channel`]'s semaphore handshake:
//!
//! 1. Step 1, in `setup`: the receiver opens one of its rows in every
//!    bank with an unmeasured, explicitly offloaded PEI (repeated when it
//!    rotates to a fresh row);
//! 2. Step 2, the channel's `send`: the sender encodes logic-1 as
//!    interference, a PEI on its own row in the corresponding bank
//!    (row-buffer conflict), and logic-0 as a NOP; the handshake then
//!    fences and posts the semaphore;
//! 3. Step 3, the channel's `receive`: the receiver probes each bank in
//!    turn with a PEI on its initialized row between two `rdtscp` reads,
//!    and decodes it (above the threshold ⇒ conflict ⇒ 1, else hit ⇒ 0);
//!    then it fences and rotates its exhausted rows.
//!
//! Both parties defeat the PMU locality monitor by touching a fresh cache
//! line of the row on every batch, rotating to a fresh row (with an
//! unmeasured re-initialization) when the row's lines are exhausted.

use impact_core::addr::{VirtAddr, LINE_SIZE};
use impact_core::engine::MemoryBackend;
use impact_core::error::Result;
use impact_core::time::Cycles;
use impact_sim::{AgentId, Engine};

use crate::channel::{
    transmit_batches, BatchChannel, ChannelReport, Decoder, PAPER_THRESHOLD_CYCLES,
};

/// One side's row in one bank, and the next of its lines to touch.
#[derive(Debug, Clone)]
struct RowCursor {
    row: VirtAddr,
    line: u64,
    lines_per_row: u64,
}

impl RowCursor {
    /// Allocates a fresh row for `agent` in `bank`.
    fn fresh<B: MemoryBackend>(
        sys: &mut Engine<B>,
        agent: AgentId,
        bank: usize,
    ) -> Result<RowCursor> {
        Ok(RowCursor {
            row: sys.alloc_row_in_bank(agent, bank)?,
            line: 0,
            lines_per_row: sys.config().dram_geometry.row_bytes / LINE_SIZE,
        })
    }

    fn exhausted(&self) -> bool {
        self.line >= self.lines_per_row
    }

    fn next_line(&mut self) -> VirtAddr {
        debug_assert!(!self.exhausted(), "row rotation keeps lines available");
        let va = self.row + self.line * LINE_SIZE;
        self.line += 1;
        va
    }
}

/// The IMPACT-PnM covert channel.
#[derive(Debug)]
pub struct PnmCovertChannel {
    sender: AgentId,
    receiver: AgentId,
    banks: usize,
    sender_rows: Vec<RowCursor>,
    receiver_rows: Vec<RowCursor>,
    threshold: u64,
    /// Optional RowHammer-mitigation filter (§8.4): measurements above
    /// `.0` are assumed to include one preventive action and `.1` cycles
    /// are subtracted before decoding.
    rfm_filter: Option<(u64, u64)>,
}

impl PnmCovertChannel {
    /// Sets up the channel over the first `banks` banks: spawns the two
    /// agents, co-locates one row per side per bank (memory massaging)
    /// and performs the receiver's Step 1 initialization.
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors (e.g. when a defense such as
    /// MPR denies co-location).
    pub fn setup<B: MemoryBackend>(sys: &mut Engine<B>, banks: usize) -> Result<PnmCovertChannel> {
        let sender = sys.spawn_agent();
        let receiver = sys.spawn_agent();
        let mut sender_rows = Vec::with_capacity(banks);
        let mut receiver_rows = Vec::with_capacity(banks);
        for bank in 0..banks {
            sender_rows.push(RowCursor::fresh(sys, sender, bank)?);
            receiver_rows.push(RowCursor::fresh(sys, receiver, bank)?);
        }
        // Step 1: open the receiver's row in every bank (unmeasured).
        for cursor in &receiver_rows {
            sys.pim_op_direct(receiver, cursor.row)?;
        }
        Ok(PnmCovertChannel {
            sender,
            receiver,
            banks,
            sender_rows,
            receiver_rows,
            threshold: PAPER_THRESHOLD_CYCLES,
            rfm_filter: None,
        })
    }

    /// Overrides the decode threshold (default: the paper's 150 cycles).
    pub fn set_threshold(&mut self, threshold: u64) {
        self.threshold = threshold;
    }

    /// Enables §8.4 filtering of RowHammer-mitigation pauses: a
    /// measurement above `trigger` is assumed to include one preventive
    /// action and `subtract` cycles are removed before thresholding. The
    /// paper observes these pauses cost >=350 ns, far above the conflict
    /// delta, so they are trivially separable.
    pub fn set_rfm_filter(&mut self, filter: Option<(u64, u64)>) {
        self.rfm_filter = filter;
    }

    /// End-of-batch maintenance: any receiver row that is out of fresh
    /// lines is replaced by a new row in the same bank and re-initialized
    /// *before* the sender's next batch, so the rotation never masks the
    /// sender's interference.
    fn rotate_exhausted_receiver_rows<B: MemoryBackend>(
        &mut self,
        sys: &mut Engine<B>,
    ) -> Result<()> {
        for bank in 0..self.banks {
            if self.receiver_rows[bank].exhausted() {
                self.receiver_rows[bank] = RowCursor::fresh(sys, self.receiver, bank)?;
                // Unmeasured Step 1 re-initialization of the fresh row.
                sys.pim_op_direct(self.receiver, self.receiver_rows[bank].row)?;
            }
        }
        Ok(())
    }

    /// Transmits `message`, returning the channel report.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn transmit<B: MemoryBackend>(
        &mut self,
        sys: &mut Engine<B>,
        message: &[bool],
    ) -> Result<ChannelReport> {
        let agents = (self.sender, self.receiver);
        let (banks, threshold) = (self.banks, self.threshold);
        transmit_batches(self, sys, agents, banks, threshold, message)
    }
}

impl BatchChannel for PnmCovertChannel {
    /// Step 2: a PEI on a fresh line of the sender's row for each 1 (on a
    /// fresh row once the row's lines run out), a NOP for each 0.
    fn send<B: MemoryBackend>(&mut self, sys: &mut Engine<B>, batch: &[bool]) -> Result<()> {
        for (bank, &bit) in batch.iter().enumerate() {
            if bit {
                if self.sender_rows[bank].exhausted() {
                    self.sender_rows[bank] = RowCursor::fresh(sys, self.sender, bank)?;
                }
                let va = self.sender_rows[bank].next_line();
                sys.pim_op(self.sender, va)?;
            } else {
                sys.advance(self.sender, Cycles(2));
            }
        }
        Ok(())
    }

    /// Step 3: per bank, a PEI on a fresh line of the receiver's row timed
    /// with `rdtscp`, filtered for RowHammer-mitigation pauses when enabled
    /// and decoded; then the fence and the row rotation.
    fn receive<B: MemoryBackend>(
        &mut self,
        sys: &mut Engine<B>,
        batch: &[bool],
        decoder: &mut Decoder,
    ) -> Result<()> {
        for (bank, &bit) in batch.iter().enumerate() {
            let va = self.receiver_rows[bank].next_line();
            let t0 = sys.rdtscp(self.receiver);
            sys.pim_op(self.receiver, va)?;
            let mut measured = sys.rdtscp(self.receiver) - t0;
            if let Some((trigger, subtract)) = self.rfm_filter {
                if measured > trigger {
                    measured = measured.saturating_sub(subtract);
                }
            }
            decoder.decode(bank, measured, bit);
        }
        sys.fence(self.receiver);
        self.rotate_exhausted_receiver_rows(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::message_from_str;
    use impact_core::config::SystemConfig;
    use impact_core::rng::SimRng;
    use impact_sim::System;

    fn sys() -> System {
        System::new(SystemConfig::paper_table2_noiseless())
    }

    #[test]
    fn poc_16_bit_message_exact() {
        // The Fig. 8a message decodes perfectly without noise.
        let mut s = sys();
        let mut ch = PnmCovertChannel::setup(&mut s, 16).unwrap();
        let msg = message_from_str("1110010011100100");
        let r = ch.transmit(&mut s, &msg).unwrap();
        assert_eq!(r.bit_errors, 0);
        assert_eq!(r.observations.len(), 16);
        // Hits comfortably below / conflicts above the 150-cycle threshold.
        for o in &r.observations {
            if o.sent {
                assert!(o.measured > 150, "conflict measured {}", o.measured);
            } else {
                assert!(o.measured < 150, "hit measured {}", o.measured);
            }
        }
    }

    #[test]
    fn long_random_message_noiseless_is_exact() {
        let mut s = sys();
        let mut ch = PnmCovertChannel::setup(&mut s, 16).unwrap();
        let msg = SimRng::seed(7).bits(2048);
        let r = ch.transmit(&mut s, &msg).unwrap();
        assert_eq!(r.bit_errors, 0, "error rate {}", r.error_rate());
    }

    #[test]
    fn throughput_in_paper_band() {
        // The paper reports 8.2 Mb/s for IMPACT-PnM (§6.2).
        let mut s = sys();
        let mut ch = PnmCovertChannel::setup(&mut s, 16).unwrap();
        let msg = SimRng::seed(11).bits(4096);
        let r = ch.transmit(&mut s, &msg).unwrap();
        let mbps = r.goodput_mbps(s.config().clock);
        assert!(
            (6.5..=12.0).contains(&mbps),
            "PnM throughput = {mbps:.2} Mb/s"
        );
    }

    #[test]
    fn noise_induces_low_error_rate() {
        let mut s = System::new(SystemConfig::paper_table2());
        let mut ch = PnmCovertChannel::setup(&mut s, 16).unwrap();
        let msg = SimRng::seed(13).bits(2048);
        let r = ch.transmit(&mut s, &msg).unwrap();
        // Noise should cause some errors but the channel must stay usable.
        assert!(r.error_rate() < 0.10, "error rate {}", r.error_rate());
    }

    #[test]
    fn row_rotation_keeps_channel_alive() {
        // 128 lines per row: a >128-batch message forces rotation.
        let mut s = sys();
        let mut ch = PnmCovertChannel::setup(&mut s, 4).unwrap();
        let msg = SimRng::seed(17).bits(4 * 200);
        let r = ch.transmit(&mut s, &msg).unwrap();
        assert_eq!(r.bit_errors, 0);
    }

    #[test]
    fn ctd_defense_kills_channel() {
        use impact_memctrl::Defense;
        let mut s = sys();
        s.set_defense(Defense::Ctd);
        let mut ch = PnmCovertChannel::setup(&mut s, 16).unwrap();
        let msg = SimRng::seed(19).bits(512);
        let r = ch.transmit(&mut s, &msg).unwrap();
        // All latencies pad to worst case: everything decodes as 1 ->
        // ~50% errors on a random message.
        assert!(r.error_rate() > 0.35, "error rate {}", r.error_rate());
    }

    #[test]
    fn mpr_defense_denies_colocation() {
        use impact_memctrl::{Defense, MprPartition};
        let mut s = sys();
        let mut p = MprPartition::new(16);
        // Bank 0 owned by an unrelated actor: massaging succeeds but the
        // channel's accesses are rejected.
        p.assign(0, 99);
        s.set_defense(Defense::Mpr(p));
        let r = PnmCovertChannel::setup(&mut s, 16);
        assert!(r.is_err());
    }

    /// Behind the tracing proxy the channel behaves exactly as on the
    /// monolithic controller.
    #[test]
    fn transmit_matches_across_backends() {
        use impact_sim::TracedSystem;
        let msg = SimRng::seed(31).bits(256);
        let cfg = SystemConfig::paper_table2_noiseless;
        let mut mono_sys = sys();
        let mut mono_ch = PnmCovertChannel::setup(&mut mono_sys, 16).unwrap();
        let mono = mono_ch.transmit(&mut mono_sys, &msg).unwrap();

        let mut tr_sys =
            TracedSystem::recording(cfg(), Vec::new(), "paper_table2_noiseless", 31).unwrap();
        let mut tr_ch = PnmCovertChannel::setup(&mut tr_sys, 16).unwrap();
        assert_eq!(tr_ch.transmit(&mut tr_sys, &msg).unwrap(), mono);
    }

    #[test]
    fn sender_cheaper_than_receiver() {
        // Fig. 10: the PnM sender (only 1-bits act) costs less than the
        // receiver (which probes every bank).
        let mut s = sys();
        let mut ch = PnmCovertChannel::setup(&mut s, 16).unwrap();
        let msg = SimRng::seed(23).bits(1024);
        let r = ch.transmit(&mut s, &msg).unwrap();
        assert!(r.sender_cycles < r.receiver_cycles);
    }
}
