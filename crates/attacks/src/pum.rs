//! IMPACT-PuM: the RowClone covert channel (§4.2, Listing 2, Fig. 5).
//!
//! The sender transmits an M-bit batch with a *single* masked RowClone
//! request: the memory controller fans it out to one in-DRAM copy per set
//! mask bit, all banks in parallel — this is the throughput advantage over
//! IMPACT-PnM, whose sender pays one PEI per bit.
//!
//! The receiver initializes in `setup` by cloning its own `src → dst`
//! ranges in every bank, leaving its destination rows open. Over
//! [`crate::channel`]'s semaphore handshake, the channel's `send` is the
//! sender's masked clone, and its `receive` decodes the batch: one timed
//! single-bank RowClone per bank. If the sender cloned in that bank, the
//! receiver's row was displaced and the copy pays a precharge (slow ⇒ 1);
//! otherwise the receiver's row is still open and the copy is fast
//! (⇒ 0). Each batch then swaps the copy direction, so the receiver's
//! source row is always the one its previous probes left open, and
//! fences.

use impact_core::addr::VirtAddr;
use impact_core::engine::MemoryBackend;
use impact_core::error::Result;
use impact_core::time::Cycles;
use impact_pim::mask_from_bits;
use impact_sim::{AgentId, Engine};

use crate::channel::{
    transmit_batches, BatchChannel, ChannelReport, Decoder, PAPER_THRESHOLD_CYCLES,
};

/// The IMPACT-PuM covert channel.
#[derive(Debug)]
pub struct PumCovertChannel {
    sender: AgentId,
    receiver: AgentId,
    banks: usize,
    sender_src: VirtAddr,
    sender_dst: VirtAddr,
    receiver_src: VirtAddr,
    receiver_dst: VirtAddr,
    /// Copy direction toggle per batch (receiver side).
    forward: bool,
}

impl PumCovertChannel {
    /// Sets up the channel over the first `banks` banks (at most 64, the
    /// mask width): allocates bank-striped source/destination ranges for
    /// both parties and performs the receiver's initialization RowClone.
    ///
    /// # Errors
    ///
    /// Propagates allocation/validation errors, and
    /// [`impact_core::Error::InvalidConfig`] if `banks` exceeds 64 or the
    /// device bank count.
    pub fn setup<B: MemoryBackend>(sys: &mut Engine<B>, banks: usize) -> Result<PumCovertChannel> {
        let device_banks = sys.config().dram_geometry.total_banks() as usize;
        if banks == 0 || banks > 64 || banks > device_banks {
            return Err(impact_core::Error::InvalidConfig(format!(
                "PuM channel needs 1..=64 banks within the device ({device_banks}), got {banks}"
            )));
        }
        let sender = sys.spawn_agent();
        let receiver = sys.spawn_agent();
        let sender_src = sys.alloc_bank_stripe(sender, 1)?;
        let sender_dst = sys.alloc_bank_stripe(sender, 1)?;
        let receiver_src = sys.alloc_bank_stripe(receiver, 1)?;
        let receiver_dst = sys.alloc_bank_stripe(receiver, 1)?;
        // Step 1: init_DRAM_rows_with_RowClone(); the receiver's
        // destination rows are now open.
        let full_mask = mask_from_bits(&vec![true; banks]);
        sys.rowclone(receiver, receiver_src, receiver_dst, full_mask)?;
        Ok(PumCovertChannel {
            sender,
            receiver,
            banks,
            sender_src,
            sender_dst,
            receiver_src,
            receiver_dst,
            forward: false,
        })
    }

    /// Transmits `message`.
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
        let banks = self.banks;
        transmit_batches(self, sys, agents, banks, PAPER_THRESHOLD_CYCLES, message)
    }
}

impl BatchChannel for PumCovertChannel {
    /// One masked RowClone for the whole batch; a NOP for an all-zero one.
    fn send<B: MemoryBackend>(&mut self, sys: &mut Engine<B>, batch: &[bool]) -> Result<()> {
        let mask = mask_from_bits(batch);
        if mask != 0 {
            sys.rowclone(self.sender, self.sender_src, self.sender_dst, mask)?;
        } else {
            sys.advance(self.sender, Cycles(2));
        }
        Ok(())
    }

    /// One timed single-bank RowClone per bank, each decoded; then the
    /// direction swap and the fence.
    fn receive<B: MemoryBackend>(
        &mut self,
        sys: &mut Engine<B>,
        batch: &[bool],
        decoder: &mut Decoder,
    ) -> Result<()> {
        let (from, to) = if self.forward {
            (self.receiver_src, self.receiver_dst)
        } else {
            (self.receiver_dst, self.receiver_src)
        };
        for (bank, &bit) in batch.iter().enumerate() {
            let t0 = sys.rdtscp(self.receiver);
            sys.rowclone(self.receiver, from, to, 1u64 << bank)?;
            let t1 = sys.rdtscp(self.receiver);
            decoder.decode(bank, t1 - t0, bit);
        }
        self.forward = !self.forward;
        sys.fence(self.receiver);
        Ok(())
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
        // Fig. 8b message.
        let mut s = sys();
        let mut ch = PumCovertChannel::setup(&mut s, 16).unwrap();
        let msg = message_from_str("0001101100011011");
        let r = ch.transmit(&mut s, &msg).unwrap();
        assert_eq!(r.bit_errors, 0);
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
        let mut ch = PumCovertChannel::setup(&mut s, 16).unwrap();
        let msg = SimRng::seed(3).bits(2048);
        let r = ch.transmit(&mut s, &msg).unwrap();
        assert_eq!(r.bit_errors, 0);
    }

    #[test]
    fn throughput_in_paper_band() {
        // The paper reports 14.8 Mb/s for IMPACT-PuM (§6.2).
        let mut s = sys();
        let mut ch = PumCovertChannel::setup(&mut s, 16).unwrap();
        let msg = SimRng::seed(5).bits(4096);
        let r = ch.transmit(&mut s, &msg).unwrap();
        let mbps = r.goodput_mbps(s.config().clock);
        assert!(
            (12.0..=18.0).contains(&mbps),
            "PuM throughput = {mbps:.2} Mb/s"
        );
    }

    #[test]
    fn pum_faster_than_pnm() {
        // §6.2: PuM provides substantially higher throughput than PnM.
        let msg = SimRng::seed(7).bits(4096);
        let mut s1 = sys();
        let mut pnm = crate::pnm::PnmCovertChannel::setup(&mut s1, 16).unwrap();
        let pnm_r = pnm.transmit(&mut s1, &msg).unwrap();
        let mut s2 = sys();
        let mut pum = PumCovertChannel::setup(&mut s2, 16).unwrap();
        let pum_r = pum.transmit(&mut s2, &msg).unwrap();
        let clock = s1.config().clock;
        let ratio = pum_r.goodput_mbps(clock) / pnm_r.goodput_mbps(clock);
        assert!(ratio > 1.3, "PuM/PnM throughput ratio = {ratio:.2}");
    }

    #[test]
    fn sender_order_of_magnitude_cheaper_than_pnm_sender() {
        // Fig. 10: the PuM sender transmits a batch with one request.
        let msg = SimRng::seed(9).bits(1024);
        let mut s1 = sys();
        let mut pnm = crate::pnm::PnmCovertChannel::setup(&mut s1, 16).unwrap();
        let pnm_r = pnm.transmit(&mut s1, &msg).unwrap();
        let mut s2 = sys();
        let mut pum = PumCovertChannel::setup(&mut s2, 16).unwrap();
        let pum_r = pum.transmit(&mut s2, &msg).unwrap();
        let ratio = pnm_r.sender_cycles.as_f64() / pum_r.sender_cycles.as_f64();
        assert!(ratio > 4.0, "sender cycle ratio = {ratio:.2}");
    }

    #[test]
    fn setup_rejects_bad_bank_counts() {
        let mut s = sys();
        assert!(PumCovertChannel::setup(&mut s, 0).is_err());
        assert!(PumCovertChannel::setup(&mut s, 65).is_err());
        assert!(PumCovertChannel::setup(&mut s, 32).is_err()); // device has 16
    }

    #[test]
    fn noise_tolerated() {
        let mut s = System::new(SystemConfig::paper_table2());
        let mut ch = PumCovertChannel::setup(&mut s, 16).unwrap();
        let msg = SimRng::seed(11).bits(2048);
        let r = ch.transmit(&mut s, &msg).unwrap();
        assert!(r.error_rate() < 0.10, "error rate {}", r.error_rate());
    }

    #[test]
    fn crp_defense_kills_channel() {
        use impact_memctrl::Defense;
        let mut s = sys();
        s.set_defense(Defense::Crp);
        let mut ch = PumCovertChannel::setup(&mut s, 16).unwrap();
        let msg = SimRng::seed(13).bits(512);
        let r = ch.transmit(&mut s, &msg).unwrap();
        // Closed-row policy: every clone is a miss; no hit/conflict signal.
        assert!(r.error_rate() > 0.35, "error rate {}", r.error_rate());
    }
}
