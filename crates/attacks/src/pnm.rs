//! IMPACT-PnM: the PiM-enabled-instructions covert channel (§4.1,
//! Listing 1, Fig. 4).
//!
//! Protocol per M-bit batch (M = number of banks):
//!
//! 1. the receiver has one of its rows open in every bank (Step 1
//!    initialization, repeated when rotating rows);
//! 2. the sender encodes logic-1 as interference: it executes a PEI on its
//!    own row in the corresponding bank (row-buffer conflict), and a NOP
//!    for logic-0; then fences and posts the semaphore;
//! 3. the receiver waits on the semaphore and probes each bank with a PEI
//!    on its initialized row, timing it with `rdtscp`: above-threshold
//!    latency ⇒ conflict ⇒ 1, else hit ⇒ 0.
//!
//! Both parties defeat the PMU locality monitor by touching a fresh cache
//! line of the row on every batch, rotating to a fresh row (with an
//! unmeasured re-initialization) when the row's lines are exhausted.

use impact_core::addr::{VirtAddr, LINE_SIZE};
use impact_core::engine::MemoryBackend;
use impact_core::error::Result;
use impact_core::time::Cycles;
use impact_sim::{AgentId, CoSemaphore, Engine};

use crate::channel::{BitObservation, ChannelReport, PAPER_THRESHOLD_CYCLES};

/// Per-bank, per-side row state with line rotation.
#[derive(Debug, Clone)]
struct RowCursor {
    row: VirtAddr,
    line: u64,
    lines_per_row: u64,
}

impl RowCursor {
    fn next_line(&mut self) -> Option<VirtAddr> {
        if self.line >= self.lines_per_row {
            return None;
        }
        let va = self.row + self.line * LINE_SIZE;
        self.line += 1;
        Some(va)
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
    trace: bool,
}

impl PnmCovertChannel {
    /// Sets up the channel over the first `banks` banks: spawns the two
    /// agents, co-locates one row per side per bank (memory massaging),
    /// warms TLBs and performs the receiver's Step 1 initialization.
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors (e.g. when a defense such as
    /// MPR denies co-location).
    pub fn setup<B: MemoryBackend>(sys: &mut Engine<B>, banks: usize) -> Result<PnmCovertChannel> {
        let sender = sys.spawn_agent();
        let receiver = sys.spawn_agent();
        let lines_per_row = sys.config().dram_geometry.row_bytes / LINE_SIZE;
        let pages_per_row = (sys.config().dram_geometry.row_bytes / 4096).max(1);
        let mut sender_rows = Vec::with_capacity(banks);
        let mut receiver_rows = Vec::with_capacity(banks);
        for bank in 0..banks {
            let s_row = sys.alloc_row_in_bank(sender, bank)?;
            let r_row = sys.alloc_row_in_bank(receiver, bank)?;
            sys.warm_tlb(sender, s_row, pages_per_row);
            sys.warm_tlb(receiver, r_row, pages_per_row);
            sender_rows.push(RowCursor {
                row: s_row,
                line: 0,
                lines_per_row,
            });
            receiver_rows.push(RowCursor {
                row: r_row,
                line: 0,
                lines_per_row,
            });
        }
        let mut ch = PnmCovertChannel {
            sender,
            receiver,
            banks,
            sender_rows,
            receiver_rows,
            threshold: PAPER_THRESHOLD_CYCLES,
            rfm_filter: None,
            trace: false,
        };
        ch.initialize_receiver_rows(sys)?;
        Ok(ch)
    }

    /// Enables per-bit observation tracing (Fig. 8).
    pub fn set_trace(&mut self, trace: bool) {
        self.trace = trace;
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

    /// The sender agent.
    #[must_use]
    pub fn sender(&self) -> AgentId {
        self.sender
    }

    /// The receiver agent.
    #[must_use]
    pub fn receiver(&self) -> AgentId {
        self.receiver
    }

    /// Step 1: open the receiver's current row in every bank (unmeasured).
    fn initialize_receiver_rows<B: MemoryBackend>(&mut self, sys: &mut Engine<B>) -> Result<()> {
        let rows: Vec<VirtAddr> = (0..self.banks).map(|b| self.receiver_rows[b].row).collect();
        sys.pim_open_burst(self.receiver, &rows)?;
        Ok(())
    }

    /// Advances a side's cursor in `bank`, rotating to a fresh row when
    /// the current one is exhausted. Receiver rotations re-initialize.
    fn sender_line<B: MemoryBackend>(
        &mut self,
        sys: &mut Engine<B>,
        bank: usize,
    ) -> Result<VirtAddr> {
        if let Some(va) = self.sender_rows[bank].next_line() {
            return Ok(va);
        }
        let row = sys.alloc_row_in_bank(self.sender, bank)?;
        sys.warm_tlb(self.sender, row, 2);
        self.sender_rows[bank] = RowCursor {
            row,
            line: 0,
            lines_per_row: self.sender_rows[bank].lines_per_row,
        };
        Ok(self.sender_rows[bank].next_line().expect("fresh row"))
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
            if self.receiver_rows[bank].line >= self.receiver_rows[bank].lines_per_row {
                let row = sys.alloc_row_in_bank(self.receiver, bank)?;
                sys.warm_tlb(self.receiver, row, 2);
                self.receiver_rows[bank] = RowCursor {
                    row,
                    line: 0,
                    lines_per_row: self.receiver_rows[bank].lines_per_row,
                };
                // Unmeasured Step 1 re-initialization of the fresh row.
                sys.pim_op_direct(self.receiver, row)?;
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
        let sync = sys.params().sync_overhead;
        let mut data_sem = CoSemaphore::new(sync);
        let mut ready_sem = CoSemaphore::new(sync);
        // The buffer starts free.
        ready_sem.post(sys, self.receiver);

        let start_s = sys.now(self.sender);
        let start_r = sys.now(self.receiver);
        let start = start_s.max(start_r);
        let mut errors = 0u64;
        let mut observations = Vec::new();
        let mut sender_busy = Cycles::ZERO;
        let mut receiver_busy = Cycles::ZERO;

        for batch in message.chunks(self.banks) {
            // --- Sender: Step 2 ---
            ready_sem.wait(sys, self.sender);
            let s_begin = sys.now(self.sender);
            for (bank, &bit) in batch.iter().enumerate() {
                if bit {
                    let va = self.sender_line(sys, bank)?;
                    sys.pim_op(self.sender, va)?;
                } else {
                    // NOP: do not interfere with the receiver.
                    sys.advance(self.sender, Cycles(2));
                }
            }
            sys.fence(self.sender);
            data_sem.post(sys, self.sender);
            sender_busy += sys.now(self.sender) - s_begin;

            // --- Receiver: Step 3 ---
            data_sem.wait(sys, self.receiver);
            let r_begin = sys.now(self.receiver);
            // One fresh probe line per bank; collecting them up front is
            // invisible to the simulation (cursor state only).
            let probe_vas: Vec<VirtAddr> = (0..batch.len())
                .map(|bank| {
                    self.receiver_rows[bank]
                        .next_line()
                        .expect("rotation maintenance keeps lines available")
                })
                .collect();
            // The probe hot loop: one timed PEI per bank. The engine picks
            // the batched or the serial servicing path from what it can
            // observe; both are bit-identical.
            let samples = sys.pim_probe_burst(self.receiver, &probe_vas)?;
            for (bank, (&bit, probe)) in batch.iter().zip(&samples).enumerate() {
                let mut measured = probe.measured;
                if let Some((trigger, subtract)) = self.rfm_filter {
                    if measured > trigger {
                        measured = measured.saturating_sub(subtract);
                    }
                }
                let decoded = measured > self.threshold;
                if decoded != bit {
                    errors += 1;
                }
                if self.trace {
                    observations.push(BitObservation {
                        bank,
                        measured,
                        sent: bit,
                        decoded,
                    });
                }
            }
            sys.fence(self.receiver);
            self.rotate_exhausted_receiver_rows(sys)?;
            ready_sem.post(sys, self.receiver);
            receiver_busy += sys.now(self.receiver) - r_begin;
        }

        let end = sys.now(self.sender).max(sys.now(self.receiver));
        Ok(ChannelReport {
            bits_sent: message.len() as u64,
            bit_errors: errors,
            elapsed: end - start,
            sender_cycles: sender_busy,
            receiver_cycles: receiver_busy,
            threshold: self.threshold,
            observations,
        })
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
        ch.set_trace(true);
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

    /// The receiver's probe bursts are bit-identical to the engine's
    /// serial per-probe remainder, which a controller that declines every
    /// batched burst forces, in noiseless configs (batched path), noisy
    /// configs (serial on both sides) and under defenses and periodic
    /// blocking.
    #[test]
    fn batched_transmit_is_bit_identical() {
        use crate::test_support::serial_system;
        use impact_memctrl::{ActConfig, ControllerBackend, Defense, PeriodicBlock};

        fn transmit<B: ControllerBackend>(
            mut s: Engine<B>,
            defense: Option<Defense>,
            block: Option<PeriodicBlock>,
            msg: &[bool],
        ) -> (ChannelReport, Engine<B>) {
            if let Some(d) = defense {
                s.set_defense(d);
            }
            s.set_periodic_block(block);
            let mut ch = PnmCovertChannel::setup(&mut s, 16).unwrap();
            ch.set_trace(true);
            (ch.transmit(&mut s, msg).unwrap(), s)
        }

        let noiseless = SystemConfig::paper_table2_noiseless;
        let cases = [
            ("noiseless", noiseless(), None, None),
            ("noisy", SystemConfig::paper_table2(), None, None),
            ("ctd", noiseless(), Some(Defense::Ctd), None),
            (
                "act",
                noiseless(),
                Some(Defense::Act(ActConfig::aggressive())),
                None,
            ),
            (
                "rfm",
                noiseless(),
                None,
                Some(PeriodicBlock::rfm_paper_default()),
            ),
        ];
        let msg = SimRng::seed(29).bits(512);
        for (name, cfg, defense, block) in cases {
            let (br, bsys) = transmit(System::new(cfg.clone()), defense.clone(), block, &msg);
            let (sr, ssys) = transmit(serial_system(cfg), defense, block, &msg);
            assert_eq!(br, sr, "report diverged under {name}");
            assert_eq!(
                bsys.elapsed(),
                ssys.elapsed(),
                "clock diverged under {name}"
            );
            assert_eq!(
                bsys.memctrl().stats(),
                ssys.backend().0.stats(),
                "backend stats diverged under {name}"
            );
        }
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
        // The hot loop really went through the batched path: the trace
        // contains one batch event per transmitted chunk plus the
        // initialization burst.
        use impact_core::trace::{read_trace, TraceEvent};
        let (_, bytes) = tr_sys.finish_trace().unwrap();
        let (_, events, _) = read_trace(&bytes[..]).unwrap();
        let batches = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Batch(_)))
            .count();
        assert!(batches > msg.len() / 16, "only {batches} batch events");
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
