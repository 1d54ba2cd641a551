//! Baseline main-memory covert channels (§5.2.2): DRAMA-clflush,
//! DRAMA-eviction and the DMA-engine attack.
//!
//! All baselines share DRAMA's slotted protocol over one DRAM bank: each
//! bit occupies a time slot; in the first half the sender (for a logic-1)
//! bypasses its cache copy and activates its own row, creating a row
//! conflict; in the second half the receiver bypasses its copy and times a
//! load of its row, which [`crate::channel`]'s one decode rule reads. The
//! cache-bypass step is what differentiates the baselines — and what
//! IMPACT eliminates:
//!
//! * **clflush** — one LLC-latency flush per access (grows with LLC size
//!   via the CACTI model, which is why Fig. 9's DRAMA lines decline);
//! * **eviction sets** — `ways` congruent accesses; timed with the
//!   analytic CACTI eviction model of Figs. 2/3 (see
//!   [`impact_cache::cacti::eviction_latency`]). The cache *state* effect
//!   is applied with a flush; the synthetic stride layout would otherwise
//!   force every eviction-set member into the target's own bank, a
//!   self-interference artifact real attackers avoid by picking congruent
//!   addresses in foreign banks;
//! * **DMA engine** — no cache work, but a fixed software-stack cost
//!   ([`impact_sim::SimParams::dma_overhead`]) per transfer (§6.2: OS
//!   overheads make it ~10× slower than IMPACT-PnM).
//!
//! There is no simulated direct-access channel: the direct-memory-access
//! line of Figs. 2 and 3 (§3.3's upper bound) is analytic, a fixed
//! per-bit cost in `impact-bench`'s sweeps.
//!
//! The slotted protocol pays a guard interval per slot
//! ([`BaselinePrimitive::slot_guard`]), calibrated so DRAMA-clflush
//! matches its published ~2.3 Mb/s at small LLCs.

use impact_cache::cacti;
use impact_core::addr::VirtAddr;
use impact_core::engine::MemoryBackend;
use impact_core::error::Result;
use impact_core::time::Cycles;
use impact_sim::{AgentId, CoBarrier, Engine};

use crate::channel::{ChannelReport, Decoder};

/// Which cache-bypass primitive the baseline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselinePrimitive {
    /// `clflush`-based DRAMA.
    Clflush,
    /// Eviction-set-based DRAMA.
    Eviction,
    /// DMA-engine transfers.
    Dma,
}

impl BaselinePrimitive {
    /// Display name matching the paper's legends.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BaselinePrimitive::Clflush => "DRAMA-clflush",
            BaselinePrimitive::Eviction => "DRAMA-Eviction",
            BaselinePrimitive::Dma => "DMA Engine",
        }
    }

    /// Guard interval this primitive's protocol adds to every slot.
    #[must_use]
    pub fn slot_guard(&self) -> Cycles {
        match self {
            BaselinePrimitive::Clflush | BaselinePrimitive::Eviction => Cycles(1075),
            BaselinePrimitive::Dma => Cycles(240),
        }
    }
}

/// A slotted single-bank row-buffer covert channel.
#[derive(Debug)]
pub struct BaselineChannel {
    primitive: BaselinePrimitive,
    sender: AgentId,
    receiver: AgentId,
    sender_row: VirtAddr,
    receiver_row: VirtAddr,
    threshold: u64,
}

impl BaselineChannel {
    /// Sets up the channel in bank 0: allocates co-located rows, opens
    /// the receiver's row and calibrates the decode threshold.
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors.
    pub fn setup<B: MemoryBackend>(
        sys: &mut Engine<B>,
        primitive: BaselinePrimitive,
    ) -> Result<BaselineChannel> {
        let sender = sys.spawn_agent();
        let receiver = sys.spawn_agent();
        let sender_row = sys.alloc_row_in_bank(sender, 0)?;
        let receiver_row = sys.alloc_row_in_bank(receiver, 0)?;
        let mut ch = BaselineChannel {
            primitive,
            sender,
            receiver,
            sender_row,
            receiver_row,
            threshold: 0,
        };
        ch.calibrate(sys)?;
        Ok(ch)
    }

    /// Bypasses the cached copy of `row` for `agent`.
    fn bypass<B: MemoryBackend>(
        &self,
        sys: &mut Engine<B>,
        agent: AgentId,
        row: VirtAddr,
    ) -> Result<()> {
        match self.primitive {
            BaselinePrimitive::Clflush => {
                sys.clflush(agent, row)?;
            }
            BaselinePrimitive::Eviction => {
                // Timing from the analytic model; state effect via flush.
                let l3 = sys.config().l3;
                let evict = cacti::eviction_latency(l3.size_bytes, l3.ways, Cycles(206));
                let flush_cost = sys.clflush(agent, row)?;
                sys.advance(agent, evict.saturating_sub(flush_cost));
            }
            BaselinePrimitive::Dma => {
                // The DMA path never caches; charge the software stack.
                sys.advance(agent, sys.params().dma_overhead);
            }
        }
        Ok(())
    }

    /// Loads `row` for `agent` through the primitive's data path.
    fn access<B: MemoryBackend>(
        &self,
        sys: &mut Engine<B>,
        agent: AgentId,
        row: VirtAddr,
    ) -> Result<()> {
        match self.primitive {
            BaselinePrimitive::Clflush | BaselinePrimitive::Eviction => {
                sys.load(agent, row)?;
            }
            BaselinePrimitive::Dma => {
                sys.load_direct(agent, row)?;
            }
        }
        Ok(())
    }

    /// Measures known-hit and known-conflict latencies and sets the
    /// threshold to their midpoint.
    fn calibrate<B: MemoryBackend>(&mut self, sys: &mut Engine<B>) -> Result<()> {
        let barrier = CoBarrier::new(Cycles(10));
        let mut hits = Vec::new();
        let mut conflicts = Vec::new();
        for _ in 0..3 {
            // Open the receiver's row, then measure a hit.
            self.bypass(sys, self.receiver, self.receiver_row)?;
            self.access(sys, self.receiver, self.receiver_row)?;
            let h = self.timed_probe(sys)?;
            hits.push(h);
            // Sender interferes; measure a conflict.
            barrier.sync(sys, &[self.sender, self.receiver]);
            self.bypass(sys, self.sender, self.sender_row)?;
            self.access(sys, self.sender, self.sender_row)?;
            barrier.sync(sys, &[self.sender, self.receiver]);
            let c = self.timed_probe(sys)?;
            conflicts.push(c);
        }
        self.threshold = crate::channel::calibrate_threshold(&hits, &conflicts);
        Ok(())
    }

    fn timed_probe<B: MemoryBackend>(&self, sys: &mut Engine<B>) -> Result<u64> {
        self.bypass(sys, self.receiver, self.receiver_row)?;
        let t0 = sys.rdtscp(self.receiver);
        self.access(sys, self.receiver, self.receiver_row)?;
        let t1 = sys.rdtscp(self.receiver);
        Ok(t1 - t0)
    }

    /// Transmits `message` bit by bit through the slotted protocol.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn transmit<B: MemoryBackend>(
        &mut self,
        sys: &mut Engine<B>,
        message: &[bool],
    ) -> Result<ChannelReport> {
        let barrier = CoBarrier::new(Cycles(10));
        let both = [self.sender, self.receiver];
        let half_guard = self.primitive.slot_guard() / 2;
        let start_s = sys.now(self.sender);
        let start_r = sys.now(self.receiver);
        let start = start_s.max(start_r);
        let mut decoder = Decoder::new(self.threshold, message.len());

        for &bit in message {
            // Slot start.
            barrier.sync(sys, &both);
            sys.advance(self.sender, half_guard);
            sys.advance(self.receiver, half_guard);
            // First half: sender encodes.
            if bit {
                self.bypass(sys, self.sender, self.sender_row)?;
                self.access(sys, self.sender, self.sender_row)?;
            }
            // Half-slot boundary.
            barrier.sync(sys, &both);
            // Second half: receiver decodes.
            decoder.decode(0, self.timed_probe(sys)?, bit);
        }

        let end = sys.now(self.sender).max(sys.now(self.receiver));
        Ok(decoder.report(
            end - start,
            sys.now(self.sender) - start_s,
            sys.now(self.receiver) - start_r,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_core::config::SystemConfig;
    use impact_core::rng::SimRng;
    use impact_sim::System;

    fn sys() -> System {
        System::new(SystemConfig::paper_table2_noiseless())
    }

    fn run(primitive: BaselinePrimitive, bits: usize) -> (ChannelReport, f64) {
        let mut s = sys();
        let mut ch = BaselineChannel::setup(&mut s, primitive).unwrap();
        let msg = SimRng::seed(31).bits(bits);
        let r = ch.transmit(&mut s, &msg).unwrap();
        let mbps = r.goodput_mbps(s.config().clock);
        (r, mbps)
    }

    #[test]
    fn clflush_channel_correct_and_in_band() {
        let (r, mbps) = run(BaselinePrimitive::Clflush, 1024);
        assert_eq!(r.bit_errors, 0);
        // Paper: up to 2.29 Mb/s for DRAMA-clflush.
        assert!((1.7..=3.0).contains(&mbps), "clflush = {mbps:.2} Mb/s");
    }

    #[test]
    fn eviction_channel_correct_and_slower() {
        let (r, mbps) = run(BaselinePrimitive::Eviction, 512);
        assert_eq!(r.bit_errors, 0);
        let (_, clflush_mbps) = run(BaselinePrimitive::Clflush, 512);
        assert!(
            mbps < clflush_mbps,
            "eviction {mbps:.2} !< clflush {clflush_mbps:.2}"
        );
    }

    #[test]
    fn dma_channel_in_band() {
        let (r, mbps) = run(BaselinePrimitive::Dma, 512);
        assert_eq!(r.bit_errors, 0);
        // Paper: 0.81 Mb/s for the DMA-engine attack.
        assert!((0.6..=1.1).contains(&mbps), "dma = {mbps:.2} Mb/s");
    }

    #[test]
    fn clflush_declines_with_llc_size() {
        let msg = SimRng::seed(33).bits(512);
        let mut small = System::new(SystemConfig::paper_table2_noiseless().with_llc_size(1 << 20));
        let mut ch_s = BaselineChannel::setup(&mut small, BaselinePrimitive::Clflush).unwrap();
        let r_small = ch_s.transmit(&mut small, &msg).unwrap();
        let mut big = System::new(SystemConfig::paper_table2_noiseless().with_llc_size(128 << 20));
        let mut ch_b = BaselineChannel::setup(&mut big, BaselinePrimitive::Clflush).unwrap();
        let r_big = ch_b.transmit(&mut big, &msg).unwrap();
        let clock = small.config().clock;
        assert!(
            r_small.goodput_mbps(clock) > r_big.goodput_mbps(clock) * 1.3,
            "small {:.2} vs big {:.2}",
            r_small.goodput_mbps(clock),
            r_big.goodput_mbps(clock)
        );
    }

    #[test]
    fn dma_flat_in_llc_size() {
        let msg = SimRng::seed(35).bits(256);
        let mbps_at = |size: u64| {
            let mut s = System::new(SystemConfig::paper_table2_noiseless().with_llc_size(size));
            let mut ch = BaselineChannel::setup(&mut s, BaselinePrimitive::Dma).unwrap();
            let r = ch.transmit(&mut s, &msg).unwrap();
            r.goodput_mbps(s.config().clock)
        };
        let small = mbps_at(1 << 20);
        let big = mbps_at(128 << 20);
        assert!(
            (small - big).abs() / small < 0.05,
            "dma varies: {small:.2} vs {big:.2}"
        );
    }

    #[test]
    fn names() {
        assert_eq!(BaselinePrimitive::Clflush.name(), "DRAMA-clflush");
        assert_eq!(BaselinePrimitive::Eviction.name(), "DRAMA-Eviction");
        assert_eq!(BaselinePrimitive::Dma.name(), "DMA Engine");
    }
}
