//! Covert-channel framework: messages, thresholds, the decode rule and
//! the PnM/PuM batch handshake.
//!
//! Every covert channel decodes one way (§4.1 Listing 1, §4.2 Listing 2,
//! §5.2.2): a timed probe above the threshold is a row-buffer conflict,
//! so the bit is a 1. The crate's `Decoder` is that rule, and the only
//! code that builds a [`ChannelReport`]. IMPACT-PnM and IMPACT-PuM also
//! share one semaphore handshake: the sender posts a batch of bits, one
//! per bank, the receiver probes and decodes it and frees the buffer
//! again. `transmit_batches` runs that handshake over a channel's
//! per-batch `send` and `receive`.

use impact_core::engine::MemoryBackend;
use impact_core::error::Result;
use impact_core::time::{Clock, Cycles};
use impact_sim::{AgentId, CoSemaphore, Engine};

/// The decode threshold the paper's proof-of-concept uses (§6.1): a
/// receiver-measured latency above 150 cycles is decoded as a row-buffer
/// conflict (logic-1).
pub const PAPER_THRESHOLD_CYCLES: u64 = 150;

/// Parses a message from an ASCII bit string.
///
/// # Panics
///
/// Panics on characters other than `0`/`1`.
///
/// # Example
///
/// ```
/// use impact_attacks::channel::message_from_str;
///
/// assert_eq!(message_from_str("101"), vec![true, false, true]);
/// ```
#[must_use]
pub fn message_from_str(s: &str) -> Vec<bool> {
    s.chars()
        .map(|c| match c {
            '0' => false,
            '1' => true,
            other => panic!("invalid message character {other:?}"),
        })
        .collect()
}

/// What the receiver measured and decoded for one bit (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitObservation {
    /// The bank the bit was transmitted through.
    pub bank: usize,
    /// Latency measured by the receiver (cycles, including timer cost).
    pub measured: u64,
    /// The bit the sender transmitted.
    pub sent: bool,
    /// The bit the receiver decoded.
    pub decoded: bool,
}

/// Result of one covert-channel transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelReport {
    /// Bits transmitted.
    pub bits_sent: u64,
    /// Bits decoded incorrectly.
    pub bit_errors: u64,
    /// End-to-end elapsed time (max of sender/receiver clocks).
    pub elapsed: Cycles,
    /// Cycles the sender spent in its routine.
    pub sender_cycles: Cycles,
    /// Cycles the receiver spent in its routine.
    pub receiver_cycles: Cycles,
    /// Decode threshold used.
    pub threshold: u64,
    /// One observation per transmitted bit, in transmission order.
    pub observations: Vec<BitObservation>,
}

impl ChannelReport {
    /// Fraction of bits decoded incorrectly.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.bits_sent == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.bits_sent as f64
        }
    }

    /// Throughput counted over successfully leaked bits only, as the paper
    /// measures (§5.2.3).
    #[must_use]
    pub fn goodput_mbps(&self, clock: Clock) -> f64 {
        clock.throughput_mbps(self.bits_sent - self.bit_errors, self.elapsed)
    }
}

/// The decode rule every covert channel shares, and the bookkeeping of
/// one transmission: each bit is decoded exactly once, so the report's
/// bit count is its observation count.
pub(crate) struct Decoder {
    threshold: u64,
    errors: u64,
    observations: Vec<BitObservation>,
}

impl Decoder {
    /// A decoder for a `bits`-bit message.
    pub(crate) fn new(threshold: u64, bits: usize) -> Decoder {
        Decoder {
            threshold,
            errors: 0,
            observations: Vec::with_capacity(bits),
        }
    }

    /// Decodes the bit sent through `bank` from the receiver's `measured`
    /// latency: above the threshold is a row-buffer conflict, a 1.
    pub(crate) fn decode(&mut self, bank: usize, measured: u64, sent: bool) {
        let decoded = measured > self.threshold;
        self.errors += u64::from(decoded != sent);
        self.observations.push(BitObservation {
            bank,
            measured,
            sent,
            decoded,
        });
    }

    /// The transmission's report.
    pub(crate) fn report(
        self,
        elapsed: Cycles,
        sender_cycles: Cycles,
        receiver_cycles: Cycles,
    ) -> ChannelReport {
        ChannelReport {
            bits_sent: self.observations.len() as u64,
            bit_errors: self.errors,
            elapsed,
            sender_cycles,
            receiver_cycles,
            threshold: self.threshold,
            observations: self.observations,
        }
    }
}

/// One batch of a bank-parallel covert channel: bit `i` of a batch
/// travels through bank `i`.
pub(crate) trait BatchChannel {
    /// The sender's encoding of one batch, before its fence.
    fn send<B: MemoryBackend>(&mut self, sys: &mut Engine<B>, batch: &[bool]) -> Result<()>;

    /// The receiver's timed probes of one batch, each decoded through
    /// `decoder`, then the receiver's fence and end-of-batch upkeep.
    fn receive<B: MemoryBackend>(
        &mut self,
        sys: &mut Engine<B>,
        batch: &[bool],
        decoder: &mut Decoder,
    ) -> Result<()>;
}

/// Transmits `message` in batches of `banks` bits through the semaphore
/// handshake of Listings 1 and 2. The buffer starts free; per batch the
/// sender waits until it is free, sends, fences and posts the data, and
/// the receiver waits for the data, receives and frees the buffer. Each
/// side's busy time counts from the end of its wait.
pub(crate) fn transmit_batches<B: MemoryBackend, C: BatchChannel>(
    channel: &mut C,
    sys: &mut Engine<B>,
    (sender, receiver): (AgentId, AgentId),
    banks: usize,
    threshold: u64,
    message: &[bool],
) -> Result<ChannelReport> {
    let sync = sys.params().sync_overhead;
    let mut data = CoSemaphore::new(sync);
    let mut ready = CoSemaphore::new(sync);
    ready.post(sys, receiver);
    let start = sys.now(sender).max(sys.now(receiver));
    let mut decoder = Decoder::new(threshold, message.len());
    let mut sender_busy = Cycles::ZERO;
    let mut receiver_busy = Cycles::ZERO;
    for batch in message.chunks(banks) {
        ready.wait(sys, sender);
        let begin = sys.now(sender);
        channel.send(sys, batch)?;
        sys.fence(sender);
        data.post(sys, sender);
        sender_busy += sys.now(sender) - begin;

        data.wait(sys, receiver);
        let begin = sys.now(receiver);
        channel.receive(sys, batch, &mut decoder)?;
        ready.post(sys, receiver);
        receiver_busy += sys.now(receiver) - begin;
    }
    let end = sys.now(sender).max(sys.now(receiver));
    Ok(decoder.report(end - start, sender_busy, receiver_busy))
}

/// Derives a decode threshold from calibration samples: the midpoint of
/// the mean hit latency and mean conflict latency.
///
/// Returns [`PAPER_THRESHOLD_CYCLES`] when either sample set is empty.
#[must_use]
pub fn calibrate_threshold(hit_samples: &[u64], conflict_samples: &[u64]) -> u64 {
    if hit_samples.is_empty() || conflict_samples.is_empty() {
        return PAPER_THRESHOLD_CYCLES;
    }
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
    ((mean(hit_samples) + mean(conflict_samples)) / 2.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_parsing() {
        assert_eq!(message_from_str(""), Vec::<bool>::new());
        assert_eq!(message_from_str("1100"), vec![true, true, false, false]);
    }

    #[test]
    #[should_panic(expected = "invalid message character")]
    fn message_rejects_garbage() {
        let _ = message_from_str("10x");
    }

    #[test]
    fn report_rates() {
        let r = ChannelReport {
            bits_sent: 100,
            bit_errors: 5,
            elapsed: Cycles(26_000),
            sender_cycles: Cycles(10_000),
            receiver_cycles: Cycles(16_000),
            threshold: 150,
            observations: Vec::new(),
        };
        assert!((r.error_rate() - 0.05).abs() < 1e-12);
        // 95 bits in 10 us at 2.6 GHz = 9.5 Mb/s.
        let clock = Clock::paper_default();
        assert!((r.goodput_mbps(clock) - 9.5).abs() < 0.01);
    }

    #[test]
    fn decoder_reads_above_threshold_as_one() {
        let mut d = Decoder::new(150, 4);
        d.decode(0, 151, true);
        d.decode(1, 150, false);
        d.decode(2, 150, true);
        d.decode(3, 200, false);
        let r = d.report(Cycles(40), Cycles(10), Cycles(30));
        assert_eq!((r.bits_sent, r.bit_errors, r.threshold), (4, 2, 150));
        let decoded: Vec<bool> = r.observations.iter().map(|o| o.decoded).collect();
        assert_eq!(decoded, [true, false, false, true]);
        assert_eq!(r.observations[3].bank, 3);
    }

    #[test]
    fn threshold_midpoint() {
        assert_eq!(calibrate_threshold(&[100, 110], &[190, 200]), 150);
        assert_eq!(calibrate_threshold(&[], &[200]), PAPER_THRESHOLD_CYCLES);
    }

    #[test]
    fn zero_bits_report() {
        let r = ChannelReport {
            bits_sent: 0,
            bit_errors: 0,
            elapsed: Cycles::ZERO,
            sender_cycles: Cycles::ZERO,
            receiver_cycles: Cycles::ZERO,
            threshold: 150,
            observations: Vec::new(),
        };
        assert_eq!(r.error_rate(), 0.0);
        assert_eq!(r.goodput_mbps(Clock::paper_default()), 0.0);
    }
}
