//! The IMPACT side channel on genomic read mapping (§4.3, Figs. 7 and 11).
//!
//! A victim maps sequencing reads with a minimap2-style pipeline whose
//! seeding step probes a hash table distributed over the DRAM banks of a
//! PiM-enabled device. The attacker co-locates one of its own rows in
//! every table bank, opens them all, and sweeps the banks with PiM probes:
//! a row-buffer conflict in bank *b* means someone activated another row
//! there — with the table interleaved across banks, that someone is the
//! victim probing one of the (few) hash-table entries resident in *b*.
//!
//! Those probes are all the attacker sees, so the victim is modelled as
//! its seed stream ([`impact_genomics::index::seed_buckets`]): one probe
//! per read minimizer, separated by a fixed compute gap
//! ([`SideChannelConfig::victim_gap`]) that stands in for chaining and
//! alignment.
//!
//! # Accounting (following §6.3)
//!
//! Each sweep round probes every bank once, and `measure` scores each
//! probe as it runs it, against whether the victim touched that bank
//! since the bank's previous probe:
//!
//! * **Throughput** counts successfully leaked information only: each
//!   true-positive detection resolves the victim's probe to the entries of
//!   one bank, worth `log2(total entries) − log2(entries per bank)` bits
//!   ([`impact_genomics::index::BankLayout::bits_per_identified_access`]).
//! * **Error rate** counts incorrect guesses: detections not caused by the
//!   victim (background bank activity) and aliased detections (several
//!   victim probes collapsing into one observation window count as
//!   misses).
//!
//! # Why fig11 falls with the bank count
//!
//! One probe sweep takes proportionally longer as the bank count grows,
//! so (i) per-bank background activity has more time to accumulate
//! between probes (error grows) and (ii) repeated probes of hot hash
//! buckets alias within a sweep (§6.3; the detected-event rate drops).
//! From 2048 banks on, a page walk adds most of the drop: the attacker
//! re-translates one 4 KiB page per bank before each timed probe, those
//! pages overflow the 1536-entry L2 TLB, and every probe pays a 120-cycle
//! walk. A probe then costs about 259 attacker cycles instead of 140.5 at
//! 1024 banks. Without the walk, 2048 banks would read 7.32 Mb/s instead
//! of 5.53.

use impact_core::addr::{PhysAddr, VirtAddr, LINE_SIZE};
use impact_core::engine::MemoryBackend;
use impact_core::error::Result;
use impact_core::rng::SimRng;
use impact_core::time::Cycles;
use impact_genomics::genome::{Genome, ReadSampler};
use impact_genomics::imputation::LeakScore;
use impact_genomics::index::{seed_buckets, BankLayout};
use impact_sim::{AgentId, Engine};

/// Configuration of the side-channel experiment.
#[derive(Debug, Clone)]
pub struct SideChannelConfig {
    /// Total hash-table buckets (the paper's resolution argument uses
    /// 16384 = 16 entries/bank at 1024 banks).
    pub table_buckets: usize,
    /// Reference genome length in bases.
    pub genome_len: usize,
    /// Number of reads the victim seeds.
    pub reads: usize,
    /// Read length in bases.
    pub read_len: usize,
    /// Per-base sequencing error rate of the query reads.
    pub read_error_rate: f64,
    /// Fraction of reads sampled from the coverage hotspot (targeted /
    /// amplicon sequencing); concentrates seed lookups on hot buckets.
    pub focus_fraction: f64,
    /// Length of the hotspot locus in bases.
    pub focus_len: usize,
    /// Victim compute cycles between consecutive seeding probes: the
    /// chaining and alignment work interleaved with seeding, which is
    /// modelled only as this gap.
    pub victim_gap: Cycles,
    /// Background per-bank row-activation rate (events per cycle per
    /// bank): co-tenant traffic and refresh-like disturbances.
    pub background_rate: f64,
    /// Decode threshold for the attacker's probes.
    pub threshold: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for SideChannelConfig {
    fn default() -> SideChannelConfig {
        SideChannelConfig {
            table_buckets: 16384,
            genome_len: 60_000,
            reads: 120,
            read_len: 150,
            read_error_rate: 0.01,
            focus_fraction: 0.85,
            focus_len: 160,
            victim_gap: Cycles(3100),
            background_rate: 2.5e-9,
            threshold: crate::channel::PAPER_THRESHOLD_CYCLES,
            seed: 0xD5A,
        }
    }
}

/// Result of one side-channel run.
#[derive(Debug, Clone)]
pub struct SideChannelReport {
    /// Detection bookkeeping.
    pub score: LeakScore,
    /// Attacker probes issued.
    pub probes: u64,
    /// Victim seeding accesses performed.
    pub victim_accesses: u64,
    /// Attacker elapsed time.
    pub elapsed: Cycles,
    /// Information bits successfully leaked.
    pub leaked_bits: f64,
    /// Banks in the swept table region.
    pub banks: usize,
}

impl SideChannelReport {
    /// Leakage throughput in Mb/s (Fig. 11 primary axis).
    #[must_use]
    pub fn throughput_mbps(&self, clock: impact_core::time::Clock) -> f64 {
        let secs = clock.seconds(self.elapsed);
        if secs <= 0.0 {
            0.0
        } else {
            self.leaked_bits / secs / 1e6
        }
    }

    /// Error rate (Fig. 11 secondary axis): the fraction of the
    /// attacker's positive guesses that were wrong (background activity
    /// misattributed to the victim). Missed/aliased victim probes are not
    /// wrong guesses — they reduce throughput instead (§5.2.3 measures
    /// throughput over successfully leaked data only).
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.score.error_rate()
    }

    /// Fraction of the victim's seeding probes the attacker failed to
    /// capture (aliasing within one sweep + missed detections).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let truth = self.score.true_positives + self.score.false_negatives;
        if truth == 0 {
            0.0
        } else {
            self.score.false_negatives as f64 / truth as f64
        }
    }
}

/// The initialized (but not yet measured) state of a side-channel run:
/// everything [`SideChannelAttack::init`] set up that
/// [`SideChannelAttack::measure`] needs.
///
/// The descriptor itself is engine-independent — it names agents, rows and
/// the victim's bucket stream, while the warmed DRAM/TLB/clock state lives
/// in the engine `init` ran on. That split is what makes the warm prefix
/// forkable: fork the engine after `init`, and one `SideChannelInit`
/// drives `measure` on every fork.
#[derive(Debug, Clone)]
pub struct SideChannelInit {
    /// The victim agent.
    pub victim: AgentId,
    /// The attacker agent.
    pub attacker: AgentId,
    /// The attacker's opened row in each bank, indexed by flat bank.
    pub attacker_rows: Vec<VirtAddr>,
    /// The victim's seeding-probe bucket sequence.
    pub bucket_stream: Vec<usize>,
    /// Hash-table-over-banks layout.
    pub layout: BankLayout,
    /// Banks in the swept table region.
    pub banks: usize,
}

/// The side-channel attack harness.
#[derive(Debug)]
pub struct SideChannelAttack {
    cfg: SideChannelConfig,
}

impl SideChannelAttack {
    /// Creates the harness with the given configuration.
    #[must_use]
    pub fn new(cfg: SideChannelConfig) -> SideChannelAttack {
        SideChannelAttack { cfg }
    }

    /// Runs the attack on `sys`, whose DRAM geometry determines the bank
    /// count being swept. Equivalent to [`SideChannelAttack::init`]
    /// followed by [`SideChannelAttack::measure`].
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run<B: MemoryBackend>(&self, sys: &mut Engine<B>) -> Result<SideChannelReport> {
        let init = self.init(sys)?;
        self.measure(sys, &init)
    }

    /// Initializes the attack on `sys`: victim-side preparation (genome,
    /// reads and their seed bucket stream — pure compute), agent spawning,
    /// the attacker's row-opening sweep, and the clock-synchronizing
    /// barrier. This is the sweep-point-independent warm prefix: fork the
    /// engine afterwards and run [`SideChannelAttack::measure`] on each
    /// fork.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn init<B: MemoryBackend>(&self, sys: &mut Engine<B>) -> Result<SideChannelInit> {
        let banks = sys.config().dram_geometry.total_banks() as usize;
        let layout = BankLayout::new(banks, self.cfg.table_buckets);

        // --- Victim-side preparation (outside the timed window) ---
        let genome = Genome::synthesize(self.cfg.genome_len, self.cfg.seed);
        let mut sampler = ReadSampler::new(self.cfg.seed ^ 0xBEEF);
        let reads = sampler.sample_focused(
            &genome,
            self.cfg.reads,
            self.cfg.read_len,
            self.cfg.read_error_rate,
            self.cfg.focus_fraction,
            self.cfg.genome_len / 3,
            self.cfg.focus_len,
        );
        let bucket_stream = seed_buckets(&reads, 15, 5, self.cfg.table_buckets);

        // --- Simulated agents ---
        let victim = sys.spawn_agent();
        let attacker = sys.spawn_agent();
        let mut attacker_rows: Vec<VirtAddr> = Vec::with_capacity(banks);
        // Open the attacker's row everywhere (initialization sweep). Each
        // bank keeps the serial allocate/translate order (the allocation
        // TLB-warms the row); only the DRAM row openings are deferred into
        // one burst, which the engine services bit-identically to opening
        // each row in turn.
        let mut probes: Vec<(PhysAddr, Cycles)> = Vec::with_capacity(banks);
        for bank in 0..banks {
            let row = sys.alloc_row_in_bank(attacker, bank)?;
            attacker_rows.push(row);
            probes.push(sys.translate(attacker, row)?);
        }
        sys.pim_open_burst_translated(attacker, &probes)?;

        // The measured phase starts with both threads synchronized (the
        // harness barrier after initialization): the victim's first
        // lookups happen once the attacker's rows are open, so the
        // initialization sweep's transient bank-busy times are not
        // observable — which is also what makes the batched and serial
        // servicing of the init burst indistinguishable from here on.
        let sync_at = sys.now(victim).max(sys.now(attacker));
        sys.set_now(victim, sync_at);
        sys.set_now(attacker, sync_at);

        Ok(SideChannelInit {
            victim,
            attacker,
            attacker_rows,
            bucket_stream,
            layout,
            banks,
        })
    }

    /// Runs the measured phase on an engine prepared by
    /// [`SideChannelAttack::init`] (or a fork of one).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn measure<B: MemoryBackend>(
        &self,
        sys: &mut Engine<B>,
        init: &SideChannelInit,
    ) -> Result<SideChannelReport> {
        let SideChannelInit {
            victim,
            attacker,
            attacker_rows,
            bucket_stream,
            layout,
            banks,
        } = init;
        let (victim, attacker, banks) = (*victim, *attacker, *banks);
        let mut victim_rows: Vec<Option<VirtAddr>> = vec![None; banks];

        // --- Interleaved co-simulation ---
        let mut bg_rng = SimRng::seed(self.cfg.seed ^ 0x6A6E);
        let mut pending: Vec<u64> = vec![0; banks];
        let mut last_probe: Vec<Cycles> = vec![sys.now(attacker); banks];
        let mut score = LeakScore::default();
        let mut stream_pos = 0usize;
        let mut victim_accesses = 0u64;
        let mut probes = 0u64;
        let start = sys.now(attacker);

        while stream_pos < bucket_stream.len() {
            for bank in 0..banks {
                // Let the victim catch up to the attacker's clock.
                while stream_pos < bucket_stream.len() && sys.now(victim) <= sys.now(attacker) {
                    let bucket = bucket_stream[stream_pos];
                    stream_pos += 1;
                    let vb = layout.bank_of(bucket);
                    let line = layout.line_of(bucket);
                    let row = match victim_rows[vb] {
                        Some(r) => r,
                        None => {
                            let r = sys.alloc_row_in_bank(victim, vb)?;
                            victim_rows[vb] = Some(r);
                            r
                        }
                    };
                    sys.pim_op_direct(victim, row + line * LINE_SIZE)?;
                    sys.advance(victim, self.cfg.victim_gap);
                    pending[vb] += 1;
                    victim_accesses += 1;
                }

                // Background per-bank activity since the last probe.
                let now = sys.now(attacker);
                let dt = (now - last_probe[bank]).as_f64();
                let p_bg = 1.0 - (-self.cfg.background_rate * dt).exp();
                if bg_rng.chance(p_bg) {
                    let noise_row = 1000 + bg_rng.below(1000);
                    sys.backend_mut().inject_row_activation(
                        bank,
                        noise_row,
                        now,
                        impact_sim::noise::NOISE_ACTOR,
                    );
                }

                // The attacker re-translates its row before the timed
                // probe and pays the lookup on its own clock. Its rows sit
                // in 4 KiB pages, one per bank, so from 2048 banks on they
                // overflow the L2 TLB and every lookup walks (see the
                // module docs). `pim_op_direct` translates the row again
                // inside the timed window, as a 1-cycle L1 hit.
                let (_, tlb_cost) = sys.translate(attacker, attacker_rows[bank])?;
                sys.advance(attacker, tlb_cost);
                let t0 = sys.rdtscp(attacker);
                sys.pim_op_direct(attacker, attacker_rows[bank])?;
                let t1 = sys.rdtscp(attacker);
                probes += 1;
                last_probe[bank] = sys.now(attacker);
                let detected = (t1 - t0) > self.cfg.threshold;
                let touched = pending[bank] > 0;
                match (touched, detected) {
                    (true, true) => score.true_positives += 1,
                    (false, true) => score.false_positives += 1,
                    (true, false) => score.false_negatives += 1,
                    (false, false) => {}
                }
                // Accesses beyond the first collapsed into one row-buffer
                // observation and are unrecoverable.
                score.false_negatives += pending[bank].saturating_sub(1);
                pending[bank] = 0;
            }
        }

        let elapsed = sys.now(attacker) - start;
        let leaked_bits = score.leaked_bits(layout);
        Ok(SideChannelReport {
            score,
            probes,
            victim_accesses,
            elapsed,
            leaked_bits,
            banks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_core::config::SystemConfig;
    use impact_sim::System;

    fn run_with_banks(banks: u32) -> (SideChannelReport, f64, f64) {
        let cfg = SystemConfig::paper_table2_noiseless().with_total_banks(banks);
        let mut sys = System::new(cfg);
        let attack = SideChannelAttack::new(SideChannelConfig {
            reads: 40,
            ..SideChannelConfig::default()
        });
        let r = attack.run(&mut sys).unwrap();
        let tput = r.throughput_mbps(sys.config().clock);
        let err = r.error_rate();
        (r, tput, err)
    }

    #[test]
    fn leaks_at_1024_banks_in_paper_band() {
        let (r, tput, err) = run_with_banks(1024);
        assert!(
            r.score.true_positives > 100,
            "TP = {}",
            r.score.true_positives
        );
        // Paper: 7.57 Mb/s, < 5% error at 1024 banks.
        assert!((5.0..=11.0).contains(&tput), "throughput = {tput:.2} Mb/s");
        assert!(err < 0.10, "error = {err:.3}");
    }

    #[test]
    fn throughput_drops_and_error_rises_with_banks() {
        let (_, t1k, e1k) = run_with_banks(1024);
        let (_, t8k, e8k) = run_with_banks(8192);
        assert!(t8k < t1k * 0.75, "no drop: {t1k:.2} -> {t8k:.2} Mb/s");
        assert!(e8k > e1k, "no error growth: {e1k:.3} -> {e8k:.3}");
    }

    #[test]
    fn detection_requires_victim() {
        // With a single read seeded, only background noise fires.
        let cfg = SystemConfig::paper_table2_noiseless().with_total_banks(1024);
        let mut sys = System::new(cfg);
        let attack = SideChannelAttack::new(SideChannelConfig {
            reads: 1,
            ..SideChannelConfig::default()
        });
        let r = attack.run(&mut sys).unwrap();
        // Very few detections relative to a real run.
        assert!(r.victim_accesses < 200);
    }

    /// The batched initialization sweep is bit-identical to the engine's
    /// serial remainder, which a controller that declines every batched
    /// burst forces: same detections, same timing, same backend state.
    #[test]
    fn batched_init_is_bit_identical() {
        use crate::test_support::serial_system;
        use impact_memctrl::ControllerBackend;

        fn run<B: ControllerBackend>(mut sys: Engine<B>) -> (SideChannelReport, Engine<B>) {
            let attack = SideChannelAttack::new(SideChannelConfig {
                reads: 20,
                ..SideChannelConfig::default()
            });
            (attack.run(&mut sys).unwrap(), sys)
        }
        let digest = |r: &SideChannelReport| {
            (
                r.score.true_positives,
                r.score.false_positives,
                r.score.false_negatives,
                r.probes,
                r.victim_accesses,
                r.elapsed,
                r.leaked_bits.to_bits(),
            )
        };

        let cfg = || SystemConfig::paper_table2_noiseless().with_total_banks(1024);
        let (br, bsys) = run(System::new(cfg()));
        let (sr, ssys) = run(serial_system(cfg()));
        assert_eq!(digest(&br), digest(&sr));
        assert_eq!(bsys.backend().stats(), ssys.backend().0.stats());
        assert_eq!(bsys.dram_totals(), ssys.dram_totals());
    }

    /// `init` + `measure` on a fork is bit-identical to a straight `run`,
    /// and measuring on the fork leaves the warmed parent untouched.
    #[test]
    fn forked_measure_matches_run() {
        use impact_memctrl::ControllerBackend;
        let cfg = || SystemConfig::paper_table2_noiseless().with_total_banks(1024);
        let attack = || {
            SideChannelAttack::new(SideChannelConfig {
                reads: 20,
                ..SideChannelConfig::default()
            })
        };
        let mut straight_sys = System::new(cfg());
        let straight = attack().run(&mut straight_sys).unwrap();

        let mut parent = System::new(cfg());
        let init = attack().init(&mut parent).unwrap();
        let warmed_digest = parent.backend().dram_state_digest();
        let mut fork = parent.fork();
        let forked = attack().measure(&mut fork, &init).unwrap();

        assert_eq!(
            parent.backend().dram_state_digest(),
            warmed_digest,
            "measuring on the fork mutated the parent"
        );
        assert_eq!(straight.score.true_positives, forked.score.true_positives);
        assert_eq!(straight.score.false_positives, forked.score.false_positives);
        assert_eq!(straight.score.false_negatives, forked.score.false_negatives);
        assert_eq!(straight.probes, forked.probes);
        assert_eq!(straight.elapsed, forked.elapsed);
        assert_eq!(straight.leaked_bits.to_bits(), forked.leaked_bits.to_bits());
        assert_eq!(straight_sys.dram_totals(), fork.dram_totals());
        assert_eq!(
            straight_sys.backend().dram_state_digest(),
            fork.backend().dram_state_digest()
        );
    }

    /// The victim's probe stream — every bucket the attacker can see — is
    /// pinned by length and FNV-1a digest at fig11's full (120 reads) and
    /// quick (40 reads) sizes. The constants were taken from the observer
    /// of a full read mapper (seeding, chaining, alignment), so they show
    /// that seeding alone reproduces the stream the mapper probed.
    #[test]
    fn victim_stream_is_pinned() {
        use impact_core::hash::{fnv1a_u64, FNV_OFFSET};
        for (reads, len, digest) in [
            (120, 5423, 0xc5ca_fed4_57ff_0b5e_u64),
            (40, 1791, 0x8ca1_ddd1_676c_56b6),
        ] {
            let cfg = SystemConfig::paper_table2_noiseless().with_total_banks(1024);
            let mut sys = System::new(cfg);
            let attack = SideChannelAttack::new(SideChannelConfig {
                reads,
                ..SideChannelConfig::default()
            });
            let stream = attack.init(&mut sys).unwrap().bucket_stream;
            let got = stream
                .iter()
                .fold(FNV_OFFSET, |h, &b| fnv1a_u64(h, b as u64));
            assert_eq!((stream.len(), got), (len, digest), "{reads} reads");
        }
    }

    /// The attacker's per-probe translation budget at fig11's 40-read
    /// configuration, in the steady state of `measure`'s rounds: after
    /// `init`, a fork re-translates every attacker row once (the first
    /// round), and a second sweep then costs an L1 miss and an L2 hit
    /// (1 + 12 cycles) per row at 1024 banks. From 2048 banks on, the
    /// sweep's pages cycle through the 1536-entry LRU L2 TLB, so every
    /// row also walks (1 + 12 + 120).
    #[test]
    fn translation_budget_per_probe_is_pinned() {
        for (banks, per_row) in [(1024u32, 13u64), (2048, 133), (4096, 133), (8192, 133)] {
            let cfg = SystemConfig::paper_table2_noiseless().with_total_banks(banks);
            let mut parent = System::new(cfg);
            let attack = SideChannelAttack::new(SideChannelConfig {
                reads: 40,
                ..SideChannelConfig::default()
            });
            let init = attack.init(&mut parent).unwrap();
            let mut fork = parent.fork();
            for &row in &init.attacker_rows {
                fork.translate(init.attacker, row).unwrap();
            }
            for &row in &init.attacker_rows {
                let (_, cost) = fork.translate(init.attacker, row).unwrap();
                assert_eq!(cost, Cycles(per_row), "{banks} banks");
            }
        }
    }

    /// The attack runs identically behind the tracing proxy.
    #[test]
    fn runs_identically_on_traced_backend() {
        use impact_sim::TracedSystem;
        let cfg = || SystemConfig::paper_table2_noiseless().with_total_banks(1024);
        let attack = || {
            SideChannelAttack::new(SideChannelConfig {
                reads: 20,
                ..SideChannelConfig::default()
            })
        };
        let mut mono_sys = System::new(cfg());
        let mono = attack().run(&mut mono_sys).unwrap();
        let mut tr_sys = TracedSystem::recording(
            cfg(),
            std::io::sink(),
            "paper_table2_noiseless+banks:1024",
            0,
        )
        .unwrap();
        let traced = attack().run(&mut tr_sys).unwrap();
        assert_eq!(mono.score.true_positives, traced.score.true_positives);
        assert_eq!(mono.score.false_positives, traced.score.false_positives);
        assert_eq!(mono.score.false_negatives, traced.score.false_negatives);
        assert_eq!(mono.elapsed, traced.elapsed);
        assert_eq!(mono_sys.dram_totals(), tr_sys.dram_totals());
    }
}
