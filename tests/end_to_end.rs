//! Cross-crate integration tests: the paper's headline claims, end to end.

use impact::attacks::baseline::{BaselineChannel, BaselinePrimitive};
use impact::attacks::channel::message_from_str;
use impact::attacks::side_channel::{SideChannelAttack, SideChannelConfig};
use impact::attacks::{PnmCovertChannel, PumCovertChannel};
use impact::core::config::SystemConfig;
use impact::core::rng::SimRng;
use impact::sim::System;

fn noiseless() -> System {
    System::new(SystemConfig::paper_table2_noiseless())
}

/// §3.1: a 74-cycle hit/conflict delta observable from userspace.
#[test]
fn row_buffer_timing_channel_exists() {
    let mut sys = noiseless();
    let a = sys.spawn_agent();
    let row_a = sys.alloc_row_in_bank(a, 0).unwrap();
    let row_b = sys.alloc_row_in_bank(a, 0).unwrap();
    sys.load_direct(a, row_a).unwrap();
    let hit = sys.load_direct(a, row_a + 64).unwrap();
    let conflict = sys.load_direct(a, row_b).unwrap();
    assert_eq!(conflict.latency.0 - hit.latency.0, 74);
}

/// §6.1: both PoC messages decode exactly with the 150-cycle threshold.
#[test]
fn poc_messages_decode_with_paper_threshold() {
    let mut sys = noiseless();
    let mut pnm = PnmCovertChannel::setup(&mut sys, 16).unwrap();
    let r = pnm
        .transmit(&mut sys, &message_from_str("1110010011100100"))
        .unwrap();
    assert_eq!(r.bit_errors, 0);
    assert_eq!(r.threshold, 150);

    let mut sys = noiseless();
    let mut pum = PumCovertChannel::setup(&mut sys, 16).unwrap();
    let r = pum
        .transmit(&mut sys, &message_from_str("0001101100011011"))
        .unwrap();
    assert_eq!(r.bit_errors, 0);
}

/// §6.2: the paper's throughput ordering across all five attacks.
#[test]
fn throughput_ordering_matches_paper() {
    let message = SimRng::seed(42).bits(1024);
    let clock = SystemConfig::paper_table2().clock;

    let mut mbps = std::collections::HashMap::new();
    for p in [
        BaselinePrimitive::Clflush,
        BaselinePrimitive::Eviction,
        BaselinePrimitive::Dma,
    ] {
        let mut sys = noiseless();
        let mut ch = BaselineChannel::setup(&mut sys, p).unwrap();
        let r = ch.transmit(&mut sys, &message).unwrap();
        mbps.insert(p.name(), r.goodput_mbps(clock));
    }
    let mut sys = noiseless();
    let mut pnm = PnmCovertChannel::setup(&mut sys, 16).unwrap();
    mbps.insert(
        "IMPACT-PnM",
        pnm.transmit(&mut sys, &message)
            .unwrap()
            .goodput_mbps(clock),
    );
    let mut sys = noiseless();
    let mut pum = PumCovertChannel::setup(&mut sys, 16).unwrap();
    mbps.insert(
        "IMPACT-PuM",
        pum.transmit(&mut sys, &message)
            .unwrap()
            .goodput_mbps(clock),
    );

    assert!(mbps["IMPACT-PuM"] > mbps["IMPACT-PnM"]);
    assert!(mbps["IMPACT-PnM"] > mbps["DRAMA-clflush"]);
    assert!(mbps["DRAMA-clflush"] > mbps["DRAMA-Eviction"]);
    assert!(mbps["DRAMA-Eviction"] > mbps["DMA Engine"] * 0.9);
    // Headline factors: PnM ≥ 3x clflush (paper 3.6x), PuM ≥ 5x (paper 6.5x).
    assert!(
        mbps["IMPACT-PnM"] / mbps["DRAMA-clflush"] > 3.0,
        "PnM/clflush = {:.1}",
        mbps["IMPACT-PnM"] / mbps["DRAMA-clflush"]
    );
    assert!(
        mbps["IMPACT-PuM"] / mbps["DRAMA-clflush"] > 5.0,
        "PuM/clflush = {:.1}",
        mbps["IMPACT-PuM"] / mbps["DRAMA-clflush"]
    );
}

/// §6.3: the side channel leaks at megabit rates with low error.
#[test]
fn side_channel_leaks_query_genome_characteristics() {
    let cfg = SystemConfig::paper_table2_noiseless().with_total_banks(1024);
    let clock = cfg.clock;
    let mut sys = System::new(cfg);
    let attack = SideChannelAttack::new(SideChannelConfig {
        reads: 60,
        ..SideChannelConfig::default()
    });
    let r = attack.run(&mut sys).unwrap();
    let tput = r.throughput_mbps(clock);
    assert!(tput > 4.0, "throughput {tput:.2} Mb/s");
    assert!(r.error_rate() < 0.05, "error {:.3}", r.error_rate());
    assert!(r.score.true_positives > 200);
}

/// Long transfers stay error-free without noise (the channel itself is
/// deterministic; only environmental noise causes bit errors).
#[test]
fn long_noiseless_transfers_are_exact() {
    let message = SimRng::seed(7).bits(8192);
    let mut sys = noiseless();
    let mut pnm = PnmCovertChannel::setup(&mut sys, 16).unwrap();
    assert_eq!(pnm.transmit(&mut sys, &message).unwrap().bit_errors, 0);

    let mut sys = noiseless();
    let mut pum = PumCovertChannel::setup(&mut sys, 16).unwrap();
    assert_eq!(pum.transmit(&mut sys, &message).unwrap().bit_errors, 0);
}

/// With the paper's noise sources the channels stay usable (<10% errors).
#[test]
fn noisy_channels_remain_usable() {
    let message = SimRng::seed(8).bits(4096);
    let mut sys = System::new(SystemConfig::paper_table2());
    let mut pnm = PnmCovertChannel::setup(&mut sys, 16).unwrap();
    let r = pnm.transmit(&mut sys, &message).unwrap();
    assert!(r.error_rate() < 0.10, "PnM error {:.3}", r.error_rate());

    let mut sys = System::new(SystemConfig::paper_table2());
    let mut pum = PumCovertChannel::setup(&mut sys, 16).unwrap();
    let r = pum.transmit(&mut sys, &message).unwrap();
    assert!(r.error_rate() < 0.10, "PuM error {:.3}", r.error_rate());
}

/// Two transmissions over the same channel object keep working (state is
/// properly maintained across messages).
#[test]
fn channel_reuse_across_messages() {
    let mut sys = noiseless();
    let mut pum = PumCovertChannel::setup(&mut sys, 16).unwrap();
    for seed in 0..4 {
        let msg = SimRng::seed(seed).bits(256);
        let r = pum.transmit(&mut sys, &msg).unwrap();
        assert_eq!(r.bit_errors, 0, "message {seed} corrupted");
    }
}
