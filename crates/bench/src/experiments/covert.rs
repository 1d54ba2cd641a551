//! Covert-channel experiments: Fig. 8 (proof of concept), Fig. 9
//! (throughput comparison) and Fig. 10 (sender/receiver breakdown).

use impact_attacks::baseline::{BaselineChannel, BaselinePrimitive};
use impact_attacks::channel::message_from_str;
use impact_attacks::{PnmCovertChannel, PumCovertChannel};
use impact_core::config::SystemConfig;
use impact_core::par;
use impact_core::rng::SimRng;
use impact_sim::System;

use crate::{Figure, Series};

/// Fig. 8: receiver-measured latency per bank for a 16-bit message on
/// IMPACT-PnM (a) and IMPACT-PuM (b), decoded with the 150-cycle threshold.
#[must_use]
pub fn fig8() -> Figure {
    let mut fig = Figure::new(
        "fig8",
        "PoC: receiver latency per transmitted bit (16 banks)",
        "bank",
        "cycles measured by receiver",
    )
    .with_note("decode threshold: 150 cycles (paper §6.1)")
    .with_note("paper messages: PnM 1110010011100100, PuM 0001101100011011");

    // (a) IMPACT-PnM.
    let mut sys = System::new(SystemConfig::paper_table2_noiseless());
    let mut pnm = PnmCovertChannel::setup(&mut sys, 16).expect("setup");
    let msg = message_from_str("1110010011100100");
    let r = pnm.transmit(&mut sys, &msg).expect("transmit");
    fig = fig.with_series(Series::new(
        "IMPACT-PnM (cycles)",
        r.observations
            .iter()
            .map(|o| (o.bank as f64, o.measured as f64))
            .collect(),
    ));
    fig = fig.with_note(format!("PnM bit errors: {}", r.bit_errors));

    // (b) IMPACT-PuM.
    let mut sys = System::new(SystemConfig::paper_table2_noiseless());
    let mut pum = PumCovertChannel::setup(&mut sys, 16).expect("setup");
    let msg = message_from_str("0001101100011011");
    let r = pum.transmit(&mut sys, &msg).expect("transmit");
    fig = fig.with_series(Series::new(
        "IMPACT-PuM (cycles)",
        r.observations
            .iter()
            .map(|o| (o.bank as f64, o.measured as f64))
            .collect(),
    ));
    fig.with_note(format!("PuM bit errors: {}", r.bit_errors))
}

/// The five attacks of Fig. 9, in legend order.
#[derive(Clone, Copy)]
enum Fig9Attack {
    Baseline(BaselinePrimitive),
    Pnm,
    Pum,
}

const FIG9_ATTACKS: [(&str, Fig9Attack); 5] = [
    (
        "DRAMA-clflush",
        Fig9Attack::Baseline(BaselinePrimitive::Clflush),
    ),
    (
        "DRAMA-Eviction",
        Fig9Attack::Baseline(BaselinePrimitive::Eviction),
    ),
    ("DMA Engine", Fig9Attack::Baseline(BaselinePrimitive::Dma)),
    ("IMPACT-PnM", Fig9Attack::Pnm),
    ("IMPACT-PuM", Fig9Attack::Pum),
];

/// Fig. 9: leakage throughput of all five attacks across LLC sizes
/// (1–128 MB), with the paper's noise sources enabled. Its 40
/// (LLC size, attack) points each build their own [`System`] and are
/// mapped over the host's cores, so the figure is bit-identical at any
/// worker count.
#[must_use]
pub fn fig9(message_bits: usize) -> Figure {
    let sizes_mb = [1u64, 2, 4, 8, 16, 32, 64, 128];
    let message = SimRng::seed(0xF19).bits(message_bits);
    let points: Vec<(u64, Fig9Attack)> = sizes_mb
        .iter()
        .flat_map(|&mb| FIG9_ATTACKS.iter().map(move |&(_, attack)| (mb, attack)))
        .collect();
    let goodput = par::ordered_map(points, par::available_workers(), |(mb, attack)| {
        let cfg = SystemConfig::paper_table2().with_llc_size(mb << 20);
        let mut sys = System::new(cfg.clone());
        let r = match attack {
            Fig9Attack::Baseline(primitive) => BaselineChannel::setup(&mut sys, primitive)
                .expect("setup")
                .transmit(&mut sys, &message),
            Fig9Attack::Pnm => PnmCovertChannel::setup(&mut sys, 16)
                .expect("setup")
                .transmit(&mut sys, &message),
            Fig9Attack::Pum => PumCovertChannel::setup(&mut sys, 16)
                .expect("setup")
                .transmit(&mut sys, &message),
        }
        .expect("transmit");
        r.goodput_mbps(cfg.clock)
    });

    let mut fig = Figure::new(
        "fig9",
        "Leakage throughput of IMPACT vs state-of-the-art covert channels",
        "LLC size (MB)",
        "leakage throughput (Mb/s)",
    )
    .with_note("paper: PnM 8.2 Mb/s, PuM 14.8 Mb/s, both LLC-independent")
    .with_note("paper: DRAMA-clflush up to 2.29 Mb/s declining; DMA 0.81 Mb/s flat");
    for (a, (name, _)) in FIG9_ATTACKS.iter().enumerate() {
        let pts = sizes_mb
            .iter()
            .zip(goodput.chunks(FIG9_ATTACKS.len()))
            .map(|(&mb, row)| (mb as f64, row[a]))
            .collect();
        fig = fig.with_series(Series::new(*name, pts));
    }
    fig
}

/// Fig. 10: cycles spent in the sender and receiver routines to exchange a
/// 16-bit message (one batch) in IMPACT-PnM vs IMPACT-PuM.
#[must_use]
pub fn fig10() -> Figure {
    // Use an all-ones message so the sender cost reflects a full batch of
    // transmissions (the paper's worst-case sender work).
    let message = vec![true; 16];

    let mut sys = System::new(SystemConfig::paper_table2_noiseless());
    let mut pnm = PnmCovertChannel::setup(&mut sys, 16).expect("setup");
    let pnm_r = pnm.transmit(&mut sys, &message).expect("transmit");

    let mut sys = System::new(SystemConfig::paper_table2_noiseless());
    let mut pum = PumCovertChannel::setup(&mut sys, 16).expect("setup");
    let pum_r = pum.transmit(&mut sys, &message).expect("transmit");

    let ratio = pnm_r.sender_cycles.as_f64() / pum_r.sender_cycles.as_f64().max(1.0);
    Figure::new(
        "fig10",
        "Sender/receiver cycles for a 16-bit message",
        "attack (0 = PnM, 1 = PuM)",
        "cycles",
    )
    .with_series(Series::new(
        "Sender",
        vec![
            (0.0, pnm_r.sender_cycles.as_f64()),
            (1.0, pum_r.sender_cycles.as_f64()),
        ],
    ))
    .with_series(Series::new(
        "Receiver",
        vec![
            (0.0, pnm_r.receiver_cycles.as_f64()),
            (1.0, pum_r.receiver_cycles.as_f64()),
        ],
    ))
    .with_note(format!(
        "PnM sender / PuM sender = {ratio:.1}x (paper: 11.1x)"
    ))
    .with_note("receivers spend similar time: both probe every bank")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_separates_bits() {
        let f = fig8();
        for name in ["IMPACT-PnM (cycles)", "IMPACT-PuM (cycles)"] {
            let s = f.series_named(name).unwrap();
            assert_eq!(s.points.len(), 16);
            let (above, below): (Vec<f64>, Vec<f64>) =
                s.points.iter().map(|(_, y)| *y).partition(|&y| y > 150.0);
            assert!(!above.is_empty() && !below.is_empty(), "{name} degenerate");
        }
        // Error notes report zero errors.
        assert!(f.notes.iter().any(|n| n == "PnM bit errors: 0"));
        assert!(f.notes.iter().any(|n| n == "PuM bit errors: 0"));
    }

    #[test]
    fn fig9_ordering_holds() {
        let f = fig9(512);
        let at = |name: &str, x: f64| f.series_named(name).unwrap().y_at(x).unwrap();
        for &x in &[1.0, 8.0, 128.0] {
            assert!(
                at("IMPACT-PuM", x) > at("IMPACT-PnM", x),
                "PuM !> PnM at {x} MB"
            );
            assert!(
                at("IMPACT-PnM", x) > at("DRAMA-clflush", x) * 2.0,
                "PnM !>> clflush at {x} MB"
            );
            assert!(at("DRAMA-clflush", x) > at("DMA Engine", x) * 0.8);
        }
        // DRAMA declines with LLC size; IMPACT does not.
        assert!(at("DRAMA-clflush", 1.0) > at("DRAMA-clflush", 128.0) * 1.3);
        let pnm_small = at("IMPACT-PnM", 1.0);
        let pnm_big = at("IMPACT-PnM", 128.0);
        assert!((pnm_small - pnm_big).abs() / pnm_small < 0.15);
    }

    #[test]
    fn fig10_sender_asymmetry() {
        let f = fig10();
        let sender = f.series_named("Sender").unwrap();
        let receiver = f.series_named("Receiver").unwrap();
        let pnm_s = sender.y_at(0.0).unwrap();
        let pum_s = sender.y_at(1.0).unwrap();
        assert!(pnm_s > 6.0 * pum_s, "sender ratio {:.1}", pnm_s / pum_s);
        // Receivers comparable (within 40%).
        let pnm_r = receiver.y_at(0.0).unwrap();
        let pum_r = receiver.y_at(1.0).unwrap();
        assert!((pnm_r - pum_r).abs() / pnm_r < 0.4);
    }
}
