//! §8.4 extension: applicability to future DRAM devices.
//!
//! The paper argues that newer DRAM generations with more banks *increase*
//! IMPACT's covert-channel throughput, because the attack gains bank-level
//! parallelism. This experiment verifies the claim by scaling the device's
//! bank count and re-running both IMPACT variants with a matching batch
//! size (PuM capped at the 64-bank RowClone mask width).

use impact_attacks::{PnmCovertChannel, PumCovertChannel};
use impact_core::config::SystemConfig;
use impact_core::par;
use impact_core::rng::SimRng;
use impact_memctrl::PeriodicBlock;
use impact_sim::System;

use crate::{Figure, Series};

/// Covert-channel throughput on devices with 16–256 banks. Its 10
/// (bank count, attack) points each build their own [`System`] and are
/// mapped over the host's cores, so the figure is bit-identical at any
/// worker count.
#[must_use]
pub fn future_banks(message_bits: usize) -> Figure {
    let message = SimRng::seed(0x84).bits(message_bits);
    let clock = SystemConfig::paper_table2().clock;
    let banks = [16u32, 32, 64, 128, 256];
    // Each bank count runs PnM (`false`), then PuM (`true`).
    let points: Vec<(u32, bool)> = banks
        .iter()
        .flat_map(|&b| [(b, false), (b, true)])
        .collect();
    let goodput = par::ordered_map(points, par::available_workers(), |(banks, pum)| {
        let mut sys = System::new(SystemConfig::paper_table2_noiseless().with_total_banks(banks));
        let r = if pum {
            let pum_banks = banks.min(64) as usize; // mask width limit
            PumCovertChannel::setup(&mut sys, pum_banks)
                .expect("setup")
                .transmit(&mut sys, &message)
        } else {
            PnmCovertChannel::setup(&mut sys, banks as usize)
                .expect("setup")
                .transmit(&mut sys, &message)
        };
        r.expect("transmit").goodput_mbps(clock)
    });
    let series = |column: usize| {
        banks
            .iter()
            .zip(goodput.chunks(2))
            .map(|(&b, pair)| (f64::from(b), pair[column]))
            .collect()
    };
    Figure::new(
        "future_banks",
        "§8.4 extension: covert throughput on future many-bank devices",
        "DRAM banks",
        "goodput (Mb/s)",
    )
    .with_series(Series::new("IMPACT-PnM", series(0)))
    .with_series(Series::new("IMPACT-PuM (<=64-bank mask)", series(1)))
    .with_note("paper §8.4: more banks -> more parallelism -> higher IMPACT throughput")
    .with_note("PuM gains directly (one masked request covers the batch) until the 64-bit mask saturates")
    .with_note("PnM gains only from per-batch sync amortization: its sender issues blocking PEIs bit by bit")
}

/// §8.4 extension: RowHammer-mitigation pauses (RFM/PRAC) as a noise
/// source, and the paper's claim that the receiver can filter them out
/// because one preventive action costs >=350 ns — far above the 74-cycle
/// conflict delta.
///
/// Three configurations: no mitigation, mitigation without filtering, and
/// mitigation with the receiver subtracting the known pause cost.
#[must_use]
pub fn rfm_filtering(message_bits: usize) -> Figure {
    let message = SimRng::seed(0x8F4).bits(message_bits);
    let clock = SystemConfig::paper_table2().clock;
    let block = PeriodicBlock::rfm_paper_default();
    let mut goodput = Vec::new();
    let mut errors = Vec::new();
    for (x, rfm_on, filter) in [(0.0, false, false), (1.0, true, false), (2.0, true, true)] {
        let mut sys = System::new(SystemConfig::paper_table2_noiseless());
        if rfm_on {
            sys.set_periodic_block(Some(block));
        }
        let mut ch = PnmCovertChannel::setup(&mut sys, 16).expect("setup");
        if filter {
            // One preventive action adds `block` cycles: anything above
            // conflict + half a block must contain one.
            ch.set_rfm_filter(Some((400, block.block.0)));
        }
        let r = ch.transmit(&mut sys, &message).expect("transmit");
        goodput.push((x, r.goodput_mbps(clock)));
        errors.push((x, r.error_rate() * 100.0));
    }
    Figure::new(
        "rfm",
        "§8.4 extension: RFM/PRAC pauses and receiver-side filtering",
        "config (0=no RFM, 1=RFM unfiltered, 2=RFM filtered)",
        "Mb/s / %",
    )
    .with_series(Series::new("PnM goodput (Mb/s)", goodput))
    .with_series(Series::new("PnM error rate (%)", errors))
    .with_note(
        "paper §8.4: preventive actions cost >=350 ns and 'can be filtered out by the receiver'",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfm_filtering_restores_the_channel() {
        let f = rfm_filtering(1024);
        let err = f.series_named("PnM error rate (%)").unwrap();
        let clean = err.y_at(0.0).unwrap();
        let unfiltered = err.y_at(1.0).unwrap();
        let filtered = err.y_at(2.0).unwrap();
        assert_eq!(clean, 0.0);
        assert!(unfiltered > 1.0, "RFM caused no errors: {unfiltered:.2}%");
        assert!(
            filtered < unfiltered / 2.0,
            "filtering ineffective: {unfiltered:.2}% -> {filtered:.2}%"
        );
    }

    #[test]
    fn more_banks_increase_throughput() {
        let f = future_banks(1024);
        // PuM scales with bank parallelism up to the mask width (§8.4).
        let pum = f.series_named("IMPACT-PuM (<=64-bank mask)").unwrap();
        assert!(pum.y_at(64.0).unwrap() > pum.y_at(16.0).unwrap() * 1.1);
        // Mask-width saturation: 128/256 banks no better than 64.
        let at64 = pum.y_at(64.0).unwrap();
        let at256 = pum.y_at(256.0).unwrap();
        assert!(
            (at256 - at64).abs() / at64 < 0.1,
            "PuM kept scaling past mask"
        );
        // PnM's serial sender bounds its gain to sync amortization; it
        // must still improve slightly up to 64 banks and stay stable.
        let pnm = f.series_named("IMPACT-PnM").unwrap();
        assert!(pnm.y_at(64.0).unwrap() > pnm.y_at(16.0).unwrap());
        assert!(pnm.y_at(256.0).unwrap() > pnm.y_at(16.0).unwrap() * 0.9);
    }
}
