//! Fig. 11: the genomic read-mapping side channel across bank counts.

use impact_attacks::side_channel::{SideChannelAttack, SideChannelConfig};
use impact_core::config::SystemConfig;
use impact_core::par;
use impact_sim::System;

use crate::{Figure, Series};

/// Fig. 11: leakage throughput (Mb/s) and error rate (%) of the
/// read-mapping side channel for 1024–8192 DRAM banks. The four bank
/// counts each build their own [`System`] and are mapped over the host's
/// cores, so the figure is bit-identical at any worker count.
#[must_use]
pub fn fig11(reads: usize) -> Figure {
    let banks = vec![1024u32, 2048, 4096, 8192];
    let reports = par::ordered_map(banks, par::available_workers(), |b| {
        let cfg = SystemConfig::paper_table2_noiseless().with_total_banks(b);
        let mut sys = System::new(cfg);
        let attack = SideChannelAttack::new(SideChannelConfig {
            reads,
            ..SideChannelConfig::default()
        });
        let r = attack.run(&mut sys).expect("side channel run");
        let clock = sys.config().clock;
        let x = f64::from(b);
        (
            (x, r.throughput_mbps(clock)),
            (x, r.error_rate() * 100.0),
            (x, r.miss_rate() * 100.0),
        )
    });
    let tput = reports.iter().map(|p| p.0).collect();
    let err = reports.iter().map(|p| p.1).collect();
    let miss = reports.iter().map(|p| p.2).collect();
    Figure::new(
        "fig11",
        "Read-mapping side channel: throughput and error vs bank count",
        "DRAM banks",
        "Mb/s / %",
    )
    .with_series(Series::new("Leakage Throughput (Mb/s)", tput))
    .with_series(Series::new("Error Rate (%)", err))
    .with_series(Series::new("Missed-event Rate (%)", miss))
    .with_note("paper: 7.57 Mb/s @1024 banks (<5% error) -> 2.56 Mb/s @8192 (<15% error)")
    .with_note("bits per detection grow with banks (log2(B)); see §6.3 resolution argument")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_trends() {
        let f = fig11(40);
        let tput = f.series_named("Leakage Throughput (Mb/s)").unwrap();
        let err = f.series_named("Error Rate (%)").unwrap();
        let t1k = tput.y_at(1024.0).unwrap();
        let t8k = tput.y_at(8192.0).unwrap();
        assert!((5.0..=11.0).contains(&t1k), "t@1024 = {t1k:.2}");
        assert!(t8k < t1k * 0.75, "no throughput drop: {t1k:.2} -> {t8k:.2}");
        let e1k = err.y_at(1024.0).unwrap();
        let e8k = err.y_at(8192.0).unwrap();
        assert!(e1k < 5.0, "error@1024 = {e1k:.2}%");
        assert!(e8k > e1k, "error does not grow");
        assert!(e8k < 25.0, "error@8192 = {e8k:.2}%");
    }
}
