//! Ablation studies for four design choices of the reproduction: row
//! policy, batch size (bank parallelism), decode threshold and noise
//! sensitivity.

use impact_attacks::PnmCovertChannel;
use impact_attacks::PumCovertChannel;
use impact_core::config::{NoiseConfig, SystemConfig};
use impact_core::par;
use impact_core::rng::SimRng;
use impact_dram::{ResolvedTiming, RowPolicy};
use impact_sim::System;

use crate::{Figure, Series};

/// One point of an ablation series: a covert-channel run on its own
/// [`System`].
#[derive(Clone, Copy)]
enum Point {
    /// PnM goodput under a row policy.
    RowPolicy(RowPolicy),
    /// PnM goodput with a batch of this many banks.
    PnmBatch(usize),
    /// PuM goodput with a batch of this many banks.
    PumBatch(usize),
    /// PnM error rate at this decode threshold, with noise on.
    Threshold(u64),
    /// PnM error rate at this prefetcher rate.
    PrefetcherRate(f64),
}

impl Point {
    /// The point's y value: goodput in Mb/s or error rate in %.
    fn measure(self, message: &[bool]) -> f64 {
        let clock = SystemConfig::paper_table2().clock;
        let pnm =
            |sys: &mut System, banks: usize| PnmCovertChannel::setup(sys, banks).expect("setup");
        match self {
            Point::RowPolicy(policy) => {
                let mut sys = System::new(SystemConfig::paper_table2_noiseless());
                sys.set_row_policy(policy);
                let r = pnm(&mut sys, 16).transmit(&mut sys, message);
                r.expect("transmit").goodput_mbps(clock)
            }
            Point::PnmBatch(banks) => {
                let mut sys = System::new(SystemConfig::paper_table2_noiseless());
                let r = pnm(&mut sys, banks).transmit(&mut sys, message);
                r.expect("transmit").goodput_mbps(clock)
            }
            Point::PumBatch(banks) => {
                let mut sys = System::new(SystemConfig::paper_table2_noiseless());
                let mut ch = PumCovertChannel::setup(&mut sys, banks).expect("setup");
                let r = ch.transmit(&mut sys, message);
                r.expect("transmit").goodput_mbps(clock)
            }
            Point::Threshold(threshold) => {
                let mut sys = System::new(SystemConfig::paper_table2());
                let mut ch = pnm(&mut sys, 16);
                ch.set_threshold(threshold);
                let r = ch.transmit(&mut sys, message);
                r.expect("transmit").error_rate() * 100.0
            }
            Point::PrefetcherRate(rate) => {
                let cfg = SystemConfig {
                    noise: NoiseConfig {
                        prefetcher_rate: rate,
                        ptw_rate: 0.0,
                        seed: 7,
                    },
                    ..SystemConfig::paper_table2()
                };
                let mut sys = System::new(cfg);
                let r = pnm(&mut sys, 16).transmit(&mut sys, message);
                r.expect("transmit").error_rate() * 100.0
            }
        }
    }
}

/// Runs the four ablations and reports them as one multi-series figure:
///
/// * goodput under row policies (open / open+100ns idle timeout / closed);
/// * goodput vs covert-channel batch size (bank parallelism);
/// * error rate vs decode threshold;
/// * error rate vs prefetcher noise rate.
///
/// Its 22 points each build their own [`System`] and are mapped over the
/// host's cores, so the figure is bit-identical at any worker count.
#[must_use]
pub fn ablations(quick: bool) -> Figure {
    let bits = if quick { 512 } else { 2048 };
    let message = SimRng::seed(0xAB1A).bits(bits);
    let batches = [2usize, 4, 8, 16];
    // Table 2's 100 ns idle row timeout, in cycles of its 2.6 GHz clock.
    let table2 = SystemConfig::paper_table2_noiseless();
    let row_timeout = ResolvedTiming::resolve(&table2.dram_timing, table2.clock).row_timeout;
    // (series name, its (x, point) pairs), in legend order.
    let series: [(&str, Vec<(f64, Point)>); 5] = [
        // (a) Row policy: the eager idle timeout already breaks the channel.
        (
            "PnM goodput by row policy (Mb/s)",
            [
                RowPolicy::open_page(),
                RowPolicy::open_with_timeout(row_timeout),
                RowPolicy::closed_page(),
            ]
            .into_iter()
            .enumerate()
            .map(|(i, policy)| (i as f64, Point::RowPolicy(policy)))
            .collect(),
        ),
        // (b) Batch size (bank parallelism) for both IMPACT variants.
        (
            "PnM goodput by batch size (Mb/s)",
            batches
                .iter()
                .map(|&b| (b as f64, Point::PnmBatch(b)))
                .collect(),
        ),
        (
            "PuM goodput by batch size (Mb/s)",
            batches
                .iter()
                .map(|&b| (b as f64, Point::PumBatch(b)))
                .collect(),
        ),
        // (c) Decode threshold sweep (with noise, so mistuning shows up).
        (
            "PnM error by threshold (%)",
            [110u64, 130, 150, 170, 190, 220]
                .into_iter()
                .map(|t| (t as f64, Point::Threshold(t)))
                .collect(),
        ),
        // (d) Noise sensitivity: prefetcher rate sweep.
        (
            "PnM error by prefetcher rate (%)",
            [0.0, 0.005, 0.01, 0.02, 0.05]
                .into_iter()
                .map(|rate| (rate * 100.0, Point::PrefetcherRate(rate)))
                .collect(),
        ),
    ];
    let points: Vec<Point> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|&(_, p)| p))
        .collect();
    let mut ys =
        par::ordered_map(points, par::available_workers(), |p| p.measure(&message)).into_iter();

    let mut fig = Figure::new(
        "ablations",
        "Design-choice ablations (DESIGN.md §4)",
        "see per-series x meaning",
        "Mb/s or % (per series)",
    );
    for (name, pts) in series {
        let pts = pts
            .into_iter()
            .map(|(x, _)| (x, ys.next().expect("one y per point")))
            .collect();
        fig = fig.with_series(Series::new(name, pts));
    }
    fig.with_note("row policy x: 0=open-page, 1=open+100ns idle timeout, 2=closed-page")
        .with_note("an eager idle row timeout acts as a (costly) defense: the hit signal dies")
        .with_note("threshold x: decode threshold in cycles; noise x: prefetcher rate in %")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_policy_ablation_kills_channel() {
        let f = ablations(true);
        let s = f.series_named("PnM goodput by row policy (Mb/s)").unwrap();
        let open = s.y_at(0.0).unwrap();
        let timeout = s.y_at(1.0).unwrap();
        let closed = s.y_at(2.0).unwrap();
        assert!(open > 5.0, "open-page goodput {open:.2}");
        // Goodput counts only correct bits: with the signal gone, ~half the
        // bits error out and goodput collapses.
        assert!(
            timeout < open * 0.7,
            "timeout {timeout:.2} vs open {open:.2}"
        );
        assert!(closed < open * 0.7, "closed {closed:.2} vs open {open:.2}");
    }

    #[test]
    fn parallelism_scales_throughput() {
        let f = ablations(true);
        // PuM's single masked request per batch makes parallelism its
        // core advantage; PnM's serial sender gains less.
        let pum = f.series_named("PuM goodput by batch size (Mb/s)").unwrap();
        assert!(
            pum.y_at(16.0).unwrap() > pum.y_at(2.0).unwrap() * 1.5,
            "PuM does not scale"
        );
        let pnm = f.series_named("PnM goodput by batch size (Mb/s)").unwrap();
        assert!(
            pnm.y_at(16.0).unwrap() > pnm.y_at(2.0).unwrap() * 1.2,
            "PnM does not scale"
        );
    }

    #[test]
    fn paper_threshold_is_near_optimal() {
        let f = ablations(true);
        let s = f.series_named("PnM error by threshold (%)").unwrap();
        let at_150 = s.y_at(150.0).unwrap();
        let at_110 = s.y_at(110.0).unwrap();
        let at_220 = s.y_at(220.0).unwrap();
        assert!(at_150 <= at_110 + 1e-9, "150 worse than 110");
        assert!(at_150 <= at_220 + 1e-9, "150 worse than 220");
    }

    #[test]
    fn noise_increases_errors() {
        let f = ablations(true);
        let s = f.series_named("PnM error by prefetcher rate (%)").unwrap();
        let clean = s.y_at(0.0).unwrap();
        let noisy = s.points.last().unwrap().1;
        assert_eq!(clean, 0.0);
        assert!(noisy > 0.0, "noise produced no errors");
    }
}
