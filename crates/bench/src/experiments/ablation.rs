//! Ablation studies for four design choices of the reproduction: row
//! policy, batch size (bank parallelism), decode threshold and noise
//! sensitivity.

use impact_attacks::PnmCovertChannel;
use impact_attacks::PumCovertChannel;
use impact_core::config::{NoiseConfig, SystemConfig};
use impact_core::rng::SimRng;
use impact_core::time::Cycles;
use impact_dram::RowPolicy;
use impact_sim::BackendKind;

use crate::{Figure, Series};

/// Runs the four ablations and reports them as one multi-series figure:
///
/// * goodput under row policies (open / open+100ns idle timeout / closed);
/// * goodput vs covert-channel batch size (bank parallelism);
/// * error rate vs decode threshold;
/// * error rate vs prefetcher noise rate.
#[must_use]
pub fn ablations(quick: bool) -> Figure {
    ablations_on(BackendKind::Mono, quick)
}

/// [`ablations`] on an explicit memory backend.
#[must_use]
pub fn ablations_on(backend: BackendKind, quick: bool) -> Figure {
    let bits = if quick { 512 } else { 2048 };
    let message = SimRng::seed(0xAB1A).bits(bits);
    let clock = SystemConfig::paper_table2().clock;

    // (a) Row policy: the eager idle timeout already breaks the channel.
    let mut policy_pts = Vec::new();
    for (i, policy) in [
        RowPolicy::open_page(),
        RowPolicy::open_with_timeout(Cycles(260)),
        RowPolicy::closed_page(),
    ]
    .into_iter()
    .enumerate()
    {
        let mut sys = backend.system(SystemConfig::paper_table2_noiseless());
        sys.set_row_policy(policy);
        let mut ch = PnmCovertChannel::setup(&mut sys, 16).expect("setup");
        let r = ch.transmit(&mut sys, &message).expect("transmit");
        policy_pts.push((i as f64, r.goodput_mbps(clock)));
    }

    // (b) Batch size (bank parallelism) for both IMPACT variants.
    let mut pnm_batch = Vec::new();
    let mut pum_batch = Vec::new();
    for banks in [2usize, 4, 8, 16] {
        let mut sys = backend.system(SystemConfig::paper_table2_noiseless());
        let mut ch = PnmCovertChannel::setup(&mut sys, banks).expect("setup");
        let r = ch.transmit(&mut sys, &message).expect("transmit");
        pnm_batch.push((banks as f64, r.goodput_mbps(clock)));

        let mut sys = backend.system(SystemConfig::paper_table2_noiseless());
        let mut ch = PumCovertChannel::setup(&mut sys, banks).expect("setup");
        let r = ch.transmit(&mut sys, &message).expect("transmit");
        pum_batch.push((banks as f64, r.goodput_mbps(clock)));
    }

    // (c) Decode threshold sweep (with noise, so mistuning shows up).
    let mut threshold_pts = Vec::new();
    for threshold in [110u64, 130, 150, 170, 190, 220] {
        let mut sys = backend.system(SystemConfig::paper_table2());
        let mut ch = PnmCovertChannel::setup(&mut sys, 16).expect("setup");
        ch.set_threshold(threshold);
        let r = ch.transmit(&mut sys, &message).expect("transmit");
        threshold_pts.push((threshold as f64, r.error_rate() * 100.0));
    }

    // (d) Noise sensitivity: prefetcher rate sweep.
    let mut noise_pts = Vec::new();
    for (i, rate) in [0.0, 0.005, 0.01, 0.02, 0.05].into_iter().enumerate() {
        let cfg = SystemConfig {
            noise: NoiseConfig {
                prefetcher_rate: rate,
                ptw_rate: 0.0,
                seed: 7,
            },
            ..SystemConfig::paper_table2()
        };
        let mut sys = backend.system(cfg);
        let mut ch = PnmCovertChannel::setup(&mut sys, 16).expect("setup");
        let r = ch.transmit(&mut sys, &message).expect("transmit");
        let _ = i;
        noise_pts.push((rate * 100.0, r.error_rate() * 100.0));
    }

    Figure::new(
        "ablations",
        "Design-choice ablations (DESIGN.md §4)",
        "see per-series x meaning",
        "Mb/s or % (per series)",
    )
    .with_series(Series::new("PnM goodput by row policy (Mb/s)", policy_pts))
    .with_series(Series::new("PnM goodput by batch size (Mb/s)", pnm_batch))
    .with_series(Series::new("PuM goodput by batch size (Mb/s)", pum_batch))
    .with_series(Series::new("PnM error by threshold (%)", threshold_pts))
    .with_series(Series::new("PnM error by prefetcher rate (%)", noise_pts))
    .with_note("row policy x: 0=open-page, 1=open+100ns idle timeout, 2=closed-page")
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
