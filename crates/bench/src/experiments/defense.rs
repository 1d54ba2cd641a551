//! Fig. 12: defense overheads on BC/BFS/CC/TC/XS, plus the attack-
//! throughput reduction of ACT-Aggressive.

use impact_attacks::PnmCovertChannel;
use impact_core::config::SystemConfig;
use impact_core::rng::SimRng;
use impact_core::stats::geometric_mean;
use impact_memctrl::{ActConfig, Defense};
use impact_sim::BackendKind;
use impact_workloads::graph::Graph;
use impact_workloads::{kernels, replay, Trace};

use crate::runner::{Scenario, SweepRunner};
use crate::Figure;

/// The Fig. 12 system: Table 2 with the cache hierarchy scaled down in
/// proportion to the scaled-down workloads (the kernels' footprints are
/// ~1000x smaller than GraphBIG's, so the caches shrink too — otherwise
/// every workload would fit in the LLC and no defense would cost
/// anything). Noise stands in for co-running cores and arms ACT.
fn fig12_system() -> SystemConfig {
    let mut cfg = SystemConfig::paper_table2();
    cfg.l1d.size_bytes = 4 * 1024;
    cfg.l2.size_bytes = 16 * 1024;
    cfg.l3.size_bytes = 64 * 1024;
    cfg
}

/// The Fig. 12 workload set: (name, trace) pairs replayed under every
/// defense. Public so determinism tests can drive the same sweep the
/// figure uses.
#[must_use]
pub fn fig12_workloads(quick: bool) -> Vec<(&'static str, Trace)> {
    let scale = if quick { 1 } else { 2 };
    let g = Graph::rmat(256 * scale, 1024 * scale, 42);
    let g_small = Graph::rmat(128 * scale, 512 * scale, 43);
    let sources: Vec<usize> = (0..4).collect();
    let (_, bc_t) = kernels::bc(&g_small, &sources);
    let (_, bfs_t) = kernels::bfs(&g, 0);
    let (_, cc_t) = kernels::cc(&g_small);
    let (_, tc_t) = kernels::tc(&g_small);
    let (_, xs_t) = kernels::xsbench(400 * scale, 8192, 64, 44);
    vec![
        ("BC", bc_t),
        ("BFS", bfs_t),
        ("CC", cc_t),
        ("TC", tc_t),
        ("XS", xs_t),
    ]
}

fn defenses() -> Vec<Defense> {
    vec![
        Defense::Ctd,
        Defense::Act(ActConfig::aggressive()),
        Defense::Act(ActConfig::mild()),
        Defense::Act(ActConfig::conservative()),
    ]
}

/// One Fig. 12 curve as a parallelizable [`Scenario`]: replays every
/// workload on a fresh per-point [`System`](impact_sim::System) under
/// `defense` and reports cycles, normalized against `baseline` when one
/// is supplied.
///
/// The noisy Table 2 configuration stands in for co-running cores: the
/// prefetcher/PTW activity creates the row conflicts that arm ACT, as in
/// the paper's multi-core evaluation.
pub struct DefenseOverheadSweep<'a> {
    /// The workloads, from [`fig12_workloads`].
    pub workloads: &'a [(&'static str, Trace)],
    /// Defense under test; `None` measures the baseline.
    pub defense: Option<Defense>,
    /// Per-workload baseline cycles; empty to report raw cycles.
    pub baseline: &'a [f64],
    /// Memory backend each per-point system is built on.
    pub backend: BackendKind,
}

impl Scenario for DefenseOverheadSweep<'_> {
    fn name(&self) -> String {
        self.defense
            .as_ref()
            .map_or("No defense".into(), |d| d.name().into())
    }

    fn seed(&self) -> u64 {
        0xF12
    }

    fn xs(&self) -> Vec<f64> {
        (0..self.workloads.len()).map(|i| i as f64).collect()
    }

    fn eval(&self, x: f64, _rng: &mut SimRng) -> f64 {
        let i = x as usize;
        let mut sys = self.backend.system(fig12_system());
        if let Some(d) = &self.defense {
            sys.set_defense(d.clone());
        }
        let agent = sys.spawn_agent();
        let r = replay(&mut sys, agent, &self.workloads[i].1).expect("replay");
        let cycles = r.cycles.as_f64();
        if self.baseline.is_empty() {
            cycles
        } else {
            cycles / self.baseline[i]
        }
    }
}

/// Fig. 12: normalized execution time of CTD and the three ACT variants
/// over a no-defense baseline, per workload plus GMEAN; the notes report
/// ACT-Aggressive's reduction of IMPACT-PnM throughput (~72% in the
/// paper).
#[must_use]
pub fn fig12(quick: bool) -> Figure {
    fig12_on(BackendKind::Mono, quick)
}

/// [`fig12`] on an explicit memory backend.
#[must_use]
pub fn fig12_on(backend: BackendKind, quick: bool) -> Figure {
    let workloads = fig12_workloads(quick);
    let runner = SweepRunner::auto();

    // Baseline execution times, swept in parallel like every other curve.
    let baseline: Vec<f64> = runner
        .run(&DefenseOverheadSweep {
            workloads: &workloads,
            defense: None,
            baseline: &[],
            backend,
        })
        .points
        .into_iter()
        .map(|(_, y)| y)
        .collect();

    let mut fig = Figure::new(
        "fig12",
        "Defense performance overhead (normalized execution time)",
        "workload (0=BC 1=BFS 2=CC 3=TC 4=XS 5=GMEAN)",
        "normalized execution time",
    );

    // Series legends come from `Defense::name()` via the scenario, so the
    // figure always matches the paper's labels.
    for defense in defenses() {
        let mut series = runner.run(&DefenseOverheadSweep {
            workloads: &workloads,
            defense: Some(defense),
            baseline: &baseline,
            backend,
        });
        let normalized: Vec<f64> = series.points.iter().map(|&(_, y)| y).collect();
        series
            .points
            .push((workloads.len() as f64, geometric_mean(&normalized)));
        fig = fig.with_series(series);
    }

    // ACT-Aggressive's effect on the IMPACT-PnM covert channel.
    let bits = if quick { 512 } else { 2048 };
    let message = SimRng::seed(0xF12).bits(bits);
    let clock = SystemConfig::paper_table2().clock;
    let mut sys = backend.system(SystemConfig::paper_table2_noiseless());
    let mut ch = PnmCovertChannel::setup(&mut sys, 16).expect("setup");
    let open = ch.transmit(&mut sys, &message).expect("transmit");
    let mut sys = backend.system(SystemConfig::paper_table2_noiseless());
    sys.set_defense(Defense::Act(ActConfig::aggressive()));
    let mut ch = PnmCovertChannel::setup(&mut sys, 16).expect("setup");
    let defended = ch.transmit(&mut sys, &message).expect("transmit");
    let reduction = 1.0 - defended.goodput_mbps(clock) / open.goodput_mbps(clock).max(1e-9);
    fig.with_note(format!(
        "ACT-Aggressive reduces IMPACT-PnM goodput by {:.0}% (paper: ~72%)",
        reduction * 100.0
    ))
    .with_note("paper: ACT-Aggressive ~ CTD overhead; Mild/Conservative ~10% overhead")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::series_bits_eq;

    #[test]
    fn defense_sweep_parallel_matches_serial() {
        let workloads = fig12_workloads(true);
        let sweep = DefenseOverheadSweep {
            workloads: &workloads,
            defense: Some(Defense::Act(ActConfig::mild())),
            baseline: &[],
            backend: BackendKind::Mono,
        };
        let serial = SweepRunner::serial().run(&sweep);
        let parallel = SweepRunner::new(4).run(&sweep);
        assert!(series_bits_eq(&serial, &parallel));
    }

    #[test]
    fn fig12_overhead_ordering() {
        let f = fig12(true);
        let gmean_x = 5.0;
        let ctd = f.series_named("CTD").unwrap().y_at(gmean_x).unwrap();
        let aggressive = f
            .series_named("ACT-Aggressive")
            .unwrap()
            .y_at(gmean_x)
            .unwrap();
        let mild = f.series_named("ACT-Mild").unwrap().y_at(gmean_x).unwrap();
        let conservative = f
            .series_named("ACT-Conservative")
            .unwrap()
            .y_at(gmean_x)
            .unwrap();
        // CTD slows workloads noticeably; mild variants are cheaper.
        assert!(ctd > 1.02, "CTD gmean = {ctd:.3}");
        assert!(
            aggressive > mild,
            "aggressive {aggressive:.3} !> mild {mild:.3}"
        );
        assert!(
            mild >= conservative * 0.95,
            "mild {mild:.3} vs cons {conservative:.3}"
        );
        assert!(conservative < ctd, "conservative !< ctd");
        // All are slowdowns (>= 1.0 within tolerance).
        for s in &f.series {
            for (_, y) in &s.points {
                assert!(*y > 0.97, "{} speedup? {y:.3}", s.name);
            }
        }
    }

    #[test]
    fn fig12_reports_attack_reduction() {
        let f = fig12(true);
        let note = f
            .notes
            .iter()
            .find(|n| n.contains("reduces IMPACT-PnM"))
            .expect("reduction note");
        // Extract the percentage and require a substantial reduction.
        let pct: f64 = note
            .split("by ")
            .nth(1)
            .and_then(|s| s.split('%').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("parse pct");
        assert!(pct > 40.0, "reduction only {pct}%");
    }
}
