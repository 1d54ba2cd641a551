//! Fig. 12: defense overheads on BC/BFS/CC/TC/XS, plus the attack-
//! throughput reduction of ACT-Aggressive.

use impact_attacks::PnmCovertChannel;
use impact_core::config::SystemConfig;
use impact_core::par;
use impact_core::rng::SimRng;
use impact_core::stats::geometric_mean;
use impact_memctrl::{ActConfig, Defense, MemoryController};
use impact_sim::System;
use impact_workloads::graph::Graph;
use impact_workloads::{kernels, replay_lanes, Trace};

use crate::{Figure, Series};

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
/// defense.
fn fig12_workloads(quick: bool) -> Vec<(&'static str, Trace)> {
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

/// Fig. 12: normalized execution time of CTD and the three ACT variants
/// over a no-defense baseline, per workload plus GMEAN; the notes report
/// ACT-Aggressive's reduction of IMPACT-PnM throughput (~72% in the
/// paper).
#[must_use]
pub fn fig12(quick: bool) -> Figure {
    fig12_on(quick, par::available_workers())
}

/// [`fig12`] with its five workloads mapped over `workers` threads. Each
/// workload replays its trace once, on a seeded [`System`] of its own:
/// the system's controller runs the no-defense baseline and one lane per
/// defense runs that row ([`replay_lanes`]). So the figure is
/// bit-identical at any worker count. Fig. 9, Fig. 11, the ablations and
/// the §8.4 bank study map their points the same way, over
/// [`par::available_workers`]; this is the one that also takes the worker
/// count as a parameter, so `tests/determinism.rs` can compare counts in
/// one process.
///
/// The noisy Table 2 configuration stands in for co-running cores: the
/// prefetcher/PTW activity creates the row conflicts that arm ACT, as in
/// the paper's multi-core evaluation.
#[must_use]
pub fn fig12_on(quick: bool, workers: usize) -> Figure {
    let workloads = fig12_workloads(quick);
    let defenses = defenses();
    // Per workload: the baseline's cycles, then each defense's.
    let rows: Vec<Vec<f64>> =
        par::ordered_map(workloads.iter().collect(), workers, |(_, trace)| {
            let cfg = fig12_system();
            let mut lanes: Vec<MemoryController> = defenses
                .iter()
                .map(|defense| {
                    let mut ctrl = MemoryController::from_config(&cfg);
                    ctrl.set_defense(defense.clone());
                    ctrl
                })
                .collect();
            let mut sys = System::new(cfg);
            let agent = sys.spawn_agent();
            replay_lanes(&mut sys, agent, trace, &mut lanes)
                .expect("replay")
                .iter()
                .map(|report| report.cycles.as_f64())
                .collect()
        });

    let mut fig = Figure::new(
        "fig12",
        "Defense performance overhead (normalized execution time)",
        "workload (0=BC 1=BFS 2=CC 3=TC 4=XS 5=GMEAN)",
        "normalized execution time",
    );
    // Legends come from `Defense::name()`, so the figure always matches
    // the paper's labels.
    for (i, defense) in defenses.iter().enumerate() {
        let normalized: Vec<f64> = rows.iter().map(|row| row[i + 1] / row[0]).collect();
        let mut points: Vec<(f64, f64)> = normalized
            .iter()
            .enumerate()
            .map(|(i, &y)| (i as f64, y))
            .collect();
        points.push((workloads.len() as f64, geometric_mean(&normalized)));
        fig = fig.with_series(Series::new(defense.name(), points));
    }

    // ACT-Aggressive's effect on the IMPACT-PnM covert channel.
    let bits = if quick { 512 } else { 2048 };
    let message = SimRng::seed(0xF12).bits(bits);
    let clock = SystemConfig::paper_table2().clock;
    let mut sys = System::new(SystemConfig::paper_table2_noiseless());
    let mut ch = PnmCovertChannel::setup(&mut sys, 16).expect("setup");
    let open = ch.transmit(&mut sys, &message).expect("transmit");
    let mut sys = System::new(SystemConfig::paper_table2_noiseless());
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
    use impact_cache::CacheHierarchy;
    use impact_core::addr::PhysAddr;
    use impact_core::engine::MemoryBackend;
    use impact_memctrl::ControllerBackend;
    use impact_workloads::replay;
    use impact_workloads::trace::TraceBuilder;

    /// One store to every line of twice the LLC, in order: the second
    /// half evicts the first half's dirty lines, so write-backs reach
    /// memory. (Fig. 12's kernels write back nothing at its cache sizes.)
    fn store_sweep(cfg: &SystemConfig) -> Trace {
        let lines = 2 * cfg.l3.size_bytes / 64;
        let mut b = TraceBuilder::new();
        let base = b.region(lines * 64);
        for line in 0..lines {
            b.store(base, line, 64, 3);
        }
        b.finish()
    }

    /// The no-defense baseline plus every other defense a lane may run.
    fn lane_defenses() -> Vec<Defense> {
        [Defense::None, Defense::Crp]
            .into_iter()
            .chain(defenses())
            .collect()
    }

    /// Replays `trace` once with a lane per defense and requires every
    /// side to equal a fresh `System` with that defense replaying alone:
    /// cycles, operation and row-buffer counts, controller statistics and
    /// the final DRAM state.
    fn assert_lanes_match_fresh_replays(cfg: &SystemConfig, name: &str, trace: &Trace) {
        let mut lanes: Vec<MemoryController> = lane_defenses()
            .into_iter()
            .map(|defense| {
                let mut ctrl = MemoryController::from_config(cfg);
                ctrl.set_defense(defense);
                ctrl
            })
            .collect();
        let mut sys = System::new(cfg.clone());
        let agent = sys.spawn_agent();
        let reports = replay_lanes(&mut sys, agent, trace, &mut lanes).unwrap();
        assert_eq!(reports.len(), 1 + lanes.len());
        let sides = std::iter::once(sys.backend()).chain(&lanes);
        let defenses = std::iter::once(Defense::None).chain(lane_defenses());
        for ((defense, ctrl), report) in defenses.zip(sides).zip(reports) {
            let label = format!("{name} under {}", defense.name());
            let mut fresh = System::new(cfg.clone());
            fresh.set_defense(defense);
            let a = fresh.spawn_agent();
            assert_eq!(report, replay(&mut fresh, a, trace).unwrap(), "{label}");
            assert_eq!(
                ctrl.backend_stats(),
                fresh.backend().backend_stats(),
                "{label}"
            );
            assert_eq!(
                ctrl.dram_state_digest(),
                fresh.backend().dram_state_digest(),
                "{label}"
            );
        }
    }

    #[test]
    fn lanes_match_fresh_replays_on_both_machines() {
        for cfg in [fig12_system(), SystemConfig::paper_table2_noiseless()] {
            for (name, trace) in fig12_workloads(true) {
                assert_lanes_match_fresh_replays(&cfg, name, &trace);
            }
        }
    }

    #[test]
    fn store_sweep_write_backs_reach_every_lane() {
        let cfg = fig12_system();
        let trace = store_sweep(&cfg);
        let mut caches = CacheHierarchy::from_config(&cfg);
        let writebacks: u32 = trace
            .ops()
            .iter()
            .filter_map(|op| caches.store(PhysAddr(u64::from(op.offset))).dirty_victim)
            .map(|(_, copies)| copies)
            .sum();
        assert!(writebacks > 1000, "the sweep wrote back {writebacks} lines");
        assert_lanes_match_fresh_replays(&cfg, "store sweep", &trace);
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
