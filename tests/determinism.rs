//! Reproducibility: identical seeds produce bit-identical experiment
//! results across runs, backends, thread counts and fleet worker counts
//! (the property every `fig_all` figure and fleet digest relies on).

use impact::attacks::side_channel::{SideChannelAttack, SideChannelConfig};
use impact::attacks::{PnmCovertChannel, PumCovertChannel};
use impact::core::config::SystemConfig;
use impact::core::rng::SimRng;
use impact::sim::{BackendKind, System, TracedSystem};
use impact::workloads::graph::Graph;
use impact::workloads::{kernels, replay};
use impact_bench::experiments::{
    fig12_workloads, suite, DefenseOverheadSweep, LlcAxis, LlcCurve, LlcSweep,
};
use impact_bench::runner::{series_bits_eq, SweepRunner};
use impact_bench::Scenario;

#[test]
fn covert_channel_reports_are_deterministic() {
    let run = || {
        let msg = SimRng::seed(5).bits(1024);
        let mut sys = System::new(SystemConfig::paper_table2());
        let mut ch = PnmCovertChannel::setup(&mut sys, 16).unwrap();
        let r = ch.transmit(&mut sys, &msg).unwrap();
        (r.bit_errors, r.elapsed, r.sender_cycles, r.receiver_cycles)
    };
    assert_eq!(run(), run());

    let run_pum = || {
        let msg = SimRng::seed(6).bits(1024);
        let mut sys = System::new(SystemConfig::paper_table2());
        let mut ch = PumCovertChannel::setup(&mut sys, 16).unwrap();
        let r = ch.transmit(&mut sys, &msg).unwrap();
        (r.bit_errors, r.elapsed)
    };
    assert_eq!(run_pum(), run_pum());
}

#[test]
fn side_channel_is_deterministic() {
    let run = || {
        let cfg = SystemConfig::paper_table2_noiseless().with_total_banks(1024);
        let mut sys = System::new(cfg);
        let attack = SideChannelAttack::new(SideChannelConfig {
            reads: 30,
            ..SideChannelConfig::default()
        });
        let r = attack.run(&mut sys).unwrap();
        (
            r.score.true_positives,
            r.score.false_positives,
            r.score.false_negatives,
            r.elapsed,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn workload_replay_is_deterministic() {
    let g = Graph::rmat(128, 512, 11);
    let (_, trace) = kernels::cc(&g);
    let run = || {
        let mut sys = System::new(SystemConfig::paper_table2());
        let a = sys.spawn_agent();
        let r = replay(&mut sys, a, &trace).unwrap();
        (r.cycles, r.row_hits, r.row_misses, r.row_conflicts)
    };
    assert_eq!(run(), run());
}

/// Unit-level smoke test under the expectations above: two systems built
/// from the same config, driven by the same seeded `SimRng` request
/// stream, accumulate bit-identical statistics.
#[test]
fn same_seed_systems_accumulate_identical_stats() {
    let run = |seed: u64| {
        let mut rng = SimRng::seed(seed);
        let mut sys = System::new(SystemConfig::paper_table2_noiseless());
        let agent = sys.spawn_agent();
        let rows: Vec<_> = (0..8)
            .map(|bank| sys.alloc_row_in_bank(agent, bank).unwrap())
            .collect();
        let mut latencies = Vec::new();
        for _ in 0..256 {
            let row = rows[rng.below(rows.len() as u64) as usize];
            let off = rng.below(64) * 64;
            let latency = if rng.flip() {
                sys.load(agent, row + off).unwrap().latency
            } else {
                sys.pim_op(agent, row + off).unwrap().latency
            };
            latencies.push(latency);
        }
        let ctrl = sys.memctrl().stats().clone();
        let bank0 = *sys.memctrl().dram().bank(0).stats();
        (
            latencies,
            sys.elapsed(),
            (ctrl.accesses, ctrl.rowclones, ctrl.blocked, ctrl.padded),
            bank0,
        )
    };
    assert_eq!(run(41), run(41));
    assert_ne!(run(41).0, run(42).0, "different seeds must diverge");
}

/// The SweepRunner contract: a sweep executed on one worker thread and on
/// many produces bit-identical `Series`, for both the ported experiment
/// families (the analytic LLC sweeps and the System-backed defense
/// sweeps).
#[test]
fn sweep_runner_thread_count_is_invisible() {
    // Fig. 2/3 curves (analytic, no System).
    for axis in [LlcAxis::SizeMb, LlcAxis::Ways] {
        for curve in [LlcCurve::Baseline, LlcCurve::Direct, LlcCurve::Eviction] {
            let sweep = LlcSweep { axis, curve };
            let serial = SweepRunner::new(1).run(&sweep);
            for threads in [2, 8] {
                let parallel = SweepRunner::new(threads).run(&sweep);
                assert!(
                    series_bits_eq(&serial, &parallel),
                    "LLC sweep {axis:?}/{curve:?} diverged at {threads} threads"
                );
            }
        }
    }

    // Fig. 12 curves: one full seeded System replay per sweep point.
    let workloads = fig12_workloads(true);
    for defense in [
        None,
        Some(impact::memctrl::Defense::Ctd),
        Some(impact::memctrl::Defense::Act(
            impact::memctrl::ActConfig::aggressive(),
        )),
    ] {
        let sweep = DefenseOverheadSweep {
            workloads: &workloads,
            defense,
            baseline: &[],
            backend: BackendKind::Mono,
        };
        let serial = SweepRunner::new(1).run(&sweep);
        for threads in [2, 8] {
            let parallel = SweepRunner::new(threads).run(&sweep);
            assert!(
                series_bits_eq(&serial, &parallel),
                "defense sweep `{}` diverged at {threads} threads",
                serial.name
            );
        }
        // And the Scenario's own serial entry point agrees.
        assert!(series_bits_eq(&serial, &sweep.run()));
    }
}

/// The covert channel is observably identical on every backend at
/// whole-experiment granularity: the runtime-selected (boxed) controller
/// and the tracing proxy produce bit-identical reports to the statically
/// typed system.
#[test]
fn covert_channel_is_backend_invariant() {
    let msg = SimRng::seed(9).bits(768);
    let mono = {
        let mut sys = System::new(SystemConfig::paper_table2());
        let mut ch = PnmCovertChannel::setup(&mut sys, 16).unwrap();
        ch.transmit(&mut sys, &msg).unwrap()
    };
    for backend in [BackendKind::Mono, BackendKind::Traced] {
        let mut sys = backend.system(SystemConfig::paper_table2());
        let mut ch = PnmCovertChannel::setup(&mut sys, 16).unwrap();
        let r = ch.transmit(&mut sys, &msg).unwrap();
        assert_eq!(r, mono, "{} diverged from mono", backend.label());
    }
    let mut sys = TracedSystem::traced(SystemConfig::paper_table2());
    let mut ch = PnmCovertChannel::setup(&mut sys, 16).unwrap();
    assert_eq!(ch.transmit(&mut sys, &msg).unwrap(), mono);
    assert!(!sys.trace_log().is_empty());
}

/// The side channel, too, is invariant across backends.
#[test]
fn side_channel_is_backend_invariant() {
    let cfg = || SystemConfig::paper_table2_noiseless().with_total_banks(1024);
    let attack = || {
        SideChannelAttack::new(SideChannelConfig {
            reads: 25,
            ..SideChannelConfig::default()
        })
    };
    let digest = |r: &impact::attacks::SideChannelReport| {
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
    let mono = {
        let mut sys = System::new(cfg());
        digest(&attack().run(&mut sys).unwrap())
    };
    for backend in [BackendKind::Mono, BackendKind::Traced] {
        let mut sys = backend.system(cfg());
        let r = attack().run(&mut sys).unwrap();
        assert_eq!(digest(&r), mono, "{} diverged", backend.label());
    }
    let mut sys = TracedSystem::traced(cfg());
    let r = attack().run(&mut sys).unwrap();
    assert_eq!(digest(&r), mono, "traced system diverged");
}

/// A traced run's request log replays into a fresh backend of the same
/// configuration with bit-identical statistics — the repro-artifact
/// contract of the tracing proxy.
#[test]
fn trace_replay_reproduces_stats() {
    use impact::core::engine::MemoryBackend;
    use impact::core::trace::replay;
    use impact::memctrl::MemoryController;

    let cfg = SystemConfig::paper_table2();
    let mut sys = TracedSystem::traced(cfg.clone());
    let msg = SimRng::seed(77).bits(512);
    let mut ch = PnmCovertChannel::setup(&mut sys, 16).unwrap();
    ch.transmit(&mut sys, &msg).unwrap();

    let mut fresh = MemoryController::from_config(&cfg);
    replay(sys.trace_log(), &mut fresh).unwrap();
    assert_eq!(fresh.backend_stats(), sys.backend().backend_stats());
    assert_eq!(fresh.dram().total_stats(), sys.dram_totals());
}

/// `SweepRunner::run_all` shards whole experiments across workers with
/// bit-identical `Series` at every thread count, on the monolithic and
/// the traced backend alike.
#[test]
fn run_all_thread_count_is_invisible() {
    // A compact sub-suite keeps this test fast while still crossing the
    // analytic, covert-channel and replay experiment families.
    let pick = |backend: BackendKind| {
        let keep = ["delta", "fig2", "fig8", "fig10"];
        suite(true, backend)
            .into_iter()
            .filter(|j| keep.contains(&j.id()))
            .collect::<Vec<_>>()
    };
    for backend in [BackendKind::Mono, BackendKind::Traced] {
        let jobs = pick(backend);
        let serial = SweepRunner::serial().run_all(&jobs);
        for threads in [2, 4, 8] {
            let parallel = SweepRunner::new(threads).run_all(&jobs);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.id, b.id, "suite order changed at {threads} threads");
                assert_eq!(
                    a.series.len(),
                    b.series.len(),
                    "{}: series count diverged",
                    a.id
                );
                for (sa, sb) in a.series.iter().zip(&b.series) {
                    assert!(
                        series_bits_eq(sa, sb),
                        "{}/{} diverged at {threads} threads on {}",
                        a.id,
                        sa.name,
                        backend.label()
                    );
                }
                assert_eq!(a.notes, b.notes, "{}: notes diverged", a.id);
            }
        }
    }
}

/// The figures themselves are backend-invariant: the same sub-suite run
/// behind the tracing proxy produces bit-identical series to the mono
/// run.
#[test]
fn suite_is_backend_invariant() {
    let keep = ["delta", "fig8", "fig10"];
    let run = |backend: BackendKind| {
        let jobs: Vec<_> = suite(true, backend)
            .into_iter()
            .filter(|j| keep.contains(&j.id()))
            .collect();
        SweepRunner::serial().run_all(&jobs)
    };
    let mono = run(BackendKind::Mono);
    let traced = run(BackendKind::Traced);
    assert_eq!(mono.len(), traced.len());
    for (a, b) in mono.iter().zip(&traced) {
        for (sa, sb) in a.series.iter().zip(&b.series) {
            assert!(
                series_bits_eq(sa, sb),
                "{}/{} diverged on traced",
                a.id,
                sa.name
            );
        }
        assert_eq!(a.notes, b.notes, "{} notes diverged", a.id);
    }
}

#[test]
fn different_seeds_differ() {
    let with_seed = |seed: u64| {
        let msg = SimRng::seed(seed).bits(512);
        let mut sys = System::new(SystemConfig::paper_table2());
        let mut ch = PnmCovertChannel::setup(&mut sys, 16).unwrap();
        ch.transmit(&mut sys, &msg).unwrap().elapsed
    };
    // Different messages take (slightly) different time: the simulation
    // responds to input, not to a fixed script.
    assert_ne!(with_seed(1), with_seed(2));
}

/// The ROADMAP-mandated fleet pin: a seeded session population —
/// synthetic attacker/victim pairs plus sessions replaying prefixes of a
/// recorded trace — produces byte-identical aggregate output (canonical
/// JSON, population digest and all) at workers 1, 2 and 4, and under
/// shuffled session admission order.
#[test]
fn fleet_population_is_worker_and_admission_invariant() {
    use std::sync::Arc;

    use impact::core::trace::{TraceHeader, TraceSummary};
    use impact::fleet::{FleetConfig, FleetService};
    use impact::workloads::CapturedTrace;

    // Record a covert-channel transmission as the shared trace the
    // trace-fed sessions replay.
    let cfg = SystemConfig::paper_table2();
    let mut sys = TracedSystem::traced(cfg.clone());
    let msg = SimRng::seed(41).bits(96);
    let mut ch = PnmCovertChannel::setup(&mut sys, 16).unwrap();
    ch.transmit(&mut sys, &msg).unwrap();
    let trace = Arc::new(CapturedTrace {
        header: TraceHeader::for_config(&cfg, "paper_table2", 41),
        events: sys.trace_log().to_vec(),
        summary: TraceSummary::default(),
    });

    let run = |workers: usize, shuffle: Option<u64>| {
        let mut fleet_cfg = FleetConfig::quick(0xF1EE7).with_workers(workers);
        fleet_cfg.epoch_budget = 64;
        fleet_cfg.min_steps = 4;
        fleet_cfg.max_steps = 10;
        let mut fleet = FleetService::new(fleet_cfg);
        fleet.admit_synthetic(24);
        fleet
            .admit_trace(&trace, &cfg, 8)
            .expect("recorded run replays");
        if let Some(seed) = shuffle {
            fleet.permute_admission(seed);
        }
        let report = fleet.run(&mut |_| {});
        assert_eq!(report.finished(), 32);
        report.to_json()
    };
    let base = run(1, None);
    assert!(base.contains("\"sessions_synthetic\": 24"));
    assert!(base.contains("\"sessions_trace\": 8"));
    assert_eq!(base, run(2, None), "workers=2 diverged");
    assert_eq!(base, run(4, None), "workers=4 diverged");
    assert_eq!(base, run(4, Some(99)), "shuffled admission diverged");
}
