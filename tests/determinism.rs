//! Reproducibility: identical seeds produce bit-identical experiment
//! results across runs, the tracing proxy, thread counts and fleet worker
//! counts (the property every `fig_all` figure and fleet digest relies
//! on).

use impact::attacks::side_channel::{SideChannelAttack, SideChannelConfig};
use impact::attacks::{PnmCovertChannel, PumCovertChannel};
use impact::core::config::SystemConfig;
use impact::core::rng::SimRng;
use impact::sim::{System, TracedSystem};
use impact::workloads::graph::Graph;
use impact::workloads::{kernels, replay};
use impact_bench::experiments::fig12_on;
use impact_bench::runner::series_bits_eq;

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
        let ctrl = sys.backend().stats().clone();
        let bank0 = *sys.backend().dram().bank(0).stats();
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

/// Fig. 12 renders bit-identical series and notes at every worker count:
/// each of its 25 points is one full seeded System replay. Fig. 9, Fig.
/// 11, the ablations and the §8.4 bank study fan out the same way, but
/// over the host's core count; CI compares those with the inline path by
/// diffing `fig_all` pinned to one CPU against an unpinned run.
#[test]
fn fig12_worker_count_is_invisible() {
    let serial = fig12_on(true, 1);
    for workers in [2, 8] {
        let parallel = fig12_on(true, workers);
        assert_eq!(serial.series.len(), parallel.series.len());
        for (a, b) in serial.series.iter().zip(&parallel.series) {
            assert!(
                series_bits_eq(a, b),
                "fig12 `{}` diverged at {workers} workers",
                a.name
            );
        }
        assert_eq!(serial.notes, parallel.notes);
    }
}

/// The covert channel is observably identical at whole-experiment
/// granularity behind the tracing proxy that records it: a
/// [`TracedSystem`] produces a bit-identical report to [`System`].
#[test]
fn covert_channel_is_backend_invariant() {
    let msg = SimRng::seed(9).bits(768);
    let mono = {
        let mut sys = System::new(SystemConfig::paper_table2());
        let mut ch = PnmCovertChannel::setup(&mut sys, 16).unwrap();
        ch.transmit(&mut sys, &msg).unwrap()
    };
    let mut sys = TracedSystem::recording(
        SystemConfig::paper_table2(),
        std::io::sink(),
        "paper_table2",
        9,
    )
    .unwrap();
    let mut ch = PnmCovertChannel::setup(&mut sys, 16).unwrap();
    assert_eq!(ch.transmit(&mut sys, &msg).unwrap(), mono);
    assert!(sys.backend().summary().events > 0);
}

/// The side channel, too, is unchanged behind the tracing proxy.
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
    let label = "paper_table2_noiseless+banks:1024";
    let mut sys = TracedSystem::recording(cfg(), std::io::sink(), label, 0).unwrap();
    let r = attack().run(&mut sys).unwrap();
    assert_eq!(digest(&r), mono, "traced system diverged");
}

/// A traced run's recorded events replay into a fresh backend of the
/// same configuration with bit-identical statistics — the repro-artifact
/// contract of the tracing proxy.
#[test]
fn trace_replay_reproduces_stats() {
    use impact::core::engine::MemoryBackend;
    use impact::core::trace::{read_trace, replay_events};
    use impact::memctrl::MemoryController;

    let cfg = SystemConfig::paper_table2();
    let mut sys = TracedSystem::recording(cfg.clone(), Vec::new(), "paper_table2", 77).unwrap();
    let msg = SimRng::seed(77).bits(512);
    let mut ch = PnmCovertChannel::setup(&mut sys, 16).unwrap();
    ch.transmit(&mut sys, &msg).unwrap();
    let totals = sys.dram_totals();
    let (summary, bytes) = sys.finish_trace().unwrap();

    let (_, events, _) = read_trace(&bytes[..]).unwrap();
    let mut fresh = MemoryController::from_config(&cfg);
    replay_events(&events, &mut fresh, |_| {}).unwrap();
    assert_eq!(fresh.backend_stats(), summary.stats);
    assert_eq!(fresh.dram().total_stats(), totals);
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
/// JSON, population digest and all) at workers 1, 2 and 4.
#[test]
fn fleet_population_is_worker_invariant() {
    use std::sync::Arc;

    use impact::fleet::{FleetConfig, FleetService};
    use impact::workloads::CapturedTrace;

    // Record a covert-channel transmission as the shared trace the
    // trace-fed sessions replay.
    let cfg = SystemConfig::paper_table2();
    let mut sys = TracedSystem::recording(cfg.clone(), Vec::new(), "paper_table2", 41).unwrap();
    let msg = SimRng::seed(41).bits(96);
    let mut ch = PnmCovertChannel::setup(&mut sys, 16).unwrap();
    ch.transmit(&mut sys, &msg).unwrap();
    let (_, bytes) = sys.finish_trace().unwrap();
    let trace = Arc::new(CapturedTrace::read_from(&bytes[..]).unwrap());

    let run = |workers: usize| {
        let mut fleet_cfg = FleetConfig::quick(0xF1EE7).with_workers(workers);
        fleet_cfg.epoch_budget = 64;
        fleet_cfg.min_steps = 4;
        fleet_cfg.max_steps = 10;
        let mut fleet = FleetService::new(fleet_cfg);
        fleet.admit_synthetic(24);
        fleet
            .admit_trace(&trace, &cfg, 8)
            .expect("recorded run replays");
        let report = fleet.run(&mut |_| {});
        assert_eq!(report.finished(), 32);
        report.to_json()
    };
    let base = run(1);
    assert!(base.contains("\"sessions_synthetic\": 24"));
    assert!(base.contains("\"sessions_trace\": 8"));
    assert_eq!(base, run(2), "workers=2 diverged");
    assert_eq!(base, run(4), "workers=4 diverged");
}
