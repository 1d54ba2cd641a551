//! The behavioural spec as pinned constants: the quick and full
//! `fig_all` text, the quick `fig_all --csv` output, a seeded fleet
//! population, a quick Mix capture and the full mix/pnm/bfs captures,
//! what the trace tools make of the quick capture (its figure, a slice, a
//! merge and a fleet of trace sessions), and every field of the attacks'
//! reports (each covert channel on six machines, fig11's side channel at
//! four bank counts), each reduced to a digest or a value that must not
//! move.
//!
//! The determinism and equivalence suites prove that backends, worker
//! counts, forks and replays agree *with each other*; a change that moves
//! all of them together would pass every one. These constants catch it.
//! They are the same in debug and release builds. A change that alters
//! model output on purpose updates them and says why.

use std::sync::Arc;

use impact::attacks::baseline::{BaselineChannel, BaselinePrimitive};
use impact::attacks::side_channel::{SideChannelAttack, SideChannelConfig};
use impact::attacks::{ChannelReport, PnmCovertChannel, PumCovertChannel};
use impact::core::config::SystemConfig;
use impact::core::hash::{fnv1a_bytes, fnv1a_u64, FNV_OFFSET};
use impact::core::rng::SimRng;
use impact::fleet::{FleetConfig, FleetService};
use impact::memctrl::{ActConfig, Defense, PeriodicBlock};
use impact::sim::{BackendKind, System};
use impact::workloads::CapturedTrace;
use impact_bench::experiments::suite;
use impact_bench::runner::run_and_print;
use impact_bench::trace_tools::{
    merge_captures, record_capture, replay_file, slice_capture, CaptureKind, CaptureOutcome,
    TraceScenario,
};

/// FNV-1a of `fig_all --quick` stdout, written by the loop `fig_all`
/// runs: every figure's text, each followed by a blank line.
#[test]
fn quick_suite_text_is_pinned() {
    let mut text = Vec::new();
    run_and_print(&suite(true, BackendKind::Mono), false, &mut text).unwrap();
    assert_eq!(fnv1a_bytes(FNV_OFFSET, &text), 0xfeaa_f24d_6159_5b5b);
}

/// FNV-1a of `fig_all --quick --csv` stdout: every figure's CSV after a
/// `# id` line, each followed by a blank line. Each CSV has the rows of
/// its figure's text table (the ablations' 14, not the first series' 3).
#[test]
fn quick_suite_csv_is_pinned() {
    let mut csv = Vec::new();
    run_and_print(&suite(true, BackendKind::Mono), true, &mut csv).unwrap();
    assert_eq!(fnv1a_bytes(FNV_OFFSET, &csv), 0x06d7_12fd_8c79_5c89);
}

/// FNV-1a of full `fig_all` stdout (the same value as perfbench's suite
/// digest).
#[test]
fn full_suite_text_is_pinned() {
    let mut text = Vec::new();
    run_and_print(&suite(false, BackendKind::Mono), false, &mut text).unwrap();
    assert_eq!(fnv1a_bytes(FNV_OFFSET, &text), 0x524d_13b2_dfb8_6c2a);
}

/// Population digest of 200 synthetic sessions on two workers.
#[test]
fn fleet_population_digest_is_pinned() {
    let mut fleet = FleetService::new(FleetConfig::quick(0xF1EE7).with_workers(2));
    fleet.admit_synthetic(200);
    let report = fleet.run(&mut |_| {});
    assert_eq!(report.finished(), 200);
    assert_eq!(report.digest, 0xdd44_47e4_9197_28d7);
}

/// An in-memory trace sink that stays readable after the recorder drops
/// its boxed handle.
#[derive(Clone, Default)]
struct Sink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Records `kind` at seed `0x7ACE` (what `trace_replay record` writes),
/// replays the file on a fresh controller (what `trace_replay replay`
/// checks) and returns the outcome with the FNV-1a of the file bytes.
fn capture(kind: CaptureKind, quick: bool) -> (CaptureOutcome, u64) {
    let sink = Sink::default();
    let outcome = record_capture(
        kind,
        BackendKind::Mono,
        quick,
        0x7ACE,
        Box::new(sink.clone()),
    )
    .expect("capture records");
    let bytes = sink.0.lock().unwrap();
    let replayed = replay_file(&bytes[..], BackendKind::Mono).expect("capture replays");
    assert!(replayed.matches(), "{} replay: {replayed:?}", kind.name());
    assert_eq!(
        replayed.state_digest,
        outcome.state_digest,
        "{} replayed state",
        kind.name()
    );
    (outcome, fnv1a_bytes(FNV_OFFSET, &bytes))
}

/// A quick Mix capture: its footer, the recording backend's final DRAM
/// state and the file bytes themselves.
#[test]
fn quick_mix_capture_is_pinned() {
    let (outcome, file) = capture(CaptureKind::Mix, true);
    assert_eq!(outcome.summary.events, 1316);
    assert_eq!(outcome.summary.responses, 2284);
    assert_eq!(outcome.summary.response_digest, 0x8c9e_c37a_360a_05dc);
    assert_eq!(outcome.state_digest, 0x1135_be60_e3cf_b90c);
    assert_eq!(file, 0xd30a_c26e_d923_cd4f);
}

/// The full-size mix, pnm and bfs captures: file bytes and the recording
/// backend's final DRAM state.
#[test]
fn full_captures_are_pinned() {
    for (kind, file_digest, state_digest) in [
        (
            CaptureKind::Mix,
            0x3ec2_0cce_ab83_ed93,
            0xf05e_8418_7c44_e825,
        ),
        (
            CaptureKind::Pnm,
            0xc447_a3e5_41a3_2cba,
            0x6a61_d307_9e3e_5c5e,
        ),
        (
            CaptureKind::Bfs,
            0xb979_7eff_fae2_e5c4,
            0xe21d_62fb_dd4e_4a76,
        ),
    ] {
        let (outcome, file) = capture(kind, false);
        assert_eq!(file, file_digest, "{} file", kind.name());
        assert_eq!(outcome.state_digest, state_digest, "{} state", kind.name());
    }
}

/// The quick Mix capture at seed `0x7ACE`, as `trace_replay record
/// --quick` writes it.
fn quick_mix() -> CapturedTrace {
    let sink = Sink::default();
    record_capture(
        CaptureKind::Mix,
        BackendKind::Mono,
        true,
        0x7ACE,
        Box::new(sink.clone()),
    )
    .expect("capture records");
    let bytes = sink.0.lock().unwrap();
    CapturedTrace::read_from(&bytes[..]).expect("capture decodes")
}

/// FNV-1a of the captured-trace figure over the quick Mix capture, with
/// the blank line `fig_all` prints after it: `fig_all --trace` stdout.
#[test]
fn trace_scenario_text_is_pinned() {
    let fig = TraceScenario::new(quick_mix())
        .expect("capture verifies")
        .figure();
    let text = fig.render_text() + "\n";
    assert_eq!(text.len(), 452);
    assert_eq!(
        fnv1a_bytes(FNV_OFFSET, text.as_bytes()),
        0x2eff_cc72_c700_7d0c
    );
}

/// Events [100, 600) of the quick Mix capture sliced into a standalone
/// trace, then merged in front of the whole capture: the recomputed
/// footers, the recomputing controller's DRAM state and the file bytes.
#[test]
fn slice_and_merge_of_the_quick_capture_are_pinned() {
    let captured = quick_mix();
    let mut window = Vec::new();
    let slice = slice_capture(&captured, 100, 500, &mut window).expect("slice");
    assert_eq!(slice.summary.events, 500);
    assert_eq!(slice.summary.responses, 885);
    assert_eq!(slice.summary.response_digest, 0xe777_8540_d8cb_a121);
    assert_eq!(slice.state_digest, 0x8c44_70dd_fc03_18d4);
    assert_eq!(fnv1a_bytes(FNV_OFFSET, &window), 0xe3c8_45cd_22f4_ec44);

    let window = CapturedTrace::read_from(&window[..]).expect("slice decodes");
    let mut merged = Vec::new();
    let merge = merge_captures(&[window, captured], &mut merged).expect("merge");
    assert_eq!(merge.summary.events, 1816);
    assert_eq!(merge.summary.responses, 3169);
    assert_eq!(merge.summary.response_digest, 0xcc9b_4f03_12ef_5bce);
    assert_eq!(merge.state_digest, 0x4d4e_e94a_bf77_5c79);
    assert_eq!(fnv1a_bytes(FNV_OFFSET, &merged), 0x882e_1bb2_ee7a_f91b);
}

/// Population digest of 16 trace sessions replaying growing prefixes of
/// the quick Mix capture on two workers.
#[test]
fn trace_fleet_digest_is_pinned() {
    let mut fleet = FleetService::new(FleetConfig::quick(0xF1EE7).with_workers(2));
    fleet
        .admit_trace(&Arc::new(quick_mix()), &SystemConfig::paper_table2(), 16)
        .expect("capture admits");
    let report = fleet.run(&mut |_| {});
    assert_eq!(report.finished(), 16);
    assert_eq!(report.epochs, 165);
    assert_eq!(report.digest, 0x6bad_0227_e29e_2e52);
}

/// Folds every field of a covert-channel report, observations included.
fn fold_report(mut h: u64, r: &ChannelReport) -> u64 {
    for v in [
        r.bits_sent,
        r.bit_errors,
        r.elapsed.0,
        r.sender_cycles.0,
        r.receiver_cycles.0,
        r.threshold,
    ] {
        h = fnv1a_u64(h, v);
    }
    for o in &r.observations {
        h = fnv1a_u64(h, o.bank as u64);
        h = fnv1a_u64(h, o.measured);
        h = fnv1a_u64(h, u64::from(o.sent));
        h = fnv1a_u64(h, u64::from(o.decoded));
    }
    h
}

/// Every covert channel (PnM and PuM at 4 and 16 banks, then the three
/// baselines on the message's first 256 bits) on each Table 2 machine,
/// each report folded field by field in that order. Under RFM the PnM
/// receiver filters the pauses as the `rfm` experiment does.
#[test]
fn covert_channel_reports_are_pinned() {
    let message = SimRng::seed(0x51AB).bits(1024);
    let noiseless = || System::new(SystemConfig::paper_table2_noiseless());
    let defended = |d: Defense| {
        let mut sys = noiseless();
        sys.set_defense(d);
        sys
    };
    let rfm = || {
        let mut sys = noiseless();
        sys.set_periodic_block(Some(PeriodicBlock::rfm_paper_default()));
        sys
    };
    let machines: [(&str, &dyn Fn() -> System, u64); 6] = [
        ("noiseless", &noiseless, 0x9984_162c_8d2e_6775),
        (
            "noisy",
            &|| System::new(SystemConfig::paper_table2()),
            0x9695_2f79_0809_08b9,
        ),
        ("CTD", &|| defended(Defense::Ctd), 0x5958_8600_869f_dd1f),
        ("CRP", &|| defended(Defense::Crp), 0xebb2_e538_dd39_2624),
        (
            "ACT-Aggressive",
            &|| defended(Defense::Act(ActConfig::aggressive())),
            0x6026_8cb7_d601_f8d7,
        ),
        ("RFM", &rfm, 0x17c0_484d_a1f4_c858),
    ];
    for (name, machine, digest) in machines {
        let mut reports = Vec::new();
        for banks in [4, 16] {
            let mut sys = machine();
            let mut ch = PnmCovertChannel::setup(&mut sys, banks).expect("PnM setup");
            if name == "RFM" {
                ch.set_rfm_filter(Some((400, 910)));
            }
            reports.push(ch.transmit(&mut sys, &message).expect("PnM transmit"));
        }
        for banks in [4, 16] {
            let mut sys = machine();
            let mut ch = PumCovertChannel::setup(&mut sys, banks).expect("PuM setup");
            reports.push(ch.transmit(&mut sys, &message).expect("PuM transmit"));
        }
        for primitive in [
            BaselinePrimitive::Clflush,
            BaselinePrimitive::Eviction,
            BaselinePrimitive::Dma,
        ] {
            let mut sys = machine();
            let mut ch = BaselineChannel::setup(&mut sys, primitive).expect("baseline setup");
            reports.push(
                ch.transmit(&mut sys, &message[..256])
                    .expect("baseline transmit"),
            );
        }
        for r in &reports {
            assert_eq!(r.observations.len() as u64, r.bits_sent, "{name}");
        }
        assert_eq!(
            reports.iter().fold(FNV_OFFSET, fold_report),
            digest,
            "{name}"
        );
    }
}

/// fig11's reports at 40 reads, per bank count: TP, FP, FN, probes,
/// victim accesses, elapsed cycles and the bits of `leaked_bits`.
#[test]
fn side_channel_reports_are_pinned() {
    for (banks, tp, fp, fn_, probes, victim, elapsed, leaked) in [
        (
            1024,
            1709,
            16,
            64,
            41984,
            1791,
            5_900_242,
            0x40d0_b080_0000_0000,
        ),
        (
            2048,
            1129,
            25,
            582,
            22528,
            1791,
            5_852_564,
            0x40c8_4180_0000_0000,
        ),
        (
            4096,
            893,
            75,
            856,
            24576,
            1791,
            6_363_088,
            0x40c4_ee00_0000_0000,
        ),
        (
            8192,
            658,
            113,
            967,
            24576,
            1791,
            6_348_510,
            0x40c0_b500_0000_0000,
        ),
    ] {
        let cfg = SystemConfig::paper_table2_noiseless().with_total_banks(banks);
        let mut sys = System::new(cfg);
        let attack = SideChannelAttack::new(SideChannelConfig {
            reads: 40,
            ..SideChannelConfig::default()
        });
        let r = attack.run(&mut sys).expect("side channel run");
        assert_eq!(
            (
                r.score.true_positives,
                r.score.false_positives,
                r.score.false_negatives,
                r.probes,
                r.victim_accesses,
                r.elapsed.0,
                r.leaked_bits.to_bits(),
            ),
            (tp, fp, fn_, probes, victim, elapsed, leaked),
            "{banks} banks"
        );
    }
}
