//! The command-line binaries reject malformed input with a usage error or
//! a typed failure (exit 1 or 2), never a panic. Every case in the table
//! exits before any simulation runs, so it is cheap even in a debug
//! build.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use impact_bench::trace_tools::{record_capture, replay_file, CaptureKind};
use impact_core::addr::PhysAddr;
use impact_core::config::SystemConfig;
use impact_core::engine::{MemRequest, ReqKind};
use impact_core::error::Error;
use impact_core::time::Cycles;
use impact_core::trace::{write_trace, TraceEvent};
use impact_sim::BackendKind;
use impact_workloads::CapturedTrace;

/// Runs `bin args` and asserts that it fails cleanly: exit code 1 or 2
/// and no panic message on stderr. Returns the exit code and stderr.
fn assert_clean_failure(bin: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let name = bin.rsplit('/').next().unwrap_or(bin);
    let code = out.status.code();
    assert!(
        matches!(code, Some(1 | 2)),
        "{name} {args:?} exited with {code:?}; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{name} {args:?} panicked:\n{stderr}"
    );
    (code.unwrap_or_default(), stderr)
}

#[test]
fn malformed_arguments_exit_with_usage_not_a_panic() {
    let fig_all = env!("CARGO_BIN_EXE_fig_all");
    let fleet_run = env!("CARGO_BIN_EXE_fleet_run");
    let trace_replay = env!("CARGO_BIN_EXE_trace_replay");
    let bench_record = env!("CARGO_BIN_EXE_bench_record");
    let cases: &[(&str, &[&str])] = &[
        (fig_all, &["--jobs"]),
        (fig_all, &["--jobs", "abc"]),
        (fig_all, &["--jobs", "0"]),
        (fig_all, &["--trace"]),
        (fig_all, &["--metrics"]),
        (fig_all, &["nosuch"]),
        (fleet_run, &["--population"]),
        (fleet_run, &["--population", "abc"]),
        (fleet_run, &["--population", "99999999999999999999"]),
        (fleet_run, &["--workers", "0", "--population", "10"]),
        (fleet_run, &["--seed", "-1"]),
        (trace_replay, &[]),
        (trace_replay, &["replay"]),
        (trace_replay, &["record"]),
        (trace_replay, &["merge", "OUT"]),
        (bench_record, &["--label"]),
        (bench_record, &["--out"]),
    ];
    for (bin, args) in cases {
        assert_clean_failure(bin, args);
    }
}

/// A reader that goes away before the first figure (`fig_all | head`)
/// ends the run quietly with exit 0, not a broken-pipe panic.
#[test]
fn fig_all_exits_quietly_when_its_reader_goes_away() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fig_all"))
        .arg("--quick")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run fig_all");
    // Figures print only once every experiment has run, long after this.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for fig_all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "fig_all panicked:\n{stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
}

/// A worker count far past the item count runs like one thread per
/// item: `16 * workers` must not overflow into an empty claim.
#[test]
fn fig_all_accepts_a_huge_job_count() {
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_fig_all"))
            .args(args)
            .output()
            .expect("run fig_all");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{args:?} stderr:\n{stderr}");
        out.stdout
    };
    assert_eq!(
        run(&["--jobs", "1152921504606846976", "table1", "table2"]),
        run(&["table1", "table2"])
    );
}

/// `fleet_run --check PATH` reads `PATH` before it drives any session, so
/// a mistyped path fails at once instead of after the whole population.
#[test]
fn fleet_run_check_reads_its_reference_before_any_session() {
    let missing = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli_args_no_report_{}.json", std::process::id()));
    let (code, stderr) = assert_clean_failure(
        env!("CARGO_BIN_EXE_fleet_run"),
        &[
            "--quick",
            "--population",
            "20",
            "--check",
            missing.to_str().expect("utf-8 temp path"),
        ],
    );
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert!(
        !stderr.contains("epoch 1"),
        "sessions ran before the check failed:\n{stderr}"
    );
}

/// Records a quick Mix capture to `path`.
fn record_quick_mix(path: &Path) {
    let sink = std::fs::File::create(path).expect("create capture file");
    record_capture(
        CaptureKind::Mix,
        BackendKind::Mono,
        true,
        0x7ACE,
        Box::new(std::io::BufWriter::new(sink)),
    )
    .expect("record quick capture");
}

/// A capture whose events no longer reproduce its footer is rejected by
/// `fleet_run --trace` before any session runs, as by `fig_all --trace`
/// and `trace_replay replay`.
#[test]
fn fleet_run_rejects_a_capture_that_misses_its_footer() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let pristine = dir.join(format!("cli_args_pristine_{}.trace", std::process::id()));
    let tampered = dir.join(format!("cli_args_tampered_{}.trace", std::process::id()));
    record_quick_mix(&pristine);

    // Move one demand request to the neighbouring bank (same row), then
    // re-encode the events under the original header and footer.
    let mut captured = CapturedTrace::load(&pristine).expect("decode capture");
    let row_bytes = SystemConfig::paper_table2().dram_geometry.row_bytes;
    let moved = captured
        .events
        .iter_mut()
        .find_map(|ev| match ev {
            TraceEvent::Request(req) if matches!(req.kind, ReqKind::Load | ReqKind::Store) => {
                Some(req)
            }
            _ => None,
        })
        .expect("the Mix capture holds demand requests");
    moved.addr = PhysAddr(moved.addr.0 ^ row_bytes);
    let bytes = write_trace(
        Vec::new(),
        &captured.header,
        &captured.events,
        &captured.summary,
    )
    .expect("re-encode capture");
    std::fs::write(&tampered, bytes).expect("write tampered capture");

    let (code, stderr) = assert_clean_failure(
        env!("CARGO_BIN_EXE_fleet_run"),
        &[
            "--quick",
            "--population",
            "0",
            "--trace",
            tampered.to_str().expect("utf-8 temp path"),
        ],
    );
    assert_eq!(code, 1, "{stderr}");
    assert!(
        stderr.contains("does not reproduce its own footer"),
        "expected the footer check to reject the capture:\n{stderr}"
    );

    std::fs::remove_file(&pristine).ok();
    std::fs::remove_file(&tampered).ok();
}

/// A capture that ends in an impossible RowClone (source equal to
/// destination, a range off a row boundary, or a mask bit past the bank
/// count) fails every replay with the controller's typed error, whichever
/// path replays it: `replay_file`, `CapturedTrace::verify`, `fleet_run
/// --trace` and `trace_replay replay`.
#[test]
fn every_replay_rejects_an_impossible_rowclone() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let pristine = dir.join(format!("cli_args_rc_pristine_{}.trace", std::process::id()));
    let crafted = dir.join(format!("cli_args_rc_crafted_{}.trace", std::process::id()));
    record_quick_mix(&pristine);
    let cfg = SystemConfig::paper_table2();
    let row_bytes = cfg.dram_geometry.row_bytes;
    let stripe = 16 * row_bytes;

    let impossible = [
        (PhysAddr(stripe), PhysAddr(stripe), 0b1),
        (PhysAddr(64), PhysAddr(stripe + 64), 0b1),
        (PhysAddr(0), PhysAddr(stripe), 1 << 20),
    ];
    for (src, dst, mask) in impossible {
        let mut captured = CapturedTrace::load(&pristine).expect("decode capture");
        captured
            .events
            .push(TraceEvent::Request(MemRequest::rowclone(
                src,
                dst,
                mask,
                Cycles(0),
                0,
            )));
        captured.summary.events += 1;
        let bytes = write_trace(
            Vec::new(),
            &captured.header,
            &captured.events,
            &captured.summary,
        )
        .expect("re-encode capture");
        let case = format!("{src:?} -> {dst:?} mask {mask:#x}");
        assert!(
            matches!(
                replay_file(&bytes[..], BackendKind::Mono),
                Err(Error::InvalidRowClone(_))
            ),
            "replay_file accepted {case}"
        );
        assert!(
            matches!(captured.verify(&cfg), Err(Error::InvalidRowClone(_))),
            "verify accepted {case}"
        );
        std::fs::write(&crafted, bytes).expect("write crafted capture");
        let path = crafted.to_str().expect("utf-8 temp path");
        for (bin, args) in [
            (
                env!("CARGO_BIN_EXE_fleet_run"),
                &["--quick", "--population", "0", "--trace", path][..],
            ),
            (env!("CARGO_BIN_EXE_trace_replay"), &["replay", path][..]),
        ] {
            let (code, stderr) = assert_clean_failure(bin, args);
            assert_eq!(code, 1, "{case}: {stderr}");
            assert!(
                stderr.contains("invalid rowclone operation"),
                "{case}: expected the controller to reject the RowClone:\n{stderr}"
            );
        }
    }

    std::fs::remove_file(&pristine).ok();
    std::fs::remove_file(&crafted).ok();
}

/// `trace_replay slice` checks its window before it writes: an
/// out-of-range window exits 1 and leaves an existing `--out` file as it
/// was.
#[test]
fn failed_slice_leaves_its_output_untouched() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let capture = dir.join(format!("cli_args_slice_in_{}.trace", std::process::id()));
    let out = dir.join(format!("cli_args_slice_out_{}.trace", std::process::id()));
    record_quick_mix(&capture);
    std::fs::write(&out, b"an earlier slice").expect("pre-fill --out");

    let (code, stderr) = assert_clean_failure(
        env!("CARGO_BIN_EXE_trace_replay"),
        &[
            "slice",
            capture.to_str().expect("utf-8 temp path"),
            "--out",
            out.to_str().expect("utf-8 temp path"),
            "--start",
            "999999",
            "--count",
            "2",
        ],
    );
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("out of range"), "{stderr}");
    assert_eq!(
        std::fs::read(&out).expect("read --out"),
        b"an earlier slice",
        "a failed slice changed its output file"
    );

    std::fs::remove_file(&capture).ok();
    std::fs::remove_file(&out).ok();
}
