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

/// Every row is a usage error: exit 2, the row's own message, then the
/// usage text.
#[test]
fn malformed_arguments_exit_with_usage_not_a_panic() {
    let fig_all = env!("CARGO_BIN_EXE_fig_all");
    let fleet_run = env!("CARGO_BIN_EXE_fleet_run");
    let trace_replay = env!("CARGO_BIN_EXE_trace_replay");
    let bench_record = env!("CARGO_BIN_EXE_bench_record");
    let cases: &[(&str, &[&str], &str)] = &[
        (fig_all, &["--jobs", "2"], "unknown flag"),
        (fig_all, &["--trace"], "--trace needs a value"),
        (fig_all, &["--metrics"], "--metrics needs a value"),
        (fig_all, &["nosuch"], "unknown experiment"),
        (fleet_run, &["--population"], "--population needs a value"),
        (
            fleet_run,
            &["--population", "abc"],
            "bad --population value",
        ),
        (
            fleet_run,
            &["--population", "99999999999999999999"],
            "bad --population value",
        ),
        (
            fleet_run,
            &["--workers", "0", "--population", "10"],
            "--workers must be at least 1",
        ),
        (fleet_run, &["--seed", "-1"], "bad --seed value"),
        // A flag is never taken as the value of the flag before it.
        (
            fleet_run,
            &["--population", "3", "--out", "--quick"],
            "--out needs a value",
        ),
        (fleet_run, &["--trace", "--quick"], "--trace needs a value"),
        (trace_replay, &[], "missing subcommand"),
        (
            trace_replay,
            &["replay"],
            "replay takes exactly one trace file",
        ),
        (trace_replay, &["record"], "record needs --out FILE"),
        (
            trace_replay,
            &["record", "--out", "--quick"],
            "--out needs a value",
        ),
        (
            trace_replay,
            &["replay", "NO_SUCH_FILE", "--metrics", "--quick"],
            "--metrics needs a value",
        ),
        (
            trace_replay,
            &["merge", "OUT"],
            "merge takes an output file then at least two inputs",
        ),
        (bench_record, &["--label"], "--label needs a value"),
        (bench_record, &["--out"], "--out needs a value"),
        (bench_record, &["--out", "--quick"], "--out needs a value"),
    ];
    for (bin, args, message) in cases {
        let (code, stderr) = assert_clean_failure(bin, args);
        assert_eq!(code, 2, "{args:?} is a usage error:\n{stderr}");
        assert!(
            stderr.contains(message),
            "{args:?}: no {message:?} in:\n{stderr}"
        );
        assert!(
            stderr.contains("usage:"),
            "{args:?}: no usage text in:\n{stderr}"
        );
    }
}

/// `trace_replay` reports a file it cannot open or create as a failure of
/// the run (exit 1, one `trace_replay: cannot …` line), not as a usage
/// error.
#[test]
fn trace_replay_io_failures_are_not_usage_errors() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let missing = dir.join(format!("cli_args_no_trace_{}.trace", std::process::id()));
    let missing = missing.to_str().expect("utf-8 temp path");
    let unwritable = dir
        .join(format!("cli_args_no_dir_{}", std::process::id()))
        .join("x.trace");
    let unwritable = unwritable.to_str().expect("utf-8 temp path");
    let cases: [&[&str]; 4] = [
        &["replay", missing],
        &["stats", missing],
        &["diff", missing, missing],
        &["record", "--quick", "--out", unwritable],
    ];
    for args in cases {
        let (code, stderr) = assert_clean_failure(env!("CARGO_BIN_EXE_trace_replay"), args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("trace_replay: cannot "),
            "{args:?}: {stderr}"
        );
        assert!(
            !stderr.contains("usage:"),
            "{args:?} printed the usage text:\n{stderr}"
        );
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
    // Each figure prints as its experiment returns, the first once delta
    // has run, well after this drop: the first write that meets the
    // closed pipe ends the run, and no later experiment starts.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for fig_all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "fig_all panicked:\n{stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
}

/// A worker count far past the session count runs like one thread per
/// session (`ordered_map` clamps it): `16 * workers` must not overflow
/// into an empty claim, and the report does not depend on the count.
#[test]
fn fleet_run_accepts_a_huge_worker_count() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let run = |workers: &str| {
        let report = dir.join(format!(
            "cli_args_workers_{workers}_{}.json",
            std::process::id()
        ));
        let path = report.to_str().expect("utf-8 temp path");
        let args = [
            "--quick",
            "--population",
            "20",
            "--workers",
            workers,
            "--out",
            path,
        ];
        let out = Command::new(env!("CARGO_BIN_EXE_fleet_run"))
            .args(args)
            .output()
            .expect("run fleet_run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?} stderr:\n{stderr}");
        let json = std::fs::read(&report).expect("read the population report");
        std::fs::remove_file(&report).ok();
        json
    };
    assert_eq!(run("1152921504606846976"), run("1"));
}

/// Runs `fig_all --quick --metrics FILE experiments` and returns the
/// telemetry snapshot it wrote.
fn quick_metrics(experiments: &[&str]) -> String {
    let metrics = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "cli_args_metrics_{}_{}.json",
        std::process::id(),
        experiments.join("_")
    ));
    let path = metrics.to_str().expect("utf-8 temp path");
    let out = Command::new(env!("CARGO_BIN_EXE_fig_all"))
        .args(["--quick", "--metrics", path])
        .args(experiments)
        .output()
        .expect("run fig_all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    let json = std::fs::read_to_string(&metrics).expect("read the snapshot");
    std::fs::remove_file(&metrics).ok();
    json
}

/// The number that follows `key` in `json`.
fn number_after(json: &str, key: &str) -> u64 {
    let at = json
        .find(key)
        .unwrap_or_else(|| panic!("no {key} in\n{json}"))
        + key.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("no number after {key} in\n{json}"))
}

/// `fig_all` times each experiment it runs: `--metrics` holds one
/// `sweep.experiment.wall_ns` sample per selected experiment.
#[test]
fn fig_all_times_each_experiment_it_runs() {
    let json = quick_metrics(&["table1", "table2"]);
    assert!(
        json.contains("\"sweep.experiment.wall_ns\": {\"count\": 2,"),
        "{json}"
    );
}

/// Which work reaches `service_batch`, as `(calls, requests)`: only
/// fig11's init sweeps, one 64-row burst chunk at a time over 1,024 +
/// 2,048 + 4,096 + 8,192 banks. The covert channels' receivers probe one
/// bank at a time, as Listing 1 does, so the other experiments that run
/// them batch nothing.
#[test]
fn only_fig11_init_sweeps_reach_service_batch() {
    let batched = |experiments: &[&str]| {
        let json = quick_metrics(experiments);
        let hist = &json[json.find("\"ctrl.batch.size\"").expect("batch histogram")..];
        (
            number_after(&json, "\"ctrl.segments.serial\": "),
            number_after(hist, "\"sum\": "),
        )
    };
    assert_eq!(batched(&["fig11"]), (240, 15_360));
    assert_eq!(
        batched(&["fig8", "fig10", "future_banks", "ablations", "fig12"]),
        (0, 0)
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
